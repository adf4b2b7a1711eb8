//===- tests/nn_test.cpp - layers, architectures, serialization -*- C++ -*-===//

#include "src/nn/architectures.h"
#include "src/nn/conv.h"
#include "src/nn/conv_transpose.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/reshape.h"
#include "src/nn/serialize.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

namespace genprove {
namespace {

TEST(Linear, AffineInterfaceMatchesForward) {
  Rng R(1);
  Linear L(4, 3);
  L.setWeight(Tensor::randn({3, 4}, R));
  L.bias() = Tensor::randn({3}, R);
  Tensor X = Tensor::randn({2, 4}, R);
  const Tensor Fwd = L.forward(X);
  const Tensor Aff = L.applyAffine(X);
  for (int64_t I = 0; I < Fwd.numel(); ++I)
    EXPECT_DOUBLE_EQ(Fwd[I], Aff[I]);
  // Linear part + bias = affine.
  const Tensor Lin = L.applyLinear(X);
  for (int64_t I = 0; I < 2; ++I)
    for (int64_t J = 0; J < 3; ++J)
      EXPECT_NEAR(Lin.at(I, J) + L.bias()[J], Aff.at(I, J), 1e-12);
}

TEST(Linear, BoxPropagationIsSound) {
  Rng R(2);
  Linear L(5, 4);
  L.setWeight(Tensor::randn({4, 5}, R));
  L.bias() = Tensor::randn({4}, R);
  Tensor Center = Tensor::randn({1, 5}, R);
  Tensor Radius = Tensor::rand({1, 5}, R, 0.0, 0.5);
  Tensor C = Center.clone(), Rr = Radius.clone();
  L.applyToBox(C, Rr);
  // 100 random points inside the input box must land inside the output box.
  for (int Trial = 0; Trial < 100; ++Trial) {
    Tensor X({1, 5});
    for (int64_t J = 0; J < 5; ++J)
      X[J] = Center[J] + Radius[J] * R.uniform(-1.0, 1.0);
    const Tensor Y = L.applyAffine(X);
    for (int64_t J = 0; J < 4; ++J) {
      EXPECT_LE(Y[J], C[J] + Rr[J] + 1e-9);
      EXPECT_GE(Y[J], C[J] - Rr[J] - 1e-9);
    }
  }
}

TEST(Conv, BoxPropagationIsSound) {
  Rng R(3);
  Conv2d L(2, 3, 3, 2, 1);
  L.weight() = Tensor::randn({3, 2, 3, 3}, R);
  L.bias() = Tensor::randn({3}, R);
  Tensor Center = Tensor::randn({1, 2, 6, 6}, R);
  Tensor Radius = Tensor::rand({1, 2, 6, 6}, R, 0.0, 0.3);
  Tensor C = Center.clone(), Rr = Radius.clone();
  L.applyToBox(C, Rr);
  for (int Trial = 0; Trial < 50; ++Trial) {
    Tensor X(Center.shape());
    for (int64_t J = 0; J < X.numel(); ++J)
      X[J] = Center[J] + Radius[J] * R.uniform(-1.0, 1.0);
    const Tensor Y = L.applyAffine(X);
    for (int64_t J = 0; J < Y.numel(); ++J) {
      EXPECT_LE(Y[J], C[J] + Rr[J] + 1e-9);
      EXPECT_GE(Y[J], C[J] - Rr[J] - 1e-9);
    }
  }
}

TEST(Architectures, OutputShapes) {
  const int64_t S = 16;
  EXPECT_EQ(makeConvSmall(3, S, 10).outputShape({1, 3, S, S}),
            Shape({1, 10}));
  EXPECT_EQ(makeConvMed(3, S, 21).outputShape({1, 3, S, S}), Shape({1, 21}));
  EXPECT_EQ(makeConvLarge(3, S, 8).outputShape({1, 3, S, S}), Shape({1, 8}));
  EXPECT_EQ(makeConvBiggest(1, S, 10).outputShape({1, 1, S, S}),
            Shape({1, 10}));
  EXPECT_EQ(makeEncoderSmall(3, S, 16).outputShape({1, 3, S, S}),
            Shape({1, 16}));
  EXPECT_EQ(makeEncoder(3, S, 16).outputShape({1, 3, S, S}), Shape({1, 16}));
  EXPECT_EQ(makeDecoder(8, 3, S).outputShape({1, 8}), Shape({1, 3, S, S}));
  EXPECT_EQ(makeDecoderSmall(8, 3, S).outputShape({1, 8}),
            Shape({1, 3, S, S}));
}

/// Every layer's shape rule reports a shape it cannot take instead of
/// aborting, and pipelineShapeError names the first layer that refuses.
TEST(ShapeRule, MismatchesAreReportedNotFatal) {
  std::string Error;
  EXPECT_FALSE(Linear(4, 3).tryOutputShape({1, 5}, Error));
  EXPECT_NE(Error.find("Linear(4->3)"), std::string::npos) << Error;
  EXPECT_FALSE(Linear(4, 3).tryOutputShape({1, 2, 2}, Error));
  EXPECT_FALSE(Reshape(2, 2, 2).tryOutputShape({1, 7}, Error));
  EXPECT_FALSE(Flatten().tryOutputShape({6}, Error));
  EXPECT_FALSE(Conv2d(3, 4, 4, 2, 1).tryOutputShape({1, 2, 8, 8}, Error));
  // A kernel larger than the padded input has no output pixel.
  EXPECT_FALSE(Conv2d(3, 4, 5, 1, 0).tryOutputShape({1, 3, 3, 3}, Error));
  EXPECT_FALSE(ConvTranspose2d(2, 1, 3, 2, 1, 1)
                   .tryOutputShape({1, 3, 4, 4}, Error));
  // (1 - 1)·1 - 2·2 + 1 = -3: a transposed convolution with no output.
  EXPECT_FALSE(ConvTranspose2d(2, 1, 1, 1, 2, 0)
                   .tryOutputShape({1, 2, 1, 1}, Error));
  EXPECT_NE(Error.find("not positive"), std::string::npos) << Error;
  EXPECT_EQ(*ConvTranspose2d(2, 1, 3, 2, 1, 1).tryOutputShape({1, 2, 4, 4},
                                                              Error),
            Shape({1, 1, 8, 8}));

  const Sequential Dec = makeDecoder(8, 3, 16);
  const Sequential Cls = makeConvSmall(3, 16, 10);
  const auto Pipeline = concatViews(Dec.view(), Cls.view());
  EXPECT_EQ(pipelineShapeError(Pipeline, {1, 8}), "");
  const std::string Wide = pipelineShapeError(Pipeline, {1, 5});
  EXPECT_EQ(Wide.rfind("layer 0: Linear(8->400)", 0), 0u) << Wide;
  EXPECT_NE(pipelineShapeError(Pipeline, {2, 4}), "");
  EXPECT_NE(pipelineShapeError(Pipeline, {1, 8, 1}), "");
  EXPECT_NE(pipelineShapeError(Pipeline, {0, 8}), "");
  // The classifier alone on the decoder's latent: refused at the conv.
  EXPECT_EQ(pipelineShapeError(Cls.view(), {1, 8}).rfind("layer 0: Conv2d", 0),
            0u);
}

TEST(Architectures, NeuronCountsOrdered) {
  const int64_t S = 16;
  const int64_t Small = makeConvSmall(3, S, 10).countNeurons({1, 3, S, S});
  const int64_t Med = makeConvMed(3, S, 10).countNeurons({1, 3, S, S});
  const int64_t Large = makeConvLarge(3, S, 10).countNeurons({1, 3, S, S});
  const int64_t Biggest = makeConvBiggest(1, S, 10).countNeurons({1, 1, S, S});
  EXPECT_LT(Small, Med);
  EXPECT_LT(Med, Large);
  EXPECT_LT(Large, Biggest);
  EXPECT_GT(Small, 500); // sanity: non-trivial networks
}

TEST(Architectures, ClassifierByNameMatches) {
  const Sequential A = makeClassifier("ConvSmall", 3, 16, 10);
  const Sequential B = makeConvSmall(3, 16, 10);
  EXPECT_EQ(A.size(), B.size());
}

TEST(Init, KaimingProducesReasonableScales) {
  Rng R(4);
  Sequential Net = makeConvSmall(3, 16, 10);
  kaimingInit(Net, R);
  // Forward of a random input should produce finite non-degenerate output.
  Tensor X = Tensor::rand({4, 3, 16, 16}, R);
  const Tensor Y = Net.forward(X);
  double MaxAbs = 0.0;
  for (int64_t I = 0; I < Y.numel(); ++I) {
    ASSERT_TRUE(std::isfinite(Y[I]));
    MaxAbs = std::max(MaxAbs, std::fabs(Y[I]));
  }
  EXPECT_GT(MaxAbs, 1e-4);
  EXPECT_LT(MaxAbs, 1e4);
}

TEST(Serialize, RoundTripsEveryLayerKind) {
  Rng R(5);
  Sequential Net = makeDecoder(8, 3, 16); // FC + ReLU + Reshape + ConvT
  kaimingInit(Net, R);
  Sequential Cls = makeConvSmall(3, 16, 10); // Conv + Flatten + FC
  kaimingInit(Cls, R);

  const std::string Path1 = "/tmp/genprove_test_net1.bin";
  const std::string Path2 = "/tmp/genprove_test_net2.bin";
  ASSERT_TRUE(saveNetwork(Net, Path1));
  ASSERT_TRUE(saveNetwork(Cls, Path2));

  auto Loaded1 = loadNetwork(Path1);
  auto Loaded2 = loadNetwork(Path2);
  ASSERT_TRUE(Loaded1.has_value());
  ASSERT_TRUE(Loaded2.has_value());

  Tensor Z = Tensor::randn({2, 8}, R);
  const Tensor A = Net.forward(Z);
  const Tensor B = Loaded1->forward(Z);
  ASSERT_EQ(A.shape(), B.shape());
  for (int64_t I = 0; I < A.numel(); ++I)
    EXPECT_DOUBLE_EQ(A[I], B[I]);

  Tensor X = Tensor::rand({2, 3, 16, 16}, R);
  const Tensor C = Cls.forward(X);
  const Tensor D = Loaded2->forward(X);
  for (int64_t I = 0; I < C.numel(); ++I)
    EXPECT_DOUBLE_EQ(C[I], D[I]);

  std::remove(Path1.c_str());
  std::remove(Path2.c_str());
}

TEST(Serialize, MissingFileReturnsNullopt) {
  EXPECT_FALSE(loadNetwork("/tmp/definitely_missing_genprove.bin").has_value());
}

TEST(Sequential, ViewAndConcat) {
  Sequential A = makeDecoder(8, 3, 16);
  Sequential B = makeConvSmall(3, 16, 10);
  const auto V = concatViews(A.view(), B.view());
  EXPECT_EQ(V.size(), A.size() + B.size());
}

} // namespace
} // namespace genprove
