//===- tests/adversarial_spec_test.cpp - L-inf tube spec --------*- C++ -*-===//

#include "src/core/adversarial_spec.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.6));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

class TubeSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TubeSoundness, BoundsBracketBruteForceEstimate) {
  Rng R(GetParam());
  Sequential Decoder = makeRandomMlp(R, {2, 8, 6});
  Sequential Classifier = makeRandomMlp(R, {6, 8, 3});
  Tensor E1 = Tensor::randn({1, 2}, R);
  Tensor E2 = Tensor::randn({1, 2}, R);
  const double Eps = 0.05;
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 3);

  GenProveConfig Config;
  const GenProve Analyzer(Config);
  const AnalysisResult Result = analyzeAdversarialTube(
      Analyzer, Decoder.view(), Classifier.view(), Shape({1, 2}),
      Shape({1, 6}), E1, E2, Eps, Spec);
  ASSERT_FALSE(Result.OutOfMemory);
  ASSERT_LE(Result.Bounds.Lower, Result.Bounds.Upper + 1e-9);

  // Brute force: sample latents; for each, attack with random corner
  // perturbations of the decoded image. The adversarial consistency lies
  // between l and u.
  int64_t Hold = 0;
  const int64_t N = 300;
  for (int64_t I = 0; I < N; ++I) {
    const double T = R.uniform();
    Tensor Z({1, 2});
    for (int64_t J = 0; J < 2; ++J)
      Z[J] = E1[J] + T * (E2[J] - E1[J]);
    const Tensor Img = Decoder.forward(Z);
    bool AllSafe = true;
    for (int Corner = 0; Corner < 32 && AllSafe; ++Corner) {
      Tensor Adv = Img.clone();
      for (int64_t J = 0; J < Adv.numel(); ++J)
        Adv[J] += R.bernoulli(0.5) ? Eps : -Eps;
      if (!Spec.satisfied(Classifier.forward(Adv)))
        AllSafe = false;
    }
    if (AllSafe)
      ++Hold;
  }
  // The sampled estimate over-counts safety (finite corners), so it is an
  // upper estimate of the true probability: it must respect u but can
  // exceed l.
  const double Estimate = static_cast<double>(Hold) / N;
  EXPECT_LE(Result.Bounds.Lower, Estimate + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TubeSoundness, ::testing::Values(1u, 4u, 13u));

TEST(Tube, ZeroEpsilonIsAtLeastAsTightAsPositiveEpsilon) {
  Rng R(2);
  Sequential Decoder = makeRandomMlp(R, {2, 6, 4});
  Sequential Classifier = makeRandomMlp(R, {4, 6, 2});
  Tensor E1 = Tensor::randn({1, 2}, R);
  Tensor E2 = Tensor::randn({1, 2}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  GenProveConfig Config;
  const GenProve Analyzer(Config);

  const AnalysisResult Tight = analyzeAdversarialTube(
      Analyzer, Decoder.view(), Classifier.view(), Shape({1, 2}),
      Shape({1, 4}), E1, E2, 0.0, Spec);
  const AnalysisResult Loose = analyzeAdversarialTube(
      Analyzer, Decoder.view(), Classifier.view(), Shape({1, 2}),
      Shape({1, 4}), E1, E2, 0.2, Spec);
  EXPECT_GE(Tight.Bounds.Lower, Loose.Bounds.Lower - 1e-9);
}

TEST(Tube, CertifiedFractionIsSoundLowerBound) {
  // When the tube analysis certifies everything (l = 1), no sampled
  // perturbation may break the spec.
  Rng R(3);
  Sequential Decoder = makeRandomMlp(R, {2, 4, 3});
  Sequential Classifier;
  {
    // A classifier with a huge margin so certification succeeds.
    auto L = std::make_unique<Linear>(3, 2);
    L->setWeight(Tensor({2, 3}, {1.0, 1.0, 1.0, -1.0, -1.0, -1.0}));
    L->bias() = Tensor({2}, {100.0, -100.0});
    Classifier.add(std::move(L));
  }
  Tensor E1 = Tensor::randn({1, 2}, R);
  Tensor E2 = Tensor::randn({1, 2}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  GenProveConfig Config;
  const AnalysisResult Result = analyzeAdversarialTube(
      GenProve(Config), Decoder.view(), Classifier.view(), Shape({1, 2}),
      Shape({1, 3}), E1, E2, 0.1, Spec);
  EXPECT_NEAR(Result.Bounds.Lower, 1.0, 1e-9);
  for (int Trial = 0; Trial < 100; ++Trial) {
    const double T = R.uniform();
    Tensor Z({1, 2});
    for (int64_t J = 0; J < 2; ++J)
      Z[J] = E1[J] + T * (E2[J] - E1[J]);
    Tensor Img = Decoder.forward(Z);
    for (int64_t J = 0; J < Img.numel(); ++J)
      Img[J] += R.uniform(-0.1, 0.1);
    EXPECT_TRUE(Spec.satisfied(Classifier.forward(Img)));
  }
}

} // namespace
} // namespace genprove
