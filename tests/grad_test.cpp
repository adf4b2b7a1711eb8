//===- tests/grad_test.cpp - finite-difference gradient checks --*- C++ -*-===//

#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/nn/conv_transpose.h"
#include "src/nn/linear.h"
#include "src/nn/reshape.h"
#include "src/nn/sequential.h"
#include "src/train/loss.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace genprove {
namespace {

/// Scalar loss: sum of squared outputs / 2; gradient is the output itself.
double scalarLoss(const Tensor &Out) {
  double L = 0.0;
  for (int64_t I = 0; I < Out.numel(); ++I)
    L += 0.5 * Out[I] * Out[I];
  return L;
}

/// Check every parameter gradient (and the input gradient) of a network
/// against central finite differences.
void gradCheck(Sequential &Net, Tensor Input, double Tol = 2e-5) {
  const double Eps = 1e-5;

  Net.zeroGrads();
  const Tensor Out = Net.forward(Input);
  const Tensor GradIn = Net.backward(Out.clone()); // dL/dOut = Out

  // Parameter gradients.
  for (auto &P : Net.params()) {
    Tensor &W = *P.Value;
    Tensor &G = *P.Grad;
    const int64_t Checks = std::min<int64_t>(W.numel(), 12);
    for (int64_t C = 0; C < Checks; ++C) {
      const int64_t I = (C * 7919) % W.numel();
      const double Orig = W[I];
      W[I] = Orig + Eps;
      const double Lp = scalarLoss(Net.forward(Input));
      W[I] = Orig - Eps;
      const double Lm = scalarLoss(Net.forward(Input));
      W[I] = Orig;
      const double Fd = (Lp - Lm) / (2 * Eps);
      EXPECT_NEAR(G[I], Fd, Tol * std::max(1.0, std::fabs(Fd)))
          << "param " << P.Name << " index " << I;
    }
  }

  // Input gradient.
  const int64_t Checks = std::min<int64_t>(Input.numel(), 10);
  for (int64_t C = 0; C < Checks; ++C) {
    const int64_t I = (C * 104729) % Input.numel();
    const double Orig = Input[I];
    Input[I] = Orig + Eps;
    const double Lp = scalarLoss(Net.forward(Input));
    Input[I] = Orig - Eps;
    const double Lm = scalarLoss(Net.forward(Input));
    Input[I] = Orig;
    const double Fd = (Lp - Lm) / (2 * Eps);
    EXPECT_NEAR(GradIn[I], Fd, Tol * std::max(1.0, std::fabs(Fd)))
        << "input index " << I;
  }
}

TEST(GradCheck, LinearLayer) {
  Rng R(1);
  Sequential Net;
  auto L = std::make_unique<Linear>(6, 4);
  L->setWeight(Tensor::randn({4, 6}, R, 0.5));
  L->bias() = Tensor::randn({4}, R, 0.5);
  Net.add(std::move(L));
  gradCheck(Net, Tensor::randn({3, 6}, R));
}

TEST(GradCheck, LinearReluStack) {
  Rng R(2);
  Sequential Net;
  auto L1 = std::make_unique<Linear>(5, 8);
  L1->setWeight(Tensor::randn({8, 5}, R, 0.5));
  L1->bias() = Tensor::randn({8}, R, 0.5);
  Net.add(std::move(L1));
  Net.add(std::make_unique<ReLU>());
  auto L2 = std::make_unique<Linear>(8, 3);
  L2->setWeight(Tensor::randn({3, 8}, R, 0.5));
  L2->bias() = Tensor::randn({3}, R, 0.5);
  Net.add(std::move(L2));
  gradCheck(Net, Tensor::randn({2, 5}, R));
}

TEST(GradCheck, ConvLayer) {
  Rng R(3);
  Sequential Net;
  auto C = std::make_unique<Conv2d>(2, 3, 3, 2, 1);
  C->weight() = Tensor::randn({3, 2, 3, 3}, R, 0.5);
  C->bias() = Tensor::randn({3}, R, 0.5);
  Net.add(std::move(C));
  gradCheck(Net, Tensor::randn({2, 2, 6, 6}, R));
}

TEST(GradCheck, ConvTransposeLayer) {
  Rng R(4);
  Sequential Net;
  auto C = std::make_unique<ConvTranspose2d>(3, 2, 3, 2, 1, 1);
  C->weight() = Tensor::randn({3, 2, 3, 3}, R, 0.5);
  C->bias() = Tensor::randn({2}, R, 0.5);
  Net.add(std::move(C));
  gradCheck(Net, Tensor::randn({1, 3, 4, 4}, R));
}

TEST(GradCheck, ConvFlattenLinearPipeline) {
  Rng R(5);
  Sequential Net;
  auto C = std::make_unique<Conv2d>(1, 4, 3, 1, 1);
  C->weight() = Tensor::randn({4, 1, 3, 3}, R, 0.5);
  C->bias() = Tensor::randn({4}, R, 0.5);
  Net.add(std::move(C));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<Flatten>());
  auto L = std::make_unique<Linear>(4 * 5 * 5, 2);
  L->setWeight(Tensor::randn({2, 100}, R, 0.2));
  L->bias() = Tensor::randn({2}, R, 0.2);
  Net.add(std::move(L));
  gradCheck(Net, Tensor::randn({2, 1, 5, 5}, R));
}

TEST(GradCheck, DecoderStylePipeline) {
  Rng R(6);
  Sequential Net;
  auto L = std::make_unique<Linear>(4, 2 * 3 * 3);
  L->setWeight(Tensor::randn({18, 4}, R, 0.5));
  L->bias() = Tensor::randn({18}, R, 0.5);
  Net.add(std::move(L));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<Reshape>(2, 3, 3));
  auto C = std::make_unique<ConvTranspose2d>(2, 1, 3, 2, 1, 1);
  C->weight() = Tensor::randn({2, 1, 3, 3}, R, 0.5);
  C->bias() = Tensor::randn({1}, R, 0.5);
  Net.add(std::move(C));
  gradCheck(Net, Tensor::randn({2, 4}, R));
}

TEST(LossGrad, MseMatchesFiniteDifference) {
  Rng R(7);
  Tensor Pred = Tensor::randn({2, 5}, R);
  Tensor Target = Tensor::randn({2, 5}, R);
  Tensor Grad;
  mseLoss(Pred, Target, Grad);
  const double Eps = 1e-6;
  for (int64_t I = 0; I < Pred.numel(); ++I) {
    Tensor G2;
    Pred[I] += Eps;
    const double Lp = mseLoss(Pred, Target, G2);
    Pred[I] -= 2 * Eps;
    const double Lm = mseLoss(Pred, Target, G2);
    Pred[I] += Eps;
    EXPECT_NEAR(Grad[I], (Lp - Lm) / (2 * Eps), 1e-6);
  }
}

TEST(LossGrad, BceMatchesFiniteDifference) {
  Rng R(8);
  Tensor Logits = Tensor::randn({3, 4}, R);
  Tensor Targets({3, 4});
  for (int64_t I = 0; I < Targets.numel(); ++I)
    Targets[I] = R.bernoulli(0.5) ? 1.0 : 0.0;
  Tensor Grad;
  bceWithLogitsLoss(Logits, Targets, Grad);
  const double Eps = 1e-6;
  for (int64_t I = 0; I < Logits.numel(); ++I) {
    Tensor G2;
    Logits[I] += Eps;
    const double Lp = bceWithLogitsLoss(Logits, Targets, G2);
    Logits[I] -= 2 * Eps;
    const double Lm = bceWithLogitsLoss(Logits, Targets, G2);
    Logits[I] += Eps;
    EXPECT_NEAR(Grad[I], (Lp - Lm) / (2 * Eps), 1e-6);
  }
}

TEST(LossGrad, CrossEntropyMatchesFiniteDifference) {
  Rng R(9);
  Tensor Logits = Tensor::randn({3, 5}, R);
  std::vector<int64_t> Labels{1, 4, 0};
  Tensor Grad;
  softmaxCrossEntropyLoss(Logits, Labels, Grad);
  const double Eps = 1e-6;
  for (int64_t I = 0; I < Logits.numel(); ++I) {
    Tensor G2;
    Logits[I] += Eps;
    const double Lp = softmaxCrossEntropyLoss(Logits, Labels, G2);
    Logits[I] -= 2 * Eps;
    const double Lm = softmaxCrossEntropyLoss(Logits, Labels, G2);
    Logits[I] += Eps;
    EXPECT_NEAR(Grad[I], (Lp - Lm) / (2 * Eps), 1e-6);
  }
}

TEST(LossGrad, KlMatchesFiniteDifference) {
  Rng R(10);
  Tensor Mu = Tensor::randn({2, 3}, R);
  Tensor LogVar = Tensor::randn({2, 3}, R, 0.5);
  Tensor Gm, Gl;
  gaussianKlLoss(Mu, LogVar, Gm, Gl);
  const double Eps = 1e-6;
  for (int64_t I = 0; I < Mu.numel(); ++I) {
    Tensor A, B;
    Mu[I] += Eps;
    const double Lp = gaussianKlLoss(Mu, LogVar, A, B);
    Mu[I] -= 2 * Eps;
    const double Lm = gaussianKlLoss(Mu, LogVar, A, B);
    Mu[I] += Eps;
    EXPECT_NEAR(Gm[I], (Lp - Lm) / (2 * Eps), 1e-6);

    LogVar[I] += Eps;
    const double Lp2 = gaussianKlLoss(Mu, LogVar, A, B);
    LogVar[I] -= 2 * Eps;
    const double Lm2 = gaussianKlLoss(Mu, LogVar, A, B);
    LogVar[I] += Eps;
    EXPECT_NEAR(Gl[I], (Lp2 - Lm2) / (2 * Eps), 1e-6);
  }
}

} // namespace
} // namespace genprove
