//===- tests/chain_test.cpp - polygonal chain specifications ----*- C++ -*-===//

#include "src/core/genprove.h"
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
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.7));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

TEST(Chain, TwoWaypointChainEqualsSegment) {
  Rng R(1);
  Sequential Net = makeRandomMlp(R, {3, 10, 8, 2});
  Tensor A = Tensor::randn({1, 3}, R);
  Tensor B = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  GenProveConfig Config;
  const GenProve Analyzer(Config);
  const ProbBounds Seg =
      Analyzer.boundsFor(Analyzer.propagateSegment(Net.view(), Shape({1, 3}),
                                                   A, B),
                         Spec);
  const ProbBounds Chain = Analyzer.boundsFor(
      Analyzer.propagateChain(Net.view(), Shape({1, 3}), {A, B}), Spec);
  EXPECT_NEAR(Seg.Lower, Chain.Lower, 1e-9);
  EXPECT_NEAR(Seg.Upper, Chain.Upper, 1e-9);
}

TEST(Chain, MassIsPreservedAcrossLegs) {
  Rng R(2);
  Sequential Net = makeRandomMlp(R, {4, 12, 3});
  std::vector<Tensor> Waypoints;
  for (int I = 0; I < 5; ++I)
    Waypoints.push_back(Tensor::randn({1, 4}, R));

  GenProveConfig Config;
  const GenProve Analyzer(Config);
  const PropagatedState State =
      Analyzer.propagateChain(Net.view(), Shape({1, 4}), Waypoints);
  ASSERT_FALSE(State.OutOfMemory);
  double Mass = 0.0;
  for (const Region &Piece : State.Regions)
    Mass += Piece.Weight;
  EXPECT_NEAR(Mass, 1.0, 1e-9);
}

TEST(Chain, BoundsBracketChainSampling) {
  Rng R(3);
  Sequential Net = makeRandomMlp(R, {3, 14, 10, 2});
  std::vector<Tensor> Waypoints;
  for (int I = 0; I < 4; ++I)
    Waypoints.push_back(Tensor::randn({1, 3}, R));
  const OutputSpec Spec = OutputSpec::argmaxWins(1, 2);

  GenProveConfig Config;
  const GenProve Analyzer(Config);
  const PropagatedState State =
      Analyzer.propagateChain(Net.view(), Shape({1, 3}), Waypoints);
  const ProbBounds Bounds = Analyzer.boundsFor(State, Spec);
  EXPECT_NEAR(Bounds.width(), 0.0, 1e-9); // exact analysis

  // Sample uniformly over the chain parameter (legs are equal length in
  // parameter space by construction).
  int64_t Sat = 0;
  const int64_t N = 4000;
  for (int64_t I = 0; I < N; ++I) {
    const double T = (static_cast<double>(I) + 0.5) / N;
    const double Scaled = T * 3.0; // 3 legs
    const auto Leg = std::min<int64_t>(static_cast<int64_t>(Scaled), 2);
    const double Alpha = Scaled - static_cast<double>(Leg);
    Tensor X({1, 3});
    for (int64_t J = 0; J < 3; ++J)
      X[J] = Waypoints[static_cast<size_t>(Leg)][J] +
             Alpha * (Waypoints[static_cast<size_t>(Leg + 1)][J] -
                      Waypoints[static_cast<size_t>(Leg)][J]);
    if (Spec.satisfied(forwardConcretePoints(Net.view(), Shape({1, 3}), X)))
      ++Sat;
  }
  EXPECT_NEAR(Bounds.Lower, static_cast<double>(Sat) / N, 0.02);
}

TEST(Chain, ArcsineWeightsConcentrateAtEndLegs) {
  // With the arcsine distribution, the first and last legs carry more
  // mass than the middle legs.
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 1);
  L->setWeight(Tensor({1, 1}, {1.0}));
  L->bias() = Tensor({1}, {0.0});
  Net.add(std::move(L));

  std::vector<Tensor> Waypoints;
  for (int I = 0; I < 5; ++I)
    Waypoints.push_back(Tensor({1, 1}, {static_cast<double>(I)}));

  GenProveConfig Config;
  Config.Distribution = ParamDistribution::Arcsine;
  const GenProve Analyzer(Config);
  const PropagatedState State =
      Analyzer.propagateChain(Net.view(), Shape({1, 1}), Waypoints);
  ASSERT_EQ(State.Regions.size(), 4u);
  std::vector<double> Weights;
  for (const Region &Piece : State.Regions)
    Weights.push_back(Piece.Weight);
  std::sort(Weights.begin(), Weights.end());
  // The two heaviest legs must be the end legs: F(1/4) = 1/3 each end.
  EXPECT_NEAR(Weights[3], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(Weights[2], 1.0 / 3.0, 1e-9);
  EXPECT_LT(Weights[0], 0.2);
}

} // namespace
} // namespace genprove
