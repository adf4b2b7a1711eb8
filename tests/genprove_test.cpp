//===- tests/genprove_test.cpp - end-to-end verifier tests ------*- C++ -*-===//

#include "src/core/genprove.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims,
                         double Scale = 0.8) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, Scale));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.4);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

/// Empirical probability of spec satisfaction along the segment.
double empiricalProbability(Sequential &Net, const Tensor &E1,
                            const Tensor &E2, const OutputSpec &Spec,
                            int64_t NumSamples, Rng &R,
                            ParamDistribution Dist = ParamDistribution::Uniform) {
  int64_t Sat = 0;
  for (int64_t I = 0; I < NumSamples; ++I) {
    const double T = sampleParam(Dist, R);
    Tensor X({1, E1.numel()});
    for (int64_t J = 0; J < E1.numel(); ++J)
      X[J] = E1[J] + T * (E2[J] - E1[J]);
    if (Spec.satisfied(Net.forward(X)))
      ++Sat;
  }
  return static_cast<double>(Sat) / static_cast<double>(NumSamples);
}

class GenProveExactness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GenProveExactness, ExactBoundsBracketEmpiricalProbability) {
  Rng R(GetParam());
  Sequential Net = makeRandomMlp(R, {4, 12, 10, 3});
  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(1, 3);

  GenProveConfig Config;
  Config.RelaxPercent = 0.0; // exact
  const GenProve Analyzer(Config);
  const AnalysisResult Result =
      Analyzer.analyzeSegment(Net.view(), Shape({1, 4}), E1, E2, Spec);
  ASSERT_FALSE(Result.OutOfMemory);
  // Exact analysis: zero width.
  EXPECT_NEAR(Result.Bounds.width(), 0.0, 1e-9);

  const double Emp = empiricalProbability(Net, E1, E2, Spec, 4000, R);
  EXPECT_NEAR(Result.Bounds.Lower, Emp, 0.03);
}

TEST_P(GenProveExactness, RelaxedBoundsAreSoundAndOrdered) {
  Rng R(GetParam() + 50);
  Sequential Net = makeRandomMlp(R, {4, 16, 12, 3});
  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 3);

  GenProveConfig Exact;
  Exact.RelaxPercent = 0.0;
  const AnalysisResult ExactResult = GenProve(Exact).analyzeSegment(
      Net.view(), Shape({1, 4}), E1, E2, Spec);

  GenProveConfig Relaxed;
  Relaxed.RelaxPercent = 0.5;
  Relaxed.ClusterK = 10.0;
  Relaxed.NodeThreshold = 4;
  const AnalysisResult RelaxedResult = GenProve(Relaxed).analyzeSegment(
      Net.view(), Shape({1, 4}), E1, E2, Spec);

  // Relaxed bounds must contain the exact probability.
  EXPECT_LE(RelaxedResult.Bounds.Lower, ExactResult.Bounds.Lower + 1e-9);
  EXPECT_GE(RelaxedResult.Bounds.Upper, ExactResult.Bounds.Upper - 1e-9);
  EXPECT_LE(RelaxedResult.Bounds.Lower, RelaxedResult.Bounds.Upper);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenProveExactness,
                         ::testing::Values(1u, 3u, 17u, 101u));

TEST(GenProve, DeterministicModeCollapses) {
  Rng R(7);
  Sequential Net = makeRandomMlp(R, {3, 8, 2});
  Tensor E1 = Tensor::randn({1, 3}, R);
  Tensor E2 = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  GenProveConfig Config;
  Config.Mode = AnalysisMode::Deterministic;
  const AnalysisResult Result = GenProve(Config).analyzeSegment(
      Net.view(), Shape({1, 3}), E1, E2, Spec);
  const bool IsZero =
      Result.Bounds.Lower == 0.0 && Result.Bounds.Upper == 0.0;
  const bool IsOne = Result.Bounds.Lower == 1.0 && Result.Bounds.Upper == 1.0;
  const bool IsTrivial =
      Result.Bounds.Lower == 0.0 && Result.Bounds.Upper == 1.0;
  EXPECT_TRUE(IsZero || IsOne || IsTrivial);
}

TEST(GenProve, RefinementScheduleRecoversFromOom) {
  Rng R(8);
  Sequential Net = makeRandomMlp(R, {4, 48, 48, 48, 2}, 1.0);
  Tensor E1 = Tensor::randn({1, 4}, R, 2.0);
  Tensor E2 = Tensor::randn({1, 4}, R, 2.0);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  // Budget small enough that exact analysis overflows...
  GenProveConfig NoSchedule;
  NoSchedule.MemoryBudgetBytes = 24 * 1024;
  const AnalysisResult Fail = GenProve(NoSchedule).analyzeSegment(
      Net.view(), Shape({1, 4}), E1, E2, Spec);

  // ... but the schedule relaxes until it fits. Relaxation only fires
  // before convolutional layers, so give the schedule an MLP-free pipeline
  // is moot here; instead verify the schedule at least retried.
  GenProveConfig WithSchedule = NoSchedule;
  WithSchedule.Schedule = RefinementSchedule::A;
  WithSchedule.NodeThreshold = 4;
  const AnalysisResult Retry = GenProve(WithSchedule).analyzeSegment(
      Net.view(), Shape({1, 4}), E1, E2, Spec);
  if (Fail.OutOfMemory) {
    EXPECT_GT(Retry.Retries, 0);
  }
}

TEST(GenProve, QuadraticCurveExactBounds) {
  Rng R(9);
  Sequential Net = makeRandomMlp(R, {3, 10, 8, 2});
  Tensor A0 = Tensor::randn({1, 3}, R);
  Tensor A1 = Tensor::randn({1, 3}, R);
  Tensor A2 = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  GenProveConfig Config;
  const AnalysisResult Result = GenProve(Config).analyzeQuadratic(
      Net.view(), Shape({1, 3}), A0, A1, A2, Spec);
  ASSERT_FALSE(Result.OutOfMemory);
  EXPECT_NEAR(Result.Bounds.width(), 0.0, 1e-9);

  // Compare against dense sampling of the curve.
  int64_t Sat = 0;
  const int64_t N = 4000;
  for (int64_t I = 0; I < N; ++I) {
    const double T = (static_cast<double>(I) + 0.5) / N;
    Tensor X({1, 3});
    for (int64_t J = 0; J < 3; ++J)
      X[J] = A0[J] + A1[J] * T + A2[J] * T * T;
    if (Spec.satisfied(Net.forward(X)))
      ++Sat;
  }
  EXPECT_NEAR(Result.Bounds.Lower, static_cast<double>(Sat) / N, 0.02);
}

TEST(GenProve, ArcsineDistributionShiftsBounds) {
  // Construct a 1-layer net where the spec holds exactly for t < 0.25.
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 1);
  L->setWeight(Tensor({1, 1}, {-1.0}));
  L->bias() = Tensor({1}, {0.25});
  Net.add(std::move(L)); // y = 0.25 - t > 0 iff t < 0.25

  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);

  GenProveConfig Uniform;
  const ProbBounds U = GenProve(Uniform)
                           .analyzeSegment(Net.view(), Shape({1, 1}), E1, E2,
                                           Spec)
                           .Bounds;
  EXPECT_NEAR(U.Lower, 0.25, 1e-9);

  GenProveConfig Arc;
  Arc.Distribution = ParamDistribution::Arcsine;
  const ProbBounds A = GenProve(Arc)
                           .analyzeSegment(Net.view(), Shape({1, 1}), E1, E2,
                                           Spec)
                           .Bounds;
  // Arcsine puts extra mass near the endpoints: F(0.25) = 1/3 > 1/4.
  EXPECT_NEAR(A.Lower, 1.0 / 3.0, 1e-9);
}

TEST(GenProve, InputSplittingPreservesExactBounds) {
  // Section 5.2's memory/runtime tradeoff: splitting the input segment
  // into sequentially-verified parts must not change exact bounds.
  Rng R(12);
  Sequential Net = makeRandomMlp(R, {4, 14, 10, 3});
  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(1, 3);

  GenProveConfig Whole;
  const ProbBounds A =
      GenProve(Whole).analyzeSegment(Net.view(), Shape({1, 4}), E1, E2, Spec)
          .Bounds;

  GenProveConfig Split = Whole;
  Split.InputSplits = 4;
  const ProbBounds B =
      GenProve(Split).analyzeSegment(Net.view(), Shape({1, 4}), E1, E2, Spec)
          .Bounds;
  EXPECT_NEAR(A.Lower, B.Lower, 1e-9);
  EXPECT_NEAR(A.Upper, B.Upper, 1e-9);
}

TEST(GenProve, InputSplittingReducesPeakMemory) {
  Rng R(13);
  Sequential Net = makeRandomMlp(R, {4, 40, 40, 3});
  Tensor E1 = Tensor::randn({1, 4}, R, 1.5);
  Tensor E2 = Tensor::randn({1, 4}, R, 1.5);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 3);

  GenProveConfig Whole;
  const AnalysisResult A =
      GenProve(Whole).analyzeSegment(Net.view(), Shape({1, 4}), E1, E2, Spec);
  GenProveConfig Split = Whole;
  Split.InputSplits = 8;
  const AnalysisResult B =
      GenProve(Split).analyzeSegment(Net.view(), Shape({1, 4}), E1, E2, Spec);
  EXPECT_LE(B.PeakBytes, A.PeakBytes);
  EXPECT_NEAR(A.Bounds.Lower, B.Bounds.Lower, 1e-9);
}

TEST(GenProve, InputSplittingWithArcsineStaysExact) {
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 1);
  L->setWeight(Tensor({1, 1}, {-1.0}));
  L->bias() = Tensor({1}, {0.25});
  Net.add(std::move(L));
  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);

  GenProveConfig Config;
  Config.Distribution = ParamDistribution::Arcsine;
  Config.InputSplits = 5;
  const ProbBounds Bounds =
      GenProve(Config).analyzeSegment(Net.view(), Shape({1, 1}), E1, E2, Spec)
          .Bounds;
  EXPECT_NEAR(Bounds.Lower, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(Bounds.Upper, 1.0 / 3.0, 1e-9);
}

TEST(GenProve, ForwardConcretePointsMatchesSequentialForward) {
  Rng R(10);
  Sequential Net = makeRandomMlp(R, {5, 9, 4});
  Tensor X = Tensor::randn({6, 5}, R);
  const Tensor A = forwardConcretePoints(Net.view(), Shape({1, 5}), X);
  const Tensor B = Net.forward(X);
  ASSERT_EQ(A.numel(), B.numel());
  for (int64_t I = 0; I < A.numel(); ++I)
    EXPECT_NEAR(A[I], B[I], 1e-12);
}

} // namespace
} // namespace genprove
