//===- tests/sampler_test.cpp - sampling baseline ---------------*- C++ -*-===//

#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/sampling/sampler.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

/// Pipeline where the spec holds exactly for t < 0.3.
Sequential makeThresholdNet(double Threshold) {
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 1);
  L->setWeight(Tensor({1, 1}, {-1.0}));
  L->bias() = Tensor({1}, {Threshold});
  Net.add(std::move(L));
  return Net;
}

TEST(Sampler, IntervalContainsTrueProbability) {
  Sequential Net = makeThresholdNet(0.3);
  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  Rng R(5);
  const SamplingResult Result = sampleSegmentBounds(
      Net.view(), Shape({1, 1}), E1, E2, Spec, ParamDistribution::Uniform,
      20000, 1e-5, R);
  EXPECT_LE(Result.Lower, 0.3);
  EXPECT_GE(Result.Upper, 0.3);
  EXPECT_LT(Result.width(), 0.05);
}

TEST(Sampler, ArcsineDistributionChangesEstimate) {
  Sequential Net = makeThresholdNet(0.25);
  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  Rng R(6);
  const SamplingResult Result = sampleSegmentBounds(
      Net.view(), Shape({1, 1}), E1, E2, Spec, ParamDistribution::Arcsine,
      20000, 1e-5, R);
  // Arcsine CDF at 0.25 is 1/3.
  EXPECT_LE(Result.Lower, 1.0 / 3.0);
  EXPECT_GE(Result.Upper, 1.0 / 3.0);
  EXPECT_GT(Result.Lower, 0.25); // clearly distinguishable from uniform
}

TEST(Sampler, MoreSamplesTightenTheInterval) {
  Sequential Net = makeThresholdNet(0.5);
  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  Rng R(7);
  const SamplingResult Small = sampleSegmentBounds(
      Net.view(), Shape({1, 1}), E1, E2, Spec, ParamDistribution::Uniform,
      500, 1e-5, R);
  const SamplingResult Large = sampleSegmentBounds(
      Net.view(), Shape({1, 1}), E1, E2, Spec, ParamDistribution::Uniform,
      20000, 1e-5, R);
  EXPECT_LT(Large.width(), Small.width());
}

TEST(Sampler, DeterministicGivenSeed) {
  Sequential Net = makeThresholdNet(0.4);
  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  Rng R1(9), R2(9);
  const SamplingResult A = sampleSegmentBounds(
      Net.view(), Shape({1, 1}), E1, E2, Spec, ParamDistribution::Uniform,
      2000, 1e-5, R1);
  const SamplingResult B = sampleSegmentBounds(
      Net.view(), Shape({1, 1}), E1, E2, Spec, ParamDistribution::Uniform,
      2000, 1e-5, R2);
  EXPECT_EQ(A.Satisfied, B.Satisfied);
  EXPECT_DOUBLE_EQ(A.Lower, B.Lower);
}

TEST(Sampler, QuadraticCurveSampling) {
  // Spec component (t - 0.25)(t - 0.75) > 0: true mass 0.5.
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 1);
  L->setWeight(Tensor({1, 1}, {1.0}));
  L->bias() = Tensor({1}, {0.0});
  Net.add(std::move(L));
  Tensor A0({1, 1}, {0.1875});
  Tensor A1({1, 1}, {-1.0});
  Tensor A2({1, 1}, {1.0});
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  Rng R(11);
  const SamplingResult Result = sampleQuadraticBounds(
      Net.view(), Shape({1, 1}), A0, A1, A2, Spec, ParamDistribution::Uniform,
      20000, 1e-5, R);
  EXPECT_LE(Result.Lower, 0.5);
  EXPECT_GE(Result.Upper, 0.5);
}

} // namespace
} // namespace genprove
