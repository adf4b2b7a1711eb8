//===- tests/fp_test.cpp - directed rounding & stats soundness --*- C++ -*-===//

#include "src/core/genprove.h"
#include "src/domains/propagate.h"
#include "src/interval/interval.h"
#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/util/fp.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace genprove {
namespace {

TEST(DirectedRounding, DisabledByDefault) {
  EXPECT_FALSE(soundRoundingEnabled());
  {
    SoundRoundingScope On(true);
    EXPECT_TRUE(soundRoundingEnabled());
    {
      SoundRoundingScope Off(false);
      EXPECT_FALSE(soundRoundingEnabled());
    }
    EXPECT_TRUE(soundRoundingEnabled());
  }
  EXPECT_FALSE(soundRoundingEnabled());
}

/// Every directed op must bracket the exact (long double) result, also for
/// cancelling operands, zero operands (where the exact-result rule returns
/// the round-to-nearest value unnudged) and operands in the subnormal
/// range (exactly representable in the wider long double).
TEST(DirectedRounding, OpsBracketExactValue) {
  Rng Gen(42);
  const auto Operand = [&Gen](bool Subnormal) {
    return Subnormal
               ? std::ldexp(Gen.uniform(-1.0, 1.0),
                            -1022 - static_cast<int>(Gen.below(53)))
               : std::ldexp(Gen.uniform(-1.0, 1.0),
                            static_cast<int>(Gen.below(41)) - 20);
  };
  for (int I = 0; I < 20000; ++I) {
    const double A = Operand(Gen.below(4) == 0);
    double B = Operand(Gen.below(4) == 0);
    switch (Gen.below(8)) {
    case 0:
      B = -A; // cancels in a + b
      break;
    case 1:
      B = A; // cancels in a - b
      break;
    case 2:
      B = Gen.below(2) ? 0.0 : -0.0;
      break;
    default:
      break;
    }
    const long double La = A, Lb = B;
    EXPECT_GE(static_cast<long double>(fp::addUp(A, B)), La + Lb);
    EXPECT_LE(static_cast<long double>(fp::addDown(A, B)), La + Lb);
    EXPECT_GE(static_cast<long double>(fp::subUp(A, B)), La - Lb);
    EXPECT_LE(static_cast<long double>(fp::subDown(A, B)), La - Lb);
    EXPECT_GE(static_cast<long double>(fp::mulUp(A, B)), La * Lb);
    EXPECT_LE(static_cast<long double>(fp::mulDown(A, B)), La * Lb);
    EXPECT_GE(static_cast<long double>(fp::mulUp(B, A)), La * Lb);
    EXPECT_LE(static_cast<long double>(fp::mulDown(B, A)), La * Lb);
    if (B != 0.0) {
      EXPECT_GE(static_cast<long double>(fp::divUp(A, B)), La / Lb);
      EXPECT_LE(static_cast<long double>(fp::divDown(A, B)), La / Lb);
    }
    if (A != 0.0) {
      EXPECT_GE(static_cast<long double>(fp::divUp(B, A)), Lb / La);
      EXPECT_LE(static_cast<long double>(fp::divDown(B, A)), Lb / La);
    }
  }
}

/// The inline bit step is bitwise nextafter toward +-inf, for every class
/// of input and a large sample of random bit patterns.
TEST(DirectedRounding, StepMatchesNextafter) {
  const auto Same = [](auto X, auto Y) {
    return std::memcmp(&X, &Y, sizeof(X)) == 0;
  };
  const auto CheckDouble = [&Same](double X) {
    constexpr double Inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(Same(fp::up(X), std::nextafter(X, Inf))) << X;
    EXPECT_TRUE(Same(fp::down(X), std::nextafter(X, -Inf))) << X;
  };
  using D = std::numeric_limits<double>;
  for (double X : {0.0, D::denorm_min(), D::min(), D::max(), D::infinity(),
                   D::quiet_NaN(), 1.0}) {
    CheckDouble(X);
    CheckDouble(-X);
  }
  Rng Gen(2027);
  for (int I = 0; I < 100000; ++I) {
    const uint64_t Bits = Gen.next();
    double X;
    std::memcpy(&X, &Bits, sizeof(X));
    CheckDouble(X);
  }
}

/// An exactly representable result is returned as is; every other one is
/// still nudged, including a product that underflows to zero.
TEST(DirectedRounding, ExactResultsAreNotNudged) {
  Rng Gen(5);
  for (int I = 0; I < 1000; ++I) {
    const double X = std::ldexp(Gen.uniform(-1.0, 1.0),
                                static_cast<int>(Gen.below(200)) - 100);
    const double Y = std::ldexp(Gen.uniform(0.5, 1.0),
                                static_cast<int>(Gen.below(200)) - 100);
    EXPECT_EQ(fp::addUp(X, -X), 0.0);
    EXPECT_EQ(fp::addDown(X, -X), 0.0);
    EXPECT_EQ(fp::subUp(X, X), 0.0);
    EXPECT_EQ(fp::subDown(X, X), 0.0);
    EXPECT_EQ(fp::mulUp(0.0, Y), 0.0);
    EXPECT_EQ(fp::mulDown(X, -0.0), 0.0);
    EXPECT_EQ(fp::divUp(0.0, Y), 0.0);
    EXPECT_EQ(fp::divDown(-0.0, Y), 0.0);
  }
  EXPECT_EQ(fp::subUp(0.0, 0.0), 0.0); // the dead-ReLU radius
  EXPECT_EQ(fp::addUp(std::fabs(0.0), 0.0), 0.0); // a zero magnitude
  EXPECT_GT(fp::mulUp(1e-200, 1e-200), 0.0);      // underflow is nudged
  EXPECT_LT(fp::mulDown(1e-200, 1e-200), 0.0);
  EXPECT_GT(fp::mulUp(-1e-200, 1e-200), 0.0);
  EXPECT_GT(fp::addUp(1.0, 0x1p-60), 1.0);
  EXPECT_LT(fp::subDown(1.0, 0x1p-60), 1.0);
  EXPECT_GT(fp::divUp(1.0, 3.0), 1.0 / 3.0);
}

/// A sound box through Conv2d -> ReLU -> Conv2d with dead units: the dead
/// units come out of the ReLU with radius exactly 0 (an exact interval
/// needs no widening), no center or radius entry anywhere is subnormal,
/// and round-to-nearest forward passes of sampled inputs stay inside the
/// final box.
TEST(DirectedRounding, SoundBoxKeepsDeadUnitsExactAndNormal) {
  SoundRoundingScope On(true);
  Rng Gen(31);
  Sequential Net;
  auto First = std::make_unique<Conv2d>(2, 4, 3, 1, 1);
  First->weight() = Tensor::randn({4, 2, 3, 3}, Gen, 0.4);
  // Channel 0 is dead everywhere on the input box, channel 1 alive.
  First->bias() = Tensor({4}, {-20.0, 20.0, 0.1, -0.1});
  Net.add(std::move(First));
  Net.add(std::make_unique<ReLU>());
  auto Second = std::make_unique<Conv2d>(4, 3, 3, 2, 1);
  Second->weight() = Tensor::randn({3, 4, 3, 3}, Gen, 0.4);
  Second->bias() = Tensor::randn({3}, Gen, 0.1);
  Net.add(std::move(Second));
  const std::vector<const Layer *> Layers = Net.view();
  const Shape InShape({1, 2, 6, 6});
  const Tensor Center = Tensor::randn({1, 72}, Gen);
  const Tensor Radius = Tensor::rand({1, 72}, Gen, 0.0, 0.2);

  const auto Propagate = [&](size_t Begin, size_t End, Region Box,
                             const Shape &In) {
    PropagateConfig Config;
    DeviceMemoryModel Memory;
    PropagateStats Stats;
    std::vector<Region> Out = propagateRegions(
        std::vector<const Layer *>(Layers.begin() + Begin,
                                   Layers.begin() + End),
        In, {std::move(Box)}, Config, Memory, Stats);
    EXPECT_EQ(Out.size(), 1u);
    return Out.front();
  };
  const auto ExpectNoSubnormal = [](const Region &Box) {
    for (int64_t J = 0; J < Box.dim(); ++J) {
      EXPECT_NE(std::fpclassify(Box.Center[J]), FP_SUBNORMAL) << J;
      EXPECT_NE(std::fpclassify(Box.Radius[J]), FP_SUBNORMAL) << J;
    }
  };

  const Region Input = makeBoxRegion(Center, Radius, 1.0);
  const Region PreRelu = Propagate(0, 1, Input, InShape);
  const Region Hidden = Propagate(0, 2, Input, InShape);
  int64_t Dead = 0;
  for (int64_t J = 0; J < Hidden.dim(); ++J) {
    if (fp::addUp(PreRelu.Center[J], PreRelu.Radius[J]) > 0.0)
      continue; // the sound ReLU's upper endpoint: alive
    ++Dead;
    EXPECT_EQ(Hidden.Center[J], 0.0) << J;
    EXPECT_EQ(Hidden.Radius[J], 0.0) << J;
  }
  EXPECT_GE(Dead, 36); // all of channel 0
  EXPECT_LT(Dead, Hidden.dim());
  ExpectNoSubnormal(Hidden);

  const Region Out = Propagate(2, 3, Hidden, Shape({1, 4, 6, 6}));
  ExpectNoSubnormal(Out);
  Tensor Points({64, 72});
  for (int64_t P = 0; P < 64; ++P)
    for (int64_t J = 0; J < 72; ++J)
      Points.at(P, J) = Center[J] + Radius[J] * Gen.uniform(-1.0, 1.0);
  const Tensor Images = forwardConcretePoints(Layers, InShape, Points);
  for (int64_t P = 0; P < 64; ++P)
    for (int64_t J = 0; J < Out.dim(); ++J) {
      EXPECT_GE(Images.at(P, J), fp::subDown(Out.Center[J], Out.Radius[J]))
          << P << "," << J;
      EXPECT_LE(Images.at(P, J), fp::addUp(Out.Center[J], Out.Radius[J]))
          << P << "," << J;
    }
}

TEST(DirectedRounding, SumBracketsExactSum) {
  Rng Gen(7);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<double> Values;
    long double Exact = 0.0L;
    const int N = 1 + static_cast<int>(Gen.below(2000));
    for (int I = 0; I < N; ++I) {
      // Wildly mixed magnitudes to exercise the compensation.
      const double V = std::ldexp(Gen.uniform(-1.0, 1.0),
                                  static_cast<int>(Gen.below(81)) - 40);
      Values.push_back(V);
      Exact += static_cast<long double>(V);
    }
    const double Up = fp::sumUp(Values);
    const double Down = fp::sumDown(Values);
    EXPECT_GE(static_cast<long double>(Up), Exact);
    EXPECT_LE(static_cast<long double>(Down), Exact);
    // The compensated sum stays tight: a few ULPs, not a naive-sum drift.
    EXPECT_LE(Up - Down, 1e-10 * std::max(1.0, std::fabs(Down)));
  }
}

TEST(DirectedRounding, SumMatchesNaiveOnEmptyAndSingle) {
  EXPECT_EQ(fp::sumUp(std::vector<double>{}), 0.0);
  EXPECT_EQ(fp::sumDown(std::vector<double>{}), 0.0);
  EXPECT_GE(fp::sumUp({0.1}), 0.1);
  EXPECT_LE(fp::sumDown({0.1}), 0.1);
}

TEST(Interval, SoundOpsContainSampledResults) {
  SoundRoundingScope On(true);
  Rng Gen(11);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    const double A = Gen.uniform(-3.0, 3.0), B = Gen.uniform(-3.0, 3.0);
    const double C = Gen.uniform(-3.0, 3.0), D = Gen.uniform(-3.0, 3.0);
    const Interval X{std::min(A, B), std::max(A, B)};
    const Interval Y{std::min(C, D), std::max(C, D)};
    const double Px = Gen.uniform(X.Lo, X.Hi);
    const double Py = Gen.uniform(Y.Lo, Y.Hi);
    EXPECT_TRUE((X + Y).contains(Px + Py));
    EXPECT_TRUE((X - Y).contains(Px - Py));
    EXPECT_TRUE((X * Y).contains(Px * Py));
    EXPECT_TRUE((X * 1.7).contains(Px * 1.7));
    EXPECT_TRUE((X * -2.3).contains(Px * -2.3));
  }
}

TEST(Interval, SoundCenterRadiusCoversEndpoints) {
  SoundRoundingScope On(true);
  Rng Gen(13);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    const double A = Gen.uniform(-1e6, 1e6), B = Gen.uniform(-1e6, 1e6);
    const Interval X{std::min(A, B), std::max(A, B)};
    double C, R;
    X.toCenterRadius(C, R);
    EXPECT_LE(C - R, X.Lo);
    EXPECT_GE(C + R, X.Hi);
  }
}

TEST(Interval, RoundToNearestPathUnchangedWhenDisabled) {
  // Bit-identity contract: with the toggle off, arithmetic must be the
  // plain round-to-nearest expression.
  const Interval X{0.1, 0.3}, Y{0.2, 0.7};
  const Interval Sum = X + Y;
  EXPECT_EQ(Sum.Lo, 0.1 + 0.2);
  EXPECT_EQ(Sum.Hi, 0.3 + 0.7);
  double C, R;
  X.toCenterRadius(C, R);
  EXPECT_EQ(C, 0.5 * (0.1 + 0.3));
  EXPECT_EQ(R, 0.5 * (0.3 - 0.1));
}

// --- Clopper-Pearson regression (the betaQuantile endpoint fix) ---------

TEST(ClopperPearson, ZeroSuccessesMatchesClosedForm) {
  // K = 0: lower = 0, upper = 1 - (alpha/2)^(1/N).
  const auto [Lower, Upper] = clopperPearson(0, 10, 0.05);
  EXPECT_EQ(Lower, 0.0);
  const double Reference = 1.0 - std::pow(0.025, 1.0 / 10.0);
  EXPECT_NEAR(Upper, Reference, 1e-6);
  // Conservative direction: at least the closed-form value.
  EXPECT_GE(Upper, Reference - 1e-12);
}

TEST(ClopperPearson, AllSuccessesMatchesClosedForm) {
  // K = N: upper = 1, lower = (alpha/2)^(1/N).
  const auto [Lower, Upper] = clopperPearson(10, 10, 0.05);
  EXPECT_EQ(Upper, 1.0);
  const double Reference = std::pow(0.025, 1.0 / 10.0);
  EXPECT_NEAR(Lower, Reference, 1e-6);
  EXPECT_LE(Lower, Reference + 1e-12);
}

TEST(ClopperPearson, HalfSuccessesMatchesReference) {
  // K = 5, N = 10, alpha = 0.05: the textbook interval [0.18709, 0.81291].
  const auto [Lower, Upper] = clopperPearson(5, 10, 0.05);
  EXPECT_NEAR(Lower, 0.187086, 1e-4);
  EXPECT_NEAR(Upper, 0.812914, 1e-4);
  EXPECT_LT(Lower, Upper);
}

TEST(ClopperPearson, EndpointsErrOutward) {
  // The bisection maintains I(Lo) < P <= I(Hi); returning the outward
  // endpoint means the lower bound satisfies I(Lower) <= alpha/2 and the
  // upper bound satisfies I(Upper) >= 1 - alpha/2.
  const double Alpha = 0.05;
  for (size_t K : {1u, 3u, 5u, 7u, 9u}) {
    const size_t N = 10;
    const auto [Lower, Upper] = clopperPearson(K, N, Alpha);
    const double Kd = static_cast<double>(K), Nd = static_cast<double>(N);
    EXPECT_LE(regularizedBeta(Kd, Nd - Kd + 1.0, Lower), Alpha / 2.0)
        << "K=" << K;
    EXPECT_GE(regularizedBeta(Kd + 1.0, Nd - Kd, Upper), 1.0 - Alpha / 2.0)
        << "K=" << K;
    EXPECT_GE(Lower, 0.0);
    EXPECT_LE(Upper, 1.0);
    EXPECT_LE(Lower, Upper);
  }
}

TEST(ClopperPearson, DegenerateInputs) {
  const auto [Lower, Upper] = clopperPearson(0, 0, 0.05);
  EXPECT_EQ(Lower, 0.0);
  EXPECT_EQ(Upper, 1.0);
}

} // namespace
} // namespace genprove
