//===- tests/fused_screen_test.cpp - fusion + two-tier screen ---*- C++ -*-===//
///
/// \file
/// The fused-kernel and two-tier-screen contracts (docs/PERFORMANCE.md):
///
///  * The Linear weight layout: Linear stores W^T and runs every
///    transformer through one-pass (fused) kernels on it. Each transformer,
///    and every analysis path built on them (engine, box, zonotope,
///    deepzono, hybrid), must be bit-identical to the unfused [Out, In]
///    dot-product form — at any thread count, in both rounding modes. Exact
///    equality on doubles, not a tolerance: the kernels keep the exact
///    per-element ascending-k accumulation order of the dot form.
///
///  * --fast-screen: the DeepZono screen only *classifies* pieces; every
///    reported bound comes from the full tier's arithmetic (CDF masses for
///    proven pieces, the full analysis for borderline ones). The screened
///    interval must therefore always be consistent with the full analysis,
///    on conv pipelines too, and under sound rounding a margin the screen
///    cannot resolve must stay borderline, never a wrong certificate.
///
/// Plus regression pins for the satellite fixes riding along: the
/// PropagationCache overwrite accounting, the quantileFromBuckets edge
/// cases, and the serve coalescing compatibility key.
///
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/box_domain.h"
#include "src/domains/hybrid_zonotope.h"
#include "src/domains/prop_cache.h"
#include "src/domains/zonotope.h"
#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/nn/linear.h"
#include "src/nn/reshape.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/tensor/ops.h"
#include "src/util/fp.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

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

/// Pin the global pool for the test body, restore on scope exit.
struct PoolScope {
  explicit PoolScope(int64_t Threads) {
    ThreadPool::global().setThreads(Threads);
  }
  ~PoolScope() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

// ---------------------------------------------------------------------------
// Fused (one-pass, transposed-layout) Linear == the unfused dot form, bit
// for bit.
// ---------------------------------------------------------------------------

/// The [Out, In] dot-product form of a Linear layer: every transformer as
/// separate matmulTransB calls on W (and on a precomputed |W| for radii),
/// a separate bias pass, and the base-class sound box transform (two
/// applyToBox calls, the bias image taken from a zero-input box). Linear
/// must agree with it bit for bit: its one-pass kernels on the stored W^T
/// keep every output's ascending-k accumulation chain.
class DotFormLinear : public Layer {
public:
  explicit DotFormLinear(const Linear &L)
      : Layer(Kind::Linear), W(L.weight()), AbsW(W.clone()),
        Bias(L.bias().clone()) {
    for (int64_t I = 0; I < AbsW.numel(); ++I)
      AbsW[I] = std::fabs(AbsW[I]);
  }

  Tensor forward(const Tensor &Input) override { return applyAffine(Input); }
  Tensor backward(const Tensor &) override {
    fatalError("DotFormLinear is inference-only");
  }
  Tensor applyAffine(const Tensor &Points) const override {
    Tensor Out = matmulTransB(Points, W);
    for (int64_t I = 0; I < Out.dim(0); ++I)
      for (int64_t J = 0; J < Out.dim(1); ++J)
        Out.at(I, J) += Bias[J];
    return Out;
  }
  Tensor applyLinear(const Tensor &Points) const override {
    return matmulTransB(Points, W);
  }
  void applyToBox(Tensor &Center, Tensor &Radius) const override {
    Center = applyAffine(Center);
    Radius = matmulTransB(Radius, AbsW);
  }
  int64_t accumulationDepth() const override { return W.dim(1) + 1; }
  std::optional<Shape> tryOutputShape(const Shape &InputShape,
                                      std::string &) const override {
    return Shape({InputShape.dim(0), W.dim(0)});
  }
  std::string describe() const override { return "DotFormLinear"; }

private:
  Tensor W;    // [Out, In]
  Tensor AbsW; // [Out, In]
  Tensor Bias; // [Out]
};

/// \p Net with every Linear layer replaced by its dot form.
Sequential dotForm(const Sequential &Net) {
  Sequential Ref;
  for (size_t I = 0; I < Net.size(); ++I) {
    const Layer &L = Net.layer(I);
    check(L.kind() == Layer::Kind::Linear || L.kind() == Layer::Kind::ReLU,
          "dotForm handles Linear/ReLU networks");
    if (L.kind() == Layer::Kind::Linear)
      Ref.add(std::make_unique<DotFormLinear>(static_cast<const Linear &>(L)));
    else
      Ref.add(std::make_unique<ReLU>());
  }
  return Ref;
}

/// Bitwise tensor equality: tells +0.0 from -0.0, unlike EXPECT_EQ.
void expectSameBits(const Tensor &A, const Tensor &B, const char *What) {
  ASSERT_EQ(A.shape().dims(), B.shape().dims()) << What;
  for (int64_t I = 0; I < A.numel(); ++I) {
    const double X = A[I], Y = B[I];
    EXPECT_EQ(std::memcmp(&X, &Y, sizeof(double)), 0)
        << What << "[" << I << "]: " << X << " vs " << Y;
  }
}

/// The engine tests compare two networks whose layers hash alike (the
/// dot form hashes only its description), so they keep the propagation
/// cache out of the comparison.
GenProveConfig uncachedConfig() {
  GenProveConfig Config;
  Config.UseCache = false;
  return Config;
}

/// (threads, sound rounding) grid shared by the bit-identity tests.
class FusedBitIdentity
    : public ::testing::TestWithParam<std::tuple<int64_t, bool>> {};

TEST_P(FusedBitIdentity, LinearTransformersMatchDotForm) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  constexpr int64_t Rows = 6, In = 7, Out = 5;
  Rng R(59);
  Tensor W = Tensor::randn({Out, In}, R, 0.8);
  W[3] = -0.0;
  W[8] = 0.0;
  // Signed-zero inputs: single +-0.0 entries, and a row of -0.0 whose dot
  // products are sums of signed zeros.
  Tensor X = Tensor::randn({Rows, In}, R);
  X.at(0, 0) = 0.0;
  X.at(0, 1) = -0.0;
  for (int64_t J = 0; J < In; ++J)
    X.at(1, J) = -0.0;
  Tensor Rad = Tensor::rand({Rows, In}, R, 0.0, 0.2);
  Rad.at(2, 3) = 0.0;
  Tensor Dy = Tensor::randn({Rows, Out}, R);
  Dy.at(0, 0) = -0.0;

  for (const bool ZeroBias : {false, true}) {
    SCOPED_TRACE(ZeroBias ? "zero bias" : "random bias");
    Linear L(In, Out);
    L.setWeight(W);
    L.bias() = ZeroBias ? Tensor({Out}) : Tensor::randn({Out}, R, 0.4);
    const DotFormLinear Ref(L);

    expectSameBits(L.applyAffine(X), Ref.applyAffine(X), "applyAffine");
    expectSameBits(L.applyLinear(X), Ref.applyLinear(X), "applyLinear");
    {
      Tensor C1 = X, R1 = Rad, C2 = X, R2 = Rad;
      L.applyToBox(C1, R1);
      Ref.applyToBox(C2, R2);
      expectSameBits(C1, C2, "applyToBox center");
      expectSameBits(R1, R2, "applyToBox radius");
    }
    {
      Tensor C1 = X, R1 = Rad, C2 = X, R2 = Rad;
      L.applyToBoxSound(C1, R1);
      Ref.applyToBoxSound(C2, R2);
      expectSameBits(C1, C2, "applyToBoxSound center");
      expectSameBits(R1, R2, "applyToBoxSound radius");
    }

    // Training: the forward pass is the affine map, and backward yields
    // dX = dY W and dW = dY^T X exactly as the [Out, In] GEMMs would, the
    // weight gradient held in the layer's [In, Out] storage layout.
    for (const Param &P : L.params())
      P.Grad->zero();
    expectSameBits(L.forward(X), Ref.applyAffine(X), "forward");
    expectSameBits(L.backward(Dy), matmul(Dy, W), "backward dX");
    const Tensor Dw = matmulTransA(Dy, X); // [Out, In]
    const Tensor GradWT = L.params()[0].Grad->clone(); // [In, Out]
    Tensor GradW({Out, In});
    for (int64_t O = 0; O < Out; ++O)
      for (int64_t J = 0; J < In; ++J)
        GradW.at(O, J) = GradWT.at(J, O);
    expectSameBits(GradW, Dw, "backward dW");
    expectSameBits(L.weight(), W, "weight() round trip");
  }
}

TEST_P(FusedBitIdentity, EngineBoundsMatchUnfused) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(61);
  Sequential Net = makeRandomMlp(R, {4, 14, 10, 3});
  const Sequential Ref = dotForm(Net);
  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const std::vector<OutputSpec> Specs = {OutputSpec::argmaxWins(0, 3),
                                         OutputSpec::argmaxWins(2, 3)};

  const GenProve A(uncachedConfig());
  const PropagatedState SA =
      A.propagateSegment(Net.view(), Shape({1, 4}), Start, End);
  const PropagatedState SB =
      A.propagateSegment(Ref.view(), Shape({1, 4}), Start, End);
  ASSERT_FALSE(SA.OutOfMemory);
  ASSERT_FALSE(SB.OutOfMemory);
  for (const OutputSpec &Spec : Specs) {
    const ProbBounds PA = A.boundsFor(SA, Spec);
    const ProbBounds PB = A.boundsFor(SB, Spec);
    EXPECT_EQ(PA.Lower, PB.Lower);
    EXPECT_EQ(PA.Upper, PB.Upper);
  }
}

TEST_P(FusedBitIdentity, BatchedEngineMatchesUnfused) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(67);
  Sequential Net = makeRandomMlp(R, {3, 12, 8, 2});
  const Sequential Ref = dotForm(Net);
  std::vector<std::pair<Tensor, Tensor>> Segments;
  for (int I = 0; I < 4; ++I)
    Segments.emplace_back(Tensor::randn({1, 3}, R), Tensor::randn({1, 3}, R));
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  const GenProve A(uncachedConfig());
  const auto SA = A.propagateSegmentsBatch(Net.view(), Shape({1, 3}), Segments);
  const auto SB = A.propagateSegmentsBatch(Ref.view(), Shape({1, 3}), Segments);
  ASSERT_EQ(SA.size(), SB.size());
  for (size_t I = 0; I < SA.size(); ++I) {
    EXPECT_EQ(A.boundsFor(SA[I], Spec).Lower, A.boundsFor(SB[I], Spec).Lower)
        << "segment " << I;
    EXPECT_EQ(A.boundsFor(SA[I], Spec).Upper, A.boundsFor(SB[I], Spec).Upper)
        << "segment " << I;
  }
}

TEST_P(FusedBitIdentity, ConvexDomainsMatchUnfused) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(71);
  Sequential Net = makeRandomMlp(R, {3, 12, 8, 2});
  const Sequential Ref = dotForm(Net);
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const std::vector<OutputSpec> Specs = {OutputSpec::argmaxWins(0, 2),
                                         OutputSpec::argmaxWins(1, 2)};
  const Shape In({1, 3});
  DeviceMemoryModel Unlimited(0);

  struct Domain {
    const char *Name;
    std::function<std::vector<ConvexResult>(const Sequential &)> Run;
  };
  const std::vector<Domain> Domains = {
      {"box",
       [&](const Sequential &N) {
         return analyzeBoxMulti(N.view(), In, Start, End, Specs, Unlimited);
       }},
      {"zonotope",
       [&](const Sequential &N) {
         return analyzeZonotopeMulti(N.view(), In, Start, End, Specs,
                                     ZonotopeKind::Zonotope, Unlimited);
       }},
      {"deepzono",
       [&](const Sequential &N) {
         return analyzeZonotopeMulti(N.view(), In, Start, End, Specs,
                                     ZonotopeKind::DeepZono, Unlimited);
       }},
      {"hybrid",
       [&](const Sequential &N) {
         return analyzeHybridZonotopeMulti(N.view(), In, Start, End, Specs,
                                           Unlimited);
       }},
  };

  for (const Domain &D : Domains) {
    const auto Fused = D.Run(Net);
    const auto Plain = D.Run(Ref);
    ASSERT_EQ(Plain.size(), Fused.size()) << D.Name;
    for (size_t J = 0; J < Plain.size(); ++J) {
      EXPECT_EQ(Plain[J].Bounds.Lower, Fused[J].Bounds.Lower)
          << D.Name << " spec " << J;
      EXPECT_EQ(Plain[J].Bounds.Upper, Fused[J].Bounds.Upper)
          << D.Name << " spec " << J;
      EXPECT_EQ(Plain[J].Bounds.OutOfMemory, Fused[J].Bounds.OutOfMemory)
          << D.Name;
    }
  }
}

/// Telemetry identity under a binding budget: the layout cannot move the
/// OOM point or the reported peak.
TEST_P(FusedBitIdentity, ZonotopeOomPointMatchesUnfused) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(73);
  Sequential Net = makeRandomMlp(R, {3, 24, 24, 2});
  const Sequential Ref = dotForm(Net);
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  const Shape In({1, 3});

  // Probe the unlimited peak, then pin the budget just under it so the
  // propagation fails partway through the chain.
  DeviceMemoryModel Probe(0);
  const ConvexResult Full = analyzeZonotope(Net.view(), In, Start, End, Spec,
                                            ZonotopeKind::Zonotope, Probe);
  ASSERT_FALSE(Full.Bounds.OutOfMemory);
  ASSERT_GT(Full.PeakBytes, 0u);

  DeviceMemoryModel TightA(Full.PeakBytes - 1);
  DeviceMemoryModel TightB(Full.PeakBytes - 1);
  const ConvexResult Plain = analyzeZonotope(
      Ref.view(), In, Start, End, Spec, ZonotopeKind::Zonotope, TightA);
  const ConvexResult Fused = analyzeZonotope(
      Net.view(), In, Start, End, Spec, ZonotopeKind::Zonotope, TightB);
  EXPECT_EQ(Plain.Bounds.OutOfMemory, Fused.Bounds.OutOfMemory);
  EXPECT_EQ(Plain.PeakBytes, Fused.PeakBytes);
  EXPECT_EQ(Plain.Bounds.Lower, Fused.Bounds.Lower);
  EXPECT_EQ(Plain.Bounds.Upper, Fused.Bounds.Upper);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndRounding, FusedBitIdentity,
                         ::testing::Combine(::testing::Values<int64_t>(1, 4),
                                            ::testing::Bool()));

// ---------------------------------------------------------------------------
// The DeepZono screen: classification unit tests.
// ---------------------------------------------------------------------------

Sequential identityNet() {
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 1);
  L->setWeight(Tensor({1, 1}, {1.0}));
  L->bias()[0] = 0.0;
  Net.add(std::move(L));
  return Net;
}

OutputSpec positiveSpec() {
  Tensor Normal({1, 1});
  Normal[0] = 1.0;
  return OutputSpec::halfspace(Normal, 0.0);
}

Region line1d(double From, double To) {
  return makeSegmentRegion(Tensor({1, 1}, {From}), Tensor({1, 1}, {To}));
}

/// 1 -> 1 identity pipeline: the zonotope of a piece is the segment itself,
/// so the halfspace y > 0 classifies exactly as the sign of the segment. A
/// NaN never certifies anything. All pieces run in one batched call, in
/// both rounding modes.
TEST(ScreenClassifyTest, InsideOutsideBorderlineOnIdentity) {
  const Sequential Net = identityNet();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (const bool Sound : {false, true}) {
    SoundRoundingScope Scope(Sound);
    const std::vector<ScreenVerdict> V = screenPieces(
        Net.view(), Shape({1, 1}),
        {line1d(1.0, 2.0), line1d(-2.0, -1.0), line1d(-1.0, 1.0),
         line1d(NaN, 1.0)},
        positiveSpec());
    ASSERT_EQ(V.size(), 4u);
    EXPECT_EQ(V[0], ScreenVerdict::Inside) << Sound;
    EXPECT_EQ(V[1], ScreenVerdict::Outside) << Sound;
    EXPECT_EQ(V[2], ScreenVerdict::Borderline) << Sound;
    EXPECT_EQ(V[3], ScreenVerdict::Borderline) << Sound;
  }
}

/// Under sound rounding the slack is an over-approximation: a margin below
/// eps times the activation magnitude (here one ULP of 1e6) must NOT be
/// certified, although round-to-nearest arithmetic would certify it.
TEST(ScreenClassifyTest, TinyMarginStaysBorderline) {
  const Sequential Net = identityNet();
  Tensor Normal({1, 1});
  Normal[0] = 1.0;
  const double Boundary = std::nextafter(1e6, 0.0);
  const OutputSpec Spec = OutputSpec::halfspace(Normal, -Boundary);
  const std::vector<Region> Pieces{line1d(1e6, 1e6 + 1.0)};
  {
    SoundRoundingScope Scope(false);
    EXPECT_EQ(screenPieces(Net.view(), Shape({1, 1}), Pieces, Spec)[0],
              ScreenVerdict::Inside);
  }
  SoundRoundingScope Scope(true);
  EXPECT_EQ(screenPieces(Net.view(), Shape({1, 1}), Pieces, Spec)[0],
            ScreenVerdict::Borderline);
}

/// A piece whose endpoint nearly cancels (A0 ~ -A1 P0) against a boundary
/// at 0: its endpoint values are 2^-50 and 2^-50 + 2^-45, but evaluating
/// it carries an error of order eps |A0|, and the sound slack must say so.
/// A slack derived from the endpoint values (8 eps (|y0| + |y1|), ~1e-28)
/// would certify it inside.
TEST(ScreenClassifyTest, CancellingEndpointsStayBorderline) {
  const Sequential Net = identityNet();
  Region Line;
  Line.Coeffs = Tensor({2, 1}, {-0.5 + 0x1p-50, 1.0});
  const std::vector<Region> Pieces{
      restrictCurve(Line, 0.5, 0.5 + 0x1p-45, 1.0)};
  {
    SoundRoundingScope Scope(false);
    EXPECT_EQ(screenPieces(Net.view(), Shape({1, 1}), Pieces,
                           positiveSpec())[0],
              ScreenVerdict::Inside);
  }
  SoundRoundingScope Scope(true);
  EXPECT_EQ(
      screenPieces(Net.view(), Shape({1, 1}), Pieces, positiveSpec())[0],
      ScreenVerdict::Borderline);
}

/// Coarse to fine: a decided whole range is one verdict for every cell, and
/// a crossing range is halved until the crossing sits in one borderline
/// cell.
TEST(ScreenClassifyTest, CellsRefineOnlyAroundTheCrossing) {
  const Sequential Net = identityNet();
  const std::vector<double> Cuts = planRange(0.0, 1.0, 8);
  const std::vector<ScreenVerdict> AllIn = screenCells(
      Net.view(), Shape({1, 1}), line1d(1.0, 2.0), Cuts, positiveSpec());
  EXPECT_EQ(AllIn, std::vector<ScreenVerdict>(8, ScreenVerdict::Inside));

  // y(t) = 4t - 1.3 crosses 0 at t = 0.325, inside cell [0.25, 0.375).
  const std::vector<ScreenVerdict> Cells = screenCells(
      Net.view(), Shape({1, 1}), line1d(-1.3, 2.7), Cuts, positiveSpec());
  ASSERT_EQ(Cells.size(), 8u);
  for (size_t I = 0; I < 8; ++I)
    EXPECT_EQ(Cells[I], I < 2    ? ScreenVerdict::Outside
                        : I == 2 ? ScreenVerdict::Borderline
                                 : ScreenVerdict::Inside)
        << I;
}

// ---------------------------------------------------------------------------
// The two-tier screened analysis.
// ---------------------------------------------------------------------------

TEST(ScreenedAnalysisTest, BoundsConsistentWithFullSoundTier) {
  SoundRoundingScope Sound(true);
  Rng R(79);
  Sequential Net = makeRandomMlp(R, {3, 12, 8, 2});
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  GenProveConfig Full;
  GenProveConfig Screen;
  Screen.FastScreen = true;
  const AnalysisResult F =
      GenProve(Full).analyzeSegment(Net.view(), Shape({1, 3}), Start, End,
                                    Spec);
  const AnalysisResult S =
      GenProve(Screen).analyzeSegment(Net.view(), Shape({1, 3}), Start, End,
                                      Spec);

  EXPECT_FALSE(F.Screened);
  EXPECT_TRUE(S.Screened);
  EXPECT_EQ(S.ScreenedInside + S.ScreenedOutside + S.ScreenedBorderline,
            Screen.ScreenSplits);

  // Both intervals are sound, so both contain the true probability: they
  // must intersect, and each must be a valid sub-interval of [0, 1].
  EXPECT_GE(S.Bounds.Lower, 0.0);
  EXPECT_LE(S.Bounds.Upper, 1.0);
  EXPECT_LE(S.Bounds.Lower, S.Bounds.Upper);
  EXPECT_LE(S.Bounds.Lower, F.Bounds.Upper);
  EXPECT_LE(F.Bounds.Lower, S.Bounds.Upper);
}

/// A spec the whole segment trivially satisfies: the screen proves every
/// piece inside, the sound tier never runs, and the lower bound is the
/// (directed) total CDF mass — essentially 1.
TEST(ScreenedAnalysisTest, AllInsideSkipsSoundTier) {
  Rng R(83);
  Sequential Net;
  auto L = std::make_unique<Linear>(2, 2);
  L->setWeight(Tensor({2, 2}, {1.0, 0.0, 0.0, 1.0}));
  L->bias() = Tensor({2});
  L->bias()[0] = 10.0;
  L->bias()[1] = 0.0;
  Net.add(std::move(L));

  const Tensor Start = Tensor::randn({1, 2}, R, 0.5);
  const Tensor End = Tensor::randn({1, 2}, R, 0.5);
  GenProveConfig Config;
  Config.FastScreen = true;
  const AnalysisResult S = GenProve(Config).analyzeSegment(
      Net.view(), Shape({1, 2}), Start, End, OutputSpec::argmaxWins(0, 2));
  EXPECT_TRUE(S.Screened);
  EXPECT_EQ(S.ScreenedInside, Config.ScreenSplits);
  EXPECT_EQ(S.ScreenedBorderline, 0);
  EXPECT_GE(S.Bounds.Lower, 0.999);
  EXPECT_EQ(S.Bounds.Upper, 1.0);
  EXPECT_FALSE(S.Degraded);
}

TEST(ScreenedAnalysisTest, AllOutsideGivesNearZeroUpper) {
  Rng R(89);
  Sequential Net;
  auto L = std::make_unique<Linear>(2, 2);
  L->setWeight(Tensor({2, 2}, {1.0, 0.0, 0.0, 1.0}));
  L->bias() = Tensor({2});
  L->bias()[0] = -10.0;
  L->bias()[1] = 0.0;
  Net.add(std::move(L));

  const Tensor Start = Tensor::randn({1, 2}, R, 0.5);
  const Tensor End = Tensor::randn({1, 2}, R, 0.5);
  GenProveConfig Config;
  Config.FastScreen = true;
  const AnalysisResult S = GenProve(Config).analyzeSegment(
      Net.view(), Shape({1, 2}), Start, End, OutputSpec::argmaxWins(0, 2));
  EXPECT_TRUE(S.Screened);
  EXPECT_EQ(S.ScreenedOutside, Config.ScreenSplits);
  EXPECT_EQ(S.ScreenedBorderline, 0);
  EXPECT_EQ(S.Bounds.Lower, 0.0);
  EXPECT_LE(S.Bounds.Upper, 1e-3);
}

/// A conv pipeline: the screen decides the cells away from the spec's
/// boundary, and the screened bounds agree with the full tier's: to 1e-9
/// under round-to-nearest, where both are exact analyses and differ only
/// by the rounding of the mass sums, and as intersecting intervals under
/// sound rounding.
TEST(ScreenedAnalysisTest, ConvPipelineDecidesCellsConsistentWithFullTier) {
  Rng R(97);
  Sequential Net;
  auto C = std::make_unique<Conv2d>(1, 2, 3, 1, 1);
  C->weight() = Tensor::randn(C->weight().shape(), R, 0.4);
  C->bias() = Tensor::randn(C->bias().shape(), R, 0.2);
  Net.add(std::move(C));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<Flatten>());
  auto L = std::make_unique<Linear>(2 * 4 * 4, 2);
  L->setWeight(Tensor::randn({2, 2 * 4 * 4}, R, 0.4));
  L->bias() = Tensor::randn({2}, R, 0.2);
  Net.add(std::move(L));

  const Tensor Start = Tensor::randn({1, 16}, R, 0.5);
  const Tensor End = Tensor::randn({1, 16}, R, 0.5);
  const Shape In({1, 1, 4, 4});
  // Boundary through the output at the middle of the segment.
  Tensor MidPoint({1, 16});
  for (int64_t J = 0; J < 16; ++J)
    MidPoint[J] = 0.5 * (Start[J] + End[J]);
  const double Mid = forwardConcretePoints(Net.view(), In, MidPoint)[0];
  Tensor Normal({1, 2});
  Normal[0] = 1.0;
  const OutputSpec Spec = OutputSpec::halfspace(Normal, -Mid);

  for (const bool Sound : {false, true}) {
    SoundRoundingScope Scope(Sound);
    GenProveConfig Config;
    Config.FastScreen = true;
    Config.ScreenSplits = 8;
    const AnalysisResult S =
        GenProve(Config).analyzeSegment(Net.view(), In, Start, End, Spec);
    EXPECT_TRUE(S.Screened);
    EXPECT_GT(S.ScreenedInside + S.ScreenedOutside, 0) << Sound;
    EXPECT_GT(S.ScreenedBorderline, 0) << Sound;
    EXPECT_EQ(S.ScreenedInside + S.ScreenedOutside + S.ScreenedBorderline,
              Config.ScreenSplits);

    const AnalysisResult F =
        GenProve(GenProveConfig{}).analyzeSegment(Net.view(), In, Start, End,
                                                  Spec);
    if (Sound) {
      // The sound full tier is not exact here (it reports [0.088, 0.268]
      // around 0.127); both intervals contain the true value.
      EXPECT_LE(S.Bounds.Lower, F.Bounds.Upper);
      EXPECT_LE(F.Bounds.Lower, S.Bounds.Upper);
    } else {
      EXPECT_NEAR(S.Bounds.Lower, F.Bounds.Lower, 1e-9);
      EXPECT_NEAR(S.Bounds.Upper, F.Bounds.Upper, 1e-9);
    }
  }
}

/// Monte-Carlo containment: the screened bounds must cover the empirical
/// satisfaction fraction of dense concrete samples along the segment.
TEST(ScreenedAnalysisTest, EmpiricalFractionWithinScreenedBounds) {
  Rng R(101);
  Sequential Net = makeRandomMlp(R, {3, 10, 8, 2});
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  GenProveConfig Config;
  Config.FastScreen = true;
  const AnalysisResult S = GenProve(Config).analyzeSegment(
      Net.view(), Shape({1, 3}), Start, End, Spec);

  const int64_t N = 2000;
  Tensor Points({N, 3});
  for (int64_t I = 0; I < N; ++I) {
    const double T = double(I) / double(N - 1);
    for (int64_t J = 0; J < 3; ++J)
      Points.at(I, J) = Start[J] + T * (End[J] - Start[J]);
  }
  const Tensor Out = forwardConcretePoints(Net.view(), Shape({1, 3}), Points);
  int64_t Sat = 0;
  for (int64_t I = 0; I < N; ++I) {
    bool Ok = true;
    for (const auto &H : Spec.halfspaces()) {
      double F = H.Offset;
      for (int64_t J = 0; J < Out.dim(1); ++J)
        F += H.Normal[J] * Out.at(I, J);
      Ok = Ok && F > 0.0;
    }
    Sat += Ok ? 1 : 0;
  }
  const double Frac = double(Sat) / double(N);
  // The sample is an estimate, so allow sampling slack at the edges.
  EXPECT_GE(Frac, S.Bounds.Lower - 0.02);
  EXPECT_LE(Frac, S.Bounds.Upper + 0.02);
}

// ---------------------------------------------------------------------------
// Satellite regression pins.
// ---------------------------------------------------------------------------

/// Overwriting a resident cache key must release the old entry's bytes
/// (and LRU node) before charging the replacement: repeated stores of one
/// key cannot drift CurBytes past the budget or strand stale accounting.
TEST(PropCacheOverwriteTest, RepeatedStoreOfSameKeyKeepsBytesFlat) {
  PropagationCache &C = PropagationCache::global();
  C.configure(1u << 20);
  Rng R(103);

  std::vector<Region> Small;
  Small.push_back(makeSegmentRegion(Tensor::randn({1, 4}, R),
                                    Tensor::randn({1, 4}, R)));
  std::vector<Region> Big;
  Big.push_back(makeSegmentRegion(Tensor::randn({1, 64}, R),
                                  Tensor::randn({1, 64}, R)));

  C.store(0xfeedu, Small, Shape({1, 4}), 0);
  const size_t AfterSmall = C.bytes();
  ASSERT_GT(AfterSmall, 0u);
  for (int I = 0; I < 10; ++I)
    C.store(0xfeedu, Small, Shape({1, 4}), 0);
  EXPECT_EQ(C.bytes(), AfterSmall) << "overwrite leaked accounting";

  // Grow then shrink the same key: bytes must track the resident entry.
  C.store(0xfeedu, Big, Shape({1, 64}), 0);
  const size_t AfterBig = C.bytes();
  EXPECT_GT(AfterBig, AfterSmall);
  C.store(0xfeedu, Small, Shape({1, 4}), 0);
  EXPECT_EQ(C.bytes(), AfterSmall);

  EXPECT_LE(C.bytes(), C.budgetBytes());
  C.configure(0);
}

TEST(QuantileFromBucketsTest, EdgeCases) {
  const int NB = Histogram::NumBuckets;
  std::vector<int64_t> Buckets(static_cast<size_t>(NB), 0);

  // Empty histogram: no answer to give.
  EXPECT_TRUE(std::isnan(
      quantileFromBuckets(Buckets.data(), NB, 0, 1.0, 2.0, 0.5)));

  // Torn concurrent snapshot (bucket totals short of Count): the largest
  // observed sample, not a crash or a fabricated bucket edge.
  EXPECT_EQ(quantileFromBuckets(Buckets.data(), NB, 10, 1.0, 7.0, 0.5), 7.0);
  EXPECT_TRUE(std::isnan(quantileFromBuckets(
      Buckets.data(), NB, 10, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(), 0.5)));

  // All mass in the +inf overflow bucket with genuinely infinite samples:
  // the honest quantile is the infinity itself.
  Buckets.assign(static_cast<size_t>(NB), 0);
  Buckets[static_cast<size_t>(NB - 1)] = 5;
  EXPECT_TRUE(std::isinf(quantileFromBuckets(
      Buckets.data(), NB, 5, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(), 0.5)));

  // Finite samples whose mass sits in the underflow bucket (-inf, 0]:
  // the sample-range clamp keeps the estimate finite and in-range.
  Buckets.assign(static_cast<size_t>(NB), 0);
  Buckets[0] = 4;
  const double Q0 = quantileFromBuckets(Buckets.data(), NB, 4, -3.0, 0.0, 0.5);
  EXPECT_TRUE(std::isfinite(Q0));
  EXPECT_GE(Q0, -3.0);
  EXPECT_LE(Q0, 0.0);

  // Out-of-range Q clamps instead of indexing past the data, and the
  // in-range answer stays within the observed sample range.
  Buckets.assign(static_cast<size_t>(NB), 0);
  Buckets[static_cast<size_t>(Histogram::bucketIndex(1.0))] += 1;
  Buckets[static_cast<size_t>(Histogram::bucketIndex(2.0))] += 1;
  Buckets[static_cast<size_t>(Histogram::bucketIndex(4.0))] += 1;
  EXPECT_EQ(quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 2.0),
            quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 1.0));
  EXPECT_EQ(quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, -1.0),
            quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 0.0));
  const double Med = quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 0.5);
  EXPECT_GE(Med, 1.0);
  EXPECT_LE(Med, 4.0);
}

/// Every result-affecting knob must split the serve coalescing key: two
/// requests differing only in rounding mode, screening, budget or
/// relaxation must never share one joint propagation.
TEST(CoalesceKeyTest, ResultAffectingKnobsSplitTheKey) {
  ServeRequest Base;
  Base.Net = "zoo:mlp";
  Base.InputShape = "1x4";
  Base.RelaxPercent = 0.5;
  Base.ClusterK = 100.0;
  Base.NodeThreshold = 250;
  Base.BudgetMb = 64;

  const std::string K0 = coalesceKeyFor(Base);
  EXPECT_EQ(coalesceKeyFor(Base), K0) << "key not deterministic";

  ServeRequest R1 = Base;
  R1.Sound = true;
  EXPECT_NE(coalesceKeyFor(R1), K0) << "sound missing from key";

  ServeRequest R3 = Base;
  R3.FastScreen = true;
  EXPECT_NE(coalesceKeyFor(R3), K0) << "fast_screen missing from key";

  ServeRequest R4 = Base;
  R4.BudgetMb = 128;
  EXPECT_NE(coalesceKeyFor(R4), K0) << "budget missing from key";

  ServeRequest R5 = Base;
  R5.RelaxPercent = 0.25;
  EXPECT_NE(coalesceKeyFor(R5), K0) << "relaxation missing from key";

  ServeRequest R6 = Base;
  R6.Net = "zoo:other";
  EXPECT_NE(coalesceKeyFor(R6), K0) << "net missing from key";

  // Deterministic mode and specs are deliberately per-member (applied
  // after the joint propagation), so they must NOT split the key.
  ServeRequest R7 = Base;
  R7.Deterministic = true;
  EXPECT_EQ(coalesceKeyFor(R7), K0);

  // The retired "fuse" wire flag is accepted and ignored: it must not
  // split the key either.
  const std::string Line =
      "{\"type\":\"verify\",\"net\":\"zoo:mlp\",\"input_shape\":\"1x4\","
      "\"start\":[0,0,0,0],\"end\":[1,1,1,1],\"specs\":[\"argmax:0:3\"]";
  ServeRequest Plain, Fused;
  ASSERT_TRUE(decodeServeRequest(Line + "}", Plain, nullptr, nullptr));
  ASSERT_TRUE(
      decodeServeRequest(Line + ",\"fuse\":true}", Fused, nullptr, nullptr));
  EXPECT_EQ(coalesceKeyFor(Fused), coalesceKeyFor(Plain));
}

} // namespace
} // namespace genprove
