//===- domains/zonotope.cpp -----------------------------------*- C++ -*-===//

#include "src/domains/zonotope.h"

#include "src/util/error.h"
#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

namespace {

Tensor reshapeRows(const Tensor &Rows, const Shape &SampleShape) {
  std::vector<int64_t> Dims = SampleShape.dims();
  Dims[0] = Rows.dim(0);
  return Rows.reshaped(Shape(Dims));
}

Tensor flattenRows(const Tensor &Acts) {
  const int64_t K = Acts.dim(0);
  return Acts.reshaped({K, Acts.numel() / std::max<int64_t>(K, 1)});
}

/// Mutable zonotope state. Slack is a per-dimension interval error term
/// that is identically zero in the default round-to-nearest mode and
/// absorbs every rounding error of the affine/ReLU transformers when
/// sound rounding is on (the generator count the memory model sees is
/// unchanged).
struct ZonoState {
  Tensor Center; ///< [1, N]
  Tensor Gens;   ///< [G, N]
  Tensor Slack;  ///< [1, N]
};

ZonoState initState(const Tensor &Start, const Tensor &End) {
  const int64_t N = Start.numel();
  ZonoState St{Tensor({1, N}), Tensor({1, N}), Tensor({1, N})};
  const bool Sound = soundRoundingEnabled();
  for (int64_t J = 0; J < N; ++J) {
    St.Center[J] = 0.5 * (Start[J] + End[J]);
    St.Gens.at(0, J) = 0.5 * (End[J] - Start[J]);
    if (Sound)
      // Covers the rounding of midpoint/half-difference and the deviation
      // of any double-evaluated point s + t*(e-s) from the exact segment.
      St.Slack[J] = fp::mulUp(
          8.0 * DBL_EPSILON,
          fp::addUp(std::fabs(Start[J]), std::fabs(End[J])));
  }
  return St;
}

/// The zonotope of a degree-1 curve piece over its own [T0, T1], from its
/// coefficients (see screenPieces). In sound mode the slack covers the
/// rounding of the midpoint m, the half-width h, the center A0 + A1 m and
/// the generator A1 h (together at most 2.5 eps (|A0| + |A1| Tmax), with
/// Tmax = max(|T0|, |T1|)) and the deviation of a double-evaluated point
/// A0 + A1 t from the exact line (at most eps (|A0| + |A1| Tmax)), with
/// the same 8 eps cushion initState uses.
ZonoState pieceState(const Region &Piece) {
  check(Piece.Kind == RegionKind::Curve && Piece.degree() == 1,
        "screen pieces are degree-1 curves");
  const int64_t N = Piece.dim();
  ZonoState St{Tensor({1, N}), Tensor({1, N}), Tensor({1, N})};
  const bool Sound = soundRoundingEnabled();
  const double Mid = 0.5 * (Piece.T0 + Piece.T1);
  const double Half = 0.5 * (Piece.T1 - Piece.T0);
  const double TMax = std::max(std::fabs(Piece.T0), std::fabs(Piece.T1));
  for (int64_t J = 0; J < N; ++J) {
    const double A0 = Piece.Coeffs.at(0, J), A1 = Piece.Coeffs.at(1, J);
    St.Center[J] = A0 + A1 * Mid;
    St.Gens.at(0, J) = A1 * Half;
    if (Sound)
      St.Slack[J] = fp::mulUp(
          8.0 * DBL_EPSILON,
          fp::addUp(std::fabs(A0), fp::mulUp(std::fabs(A1), TMax)));
  }
  return St;
}

/// Sums[j] + sum_g |Gens[g, j]| for every column j, directed up when
/// sound rounding is on. The walk is row by row over contiguous memory,
/// and each column still accumulates in the order g = 0, 1, ...
std::vector<double> absColumnSums(const Tensor &Gens,
                                  std::vector<double> Sums) {
  const int64_t N = Gens.dim(1);
  const bool Sound = soundRoundingEnabled();
  for (int64_t Row = 0; Row < Gens.dim(0); ++Row) {
    const double *G = Gens.data() + Row * N;
    if (Sound)
      for (int64_t J = 0; J < N; ++J)
        Sums[J] = fp::addUp(Sums[J], std::fabs(G[J]));
    else
      for (int64_t J = 0; J < N; ++J)
        Sums[J] += std::fabs(G[J]);
  }
  return Sums;
}

/// One affine layer on any number of per-query states at once. All
/// centers, all generator rows, and (in sound mode) all magnitude/slack
/// rows are stacked into single production-sized kernel calls; every
/// kernel is row-independent (fixed ascending-k accumulation per output
/// element, fp-contract off), so each state's rows come out bit-identical
/// to a one-state call. The center/generator kernels are the unchanged
/// round-to-nearest paths; in sound mode the slack additionally absorbs a
/// rigorous bound on all of their rounding errors.
void applyAffineToStates(const Layer *L, const Shape &CurShape,
                         std::vector<ZonoState> &States) {
  const bool Sound = soundRoundingEnabled();
  const int64_t K = static_cast<int64_t>(States.size());
  const int64_t N = States.front().Center.numel();

  // Sound mode: rows [0, K) of one box call have zero centers and the
  // magnitude bound |x| <= |c| + sum_g |g| + slack of any represented (or
  // concretely forwarded) point as radii, so they yield the bias images
  // and |A| * Mag; rows [K, 2K) carry the centers and slacks, so they
  // yield the new centers (the box center map is the kernel applyAffine
  // runs) and |A| * slack. Round-to-nearest mode maps the centers alone.
  const int64_t BoxRows = Sound ? 2 * K : K;
  Tensor Centers({BoxRows, N});
  Tensor Radii;
  for (int64_t I = 0; I < K; ++I)
    std::copy(States[I].Center.data(), States[I].Center.data() + N,
              Centers.data() + (BoxRows - K + I) * N);
  if (Sound) {
    Radii = Tensor({BoxRows, N});
    for (int64_t I = 0; I < K; ++I) {
      const ZonoState &St = States[I];
      const std::vector<double> Mag =
          absColumnSums(St.Gens, std::vector<double>(N, 0.0));
      for (int64_t J = 0; J < N; ++J)
        Radii.at(I, J) = fp::addUp(
            Mag[J], fp::addUp(std::fabs(St.Center[J]), St.Slack[J]));
      std::copy(St.Slack.data(), St.Slack.data() + N,
                Radii.data() + (K + I) * N);
    }
    Tensor CenterActs = reshapeRows(Centers, CurShape);
    Tensor RadiusActs = reshapeRows(Radii, CurShape);
    L->applyToBox(CenterActs, RadiusActs);
    Centers = flattenRows(CenterActs);
    Radii = flattenRows(RadiusActs);
  } else {
    Centers = flattenRows(L->applyAffine(reshapeRows(Centers, CurShape)));
  }

  int64_t SumG = 0;
  for (const ZonoState &St : States)
    SumG += St.Gens.dim(0);
  Tensor AllGens({SumG, N});
  {
    int64_t Row = 0;
    for (const ZonoState &St : States) {
      std::copy(St.Gens.data(), St.Gens.data() + St.Gens.numel(),
                AllGens.data() + Row * N);
      Row += St.Gens.dim(0);
    }
  }
  AllGens = flattenRows(L->applyLinear(reshapeRows(AllGens, CurShape)));

  // gamma * (|A| Mag + |b|) bounds, with a wide margin, the sum of the
  // rounding errors of the center map, every generator row, the slack
  // propagation and a concrete forward pass of a represented point.
  const double Gamma =
      Sound ? fp::accumulationBound(L->accumulationDepth()) : 0.0;
  const int64_t OutN = Centers.dim(1);
  int64_t Row = 0;
  for (int64_t I = 0; I < K; ++I) {
    ZonoState &St = States[I];
    const int64_t G = St.Gens.dim(0);
    const int64_t CenterRow = BoxRows - K + I;
    Tensor NewCenter({1, OutN});
    std::copy(Centers.data() + CenterRow * OutN,
              Centers.data() + (CenterRow + 1) * OutN, NewCenter.data());
    Tensor NewGens({G, OutN});
    std::copy(AllGens.data() + Row * OutN, AllGens.data() + (Row + G) * OutN,
              NewGens.data());
    Row += G;
    Tensor NewSlack({1, OutN}); // identically zero in RN mode
    if (Sound)
      for (int64_t J = 0; J < OutN; ++J)
        NewSlack[J] = fp::addUp(
            Radii.at(K + I, J),
            fp::mulUp(Gamma, fp::addUp(Radii.at(I, J),
                                       std::fabs(Centers.at(I, J)))));
    St.Center = std::move(NewCenter);
    St.Gens = std::move(NewGens);
    St.Slack = std::move(NewSlack);
  }
}

/// ReLU transformer on the state (both kinds). In sound mode the
/// pre-activation range is rounded outward and the lambda/mu rounding
/// error is folded into the slack.
void applyReluToState(ZonotopeKind Kind, ZonoState &St) {
  const bool Sound = soundRoundingEnabled();
  const int64_t Dim = St.Center.numel();
  const int64_t G = St.Gens.dim(0);
  const std::vector<double> Spread = absColumnSums(
      St.Gens, Sound ? std::vector<double>(St.Slack.data(),
                                           St.Slack.data() + Dim)
                     : std::vector<double>(Dim, 0.0));
  std::vector<int64_t> Zeroed;                   // columns set to 0
  std::vector<std::pair<int64_t, double>> Scaled; // (column, lambda)
  std::vector<std::pair<int64_t, double>> Fresh;  // (dim, coefficient)
  for (int64_t J = 0; J < Dim; ++J) {
    const double Lo = Sound ? fp::subDown(St.Center[J], Spread[J])
                            : St.Center[J] - Spread[J];
    const double Hi = Sound ? fp::addUp(St.Center[J], Spread[J])
                            : St.Center[J] + Spread[J];
    if (Hi <= 0.0) {
      St.Center[J] = 0.0;
      St.Slack[J] = 0.0;
      Zeroed.push_back(J);
    } else if (Lo < 0.0) {
      if (Kind == ZonotopeKind::DeepZono) {
        // Minimal-area parallelogram: y = lambda*x + mu +- mu.
        const double Lambda = Hi / (Hi - Lo);
        const double Mu = -Lambda * Lo / 2.0;
        if (Sound) {
          // The parallelogram with the exact lambda*/mu* of this outward
          // [Lo, Hi] is sound; the computed lambda/mu deviate by a few
          // ULPs, as do the rescaled center/generators. All of it lands
          // in the slack.
          const double M = std::max(std::fabs(Lo), Hi);
          const double SumG = fp::subUp(Spread[J], St.Slack[J]);
          const double Inner = fp::addUp(
              std::fabs(Mu),
              fp::mulUp(Lambda,
                        fp::addUp(M, fp::addUp(std::fabs(St.Center[J]),
                                               SumG))));
          const double LambdaUp =
              fp::mulUp(Lambda, 1.0 + 8.0 * DBL_EPSILON);
          St.Slack[J] = fp::addUp(fp::mulUp(LambdaUp, St.Slack[J]),
                                  fp::mulUp(16.0 * DBL_EPSILON, Inner));
        }
        St.Center[J] = Lambda * St.Center[J] + Mu;
        Scaled.emplace_back(J, Lambda);
        Fresh.emplace_back(J, Mu);
      } else {
        // AI2-style: forget the affine form, use [0, Hi]. In sound mode
        // the fresh coefficient rounds up so [c - f, c + f] = [0, 2f]
        // still covers [0, Hi]; the slack is consumed by Hi.
        const double Half = Sound ? fp::mulUp(0.5, Hi) : Hi / 2.0;
        St.Center[J] = Half;
        St.Slack[J] = 0.0;
        Zeroed.push_back(J);
        Fresh.emplace_back(J, Half);
      }
    }
    // Lo >= 0: identity (exact; slack carries over unchanged).
  }
  for (int64_t Row = 0; Row < G; ++Row) {
    double *GRow = St.Gens.data() + Row * Dim;
    for (const int64_t J : Zeroed)
      GRow[J] = 0.0;
    for (const auto &[J, Lambda] : Scaled)
      GRow[J] *= Lambda;
  }
  if (!Fresh.empty()) {
    Tensor NewGens({G + static_cast<int64_t>(Fresh.size()), Dim});
    std::copy(St.Gens.data(), St.Gens.data() + St.Gens.numel(),
              NewGens.data());
    for (size_t K = 0; K < Fresh.size(); ++K)
      NewGens.at(G + static_cast<int64_t>(K), Fresh[K].first) =
          Fresh[K].second;
    St.Gens = std::move(NewGens);
  }
}

/// Propagate many initial states through the pipeline as one joint state.
/// Returns false on OOM; the per-layer device charge is the sum of every
/// state's charge, since the joint state is resident at once.
/// Peak/generator telemetry accumulates into Result.
bool propagateZonotopeBatch(const std::vector<const Layer *> &Layers,
                            const Shape &InputShape, ZonotopeKind Kind,
                            DeviceMemoryModel &Memory,
                            std::vector<ZonoState> &States,
                            ConvexResult &Result) {
  Shape CurShape = InputShape;
  // Telemetry + budget charge for a layer boundary.
  auto Charge = [&]() {
    int64_t Rows = 0;
    int64_t MaxG = 0;
    for (const ZonoState &St : States) {
      MaxG = std::max(MaxG, St.Gens.dim(0));
      Rows += St.Gens.dim(0) + 1;
    }
    Result.MaxGenerators = std::max(Result.MaxGenerators, MaxG);
    const bool Ok = Memory.chargeState(Rows, CurShape.numel());
    Result.PeakBytes = Memory.peakBytes();
    return Ok;
  };
  if (!Charge())
    return false;
  for (const Layer *L : Layers) {
    if (L->isAffine()) {
      applyAffineToStates(L, CurShape, States);
      CurShape = L->outputShape(CurShape);
    } else {
      for (ZonoState &St : States)
        applyReluToState(Kind, St);
    }
    if (!Charge())
      return false;
  }
  return true;
}

/// Propagate one segment (the batch-of-one special case; identical
/// charges, identical kernel calls). Returns false on OOM.
bool propagateZonotope(const std::vector<const Layer *> &Layers,
                       const Shape &InputShape, const Tensor &Start,
                       const Tensor &End, ZonotopeKind Kind,
                       DeviceMemoryModel &Memory, ZonoState &St,
                       ConvexResult &Result) {
  std::vector<ZonoState> States;
  States.push_back(initState(Start, End));
  if (!propagateZonotopeBatch(Layers, InputShape, Kind, Memory, States,
                              Result))
    return false;
  St = std::move(States.front());
  return true;
}

/// Spec tests on a zonotope: min/max of each halfspace functional, with
/// directed rounding (and the slack term) when sound rounding is on.
ProbBounds liftedBounds(const ZonoState &St, const OutputSpec &Spec) {
  const bool Sound = soundRoundingEnabled();
  bool Contained = true;
  bool Intersects = true;
  for (const auto &H : Spec.halfspaces()) {
    if (!Sound) {
      double Mid = H.Offset;
      for (int64_t J = 0; J < H.Normal.numel(); ++J)
        Mid += H.Normal[J] * St.Center[J];
      double Spread = 0.0;
      for (int64_t G = 0; G < St.Gens.dim(0); ++G) {
        double Dot = 0.0;
        for (int64_t J = 0; J < St.Gens.dim(1); ++J)
          Dot += H.Normal[J] * St.Gens.at(G, J);
        Spread += std::fabs(Dot);
      }
      if (!(Mid - Spread > 0.0)) // NaN never certifies containment
        Contained = false;
      if (Mid + Spread <= 0.0)
        Intersects = false;
      continue;
    }
    // Directed enclosure [MidLo, MidHi] of the center functional, plus an
    // upper bound on the spread (per-row dot enclosures and the slack).
    double MidLo = H.Offset, MidHi = H.Offset;
    double SpreadUp = 0.0;
    for (int64_t J = 0; J < H.Normal.numel(); ++J) {
      MidLo = fp::addDown(MidLo, fp::mulDown(H.Normal[J], St.Center[J]));
      MidHi = fp::addUp(MidHi, fp::mulUp(H.Normal[J], St.Center[J]));
      SpreadUp = fp::addUp(SpreadUp,
                           fp::mulUp(std::fabs(H.Normal[J]), St.Slack[J]));
    }
    for (int64_t G = 0; G < St.Gens.dim(0); ++G) {
      double DotLo = 0.0, DotHi = 0.0;
      for (int64_t J = 0; J < St.Gens.dim(1); ++J) {
        DotLo = fp::addDown(DotLo, fp::mulDown(H.Normal[J], St.Gens.at(G, J)));
        DotHi = fp::addUp(DotHi, fp::mulUp(H.Normal[J], St.Gens.at(G, J)));
      }
      SpreadUp = fp::addUp(SpreadUp, std::max(std::fabs(DotLo),
                                              std::fabs(DotHi)));
    }
    if (!(fp::subDown(MidLo, SpreadUp) > 0.0))
      Contained = false;
    if (fp::addUp(MidHi, SpreadUp) <= 0.0)
      Intersects = false;
  }
  if (Contained)
    return {1.0, 1.0, false};
  if (!Intersects)
    return {0.0, 0.0, false};
  return {0.0, 1.0, false};
}

} // namespace

std::vector<ConvexResult>
analyzeZonotopeMulti(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, const std::vector<OutputSpec> &Specs,
                     ZonotopeKind Kind, DeviceMemoryModel &Memory) {
  ConvexResult Result;
  ZonoState St;
  if (!propagateZonotope(Layers, InputShape, Start, End, Kind, Memory, St,
                         Result)) {
    Result.Bounds = {0.0, 1.0, true};
    return std::vector<ConvexResult>(Specs.size(), Result);
  }
  std::vector<ConvexResult> Results;
  Results.reserve(Specs.size());
  for (const OutputSpec &Spec : Specs) {
    ConvexResult PerSpec = Result;
    PerSpec.Bounds = liftedBounds(St, Spec);
    Results.push_back(std::move(PerSpec));
  }
  return Results;
}

std::vector<std::vector<ConvexResult>>
analyzeZonotopeBatch(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape,
                     const std::vector<std::pair<Tensor, Tensor>> &Segments,
                     const std::vector<OutputSpec> &Specs, ZonotopeKind Kind,
                     DeviceMemoryModel &Memory) {
  const size_t K = Segments.size();
  std::vector<std::vector<ConvexResult>> Out(K);
  if (K == 0)
    return Out;
  ConvexResult Joint;
  std::vector<ZonoState> States;
  States.reserve(K);
  for (const auto &Seg : Segments)
    States.push_back(initState(Seg.first, Seg.second));
  if (!propagateZonotopeBatch(Layers, InputShape, Kind, Memory, States,
                              Joint)) {
    // The joint state blew the budget: fall back to sequential
    // per-segment analyses, which see exactly what a caller-side loop
    // would (each segment charges the device on its own).
    for (size_t I = 0; I < K; ++I)
      Out[I] = analyzeZonotopeMulti(Layers, InputShape, Segments[I].first,
                                    Segments[I].second, Specs, Kind, Memory);
    return Out;
  }
  for (size_t I = 0; I < K; ++I) {
    Out[I].reserve(Specs.size());
    for (const OutputSpec &Spec : Specs) {
      ConvexResult PerSpec = Joint;
      PerSpec.Bounds = liftedBounds(States[I], Spec);
      Out[I].push_back(std::move(PerSpec));
    }
  }
  return Out;
}

ConvexResult analyzeZonotope(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &Start,
                             const Tensor &End, const OutputSpec &Spec,
                             ZonotopeKind Kind, DeviceMemoryModel &Memory) {
  return analyzeZonotopeMulti(Layers, InputShape, Start, End, {Spec}, Kind,
                              Memory)
      .front();
}

ZonotopeOutputBounds
zonotopeOutputBounds(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, ZonotopeKind Kind,
                     DeviceMemoryModel &Memory) {
  ZonotopeOutputBounds Out;
  ConvexResult Result;
  ZonoState St;
  if (!propagateZonotope(Layers, InputShape, Start, End, Kind, Memory, St,
                         Result)) {
    Out.OutOfMemory = true;
    return Out;
  }
  const int64_t N = St.Center.numel();
  Out.Lo = Tensor({1, N});
  Out.Hi = Tensor({1, N});
  for (int64_t J = 0; J < N; ++J) {
    double Spread = St.Slack[J];
    for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row)
      Spread = fp::addUp(Spread, std::fabs(St.Gens.at(Row, J)));
    Out.Lo[J] = fp::subDown(St.Center[J], Spread);
    Out.Hi[J] = fp::addUp(St.Center[J], Spread);
  }
  return Out;
}

std::vector<ScreenVerdict>
screenPieces(const std::vector<const Layer *> &Layers, const Shape &InputShape,
             const std::vector<Region> &Pieces, const OutputSpec &Spec) {
  std::vector<ScreenVerdict> Verdicts(Pieces.size(),
                                      ScreenVerdict::Borderline);
  std::vector<ZonoState> States;
  States.reserve(Pieces.size());
  for (const Region &Piece : Pieces)
    States.push_back(pieceState(Piece));
  DeviceMemoryModel Unbudgeted;
  ConvexResult Telemetry;
  if (States.empty() ||
      !propagateZonotopeBatch(Layers, InputShape, ZonotopeKind::DeepZono,
                              Unbudgeted, States, Telemetry))
    return Verdicts;
  for (size_t I = 0; I < States.size(); ++I) {
    const ProbBounds B = liftedBounds(States[I], Spec);
    if (B.Lower == 1.0)
      Verdicts[I] = ScreenVerdict::Inside;
    else if (B.Upper == 0.0)
      Verdicts[I] = ScreenVerdict::Outside;
  }
  return Verdicts;
}

std::vector<ScreenVerdict>
screenCells(const std::vector<const Layer *> &Layers, const Shape &InputShape,
            const Region &Curve, const std::vector<double> &Cuts,
            const OutputSpec &Spec) {
  check(Cuts.size() >= 2, "a cell grid needs at least one cell");
  std::vector<ScreenVerdict> Cells(Cuts.size() - 1,
                                   ScreenVerdict::Borderline);
  // Cell index ranges [first, second) still to classify, coarsest first.
  std::vector<std::pair<size_t, size_t>> Ranges{{0, Cells.size()}};
  while (!Ranges.empty()) {
    std::vector<Region> Pieces;
    Pieces.reserve(Ranges.size());
    for (const auto &[A, B] : Ranges)
      Pieces.push_back(restrictCurve(Curve, Cuts[A], Cuts[B], 1.0));
    const std::vector<ScreenVerdict> Verdicts =
        screenPieces(Layers, InputShape, Pieces, Spec);
    std::vector<std::pair<size_t, size_t>> Next;
    for (size_t I = 0; I < Ranges.size(); ++I) {
      const auto [A, B] = Ranges[I];
      if (Verdicts[I] != ScreenVerdict::Borderline) {
        std::fill(Cells.begin() + static_cast<std::ptrdiff_t>(A),
                  Cells.begin() + static_cast<std::ptrdiff_t>(B), Verdicts[I]);
      } else if (B - A > 1) {
        const size_t Mid = A + (B - A) / 2;
        Next.emplace_back(A, Mid);
        Next.emplace_back(Mid, B);
      }
    }
    Ranges = std::move(Next);
  }
  return Cells;
}

} // namespace genprove
