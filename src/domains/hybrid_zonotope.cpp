//===- domains/hybrid_zonotope.cpp ----------------------------*- C++ -*-===//

#include "src/domains/hybrid_zonotope.h"

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

struct HybridState {
  Tensor Center; ///< [1, N]
  Tensor Gens;   ///< [G, N] (fixed row count)
  Tensor Slack;  ///< [1, N] per-dimension box error
};

HybridState initHybridState(const Tensor &Start, const Tensor &End) {
  const bool Sound = soundRoundingEnabled();
  const int64_t N = Start.numel();
  HybridState St{Tensor({1, N}), Tensor({1, N}), Tensor({1, N})};
  for (int64_t J = 0; J < N; ++J) {
    St.Center[J] = 0.5 * (Start[J] + End[J]);
    St.Gens.at(0, J) = 0.5 * (End[J] - Start[J]);
    if (Sound)
      // Rounded endpoint representation + double-evaluated segment points.
      St.Slack[J] = fp::mulUp(
          8.0 * DBL_EPSILON,
          fp::addUp(std::fabs(Start[J]), std::fabs(End[J])));
  }
  return St;
}

/// One affine layer on any number of per-query states at once: all
/// center/slack rows (and in sound mode the magnitude rows) flow through
/// single stacked applyToBox calls, all generator rows through one
/// applyLinear. Every kernel is row-independent, so each state's rows are
/// bit-identical to a one-state call.
void applyAffineToStates(const Layer *L, const Shape &CurShape,
                         std::vector<HybridState> &States) {
  const bool Sound = soundRoundingEnabled();
  const int64_t K = static_cast<int64_t>(States.size());
  const int64_t N = States.front().Center.numel();

  Tensor Centers({K, N});
  Tensor Slacks({K, N});
  for (int64_t I = 0; I < K; ++I) {
    std::copy(States[I].Center.data(), States[I].Center.data() + N,
              Centers.data() + I * N);
    std::copy(States[I].Slack.data(), States[I].Slack.data() + N,
              Slacks.data() + I * N);
  }
  int64_t SumG = 0;
  for (const HybridState &St : States)
    SumG += St.Gens.dim(0);
  Tensor AllGens({SumG, N});
  {
    int64_t Row = 0;
    for (const HybridState &St : States) {
      std::copy(St.Gens.data(), St.Gens.data() + St.Gens.numel(),
                AllGens.data() + Row * N);
      Row += St.Gens.dim(0);
    }
  }

  // Sound mode: bound |x| <= |c| + slack + sum|g| before the map, so the
  // rounding error of every round-to-nearest kernel below can be charged
  // to the slack afterward.
  Tensor Mags, BiasImages;
  if (Sound) {
    Mags = Tensor({K, N});
    for (int64_t I = 0; I < K; ++I) {
      const HybridState &St = States[I];
      for (int64_t J = 0; J < N; ++J) {
        double Acc = fp::addUp(std::fabs(St.Center[J]), St.Slack[J]);
        for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row)
          Acc = fp::addUp(Acc, std::fabs(St.Gens.at(Row, J)));
        Mags.at(I, J) = Acc;
      }
    }
  }

  if (Sound) {
    BiasImages = Tensor({K, N});
    Tensor BiasActs = reshapeRows(BiasImages, CurShape);
    Tensor MagActs = reshapeRows(Mags, CurShape);
    L->applyToBox(BiasActs, MagActs);
    BiasImages = flattenRows(BiasActs);
    Mags = flattenRows(MagActs);
  }

  // Slack propagates like a box radius; applyToBox maps the centers too.
  {
    Tensor CenterActs = reshapeRows(Centers, CurShape);
    Tensor SlackActs = reshapeRows(Slacks, CurShape);
    L->applyToBox(CenterActs, SlackActs);
    Centers = flattenRows(CenterActs);
    Slacks = flattenRows(SlackActs);
  }
  AllGens = flattenRows(L->applyLinear(reshapeRows(AllGens, CurShape)));

  const double Gamma =
      Sound ? fp::accumulationBound(L->accumulationDepth()) : 0.0;
  const int64_t OutN = Centers.dim(1);
  int64_t Row = 0;
  for (int64_t I = 0; I < K; ++I) {
    HybridState &St = States[I];
    const int64_t G = St.Gens.dim(0);
    Tensor NewCenter({1, OutN});
    std::copy(Centers.data() + I * OutN, Centers.data() + (I + 1) * OutN,
              NewCenter.data());
    Tensor NewSlack({1, OutN});
    std::copy(Slacks.data() + I * OutN, Slacks.data() + (I + 1) * OutN,
              NewSlack.data());
    Tensor NewGens({G, OutN});
    std::copy(AllGens.data() + Row * OutN, AllGens.data() + (Row + G) * OutN,
              NewGens.data());
    Row += G;
    if (Sound)
      for (int64_t J = 0; J < OutN; ++J)
        NewSlack[J] = fp::addUp(
            NewSlack[J],
            fp::mulUp(Gamma,
                      fp::addUp(Mags.at(I, J),
                                std::fabs(BiasImages.at(I, J)))));
    St.Center = std::move(NewCenter);
    St.Slack = std::move(NewSlack);
    St.Gens = std::move(NewGens);
  }
}

/// The hybrid ReLU transformer on one state: the fixed generator rows are
/// rescaled and the relaxation error lands in the box slack.
void applyReluToState(HybridState &St) {
  const bool Sound = soundRoundingEnabled();
  const int64_t Dim = St.Center.numel();
  const int64_t G = St.Gens.dim(0);
  for (int64_t J = 0; J < Dim; ++J) {
    double Spread = St.Slack[J];
    for (int64_t Row = 0; Row < G; ++Row) {
      const double A = std::fabs(St.Gens.at(Row, J));
      Spread = Sound ? fp::addUp(Spread, A) : Spread + A;
    }
    const double Lo = Sound ? fp::subDown(St.Center[J], Spread)
                            : St.Center[J] - Spread;
    const double Hi = Sound ? fp::addUp(St.Center[J], Spread)
                            : St.Center[J] + Spread;
    if (Hi <= 0.0) {
      St.Center[J] = 0.0;
      St.Slack[J] = 0.0;
      for (int64_t Row = 0; Row < G; ++Row)
        St.Gens.at(Row, J) = 0.0;
    } else if (Lo < 0.0) {
      const double Lambda = Hi / (Hi - Lo);
      const double Mu = -Lambda * Lo / 2.0;
      if (Sound) {
        // Same argument as the DeepZono transformer: the relaxation
        // with exact lambda*/mu* of this outward [Lo, Hi] is sound,
        // and the few-ULP deviation of the computed lambda/mu plus
        // the rescaling rounding goes into the slack (which also
        // swallows mu itself — that is the hybrid trade).
        const double M = std::max(std::fabs(Lo), Hi);
        const double SumG = fp::subUp(Spread, St.Slack[J]);
        const double Inner = fp::addUp(
            std::fabs(Mu),
            fp::mulUp(Lambda,
                      fp::addUp(M, fp::addUp(std::fabs(St.Center[J]),
                                             SumG))));
        const double LambdaUp =
            fp::mulUp(Lambda, 1.0 + 8.0 * DBL_EPSILON);
        St.Slack[J] =
            fp::addUp(fp::addUp(fp::mulUp(LambdaUp, St.Slack[J]),
                                fp::up(Mu)),
                      fp::mulUp(16.0 * DBL_EPSILON, Inner));
      } else {
        St.Slack[J] = Lambda * St.Slack[J] + Mu;
      }
      St.Center[J] = Lambda * St.Center[J] + Mu;
      for (int64_t Row = 0; Row < G; ++Row)
        St.Gens.at(Row, J) *= Lambda;
    }
  }
}

/// Propagate many segments as one joint state; returns false on OOM. The
/// per-layer device charge is the sum of every state's charge (the joint
/// state is resident at once). Telemetry lands in Result.
bool propagateHybridBatch(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const std::vector<std::pair<Tensor, Tensor>> &Segments,
    DeviceMemoryModel &Memory, std::vector<HybridState> &States,
    ConvexResult &Result) {
  States.clear();
  States.reserve(Segments.size());
  for (const auto &Seg : Segments)
    States.push_back(initHybridState(Seg.first, Seg.second));

  Shape CurShape = InputShape;
  auto Charge = [&]() {
    int64_t Rows = 0;
    int64_t MaxG = 0;
    for (const HybridState &St : States) {
      MaxG = std::max(MaxG, St.Gens.dim(0));
      Rows += St.Gens.dim(0) + 2;
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
      for (HybridState &St : States)
        applyReluToState(St);
    }
    if (!Charge())
      return false;
  }
  return true;
}

/// Propagate one segment (the batch-of-one special case; identical
/// charges, identical kernel calls); returns false on OOM.
bool propagateHybrid(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, DeviceMemoryModel &Memory,
                     HybridState &St, ConvexResult &Result) {
  std::vector<std::pair<Tensor, Tensor>> Segments;
  Segments.emplace_back(Start, End);
  std::vector<HybridState> States;
  if (!propagateHybridBatch(Layers, InputShape, Segments, Memory, States,
                            Result))
    return false;
  St = std::move(States.front());
  return true;
}

/// Spec test on a final hybrid state, including the box slack.
ProbBounds liftedBounds(const HybridState &St, const OutputSpec &Spec) {
  const bool Sound = soundRoundingEnabled();
  bool Contained = true;
  bool Intersects = true;
  for (const auto &H : Spec.halfspaces()) {
    if (!Sound) {
      double Mid = H.Offset;
      double Spread = 0.0;
      for (int64_t J = 0; J < H.Normal.numel(); ++J) {
        Mid += H.Normal[J] * St.Center[J];
        Spread += std::fabs(H.Normal[J]) * St.Slack[J];
      }
      for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row) {
        double Dot = 0.0;
        for (int64_t J = 0; J < St.Gens.dim(1); ++J)
          Dot += H.Normal[J] * St.Gens.at(Row, J);
        Spread += std::fabs(Dot);
      }
      if (Mid - Spread <= 0.0)
        Contained = false;
      if (Mid + Spread <= 0.0)
        Intersects = false;
      continue;
    }
    double MidLo = H.Offset, MidHi = H.Offset;
    double SpreadUp = 0.0;
    for (int64_t J = 0; J < H.Normal.numel(); ++J) {
      MidLo = fp::addDown(MidLo, fp::mulDown(H.Normal[J], St.Center[J]));
      MidHi = fp::addUp(MidHi, fp::mulUp(H.Normal[J], St.Center[J]));
      SpreadUp = fp::addUp(
          SpreadUp, fp::mulUp(std::fabs(H.Normal[J]), St.Slack[J]));
    }
    for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row) {
      double DotLo = 0.0, DotHi = 0.0;
      for (int64_t J = 0; J < St.Gens.dim(1); ++J) {
        DotLo =
            fp::addDown(DotLo, fp::mulDown(H.Normal[J], St.Gens.at(Row, J)));
        DotHi = fp::addUp(DotHi, fp::mulUp(H.Normal[J], St.Gens.at(Row, J)));
      }
      SpreadUp = fp::addUp(SpreadUp,
                           std::max(std::fabs(DotLo), std::fabs(DotHi)));
    }
    if (fp::subDown(MidLo, SpreadUp) <= 0.0)
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

std::vector<ConvexResult> analyzeHybridZonotopeMulti(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const Tensor &Start, const Tensor &End,
    const std::vector<OutputSpec> &Specs, DeviceMemoryModel &Memory) {
  ConvexResult Result;
  HybridState St;
  if (!propagateHybrid(Layers, InputShape, Start, End, Memory, St, Result)) {
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

std::vector<std::vector<ConvexResult>> analyzeHybridZonotopeBatch(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const std::vector<std::pair<Tensor, Tensor>> &Segments,
    const std::vector<OutputSpec> &Specs, DeviceMemoryModel &Memory) {
  const size_t K = Segments.size();
  std::vector<std::vector<ConvexResult>> Out(K);
  if (K == 0)
    return Out;
  ConvexResult Joint;
  std::vector<HybridState> States;
  if (!propagateHybridBatch(Layers, InputShape, Segments, Memory, States,
                            Joint)) {
    // The joint state blew the budget: fall back to sequential
    // per-segment analyses so bounds match a caller-side loop.
    for (size_t I = 0; I < K; ++I)
      Out[I] =
          analyzeHybridZonotopeMulti(Layers, InputShape, Segments[I].first,
                                     Segments[I].second, Specs, Memory);
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

ConvexResult analyzeHybridZonotope(const std::vector<const Layer *> &Layers,
                                   const Shape &InputShape,
                                   const Tensor &Start, const Tensor &End,
                                   const OutputSpec &Spec,
                                   DeviceMemoryModel &Memory) {
  return analyzeHybridZonotopeMulti(Layers, InputShape, Start, End, {Spec},
                                    Memory)
      .front();
}

ZonotopeOutputBounds
hybridZonotopeOutputBounds(const std::vector<const Layer *> &Layers,
                           const Shape &InputShape, const Tensor &Start,
                           const Tensor &End, DeviceMemoryModel &Memory) {
  ZonotopeOutputBounds Out;
  ConvexResult Result;
  HybridState St;
  if (!propagateHybrid(Layers, InputShape, Start, End, Memory, St, Result)) {
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

} // namespace genprove
