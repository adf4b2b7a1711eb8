//===- core/genprove.cpp --------------------------------------*- C++ -*-===//

#include "src/core/genprove.h"

#include "src/domains/prop_cache.h"
#include "src/domains/zonotope.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"
#include "src/util/fp.h"
#include "src/util/hash.h"
#include "src/util/timer.h"

#include <algorithm>

namespace genprove {

PropagateConfig GenProve::basePropConfig(double P, double K) const {
  PropagateConfig PropConfig;
  PropConfig.Relax.RelaxPercent = P;
  PropConfig.Relax.ClusterK = K;
  PropConfig.Relax.NodeThreshold = Config.NodeThreshold;
  PropConfig.EnableRelax = P > 0.0;
  PropConfig.Cdf = makeCdf(Config.Distribution);
  PropConfig.Resilience = Config.Resilience;
  if (Config.UseCache) {
    PropConfig.Cache = &PropagationCache::global();
    // Caller tag: the abstract-domain identity plus the distribution
    // behind the (unhashable) Cdf closure.
    uint64_t Tag = hashing::hashString(hashing::FnvOffset, "genprove.union");
    Tag = hashing::hashU64(Tag, static_cast<uint64_t>(Config.Distribution));
    PropConfig.CacheSalt = cacheSaltForConfig(PropConfig, Tag);
  }
  return PropConfig;
}

PropagatedState GenProve::propagateWithSchedule(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const std::vector<Region> &Initial) const {
  GENPROVE_SPAN("propagate_with_schedule");
  static Counter &RetriesCtr =
      MetricsRegistry::global().counter("refine.retries");
  Timer Clock;
  double P = Config.RelaxPercent;
  double K = Config.ClusterK;

  PropagatedState State;
  for (int64_t Attempt = 0;; ++Attempt) {
    GENPROVE_SPAN("attempt");
    DeviceMemoryModel Memory(Config.MemoryBudgetBytes);
    const PropagateConfig PropConfig = basePropConfig(P, K);

    PropagateStats Stats;
    std::vector<Region> Final = propagateRegions(
        Layers, InputShape, Initial, PropConfig, Memory, Stats);

    State.Stats = Stats;
    State.PeakBytes = std::max(State.PeakBytes, Memory.peakBytes());
    State.OutOfMemory = Stats.OutOfMemory;
    State.Degraded = Stats.Degraded;
    State.Retries = Attempt;
    State.UsedRelaxPercent = P;
    State.UsedClusterK = K;
    State.Cdf = PropConfig.Cdf;
    if (!Stats.OutOfMemory) {
      State.Regions = std::move(Final);
      break;
    }
    if (Config.Schedule == RefinementSchedule::None ||
        Attempt >= Config.MaxRetries)
      break;
    // Appendix C: try a less precise approximation.
    const double Factor = Config.Schedule == RefinementSchedule::A ? 1.5 : 3.0;
    P = P <= 0.0 ? 0.005 : std::min(Factor * P, 1.0);
    K = std::max(0.95 * K, 5.0);
  }
  RetriesCtr.add(State.Retries);
  State.Seconds = Clock.seconds();
  return State;
}

PropagatedState
GenProve::propagateSegment(const std::vector<const Layer *> &Layers,
                           const Shape &InputShape, const Tensor &Start,
                           const Tensor &End) const {
  const Region Full = makeSegmentRegion(Start.reshaped({1, Start.numel()}),
                                        End.reshaped({1, End.numel()}));
  const std::vector<double> Cuts = planRange(0.0, 1.0, Config.InputSplits);
  if (Cuts.size() == 2)
    return propagateWithSchedule(Layers, InputShape, {Full});

  // Section 5.2: verify parameter sub-ranges sequentially and merge. The
  // peak memory of the merged analysis is the max over the parts (each
  // part releases its working set before the next starts); the runtime is
  // the sum.
  PropagatedState Merged;
  const ParamCdf Cdf = makeCdf(Config.Distribution);
  Merged.Cdf = Cdf;
  for (size_t I = 0; I + 1 < Cuts.size(); ++I) {
    const double T0 = Cuts[I], T1 = Cuts[I + 1];
    PropagatedState Part = propagateWithSchedule(
        Layers, InputShape, {restrictCurve(Full, T0, T1, Cdf(T1) - Cdf(T0))});
    Merged.Seconds += Part.Seconds;
    Merged.PeakBytes = std::max(Merged.PeakBytes, Part.PeakBytes);
    Merged.Retries = std::max(Merged.Retries, Part.Retries);
    Merged.Stats.MaxRegions =
        std::max(Merged.Stats.MaxRegions, Part.Stats.MaxRegions);
    Merged.Stats.MaxNodes =
        std::max(Merged.Stats.MaxNodes, Part.Stats.MaxNodes);
    Merged.Stats.NumSplits += Part.Stats.NumSplits;
    Merged.Stats.NumBoxed += Part.Stats.NumBoxed;
    // Degradation of any part degrades (but does not fail) the merge.
    Merged.Degraded |= Part.Degraded;
    Merged.Stats.Degraded |= Part.Stats.Degraded;
    Merged.Stats.DeadlineHit |= Part.Stats.DeadlineHit;
    if (static_cast<uint8_t>(Part.Stats.Rung) >
        static_cast<uint8_t>(Merged.Stats.Rung))
      Merged.Stats.Rung = Part.Stats.Rung;
    Merged.Stats.Rollbacks += Part.Stats.Rollbacks;
    Merged.Stats.FallbackBoxLayers += Part.Stats.FallbackBoxLayers;
    Merged.Stats.QuarantinedRegions += Part.Stats.QuarantinedRegions;
    Merged.Stats.QuarantinedMass += Part.Stats.QuarantinedMass;
    // Merge the per-layer timelines: the parts run the same pipeline, so
    // add the flows, sum the times, and keep the per-layer charge maxima
    // (each part releases its state before the next starts).
    if (Merged.Stats.Layers.empty()) {
      Merged.Stats.Layers = Part.Stats.Layers;
    } else {
      const size_t Common =
          std::min(Merged.Stats.Layers.size(), Part.Stats.Layers.size());
      for (size_t L = 0; L < Common; ++L) {
        LayerRecord &Into = Merged.Stats.Layers[L];
        const LayerRecord &From = Part.Stats.Layers[L];
        Into.RegionsIn += From.RegionsIn;
        Into.RegionsOut += From.RegionsOut;
        Into.NodesIn += From.NodesIn;
        Into.NodesOut += From.NodesOut;
        Into.Splits += From.Splits;
        Into.Boxed += From.Boxed;
        Into.ChargedBytes = std::max(Into.ChargedBytes, From.ChargedBytes);
        Into.Seconds += From.Seconds;
      }
    }
    if (Part.Stats.OomLayer >= 0)
      Merged.Stats.OomLayer = Part.Stats.OomLayer;
    Merged.UsedRelaxPercent = Part.UsedRelaxPercent;
    Merged.UsedClusterK = Part.UsedClusterK;
    if (Part.OutOfMemory) {
      Merged.OutOfMemory = true;
      Merged.Regions.clear();
      return Merged;
    }
    for (auto &R : Part.Regions)
      Merged.Regions.push_back(std::move(R));
  }
  return Merged;
}

std::vector<PropagatedState> GenProve::propagateSegmentsBatch(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const std::vector<std::pair<Tensor, Tensor>> &Segments) const {
  GENPROVE_SPAN("propagate_batch");
  static Counter &BatchedCtr =
      MetricsRegistry::global().counter("batch.propagations");
  static Counter &BatchedQueriesCtr =
      MetricsRegistry::global().counter("batch.queries");
  static Counter &BatchFallbackCtr =
      MetricsRegistry::global().counter("batch.sequential_fallbacks");

  const size_t K = Segments.size();
  std::vector<PropagatedState> Out(K);
  const auto Sequential = [&] {
    for (size_t I = 0; I < K; ++I)
      Out[I] = propagateSegment(Layers, InputShape, Segments[I].first,
                                Segments[I].second);
  };

  // Batching is only sound-and-identical when nothing couples queries:
  // input splitting re-parameterizes, resilient degradation merges boxes
  // across the whole state, and the refinement schedule reacts to the
  // *joint* OOM. Any of those => per-query propagation.
  const bool Batchable = K > 1 && Config.InputSplits <= 1 &&
                         !Config.Resilience.Enabled &&
                         Config.Schedule == RefinementSchedule::None;
  if (!Batchable) {
    Sequential();
    return Out;
  }

  // Per-query cache routing: a member whose solo key chain has a
  // full-depth entry skips the joint run entirely — its propagateSegment
  // call warm-starts past the whole pipeline, bit-identical by the cache
  // contract. The cold members form the (smaller) joint batch, whose
  // final state the engine stores back per query, so repeats hit no
  // matter how the batches around them were composed.
  static Counter &BatchWarmCtr =
      MetricsRegistry::global().counter("batch.cache_warm_queries");
  std::vector<char> WarmHit(K, 0);
  PropagationCache &Cache = PropagationCache::global();
  if (Config.UseCache && Cache.enabled()) {
    const PropagateConfig PC =
        basePropConfig(Config.RelaxPercent, Config.ClusterK);
    int64_t NumWarm = 0;
    for (size_t I = 0; I < K; ++I) {
      std::vector<Region> SoloInit;
      SoloInit.push_back(makeSegmentRegion(
          Segments[I].first.reshaped({1, Segments[I].first.numel()}),
          Segments[I].second.reshaped({1, Segments[I].second.numel()})));
      const std::vector<uint64_t> SoloChain = PropagationCache::chainKeys(
          PC.CacheSalt, InputShape, SoloInit, Layers);
      if (Cache.peekDepth(SoloChain) == Layers.size()) {
        WarmHit[I] = 1;
        ++NumWarm;
      }
    }
    if (NumWarm > 0)
      BatchWarmCtr.add(NumWarm);
  }

  std::vector<Region> Initial;
  std::vector<size_t> ColdIdx;
  Initial.reserve(K);
  for (size_t I = 0; I < K; ++I) {
    if (WarmHit[I]) {
      Out[I] = propagateSegment(Layers, InputShape, Segments[I].first,
                                Segments[I].second);
      continue;
    }
    const Tensor A = Segments[I].first.reshaped(
        {1, Segments[I].first.numel()});
    const Tensor B = Segments[I].second.reshaped(
        {1, Segments[I].second.numel()});
    Region R = makeSegmentRegion(A, B);
    R.Query = static_cast<int32_t>(I);
    Initial.push_back(std::move(R));
    ColdIdx.push_back(I);
  }
  if (ColdIdx.empty())
    return Out;
  if (ColdIdx.size() == 1) {
    const size_t I = ColdIdx.front();
    Out[I] = propagateSegment(Layers, InputShape, Segments[I].first,
                              Segments[I].second);
    return Out;
  }

  PropagatedState Joint = propagateWithSchedule(Layers, InputShape, Initial);
  if (Joint.OutOfMemory) {
    // The joint state blew the device budget. A sequential run gives each
    // query the budget to itself, so fall back — the per-query bounds are
    // then the unbatched path's by construction.
    BatchFallbackCtr.add(1);
    Sequential();
    return Out;
  }
  BatchedCtr.add(1);
  BatchedQueriesCtr.add(static_cast<int64_t>(ColdIdx.size()));

  // Split the joint state per query (warm-routed members already hold
  // their solo results). Region order within a query is the order a
  // sequential run produces; the tag is reset so the split states are
  // byte-identical to single-query ones.
  for (const size_t I : ColdIdx) {
    Out[I].Stats = Joint.Stats; // incl. the joint run's layer timeline
    Out[I].PeakBytes = Joint.PeakBytes;
    Out[I].Seconds = Joint.Seconds;
    Out[I].Retries = Joint.Retries;
    Out[I].UsedRelaxPercent = Joint.UsedRelaxPercent;
    Out[I].UsedClusterK = Joint.UsedClusterK;
    Out[I].Cdf = Joint.Cdf;
    Out[I].Degraded = Joint.Degraded;
  }
  for (Region &R : Joint.Regions) {
    const size_t I = static_cast<size_t>(R.Query);
    check(I < K, "batched propagation produced an unknown query tag");
    R.Query = 0;
    Out[I].Regions.push_back(std::move(R));
  }
  return Out;
}

PropagatedState
GenProve::propagateChain(const std::vector<const Layer *> &Layers,
                         const Shape &InputShape,
                         const std::vector<Tensor> &Waypoints) const {
  check(Waypoints.size() >= 2, "a chain needs at least two waypoints");
  const ParamCdf Cdf = makeCdf(Config.Distribution);
  const std::vector<double> Cuts = planRange(
      0.0, 1.0, static_cast<int64_t>(Waypoints.size()) - 1);
  std::vector<Region> Initial;
  Initial.reserve(Cuts.size() - 1);
  for (size_t I = 0; I + 1 < Cuts.size(); ++I) {
    const double T0 = Cuts[I], T1 = Cuts[I + 1];
    const Tensor &A = Waypoints[I];
    const Tensor &B = Waypoints[I + 1];
    Initial.push_back(makeSegmentRegion(A.reshaped({1, A.numel()}),
                                        B.reshaped({1, B.numel()}),
                                        Cdf(T1) - Cdf(T0), T0, T1));
  }
  return propagateWithSchedule(Layers, InputShape, Initial);
}

PropagatedState
GenProve::propagateQuadratic(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &A0,
                             const Tensor &A1, const Tensor &A2) const {
  std::vector<Region> Initial;
  Initial.push_back(makeQuadraticRegion(A0.reshaped({1, A0.numel()}),
                                        A1.reshaped({1, A1.numel()}),
                                        A2.reshaped({1, A2.numel()})));
  return propagateWithSchedule(Layers, InputShape, Initial);
}

PropagatedState GenProve::propagateRegionsFrom(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    std::vector<Region> Initial) const {
  return propagateWithSchedule(Layers, InputShape, Initial);
}

namespace {

/// Probabilistic bounds of a propagated state that did not run out of
/// memory, before any deterministic collapse.
ProbBounds stateBounds(const PropagatedState &State, const OutputSpec &Spec) {
  ProbBounds Bounds = computeProbBounds(State.Regions, Spec, State.Cdf);
  // Quarantined (non-finite) regions could have landed anywhere, so their
  // mass must be added to the upper bound; the lower bound, computed from
  // the surviving mass only, is already sound.
  if (State.Stats.QuarantinedMass > 0.0) {
    const double Raised =
        soundRoundingEnabled()
            ? fp::addUp(Bounds.Upper, State.Stats.QuarantinedMass)
            : Bounds.Upper + State.Stats.QuarantinedMass;
    Bounds.Upper = std::min(1.0, Raised);
  }
  Bounds.Degraded = State.Degraded;
  return Bounds;
}

/// Project a propagated state (minus its regions) onto a result.
AnalysisResult resultFromState(const PropagatedState &State,
                               ProbBounds Bounds) {
  AnalysisResult Result;
  Result.Bounds = Bounds;
  Result.PeakBytes = State.PeakBytes;
  Result.Seconds = State.Seconds;
  Result.OutOfMemory = State.OutOfMemory;
  Result.MaxRegions = State.Stats.MaxRegions;
  Result.MaxNodes = State.Stats.MaxNodes;
  Result.Retries = State.Retries;
  Result.UsedRelaxPercent = State.UsedRelaxPercent;
  Result.UsedClusterK = State.UsedClusterK;
  Result.Degraded = State.Degraded;
  Result.Rung = State.Stats.Rung;
  Result.Rollbacks = State.Stats.Rollbacks;
  Result.FallbackBoxLayers = State.Stats.FallbackBoxLayers;
  Result.DeadlineHit = State.Stats.DeadlineHit;
  Result.QuarantinedMass = State.Stats.QuarantinedMass;
  Result.Layers = State.Stats.Layers;
  return Result;
}

} // namespace

ProbBounds GenProve::boundsFor(const PropagatedState &State,
                               const OutputSpec &Spec) const {
  if (State.OutOfMemory)
    return {0.0, 1.0, true, State.Degraded};
  const ProbBounds Bounds = stateBounds(State, Spec);
  return Config.Mode == AnalysisMode::Deterministic ? Bounds.deterministic()
                                                    : Bounds;
}

AnalysisResult
GenProve::analyzeSegment(const std::vector<const Layer *> &Layers,
                         const Shape &InputShape, const Tensor &Start,
                         const Tensor &End, const OutputSpec &Spec) const {
  if (Config.FastScreen)
    return analyzeSegmentScreened(Layers, InputShape, Start, End, Spec, 0.0,
                                  1.0);
  const PropagatedState State =
      propagateSegment(Layers, InputShape, Start, End);
  return resultFromState(State, boundsFor(State, Spec));
}

AnalysisResult GenProve::analyzeSegmentScreened(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const Tensor &Start, const Tensor &End, const OutputSpec &Spec,
    double T0, double T1) const {
  GENPROVE_SPAN("analyze_screened");
  static Counter &InsideCtr =
      MetricsRegistry::global().counter("screen.inside_pieces");
  static Counter &OutsideCtr =
      MetricsRegistry::global().counter("screen.outside_pieces");
  static Counter &BorderCtr =
      MetricsRegistry::global().counter("screen.borderline_pieces");
  Timer Clock;

  const Region Full = makeSegmentRegion(Start.reshaped({1, Start.numel()}),
                                        End.reshaped({1, End.numel()}));
  const ParamCdf Cdf = makeCdf(Config.Distribution);
  const std::vector<double> Cuts = planRange(T0, T1, Config.ScreenSplits);
  const bool Sound = soundRoundingEnabled();

  // Screening tier: DeepZono classifies the cells of [T0, T1] coarse to
  // fine. An inside cell is a part of the union whose bounds are its CDF
  // mass (rounded down for the lower bound, up for the upper when sound
  // rounding is on); outside cells contribute nothing; borderline cells
  // collect into ONE batched propagation, whose regions keep their global
  // parameter sub-ranges so the full tier's exact curve-mass machinery
  // applies unchanged.
  const std::vector<ScreenVerdict> Cells =
      screenCells(Layers, InputShape, Full, Cuts, Spec);
  int64_t NumInside = 0, NumOutside = 0;
  double BorderMassUp = 0.0;
  std::vector<ProbBounds> Parts;
  std::vector<Region> Border;
  for (size_t I = 0; I + 1 < Cuts.size(); ++I) {
    const double P0 = Cuts[I], P1 = Cuts[I + 1];
    const double Weight =
        Sound ? fp::subUp(Cdf(P1), Cdf(P0)) : Cdf(P1) - Cdf(P0);
    switch (Cells[I]) {
    case ScreenVerdict::Inside:
      ++NumInside;
      Parts.push_back(
          {Sound ? fp::subDown(Cdf(P1), Cdf(P0)) : Weight, Weight});
      break;
    case ScreenVerdict::Outside:
      ++NumOutside;
      break;
    case ScreenVerdict::Borderline:
      BorderMassUp =
          Sound ? fp::addUp(BorderMassUp, Weight) : BorderMassUp + Weight;
      Border.push_back(restrictCurve(Full, P0, P1, Weight));
      break;
    }
  }
  const int64_t NumBorder = static_cast<int64_t>(Border.size());
  InsideCtr.add(NumInside);
  OutsideCtr.add(NumOutside);
  BorderCtr.add(NumBorder);

  // Full tier: one batched propagation of every borderline cell. When
  // the borderline set cannot be analyzed its mass stays fully uncertain,
  // but the screened inside mass is still a sound floor.
  AnalysisResult Result;
  if (!Border.empty()) {
    const PropagatedState State =
        propagateWithSchedule(Layers, InputShape, Border);
    Result = resultFromState(State, {});
    Parts.push_back(State.OutOfMemory
                        ? ProbBounds{0.0, BorderMassUp, false, true}
                        : stateBounds(State, Spec));
  }
  ProbBounds Bounds = boundsOfDisjointUnion(Parts);
  if (Config.Mode == AnalysisMode::Deterministic)
    Bounds = Bounds.deterministic();

  Result.Bounds = Bounds;
  Result.Degraded |= Bounds.Degraded;
  Result.Seconds = Clock.seconds();
  Result.Screened = true;
  Result.ScreenedInside = NumInside;
  Result.ScreenedOutside = NumOutside;
  Result.ScreenedBorderline = NumBorder;
  return Result;
}

AnalysisResult
GenProve::analyzeQuadratic(const std::vector<const Layer *> &Layers,
                           const Shape &InputShape, const Tensor &A0,
                           const Tensor &A1, const Tensor &A2,
                           const OutputSpec &Spec) const {
  const PropagatedState State =
      propagateQuadratic(Layers, InputShape, A0, A1, A2);
  return resultFromState(State, boundsFor(State, Spec));
}

Tensor forwardConcretePoints(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &Points) {
  std::vector<int64_t> Dims = InputShape.dims();
  Dims[0] = Points.dim(0);
  Tensor Acts = Points.reshaped(Shape(Dims));
  for (const Layer *L : Layers) {
    if (L->isAffine()) {
      Acts = L->applyAffine(Acts);
    } else {
      Acts = relu(Acts);
    }
  }
  const int64_t B = Acts.dim(0);
  return Acts.reshaped({B, Acts.numel() / std::max<int64_t>(B, 1)});
}

} // namespace genprove
