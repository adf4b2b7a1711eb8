//===- domains/box_domain.cpp ---------------------------------*- C++ -*-===//

#include "src/domains/box_domain.h"

#include "src/domains/propagate.h"
#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

namespace {

/// The segment's bounding box, padded in sound mode so it also covers any
/// round-to-nearest evaluation of a point on the segment (s + t*(e-s)
/// computed in doubles can overshoot the endpoint hull by a few ULPs).
void segmentBox(const Tensor &Start, const Tensor &End, Tensor &Center,
                Tensor &Radius) {
  const int64_t N = Start.numel();
  Center = Tensor({1, N});
  Radius = Tensor({1, N});
  const bool Sound = soundRoundingEnabled();
  for (int64_t J = 0; J < N; ++J) {
    if (Sound) {
      const Interval Hull{std::min(Start[J], End[J]),
                          std::max(Start[J], End[J])};
      Hull.toCenterRadius(Center[J], Radius[J]);
      const double Pad = fp::mulUp(
          8.0 * DBL_EPSILON,
          fp::addUp(std::fabs(Start[J]), std::fabs(End[J])));
      Radius[J] = fp::addUp(Radius[J], Pad);
    } else {
      Center[J] = 0.5 * (Start[J] + End[J]);
      Radius[J] = 0.5 * std::fabs(End[J] - Start[J]);
    }
  }
}

} // namespace

std::vector<ConvexResult>
analyzeBoxMulti(const std::vector<const Layer *> &Layers,
                const Shape &InputShape, const Tensor &Start,
                const Tensor &End, const std::vector<OutputSpec> &Specs,
                DeviceMemoryModel &Memory) {
  Tensor Center, Radius;
  segmentBox(Start, End, Center, Radius);
  std::vector<Region> Init;
  Init.push_back(makeBoxRegion(Center, Radius, 1.0));

  PropagateConfig Config;
  Config.EnableRelax = false;
  PropagateStats Stats;
  const std::vector<Region> Final =
      propagateRegions(Layers, InputShape, std::move(Init), Config, Memory,
                       Stats);

  ConvexResult Result;
  Result.PeakBytes = Memory.peakBytes();
  Result.MaxGenerators = 0;
  std::vector<ConvexResult> Results;
  Results.reserve(Specs.size());
  for (const OutputSpec &Spec : Specs) {
    ConvexResult PerSpec = Result;
    if (Stats.OutOfMemory) {
      PerSpec.Bounds = {0.0, 1.0, true};
    } else {
      // Lifted convex semantics: only certain containment / disjointness.
      PerSpec.Bounds = computeProbBounds(Final, Spec).deterministic();
    }
    Results.push_back(std::move(PerSpec));
  }
  return Results;
}

std::vector<std::vector<ConvexResult>>
analyzeBoxBatch(const std::vector<const Layer *> &Layers,
                const Shape &InputShape,
                const std::vector<std::pair<Tensor, Tensor>> &Segments,
                const std::vector<OutputSpec> &Specs,
                DeviceMemoryModel &Memory) {
  const size_t K = Segments.size();
  std::vector<std::vector<ConvexResult>> Out(K);
  if (K == 0)
    return Out;

  // Every segment's box flows through one Query-tagged propagation; the
  // engine transforms each region independently (interval arithmetic is
  // per box), so per-query results are bit-identical to lone runs.
  std::vector<Region> Init;
  Init.reserve(K);
  for (size_t I = 0; I < K; ++I) {
    Tensor Center, Radius;
    segmentBox(Segments[I].first, Segments[I].second, Center, Radius);
    Region R = makeBoxRegion(Center, Radius, 1.0);
    R.Query = static_cast<int32_t>(I);
    Init.push_back(std::move(R));
  }

  PropagateConfig Config;
  Config.EnableRelax = false;
  PropagateStats Stats;
  std::vector<Region> Final =
      propagateRegions(Layers, InputShape, std::move(Init), Config, Memory,
                       Stats);

  if (Stats.OutOfMemory) {
    // The joint state blew the budget: fall back to sequential
    // per-segment analyses so bounds match a caller-side loop.
    for (size_t I = 0; I < K; ++I)
      Out[I] = analyzeBoxMulti(Layers, InputShape, Segments[I].first,
                               Segments[I].second, Specs, Memory);
    return Out;
  }

  std::vector<std::vector<Region>> PerQuery(K);
  for (Region &R : Final) {
    const size_t I = static_cast<size_t>(R.Query);
    R.Query = 0;
    PerQuery[I].push_back(std::move(R));
  }

  ConvexResult Base;
  Base.PeakBytes = Memory.peakBytes();
  Base.MaxGenerators = 0;
  for (size_t I = 0; I < K; ++I) {
    Out[I].reserve(Specs.size());
    for (const OutputSpec &Spec : Specs) {
      ConvexResult PerSpec = Base;
      PerSpec.Bounds = computeProbBounds(PerQuery[I], Spec).deterministic();
      Out[I].push_back(std::move(PerSpec));
    }
  }
  return Out;
}

ConvexResult analyzeBox(const std::vector<const Layer *> &Layers,
                        const Shape &InputShape, const Tensor &Start,
                        const Tensor &End, const OutputSpec &Spec,
                        DeviceMemoryModel &Memory) {
  return analyzeBoxMulti(Layers, InputShape, Start, End, {Spec}, Memory)
      .front();
}

} // namespace genprove
