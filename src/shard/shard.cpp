//===- shard/shard.cpp ----------------------------------------*- C++ -*-===//

#include "src/shard/shard.h"

#include "src/shard/supervisor.h"

#include <algorithm>

namespace genprove {

MergedCertificate mergeShardResults(const std::vector<ShardResult> &Results,
                                    int64_t NumSpecs) {
  MergedCertificate Merged;
  Merged.Specs.resize(static_cast<size_t>(std::max<int64_t>(NumSpecs, 0)));

  std::vector<ProbBounds> Parts;
  Parts.reserve(Results.size());
  for (int64_t S = 0; S < NumSpecs; ++S) {
    Parts.clear();
    for (const ShardResult &R : Results) {
      if (S < static_cast<int64_t>(R.Specs.size())) {
        const ShardSpecBounds &B = R.Specs[static_cast<size_t>(S)];
        Parts.push_back({B.Lower, B.Upper, false, B.Degraded});
      } else {
        // A validated-but-truncated result: this shard's mass is unknown
        // for the spec. Contribute nothing below and everything above —
        // the conservative extreme, same as quarantined mass.
        Parts.push_back({0.0, 1.0, false, true});
      }
    }
    ProbBounds &Out = Merged.Specs[static_cast<size_t>(S)];
    Out = boundsOfDisjointUnion(Parts);
    Merged.Degraded = Merged.Degraded || Out.Degraded;
  }

  for (const ShardResult &R : Results) {
    Merged.Seconds = std::max(Merged.Seconds, R.Seconds);
    Merged.TotalShardSeconds += R.Seconds;
    Merged.PeakBytes += static_cast<size_t>(std::max<int64_t>(R.PeakBytes, 0));
    Merged.MaxRegions += R.MaxRegions;
    Merged.MaxNodes += R.MaxNodes;
    Merged.Retries = std::max(Merged.Retries, R.Retries);
    Merged.Rollbacks += R.Rollbacks;
    Merged.FallbackBoxLayers += R.FallbackBoxLayers;
    Merged.QuarantinedMass += R.QuarantinedMass;
    Merged.DeadlineHit = Merged.DeadlineHit || R.DeadlineHit;
    Merged.Degraded = Merged.Degraded || R.Degraded;
    if (R.FromFallback)
      ++Merged.FallbackShards;
    // Map the supervision rung onto the in-process ladder for display: a
    // shard that ran (or fell back) at the interval-box rung reached
    // FullBox; a resilient retry reached at least LocalBox only if its
    // own stats say so, which R.Rung does not imply.
    if (R.Rung == static_cast<int64_t>(ShardRung::IntervalBox) ||
        R.FromFallback)
      Merged.Rung = DegradeRung::FullBox;
  }
  // Fold in the worst in-process rung reported by any shard.
  for (const ShardResult &R : Results) {
    if (R.FallbackBoxLayers > 0 &&
        static_cast<uint8_t>(Merged.Rung) <
            static_cast<uint8_t>(DegradeRung::FullBox))
      Merged.Rung = DegradeRung::FullBox;
    else if (R.Rollbacks > 0 && Merged.Rung == DegradeRung::None)
      Merged.Rung = DegradeRung::LocalBox;
  }
  if (Merged.Degraded)
    for (ProbBounds &B : Merged.Specs)
      B.Degraded = true;
  return Merged;
}

} // namespace genprove
