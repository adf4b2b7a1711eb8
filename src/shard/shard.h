//===- shard/shard.h - Shard results and their sound merge -----*- C++ -*-===//
///
/// \file
/// Per-shard results and the cross-shard merge for the supervised
/// scale-out path. The exact domain's region lists are embarrassingly
/// partitionable: shard k of N certifies the full segment restricted to
/// piece k of planRange(0, 1, N) (core/distribution.h, the same range
/// planner the in-process `--splits` path uses), completely independently.
/// The paper's probability bounds are sums of per-region masses, so the
/// merged bounds are the per-shard partial bounds summed by
/// boundsOfDisjointUnion (core/spec.h), whose directed sums keep the
/// merge itself from flipping an inequality (docs/SOUNDNESS.md).
///
/// Nothing here knows about processes; the supervision machinery lives in
/// shard/supervisor.h and shard/process_launcher.h.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SHARD_SHARD_H
#define GENPROVE_SHARD_SHARD_H

#include "src/core/spec.h"
#include "src/domains/propagate.h"

#include <cstdint>
#include <vector>

namespace genprove {

/// Per-spec partial bounds contributed by one shard: the probability mass
/// of the shard's sub-range that certainly / possibly satisfies the spec.
/// Summing these over a disjoint partition yields the full bounds.
struct ShardSpecBounds {
  double Lower = 0.0;
  double Upper = 0.0;
  bool Degraded = false;
};

/// Everything one worker attempt reports back: partial bounds for every
/// spec plus the engine telemetry the coordinator folds into its own
/// stats line. Mirrors PropagatedState minus the regions themselves —
/// regions never cross the process boundary, only their mass projections.
struct ShardResult {
  int64_t Shard = -1;
  int64_t Attempt = 0;
  int64_t Rung = 0; ///< supervision rung the attempt ran at (ShardRung)
  std::vector<ShardSpecBounds> Specs;
  double Seconds = 0.0;
  int64_t PeakBytes = 0;
  int64_t MaxRegions = 0;
  int64_t MaxNodes = 0;
  int64_t Retries = 0;   ///< in-process Appendix C retries
  int64_t Rollbacks = 0; ///< checkpoint rollbacks (PR 3 ladder)
  int64_t FallbackBoxLayers = 0;
  double QuarantinedMass = 0.0;
  bool Degraded = false;
  bool DeadlineHit = false;
  bool OutOfMemory = false;
  /// Set by the coordinator when this result came from its in-process
  /// interval-box fallback rather than a worker.
  bool FromFallback = false;
};

/// The coordinator's view of a completed sharded certification.
struct MergedCertificate {
  /// Per-spec merged bounds: boundsOfDisjointUnion of the shards' partial
  /// bounds, sound because the shards partition the input mass.
  std::vector<ProbBounds> Specs;
  /// Any shard degraded, fell back, or needed a restart.
  bool Degraded = false;
  DegradeRung Rung = DegradeRung::None; ///< worst in-process rung
  double Seconds = 0.0;       ///< max shard wall time (shards run concurrently)
  double TotalShardSeconds = 0.0; ///< summed shard wall time (cpu cost)
  size_t PeakBytes = 0;       ///< summed per-shard peaks (concurrent residency)
  int64_t MaxRegions = 0;     ///< summed per-shard maxima (upper bound)
  int64_t MaxNodes = 0;
  int64_t Retries = 0;        ///< max in-process retries over shards
  int64_t Rollbacks = 0;
  int64_t FallbackBoxLayers = 0;
  bool DeadlineHit = false;
  double QuarantinedMass = 0.0;
  int64_t FallbackShards = 0; ///< shards bounded by the coordinator fallback
};

/// Merge per-shard results (one per shard, any order) into the final
/// certificate. \p NumSpecs fixes the spec count for shards whose result
/// arrived malformed-but-validated; missing spec slots are treated as the
/// whole shard mass being unknown ([0, shard weight] — sound).
MergedCertificate mergeShardResults(const std::vector<ShardResult> &Results,
                                    int64_t NumSpecs);

} // namespace genprove

#endif // GENPROVE_SHARD_SHARD_H
