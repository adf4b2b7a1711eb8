//===- domains/zonotope.h - Zonotope / DeepZono baselines ------*- C++ -*-===//
///
/// \file
/// The convex baseline domains of the paper's Tables 2 and 8: affine forms
/// c + sum_g eps_g * G_g with eps in [-1, 1]^G. Two ReLU transformers are
/// provided:
///
///  * Zonotope [Gehr et al. 2018, AI2]: a crossing neuron is replaced by
///    the interval [0, hi] introduced as a fresh error term (looser, the
///    historical formulation);
///  * DeepZono [Singh et al. 2018]: the minimal-area parallelogram
///    y = lambda*x + mu +- mu with lambda = hi/(hi-lo), mu = -lambda*lo/2.
///
/// Both add one error term per crossing neuron, so the generator matrix
/// grows without bound — this is exactly why the paper reports 100% OOM
/// for these domains on every network (Table 8). The initial line segment
/// is represented exactly (center = midpoint, one generator = half
/// difference), so no precision is lost at the input.
///
/// Lifted probabilistically (Section 4, "Lifting"), a convex domain can
/// only ever certify l = 1 (fully contained) or u = 0 (fully disjoint);
/// anything else yields the trivial [0, 1]. Those two certificates are
/// exactly the verdicts of the two-tier screen (GenProveConfig::FastScreen),
/// so screenCells() below classifies parameter-range pieces with DeepZono.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_ZONOTOPE_H
#define GENPROVE_DOMAINS_ZONOTOPE_H

#include "src/core/spec.h"
#include "src/domains/memory_model.h"
#include "src/domains/region.h"
#include "src/nn/sequential.h"

#include <utility>
#include <vector>

namespace genprove {

/// Which ReLU transformer the zonotope analysis uses.
enum class ZonotopeKind : uint8_t { Zonotope, DeepZono };

/// Result of a convex-domain analysis, lifted probabilistically.
struct ConvexResult {
  ProbBounds Bounds;       ///< {1,1}, {0,0} or {0,1} (plus OOM flag).
  size_t PeakBytes = 0;    ///< simulated device memory peak.
  int64_t MaxGenerators = 0;
};

/// Analyze the segment e1->e2 (flat [1, N] endpoints) through the layers
/// against the spec.
ConvexResult analyzeZonotope(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &Start,
                             const Tensor &End, const OutputSpec &Spec,
                             ZonotopeKind Kind, DeviceMemoryModel &Memory);

/// Propagation is specification-independent: analyze once and evaluate
/// every spec on the final zonotope. Returns one ConvexResult per spec
/// (all sharing the same memory/telemetry).
std::vector<ConvexResult>
analyzeZonotopeMulti(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, const std::vector<OutputSpec> &Specs,
                     ZonotopeKind Kind, DeviceMemoryModel &Memory);

/// Batched analysis: propagate many segments through the same pipeline at
/// once, stacking every query's center and generator rows into single
/// production-sized kernel calls, and evaluate every spec on each final
/// zonotope. Because all affine kernels are row-independent (fixed
/// ascending-k accumulation per output element, fp-contract off) and the
/// ReLU transformer runs per state, the returned bounds are bit-identical
/// to analyzeZonotopeMulti() run per segment, in both rounding modes.
///
/// The per-layer device charge is the sum of all states' charges (the
/// joint state is resident at once); when that blows the budget, the
/// whole batch falls back to sequential per-segment analyses, so bounds
/// always match a caller-side loop. Returned telemetry (PeakBytes,
/// MaxGenerators) on the batched path describes the shared run.
/// Result[i][j] is segment i against Specs[j].
std::vector<std::vector<ConvexResult>>
analyzeZonotopeBatch(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape,
                     const std::vector<std::pair<Tensor, Tensor>> &Segments,
                     const std::vector<OutputSpec> &Specs, ZonotopeKind Kind,
                     DeviceMemoryModel &Memory);

/// Per-dimension interval hull of the final zonotope, rounded outward.
/// Used by the soundness audit (src/audit) to check containment of
/// concrete forward passes.
struct ZonotopeOutputBounds {
  Tensor Lo, Hi; ///< [1, N] each; empty when OutOfMemory.
  bool OutOfMemory = false;
};

ZonotopeOutputBounds
zonotopeOutputBounds(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, ZonotopeKind Kind,
                     DeviceMemoryModel &Memory);

/// Screen classification of one parameter-range piece: every point of it
/// satisfies the spec (Inside), none does (Outside), or neither is proven
/// (Borderline: the piece must run under the full analysis).
enum class ScreenVerdict : uint8_t { Inside, Outside, Borderline };

/// Classify degree-1 curve pieces (restrictCurve results) against \p Spec
/// with one batched DeepZono propagation: lifted {1, 1} is Inside, {0, 0}
/// Outside, anything else Borderline. Each piece's zonotope is built from
/// its coefficients (center A0 + A1 m, generator A1 h over its own
/// [T0, T1] = [m - h, m + h]); under sound rounding its slack bounds the
/// evaluation error by the coefficient magnitudes,
/// 8 eps (|A0| + |A1| max(|T0|, |T1|)), never by evaluated endpoints,
/// which may cancel to nearly zero while each term is off by eps |A0|. The
/// propagation charges an unbudgeted device model.
std::vector<ScreenVerdict>
screenPieces(const std::vector<const Layer *> &Layers, const Shape &InputShape,
             const std::vector<Region> &Pieces, const OutputSpec &Spec);

/// Coarse-to-fine screen of \p Curve over the cell grid \p Cuts (a
/// planRange result): classify the whole [Cuts.front(), Cuts.back()]
/// first, then halve only the borderline index ranges, one batched
/// screenPieces() call per level, until a borderline range is a single
/// cell. Returns one verdict per cell [Cuts[i], Cuts[i+1]]; a cell inherits
/// the verdict of the largest range holding it that was decided.
std::vector<ScreenVerdict>
screenCells(const std::vector<const Layer *> &Layers, const Shape &InputShape,
            const Region &Curve, const std::vector<double> &Cuts,
            const OutputSpec &Spec);

} // namespace genprove

#endif // GENPROVE_DOMAINS_ZONOTOPE_H
