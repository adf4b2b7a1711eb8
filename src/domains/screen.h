//===- domains/screen.h - Float32 screening tier ---------------*- C++ -*-===//
///
/// \file
/// The candidate tier of the two-tier precision fast path
/// (GenProveConfig::FastScreen). A ScreenPlan is a float32 compilation of
/// a Linear/ReLU/Flatten/Reshape pipeline: nearest-float weights for the
/// center map, directed-up |W| for the radius map, and per-layer error
/// cushions. screenClassify() pushes one parameter-range piece's bounding
/// box through the plan with round-to-nearest float kernels, widens every
/// affine image by a rigorous cushion (the float accumulationBound times
/// the activation magnitude, plus an absolute floor for subnormal-range
/// conversions), and tests the result against the output spec with
/// directed double arithmetic.
///
/// The cushion makes the screen's final box a superset of the image of the
/// piece's box under exact real interval arithmetic with the *double*
/// weights, so:
///
///  * Inside  — every constraint functional is strictly positive over the
///    screen box: every point of the piece satisfies the spec, and its
///    full CDF mass may be claimed for the lower bound without running the
///    double tier;
///  * Outside — some constraint functional is <= 0 over the whole screen
///    box: no point satisfies the (open-halfspace) spec, and the piece's
///    mass may be excluded from the upper bound;
///  * Borderline — neither certificate holds (or the pipeline contains a
///    layer kind the screen does not compile, or a non-finite value
///    appeared): the piece must re-run under the sound double tier.
///
/// The screen itself never produces a reported bound — only
/// classifications whose soundness rests on the cushion; the bounds
/// assembled from them are CDF masses and double-tier results.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_SCREEN_H
#define GENPROVE_DOMAINS_SCREEN_H

#include "src/core/spec.h"
#include "src/nn/sequential.h"

#include <vector>

namespace genprove {

/// Screen classification of one parameter-range piece.
enum class ScreenVerdict : uint8_t { Inside, Outside, Borderline };

/// Display name ("inside", "outside", "borderline").
const char *screenVerdictName(ScreenVerdict V);

/// One compiled pipeline step.
struct ScreenLayerPlan {
  enum class Op : uint8_t { Affine, Relu, Identity };
  Op Kind = Op::Identity;
  // --- Affine (Linear) fields ---
  int64_t InF = 0;
  int64_t OutF = 0;
  std::vector<float> Wf;     ///< [OutF*InF] nearest-float weights
  std::vector<float> AbsWUp; ///< [OutF*InF] floatUp(|W|) >= |W| elementwise
  std::vector<float> BiasF;  ///< [OutF] nearest-float bias
  float GammaF = 0.0f;       ///< fp::accumulationBoundF(Depth)
  int64_t Depth = 0;         ///< accumulation depth (InF + 1)
};

/// A float32 compilation of a layer pipeline. When a layer kind the screen
/// cannot compile appears (convolutions), Supported is false and every
/// piece classifies Borderline — the two-tier path then degenerates to the
/// plain sound analysis.
struct ScreenPlan {
  bool Supported = false;
  std::vector<ScreenLayerPlan> Steps;
};

/// Compile \p Layers into a screen plan (Linear, ReLU, Flatten, Reshape
/// only; anything else marks the plan unsupported).
ScreenPlan buildScreenPlan(const std::vector<const Layer *> &Layers);

/// Classify the segment piece \p Piece (a degree-1 curve over its own
/// [T0, T1]) against \p Spec by float interval propagation through
/// \p Plan. Returns Borderline whenever no certificate can be established.
ScreenVerdict screenClassify(const ScreenPlan &Plan, const Region &Piece,
                             const OutputSpec &Spec);

} // namespace genprove

#endif // GENPROVE_DOMAINS_SCREEN_H
