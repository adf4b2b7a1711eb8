//===- core/distribution.h - Input parameter distributions -----*- C++ -*-===//
///
/// \file
/// Distributions over the specification's curve parameter t in [0, 1].
/// The consistency experiments use the uniform distribution; Table 7 uses
/// the arcsine distribution ("to demonstrate non-uniform distributions").
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_CORE_DISTRIBUTION_H
#define GENPROVE_CORE_DISTRIBUTION_H

#include "src/util/rng.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace genprove {

/// Supported input-parameter distributions.
enum class ParamDistribution : uint8_t { Uniform, Arcsine };

/// CDF value F(T) of the given distribution at T in [0, 1].
double paramCdf(ParamDistribution Dist, double T);

/// A callable CDF for the propagation engine.
std::function<double(double)> makeCdf(ParamDistribution Dist);

/// The one range planner (Section 5.2): cut [T0, T1] into max(N, 1)
/// equal pieces and return the cuts, piece k being [Cuts[k], Cuts[k+1]].
/// Cut k is T0 + (T1 - T0) * (k / N), computed once, so adjacent pieces
/// share the same double and no parameter mass falls through or is
/// counted twice; the first cut is exactly T0 and the last exactly T1.
/// Input splits, shards, screen pieces and chain legs all cut here.
std::vector<double> planRange(double T0, double T1, int64_t N);

/// Draw one sample of the distribution (for the sampling baseline).
double sampleParam(ParamDistribution Dist, Rng &Generator);

/// Human-readable name ("uniform" / "arcsine").
const char *paramDistributionName(ParamDistribution Dist);

} // namespace genprove

#endif // GENPROVE_CORE_DISTRIBUTION_H
