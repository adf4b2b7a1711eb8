//===- util/fp.h - Directed floating-point rounding ------------*- C++ -*-===//
///
/// \file
/// Outward-rounded arithmetic for sound bound computations. The verifier's
/// guarantees only hold if every lower bound is rounded toward -inf and
/// every upper bound (and probability mass) toward +inf; plain
/// round-to-nearest can under-approximate by ULPs that compound across a
/// deep decoder+classifier pipeline.
///
/// Rather than flipping the FPU rounding mode (thread-unsafe with the
/// shared pool, and silently undone by vectorized code), every operation
/// here computes the round-to-nearest result and nudges it one ULP
/// outward. Since round-to-nearest is within half an ULP of the exact
/// value, the nudged result brackets the real one: up(x) >= exact and
/// down(x) <= exact, unconditionally.
///
/// A result that is already exact is returned unnudged:
///  - a sum or difference whose round-to-nearest result is +-0. Under
///    gradual underflow a sum of two doubles that rounds to zero IS zero
///    (a result in the subnormal range is exact, Hauser 1996), so
///    a +- b == 0 means the operands cancelled exactly;
///  - a product with a +-0 operand, and a quotient with a +-0 dividend.
/// Every other result is nudged, including a product of nonzero operands
/// that underflows to 0. The rule keeps the sound box path free of
/// subnormals: nudged, every dead ReLU unit's radius subUp(0, 0) and every
/// zero of a magnitude plane would become 4.9e-324, and the next
/// convolution would pay a microcode assist on each product with it
/// (docs/PERFORMANCE.md, "Sound path without subnormals"). It relies on
/// gradual underflow: nothing here may run with flush-to-zero or
/// denormals-are-zero set.
///
/// The nudge itself is an inline sign-magnitude integer step on the bit
/// pattern, bitwise equal to std::nextafter(X, +-inf) for every input
/// (fp::nudge).
///
/// The helpers are unconditional; call sites branch on
/// soundRoundingEnabled() and keep the original round-to-nearest code when
/// the toggle is off, preserving the bit-identity guarantees of the
/// deterministic kernels.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_UTIL_FP_H
#define GENPROVE_UTIL_FP_H

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace genprove {

/// Global toggle for sound outward rounding. Off by default: the default
/// pipeline keeps the historical round-to-nearest semantics (and the PR 4
/// bit-identity contract). Reads are relaxed-atomic in fp.cpp; flip it at
/// configuration time, not mid-propagation.
bool soundRoundingEnabled();
void setSoundRounding(bool On);

/// RAII toggle for tests and the audit harness.
class SoundRoundingScope {
public:
  explicit SoundRoundingScope(bool On) : Previous(soundRoundingEnabled()) {
    setSoundRounding(On);
  }
  ~SoundRoundingScope() { setSoundRounding(Previous); }
  SoundRoundingScope(const SoundRoundingScope &) = delete;
  SoundRoundingScope &operator=(const SoundRoundingScope &) = delete;

private:
  const bool Previous;
};

namespace fp {

/// One ULP toward +inf or -inf on the bit pattern: bitwise equal to
/// std::nextafter(X, +-inf) for every input. NaN propagates (quieted), the
/// infinity in the step's direction is a fixed point, +-0 steps to the
/// smallest subnormal of the step's sign, and the opposite infinity steps
/// to -+max. Inlined because the sound paths nudge every element of every
/// bound plane, and the libm call is a measurable share of that.
template <bool Upward> inline double nudge(double X) {
  static_assert(std::numeric_limits<double>::is_iec559, "IEEE double");
  constexpr uint64_t Sign = uint64_t(1) << 63;
  constexpr double Limit = Upward ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
  if (std::isnan(X))
    return X + X; // quiets a signaling NaN, as nextafter does
  if (X == Limit)
    return X;
  uint64_t B;
  std::memcpy(&B, &X, sizeof(B));
  if ((B & ~Sign) == 0)          // +0 or -0
    B = Upward ? 1 : (Sign | 1); // smallest subnormal of the step's sign
  else if (((B & Sign) != 0) == Upward)
    --B; // toward zero: the magnitude shrinks
  else
    ++B; // away from zero: the magnitude grows
  std::memcpy(&X, &B, sizeof(B));
  return X;
}

/// One ULP toward +inf (nextafter(X, +inf)).
inline double up(double X) { return nudge<true>(X); }
/// One ULP toward -inf (nextafter(X, -inf)).
inline double down(double X) { return nudge<false>(X); }

// Exact results are returned unnudged (see the file comment).
inline double addUp(double A, double B) {
  const double S = A + B;
  return S == 0.0 ? S : up(S);
}
inline double addDown(double A, double B) {
  const double S = A + B;
  return S == 0.0 ? S : down(S);
}
inline double subUp(double A, double B) {
  const double D = A - B;
  return D == 0.0 ? D : up(D);
}
inline double subDown(double A, double B) {
  const double D = A - B;
  return D == 0.0 ? D : down(D);
}
inline double mulUp(double A, double B) {
  const double P = A * B;
  return A == 0.0 || B == 0.0 ? P : up(P);
}
inline double mulDown(double A, double B) {
  const double P = A * B;
  return A == 0.0 || B == 0.0 ? P : down(P);
}
inline double divUp(double A, double B) {
  const double Q = A / B;
  return A == 0.0 ? Q : up(Q);
}
inline double divDown(double A, double B) {
  const double Q = A / B;
  return A == 0.0 ? Q : down(Q);
}

/// Upper bound on the relative error of a K-term round-to-nearest
/// accumulation (dot product, convolution window, bias add), valid for any
/// summation order (the tiled/AVX kernels reassociate). The textbook bound
/// is gamma_K = K*u/(1 - K*u) with u = DBL_EPSILON/2; this returns a
/// several-fold cushion so it also covers the round-to-nearest evaluation
/// of the magnitude term it multiplies and the concrete forward pass the
/// audit compares against.
inline double accumulationBound(int64_t Terms) {
  return 4.0 * static_cast<double>(Terms + 4) * DBL_EPSILON;
}

/// Neumaier-compensated sum rounded toward +inf. The compensated sum
/// s + c equals the exact sum up to the (directed-rounded) accumulation of
/// the compensation term itself, so the result is a true upper bound while
/// staying exact to ~1 ULP for thousands of tiny masses.
double sumUp(const double *Values, int64_t Count);
/// Neumaier-compensated sum rounded toward -inf.
double sumDown(const double *Values, int64_t Count);

inline double sumUp(const std::vector<double> &Values) {
  return sumUp(Values.data(), static_cast<int64_t>(Values.size()));
}
inline double sumDown(const std::vector<double> &Values) {
  return sumDown(Values.data(), static_cast<int64_t>(Values.size()));
}

} // namespace fp

} // namespace genprove

#endif // GENPROVE_UTIL_FP_H
