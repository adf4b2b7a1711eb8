//===- domains/screen.cpp -------------------------------------*- C++ -*-===//

#include "src/domains/screen.h"

#include "src/nn/linear.h"
#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

const char *screenVerdictName(ScreenVerdict V) {
  switch (V) {
  case ScreenVerdict::Inside:
    return "inside";
  case ScreenVerdict::Outside:
    return "outside";
  case ScreenVerdict::Borderline:
    return "borderline";
  }
  return "?";
}

ScreenPlan buildScreenPlan(const std::vector<const Layer *> &Layers) {
  ScreenPlan Plan;
  Plan.Steps.reserve(Layers.size());
  for (const Layer *L : Layers) {
    ScreenLayerPlan Step;
    switch (L->kind()) {
    case Layer::Kind::Linear: {
      const Linear *Lin = static_cast<const Linear *>(L);
      const Tensor W = Lin->weight(); // [Out, In]
      const Tensor &Bias = Lin->bias();
      Step.Kind = ScreenLayerPlan::Op::Affine;
      Step.OutF = W.dim(0);
      Step.InF = W.dim(1);
      Step.Depth = Lin->accumulationDepth();
      Step.GammaF = fp::accumulationBoundF(Step.Depth);
      Step.Wf.resize(static_cast<size_t>(Step.OutF * Step.InF));
      Step.AbsWUp.resize(Step.Wf.size());
      const double *Wd = W.data();
      for (size_t I = 0; I < Step.Wf.size(); ++I) {
        Step.Wf[I] = static_cast<float>(Wd[I]);
        Step.AbsWUp[I] = fp::floatUp(std::fabs(Wd[I]));
      }
      Step.BiasF.resize(static_cast<size_t>(Step.OutF));
      for (int64_t J = 0; J < Step.OutF; ++J)
        Step.BiasF[static_cast<size_t>(J)] = static_cast<float>(Bias[J]);
      break;
    }
    case Layer::Kind::ReLU:
      Step.Kind = ScreenLayerPlan::Op::Relu;
      break;
    case Layer::Kind::Flatten:
    case Layer::Kind::Reshape:
      // Pure data movement on the flat activation vector.
      Step.Kind = ScreenLayerPlan::Op::Identity;
      break;
    default:
      // Convolutions: no float compilation — the caller classifies every
      // piece Borderline and the two-tier path collapses to the sound one.
      return Plan;
    }
    Plan.Steps.push_back(std::move(Step));
  }
  Plan.Supported = true;
  return Plan;
}

namespace {

/// One affine step on the float box [Lo, Hi]: round-to-nearest dot
/// products for center, radius and magnitude planes, then a cushion of
/// GammaF times the output magnitude (covers the relative error of all
/// three accumulations plus the weight/bias/input float conversions) and
/// an absolute floor of Depth * 2^-149 * (MagInMax + 1) (covers the
/// subnormal-range conversions and operations whose error is absolute,
/// not relative). AbsWUp >= |W| elementwise closes the remaining gap: the
/// radius plane can only over-, never under-weight a generator.
void screenAffine(const ScreenLayerPlan &Step, std::vector<float> &Lo,
                  std::vector<float> &Hi) {
  const size_t In = static_cast<size_t>(Step.InF);
  const size_t Out = static_cast<size_t>(Step.OutF);
  // Flush-to-normal floor for the radius/magnitude planes. Dead ReLU
  // units produce exact-zero interval widths whose one-ULP outward nudge
  // lands in the subnormal range, and every subnormal generator then pays
  // a microcode assist on each product in the dot loops below (measured
  // ~10x on the whole classification). Rounding these planes up to a
  // normal-range floor is sound — they are upper bounds, and 2^-60 is
  // absolute noise next to the GammaF relative cushion — and it keeps
  // the products normal without touching MXCSR (flush-to-zero would
  // break the directed nudges elsewhere).
  constexpr float NormalFloor = 0x1p-60f;
  std::vector<float> C(In), R(In), Mag(In);
  float MagInMax = 0.0f;
  for (size_t K = 0; K < In; ++K) {
    const float Center = 0.5f * (Lo[K] + Hi[K]);
    const float Rad = std::max(
        {fp::subUpF(Hi[K], Center), fp::subUpF(Center, Lo[K]), NormalFloor});
    C[K] = Center;
    R[K] = Rad;
    Mag[K] = fp::addUpF(std::fabs(Center), Rad);
    MagInMax = std::max(MagInMax, Mag[K]);
  }
  const float ConvFloor =
      std::max(fp::upF(static_cast<float>(Step.Depth) * 0x1p-149f *
                       (MagInMax + 1.0f)),
               NormalFloor);
  Lo.assign(Out, 0.0f);
  Hi.assign(Out, 0.0f);
  for (size_t J = 0; J < Out; ++J) {
    const float *Wrow = Step.Wf.data() + J * In;
    const float *Arow = Step.AbsWUp.data() + J * In;
    float Sc = 0.0f, Sr = 0.0f, Sm = 0.0f;
    for (size_t K = 0; K < In; ++K) {
      Sc += C[K] * Wrow[K];
      Sr += R[K] * Arow[K];
      Sm += Mag[K] * Arow[K];
    }
    const float Center = Sc + Step.BiasF[J];
    const float MagOut = fp::addUpF(Sm, std::fabs(Step.BiasF[J]));
    const float Rad = fp::addUpF(
        Sr, fp::addUpF(fp::mulUpF(Step.GammaF, MagOut), ConvFloor));
    Lo[J] = fp::subDownF(Center, Rad);
    Hi[J] = fp::addUpF(Center, Rad);
  }
}

} // namespace

ScreenVerdict screenClassify(const ScreenPlan &Plan, const Region &Piece,
                             const OutputSpec &Spec) {
  if (!Plan.Supported || Piece.Kind != RegionKind::Curve ||
      Piece.degree() != 1)
    return ScreenVerdict::Borderline;
  const int64_t N = Piece.dim();
  std::vector<float> Lo(static_cast<size_t>(N)), Hi(static_cast<size_t>(N));
  for (int64_t J = 0; J < N; ++J) {
    // Outward float enclosure of the piece's bounding box: the line is
    // monotone, so its range over [T0, T1] lies between the directed
    // evaluations at the two ends. Padded like the double tier's input
    // representation so any round-to-nearest evaluated point is covered
    // too.
    const double C0 = Piece.Coeffs.at(0, J), C1 = Piece.Coeffs.at(1, J);
    const double SLo = std::min(fp::addDown(C0, fp::mulDown(C1, Piece.T0)),
                                fp::addDown(C0, fp::mulDown(C1, Piece.T1)));
    const double SHi = std::max(fp::addUp(C0, fp::mulUp(C1, Piece.T0)),
                                fp::addUp(C0, fp::mulUp(C1, Piece.T1)));
    const double Pad = fp::mulUp(
        8.0 * DBL_EPSILON, fp::addUp(std::fabs(SLo), std::fabs(SHi)));
    Lo[static_cast<size_t>(J)] = fp::floatDown(fp::subDown(SLo, Pad));
    Hi[static_cast<size_t>(J)] = fp::floatUp(fp::addUp(SHi, Pad));
  }

  for (const ScreenLayerPlan &Step : Plan.Steps) {
    switch (Step.Kind) {
    case ScreenLayerPlan::Op::Affine:
      if (static_cast<int64_t>(Lo.size()) != Step.InF)
        return ScreenVerdict::Borderline;
      screenAffine(Step, Lo, Hi);
      break;
    case ScreenLayerPlan::Op::Relu:
      for (size_t K = 0; K < Lo.size(); ++K) {
        Lo[K] = std::max(Lo[K], 0.0f);
        Hi[K] = std::max(Hi[K], 0.0f);
      }
      break;
    case ScreenLayerPlan::Op::Identity:
      break;
    }
  }
  for (size_t K = 0; K < Lo.size(); ++K)
    if (!std::isfinite(Lo[K]) || !std::isfinite(Hi[K]))
      return ScreenVerdict::Borderline;

  if (Spec.dim() != static_cast<int64_t>(Lo.size()))
    return ScreenVerdict::Borderline;

  // Directed-double functional enclosure per halfspace: [FLo, FHi]
  // contains g . y + c for every y in the screen box. NaN comparisons are
  // all false, which lands on Borderline — never a false certificate.
  bool AllInside = true;
  for (const auto &H : Spec.halfspaces()) {
    double FLo = H.Offset, FHi = H.Offset;
    for (size_t K = 0; K < Lo.size(); ++K) {
      const double G = H.Normal[static_cast<int64_t>(K)];
      const double L = static_cast<double>(Lo[K]);
      const double U = static_cast<double>(Hi[K]);
      FLo = fp::addDown(FLo,
                        std::min(fp::mulDown(G, L), fp::mulDown(G, U)));
      FHi = fp::addUp(FHi, std::max(fp::mulUp(G, L), fp::mulUp(G, U)));
    }
    if (FHi <= 0.0)
      return ScreenVerdict::Outside;
    if (!(FLo > 0.0))
      AllInside = false;
  }
  return AllInside ? ScreenVerdict::Inside : ScreenVerdict::Borderline;
}

} // namespace genprove
