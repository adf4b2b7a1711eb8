//===- nn/linear.cpp ------------------------------------------*- C++ -*-===//

#include "src/nn/linear.h"

#include "src/tensor/ops.h"
#include "src/util/fp.h"

#include <cmath>
#include <sstream>

namespace genprove {

namespace {

/// [Rows, Cols] -> [Cols, Rows] into \p Dst (already shaped).
void transposeInto(const Tensor &Src, Tensor &Dst) {
  const int64_t Rows = Src.dim(0), Cols = Src.dim(1);
  const double *S = Src.data();
  double *D = Dst.data();
  for (int64_t I = 0; I < Rows; ++I)
    for (int64_t J = 0; J < Cols; ++J)
      D[J * Rows + I] = S[I * Cols + J];
}

} // namespace

Linear::Linear(int64_t InFeatures, int64_t OutFeatures)
    : Layer(Kind::Linear), InFeatures(InFeatures), OutFeatures(OutFeatures),
      WeightT({InFeatures, OutFeatures}), Bias({OutFeatures}),
      GradWeightT({InFeatures, OutFeatures}), GradBias({OutFeatures}) {}

const Tensor Linear::weight() const {
  Tensor W({OutFeatures, InFeatures});
  transposeInto(WeightT, W);
  return W;
}

void Linear::setWeight(const Tensor &W) {
  check(W.rank() == 2 && W.dim(0) == OutFeatures && W.dim(1) == InFeatures,
        "Linear::setWeight expects an [Out, In] weight");
  Generation.invalidate();
  transposeInto(W, WeightT);
}

Tensor Linear::forward(const Tensor &Input) {
  CachedInput = Input;
  return applyAffine(Input);
}

Tensor Linear::backward(const Tensor &GradOutput) {
  // dW^T += X^T dY ; db += column sums of dY ; dX = dY W. Each product
  // pairs the same operands in the same ascending-k order as the [Out, In]
  // forms dW += dY^T X and matmul(dY, W), so the gradients are
  // bit-identical to those of the untransposed layout.
  GradWeightT.addInPlace(matmulTransA(CachedInput, GradOutput)); // [In, Out]
  const int64_t B = GradOutput.dim(0);
  for (int64_t I = 0; I < B; ++I)
    for (int64_t J = 0; J < OutFeatures; ++J)
      GradBias[J] += GradOutput.at(I, J);
  return matmulTransB(GradOutput, WeightT); // [B, In]
}

Tensor Linear::applyAffine(const Tensor &Points) const {
  return matmulTransTBias(Points, WeightT, Bias);
}

Tensor Linear::applyLinear(const Tensor &Points) const {
  return matmul(Points, WeightT);
}

void Linear::applyToBox(Tensor &Center, Tensor &Radius) const {
  Tensor OutC, OutR;
  fusedBoxAffineTransT(Center, Radius, nullptr, WeightT, Bias, OutC, OutR,
                       nullptr);
  Center = std::move(OutC);
  Radius = std::move(OutR);
}

void Linear::applyToBoxSound(Tensor &Center, Tensor &Radius) const {
  // Layer::applyToBoxSound in one pass over W^T: the magnitude plane
  // |c| + r rides the same weight stream as the center and radius, and
  // the bias image of a zero input is the bias itself (for finite weights
  // the zero dot product is +0.0, and +0.0 + b has the same absolute value
  // as b), so the separate zero-input box transform disappears.
  Tensor Mag(Center.shape());
  for (int64_t I = 0; I < Center.numel(); ++I)
    Mag[I] = fp::addUp(std::fabs(Center[I]), Radius[I]);
  Tensor OutC, OutR, OutMag;
  fusedBoxAffineTransT(Center, Radius, &Mag, WeightT, Bias, OutC, OutR,
                       &OutMag);
  const double Gamma = fp::accumulationBound(accumulationDepth());
  const int64_t Rows = OutR.dim(0);
  for (int64_t Row = 0; Row < Rows; ++Row)
    for (int64_t J = 0; J < OutFeatures; ++J)
      OutR.at(Row, J) = fp::addUp(
          OutR.at(Row, J),
          fp::mulUp(Gamma, fp::addUp(OutMag.at(Row, J), std::fabs(Bias[J]))));
  Center = std::move(OutC);
  Radius = std::move(OutR);
}

std::vector<Param> Linear::params() {
  Generation.invalidate(); // optimizers mutate through the returned pointers
  return {{&WeightT, &GradWeightT, "weight"}, {&Bias, &GradBias, "bias"}};
}

std::optional<Shape> Linear::tryOutputShape(const Shape &InputShape,
                                            std::string &Error) const {
  if (InputShape.rank() != 2 || InputShape.dim(1) != InFeatures) {
    Error = describe() + " expects [N, " + std::to_string(InFeatures) +
            "] input, got " + InputShape.toString();
    return std::nullopt;
  }
  return Shape({InputShape.dim(0), OutFeatures});
}

std::string Linear::describe() const {
  std::ostringstream Out;
  Out << "Linear(" << InFeatures << "->" << OutFeatures << ")";
  return Out.str();
}

} // namespace genprove
