//===- nn/layer.cpp -------------------------------------------*- C++ -*-===//

#include "src/nn/layer.h"

#include "src/util/fp.h"
#include "src/util/hash.h"

#include <cmath>

namespace genprove {

uint64_t Layer::fingerprint() const {
  // Parameterless layers (ReLU/Flatten/Reshape) are fully described by
  // their kind and shape description.
  uint64_t H = hashing::hashU64(hashing::FnvOffset,
                                static_cast<uint64_t>(LayerKind));
  return hashing::hashString(H, describe());
}

Shape Layer::outputShape(const Shape &InputShape) const {
  std::string Error;
  std::optional<Shape> Out = tryOutputShape(InputShape, Error);
  if (!Out)
    fatalError(Error);
  return *Out;
}

void Layer::applyToBoxSound(Tensor &Center, Tensor &Radius) const {
  const int64_t Depth = accumulationDepth();
  if (Depth <= 0) {
    // Pure data movement (Flatten/Reshape): exact in floating point.
    applyToBox(Center, Radius);
    return;
  }

  // Every point x of the input box satisfies |x| <= |c| + r elementwise,
  // so gamma_K * (|A|(|c| + r) + |b|) bounds the rounding error of the
  // round-to-nearest affine kernels on the center AND of a concrete
  // forward pass of any boxed point, for any summation order the tiled
  // kernels pick (standard dot-product error analysis). Running the box
  // transformer on (0, |c|+r) recovers both ingredients at once: the
  // center output of a zero input is the bias image b, the radius output
  // is |A| * (|c| + r).
  const int64_t InN = Center.numel();
  Tensor Mag(Center.shape());
  for (int64_t I = 0; I < InN; ++I)
    Mag[I] = fp::addUp(std::fabs(Center[I]), Radius[I]);
  Tensor BiasImage(Center.shape());
  applyToBox(BiasImage, Mag);

  applyToBox(Center, Radius);

  const double Gamma = fp::accumulationBound(Depth);
  const int64_t OutN = Radius.numel();
  for (int64_t I = 0; I < OutN; ++I)
    Radius[I] = fp::addUp(
        Radius[I],
        fp::mulUp(Gamma, fp::addUp(Mag[I], std::fabs(BiasImage[I]))));
}

} // namespace genprove
