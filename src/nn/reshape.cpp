//===- nn/reshape.cpp -----------------------------------------*- C++ -*-===//

#include "src/nn/reshape.h"

#include <sstream>

namespace genprove {

Tensor Flatten::forward(const Tensor &Input) {
  CachedInputShape = Input.shape();
  return applyAffine(Input);
}

Tensor Flatten::backward(const Tensor &GradOutput) {
  return GradOutput.reshaped(CachedInputShape);
}

Tensor Flatten::applyAffine(const Tensor &Points) const {
  const int64_t B = Points.dim(0);
  return Points.reshaped({B, Points.numel() / B});
}

Tensor Flatten::applyLinear(const Tensor &Points) const {
  return applyAffine(Points);
}

void Flatten::applyToBox(Tensor &Center, Tensor &Radius) const {
  Center = applyAffine(Center);
  Radius = applyAffine(Radius);
}

std::optional<Shape> Flatten::tryOutputShape(const Shape &InputShape,
                                             std::string &Error) const {
  if (InputShape.rank() < 2) {
    Error = "Flatten expects [N, ...] input, got " + InputShape.toString();
    return std::nullopt;
  }
  int64_t Features = 1;
  for (size_t I = 1; I < InputShape.rank(); ++I)
    Features *= InputShape.dim(static_cast<int>(I));
  return Shape({InputShape.dim(0), Features});
}

Reshape::Reshape(int64_t Channels, int64_t Height, int64_t Width)
    : Layer(Kind::Reshape), Channels(Channels), Height(Height), Width(Width) {}

Tensor Reshape::forward(const Tensor &Input) { return applyAffine(Input); }

Tensor Reshape::backward(const Tensor &GradOutput) {
  const int64_t B = GradOutput.dim(0);
  return GradOutput.reshaped({B, Channels * Height * Width});
}

Tensor Reshape::applyAffine(const Tensor &Points) const {
  const int64_t B = Points.dim(0);
  check(Points.numel() / B == Channels * Height * Width,
        "Reshape feature count mismatch");
  return Points.reshaped({B, Channels, Height, Width});
}

Tensor Reshape::applyLinear(const Tensor &Points) const {
  return applyAffine(Points);
}

void Reshape::applyToBox(Tensor &Center, Tensor &Radius) const {
  Center = applyAffine(Center);
  Radius = applyAffine(Radius);
}

std::optional<Shape> Reshape::tryOutputShape(const Shape &InputShape,
                                             std::string &Error) const {
  if (InputShape.rank() != 2 ||
      InputShape.dim(1) != Channels * Height * Width) {
    Error = describe() + " expects [N, " +
            std::to_string(Channels * Height * Width) + "] input, got " +
            InputShape.toString();
    return std::nullopt;
  }
  return Shape({InputShape.dim(0), Channels, Height, Width});
}

std::string Reshape::describe() const {
  std::ostringstream Out;
  Out << "Reshape(" << Channels << "x" << Height << "x" << Width << ")";
  return Out.str();
}

} // namespace genprove
