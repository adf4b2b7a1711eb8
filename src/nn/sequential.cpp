//===- nn/sequential.cpp --------------------------------------*- C++ -*-===//

#include "src/nn/sequential.h"

#include <sstream>

namespace genprove {

Sequential &Sequential::add(LayerPtr NewLayer) {
  Layers.push_back(std::move(NewLayer));
  return *this;
}

Sequential &Sequential::append(Sequential &&Tail) {
  for (LayerPtr &L : Tail.Layers)
    Layers.push_back(std::move(L));
  Tail.Layers.clear();
  return *this;
}

Tensor Sequential::forward(const Tensor &Input) {
  Tensor Activation = Input;
  for (auto &L : Layers)
    Activation = L->forward(Activation);
  return Activation;
}

Tensor Sequential::backward(const Tensor &GradOutput) {
  Tensor Grad = GradOutput;
  for (auto It = Layers.rbegin(); It != Layers.rend(); ++It)
    Grad = (*It)->backward(Grad);
  return Grad;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> All;
  for (auto &L : Layers)
    for (auto &P : L->params())
      All.push_back(P);
  return All;
}

void Sequential::zeroGrads() {
  for (auto &P : params())
    P.Grad->zero();
}

std::vector<const Layer *> Sequential::view() const {
  std::vector<const Layer *> V;
  V.reserve(Layers.size());
  for (const auto &L : Layers)
    V.push_back(L.get());
  return V;
}

int64_t Sequential::countNeurons(const Shape &SampleShape) const {
  check(SampleShape.dim(0) == 1, "countNeurons expects batch size 1");
  Shape Current = SampleShape;
  int64_t Total = 0;
  for (const auto &L : Layers) {
    Current = L->outputShape(Current);
    // Count units produced by parameterized layers only; ReLU / reshaping
    // layers reuse the same activations (matches the paper's convention).
    switch (L->kind()) {
    case Layer::Kind::Linear:
    case Layer::Kind::Conv2d:
    case Layer::Kind::ConvTranspose2d:
      Total += Current.numel();
      break;
    default:
      break;
    }
  }
  return Total;
}

Shape Sequential::outputShape(const Shape &InputShape) const {
  Shape Current = InputShape;
  for (const auto &L : Layers)
    Current = L->outputShape(Current);
  return Current;
}

std::string Sequential::describe() const {
  std::ostringstream Out;
  for (size_t I = 0; I < Layers.size(); ++I)
    Out << "  [" << I << "] " << Layers[I]->describe() << '\n';
  return Out.str();
}

std::vector<const Layer *> concatViews(const std::vector<const Layer *> &A,
                                       const std::vector<const Layer *> &B) {
  std::vector<const Layer *> Out = A;
  Out.insert(Out.end(), B.begin(), B.end());
  return Out;
}

std::string pipelineShapeError(const std::vector<const Layer *> &Layers,
                               const Shape &InputShape, Shape *OutputShape) {
  for (int64_t D : InputShape.dims())
    if (D <= 0)
      return "input shape " + InputShape.toString() +
             " has a non-positive dimension";
  Shape Current = InputShape;
  for (size_t I = 0; I < Layers.size(); ++I) {
    std::string Error;
    std::optional<Shape> Next = Layers[I]->tryOutputShape(Current, Error);
    if (!Next)
      return "layer " + std::to_string(I) + ": " + Error;
    Current = *Next;
  }
  if (OutputShape)
    *OutputShape = Current;
  return "";
}

} // namespace genprove
