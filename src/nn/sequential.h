//===- nn/sequential.h - Layer sequences -----------------------*- C++ -*-===//
///
/// \file
/// Sequential owns an ordered list of layers and provides the forward /
/// backward plumbing for training plus utilities for the verifier (flat
/// layer views, neuron counting per Appendix B's reporting).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_NN_SEQUENTIAL_H
#define GENPROVE_NN_SEQUENTIAL_H

#include "src/nn/layer.h"

namespace genprove {

/// An ordered sequence of layers; the unit of training and serialization.
class Sequential {
public:
  Sequential() = default;
  Sequential(Sequential &&) = default;
  Sequential &operator=(Sequential &&) = default;

  /// Append a layer (builder style).
  Sequential &add(LayerPtr NewLayer);

  /// Append every layer of \p Tail, e.g. a classifier after a decoder.
  Sequential &append(Sequential &&Tail);

  /// Training forward pass (caches activations inside the layers).
  Tensor forward(const Tensor &Input);

  /// Backward pass; must follow a forward() on the same batch.
  Tensor backward(const Tensor &GradOutput);

  /// Inference pass; identical math, provided for readability at call sites.
  Tensor predict(const Tensor &Input) { return forward(Input); }

  /// All learnable parameters, layer by layer.
  std::vector<Param> params();

  /// Zero every gradient accumulator.
  void zeroGrads();

  size_t size() const { return Layers.size(); }
  Layer &layer(size_t I) { return *Layers[I]; }
  const Layer &layer(size_t I) const { return *Layers[I]; }

  /// Borrowed pointers to the layers in order; the verifier consumes
  /// concatenations of these views (e.g. decoder followed by classifier).
  std::vector<const Layer *> view() const;

  /// Total activation count over all layer outputs for one sample with the
  /// given input shape (batch dim must be 1). This is the paper's "number
  /// of neurons".
  int64_t countNeurons(const Shape &SampleShape) const;

  /// Output shape for the given input shape.
  Shape outputShape(const Shape &InputShape) const;

  /// Multi-line architecture description.
  std::string describe() const;

private:
  std::vector<LayerPtr> Layers;
};

/// Concatenate layer views (e.g. decoder + classifier pipelines).
std::vector<const Layer *> concatViews(const std::vector<const Layer *> &A,
                                       const std::vector<const Layer *> &B);

/// Walk \p InputShape through \p Layers with each layer's shape rule.
/// Returns the empty string when every dimension is positive and every
/// layer accepts its input, otherwise a message naming the first layer
/// that does not. On success the pipeline's output shape is stored in
/// \p OutputShape when given. Input boundaries call this before
/// propagating, so a mis-shaped input (or a spec sized for another output
/// width) is rejected instead of aborting inside a kernel.
std::string pipelineShapeError(const std::vector<const Layer *> &Layers,
                               const Shape &InputShape,
                               Shape *OutputShape = nullptr);

} // namespace genprove

#endif // GENPROVE_NN_SEQUENTIAL_H
