//===- nn/layer.h - Neural network layer interface -------------*- C++ -*-===//
///
/// \file
/// Layer is the common interface of all network layers. It serves two
/// clients:
///
///  * the trainers, through forward()/backward()/params(); and
///  * the verifier, through the affine interface. Every layer except ReLU
///    is an affine map f(x) = A x + b. The analyzer propagates batches of
///    points (segment/curve coefficient vectors) with applyAffine() and
///    applyLinear() (no bias, for direction vectors and zonotope
///    generators), and interval boxes with applyToBox() (center via the
///    affine map, radius via |A|). ReLU is handled symbolically by the
///    abstract domains, never through this interface.
///
/// Dynamic dispatch uses an LLVM-style Kind tag instead of RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_NN_LAYER_H
#define GENPROVE_NN_LAYER_H

#include "src/tensor/tensor.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace genprove {

/// A named parameter tensor paired with its gradient accumulator.
struct Param {
  Tensor *Value = nullptr;
  Tensor *Grad = nullptr;
  std::string Name;
};

/// Base class for all layers.
class Layer {
public:
  enum class Kind : uint8_t {
    Linear,
    Conv2d,
    ConvTranspose2d,
    ReLU,
    Flatten,
    Reshape,
  };

  explicit Layer(Kind LayerKind) : LayerKind(LayerKind) {}
  virtual ~Layer() = default;

  Kind kind() const { return LayerKind; }

  /// True for every layer except ReLU.
  bool isAffine() const { return LayerKind != Kind::ReLU; }

  /// Training-mode forward pass on a batch (first dim is the batch).
  /// Caches whatever backward() needs.
  virtual Tensor forward(const Tensor &Input) = 0;

  /// Backward pass; accumulates parameter gradients, returns grad of input.
  virtual Tensor backward(const Tensor &GradOutput) = 0;

  /// Affine application with bias to a batch of points. Only valid when
  /// isAffine().
  virtual Tensor applyAffine(const Tensor &Points) const {
    (void)Points;
    fatalError("applyAffine called on a non-affine layer");
  }

  /// Linear part only (no bias); used for direction vectors, curve
  /// coefficients and zonotope generators. Only valid when isAffine().
  virtual Tensor applyLinear(const Tensor &Points) const {
    (void)Points;
    fatalError("applyLinear called on a non-affine layer");
  }

  /// Interval propagation: Center' = A*Center + b, Radius' = |A|*Radius.
  /// Center and Radius are single-sample batches. Only valid when
  /// isAffine().
  virtual void applyToBox(Tensor &Center, Tensor &Radius) const {
    (void)Center;
    (void)Radius;
    fatalError("applyToBox called on a non-affine layer");
  }

  /// Number of round-to-nearest accumulation terms behind one output value
  /// of the affine map (dot-product length plus the bias add). Zero means
  /// the layer is exact in floating point (pure data movement), so
  /// applyToBoxSound() needs no radius inflation.
  virtual int64_t accumulationDepth() const { return 0; }

  /// Sound variant of applyToBox(): same round-to-nearest kernels, but the
  /// output radius is inflated by a rigorous bound on the accumulated
  /// rounding error so [Center' +- Radius'] contains the exact interval
  /// image — and any round-to-nearest forward pass through this layer of a
  /// point in the input box. The base class implements it in terms of
  /// applyToBox()/accumulationDepth(); Linear overrides it with a one-pass
  /// kernel that is bit-identical to this composition.
  virtual void applyToBoxSound(Tensor &Center, Tensor &Radius) const;

  /// Learnable parameters (empty for shape/activation layers).
  virtual std::vector<Param> params() { return {}; }

  /// Stable fingerprint of the layer's transfer function: structure plus
  /// the bit patterns of every learnable parameter. Two layers with equal
  /// fingerprints produce bit-identical abstract transformers, which is
  /// what the propagation cache keys on. Parameterless layers hash their
  /// kind and description; parameterized layers memoize the hash against
  /// their ParamGeneration, so any weight mutation through a mutable
  /// accessor or setter is guaranteed to change the fingerprint.
  virtual uint64_t fingerprint() const;

  /// The layer's shape rule: the output activation shape (batch dim
  /// included) for \p InputShape, or std::nullopt with \p Error set to
  /// why the layer cannot take that shape. Never aborts, so input
  /// boundaries (the CLI's --input-shape, serve requests) can reject a
  /// mis-shaped input cleanly; see pipelineShapeError in nn/sequential.h.
  virtual std::optional<Shape> tryOutputShape(const Shape &InputShape,
                                              std::string &Error) const = 0;

  /// tryOutputShape for a shape already known to fit: a mismatch is a
  /// fatal error.
  Shape outputShape(const Shape &InputShape) const;

  /// Human-readable description, e.g. "Conv2d(3->16, k4, s2, p1)".
  virtual std::string describe() const = 0;

private:
  const Kind LayerKind;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace genprove

#endif // GENPROVE_NN_LAYER_H
