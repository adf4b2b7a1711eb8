//===- nn/linear.h - Fully connected layer ---------------------*- C++ -*-===//

#ifndef GENPROVE_NN_LINEAR_H
#define GENPROVE_NN_LINEAR_H

#include "src/nn/abs_cache.h"
#include "src/nn/layer.h"

namespace genprove {

/// Fully connected layer: y = x W^T + b with W of shape [Out, In].
///
/// The layer stores the weight once, transposed: W^T [In, Out]. With the
/// output dimension contiguous, every transformer (forward/backward, the
/// point maps and both box maps) runs as independent per-output
/// ascending-k accumulation chains that vectorize across outputs, and is
/// bit-identical to the [Out, In] dot-product form (see the kernel
/// contracts in tensor/ops.h). |W| is taken on the fly, so no second copy
/// of the weight is ever resident. The [Out, In] view exists only at the
/// boundary: setWeight()/weight(), serialization and initialization.
class Linear : public Layer {
public:
  Linear(int64_t InFeatures, int64_t OutFeatures);

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  Tensor applyAffine(const Tensor &Points) const override;
  Tensor applyLinear(const Tensor &Points) const override;
  void applyToBox(Tensor &Center, Tensor &Radius) const override;
  void applyToBoxSound(Tensor &Center, Tensor &Radius) const override;
  int64_t accumulationDepth() const override { return InFeatures + 1; }
  std::vector<Param> params() override;
  std::optional<Shape> tryOutputShape(const Shape &InputShape,
                                      std::string &Error) const override;
  std::string describe() const override;
  uint64_t fingerprint() const override {
    // Structural seed from the base hash (kind + description), parameter
    // bits memoized against the parameter generation.
    return Generation.paramFingerprint(Layer::fingerprint(),
                                       {&WeightT, &Bias});
  }

  int64_t inFeatures() const { return InFeatures; }
  int64_t outFeatures() const { return OutFeatures; }
  /// The weight in the [Out, In] layout, as a fresh copy. Const so that
  /// `weight() = W` fails to compile instead of assigning a temporary.
  const Tensor weight() const;
  /// Replace the weight from the [Out, In] layout.
  void setWeight(const Tensor &W);
  // Mutable parameter access advances the generation (see
  // nn/abs_cache.h for the contract).
  Tensor &bias() {
    Generation.invalidate();
    return Bias;
  }
  const Tensor &bias() const { return Bias; }

private:
  int64_t InFeatures;
  int64_t OutFeatures;
  Tensor WeightT;     // [In, Out]
  Tensor Bias;        // [Out]
  Tensor GradWeightT; // [In, Out]
  Tensor GradBias;    // [Out]
  Tensor CachedInput;
  ParamGeneration Generation;
};

} // namespace genprove

#endif // GENPROVE_NN_LINEAR_H
