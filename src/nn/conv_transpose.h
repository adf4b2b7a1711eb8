//===- nn/conv_transpose.h - Transposed convolution layer ------*- C++ -*-===//

#ifndef GENPROVE_NN_CONV_TRANSPOSE_H
#define GENPROVE_NN_CONV_TRANSPOSE_H

#include "src/nn/abs_cache.h"
#include "src/nn/layer.h"
#include "src/tensor/ops.h"

namespace genprove {

/// Transposed 2-D convolution (a.k.a. fractionally strided convolution) as
/// used by the paper's decoders; weight layout [IC, OC, KH, KW].
class ConvTranspose2d : public Layer {
public:
  ConvTranspose2d(int64_t InChannels, int64_t OutChannels, int64_t Kernel,
                  int64_t Stride, int64_t Padding, int64_t OutputPadding);

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  Tensor applyAffine(const Tensor &Points) const override;
  Tensor applyLinear(const Tensor &Points) const override;
  void applyToBox(Tensor &Center, Tensor &Radius) const override;
  int64_t accumulationDepth() const override {
    // Each output pixel gathers at most InChannels * KH * KW scattered
    // contributions, plus the bias.
    return Geom.InChannels * Geom.KernelH * Geom.KernelW + 1;
  }
  std::vector<Param> params() override;
  std::optional<Shape> tryOutputShape(const Shape &InputShape,
                                      std::string &Error) const override;
  std::string describe() const override;
  uint64_t fingerprint() const override {
    return Generation.paramFingerprint(Layer::fingerprint(), {&Weight, &Bias});
  }

  const ConvGeometry &geometry() const { return Geom; }
  // Mutable parameter access advances the parameter generation (see
  // nn/abs_cache.h for the contract).
  Tensor &weight() {
    Generation.invalidate();
    return Weight;
  }
  Tensor &bias() {
    Generation.invalidate();
    return Bias;
  }
  const Tensor &weight() const { return Weight; }
  const Tensor &bias() const { return Bias; }

private:
  ConvGeometry Geom;
  Tensor Weight;     // [IC, OC, KH, KW]
  Tensor Bias;       // [OC]
  Tensor GradWeight;
  Tensor GradBias;
  Tensor CachedInput;
  ParamGeneration Generation;
};

} // namespace genprove

#endif // GENPROVE_NN_CONV_TRANSPOSE_H
