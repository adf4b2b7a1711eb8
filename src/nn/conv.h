//===- nn/conv.h - 2-D convolution layer -----------------------*- C++ -*-===//

#ifndef GENPROVE_NN_CONV_H
#define GENPROVE_NN_CONV_H

#include "src/nn/abs_cache.h"
#include "src/nn/layer.h"
#include "src/tensor/ops.h"

namespace genprove {

/// 2-D convolution over NCHW activations; weight layout [OC, IC, KH, KW].
class Conv2d : public Layer {
public:
  Conv2d(int64_t InChannels, int64_t OutChannels, int64_t Kernel,
         int64_t Stride, int64_t Padding);

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  Tensor applyAffine(const Tensor &Points) const override;
  Tensor applyLinear(const Tensor &Points) const override;
  void applyToBox(Tensor &Center, Tensor &Radius) const override;
  int64_t accumulationDepth() const override {
    return Geom.InChannels * Geom.KernelH * Geom.KernelW + 1;
  }
  std::vector<Param> params() override;
  std::optional<Shape> tryOutputShape(const Shape &InputShape,
                                      std::string &Error) const override;
  std::string describe() const override;
  uint64_t fingerprint() const override {
    return AbsCache.paramFingerprint(Layer::fingerprint(), {&Weight, &Bias});
  }

  const ConvGeometry &geometry() const { return Geom; }
  // Mutable parameter access invalidates the memoized |W| (see
  // nn/abs_cache.h for the contract).
  Tensor &weight() {
    AbsCache.invalidate();
    return Weight;
  }
  Tensor &bias() {
    AbsCache.invalidate();
    return Bias;
  }
  const Tensor &weight() const { return Weight; }
  const Tensor &bias() const { return Bias; }

private:
  ConvGeometry Geom;
  Tensor Weight;     // [OC, IC, KH, KW]
  Tensor Bias;       // [OC]
  Tensor GradWeight;
  Tensor GradBias;
  Tensor CachedInput;
  AbsWeightCache AbsCache;
};

} // namespace genprove

#endif // GENPROVE_NN_CONV_H
