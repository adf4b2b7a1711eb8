//===- nn/init.cpp --------------------------------------------*- C++ -*-===//

#include "src/nn/init.h"

#include "src/nn/conv.h"
#include "src/nn/conv_transpose.h"
#include "src/nn/linear.h"

#include <cmath>

namespace genprove {

void kaimingInit(Sequential &Network, Rng &Generator) {
  for (size_t I = 0; I < Network.size(); ++I) {
    Layer &L = Network.layer(I);
    switch (L.kind()) {
    case Layer::Kind::Linear: {
      auto &Lin = static_cast<Linear &>(L);
      const double Std = std::sqrt(2.0 / static_cast<double>(Lin.inFeatures()));
      // Drawn in the [Out, In] order, so a seed gives the same weights
      // whatever layout the layer stores.
      Tensor W({Lin.outFeatures(), Lin.inFeatures()});
      for (int64_t J = 0; J < W.numel(); ++J)
        W[J] = Generator.normal(0.0, Std);
      Lin.setWeight(W);
      Lin.bias().zero();
      break;
    }
    case Layer::Kind::Conv2d: {
      auto &Conv = static_cast<Conv2d &>(L);
      const auto &G = Conv.geometry();
      const double FanIn =
          static_cast<double>(G.InChannels * G.KernelH * G.KernelW);
      const double Std = std::sqrt(2.0 / FanIn);
      for (int64_t J = 0; J < Conv.weight().numel(); ++J)
        Conv.weight()[J] = Generator.normal(0.0, Std);
      Conv.bias().zero();
      break;
    }
    case Layer::Kind::ConvTranspose2d: {
      auto &Conv = static_cast<ConvTranspose2d &>(L);
      const auto &G = Conv.geometry();
      // Fan-in of a transposed conv is InChannels * k^2 / stride^2 on
      // average; the simple InChannels*k^2 form is fine at this scale.
      const double FanIn =
          static_cast<double>(G.InChannels * G.KernelH * G.KernelW);
      const double Std = std::sqrt(2.0 / FanIn);
      for (int64_t J = 0; J < Conv.weight().numel(); ++J)
        Conv.weight()[J] = Generator.normal(0.0, Std);
      Conv.bias().zero();
      break;
    }
    default:
      break;
    }
  }
}

} // namespace genprove
