//===- train/adversarial.cpp ----------------------------------*- C++ -*-===//

#include "src/train/adversarial.h"

#include "src/nn/conv.h"
#include "src/nn/linear.h"
#include "src/tensor/ops.h"
#include "src/train/loss.h"
#include "src/train/optimizer.h"
#include "src/train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace genprove {

namespace {

Tensor inputGradient(Sequential &Network, const Tensor &Images,
                     const std::vector<int64_t> &Labels) {
  Network.zeroGrads();
  const Tensor Logits = Network.forward(Images);
  Tensor Grad;
  softmaxCrossEntropyLoss(Logits, Labels, Grad);
  Tensor GradInput = Network.backward(Grad);
  Network.zeroGrads(); // attacks must not leak into parameter updates
  return GradInput;
}

Tensor clamp01(Tensor T) {
  for (int64_t I = 0; I < T.numel(); ++I)
    T[I] = std::clamp(T[I], 0.0, 1.0);
  return T;
}

} // namespace

Tensor fgsmAttack(Sequential &Network, const Tensor &Images,
                  const std::vector<int64_t> &Labels, double Epsilon) {
  const Tensor Grad = inputGradient(Network, Images, Labels);
  Tensor Adv = Images.clone();
  for (int64_t I = 0; I < Adv.numel(); ++I)
    Adv[I] += Epsilon * (Grad[I] > 0.0 ? 1.0 : (Grad[I] < 0.0 ? -1.0 : 0.0));
  return clamp01(std::move(Adv));
}

Tensor pgdAttack(Sequential &Network, const Tensor &Images,
                 const std::vector<int64_t> &Labels, double Epsilon,
                 int64_t Steps, double StepSize, Rng &Generator) {
  Tensor Adv = Images.clone();
  for (int64_t I = 0; I < Adv.numel(); ++I)
    Adv[I] += Generator.uniform(-Epsilon, Epsilon);
  Adv = clamp01(std::move(Adv));
  for (int64_t Step = 0; Step < Steps; ++Step) {
    const Tensor Grad = inputGradient(Network, Adv, Labels);
    for (int64_t I = 0; I < Adv.numel(); ++I) {
      Adv[I] += StepSize *
                (Grad[I] > 0.0 ? 1.0 : (Grad[I] < 0.0 ? -1.0 : 0.0));
      // Project back into the epsilon ball.
      Adv[I] = std::clamp(Adv[I], Images[I] - Epsilon, Images[I] + Epsilon);
      Adv[I] = std::clamp(Adv[I], 0.0, 1.0);
    }
  }
  return Adv;
}

double pgdAccuracy(Sequential &Network, const Dataset &Set, double Epsilon,
                   int64_t Steps, Rng &Generator) {
  const int64_t N = Set.numImages();
  int64_t Correct = 0;
  const int64_t Chunk = 64;
  for (int64_t Start = 0; Start < N; Start += Chunk) {
    const int64_t End = std::min(N, Start + Chunk);
    std::vector<int64_t> Idx;
    std::vector<int64_t> Labels;
    for (int64_t I = Start; I < End; ++I) {
      Idx.push_back(I);
      Labels.push_back(Set.Labels[static_cast<size_t>(I)]);
    }
    const Tensor Batch = gatherImages(Set, Idx);
    const Tensor Adv = pgdAttack(Network, Batch, Labels, Epsilon, Steps,
                                 Epsilon / 2.0, Generator);
    const auto Pred = argmaxRows(Network.predict(Adv));
    for (size_t I = 0; I < Labels.size(); ++I)
      if (Pred[I] == Labels[I])
        ++Correct;
  }
  return static_cast<double>(Correct) / static_cast<double>(N);
}

//===----------------------------------------------------------------------===//
// Differentiable interval bound propagation.
//===----------------------------------------------------------------------===//

namespace {

/// Split a weight tensor into positive and negative parts.
void splitWeight(const Tensor &W, Tensor &Pos, Tensor &Neg) {
  Pos = Tensor(W.shape());
  Neg = Tensor(W.shape());
  for (int64_t I = 0; I < W.numel(); ++I) {
    Pos[I] = std::max(W[I], 0.0);
    Neg[I] = std::min(W[I], 0.0);
  }
}

IbpBounds ibpForwardImpl(Sequential &Network, const Tensor &LoIn,
                         const Tensor &HiIn, std::vector<IbpCache> *Caches) {
  Tensor Lo = LoIn;
  Tensor Hi = HiIn;
  for (size_t LayerIdx = 0; LayerIdx < Network.size(); ++LayerIdx) {
    Layer &L = Network.layer(LayerIdx);
    if (Caches)
      (*Caches)[LayerIdx] = {Lo, Hi};
    switch (L.kind()) {
    case Layer::Kind::Linear: {
      auto &Lin = static_cast<Linear &>(L);
      Tensor Pos, Neg;
      splitWeight(Lin.weight(), Pos, Neg); // [Out, In]
      Tensor NewLo = matmulTransB(Lo, Pos);
      NewLo.addInPlace(matmulTransB(Hi, Neg));
      Tensor NewHi = matmulTransB(Hi, Pos);
      NewHi.addInPlace(matmulTransB(Lo, Neg));
      for (int64_t I = 0; I < NewLo.dim(0); ++I)
        for (int64_t J = 0; J < NewLo.dim(1); ++J) {
          NewLo.at(I, J) += Lin.bias()[J];
          NewHi.at(I, J) += Lin.bias()[J];
        }
      Lo = std::move(NewLo);
      Hi = std::move(NewHi);
      break;
    }
    case Layer::Kind::Conv2d: {
      auto &Conv = static_cast<Conv2d &>(L);
      Tensor Pos, Neg;
      splitWeight(Conv.weight(), Pos, Neg);
      Tensor NewLo = conv2d(Lo, Pos, Conv.bias(), Conv.geometry());
      NewLo.addInPlace(conv2d(Hi, Neg, Tensor(), Conv.geometry()));
      Tensor NewHi = conv2d(Hi, Pos, Conv.bias(), Conv.geometry());
      NewHi.addInPlace(conv2d(Lo, Neg, Tensor(), Conv.geometry()));
      Lo = std::move(NewLo);
      Hi = std::move(NewHi);
      break;
    }
    case Layer::Kind::ReLU:
      Lo = relu(Lo);
      Hi = relu(Hi);
      break;
    case Layer::Kind::Flatten: {
      Lo = L.applyAffine(Lo);
      Hi = L.applyAffine(Hi);
      break;
    }
    default:
      fatalError("IBP does not support layer: " + L.describe());
    }
  }
  return {std::move(Lo), std::move(Hi)};
}

} // namespace

void ibpBackward(Sequential &Network, const std::vector<IbpCache> &Caches,
                 Tensor DLo, Tensor DHi) {
  for (size_t Rev = Network.size(); Rev-- > 0;) {
    Layer &L = Network.layer(Rev);
    const IbpCache &Cache = Caches[Rev];
    switch (L.kind()) {
    case Layer::Kind::Linear: {
      auto &Lin = static_cast<Linear &>(L);
      const Tensor W = Lin.weight(); // [Out, In]
      Tensor Pos, Neg;
      splitWeight(W, Pos, Neg);
      auto Params = Lin.params();
      Tensor &GradW = *Params[0].Grad; // the layer's [In, Out] layout
      Tensor &GradB = *Params[1].Grad;
      // dW accumulates through whichever branch (pos/neg) the entry uses.
      Tensor GwPos = matmulTransA(DLo, Cache.LoIn); // lo' <- pos * lo
      GwPos.addInPlace(matmulTransA(DHi, Cache.HiIn));
      Tensor GwNeg = matmulTransA(DLo, Cache.HiIn);
      GwNeg.addInPlace(matmulTransA(DHi, Cache.LoIn));
      const int64_t Out = Lin.outFeatures(), In = Lin.inFeatures();
      for (int64_t O = 0; O < Out; ++O)
        for (int64_t J = 0; J < In; ++J) {
          const int64_t I = O * In + J;
          GradW[J * Out + O] += W[I] >= 0.0 ? GwPos[I] : GwNeg[I];
        }
      for (int64_t I = 0; I < DLo.dim(0); ++I)
        for (int64_t J = 0; J < DLo.dim(1); ++J)
          GradB[J] += DLo.at(I, J) + DHi.at(I, J);
      Tensor NewDLo = matmul(DLo, Pos);
      NewDLo.addInPlace(matmul(DHi, Neg));
      Tensor NewDHi = matmul(DHi, Pos);
      NewDHi.addInPlace(matmul(DLo, Neg));
      DLo = std::move(NewDLo);
      DHi = std::move(NewDHi);
      break;
    }
    case Layer::Kind::Conv2d: {
      auto &Conv = static_cast<Conv2d &>(L);
      Tensor Pos, Neg;
      splitWeight(Conv.weight(), Pos, Neg);
      auto Params = Conv.params();
      Tensor &GradW = *Params[0].Grad;
      Tensor &GradB = *Params[1].Grad;
      Tensor GwPos(Conv.weight().shape());
      Tensor GwNeg(Conv.weight().shape());
      Tensor GbScratch(GradB.shape());
      // Four data paths: (lo,Pos)->lo', (hi,Neg)->lo', (hi,Pos)->hi',
      // (lo,Neg)->hi'.
      Tensor NewDLo = conv2dBackward(Cache.LoIn, Pos, DLo, Conv.geometry(),
                                     GwPos, GbScratch);
      NewDLo.addInPlace(conv2dBackward(Cache.LoIn, Neg, DHi, Conv.geometry(),
                                       GwNeg, GbScratch));
      Tensor NewDHi = conv2dBackward(Cache.HiIn, Pos, DHi, Conv.geometry(),
                                     GwPos, GbScratch);
      NewDHi.addInPlace(conv2dBackward(Cache.HiIn, Neg, DLo, Conv.geometry(),
                                       GwNeg, GbScratch));
      for (int64_t I = 0; I < GradW.numel(); ++I)
        GradW[I] += Conv.weight()[I] >= 0.0 ? GwPos[I] : GwNeg[I];
      // Bias contributes to both bounds once each (GbScratch counted both
      // DLo and DHi exactly once across the four calls above... but each
      // was added twice, once per weight sign split), so halve it.
      for (int64_t I = 0; I < GradB.numel(); ++I)
        GradB[I] += 0.5 * GbScratch[I];
      DLo = std::move(NewDLo);
      DHi = std::move(NewDHi);
      break;
    }
    case Layer::Kind::ReLU: {
      for (int64_t I = 0; I < DLo.numel(); ++I) {
        DLo[I] *= Cache.LoIn[I] > 0.0 ? 1.0 : 0.0;
        DHi[I] *= Cache.HiIn[I] > 0.0 ? 1.0 : 0.0;
      }
      break;
    }
    case Layer::Kind::Flatten: {
      DLo = DLo.reshaped(Cache.LoIn.shape());
      DHi = DHi.reshaped(Cache.HiIn.shape());
      break;
    }
    default:
      fatalError("IBP backward does not support layer: " + L.describe());
    }
  }
}

namespace {

/// Worst-case logits: lower bound for the true class, upper elsewhere.
Tensor worstCaseLogits(const IbpBounds &Bounds,
                       const std::vector<int64_t> &Labels) {
  Tensor Z = Bounds.Hi.clone();
  for (int64_t I = 0; I < Z.dim(0); ++I)
    Z.at(I, Labels[static_cast<size_t>(I)]) =
        Bounds.Lo.at(I, Labels[static_cast<size_t>(I)]);
  return Z;
}

} // namespace

IbpBounds ibpForward(Sequential &Network, const Tensor &LoIn,
                     const Tensor &HiIn) {
  return ibpForwardImpl(Network, LoIn, HiIn, nullptr);
}

IbpBounds ibpForwardCached(Sequential &Network, const Tensor &LoIn,
                           const Tensor &HiIn, std::vector<IbpCache> &Caches) {
  Caches.resize(Network.size());
  return ibpForwardImpl(Network, LoIn, HiIn, &Caches);
}

double boxProvableAccuracy(Sequential &Network, const Dataset &Set,
                           double Epsilon) {
  const int64_t N = Set.numImages();
  int64_t Certified = 0;
  const int64_t Chunk = 64;
  for (int64_t Start = 0; Start < N; Start += Chunk) {
    const int64_t End = std::min(N, Start + Chunk);
    std::vector<int64_t> Idx;
    for (int64_t I = Start; I < End; ++I)
      Idx.push_back(I);
    const Tensor Batch = gatherImages(Set, Idx);
    Tensor Lo = Batch.clone(), Hi = Batch.clone();
    for (int64_t I = 0; I < Lo.numel(); ++I) {
      Lo[I] = std::clamp(Lo[I] - Epsilon, 0.0, 1.0);
      Hi[I] = std::clamp(Hi[I] + Epsilon, 0.0, 1.0);
    }
    const IbpBounds Bounds = ibpForward(Network, Lo, Hi);
    for (size_t I = 0; I < Idx.size(); ++I) {
      const int64_t Label = Set.Labels[static_cast<size_t>(Idx[I])];
      bool Ok = true;
      for (int64_t J = 0; J < Bounds.Lo.dim(1); ++J)
        if (J != Label && Bounds.Hi.at(static_cast<int64_t>(I), J) >=
                              Bounds.Lo.at(static_cast<int64_t>(I), Label))
          Ok = false;
      if (Ok)
        ++Certified;
    }
  }
  return static_cast<double>(Certified) / static_cast<double>(N);
}

void trainRobustClassifier(Sequential &Network, const Dataset &Set,
                           TrainScheme Scheme, const RobustTrainConfig &Config,
                           Rng &Generator) {
  Adam Opt(Network.params(), Config.LearningRate);
  const int64_t N = Set.numImages();
  const int64_t TotalSteps =
      Config.Epochs * ((N + Config.BatchSize - 1) / Config.BatchSize);
  int64_t Step = 0;

  for (int64_t Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    std::vector<int64_t> Order(static_cast<size_t>(N));
    std::iota(Order.begin(), Order.end(), 0);
    for (int64_t I = N - 1; I > 0; --I)
      std::swap(Order[static_cast<size_t>(I)],
                Order[Generator.below(static_cast<uint64_t>(I + 1))]);

    double EpochLoss = 0.0;
    int64_t NumBatches = 0;
    for (int64_t Start = 0; Start < N; Start += Config.BatchSize) {
      const int64_t End = std::min(N, Start + Config.BatchSize);
      const std::vector<int64_t> Idx(Order.begin() + Start,
                                     Order.begin() + End);
      Tensor Batch = gatherImages(Set, Idx);
      std::vector<int64_t> Labels(Idx.size());
      for (size_t I = 0; I < Idx.size(); ++I)
        Labels[I] = Set.Labels[static_cast<size_t>(Idx[I])];

      switch (Scheme) {
      case TrainScheme::Standard: {
        const Tensor Logits = Network.forward(Batch);
        Tensor Grad;
        EpochLoss += softmaxCrossEntropyLoss(Logits, Labels, Grad);
        Network.backward(Grad);
        break;
      }
      case TrainScheme::Fgsm: {
        // 50/50 mixture of clean and FGSM examples (Goodfellow et al.).
        const Tensor Adv =
            fgsmAttack(Network, Batch, Labels, Config.Epsilon);
        {
          const Tensor Logits = Network.forward(Batch);
          Tensor Grad;
          EpochLoss += 0.5 * softmaxCrossEntropyLoss(Logits, Labels, Grad);
          Grad.scaleInPlace(0.5);
          Network.backward(Grad);
        }
        {
          const Tensor Logits = Network.forward(Adv);
          Tensor Grad;
          EpochLoss += 0.5 * softmaxCrossEntropyLoss(Logits, Labels, Grad);
          Grad.scaleInPlace(0.5);
          Network.backward(Grad);
        }
        break;
      }
      case TrainScheme::DiffAiBox: {
        // Gowal et al. schedule as used by DiffAI: a clean warmup for the
        // first 15% of steps, then a slow linear epsilon ramp until 90%,
        // with kappa annealed from 1 to 0.5 alongside it.
        const double Progress =
            static_cast<double>(Step) / std::max<double>(TotalSteps, 1);
        const double Ramp =
            Config.ConstantEpsilon
                ? 1.0
                : std::clamp((Progress - 0.15) / 0.75, 0.0, 1.0);
        const double Eps = Config.Epsilon * Ramp;
        const double Kappa = 1.0 - 0.5 * Ramp; // final mix: 50/50
        // Clean term.
        double CleanNorm = 0.0;
        std::vector<Tensor> CleanGrads;
        {
          const Tensor Logits = Network.forward(Batch);
          Tensor Grad;
          EpochLoss += Kappa * softmaxCrossEntropyLoss(Logits, Labels, Grad);
          Grad.scaleInPlace(Kappa);
          Network.backward(Grad);
          // Stash the clean gradient so the (potentially enormous) IBP
          // gradient can be rescaled relative to it before mixing. Without
          // this the worst-case term dominates every update as soon as the
          // bounds get loose and training collapses to a constant net.
          for (auto &P : Network.params()) {
            CleanGrads.push_back(P.Grad->clone());
            for (int64_t I = 0; I < P.Grad->numel(); ++I)
              CleanNorm += (*P.Grad)[I] * (*P.Grad)[I];
            P.Grad->zero();
          }
          CleanNorm = std::sqrt(CleanNorm);
        }
        // Worst-case interval term.
        if (Eps > 0.0) {
          Tensor Lo = Batch.clone(), Hi = Batch.clone();
          for (int64_t I = 0; I < Lo.numel(); ++I) {
            Lo[I] = std::clamp(Lo[I] - Eps, 0.0, 1.0);
            Hi[I] = std::clamp(Hi[I] + Eps, 0.0, 1.0);
          }
          std::vector<IbpCache> Caches;
          const IbpBounds Bounds = ibpForwardCached(Network, Lo, Hi, Caches);
          const Tensor WorstZ = worstCaseLogits(Bounds, Labels);
          Tensor GradZ;
          EpochLoss +=
              (1.0 - Kappa) * softmaxCrossEntropyLoss(WorstZ, Labels, GradZ);
          GradZ.scaleInPlace(1.0 - Kappa);
          // Split dZ back into dLo (true class) and dHi (others).
          Tensor DLo(GradZ.shape());
          Tensor DHi(GradZ.shape());
          for (int64_t I = 0; I < GradZ.dim(0); ++I)
            for (int64_t J = 0; J < GradZ.dim(1); ++J) {
              if (J == Labels[static_cast<size_t>(I)])
                DLo.at(I, J) = GradZ.at(I, J);
              else
                DHi.at(I, J) = GradZ.at(I, J);
            }
          ibpBackward(Network, Caches, std::move(DLo), std::move(DHi));
          // Keep the certified term comparable to the clean term, with a
          // floor so it keeps tightening bounds once the clean loss is
          // small.
          clipGradientNorm(Network.params(),
                           std::max(Config.IbpGradRatio * CleanNorm, 0.25));
        }
        // Mix the stashed clean gradient back in.
        {
          size_t Idx = 0;
          for (auto &P : Network.params())
            P.Grad->addInPlace(CleanGrads[Idx++]);
        }
        break;
      }
      }
      // IBP losses flow gradients through the (potentially huge) bound
      // magnitudes; clip globally to keep certified training stable.
      if (Scheme == TrainScheme::DiffAiBox)
        clipGradientNorm(Network.params(), 1.0);
      Opt.step();
      ++Step;
      ++NumBatches;
    }
    if (Config.Verbose)
      std::printf("  robust(%d) epoch %lld loss %.4f\n",
                  static_cast<int>(Scheme), static_cast<long long>(Epoch),
                  EpochLoss / static_cast<double>(NumBatches));
  }
}

} // namespace genprove
