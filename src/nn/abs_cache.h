//===- nn/abs_cache.h - Parameter generations and cached |W| ---*- C++ -*-===//
///
/// \file
/// Two pieces of per-layer parameter bookkeeping:
///
///  * ParamGeneration: a generation counter that advances whenever the
///    parameters may have been mutated, with the layer's parameter
///    fingerprint (what the propagation cache keys on) memoized against
///    it. Every parameterized layer owns one.
///  * AbsWeightCache: a ParamGeneration that also memoizes the elementwise
///    |W| that Conv2d feeds to its interval (box) kernel, so applyToBox
///    does not clone + fabs the weight tensor on every call; the cache
///    builds |W| once and rebuilds only after an invalidate(). Only
///    Conv2d still keeps this resident copy. Linear and ConvTranspose2d
///    take |W| on the fly — Linear in its transposed-layout kernels,
///    ConvTranspose2d while it packs its per-phase weight matrices — so
///    they own a bare ParamGeneration.
///
/// Invalidation contract: the owning layer bumps the generation from every
/// path that can hand out mutable parameter access (the non-const
/// weight()/bias() accessors, weight setters and params()). Training loops
/// re-fetch params() each step, so a stale |W| or fingerprint cannot
/// survive into a subsequent verification pass.
///
/// Thread safety: get() and paramFingerprint() are safe for concurrent
/// readers — parallel bench grid cells share Layer objects — via a mutex
/// that also serializes the one-time rebuild. Mutating weights while a
/// verification is in flight is not supported (that is a data race on
/// the weight tensor itself, independent of this cache).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_NN_ABS_CACHE_H
#define GENPROVE_NN_ABS_CACHE_H

#include "src/tensor/tensor.h"
#include "src/util/hash.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <mutex>

namespace genprove {

class ParamGeneration {
public:
  /// Mark everything derived from the parameters stale; cheap, called
  /// from parameter accessors.
  void invalidate() { Version.fetch_add(1, std::memory_order_relaxed); }

  /// Explicit generation counter: advances on every invalidate(), so any
  /// derived artifact (a memoized |W|, a parameter fingerprint, a
  /// propagation-cache key) can detect that the weights were mutated
  /// since it was built. Never 0 — derived caches can use 0 as "never
  /// built".
  uint64_t generation() const {
    return Version.load(std::memory_order_acquire);
  }

  /// Memoized FNV-1a fingerprint over the bit patterns of the given
  /// parameter tensors, seeded with \p Seed (the layer's structural
  /// hash). Rebuilt only when the generation has advanced, so a weight
  /// mutation through any mutable accessor is guaranteed to change the
  /// fingerprint the propagation cache keys on.
  uint64_t paramFingerprint(uint64_t Seed,
                            std::initializer_list<const Tensor *> Ts) const {
    std::lock_guard<std::mutex> Lock(Mu);
    const uint64_t V = Version.load(std::memory_order_acquire);
    if (FpVersion != V || FpSeed != Seed) {
      uint64_t H = hashing::hashU64(hashing::FnvOffset, Seed);
      for (const Tensor *T : Ts) {
        H = hashing::hashU64(H, static_cast<uint64_t>(T->numel()));
        H = hashing::hashBytes(H, T->data(),
                               static_cast<size_t>(T->numel()) *
                                   sizeof(double));
      }
      Fp = H;
      FpVersion = V;
      FpSeed = Seed;
    }
    return Fp;
  }

protected:
  std::atomic<uint64_t> Version{1};
  mutable std::mutex Mu;

private:
  mutable uint64_t Fp = 0;
  mutable uint64_t FpVersion = 0;
  mutable uint64_t FpSeed = 0;
};

class AbsWeightCache : public ParamGeneration {
public:
  /// |W| for the given weight tensor, rebuilt only when stale. The
  /// reference stays valid until the next invalidate()+get() pair.
  const Tensor &get(const Tensor &W) const {
    std::lock_guard<std::mutex> Lock(Mu);
    // Snapshot the version before cloning: an invalidate() racing with
    // the rebuild leaves BuiltVersion behind, forcing the next get() to
    // rebuild again rather than serving a half-stale |W|.
    const uint64_t V = Version.load(std::memory_order_acquire);
    if (BuiltVersion != V) {
      Abs = W.clone();
      double *D = Abs.data();
      for (int64_t I = 0; I < Abs.numel(); ++I)
        D[I] = std::fabs(D[I]);
      BuiltVersion = V;
    }
    return Abs;
  }

private:
  mutable Tensor Abs;
  mutable uint64_t BuiltVersion = 0;
};

} // namespace genprove

#endif // GENPROVE_NN_ABS_CACHE_H
