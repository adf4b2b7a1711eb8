//===- tests/batch_cache_test.cpp - cross-query amortization ----*- C++ -*-===//
///
/// \file
/// The two halves of the amortization layer (docs/PERFORMANCE.md):
///
///  * Batched propagation: propagateSegmentsBatch and the convex-domain
///    *Batch entry points must return bounds bit-identical to a per-query
///    loop — at any thread count and in both rounding modes. "Identical"
///    here is EXPECT_EQ on doubles, not a tolerance: the batched GEMM
///    stacks rows of independent queries, so every arithmetic operation
///    must be literally the same.
///
///  * PropagationCache: warm starts must never change bounds (only skip
///    work), entries must stay within the byte budget via LRU eviction,
///    and a weight mutation through any mutable accessor must invalidate
///    the keys (the parameter-generation regression).
///
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/box_domain.h"
#include "src/domains/hybrid_zonotope.h"
#include "src/domains/prop_cache.h"
#include "src/domains/zonotope.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/parallel/thread_pool.h"
#include "src/util/fp.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace genprove {
namespace {

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims,
                         double Scale = 0.8) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, Scale));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.4);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

std::vector<std::pair<Tensor, Tensor>> makeSegments(int64_t K, int64_t Dim,
                                                    Rng &R) {
  std::vector<std::pair<Tensor, Tensor>> Segments;
  for (int64_t I = 0; I < K; ++I)
    Segments.emplace_back(Tensor::randn({1, Dim}, R),
                          Tensor::randn({1, Dim}, R));
  return Segments;
}

/// Pin the global pool for the test body, restore on scope exit.
struct PoolScope {
  explicit PoolScope(int64_t Threads) {
    ThreadPool::global().setThreads(Threads);
  }
  ~PoolScope() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

/// Scoped cache budget: configures the process-wide cache and always
/// returns it to the disabled default so tests cannot leak state.
struct CacheScope {
  explicit CacheScope(size_t BudgetBytes) {
    PropagationCache::global().configure(BudgetBytes);
  }
  ~CacheScope() { PropagationCache::global().configure(0); }
};

// ---------------------------------------------------------------------------
// Batched == sequential, bit for bit.
// ---------------------------------------------------------------------------

/// (threads, sound rounding) grid shared by the bit-identity tests.
class BatchBitIdentity
    : public ::testing::TestWithParam<std::tuple<int64_t, bool>> {};

TEST_P(BatchBitIdentity, GenProveEngineMatchesPerQueryLoop) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(31);
  Sequential Net = makeRandomMlp(R, {4, 14, 10, 3});
  const auto Segments = makeSegments(6, 4, R);
  const std::vector<OutputSpec> Specs = {OutputSpec::argmaxWins(0, 3),
                                         OutputSpec::argmaxWins(2, 3)};

  GenProveConfig Config; // exact probabilistic, cache off by default
  const GenProve Analyzer(Config);
  const std::vector<PropagatedState> Batched =
      Analyzer.propagateSegmentsBatch(Net.view(), Shape({1, 4}), Segments);
  ASSERT_EQ(Batched.size(), Segments.size());

  for (size_t I = 0; I < Segments.size(); ++I) {
    const PropagatedState Solo = Analyzer.propagateSegment(
        Net.view(), Shape({1, 4}), Segments[I].first, Segments[I].second);
    ASSERT_FALSE(Batched[I].OutOfMemory);
    ASSERT_FALSE(Solo.OutOfMemory);
    for (const OutputSpec &Spec : Specs) {
      const ProbBounds A = Analyzer.boundsFor(Batched[I], Spec);
      const ProbBounds B = Analyzer.boundsFor(Solo, Spec);
      EXPECT_EQ(A.Lower, B.Lower) << "segment " << I;
      EXPECT_EQ(A.Upper, B.Upper) << "segment " << I;
    }
  }
}

TEST_P(BatchBitIdentity, ConvexDomainsMatchPerSegmentLoop) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(47);
  Sequential Net = makeRandomMlp(R, {3, 12, 8, 2});
  const auto Segments = makeSegments(5, 3, R);
  const std::vector<OutputSpec> Specs = {OutputSpec::argmaxWins(0, 2),
                                         OutputSpec::argmaxWins(1, 2)};
  const Shape In({1, 3});

  struct Domain {
    const char *Name;
    std::function<std::vector<std::vector<ConvexResult>>()> Batch;
    std::function<std::vector<ConvexResult>(size_t)> Solo;
  };
  DeviceMemoryModel Unlimited(0);
  const std::vector<Domain> Domains = {
      {"box",
       [&] {
         return analyzeBoxBatch(Net.view(), In, Segments, Specs, Unlimited);
       },
       [&](size_t I) {
         return analyzeBoxMulti(Net.view(), In, Segments[I].first,
                                Segments[I].second, Specs, Unlimited);
       }},
      {"zonotope",
       [&] {
         return analyzeZonotopeBatch(Net.view(), In, Segments, Specs,
                                     ZonotopeKind::Zonotope, Unlimited);
       },
       [&](size_t I) {
         return analyzeZonotopeMulti(Net.view(), In, Segments[I].first,
                                     Segments[I].second, Specs,
                                     ZonotopeKind::Zonotope, Unlimited);
       }},
      {"deepzono",
       [&] {
         return analyzeZonotopeBatch(Net.view(), In, Segments, Specs,
                                     ZonotopeKind::DeepZono, Unlimited);
       },
       [&](size_t I) {
         return analyzeZonotopeMulti(Net.view(), In, Segments[I].first,
                                     Segments[I].second, Specs,
                                     ZonotopeKind::DeepZono, Unlimited);
       }},
      {"hybrid",
       [&] {
         return analyzeHybridZonotopeBatch(Net.view(), In, Segments, Specs,
                                           Unlimited);
       },
       [&](size_t I) {
         return analyzeHybridZonotopeMulti(Net.view(), In, Segments[I].first,
                                           Segments[I].second, Specs,
                                           Unlimited);
       }},
  };

  for (const Domain &D : Domains) {
    const auto Batched = D.Batch();
    ASSERT_EQ(Batched.size(), Segments.size()) << D.Name;
    for (size_t I = 0; I < Segments.size(); ++I) {
      const auto Solo = D.Solo(I);
      ASSERT_EQ(Batched[I].size(), Specs.size()) << D.Name;
      for (size_t J = 0; J < Specs.size(); ++J) {
        EXPECT_EQ(Batched[I][J].Bounds.Lower, Solo[J].Bounds.Lower)
            << D.Name << " segment " << I << " spec " << J;
        EXPECT_EQ(Batched[I][J].Bounds.Upper, Solo[J].Bounds.Upper)
            << D.Name << " segment " << I << " spec " << J;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndRounding, BatchBitIdentity,
                         ::testing::Combine(::testing::Values<int64_t>(1, 4),
                                            ::testing::Bool()));

/// Non-batchable configurations (resilience, refinement schedules, input
/// splits) must silently take the sequential path with unchanged values.
TEST(BatchFallback, ResilientConfigFallsBackToSequentialValues) {
  Rng R(53);
  Sequential Net = makeRandomMlp(R, {3, 10, 2});
  const auto Segments = makeSegments(3, 3, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  GenProveConfig Config;
  Config.Resilience.Enabled = true;
  const GenProve Analyzer(Config);
  const auto Batched =
      Analyzer.propagateSegmentsBatch(Net.view(), Shape({1, 3}), Segments);
  ASSERT_EQ(Batched.size(), Segments.size());
  for (size_t I = 0; I < Segments.size(); ++I) {
    const PropagatedState Solo = Analyzer.propagateSegment(
        Net.view(), Shape({1, 3}), Segments[I].first, Segments[I].second);
    const ProbBounds A = Analyzer.boundsFor(Batched[I], Spec);
    const ProbBounds B = Analyzer.boundsFor(Solo, Spec);
    EXPECT_EQ(A.Lower, B.Lower) << "segment " << I;
    EXPECT_EQ(A.Upper, B.Upper) << "segment " << I;
  }
}

// ---------------------------------------------------------------------------
// PropagationCache.
// ---------------------------------------------------------------------------

TEST(PropagationCacheTest, WarmStartIsHitAndBitIdentical) {
  CacheScope Cache(32u << 20);
  Rng R(11);
  Sequential Net = makeRandomMlp(R, {4, 12, 8, 3});
  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(1, 3);
  const GenProve Analyzer(GenProveConfig{});

  const auto Before = PropagationCache::global().snapshot();
  const PropagatedState Cold =
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End);
  const auto AfterCold = PropagationCache::global().snapshot();
  EXPECT_EQ(AfterCold.Misses, Before.Misses + 1);
  EXPECT_GT(AfterCold.Insertions, Before.Insertions);

  const PropagatedState Warm =
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End);
  const auto AfterWarm = PropagationCache::global().snapshot();
  EXPECT_EQ(AfterWarm.Hits, AfterCold.Hits + 1);

  const ProbBounds A = Analyzer.boundsFor(Cold, Spec);
  const ProbBounds B = Analyzer.boundsFor(Warm, Spec);
  EXPECT_EQ(A.Lower, B.Lower);
  EXPECT_EQ(A.Upper, B.Upper);
}

TEST(PropagationCacheTest, WarmEqualsColdUnderSoundRounding) {
  SoundRoundingScope Sound(true);
  Rng R(13);
  Sequential Net = makeRandomMlp(R, {4, 12, 8, 3});
  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 3);
  const GenProve Analyzer(GenProveConfig{});

  // Reference bounds with the cache off.
  const ProbBounds Reference = Analyzer.boundsFor(
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End), Spec);

  CacheScope Cache(32u << 20);
  const ProbBounds Cold = Analyzer.boundsFor(
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End), Spec);
  const ProbBounds Warm = Analyzer.boundsFor(
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End), Spec);
  EXPECT_EQ(Reference.Lower, Cold.Lower);
  EXPECT_EQ(Reference.Upper, Cold.Upper);
  EXPECT_EQ(Reference.Lower, Warm.Lower);
  EXPECT_EQ(Reference.Upper, Warm.Upper);
}

/// Two pipelines sharing a prefix (same decoder, different heads): the
/// second propagation must warm-start mid-network off the shared-prefix
/// boundary state, and still match its own cold bounds exactly.
TEST(PropagationCacheTest, PrefixSharedPipelinesWarmStartMidNetwork) {
  Rng R(17);
  Sequential Shared = makeRandomMlp(R, {4, 12, 8});
  auto HeadA = std::make_unique<Linear>(8, 3);
  HeadA->setWeight(Tensor::randn({3, 8}, R, 0.8));
  HeadA->bias() = Tensor::randn({3}, R, 0.4);
  auto HeadB = std::make_unique<Linear>(8, 3);
  HeadB->setWeight(Tensor::randn({3, 8}, R, 0.8));
  HeadB->bias() = Tensor::randn({3}, R, 0.4);

  std::vector<const Layer *> PipeA = Shared.view();
  PipeA.push_back(HeadA.get());
  std::vector<const Layer *> PipeB = Shared.view();
  PipeB.push_back(HeadB.get());

  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(2, 3);
  const GenProve Analyzer(GenProveConfig{});

  // Cold reference for pipeline B, cache off.
  const ProbBounds ColdB = Analyzer.boundsFor(
      Analyzer.propagateSegment(PipeB, Shape({1, 4}), Start, End), Spec);

  CacheScope Cache(32u << 20);
  (void)Analyzer.propagateSegment(PipeA, Shape({1, 4}), Start, End);
  const auto AfterA = PropagationCache::global().snapshot();
  const ProbBounds WarmB = Analyzer.boundsFor(
      Analyzer.propagateSegment(PipeB, Shape({1, 4}), Start, End), Spec);
  const auto AfterB = PropagationCache::global().snapshot();

  // B shares A's prefix boundary states: the probe finds one (a hit, not
  // a full-depth one), and the bounds still match B's own cold run.
  EXPECT_EQ(AfterB.Hits, AfterA.Hits + 1);
  EXPECT_EQ(WarmB.Lower, ColdB.Lower);
  EXPECT_EQ(WarmB.Upper, ColdB.Upper);
}

/// The parameter-generation regression: mutating a weight through a
/// setter must advance the generation, change the layer
/// fingerprint, and therefore miss the propagation cache instead of
/// serving bounds for the stale parameters.
TEST(PropagationCacheTest, WeightMutationInvalidatesCachedStates) {
  Rng R(19);
  auto L = std::make_unique<Linear>(3, 2);
  L->setWeight(Tensor::randn({2, 3}, R, 0.8));
  L->bias() = Tensor::randn({2}, R, 0.4);
  Linear *Raw = L.get();
  Sequential Net;
  Net.add(std::move(L));

  const uint64_t FpBefore = Raw->fingerprint();
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  const GenProve Analyzer(GenProveConfig{});

  CacheScope Cache(32u << 20);
  (void)Analyzer.propagateSegment(Net.view(), Shape({1, 3}), Start, End);

  // Mutate through the setter: generation and fingerprint move.
  Tensor W = Raw->weight();
  W[0] += 0.25;
  Raw->setWeight(W);
  const uint64_t FpAfter = Raw->fingerprint();
  EXPECT_NE(FpBefore, FpAfter);
  // So does a write through params(), the path optimizers take.
  (*Raw->params()[0].Value)[1] -= 0.5;
  EXPECT_NE(Raw->fingerprint(), FpAfter);

  const auto BeforeRerun = PropagationCache::global().snapshot();
  const PropagatedState Fresh =
      Analyzer.propagateSegment(Net.view(), Shape({1, 3}), Start, End);
  const auto AfterRerun = PropagationCache::global().snapshot();
  EXPECT_EQ(AfterRerun.Misses, BeforeRerun.Misses + 1)
      << "stale entry served after weight mutation";

  // And the bounds match a cache-off propagation of the mutated net.
  PropagationCache::global().clear();
  PropagationCache::global().configure(0);
  const PropagatedState Reference =
      Analyzer.propagateSegment(Net.view(), Shape({1, 3}), Start, End);
  EXPECT_EQ(Analyzer.boundsFor(Fresh, Spec).Lower,
            Analyzer.boundsFor(Reference, Spec).Lower);
  EXPECT_EQ(Analyzer.boundsFor(Fresh, Spec).Upper,
            Analyzer.boundsFor(Reference, Spec).Upper);
}

TEST(PropagationCacheTest, EvictionKeepsBytesWithinBudget) {
  Rng R(23);
  Sequential Net = makeRandomMlp(R, {4, 16, 12, 3});
  const GenProve Analyzer(GenProveConfig{});

  // A budget far too small for every distinct query's boundary states.
  CacheScope Cache(16u << 10);
  const size_t Budget = PropagationCache::global().budgetBytes();
  for (int I = 0; I < 12; ++I) {
    const Tensor Start = Tensor::randn({1, 4}, R);
    const Tensor End = Tensor::randn({1, 4}, R);
    (void)Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End);
    EXPECT_LE(PropagationCache::global().bytes(), Budget);
  }
  const auto S = PropagationCache::global().snapshot();
  EXPECT_GT(S.Evictions, 0) << "budget never exerted pressure";
  EXPECT_LE(S.Bytes, S.BudgetBytes);
}

TEST(PropagationCacheTest, ConfigureZeroDisablesAndDrops) {
  Rng R(29);
  Sequential Net = makeRandomMlp(R, {3, 8, 2});
  const GenProve Analyzer(GenProveConfig{});
  {
    CacheScope Cache(8u << 20);
    (void)Analyzer.propagateSegment(Net.view(), Shape({1, 3}),
                                    Tensor::randn({1, 3}, R),
                                    Tensor::randn({1, 3}, R));
    EXPECT_GT(PropagationCache::global().bytes(), 0u);
  }
  EXPECT_FALSE(PropagationCache::global().enabled());
  EXPECT_EQ(PropagationCache::global().bytes(), 0u);
}

/// Batched propagations go through the cache as one joint state: a
/// repeated batch warm-starts whole, and the per-query bounds stay
/// bit-identical to the cold batch.
TEST(PropagationCacheTest, RepeatedBatchWarmStartsJointState) {
  Rng R(37);
  Sequential Net = makeRandomMlp(R, {4, 12, 3});
  const auto Segments = makeSegments(4, 4, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 3);
  const GenProve Analyzer(GenProveConfig{});

  CacheScope Cache(32u << 20);
  const auto Cold =
      Analyzer.propagateSegmentsBatch(Net.view(), Shape({1, 4}), Segments);
  const auto AfterCold = PropagationCache::global().snapshot();
  const auto Warm =
      Analyzer.propagateSegmentsBatch(Net.view(), Shape({1, 4}), Segments);
  const auto AfterWarm = PropagationCache::global().snapshot();
  EXPECT_GT(AfterWarm.Hits, AfterCold.Hits);
  ASSERT_EQ(Cold.size(), Warm.size());
  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_EQ(Analyzer.boundsFor(Cold[I], Spec).Lower,
              Analyzer.boundsFor(Warm[I], Spec).Lower);
    EXPECT_EQ(Analyzer.boundsFor(Cold[I], Spec).Upper,
              Analyzer.boundsFor(Warm[I], Spec).Upper);
  }
}

} // namespace
} // namespace genprove
