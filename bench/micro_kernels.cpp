//===- bench/micro_kernels.cpp - kernel microbenchmarks ---------*- C++ -*-===//
//
// google-benchmark microbenchmarks of the kernels the verifier spends its
// time in: matmul (tiled vs the pre-optimization naive kernel, across
// sizes and thread counts), im2col convolution, transposed convolution,
// concurrent grid-cell style propagation, segment ReLU splitting,
// relaxation, and degree-1 vs degree-2 propagation (the GenProveCurve
// ablation from DESIGN.md).
//
// Emit the machine-readable record with:
//   micro_kernels --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
//
// BM_Instrumentation measures the telemetry plane's own cost — the same
// propagation with metrics off (the relaxed-load fast path) vs on — and is
// recorded separately:
//   micro_kernels --benchmark_filter=BM_Instrumentation \
//                 --benchmark_out=BENCH_obs.json --benchmark_out_format=json
//
// BM_PropagatePerSpec / BM_PropagateBatched / BM_CacheWarmStart measure
// the cross-query amortization layer (docs/PERFORMANCE.md): many segment
// specs through one shared decoder, sequentially vs as one stacked
// abstract state, and a repeated query cold vs warm-started from the
// propagation cache. CI records them to BENCH_batch.json:
//   micro_kernels --benchmark_filter='BM_Propagate(PerSpec|Batched)|BM_CacheWarmStart' \
//                 --benchmark_out=BENCH_batch.json --benchmark_out_format=json
//
// BM_LinearBox / BM_LinearBoxDotForm guard the Linear weight layout:
// Linear::applyToBox on the stored W^T against the two-matmulTransB
// [Out, In] dot form it replaced (bit-identical outputs). CI's
// fused-kernel-smoke job records them, with BM_PropagateLayerPair and
// BM_TwoTier, into BENCH_kernels.json and gates BM_LinearBox >= 1.3x over
// BM_LinearBoxDotForm at threads=1 (min cpu_time over the repetitions):
// BM_ConvTranspose2d / BM_ConvTranspose2dScatter do the same for the
// decoder's two transposed convolutions: the phase-split zero-skipping
// GEMM against the scatter loop it replaced (bit-identical outputs), on
// half-zero post-ReLU inputs. The same CI step gates the GEMM >= 2x over
// the scatter loop at threads=1 on both layers, and BM_ConvBoxSound (the
// directed-rounding box path on a Conv2d fed by ReLU boxes) <= 4x its
// round-to-nearest BM_ConvBox at threads=1, and BM_TwoTier's screened
// run >= 1.5x faster than the full tier on both of its nets. The full
// recorded set is
//   micro_kernels --benchmark_filter='BM_LinearBox|BM_PropagateLayerPair|BM_TwoTier|BM_ConvTranspose2d|BM_ConvBox' \
//                 --benchmark_repetitions=3 \
//                 --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
//
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/prop_cache.h"
#include "src/domains/propagate.h"
#include "src/interval/interval.h"
#include "src/nn/activations.h"
#include "src/nn/architectures.h"
#include "src/nn/conv.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/util/fp.h"
#include "src/util/rng.h"

#include <benchmark/benchmark.h>

#include <cmath>

namespace {

using namespace genprove;

/// The seed's GEMM: plain i-k-j triple loop with the zero-skip branch,
/// always serial. Kept verbatim as the reference the tiled kernel is
/// measured against (BM_Matmul / BM_MatmulNaive at threads=1 isolates the
/// tiling + unrolling win from the threading win).
Tensor naiveMatmul(const Tensor &A, const Tensor &B) {
  const int64_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  Tensor C({M, N});
  const double *Ad = A.data();
  const double *Bd = B.data();
  double *Cd = C.data();
  for (int64_t I = 0; I < M; ++I)
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      const double Aik = Ad[I * K + Kk];
      if (Aik == 0.0)
        continue;
      const double *Brow = Bd + Kk * N;
      double *Crow = Cd + I * N;
      for (int64_t J = 0; J < N; ++J)
        Crow[J] += Aik * Brow[J];
    }
  return C;
}

/// Pin the pool to State.range(1) threads for the benchmark body.
struct PoolScope {
  explicit PoolScope(int64_t Threads) {
    ThreadPool::global().setThreads(Threads);
  }
  ~PoolScope() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

void BM_Matmul(benchmark::State &State) {
  const int64_t N = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(1);
  Tensor A = Tensor::randn({N, N}, R);
  Tensor B = Tensor::randn({N, N}, R);
  for (auto _ : State) {
    Tensor C = matmul(A, B);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * N * N * N);
}
BENCHMARK(BM_Matmul)
    ->ArgNames({"n", "threads"})
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({128, 2})
    ->Args({256, 2})
    ->Args({512, 2})
    ->Args({128, 4})
    ->Args({256, 4})
    ->Args({512, 4});

void BM_MatmulNaive(benchmark::State &State) {
  const int64_t N = State.range(0);
  Rng R(1);
  Tensor A = Tensor::randn({N, N}, R);
  Tensor B = Tensor::randn({N, N}, R);
  for (auto _ : State) {
    Tensor C = naiveMatmul(A, B);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * N * N * N);
}
BENCHMARK(BM_MatmulNaive)->ArgName("n")->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulTransB(benchmark::State &State) {
  const int64_t N = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(6);
  Tensor A = Tensor::randn({N, N}, R);
  Tensor B = Tensor::randn({N, N}, R);
  for (auto _ : State) {
    Tensor C = matmulTransB(A, B);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * N * N * N);
}
BENCHMARK(BM_MatmulTransB)
    ->ArgNames({"n", "threads"})
    ->Args({256, 1})
    ->Args({256, 4});

void BM_Conv2d(benchmark::State &State) {
  const int64_t Batch = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(2);
  ConvGeometry G;
  G.InChannels = 16;
  G.OutChannels = 32;
  G.KernelH = G.KernelW = 4;
  G.Stride = 2;
  G.Padding = 1;
  Tensor In = Tensor::randn({Batch, 16, 16, 16}, R);
  Tensor W = Tensor::randn({32, 16, 4, 4}, R);
  Tensor B = Tensor::randn({32}, R);
  for (auto _ : State) {
    Tensor Out = conv2d(In, W, B, G);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * Batch);
}
BENCHMARK(BM_Conv2d)
    ->ArgNames({"batch", "threads"})
    ->Args({1, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({16, 4})
    ->Args({64, 4});

/// The sound box path on a convolution fed by ReLU boxes (the boxes
/// GenProve^p's relaxation produces): Conv2d(16->32, k4, s2, p1) on 16
/// boxes of 16x8x8. The inputs come from the interval ReLU on random boxes
/// in the rounding mode the benchmark measures, so each build's own
/// rounding rules make them: under sound rounding the dead units carry
/// whatever radius subUp(0, 0) gives. BM_ConvBoxSound runs applyToBoxSound
/// on the directed-rounding boxes, BM_ConvBox applyToBox on the
/// round-to-nearest ones; CI gates their ratio (<= 4x at threads=1).
struct ConvBoxInput {
  std::unique_ptr<Conv2d> Layer;
  Tensor Center, Radius;
};

ConvBoxInput convBoxInput(bool Sound) {
  SoundRoundingScope Rounding(Sound);
  Rng R(17);
  ConvBoxInput In;
  In.Layer = std::make_unique<Conv2d>(16, 32, 4, 2, 1);
  In.Layer->weight() = Tensor::randn({32, 16, 4, 4}, R, 0.2);
  In.Layer->bias() = Tensor::randn({32}, R, 0.1);
  In.Center = Tensor::randn({16, 16, 8, 8}, R);
  In.Radius = Tensor::rand({16, 16, 8, 8}, R, 0.0, 0.5);
  // The engine's box ReLU (reluBox in domains/propagate.cpp).
  for (int64_t I = 0; I < In.Center.numel(); ++I) {
    const double C = In.Center[I], Rad = In.Radius[I];
    const Interval Box = Sound ? Interval(fp::subDown(C, Rad), fp::addUp(C, Rad))
                               : Interval(C - Rad, C + Rad);
    Box.relu().toCenterRadius(In.Center[I], In.Radius[I]);
  }
  return In;
}

void BM_ConvBoxSound(benchmark::State &State) {
  PoolScope Scope(State.range(0));
  const ConvBoxInput In = convBoxInput(true);
  SoundRoundingScope Rounding(true);
  for (auto _ : State) {
    Tensor C = In.Center, Rad = In.Radius;
    In.Layer->applyToBoxSound(C, Rad);
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(Rad.data());
  }
}
BENCHMARK(BM_ConvBoxSound)->ArgName("threads")->Arg(1)->Arg(4);

void BM_ConvBox(benchmark::State &State) {
  PoolScope Scope(State.range(0));
  const ConvBoxInput In = convBoxInput(false);
  for (auto _ : State) {
    Tensor C = In.Center, Rad = In.Radius;
    In.Layer->applyToBox(C, Rad);
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(Rad.data());
  }
}
BENCHMARK(BM_ConvBox)->ArgName("threads")->Arg(1)->Arg(4);

/// The decoder's two transposed convolutions (makeDecoder): layer 0 is
/// 32->16, k3 s2 p1 op1 on 8x8; layer 1 is 16->3, k3 s1 p1 on 16x16.
/// Inputs are post-ReLU traffic: about half of them are zero.
struct DecoderConvT {
  ConvGeometry G;
  Tensor In, W, B;
};

DecoderConvT decoderConvT(int64_t Layer, int64_t Batch) {
  Rng R(3);
  DecoderConvT D;
  D.G.InChannels = Layer == 0 ? 32 : 16;
  D.G.OutChannels = Layer == 0 ? 16 : 3;
  D.G.KernelH = D.G.KernelW = 3;
  D.G.Stride = Layer == 0 ? 2 : 1;
  D.G.Padding = 1;
  D.G.OutputPadding = Layer == 0 ? 1 : 0;
  const int64_t Size = Layer == 0 ? 8 : 16;
  D.In = relu(Tensor::randn({Batch, D.G.InChannels, Size, Size}, R));
  D.W = Tensor::randn({D.G.InChannels, D.G.OutChannels, 3, 3}, R);
  D.B = Tensor::randn({D.G.OutChannels}, R);
  return D;
}

/// The scatter loop convTranspose2d ran before the phase-split GEMM, kept
/// here as the reference BM_ConvTranspose2d is gated against: serial per
/// sample, zero inputs skipped by a branch. Bit-identical outputs.
Tensor scatterConvTranspose(const Tensor &Input, const Tensor &Weight,
                            const Tensor &Bias, const ConvGeometry &Geom) {
  const int64_t N = Input.dim(0), C = Input.dim(1), H = Input.dim(2),
                W = Input.dim(3);
  const auto [OH, OW] = Geom.convTransposeOutput(H, W);
  const int64_t OC = Geom.OutChannels;
  Tensor Output({N, OC, OH, OW});
  for (int64_t Sample = 0; Sample < N; ++Sample)
    for (int64_t Oc = 0; Oc < OC; ++Oc)
      for (int64_t P = 0; P < OH * OW; ++P)
        Output.data()[(Sample * OC + Oc) * OH * OW + P] = Bias[Oc];
  const double *Wd = Weight.data();
  for (int64_t Sample = 0; Sample < N; ++Sample) {
    const double *In = Input.data() + Sample * C * H * W;
    double *Out = Output.data() + Sample * OC * OH * OW;
    for (int64_t Ic = 0; Ic < C; ++Ic)
      for (int64_t Ih = 0; Ih < H; ++Ih)
        for (int64_t Iw = 0; Iw < W; ++Iw) {
          const double V = In[(Ic * H + Ih) * W + Iw];
          if (V == 0.0)
            continue;
          for (int64_t Oc = 0; Oc < OC; ++Oc) {
            const double *Kslice =
                Wd + ((Ic * OC + Oc) * Geom.KernelH) * Geom.KernelW;
            for (int64_t Kh = 0; Kh < Geom.KernelH; ++Kh) {
              const int64_t Oh = Ih * Geom.Stride - Geom.Padding + Kh;
              if (Oh < 0 || Oh >= OH)
                continue;
              for (int64_t Kw = 0; Kw < Geom.KernelW; ++Kw) {
                const int64_t Ow = Iw * Geom.Stride - Geom.Padding + Kw;
                if (Ow < 0 || Ow >= OW)
                  continue;
                Out[(Oc * OH + Oh) * OW + Ow] +=
                    V * Kslice[Kh * Geom.KernelW + Kw];
              }
            }
          }
        }
  }
  return Output;
}

void BM_ConvTranspose2d(benchmark::State &State) {
  PoolScope Scope(State.range(2));
  const DecoderConvT D = decoderConvT(State.range(0), State.range(1));
  for (auto _ : State) {
    Tensor Out = convTranspose2d(D.In, D.W, D.B, D.G);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * State.range(1));
}
BENCHMARK(BM_ConvTranspose2d)
    ->ArgNames({"layer", "batch", "threads"})
    ->Args({0, 1, 1})
    ->Args({0, 16, 1})
    ->Args({0, 16, 4})
    ->Args({1, 1, 1})
    ->Args({1, 16, 1})
    ->Args({1, 16, 4});

void BM_ConvTranspose2dScatter(benchmark::State &State) {
  const DecoderConvT D = decoderConvT(State.range(0), State.range(1));
  for (auto _ : State) {
    Tensor Out = scatterConvTranspose(D.In, D.W, D.B, D.G);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * State.range(1));
}
BENCHMARK(BM_ConvTranspose2dScatter)
    ->ArgNames({"layer", "batch"})
    ->Args({0, 16})
    ->Args({1, 16});

/// Grid-cell style concurrency: independent propagations through
/// independent networks fanned out over the pool, the same shape as
/// BenchEnv::prefetchCells. items_per_second is cells/s; the threads=1 vs
/// threads=4 ratio is the harness-level scaling number recorded in
/// BENCH_kernels.json.
void BM_ConcurrentCells(benchmark::State &State) {
  const int64_t NumCells = 8;
  PoolScope Scope(State.range(0));
  Rng R(8);
  std::vector<Sequential> Nets;
  std::vector<Tensor> Starts, Ends;
  for (int64_t C = 0; C < NumCells; ++C) {
    Sequential Net;
    const std::vector<int64_t> Dims{8, 48, 48, 10};
    for (size_t I = 0; I + 1 < Dims.size(); ++I) {
      auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
      L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5));
      L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
      Net.add(std::move(L));
      if (I + 2 < Dims.size())
        Net.add(std::make_unique<ReLU>());
    }
    Nets.push_back(std::move(Net));
    Starts.push_back(Tensor::randn({1, 8}, R));
    Ends.push_back(Tensor::randn({1, 8}, R));
  }
  for (auto _ : State) {
    std::vector<size_t> Sizes(static_cast<size_t>(NumCells));
    parallelFor(NumCells, 1, [&](int64_t Begin, int64_t End) {
      for (int64_t I = Begin; I < End; ++I) {
        PropagateConfig Config;
        DeviceMemoryModel Memory;
        PropagateStats Stats;
        std::vector<Region> Init{
            makeSegmentRegion(Starts[static_cast<size_t>(I)],
                              Ends[static_cast<size_t>(I)])};
        auto Final = propagateRegions(Nets[static_cast<size_t>(I)].view(),
                                      Shape({1, 8}), std::move(Init), Config,
                                      Memory, Stats);
        Sizes[static_cast<size_t>(I)] = Final.size();
      }
    });
    benchmark::DoNotOptimize(Sizes.data());
  }
  State.SetItemsProcessed(State.iterations() * NumCells);
}
BENCHMARK(BM_ConcurrentCells)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

/// Segment vs quadratic propagation through a random MLP: the degree-2
/// overhead ablation.
void propagateDegree(benchmark::State &State, int Degree) {
  Rng R(4);
  Sequential Net;
  const std::vector<int64_t> Dims{8, 64, 64, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  Tensor A0 = Tensor::randn({1, 8}, R);
  Tensor A1 = Tensor::randn({1, 8}, R);
  Tensor A2 = Tensor::randn({1, 8}, R);

  for (auto _ : State) {
    std::vector<Region> Init;
    if (Degree == 1)
      Init.push_back(makeSegmentRegion(A0, A1));
    else
      Init.push_back(makeQuadraticRegion(A0, A1, A2));
    PropagateConfig Config;
    DeviceMemoryModel Memory;
    PropagateStats Stats;
    auto Final = propagateRegions(Net.view(), Shape({1, 8}), std::move(Init),
                                  Config, Memory, Stats);
    benchmark::DoNotOptimize(Final.size());
  }
}

void BM_PropagateSegment(benchmark::State &State) {
  propagateDegree(State, 1);
}
BENCHMARK(BM_PropagateSegment);

void BM_PropagateQuadratic(benchmark::State &State) {
  propagateDegree(State, 2);
}
BENCHMARK(BM_PropagateQuadratic);

/// Instrumentation overhead: one full propagation with the metrics switch
/// off (arg 0 — every counter site is a single relaxed atomic load) vs on
/// (arg 1 — loads plus relaxed fetch-adds and histogram records). The
/// off/on time ratio is the number the "disabled telemetry costs nothing"
/// claim in docs/OBSERVABILITY.md stands on; CI records it to
/// BENCH_obs.json. Tracing stays off in both arms: the trace buffer grows
/// without bound across benchmark iterations and would measure allocation,
/// not instrumentation.
void BM_Instrumentation(benchmark::State &State) {
  const bool Enable = State.range(0) != 0;
  const bool SavedMetrics = metricsEnabled();
  setMetricsEnabled(Enable);
  Rng R(7);
  Sequential Net;
  const std::vector<int64_t> Dims{8, 64, 64, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  Tensor A0 = Tensor::randn({1, 8}, R);
  Tensor A1 = Tensor::randn({1, 8}, R);
  for (auto _ : State) {
    std::vector<Region> Init{makeSegmentRegion(A0, A1)};
    PropagateConfig Config;
    DeviceMemoryModel Memory;
    PropagateStats Stats;
    auto Final = propagateRegions(Net.view(), Shape({1, 8}), std::move(Init),
                                  Config, Memory, Stats);
    benchmark::DoNotOptimize(Final.size());
  }
  setMetricsEnabled(SavedMetrics);
}
BENCHMARK(BM_Instrumentation)->ArgName("metrics")->Arg(0)->Arg(1);

//===----------------------------------------------------------------------===//
// Cross-query amortization (docs/PERFORMANCE.md): the shared-decoder
// workload — many latent segments against ONE frozen pipeline — run
// per-spec (the pre-batching shape: one propagation per segment) vs as a
// single stacked abstract state whose affine layers see every segment's
// rows in one production-sized GEMM. Bounds are bit-identical either way;
// the wall-clock ratio is the batching win recorded in BENCH_batch.json.
//===----------------------------------------------------------------------===//

Sequential sharedDecoder(Rng &R) {
  Sequential Net;
  const std::vector<int64_t> Dims{8, 128, 128, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

/// Tight segments — the certification traffic shape: each query perturbs
/// a latent point slightly, so it crosses few ReLUs and its per-layer
/// GEMMs are a handful of rows. That is where stacking K queries into
/// one call pays most (the affine work per query is call-overhead-bound).
std::vector<std::pair<Tensor, Tensor>> sharedDecoderSegments(int64_t K,
                                                             Rng &R) {
  std::vector<std::pair<Tensor, Tensor>> Segments;
  for (int64_t I = 0; I < K; ++I) {
    Tensor Start = Tensor::randn({1, 8}, R);
    Tensor End = Start.clone();
    for (int64_t J = 0; J < 8; ++J)
      End[J] += R.normal(0.0, 0.02);
    Segments.emplace_back(std::move(Start), std::move(End));
  }
  return Segments;
}

void BM_PropagatePerSpec(benchmark::State &State) {
  const int64_t NumSpecs = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(9);
  Sequential Net = sharedDecoder(R);
  const auto Segments = sharedDecoderSegments(NumSpecs, R);
  const GenProve Analyzer(GenProveConfig{});
  for (auto _ : State) {
    size_t Regions = 0;
    for (const auto &[Start, End] : Segments) {
      const PropagatedState Final =
          Analyzer.propagateSegment(Net.view(), Shape({1, 8}), Start, End);
      Regions += Final.Regions.size();
    }
    benchmark::DoNotOptimize(Regions);
  }
  State.SetItemsProcessed(State.iterations() * NumSpecs);
}
BENCHMARK(BM_PropagatePerSpec)
    ->ArgNames({"specs", "threads"})
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({16, 4})
    ->Args({64, 4});

void BM_PropagateBatched(benchmark::State &State) {
  const int64_t NumSpecs = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(9);
  Sequential Net = sharedDecoder(R);
  const auto Segments = sharedDecoderSegments(NumSpecs, R);
  const GenProve Analyzer(GenProveConfig{});
  for (auto _ : State) {
    const std::vector<PropagatedState> Finals =
        Analyzer.propagateSegmentsBatch(Net.view(), Shape({1, 8}), Segments);
    size_t Regions = 0;
    for (const PropagatedState &Final : Finals)
      Regions += Final.Regions.size();
    benchmark::DoNotOptimize(Regions);
  }
  State.SetItemsProcessed(State.iterations() * NumSpecs);
}
BENCHMARK(BM_PropagateBatched)
    ->ArgNames({"specs", "threads"})
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({16, 4})
    ->Args({64, 4});

/// The full amortization layer on hot traffic: the same ≥16-spec
/// shared-decoder workload as BM_PropagatePerSpec, propagated as ONE
/// batched abstract state with the propagation cache on. The first
/// iteration runs cold and stores every boundary state; every following
/// iteration — the steady state of repeated-spec serve traffic — warm
/// starts past the whole pipeline. BM_PropagatePerSpec vs this ratio is
/// the headline ≥2x amortization number CI asserts from BENCH_batch.json
/// (bounds stay bit-identical: a warm start only skips work).
void BM_PropagateAmortized(benchmark::State &State) {
  const int64_t NumSpecs = State.range(0);
  Rng R(9); // same seed as PerSpec/Batched: identical workload
  Sequential Net = sharedDecoder(R);
  const auto Segments = sharedDecoderSegments(NumSpecs, R);
  const GenProve Analyzer(GenProveConfig{});
  PropagationCache::global().configure(64u << 20);
  for (auto _ : State) {
    const std::vector<PropagatedState> Finals =
        Analyzer.propagateSegmentsBatch(Net.view(), Shape({1, 8}), Segments);
    size_t Regions = 0;
    for (const PropagatedState &Final : Finals)
      Regions += Final.Regions.size();
    benchmark::DoNotOptimize(Regions);
  }
  PropagationCache::global().configure(0);
  State.SetItemsProcessed(State.iterations() * NumSpecs);
}
BENCHMARK(BM_PropagateAmortized)->ArgName("specs")->Arg(16)->Arg(32);

/// A repeated query, cold (cache off, full propagation every time) vs
/// warm (the propagation cache holds the final boundary state, so the
/// repeat skips every layer). The ratio bounds what the serve daemon's
/// hot repeated-spec traffic can save per request.
void BM_CacheWarmStart(benchmark::State &State) {
  const bool Warm = State.range(0) != 0;
  Rng R(10);
  Sequential Net = sharedDecoder(R);
  const Tensor Start = Tensor::randn({1, 8}, R);
  const Tensor End = Tensor::randn({1, 8}, R);
  const GenProve Analyzer(GenProveConfig{});
  PropagationCache::global().configure(Warm ? (64u << 20) : 0);
  if (Warm) // prime: the first propagation stores every boundary state
    Analyzer.propagateSegment(Net.view(), Shape({1, 8}), Start, End);
  for (auto _ : State) {
    const PropagatedState Final =
        Analyzer.propagateSegment(Net.view(), Shape({1, 8}), Start, End);
    benchmark::DoNotOptimize(Final.Regions.size());
  }
  PropagationCache::global().configure(0);
}
BENCHMARK(BM_CacheWarmStart)->ArgName("warm")->Arg(0)->Arg(1);

//===----------------------------------------------------------------------===//
// The Linear weight layout and the two-tier screen (docs/PERFORMANCE.md).
// BM_LinearBox runs Linear::applyToBox on a batch of boxes: one streaming
// pass over the stored W^T computes the center and radius planes, with
// |W| taken on the fly. BM_LinearBoxDotForm is the [Out, In] reference it
// replaced: a center matmulTransB plus bias pass and a radius matmulTransB
// against a precomputed |W|. Outputs are bit-identical; the wall-clock
// ratio is the layout win CI asserts (>= 1.3x at threads=1) from
// BENCH_kernels.json. BM_PropagateLayerPair times the whole engine on a
// deep Linear->ReLU chain.
//===----------------------------------------------------------------------===//

constexpr int64_t BoxRows = 32, BoxIn = 512, BoxOut = 512;

void BM_LinearBox(benchmark::State &State) {
  PoolScope Scope(State.range(0));
  Rng R(13);
  Linear L(BoxIn, BoxOut);
  L.setWeight(Tensor::randn({BoxOut, BoxIn}, R, 0.3));
  L.bias() = Tensor::randn({BoxOut}, R, 0.2);
  const Tensor Center = Tensor::randn({BoxRows, BoxIn}, R);
  const Tensor Radius = Tensor::rand({BoxRows, BoxIn}, R, 0.0, 0.1);
  for (auto _ : State) {
    Tensor C = Center, Rad = Radius;
    L.applyToBox(C, Rad);
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(Rad.data());
  }
}
BENCHMARK(BM_LinearBox)->ArgName("threads")->Arg(1)->Arg(4);

void BM_LinearBoxDotForm(benchmark::State &State) {
  PoolScope Scope(State.range(0));
  Rng R(13);
  const Tensor W = Tensor::randn({BoxOut, BoxIn}, R, 0.3);
  const Tensor Bias = Tensor::randn({BoxOut}, R, 0.2);
  Tensor AbsW = W;
  for (int64_t I = 0; I < AbsW.numel(); ++I)
    AbsW[I] = std::fabs(AbsW[I]);
  const Tensor Center = Tensor::randn({BoxRows, BoxIn}, R);
  const Tensor Radius = Tensor::rand({BoxRows, BoxIn}, R, 0.0, 0.1);
  for (auto _ : State) {
    Tensor C = matmulTransB(Center, W);
    for (int64_t I = 0; I < BoxRows; ++I)
      for (int64_t J = 0; J < BoxOut; ++J)
        C.at(I, J) += Bias[J];
    Tensor Rad = matmulTransB(Radius, AbsW);
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(Rad.data());
  }
}
BENCHMARK(BM_LinearBoxDotForm)->ArgName("threads")->Arg(1)->Arg(4);

Sequential deepPairChain(Rng &R) {
  Sequential Net;
  const std::vector<int64_t> Dims{64, 512, 512, 512, 512, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.3));
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.2);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

void BM_PropagateLayerPair(benchmark::State &State) {
  PoolScope Scope(State.range(0));
  Rng R(11);
  Sequential Net = deepPairChain(R);
  const Tensor Start = Tensor::randn({1, 64}, R, 0.1);
  Tensor End = Start.clone();
  for (int64_t J = 0; J < 64; ++J)
    End[J] += R.normal(0.0, 0.05);
  const GenProve Analyzer{GenProveConfig{}};
  for (auto _ : State) {
    const PropagatedState Final =
        Analyzer.propagateSegment(Net.view(), Shape({1, 64}), Start, End);
    benchmark::DoNotOptimize(Final.Regions.size());
  }
}
BENCHMARK(BM_PropagateLayerPair)->ArgName("threads")->Arg(1)->Arg(4);

/// The two-tier precision fast path on clearly-decidable traffic, under
/// sound rounding at one thread: the same analysis with the full tier
/// (screen:0) vs --fast-screen (screen:1), where the DeepZono screen
/// decides the whole range in its first, coarsest call and the full tier
/// is never entered. Both runs report sound bounds; the ratio is the
/// screening win on traffic whose specs hold with a margin (the common
/// certification case). net:0 is an 8 -> 96 -> 96 -> 10 MLP on a long
/// segment; net:1 the audit zoo's DecoderSmall -> ConvSmall at 8x8 on a
/// short chord, as the paper queries are (a long chord crosses hundreds
/// of ReLU boundaries, and DeepZono then carries about as many generator
/// rows as the full tier carries curve rows, docs/PERFORMANCE.md).
void BM_TwoTier(benchmark::State &State) {
  const bool Conv = State.range(0) != 0;
  const bool Screen = State.range(1) != 0;
  PoolScope Scope(1);
  SoundRoundingScope Sound(true);
  Rng R(12);
  Sequential Net;
  Sequential Classifier;
  Tensor Start, End;
  if (Conv) {
    Net = makeDecoderSmall(/*Latent=*/4, /*ImgChannels=*/1, /*ImgSize=*/8);
    Classifier = makeConvSmall(/*ImgChannels=*/1, /*ImgSize=*/8,
                               /*NumOut=*/10);
    kaimingInit(Net, R);
    kaimingInit(Classifier, R);
    Start = Tensor::randn({1, 4}, R);
    End = Start.clone();
    for (int64_t J = 0; J < 4; ++J)
      End[J] += R.normal(0.0, 0.1);
  } else {
    const std::vector<int64_t> Dims{8, 96, 96, 10};
    for (size_t I = 0; I + 1 < Dims.size(); ++I) {
      auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
      L->setWeight(Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.4));
      L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.2);
      Net.add(std::move(L));
      if (I + 2 < Dims.size())
        Net.add(std::make_unique<ReLU>());
    }
    Start = Tensor::randn({1, 8}, R, 0.3);
    End = Tensor::randn({1, 8}, R, 0.3);
  }
  const std::vector<const Layer *> Pipeline =
      concatViews(Net.view(), Classifier.view());
  // A spec that holds with a wide margin over the whole output range:
  // the screen certifies the whole range, the full tier must still
  // propagate.
  Tensor Normal({1, 10});
  Normal[0] = 1.0;
  const OutputSpec Spec = OutputSpec::halfspace(Normal, 1e6);
  GenProveConfig Config;
  Config.FastScreen = Screen;
  const GenProve Analyzer(Config);
  const Shape In({1, Start.numel()});
  for (auto _ : State) {
    const AnalysisResult Result =
        Analyzer.analyzeSegment(Pipeline, In, Start, End, Spec);
    benchmark::DoNotOptimize(Result.Bounds.Lower);
  }
}
BENCHMARK(BM_TwoTier)
    ->ArgNames({"net", "screen"})
    ->ArgsProduct({{0, 1}, {0, 1}});

void BM_RelaxHeuristic(benchmark::State &State) {
  const int64_t NumPieces = State.range(0);
  Rng R(5);
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<Region> Chain;
    Tensor Prev = Tensor::randn({1, 32}, R);
    for (int64_t I = 0; I < NumPieces; ++I) {
      Tensor Next = Prev.clone();
      for (int64_t J = 0; J < 32; ++J)
        Next[J] += R.normal(0.0, 0.05);
      const double T0 = static_cast<double>(I) / NumPieces;
      const double T1 = static_cast<double>(I + 1) / NumPieces;
      Chain.push_back(makeSegmentRegion(Prev, Next, T1 - T0, T0, T1));
      Prev = Next;
    }
    State.ResumeTiming();
    RelaxConfig Config;
    Config.RelaxPercent = 0.5;
    Config.ClusterK = 50.0;
    Config.NodeThreshold = 100;
    relaxRegions(Chain, Config);
    benchmark::DoNotOptimize(Chain.size());
  }
}
BENCHMARK(BM_RelaxHeuristic)->Arg(1000)->Arg(10000);

} // namespace

BENCHMARK_MAIN();
