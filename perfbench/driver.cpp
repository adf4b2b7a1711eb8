//===- perfbench/driver.cpp - In-process half of the benchmark --*- C++ -*-===//
///
/// \file
/// The benchmark's in-process driver. perfbench/run.py builds it and calls
/// it; it measures the verifier from outside, through public calls only:
///
///   setup            build the models, make the seeded queries and answer
///                    one untimed warm-up query per pipeline; print the
///                    set-up time.
///   run              a paper_* workload: set up, then answer the seeded
///                    queries in a closed loop for --seconds (one caller).
///                    With --trace 1, answer a fixed prefix of the queries
///                    once untraced and once stepped through
///                    propagateRegions one layer at a time, timing each
///                    layer's public kernel calls and boundsFor around the
///                    steps.
///   serve-inputs     write the serve pipeline's model files and print the
///                    seeded segments for serve_repeat.
///   serve-reference  answer the serve_repeat segments with analyzeSegment
///                    on the saved model files (stepped too with
///                    --trace 1), plus the sampling check.
///
/// Every result is one JSON object on the last line of stdout; doubles are
/// printed with %.17g so the reader gets the exact bits.
///
//===----------------------------------------------------------------------===//

#include "src/core/distribution.h"
#include "src/core/genprove.h"
#include "src/nn/architectures.h"
#include "src/nn/conv.h"
#include "src/nn/conv_transpose.h"
#include "src/nn/init.h"
#include "src/nn/serialize.h"
#include "src/parallel/thread_pool.h"
#include "src/sampling/sampler.h"
#include "src/tensor/ops.h"
#include "src/util/fp.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

using namespace genprove;

namespace {

// The model weights are fixed; only the workload inputs follow --seed.
constexpr uint64_t WeightSeed = 7;
constexpr uint64_t WarmupSeed = 0x77a3;
constexpr int64_t Latent = 8;
constexpr int64_t Channels = 3;
constexpr int64_t ImgSize = 16;
constexpr int64_t NumClasses = 10;
constexpr double CpAlpha = 1e-5; // 99.999% Clopper-Pearson interval
constexpr int64_t CpSamples = 128;
constexpr double ClusterK = 100.0;    // k of GenProve^p_k
constexpr int64_t NumQueries = 96;    // seeded paper queries, cycled
constexpr int64_t TraceQueries = 30;  // fixed prefix the traced run steps

const char *const ClassifierNames[] = {"ConvSmall", "ConvMed", "ConvLarge"};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", Msg.c_str());
  std::exit(2);
}

struct Models {
  Sequential Decoder;
  std::vector<Sequential> Classifiers; // ConvSmall, ConvMed, ConvLarge
  std::vector<std::vector<const Layer *>> Pipelines;
};

/// Decoder plus the three classifiers, Kaiming-initialized from one fixed
/// seed, so every run and every workload sees the same weights.
Models buildModels() {
  Models M;
  Rng Gen(WeightSeed);
  M.Decoder = makeDecoder(Latent, Channels, ImgSize);
  kaimingInit(M.Decoder, Gen);
  for (const char *Name : ClassifierNames) {
    Sequential Net = makeClassifier(Name, Channels, ImgSize, NumClasses);
    kaimingInit(Net, Gen);
    M.Classifiers.push_back(std::move(Net));
  }
  for (const Sequential &Net : M.Classifiers)
    M.Pipelines.push_back(concatViews(M.Decoder.view(), Net.view()));
  return M;
}

struct Query {
  int64_t Pipe = 0;
  Tensor Start, End;
  int64_t Target = 0;
  OutputSpec Spec;
};

const Shape &latentShape() {
  static const Shape S({1, Latent});
  return S;
}

/// A chord of the latent sphere of radius sqrt(Latent) that spans a fixed
/// angle, in a uniformly random plane. The zero-bias Kaiming nets are
/// positively homogeneous, so the ReLU boundaries a segment crosses depend
/// on the angle it sweeps, not on its length: a fixed angle makes queries
/// of one pipeline do similar work, which keeps the run-to-run spread of
/// the end-to-end numbers small across workload seeds.
void makeChord(double Angle, Rng &Gen, Tensor &Start, Tensor &End) {
  const auto UnitRandom = [&Gen] {
    Tensor V = Tensor::randn(latentShape(), Gen);
    double Norm = 0.0;
    for (int64_t J = 0; J < Latent; ++J)
      Norm += V[J] * V[J];
    Norm = std::sqrt(Norm);
    for (int64_t J = 0; J < Latent; ++J)
      V[J] /= Norm;
    return V;
  };
  const Tensor U = UnitRandom();
  Tensor V = UnitRandom();
  double Dot = 0.0;
  for (int64_t J = 0; J < Latent; ++J)
    Dot += U[J] * V[J];
  double Norm = 0.0;
  for (int64_t J = 0; J < Latent; ++J) {
    V[J] -= Dot * U[J];
    Norm += V[J] * V[J];
  }
  Norm = std::sqrt(Norm);
  const double Radius = std::sqrt(static_cast<double>(Latent));
  Start = Tensor(latentShape());
  End = Tensor(latentShape());
  for (int64_t J = 0; J < Latent; ++J) {
    Start[J] = Radius * U[J];
    End[J] = Radius * (std::cos(Angle) * U[J] + std::sin(Angle) * V[J] / Norm);
  }
}

/// Count queries cycling over \p Pipes (indices into Models::Pipelines),
/// each a chord of \p Angles[pipeline] radians. The spec of each asks that
/// the class its pipeline gives the start point keeps winning the argmax;
/// the classes come from one batched forward pass per pipeline.
std::vector<Query> makeQueries(const Models &M, const std::vector<int64_t> &Pipes,
                               int64_t Count, const std::vector<double> &Angles,
                               uint64_t Seed) {
  Rng Gen(Seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  std::vector<Query> Out(static_cast<size_t>(Count));
  for (int64_t I = 0; I < Count; ++I) {
    Query &Q = Out[static_cast<size_t>(I)];
    Q.Pipe = Pipes[static_cast<size_t>(I) % Pipes.size()];
    makeChord(Angles[static_cast<size_t>(Q.Pipe)], Gen, Q.Start, Q.End);
  }
  for (int64_t P = 0; P < static_cast<int64_t>(M.Pipelines.size()); ++P) {
    std::vector<Query *> Mine;
    for (Query &Q : Out)
      if (Q.Pipe == P)
        Mine.push_back(&Q);
    if (Mine.empty())
      continue;
    Tensor Starts({static_cast<int64_t>(Mine.size()), Latent});
    for (size_t I = 0; I < Mine.size(); ++I)
      std::copy(Mine[I]->Start.data(), Mine[I]->Start.data() + Latent,
                Starts.data() + static_cast<int64_t>(I) * Latent);
    const std::vector<int64_t> Classes = argmaxRows(forwardConcretePoints(
        M.Pipelines[static_cast<size_t>(P)], latentShape(), Starts));
    for (size_t I = 0; I < Mine.size(); ++I) {
      Mine[I]->Target = Classes[I];
      Mine[I]->Spec = OutputSpec::argmaxWins(Classes[I], NumClasses);
    }
  }
  return Out;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

/// VmHWM of this process in MiB (peak resident set).
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (const char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof(A)) == 0; }

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::string Mode;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  double P = 0.0;
  int64_t Threshold = 250;
  bool Sound = false;
  int64_t CheckThreads = 1; // pool size for the untimed sampling check
  int64_t ProbeThreads = 1; // pool size the trace also times kernels at
  // Chord angle per pipeline (ConvSmall, ConvMed, ConvLarge); the serve
  // workload uses the first. Warm-up chords are half as long.
  std::vector<double> Angles = {0.05, 0.05, 0.05};
  int64_t Pool = 16;
  int64_t Cold = 16;
  std::string Dir;
};

std::vector<double> parseAngles(const std::string &Text) {
  std::vector<double> Out;
  std::stringstream In(Text);
  std::string Part;
  while (std::getline(In, Part, ','))
    Out.push_back(std::stod(Part));
  if (Out.size() != 3)
    die("--angles needs one angle per classifier: SMALL,MED,LARGE");
  return Out;
}

std::vector<double> halved(std::vector<double> Angles) {
  for (double &A : Angles)
    A /= 2;
  return Angles;
}

Options parseOptions(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: perfbench_driver MODE [--option value]...");
  Options O;
  O.Mode = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      die("missing value for " + Arg);
    const std::string V = Argv[++I];
    if (Arg == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::stod(V);
    else if (Arg == "--trace")
      O.Trace = V == "1";
    else if (Arg == "--p")
      O.P = std::stod(V);
    else if (Arg == "--threshold")
      O.Threshold = std::stoll(V);
    else if (Arg == "--sound")
      O.Sound = V == "1";
    else if (Arg == "--check-threads")
      O.CheckThreads = std::stoll(V);
    else if (Arg == "--probe-threads")
      O.ProbeThreads = std::stoll(V);
    else if (Arg == "--angles")
      O.Angles = parseAngles(V);
    else if (Arg == "--pool")
      O.Pool = std::stoll(V);
    else if (Arg == "--cold")
      O.Cold = std::stoll(V);
    else if (Arg == "--dir")
      O.Dir = V;
    else
      die("unknown option " + Arg);
  }
  if (O.CheckThreads < 1 || O.ProbeThreads < 1 ||
      O.Pool < 1 || O.Cold < 0)
    die("counts and thread numbers must be positive");
  return O;
}

GenProveConfig analyzerConfig(const Options &O) {
  GenProveConfig C;
  C.RelaxPercent = O.P;
  C.ClusterK = ClusterK;
  C.NodeThreshold = O.Threshold;
  C.UseCache = false;
  return C;
}

/// The engine configuration GenProve uses for one cache-less,
/// non-resilient attempt at (p, k): what the stepped trace passes to each
/// single-layer propagateRegions call.
PropagateConfig stepConfig(const Options &O) {
  PropagateConfig C;
  C.Relax.RelaxPercent = O.P;
  C.Relax.ClusterK = ClusterK;
  C.Relax.NodeThreshold = O.Threshold;
  C.EnableRelax = O.P > 0.0;
  C.Cdf = makeCdf(ParamDistribution::Uniform);
  return C;
}

//===----------------------------------------------------------------------===//
// Traced run: one layer at a time, timed from outside
//===----------------------------------------------------------------------===//

const char *const TracedKinds[] = {"ConvTranspose2d", "Conv2d", "Linear",
                                   "ReLU", "Reshape", "Flatten"};
const char *const KernelKinds[] = {"ConvTranspose2d", "Conv2d", "Linear"};

struct TraceTotals {
  std::map<std::string, double> LayerSeconds;  // propagateRegions per kind
  std::map<std::string, double> KernelSeconds; // public kernel calls
  std::map<std::string, double> KernelMacs;    // computed multiply-adds
  double SoundKernelSeconds = 0.0;   // same calls, directed rounding
  double NearestKernelSeconds = 0.0; // same calls, round-to-nearest
  double ProbeKernelSeconds = 0.0;   // same calls on ProbeThreads threads
  double BoundsSeconds = 0.0;
  int64_t BoxesMade = 0;      // box regions relaxation added to the state
  double TracedSeconds = 0.0; // stepped query time minus the extra calls
  double UntracedSeconds = 0.0;
  bool Identical = true;
};

/// Rows of the incoming abstract state, split the way the engine batches
/// them: curve constant rows, curve higher-order rows, box centers/radii.
struct Rows {
  Tensor A0, Hi, Centers, Radii;
  int64_t NumA0 = 0, NumHi = 0, NumBoxes = 0;
};

Rows gatherRows(const std::vector<Region> &Regions) {
  Rows R;
  if (Regions.empty())
    return R;
  const int64_t N = Regions.front().dim();
  for (const Region &Reg : Regions) {
    if (Reg.Kind == RegionKind::Curve) {
      ++R.NumA0;
      R.NumHi += Reg.degree();
    } else {
      ++R.NumBoxes;
    }
  }
  R.A0 = Tensor({std::max<int64_t>(R.NumA0, 1), N});
  R.Hi = Tensor({std::max<int64_t>(R.NumHi, 1), N});
  R.Centers = Tensor({std::max<int64_t>(R.NumBoxes, 1), N});
  R.Radii = Tensor({std::max<int64_t>(R.NumBoxes, 1), N});
  int64_t IA0 = 0, IHi = 0, IBox = 0;
  for (const Region &Reg : Regions) {
    if (Reg.Kind == RegionKind::Curve) {
      std::copy(Reg.Coeffs.data(), Reg.Coeffs.data() + N,
                R.A0.data() + (IA0++) * N);
      for (int64_t D = 1; D <= Reg.degree(); ++D)
        std::copy(Reg.Coeffs.data() + D * N, Reg.Coeffs.data() + (D + 1) * N,
                  R.Hi.data() + (IHi++) * N);
    } else {
      std::copy(Reg.Center.data(), Reg.Center.data() + N,
                R.Centers.data() + IBox * N);
      std::copy(Reg.Radius.data(), Reg.Radius.data() + N,
                R.Radii.data() + IBox * N);
      ++IBox;
    }
  }
  return R;
}

Tensor asActivations(const Tensor &RowBatch, int64_t Count, const Shape &In) {
  std::vector<int64_t> Dims = In.dims();
  Dims[0] = Count;
  Tensor Out{Shape(Dims)};
  std::copy(RowBatch.data(), RowBatch.data() + Out.numel(), Out.data());
  return Out;
}

/// Wall time of the layer's public kernel calls on the gathered rows, in
/// the current rounding mode: applyAffine on constant rows, applyLinear on
/// direction rows, applyToBox[Sound] on boxes.
double timeKernels(const Layer &L, const Shape &In, const Rows &R) {
  Tensor A0 = asActivations(R.A0, R.NumA0, In);
  Tensor Hi = asActivations(R.Hi, R.NumHi, In);
  Tensor C = asActivations(R.Centers, R.NumBoxes, In);
  Tensor Rad = asActivations(R.Radii, R.NumBoxes, In);
  const Timer Clock;
  if (R.NumA0 > 0)
    A0 = L.applyAffine(A0);
  if (R.NumHi > 0)
    Hi = L.applyLinear(Hi);
  if (R.NumBoxes > 0) {
    if (soundRoundingEnabled())
      L.applyToBoxSound(C, Rad);
    else
      L.applyToBox(C, Rad);
  }
  return Clock.seconds();
}

/// timeKernels on a pool of \p Threads threads whose workers are already
/// running, so the time holds no thread start-up.
double timeKernelsOn(int64_t Threads, const Layer &L, const Shape &In,
                     const Rows &R) {
  ThreadPool &Pool = ThreadPool::global();
  Pool.setThreads(Threads);
  Pool.parallelFor(4 * Threads, 1, [](int64_t, int64_t) {});
  return timeKernels(L, In, R);
}

/// Multiply-adds of one row through the layer, computed from its shapes.
int64_t macsPerRow(const Layer &L, const Shape &In) {
  const int64_t InN = In.numel() / In.dim(0);
  const Shape OutShape = L.outputShape(In);
  const int64_t OutN = OutShape.numel() / OutShape.dim(0);
  switch (L.kind()) {
  case Layer::Kind::Linear:
    return InN * OutN;
  case Layer::Kind::Conv2d: {
    const ConvGeometry &G = static_cast<const Conv2d &>(L).geometry();
    return OutN * G.InChannels * G.KernelH * G.KernelW;
  }
  case Layer::Kind::ConvTranspose2d: {
    const ConvGeometry &G = static_cast<const ConvTranspose2d &>(L).geometry();
    return InN * G.OutChannels * G.KernelH * G.KernelW;
  }
  default:
    return 0;
  }
}

int64_t countBoxes(const std::vector<Region> &Regions) {
  return std::count_if(Regions.begin(), Regions.end(), [](const Region &R) {
    return R.Kind == RegionKind::Box;
  });
}

bool isKernelKind(const char *Kind) {
  for (const char *K : KernelKinds)
    if (std::strcmp(K, Kind) == 0)
      return true;
  return false;
}

/// Step one query through the pipeline one propagateRegions call per
/// layer, with the same engine config and one DeviceMemoryModel, then
/// bound it; the final bounds must equal the one-shot answer bit for bit.
void traceQuery(const Options &O, const GenProve &G,
                const std::vector<const Layer *> &Pipeline, const Query &Q,
                const ProbBounds &OneShot, TraceTotals &T) {
  const Timer QueryClock;
  double Extra = 0.0; // time spent on the separately-timed kernel calls
  const PropagateConfig Config = stepConfig(O);
  DeviceMemoryModel Memory(0);
  std::vector<Region> Regions;
  Regions.push_back(makeSegmentRegion(Q.Start, Q.End));
  Shape In = latentShape();
  for (const Layer *L : Pipeline) {
    const char *Kind = layerKindName(L->kind());
    const bool Kernel = isKernelKind(Kind);
    Rows Incoming;
    if (Kernel) {
      const Timer GatherClock;
      Incoming = gatherRows(Regions);
      Extra += GatherClock.seconds();
    }
    const int64_t Boxes = countBoxes(Regions);
    PropagateStats Stats;
    const Timer StepClock;
    Regions = propagateRegions({L}, In, std::move(Regions), Config, Memory,
                               Stats);
    T.LayerSeconds[Kind] += StepClock.seconds();
    // Boxes stay boxes through every layer, so growth is what relaxation
    // (which runs before convolutional layers) created, after merging.
    T.BoxesMade += std::max<int64_t>(countBoxes(Regions) - Boxes, 0);
    if (Kernel) {
      const Timer ExtraClock;
      const double Own = timeKernels(*L, In, Incoming);
      double Other;
      {
        SoundRoundingScope Flip(!O.Sound);
        Other = timeKernels(*L, In, Incoming);
      }
      T.KernelSeconds[Kind] += Own;
      T.KernelMacs[Kind] += static_cast<double>(
          macsPerRow(*L, In) *
          (Incoming.NumA0 + Incoming.NumHi + 2 * Incoming.NumBoxes));
      T.SoundKernelSeconds += O.Sound ? Own : Other;
      T.NearestKernelSeconds += O.Sound ? Other : Own;
      T.ProbeKernelSeconds += timeKernelsOn(O.ProbeThreads, *L, In, Incoming);
      ThreadPool::global().setThreads(1);
      Extra += ExtraClock.seconds();
    }
    In = L->outputShape(In);
  }
  PropagatedState State;
  State.Regions = std::move(Regions);
  State.Cdf = Config.Cdf;
  const Timer BoundsClock;
  const ProbBounds B = G.boundsFor(State, Q.Spec);
  T.BoundsSeconds += BoundsClock.seconds();
  T.TracedSeconds += QueryClock.seconds() - Extra;
  if (!sameBits(B.Lower, OneShot.Lower) || !sameBits(B.Upper, OneShot.Upper))
    T.Identical = false;
}

std::string traceJson(const TraceTotals &T) {
  const auto MapJson = [](const std::map<std::string, double> &M,
                          const char *const *Keys, size_t NumKeys) {
    std::string J = "{";
    for (size_t I = 0; I < NumKeys; ++I) {
      const auto It = M.find(Keys[I]);
      J += std::string(I ? "," : "") + jsonString(Keys[I]) + ":" +
           num(It == M.end() ? 0.0 : It->second);
    }
    return J + "}";
  };
  return "{\"layer_s\":" + MapJson(T.LayerSeconds, TracedKinds, 6) +
         ",\"kernel_s\":" + MapJson(T.KernelSeconds, KernelKinds, 3) +
         ",\"kernel_macs\":" + MapJson(T.KernelMacs, KernelKinds, 3) +
         ",\"sound_kernel_s\":" + num(T.SoundKernelSeconds) +
         ",\"nearest_kernel_s\":" + num(T.NearestKernelSeconds) +
         ",\"probe_kernel_s\":" + num(T.ProbeKernelSeconds) +
         ",\"bounds_s\":" + num(T.BoundsSeconds) +
         ",\"boxes_made\":" + std::to_string(T.BoxesMade) +
         ",\"traced_s\":" + num(T.TracedSeconds) +
         ",\"untraced_s\":" + num(T.UntracedSeconds) +
         ",\"stepped_identical\":" + (T.Identical ? "true" : "false") + "}";
}

//===----------------------------------------------------------------------===//
// Answers and the untimed sampling check
//===----------------------------------------------------------------------===//

struct Answer {
  int64_t QueryIndex = 0;
  double Gap = 0.0;     // caller-side time from the previous answer to this call
  double Latency = 0.0; // analyzeSegment wall time
  AnalysisResult Result;
};

std::string answersJson(const std::vector<Answer> &Answers) {
  std::string S = "[";
  for (size_t I = 0; I < Answers.size(); ++I) {
    const Answer &A = Answers[I];
    S += (I ? ",[" : "[") + std::to_string(A.QueryIndex) + "," +
         num(A.Gap) + "," + num(A.Latency) + "," + num(A.Result.Bounds.Lower) +
         "," + num(A.Result.Bounds.Upper) + "," +
         (A.Result.Degraded ? "true" : "false") + "," +
         (A.Result.OutOfMemory ? "true" : "false") + "]";
  }
  return S + "]";
}

/// One object per distinct query: its one-shot telemetry plus the 99.999%
/// Clopper-Pearson interval of sampleSegmentBounds (untimed).
std::string queryJson(const Options &O, const std::vector<const Layer *> &Pipeline,
                      const Query &Q, int64_t Index, const AnalysisResult &R) {
  Rng Gen(O.Seed * 1000003ull + static_cast<uint64_t>(Index));
  const SamplingResult Cp = sampleSegmentBounds(
      Pipeline, latentShape(), Q.Start, Q.End, Q.Spec,
      ParamDistribution::Uniform, CpSamples, CpAlpha, Gen);
  int64_t Splits = 0;
  for (const LayerRecord &L : R.Layers)
    Splits += L.Splits;
  return "{\"index\":" + std::to_string(Index) + ",\"pipe\":" +
         jsonString(ClassifierNames[Q.Pipe]) +
         ",\"lower\":" + num(R.Bounds.Lower) +
         ",\"upper\":" + num(R.Bounds.Upper) + ",\"cp_lower\":" + num(Cp.Lower) +
         ",\"cp_upper\":" + num(Cp.Upper) +
         ",\"regions_max\":" + std::to_string(R.MaxRegions) +
         ",\"splits\":" + std::to_string(Splits) +
         ",\"peak_bytes\":" + std::to_string(R.PeakBytes) + "}";
}

//===----------------------------------------------------------------------===//
// paper_* workloads
//===----------------------------------------------------------------------===//

struct Session {
  Models M;
  std::vector<Query> Queries;
  double SetupSeconds = 0.0;
};

/// Everything before the first timed query: models, the seeded inputs and
/// one untimed warm-up query per pipeline (fixed, not seeded). \p Clock
/// starts at process entry.
Session setUp(const Options &O, const GenProve &G, const Timer &Clock) {
  Session S;
  S.M = buildModels();
  const std::vector<int64_t> Pipes = {0, 1, 2};
  S.Queries = makeQueries(S.M, Pipes, NumQueries, O.Angles, O.Seed);
  for (const Query &Q :
       makeQueries(S.M, Pipes, 3, halved(O.Angles), WarmupSeed))
    (void)G.analyzeSegment(S.M.Pipelines[static_cast<size_t>(Q.Pipe)],
                           latentShape(), Q.Start, Q.End, Q.Spec);
  S.SetupSeconds = Clock.seconds();
  return S;
}

int runSetup(const Options &O, const Timer &Clock) {
  const GenProve G(analyzerConfig(O));
  const Session S = setUp(O, G, Clock);
  std::printf("{\"setup_s\":%s}\n", num(S.SetupSeconds).c_str());
  return 0;
}

int runPaper(const Options &O, const Timer &Clock) {
  const GenProve G(analyzerConfig(O));
  const Session S = setUp(O, G, Clock);
  const auto Pipeline = [&S](const Query &Q) -> const std::vector<const Layer *> & {
    return S.M.Pipelines[static_cast<size_t>(Q.Pipe)];
  };

  // Closed loop, one caller: the next query starts when the previous one
  // is answered, cycling over the seeded set until --seconds are up. The
  // traced run instead answers a fixed prefix (so its counts are exact for
  // a seed), stepping each query right after its one-shot answer so both
  // see the same machine state; it stops early if --seconds run out.
  std::vector<Answer> Answers;
  TraceTotals T;
  double Cpu = 0.0;
  const Timer Wall;
  double LastDone = 0.0;
  for (int64_t I = 0;; ++I) {
    if (O.Trace ? I >= TraceQueries || Wall.seconds() >= O.Seconds
                : Wall.seconds() >= O.Seconds)
      break;
    const Query &Q = S.Queries[static_cast<size_t>(I % NumQueries)];
    Answer A;
    A.QueryIndex = I % NumQueries;
    const double Cpu0 = cpuSeconds();
    const double Called = Wall.seconds();
    A.Gap = Called - LastDone;
    A.Result = G.analyzeSegment(Pipeline(Q), latentShape(), Q.Start, Q.End,
                                Q.Spec);
    LastDone = Wall.seconds();
    Cpu += cpuSeconds() - Cpu0;
    A.Latency = LastDone - Called;
    if (O.Trace) {
      T.UntracedSeconds += A.Latency;
      traceQuery(O, G, Pipeline(Q), Q, A.Result.Bounds, T);
      LastDone = Wall.seconds();
    }
    Answers.push_back(std::move(A));
  }
  double Busy = 0.0;
  for (const Answer &A : Answers)
    Busy += A.Gap + A.Latency;
  const double RssMb = peakRssMb();

  // The sampling check is untimed and may use every CPU.
  ThreadPool::global().setThreads(O.CheckThreads);
  std::string Queries = "[";
  std::vector<bool> Seen(static_cast<size_t>(NumQueries), false);
  for (const Answer &A : Answers) {
    if (Seen[static_cast<size_t>(A.QueryIndex)])
      continue;
    Seen[static_cast<size_t>(A.QueryIndex)] = true;
    const Query &Q = S.Queries[static_cast<size_t>(A.QueryIndex)];
    Queries += std::string(Queries.size() > 1 ? "," : "") +
               queryJson(O, Pipeline(Q), Q, A.QueryIndex, A.Result);
  }
  Queries += "]";

  std::string Out = "{\"setup_s\":" + num(S.SetupSeconds) +
                    ",\"wall_s\":" + num(Busy) +
                    ",\"cpu_s\":" + num(Cpu) +
                    ",\"peak_rss_mb\":" + num(RssMb) +
                    ",\"answers\":" + answersJson(Answers) +
                    ",\"queries\":" + Queries;
  if (O.Trace)
    Out += ",\"trace\":" + traceJson(T);
  std::printf("%s}\n", Out.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// serve_repeat inputs and reference answers
//===----------------------------------------------------------------------===//

/// The serve_repeat segments on Decoder->ConvSmall: the Zipf pool first,
/// then the first-seen (cold) ones.
std::vector<Query> serveQueries(const Models &M, const Options &O) {
  std::vector<Query> Out = makeQueries(M, {0}, O.Pool, O.Angles, O.Seed);
  for (Query &Q : makeQueries(M, {0}, O.Cold, O.Angles, O.Seed + 0x10000))
    Out.push_back(std::move(Q));
  return Out;
}

std::string tensorJson(const Tensor &T) {
  std::string S = "[";
  for (int64_t I = 0; I < T.numel(); ++I) {
    if (I)
      S += ',';
    S += num(T[I]);
  }
  return S + "]";
}

std::string segmentsJson(const std::vector<Query> &Qs) {
  std::string S = "[";
  for (size_t I = 0; I < Qs.size(); ++I)
    S += std::string(I ? "," : "") + "{\"start\":" + tensorJson(Qs[I].Start) +
         ",\"end\":" + tensorJson(Qs[I].End) + ",\"spec\":\"argmax:" +
         std::to_string(Qs[I].Target) + ":" + std::to_string(NumClasses) +
         "\"}";
  return S + "]";
}

/// Write the Decoder->ConvSmall model files the daemon loads and print the
/// warm-up segment and the seeded segments (pool, then cold).
int runServeInputs(const Options &O) {
  if (O.Dir.empty())
    die("serve-inputs needs --dir");
  const Models M = buildModels();
  if (!saveNetwork(M.Decoder, O.Dir + "/decoder.gpn") ||
      !saveNetwork(M.Classifiers[0], O.Dir + "/convsmall.gpn"))
    die("cannot write model files under " + O.Dir);
  std::printf("{\"input_shape\":\"1x%lld\",\"warmup\":%s,\"segments\":%s}\n",
              static_cast<long long>(Latent),
              segmentsJson(makeQueries(M, {0}, 1, halved(O.Angles), WarmupSeed))
                  .c_str(),
              segmentsJson(serveQueries(M, O)).c_str());
  return 0;
}

/// Answer every serve_repeat segment in-process with analyzeSegment on the
/// saved model files (the daemon's answers must match these bit for bit),
/// step each through the layers with --trace 1, and sample it.
int runServeReference(const Options &O) {
  auto Decoder = loadNetwork(O.Dir + "/decoder.gpn");
  auto Classifier = loadNetwork(O.Dir + "/convsmall.gpn");
  if (!Decoder || !Classifier)
    die("cannot load the model files under " + O.Dir);
  const auto Pipeline = concatViews(Decoder->view(), Classifier->view());
  const std::vector<Query> Qs = serveQueries(buildModels(), O);
  const GenProve G(analyzerConfig(O));
  std::vector<Answer> Answers;
  for (size_t I = 0; I < Qs.size(); ++I) {
    Answer A;
    A.QueryIndex = static_cast<int64_t>(I);
    const Timer Lat;
    A.Result = G.analyzeSegment(Pipeline, latentShape(), Qs[I].Start,
                                Qs[I].End, Qs[I].Spec);
    A.Latency = Lat.seconds();
    Answers.push_back(std::move(A));
  }
  TraceTotals T;
  if (O.Trace)
    for (const Answer &A : Answers) {
      T.UntracedSeconds += A.Latency;
      traceQuery(O, G, Pipeline, Qs[static_cast<size_t>(A.QueryIndex)],
                 A.Result.Bounds, T);
    }
  ThreadPool::global().setThreads(O.CheckThreads);
  std::string Queries = "[";
  for (const Answer &A : Answers)
    Queries += std::string(Queries.size() > 1 ? "," : "") +
               queryJson(O, Pipeline, Qs[static_cast<size_t>(A.QueryIndex)],
                         A.QueryIndex, A.Result);
  std::string Out =
      "{\"answers\":" + answersJson(Answers) + ",\"queries\":" + Queries + "]";
  if (O.Trace)
    Out += ",\"trace\":" + traceJson(T);
  std::printf("%s}\n", Out.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const Timer Clock;
  const Options O = parseOptions(Argc, Argv);
  ThreadPool::global().setThreads(1); // the workloads verify on one thread
  if (O.Sound)
    setSoundRounding(true);
  if (O.Mode == "setup")
    return runSetup(O, Clock);
  if (O.Mode == "run")
    return runPaper(O, Clock);
  if (O.Mode == "serve-inputs")
    return runServeInputs(O);
  if (O.Mode == "serve-reference")
    return runServeReference(O);
  die("unknown mode " + O.Mode);
}
