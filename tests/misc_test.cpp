//===- tests/misc_test.cpp - memory model, serialize edges, misc -*- C++ -*-===//

#include "src/domains/memory_model.h"
#include "src/domains/relaxation.h"
#include "src/nn/architectures.h"
#include "src/nn/init.h"
#include "src/nn/serialize.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace genprove {
namespace {

TEST(MemoryModel, TracksPeakAndBudget) {
  DeviceMemoryModel Memory(1000);
  EXPECT_TRUE(Memory.charge(500));
  EXPECT_EQ(Memory.peakBytes(), 500u);
  EXPECT_TRUE(Memory.charge(200)); // peak unchanged
  EXPECT_EQ(Memory.peakBytes(), 500u);
  EXPECT_FALSE(Memory.charge(1500));
  EXPECT_TRUE(Memory.exhausted());
  Memory.reset();
  EXPECT_EQ(Memory.peakBytes(), 0u);
  EXPECT_FALSE(Memory.exhausted());
}

TEST(MemoryModel, UnlimitedBudgetNeverExhausts) {
  DeviceMemoryModel Memory(0);
  EXPECT_TRUE(Memory.charge(1ull << 40));
  EXPECT_FALSE(Memory.exhausted());
}

TEST(MemoryModel, ChargeStateUsesDoubleBytes) {
  DeviceMemoryModel Memory(0);
  Memory.chargeState(10, 100);
  EXPECT_EQ(Memory.peakBytes(), 10u * 100u * sizeof(double));
}

TEST(Serialize, TruncatedFileIsRejected) {
  Rng R(1);
  Sequential Net = makeConvSmall(1, 8, 3);
  kaimingInit(Net, R);
  const std::string Path = "/tmp/genprove_truncated.bin";
  ASSERT_TRUE(saveNetwork(Net, Path));
  // Truncate to half.
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() / 2));
  Out.close();
  EXPECT_FALSE(loadNetwork(Path).has_value());
  std::remove(Path.c_str());
}

TEST(Serialize, GarbageMagicIsRejected) {
  const std::string Path = "/tmp/genprove_garbage.bin";
  std::ofstream Out(Path, std::ios::binary);
  Out << "this is not a genprove model file at all, not even close";
  Out.close();
  EXPECT_FALSE(loadNetwork(Path).has_value());
  std::remove(Path.c_str());
}

/// Model files hand-encoded in the on-disk format (which stores Linear
/// weights [Out, In]), independent of how the loader lays them out.
class ModelBytes {
public:
  explicit ModelBytes(uint64_t NumLayers) {
    put<uint64_t>(0x47454e50524f5645ull); // "GENPROVE"
    put<uint32_t>(1);
    put<uint64_t>(NumLayers);
  }
  ModelBytes &linear(int64_t In, int64_t Out) {
    put<uint32_t>(0); // Layer::Kind::Linear
    put<int64_t>(In);
    return put<int64_t>(Out);
  }
  ModelBytes &relu() { return put<uint32_t>(3); } // Layer::Kind::ReLU
  ModelBytes &tensor(std::vector<int64_t> Dims, const std::vector<double> &V) {
    put<uint64_t>(Dims.size());
    for (const int64_t D : Dims)
      put<int64_t>(D);
    for (const double X : V)
      put<double>(X);
    return *this;
  }
  std::string Bytes;

private:
  template <typename T> ModelBytes &put(T V) {
    Bytes.append(reinterpret_cast<const char *>(&V), sizeof(V));
    return *this;
  }
};

std::vector<double> iota(int64_t N, double Scale) {
  std::vector<double> V(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    V[static_cast<size_t>(I)] = Scale * static_cast<double>(I + 1);
  return V;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// Malformed headers fail cleanly (nullopt) before anything is allocated
/// or transposed: a negative dim, dims whose bytes exceed the file, and a
/// weight whose shape differs from the layer header.
TEST(Serialize, MalformedLinearHeadersAreRejected) {
  const std::string Path = "/tmp/genprove_malformed.bin";
  const std::vector<std::string> Files = {
      ModelBytes(1).linear(-5, 3).tensor({3, -5}, {}).Bytes,
      ModelBytes(1)
          .linear(int64_t{1} << 20, int64_t{1} << 20)
          .tensor({int64_t{1} << 20, int64_t{1} << 20}, iota(16, 1.0))
          .Bytes,
      ModelBytes(1)
          .linear(4, 3)
          .tensor({5, 7}, iota(35, 0.5))
          .tensor({3}, iota(3, 1.0))
          .Bytes,
  };
  for (size_t I = 0; I < Files.size(); ++I) {
    writeFile(Path, Files[I]);
    EXPECT_FALSE(loadNetwork(Path).has_value()) << "file " << I;
  }
  std::remove(Path.c_str());
}

/// Every strict prefix of a valid file is rejected.
TEST(Serialize, EveryTruncationIsRejected) {
  const std::string Bytes = ModelBytes(3)
                                .linear(3, 2)
                                .tensor({2, 3}, iota(6, 0.25))
                                .tensor({2}, iota(2, -1.0))
                                .relu()
                                .linear(2, 2)
                                .tensor({2, 2}, iota(4, 0.5))
                                .tensor({2}, iota(2, 2.0))
                                .Bytes;
  const std::string Path = "/tmp/genprove_prefix.bin";
  writeFile(Path, Bytes);
  ASSERT_TRUE(loadNetwork(Path).has_value());
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    writeFile(Path, Bytes.substr(0, Len));
    EXPECT_FALSE(loadNetwork(Path).has_value()) << "prefix " << Len;
  }
  std::remove(Path.c_str());
}

/// A file in the [Out, In] on-disk format loads into the transposed
/// in-memory layout with the right orientation and re-saves byte for
/// byte.
TEST(Serialize, OnDiskFormatLoadsAndResavesByteIdentically) {
  const std::vector<double> W = iota(6, 0.25); // [Out=2, In=3]
  const std::string Bytes = ModelBytes(2)
                                .linear(3, 2)
                                .tensor({2, 3}, W)
                                .tensor({2}, {-1.0, 0.5})
                                .relu()
                                .Bytes;
  const std::string Path = "/tmp/genprove_format.bin";
  writeFile(Path, Bytes);
  auto Net = loadNetwork(Path);
  ASSERT_TRUE(Net.has_value());
  ASSERT_EQ(Net->size(), 2u);
  const Tensor Y =
      Net->layer(0).applyAffine(Tensor({1, 3}, {1.0, 10.0, 100.0}));
  // y_o = sum_i W[o, i] x_i + b_o.
  EXPECT_EQ(Y[0], 0.25 + 5.0 + 75.0 - 1.0);
  EXPECT_EQ(Y[1], 1.0 + 12.5 + 150.0 + 0.5);
  ASSERT_TRUE(saveNetwork(*Net, Path));
  EXPECT_EQ(readFile(Path), Bytes);
  std::remove(Path.c_str());
}

TEST(Relax, QuadraticPiecesAreBoxedSoundly) {
  Rng R(2);
  std::vector<Region> Chain;
  const int64_t N = 200;
  for (int64_t I = 0; I < N; ++I) {
    const double T0 = static_cast<double>(I) / N;
    const double T1 = static_cast<double>(I + 1) / N;
    Tensor A0 = Tensor::randn({1, 3}, R, 0.1);
    Tensor A1 = Tensor::randn({1, 3}, R, 0.1);
    Tensor A2 = Tensor::randn({1, 3}, R, 0.1);
    Chain.push_back(makeQuadraticRegion(A0, A1, A2, T1 - T0, T0, T1));
  }
  const std::vector<Region> Original = Chain;
  RelaxConfig Config;
  Config.RelaxPercent = 1.0;
  Config.ClusterK = 10.0;
  Config.NodeThreshold = 20;
  relaxRegions(Chain, Config);
  ASSERT_LT(Chain.size(), Original.size());

  // Sampled points of the original quadratics stay covered.
  for (int Trial = 0; Trial < 100; ++Trial) {
    const Region &Q = Original[R.below(Original.size())];
    const double T = R.uniform(Q.T0, Q.T1);
    const Tensor P = evalCurve(Q, T);
    bool Covered = false;
    for (const auto &Piece : Chain) {
      if (Piece.Kind == RegionKind::Curve) {
        if (T < Piece.T0 - 1e-12 || T > Piece.T1 + 1e-12)
          continue;
        const Tensor Pt = evalCurve(Piece, T);
        bool Match = true;
        for (int64_t J = 0; J < 3 && Match; ++J)
          if (std::fabs(Pt[J] - P[J]) > 1e-9)
            Match = false;
        Covered |= Match;
      } else {
        bool Inside = true;
        for (int64_t J = 0; J < 3 && Inside; ++J)
          if (std::fabs(P[J] - Piece.Center[J]) > Piece.Radius[J] + 1e-9)
            Inside = false;
        Covered |= Inside;
      }
      if (Covered)
        break;
    }
    EXPECT_TRUE(Covered);
  }
}

TEST(Architectures, DescribeMentionsEveryLayer) {
  const Sequential Net = makeDecoder(8, 3, 16);
  const std::string Text = Net.describe();
  EXPECT_NE(Text.find("Linear"), std::string::npos);
  EXPECT_NE(Text.find("ConvTranspose2d"), std::string::npos);
  EXPECT_NE(Text.find("ReLU"), std::string::npos);
  EXPECT_NE(Text.find("Reshape"), std::string::npos);
}

TEST(Architectures, ConvMedHandlesOddIntermediateSizes) {
  // ConvMed's k4 s1 p1 produces a 15x15 intermediate at 16x16 input; the
  // shape machinery must track it exactly.
  Sequential Net = makeConvMed(3, 16, 5);
  Rng R(3);
  kaimingInit(Net, R);
  Tensor X = Tensor::rand({2, 3, 16, 16}, R);
  const Tensor Y = Net.forward(X);
  EXPECT_EQ(Y.shape(), Shape({2, 5}));
}

} // namespace
} // namespace genprove
