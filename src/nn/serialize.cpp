//===- nn/serialize.cpp ---------------------------------------*- C++ -*-===//

#include "src/nn/serialize.h"

#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/nn/conv_transpose.h"
#include "src/nn/linear.h"
#include "src/nn/reshape.h"

#include <cstdio>
#include <initializer_list>
#include <memory>

namespace genprove {

namespace {

constexpr uint64_t Magic = 0x47454e50524f5645ull; // "GENPROVE"
constexpr uint32_t Version = 1;

void writeU64(std::FILE *F, uint64_t V) { std::fwrite(&V, sizeof(V), 1, F); }
void writeI64(std::FILE *F, int64_t V) { std::fwrite(&V, sizeof(V), 1, F); }
void writeU32(std::FILE *F, uint32_t V) { std::fwrite(&V, sizeof(V), 1, F); }

void writeTensor(std::FILE *F, const Tensor &T) {
  writeU64(F, T.rank());
  for (size_t I = 0; I < T.rank(); ++I)
    writeI64(F, T.shape().dim(static_cast<int>(I)));
  std::fwrite(T.data(), sizeof(double), static_cast<size_t>(T.numel()), F);
}

/// Read side of the format, bounded by the file size: a layer header is
/// checked against the bytes left in the file before the layer (and its
/// parameter tensors) is allocated, and a stored tensor must have exactly
/// the shape its layer header implies. A malformed or truncated file
/// therefore fails cleanly instead of throwing from an allocation or
/// dying later in a kernel shape check.
class Reader {
public:
  explicit Reader(std::FILE *F) : F(F) {
    if (std::fseek(F, 0, SEEK_END) == 0)
      Size = std::ftell(F);
    std::rewind(F);
  }

  bool u64(uint64_t &V) { return std::fread(&V, sizeof(V), 1, F) == 1; }
  bool i64(int64_t &V) { return std::fread(&V, sizeof(V), 1, F) == 1; }
  bool u32(uint32_t &V) { return std::fread(&V, sizeof(V), 1, F) == 1; }

  /// True when every dim is positive and a tensor of that shape fits in
  /// what is left of the file.
  bool fits(std::initializer_list<int64_t> Dims) const {
    int64_t Count = 1;
    for (const int64_t D : Dims)
      if (D <= 0 || __builtin_mul_overflow(Count, D, &Count))
        return false;
    const long Left = Size - std::ftell(F);
    return Left >= 0 &&
           Count <= static_cast<int64_t>(Left / sizeof(double));
  }

  /// Read a tensor whose stored shape must equal \p T's shape, into T.
  bool tensorInto(Tensor &T) {
    uint64_t Rank = 0;
    if (!u64(Rank) || Rank != T.rank())
      return false;
    for (size_t I = 0; I < Rank; ++I) {
      int64_t D = 0;
      if (!i64(D) || D != T.dim(static_cast<int>(I)))
        return false;
    }
    const size_t N = static_cast<size_t>(T.numel());
    return std::fread(T.data(), sizeof(double), N, F) == N;
  }

private:
  std::FILE *F;
  long Size = 0;
};

} // namespace

bool saveNetwork(const Sequential &Network, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  writeU64(F, Magic);
  writeU32(F, Version);
  writeU64(F, Network.size());
  for (size_t I = 0; I < Network.size(); ++I) {
    const Layer &L = Network.layer(I);
    writeU32(F, static_cast<uint32_t>(L.kind()));
    switch (L.kind()) {
    case Layer::Kind::Linear: {
      const auto &Lin = static_cast<const Linear &>(L);
      writeI64(F, Lin.inFeatures());
      writeI64(F, Lin.outFeatures());
      writeTensor(F, Lin.weight());
      writeTensor(F, Lin.bias());
      break;
    }
    case Layer::Kind::Conv2d: {
      const auto &Conv = static_cast<const Conv2d &>(L);
      const auto &G = Conv.geometry();
      writeI64(F, G.InChannels);
      writeI64(F, G.OutChannels);
      writeI64(F, G.KernelH);
      writeI64(F, G.Stride);
      writeI64(F, G.Padding);
      writeTensor(F, Conv.weight());
      writeTensor(F, Conv.bias());
      break;
    }
    case Layer::Kind::ConvTranspose2d: {
      const auto &Conv = static_cast<const ConvTranspose2d &>(L);
      const auto &G = Conv.geometry();
      writeI64(F, G.InChannels);
      writeI64(F, G.OutChannels);
      writeI64(F, G.KernelH);
      writeI64(F, G.Stride);
      writeI64(F, G.Padding);
      writeI64(F, G.OutputPadding);
      writeTensor(F, Conv.weight());
      writeTensor(F, Conv.bias());
      break;
    }
    case Layer::Kind::ReLU:
    case Layer::Kind::Flatten:
      break;
    case Layer::Kind::Reshape: {
      const auto &R = static_cast<const Reshape &>(L);
      writeI64(F, R.channels());
      writeI64(F, R.height());
      writeI64(F, R.width());
      break;
    }
    }
  }
  std::fclose(F);
  return true;
}

std::optional<Sequential> loadNetwork(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  auto Fail = [&]() -> std::optional<Sequential> {
    std::fclose(F);
    return std::nullopt;
  };
  Reader R(F);
  uint64_t Mg = 0;
  uint32_t Ver = 0;
  uint64_t NumLayers = 0;
  if (!R.u64(Mg) || Mg != Magic || !R.u32(Ver) || Ver != Version ||
      !R.u64(NumLayers) || NumLayers > 1024)
    return Fail();

  Sequential Net;
  for (uint64_t I = 0; I < NumLayers; ++I) {
    uint32_t KindRaw = 0;
    if (!R.u32(KindRaw))
      return Fail();
    switch (static_cast<Layer::Kind>(KindRaw)) {
    case Layer::Kind::Linear: {
      int64_t In = 0, Out = 0;
      if (!R.i64(In) || !R.i64(Out) || !R.fits({Out, In}))
        return Fail();
      auto L = std::make_unique<Linear>(In, Out);
      Tensor W({Out, In}); // the file keeps the [Out, In] layout
      if (!R.tensorInto(W) || !R.tensorInto(L->bias()))
        return Fail();
      L->setWeight(W);
      Net.add(std::move(L));
      break;
    }
    case Layer::Kind::Conv2d: {
      int64_t Ic = 0, Oc = 0, K = 0, S = 0, P = 0;
      if (!R.i64(Ic) || !R.i64(Oc) || !R.i64(K) || !R.i64(S) || !R.i64(P) ||
          S <= 0 || P < 0 || !R.fits({Oc, Ic, K, K}))
        return Fail();
      auto L = std::make_unique<Conv2d>(Ic, Oc, K, S, P);
      if (!R.tensorInto(L->weight()) || !R.tensorInto(L->bias()))
        return Fail();
      Net.add(std::move(L));
      break;
    }
    case Layer::Kind::ConvTranspose2d: {
      int64_t Ic = 0, Oc = 0, K = 0, S = 0, P = 0, Op = 0;
      if (!R.i64(Ic) || !R.i64(Oc) || !R.i64(K) || !R.i64(S) || !R.i64(P) ||
          !R.i64(Op) || S <= 0 || P < 0 || Op < 0 || !R.fits({Ic, Oc, K, K}))
        return Fail();
      auto L = std::make_unique<ConvTranspose2d>(Ic, Oc, K, S, P, Op);
      if (!R.tensorInto(L->weight()) || !R.tensorInto(L->bias()))
        return Fail();
      Net.add(std::move(L));
      break;
    }
    case Layer::Kind::ReLU:
      Net.add(std::make_unique<ReLU>());
      break;
    case Layer::Kind::Flatten:
      Net.add(std::make_unique<Flatten>());
      break;
    case Layer::Kind::Reshape: {
      int64_t C = 0, H = 0, W = 0;
      if (!R.i64(C) || !R.i64(H) || !R.i64(W) || C <= 0 || H <= 0 || W <= 0)
        return Fail();
      Net.add(std::make_unique<Reshape>(C, H, W));
      break;
    }
    default:
      return Fail();
    }
  }
  std::fclose(F);
  return Net;
}

} // namespace genprove
