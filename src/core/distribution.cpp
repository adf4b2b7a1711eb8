//===- core/distribution.cpp ----------------------------------*- C++ -*-===//

#include "src/core/distribution.h"

#include <algorithm>
#include <cmath>

namespace genprove {

double paramCdf(ParamDistribution Dist, double T) {
  T = std::clamp(T, 0.0, 1.0);
  switch (Dist) {
  case ParamDistribution::Uniform:
    return T;
  case ParamDistribution::Arcsine:
    return 2.0 / M_PI * std::asin(std::sqrt(T));
  }
  return T;
}

std::function<double(double)> makeCdf(ParamDistribution Dist) {
  return [Dist](double T) { return paramCdf(Dist, T); };
}

std::vector<double> planRange(double T0, double T1, int64_t N) {
  N = std::max<int64_t>(N, 1);
  std::vector<double> Cuts(static_cast<size_t>(N) + 1);
  for (int64_t K = 0; K <= N; ++K)
    Cuts[static_cast<size_t>(K)] =
        T0 + (T1 - T0) * (static_cast<double>(K) / static_cast<double>(N));
  Cuts.front() = T0;
  Cuts.back() = T1;
  return Cuts;
}

double sampleParam(ParamDistribution Dist, Rng &Generator) {
  switch (Dist) {
  case ParamDistribution::Uniform:
    return Generator.uniform();
  case ParamDistribution::Arcsine:
    return Generator.arcsine();
  }
  return Generator.uniform();
}

const char *paramDistributionName(ParamDistribution Dist) {
  return Dist == ParamDistribution::Uniform ? "uniform" : "arcsine";
}

} // namespace genprove
