#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

namespace {

/// 1-based nearest rank of the \p P percentile among \p N samples.
size_t nearestRank(size_t N, double P) {
  // The epsilon keeps P*N for exact products (0.99 * 1000) from rounding
  // up past the integer they represent.
  const double R = std::ceil(P * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(R, 1.0)), 1, N);
}

} // namespace

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  const size_t K = nearestRank(Samples.size(), P) - 1;
  std::nth_element(Samples.begin(), Samples.begin() + static_cast<long>(K),
                   Samples.end());
  return Samples[K];
}

double perfbench::median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 0.5);
}

size_t perfbench::samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

bool perfbench::tailReportable(size_t N, double P) {
  return samplesBeyond(N, P) >= MinTailSamples;
}

double perfbench::highestTailPercentile(size_t N) {
  for (const double P : {0.99, 0.9, 0.5})
    if (tailReportable(N, P))
      return P;
  return 0;
}
