//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the benchmark's latency samples. A timing is
/// reported as a median and, for tails, only at a percentile that has at
/// least MinTailSamples samples beyond it, so no tail figure rests on a
/// handful of observations.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
constexpr size_t MinTailSamples = 10;

/// Nearest-rank percentile (\p P in (0, 1]) of \p Samples; 0 when empty.
double percentile(std::vector<double> Samples, double P);

/// Median of \p Samples (nearest-rank); 0 when empty.
double median(std::vector<double> Samples);

/// Samples strictly beyond the nearest-rank \p P percentile of \p N
/// samples.
size_t samplesBeyond(size_t N, double P);

/// True when \p N samples leave at least MinTailSamples beyond the \p P
/// percentile (for P = 0.99 that means N >= 1000).
bool tailReportable(size_t N, double P);

/// The highest of the percentiles 0.99, 0.9 and 0.5 that tailReportable
/// admits for \p N samples; 0 when none does.
double highestTailPercentile(size_t N);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
