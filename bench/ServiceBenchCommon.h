//===----------------------------------------------------------------------===//
///
/// \file
/// Shared harness for the scheduling-service benchmarks: a deterministic
/// request corpus (every suite kernel plus seeded random DSL sources) and
/// a cold/warm throughput measurement over a SchedulingService, used by
/// bench/service_bench and the DSL round-trip tests.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_BENCH_SERVICEBENCHCOMMON_H
#define LSMS_BENCH_SERVICEBENCHCOMMON_H

#include "service/SchedulingService.h"

#include <string>
#include <vector>

namespace lsms {

/// Deterministic DSL corpus: the named suite kernels followed by
/// \p RandomCount seeded random loop programs (each verified to compile).
/// The same (RandomCount, Seed) always produces byte-identical sources.
std::vector<std::string> serviceBenchCorpus(int RandomCount, uint64_t Seed);

/// One seeded random loop-DSL program (exposed for the generator tests).
std::string randomDslSource(uint64_t Seed);

/// Cold/warm measurement over one service instance.
struct ServiceBenchResult {
  int CorpusLoops = 0;   ///< distinct requests in the corpus
  int WarmPasses = 0;    ///< corpus repetitions measured as warm
  double ColdSeconds = 0; ///< first pass (every request a cache miss)
  double WarmSeconds = 0; ///< WarmPasses subsequent passes (cache hits)
  double coldLoopsPerSec() const {
    return ColdSeconds > 0 ? CorpusLoops / ColdSeconds : 0;
  }
  double warmLoopsPerSec() const {
    return WarmSeconds > 0
               ? static_cast<double>(CorpusLoops) * WarmPasses / WarmSeconds
               : 0;
  }
  double warmSpeedup() const {
    const double Cold = coldLoopsPerSec(), Warm = warmLoopsPerSec();
    return Cold > 0 ? Warm / Cold : 0;
  }
  double HitRate = 0;   ///< cache hit rate over the whole run
  long Hits = 0, Misses = 0;
  int64_t P50Us = 0, P99Us = 0; ///< request latency percentiles
  int Errors = 0;               ///< non-Ok responses (should be 0)
};

/// Runs the corpus through a fresh SchedulingService: one timed cold pass,
/// then \p WarmPasses timed repetitions. Every request uses \p Engine.
ServiceBenchResult runServiceBench(const std::vector<std::string> &Corpus,
                                   ServiceEngine Engine, int WarmPasses,
                                   const ServiceConfig &Config);

/// Streams the corpus (cold pass + one warm pass) through processJsonl on
/// a fresh service at each job count and returns the response streams,
/// index-aligned with \p JobCounts. Byte-comparing them asserts the
/// service's determinism guarantee.
std::vector<std::string>
serviceResponsesAtJobs(const std::vector<std::string> &Corpus,
                       ServiceEngine Engine,
                       const std::vector<int> &JobCounts);

} // namespace lsms

#endif // LSMS_BENCH_SERVICEBENCHCOMMON_H
