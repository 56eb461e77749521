//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads and the result every run prints. Each run
/// reports every end-to-end metric (untraced) or every per-layer metric
/// (traced); main() fills the layers a workload does not exercise with 0.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 19930601;
  double Seconds = 10;
  bool Traced = false;
  /// Scratch directory inside the checkout (stores, span dumps).
  std::string WorkDir;
};

struct MetricValue {
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  long Attempted = 0;
  long Failed = 0;
  /// False when any check failed; the first few reasons go to stderr.
  bool Correct = true;
  std::vector<std::string> Failures;
  std::map<std::string, MetricValue> Metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// realized request mix).
  std::vector<std::string> Info;

  void fail(const std::string &Why);
  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = MetricValue{Value, Unit};
  }
};

/// Set-up repeats at least SetupRepeats times and for at least
/// MinSetupSeconds in all; setup_s is the median repetition.
constexpr int SetupRepeats = 5;
constexpr double MinSetupSeconds = 0.5;

/// Runs \p Body(I) for every I in [0, N) on \p Jobs threads that take
/// indices in order from a shared counter, so a few slow items do not
/// pile up on one thread. \p Body must only touch per-index state.
void parallelForDynamic(int Jobs, int N, const std::function<void(int)> &Body);

/// Runs \p Setup as often as the minimums above ask and returns the median
/// duration in seconds. Only the last repetition is traced when
/// \p Opts.Traced.
double timeSetup(const RunOptions &Opts, Trace &T,
                 const std::function<void()> &Setup);

/// Latency metrics shared by every workload, from samples grouped in
/// measuring windows (passes, rounds or seconds): latency_p50_us is the
/// median of all samples; latency_tail_us is the median over windows of
/// each window's tail percentile, the highest of p99/p90/p50 that leaves
/// at least MinTailSamples samples beyond it in every window. When no
/// window is large enough the windows are pooled into one. An Info line
/// names the percentile and the sample counts.
void reportLatency(RunResult &R,
                   const std::vector<std::vector<double>> &WindowsUs);

/// Returns freed heap pages to the system and restarts the process's
/// peak resident set at its current resident set, so that peakRssMb()
/// covers only what runs after this call. Returns the resident set, in
/// MiB, or -1 when the kernel does not allow the restart.
double resetPeakRss();

/// Process peak resident set, in MiB, since resetPeakRss() (or since the
/// process started).
double peakRssMb();

/// Info line for peak_rss_mb: the resident set at the reset, which holds
/// the benchmark's own inputs, and the peak after it.
std::string rssInfo(double BaseMb, double PeakMb);

/// Estimated share of \p WallNs that recording \p Spans spans cost,
/// from timing empty spans into a scratch trace.
double traceOverheadFrac(size_t Spans, int64_t WallNs);

/// Self seconds of span \p Name in \p Totals divided by \p Passes.
double busySeconds(const std::map<std::string, SpanTotals> &Totals,
                   const std::string &Name, double Passes = 1);

RunResult runPaperSuite(const RunOptions &Opts);
RunResult runLargeLoops(const RunOptions &Opts);
RunResult runServiceMix(const RunOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
