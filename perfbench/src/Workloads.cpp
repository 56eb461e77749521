#include "Workloads.h"

#include "Stats.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>

using namespace perfbench;

void RunResult::fail(const std::string &Why) {
  ++Failed;
  Correct = false;
  if (Failures.size() < 20)
    Failures.push_back(Why);
}

void perfbench::parallelForDynamic(int Jobs, int N,
                                   const std::function<void(int)> &Body) {
  std::atomic<int> Next{0};
  std::vector<std::jthread> Workers;
  for (int W = 0; W < Jobs; ++W)
    Workers.emplace_back([&] {
      for (int I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    });
}

double perfbench::timeSetup(const RunOptions &Opts, Trace &T,
                            const std::function<void()> &Setup) {
  std::vector<double> Seconds;
  double Total = 0;
  for (bool Last = false; !Last;) {
    // The repetition that makes both minimums hold is the last one.
    const double Typical = Seconds.empty() ? 0 : median(Seconds);
    Last = static_cast<int>(Seconds.size()) + 1 >= SetupRepeats &&
           Total + Typical >= MinSetupSeconds;
    if (Opts.Traced && Last)
      setActiveTrace(&T);
    const int64_t Start = nowNs();
    Setup();
    Seconds.push_back(static_cast<double>(nowNs() - Start) * 1e-9);
    Total += Seconds.back();
    setActiveTrace(nullptr);
  }
  return median(Seconds);
}

void perfbench::reportLatency(
    RunResult &R, const std::vector<std::vector<double>> &WindowsUs) {
  std::vector<std::vector<double>> Windows;
  std::vector<double> All;
  for (const std::vector<double> &W : WindowsUs)
    if (!W.empty()) {
      Windows.push_back(W);
      All.insert(All.end(), W.begin(), W.end());
    }
  const auto smallest = [&] {
    size_t N = SIZE_MAX;
    for (const std::vector<double> &W : Windows)
      N = std::min(N, W.size());
    return Windows.empty() ? 0 : N;
  };
  if (highestTailPercentile(smallest()) == 0 && Windows.size() > 1)
    Windows.assign(1, All);
  // With too few samples for any tail, the median stands in for it.
  const double Tail = std::max(0.5, highestTailPercentile(smallest()));
  std::vector<double> PerWindow;
  for (const std::vector<double> &W : Windows)
    PerWindow.push_back(percentile(W, Tail));
  R.set("latency_p50_us", median(All), "us");
  R.set("latency_tail_us", median(PerWindow), "us");
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "latency: %zu samples in %zu window(s); latency_tail_us is "
                "the median over windows of p%g (%zu samples beyond it in "
                "the smallest window)",
                All.size(), Windows.size(), Tail * 100,
                samplesBeyond(smallest(), Tail));
  R.Info.push_back(Line);
}

namespace {

/// The "Field:" line of /proc/self/status, in MiB; -1 when absent.
double procStatusMb(const char *Field) {
  std::ifstream In("/proc/self/status");
  const std::string Prefix = std::string(Field) + ":";
  for (std::string Line; std::getline(In, Line);)
    if (Line.compare(0, Prefix.size(), Prefix) == 0)
      return std::strtod(Line.c_str() + Prefix.size(), nullptr) /
             1024.0; // the values are kB
  return -1;
}

} // namespace

double perfbench::resetPeakRss() {
  malloc_trim(0);
  std::ofstream Clear("/proc/self/clear_refs");
  Clear << "5"; // resets VmHWM to VmRSS
  Clear.flush();
  return Clear ? procStatusMb("VmRSS") : -1;
}

double perfbench::peakRssMb() { return procStatusMb("VmHWM"); }

std::string perfbench::rssInfo(double BaseMb, double PeakMb) {
  if (BaseMb < 0)
    return "rss: the peak could not be reset; peak_rss_mb covers the whole "
           "process";
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "rss: %.1f MiB resident at the start of the timed region "
                "(inputs, expected results), peak %.1f MiB",
                BaseMb, PeakMb);
  return Line;
}

double perfbench::traceOverheadFrac(size_t Spans, int64_t WallNs) {
  if (WallNs <= 0)
    return 0;
  constexpr int Calibration = 200000;
  Trace Scratch;
  Trace *Prev = activeTrace();
  setActiveTrace(&Scratch);
  const int64_t Start = nowNs();
  for (int I = 0; I < Calibration; ++I) {
    ScopedSpan Outer("calibrate", I);
  }
  const int64_t Elapsed = nowNs() - Start;
  setActiveTrace(Prev);
  const double PerSpanNs = static_cast<double>(Elapsed) / Calibration;
  return PerSpanNs * static_cast<double>(Spans) / static_cast<double>(WallNs);
}

double perfbench::busySeconds(const std::map<std::string, SpanTotals> &Totals,
                              const std::string &Name, double Passes) {
  const auto It = Totals.find(Name);
  if (It == Totals.end() || Passes <= 0)
    return 0;
  return static_cast<double>(It->second.SelfNs) * 1e-9 / Passes;
}
