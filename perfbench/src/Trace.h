//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span tracing for the benchmark. Spans are recorded by the
/// benchmark around its calls into each library module (name, start, end,
/// parent span, request id), kept per thread while the workload runs, and
/// summarized or written out when it ends. With no trace installed a
/// ScopedSpan costs one pointer test, so the untraced run that yields the
/// end-to-end metrics makes the same calls without the clock reads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process's first call.
int64_t nowNs();

/// One closed span. Parent indexes the same thread's span list (-1 for a
/// root span); Request groups the spans of one loop or request (-1 when
/// the span belongs to no request, e.g. set-up).
struct SpanRecord {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  int64_t Request = -1;
};

/// Spans recorded by one thread, in the order they were opened.
struct TraceLane {
  std::vector<SpanRecord> Spans;
  std::vector<int32_t> Open; ///< indexes of spans not yet closed
};

/// A trace: one lane per recording thread. Install with setActiveTrace.
class Trace {
public:
  Trace();
  /// The calling thread's lane (created on first use).
  TraceLane &lane();
  /// Every lane, for summaries after all recording threads have joined.
  std::vector<const TraceLane *> lanes() const;
  size_t spanCount() const;

private:
  const uint64_t Id;
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<TraceLane>> Lanes;
};

/// Installs \p T as the process-wide trace (nullptr turns tracing off).
/// Call only while no thread is recording.
void setActiveTrace(Trace *T);
Trace *activeTrace();

/// Records a span around its scope when a trace is active; the parent is
/// the innermost span still open on the same thread.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, int64_t Request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  TraceLane *Lane = nullptr;
  int32_t Index = -1;
};

/// Self time of every span in \p Lane: its duration minus the part of its
/// interval covered by the union of its children's intervals (children
/// clipped to the parent, overlaps counted once). Same order as Spans.
std::vector<int64_t> selfTimesNs(const std::vector<SpanRecord> &Spans);

/// Per span name: count, total duration, and total self time.
struct SpanTotals {
  long Count = 0;
  int64_t TotalNs = 0;
  int64_t SelfNs = 0;
};
std::map<std::string, SpanTotals> summarize(const Trace &T);

/// Writes every span as tab-separated text: lane, index, name, start_ns,
/// end_ns, parent, request. Returns false when the file cannot be written.
bool writeSpans(const Trace &T, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
