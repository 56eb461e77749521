#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

using namespace perfbench;

namespace {

std::atomic<Trace *> Active{nullptr};
std::atomic<uint64_t> NextTraceId{1};

// Each thread caches its lane of the trace it last recorded into, keyed by
// the trace's unique id so a trace reallocated at the same address is
// never handed a stale lane.
struct LaneCache {
  uint64_t TraceId = 0;
  TraceLane *Lane = nullptr;
};
thread_local LaneCache CachedLane;

} // namespace

int64_t perfbench::nowNs() {
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

Trace::Trace() : Id(NextTraceId++) {}

TraceLane &Trace::lane() {
  if (CachedLane.TraceId == Id)
    return *CachedLane.Lane;
  std::lock_guard<std::mutex> Lock(Mu);
  Lanes.push_back(std::make_unique<TraceLane>());
  CachedLane = LaneCache{Id, Lanes.back().get()};
  return *Lanes.back();
}

std::vector<const TraceLane *> Trace::lanes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<const TraceLane *> Out;
  for (const auto &L : Lanes)
    Out.push_back(L.get());
  return Out;
}

size_t Trace::spanCount() const {
  size_t N = 0;
  for (const TraceLane *L : lanes())
    N += L->Spans.size();
  return N;
}

void perfbench::setActiveTrace(Trace *T) {
  Active.store(T, std::memory_order_release);
}

Trace *perfbench::activeTrace() {
  return Active.load(std::memory_order_acquire);
}

ScopedSpan::ScopedSpan(const char *Name, int64_t Request) {
  Trace *T = activeTrace();
  if (!T)
    return;
  Lane = &T->lane();
  SpanRecord S;
  S.Name = Name;
  S.Parent = Lane->Open.empty() ? -1 : Lane->Open.back();
  S.Request = Request;
  if (Request < 0 && S.Parent >= 0)
    S.Request = Lane->Spans[static_cast<size_t>(S.Parent)].Request;
  Index = static_cast<int32_t>(Lane->Spans.size());
  Lane->Open.push_back(Index);
  S.StartNs = nowNs();
  Lane->Spans.push_back(S);
}

ScopedSpan::~ScopedSpan() {
  if (!Lane)
    return;
  Lane->Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  Lane->Open.pop_back();
}

std::vector<int64_t>
perfbench::selfTimesNs(const std::vector<SpanRecord> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.StartNs,
                                                           S.EndNs);
  std::vector<int64_t> Self(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const int64_t Lo = Spans[I].StartNs, Hi = Spans[I].EndNs;
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t Covered = 0, RunLo = 0, RunHi = 0;
    bool InRun = false;
    for (auto [A, B] : C) {
      A = std::max(A, Lo);
      B = std::min(B, Hi);
      if (B <= A)
        continue;
      if (InRun && A <= RunHi) {
        RunHi = std::max(RunHi, B);
        continue;
      }
      if (InRun)
        Covered += RunHi - RunLo;
      RunLo = A;
      RunHi = B;
      InRun = true;
    }
    if (InRun)
      Covered += RunHi - RunLo;
    Self[I] = std::max<int64_t>(0, Hi - Lo) - Covered;
  }
  return Self;
}

std::map<std::string, SpanTotals> perfbench::summarize(const Trace &T) {
  std::map<std::string, SpanTotals> Out;
  for (const TraceLane *L : T.lanes()) {
    const std::vector<int64_t> Self = selfTimesNs(L->Spans);
    for (size_t I = 0; I < L->Spans.size(); ++I) {
      SpanTotals &S = Out[L->Spans[I].Name];
      ++S.Count;
      S.TotalNs += L->Spans[I].EndNs - L->Spans[I].StartNs;
      S.SelfNs += Self[I];
    }
  }
  return Out;
}

bool perfbench::writeSpans(const Trace &T, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "lane\tindex\tname\tstart_ns\tend_ns\tparent\trequest\n");
  int LaneNo = 0;
  for (const TraceLane *L : T.lanes()) {
    for (size_t I = 0; I < L->Spans.size(); ++I) {
      const SpanRecord &S = L->Spans[I];
      std::fprintf(F, "%d\t%zu\t%s\t%lld\t%lld\t%d\t%lld\n", LaneNo, I,
                   S.Name, static_cast<long long>(S.StartNs),
                   static_cast<long long>(S.EndNs), S.Parent,
                   static_cast<long long>(S.Request));
    }
    ++LaneNo;
  }
  return std::fclose(F) == 0;
}
