// service_mix: requests answered by SchedulingService::handleLine,
// called from client threads.

#include "RequestStream.h"
#include "Stats.h"
#include "Workloads.h"

#include "bounds/Lifetimes.h"
#include "core/FuAssignment.h"
#include "core/ModuloScheduler.h"
#include "exact/ExactEngine.h"
#include "frontend/LoopCompiler.h"
#include "ir/DepGraph.h"
#include "service/LoopKey.h"
#include "service/SchedulingService.h"
#include "store/ScheduleStore.h"

#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <unistd.h>

using namespace lsms;
using namespace perfbench;

namespace {

constexpr int SetupJobs = 4;
/// service_mix: client threads, warm loops per round, timed requests per
/// round.
constexpr int MixThreads = 4;
constexpr int MixWarmLoops = 1024;
constexpr int MixRequests = 32768;
/// Round K draws its loops from pool seed MixPoolSeed + K, whatever the
/// run's seed: the seed orders the requests and picks which earlier ones
/// are resubmitted or renamed. So every seed requests the same loops with
/// the same engines, ii_total and maxlive_total (sums over round 0's
/// distinct loops) are the same for every seed, and throughput does not
/// hang on which heavy portfolio loops a seed happened to draw.
constexpr uint64_t MixPoolSeed = 19930601;

/// The answer a request must get, computed during set-up by calling the
/// schedulers directly on the body the service schedules.
struct Expected {
  int II = 0;
  int MII = 0;
  long MaxLive = -1;
  bool Optimal = false; ///< portfolio loops: exact verdict was Optimal
};

/// Distinct loops drawn for a stream, with their compiled bodies.
struct LoopSet {
  std::vector<std::string> Sources;
  std::vector<LoopBody> Bodies;
  std::vector<LoopKey> Keys;
};

/// Draws small loops from \p Seed's sequence until \p Count pairwise
/// non-isomorphic ones are found (an isomorphic repeat would be a cache
/// hit, not the miss it is labelled as).
LoopSet drawDistinctLoops(uint64_t Seed, int Count, RunResult &R) {
  LoopSet S;
  std::set<std::pair<uint64_t, uint64_t>> Seen;
  int Next = 0;
  while (static_cast<int>(S.Sources.size()) < Count) {
    const int Block = Count - static_cast<int>(S.Sources.size()) + 64;
    std::vector<std::string> Src(static_cast<size_t>(Block));
    std::vector<LoopBody> Body(static_cast<size_t>(Block));
    std::vector<LoopKey> Key(static_cast<size_t>(Block));
    std::vector<std::string> Err(static_cast<size_t>(Block));
    parallelForDynamic(SetupJobs, Block, [&](int I) {
      const size_t U = static_cast<size_t>(I);
      Src[U] = drawSmallLoopSource(Seed, Next + I);
      {
        ScopedSpan Sp("frontend.compile");
        Err[U] = compileLoop(Src[U], "inline", Body[U]);
      }
      if (Err[U].empty()) {
        ScopedSpan Sp("service.loopkey");
        Key[U] = canonicalLoopKey(Body[U]);
      }
    });
    for (size_t U = 0; U < Src.size(); ++U) {
      if (!Err[U].empty()) {
        R.fail("generated loop does not compile: " + Err[U]);
        continue;
      }
      if (static_cast<int>(S.Sources.size()) == Count ||
          !Seen.emplace(Key[U].Hi, Key[U].Lo).second)
        continue;
      S.Sources.push_back(std::move(Src[U]));
      S.Bodies.push_back(std::move(Body[U]));
      S.Keys.push_back(std::move(Key[U]));
    }
    Next += Block;
  }
  return S;
}

/// True when the service schedules \p Body's canonical form rather than
/// \p Body itself: when every pair of operations sharing a functional-unit
/// instance in \p Body also shares one in the canonical body (the rule
/// SchedulingService::handle applies before scheduling).
bool schedulesCanonical(const LoopBody &Body, const LoopKey &Key,
                        const LoopBody &Canon, const MachineModel &Machine) {
  const std::vector<int> InstBody = assignFunctionalUnits(Body, Machine);
  const std::vector<int> InstCanon = assignFunctionalUnits(Canon, Machine);
  std::map<std::pair<int, int>, int> Induced;
  for (const Operation &Op : Body.Ops) {
    if (Machine.unitFor(Op.Opc) == FuKind::None)
      continue;
    const int Kind = static_cast<int>(Machine.unitFor(Op.Opc));
    const int CanonInst = InstCanon[static_cast<size_t>(
        Key.OpPerm[static_cast<size_t>(Op.Id)])];
    const auto [It, Inserted] = Induced.try_emplace(
        {Kind, InstBody[static_cast<size_t>(Op.Id)]}, CanonInst);
    if (!Inserted && It->second != CanonInst)
      return false;
  }
  return true;
}

/// Expected answers for every pool loop: the slack schedule of the body
/// the service schedules, or for portfolio loops the exact engine's
/// schedule under the service's default budgets (slack when it finds
/// none).
std::vector<Expected> expectedAnswers(const std::vector<PoolLoop> &Pool,
                                      const LoopSet &Loops,
                                      ScheduleStats &Stats, long &Ops) {
  const MachineModel Machine = MachineModel::cydra5();
  const ServiceConfig Defaults;
  std::vector<Expected> Want(Pool.size());
  std::vector<ScheduleStats> PerLoop(Pool.size());
  std::vector<long> SlackOps(Pool.size(), 0); // ops the slack scheduler saw
  parallelForDynamic(SetupJobs, static_cast<int>(Pool.size()), [&](int I) {
    const size_t U = static_cast<size_t>(I);
    const LoopBody Canon = canonicalLoopBody(Loops.Bodies[U], Loops.Keys[U]);
    const LoopBody &Target =
        schedulesCanonical(Loops.Bodies[U], Loops.Keys[U], Canon, Machine)
            ? Canon
            : Loops.Bodies[U];
    const DepGraph Graph(Target, Machine);
    if (Pool[U].Engine == ServiceEngine::Portfolio) {
      ExactOptions EO = Defaults.Exact;
      EO.Engine = ExactEngineKind::Portfolio;
      ExactResult ER;
      {
        ScopedSpan Sp("exact.schedule");
        ER = scheduleLoopExact(Graph, EO);
      }
      if (ER.Sched.Success) {
        Want[U] = {ER.Sched.II, ER.Sched.MII, ER.MaxLive,
                   ER.Status == ExactStatus::Optimal};
        return;
      }
    }
    Schedule S;
    {
      ScopedSpan Sp("core.schedule");
      S = scheduleLoop(Graph, Defaults.Slack);
    }
    PerLoop[U] = S.Stats;
    SlackOps[U] = Target.numMachineOps();
    Want[U].II = S.II;
    Want[U].MII = S.MII;
    if (S.Success)
      Want[U].MaxLive =
          computePressure(Target, S.Times, S.II, RegClass::RR).MaxLive;
  });
  for (size_t U = 0; U < Pool.size(); ++U) {
    Stats.accumulate(PerLoop[U]);
    Ops += SlackOps[U];
  }
  return Want;
}

/// Label check: every renamed variant compiles to a loop with its
/// original's canonical key and differs from it in request text.
void checkRenamedLabels(const ServiceStream &S, const LoopSet &Loops,
                        RunResult &R) {
  std::vector<std::string> Err(S.Timed.size());
  parallelForDynamic(SetupJobs, static_cast<int>(S.Timed.size()), [&](int I) {
    const StreamRequest &Req = S.Timed[static_cast<size_t>(I)];
    if (Req.Kind != RequestKind::Renamed)
      return;
    const size_t L = static_cast<size_t>(Req.Loop);
    ServiceRequest Parsed;
    std::string E;
    LoopBody Body;
    if (!SchedulingService::parseRequestLine(Req.Line, Parsed, E)) {
      Err[static_cast<size_t>(I)] = "renamed request does not parse: " + E;
      return;
    }
    if (Parsed.Source == Loops.Sources[L]) {
      Err[static_cast<size_t>(I)] = "renamed request repeats its original";
      return;
    }
    {
      ScopedSpan Sp("frontend.compile");
      E = compileLoop(Parsed.Source, "inline", Body);
    }
    if (!E.empty()) {
      Err[static_cast<size_t>(I)] = "renamed loop does not compile: " + E;
      return;
    }
    LoopKey K;
    {
      ScopedSpan Sp("service.loopkey");
      K = canonicalLoopKey(Body);
    }
    if (!(K == Loops.Keys[L]))
      Err[static_cast<size_t>(I)] = "renamed loop changed canonical key";
  });
  for (const std::string &E : Err)
    if (!E.empty())
      R.fail("label check: " + E);
}

/// Checks one answer, rendered to \p Line, against the loop's expected
/// schedule.
std::string checkAnswer(const std::string &Line, const ServiceResponse &Resp,
                        const Expected &Want) {
  if (!classifyResponseLine(Line).Ok)
    return "not an ok response: " + Line;
  if (Resp.II != Want.II || Resp.MII != Want.MII ||
      Resp.MaxLive != Want.MaxLive)
    return "answer (ii " + std::to_string(Resp.II) + ", mii " +
           std::to_string(Resp.MII) + ", maxlive " +
           std::to_string(Resp.MaxLive) +
           ") differs from direct scheduling (ii " + std::to_string(Want.II) +
           ", mii " + std::to_string(Want.MII) + ", maxlive " +
           std::to_string(Want.MaxLive) + ")";
  return "";
}

/// Cache-tier counters of one service.
struct TierCounts {
  long Requests = 0, Front = 0, Lru = 0, Store = 0, StoreWrites = 0;

  static TierCounts read(SchedulingService &Svc) {
    const MetricsRegistry &M = Svc.metrics();
    return {M.counter("requests_total"), M.counter("requests_front_hits"),
            Svc.cacheStats().Hits, M.counter("store_hits"),
            M.counter("store_writes")};
  }
  TierCounts minus(const TierCounts &O) const {
    return {Requests - O.Requests, Front - O.Front, Lru - O.Lru,
            Store - O.Store, StoreWrites - O.StoreWrites};
  }
  long misses() const { return Requests - Front - Lru - Store; }
};

/// Medians of the durations of spans named \p Name, in microseconds.
double medianSpanUs(const Trace &T, const char *Name) {
  std::vector<double> Us;
  for (const TraceLane *L : T.lanes())
    for (const SpanRecord &S : L->Spans)
      if (std::strcmp(S.Name, Name) == 0)
        Us.push_back(static_cast<double>(S.EndNs - S.StartNs) * 1e-3);
  return median(std::move(Us));
}

/// One round's inputs: the stream and its distinct loops, and once
/// verify() has run, every loop's expected answer with the scheduler
/// statistics of computing them.
struct Prepared {
  ServiceStream Stream;
  LoopSet Loops;
  std::vector<Expected> Want;
  ScheduleStats Stats;
  long Ops = 0;
};

/// Draws the stream of \p StreamSeed over loops of \p PoolSeed; failures
/// go to \p Checks.
Prepared generate(uint64_t StreamSeed, uint64_t PoolSeed, RunResult &Checks) {
  const std::vector<RequestKind> Kinds =
      drawRequestKinds(StreamSeed, MixRequests);
  Prepared P;
  P.Loops = drawDistinctLoops(
      PoolSeed, MixWarmLoops + freshLoopCount(Kinds), Checks);
  P.Stream =
      buildServiceStream(StreamSeed, MixWarmLoops, Kinds, P.Loops.Sources);
  return P;
}

/// Frees the request and loop text of \p S, keeping everything else.
void releaseText(ServiceStream &S) {
  for (std::vector<StreamRequest> *List : {&S.Warm, &S.Timed})
    for (StreamRequest &Req : *List)
      std::string().swap(Req.Line);
  for (PoolLoop &L : S.Loops)
    std::string().swap(L.Source);
}

/// Computes the expected answers and checks the renamed labels, then
/// releases the compiled loops.
void verify(Prepared &P, RunResult &Checks) {
  P.Want = expectedAnswers(P.Stream.Loops, P.Loops, P.Stats, P.Ops);
  checkRenamedLabels(P.Stream, P.Loops, Checks);
  P.Loops = LoopSet();
}

} // namespace

//===----------------------------------------------------------------------===//
// service_mix
//===----------------------------------------------------------------------===//

RunResult perfbench::runServiceMix(const RunOptions &Opts) {
  RunResult R;
  const std::string StorePath =
      Opts.WorkDir + "/service_mix-" + std::to_string(::getpid()) + ".log";

  // One round: a fresh service with its store, warmed with the stream's
  // warm loops (untimed), then the timed stream from MixThreads client
  // threads.
  struct Round {
    double Seconds = 0;
    std::vector<double> LatUs;
    TierCounts Tiers;
    /// Over the answers to the warm and fresh requests: each distinct
    /// loop of the round once.
    long IITotal = 0, MaxLiveTotal = 0;
    double BaseRssMb = 0, PeakRssMb = 0;
  };
  const auto runRound = [&](const Prepared &P, RunResult &Checks, Round *Out,
                            const std::function<void(SchedulingService &)>
                                &AfterStream) {
    std::filesystem::remove(StorePath);
    if (Out)
      Out->BaseRssMb = resetPeakRss();
    ServiceConfig Config;
    Config.Jobs = 1;
    Config.StorePath = StorePath;
    SchedulingService Svc(Config);
    if (!Svc.storeOpen())
      Checks.fail("store did not open: " + Svc.storeError());
    const auto answer = [&](const StreamRequest &Req, int Index,
                            const char *Span, int64_t Id,
                            std::string &Line) {
      ServiceResponse Resp;
      {
        ScopedSpan Sp(Span, Id);
        Resp = Svc.handleLine(Req.Line, Index);
        ScopedSpan Render("service.render");
        Line = renderResponseLine(Resp);
      }
      return Resp;
    };
    const ServiceStream &Stream = P.Stream;
    std::vector<std::string> WarmErr(Stream.Warm.size());
    std::vector<int> WarmII(Stream.Warm.size());
    std::vector<long> WarmMaxLive(Stream.Warm.size());
    parallelForDynamic(MixThreads, static_cast<int>(Stream.Warm.size()),
                       [&](int I) {
      const size_t U = static_cast<size_t>(I);
      const StreamRequest &Req = Stream.Warm[U];
      std::string Line;
      const ServiceResponse Resp =
          answer(Req, I, "service.handle_warm", -1, Line);
      if (!P.Want.empty())
        WarmErr[U] =
            checkAnswer(Line, Resp, P.Want[static_cast<size_t>(Req.Loop)]);
      WarmII[U] = Resp.II;
      WarmMaxLive[U] = Resp.MaxLive;
    });
    for (const std::string &E : WarmErr) {
      ++Checks.Attempted;
      if (!E.empty())
        Checks.fail("warm request: " + E);
    }
    if (!Out)
      return;
    Out->IITotal = std::accumulate(WarmII.begin(), WarmII.end(), 0L);
    Out->MaxLiveTotal =
        std::accumulate(WarmMaxLive.begin(), WarmMaxLive.end(), 0L);
    const TierCounts Before = TierCounts::read(Svc);
    const int N = static_cast<int>(Stream.Timed.size());
    std::vector<double> Lat(static_cast<size_t>(N));
    std::vector<std::string> Err(static_cast<size_t>(N));
    std::vector<int> II(static_cast<size_t>(N));
    std::vector<long> MaxLive(static_cast<size_t>(N));
    static const char *const SpanOf[NumRequestKinds] = {
        "service.handle_warm", "service.handle_front",
        "service.handle_canonical", "service.handle_miss",
        "service.handle_portfolio"};
    // Closed loop: each client sends the next request of the stream as
    // soon as its previous one is answered.
    const int64_t Start = nowNs();
    parallelForDynamic(MixThreads, N, [&](int I) {
      const size_t U = static_cast<size_t>(I);
      const StreamRequest &Req = Stream.Timed[U];
      std::string Line;
      const int64_t A = nowNs();
      const ServiceResponse Resp =
          answer(Req, I, SpanOf[static_cast<int>(Req.Kind)], I, Line);
      Lat[U] = static_cast<double>(nowNs() - A) * 1e-3;
      Err[U] = checkAnswer(Line, Resp, P.Want[static_cast<size_t>(Req.Loop)]);
      II[U] = Resp.II;
      MaxLive[U] = Resp.MaxLive;
    });
    Out->Seconds = static_cast<double>(nowNs() - Start) * 1e-9;
    Out->PeakRssMb = peakRssMb();
    Out->Tiers = TierCounts::read(Svc).minus(Before);
    Out->LatUs = std::move(Lat);
    for (size_t U = 0; U < Err.size(); ++U) {
      ++Checks.Attempted;
      if (!Err[U].empty())
        Checks.fail("request " + std::to_string(U) + ": " + Err[U]);
      const RequestKind K = Stream.Timed[U].Kind;
      if (K == RequestKind::FreshSlack || K == RequestKind::FreshPortfolio) {
        Out->IITotal += II[U];
        Out->MaxLiveTotal += MaxLive[U];
      }
    }
    AfterStream(Svc);
  };

  // Set-up: draw the first round's stream and warm a fresh service with
  // it, as every round does. Its answers are checked in the rounds: the
  // expected answers and label checks are the benchmark's own work and
  // stay out of setup_s. It repeats; the last repetition's failures count.
  Trace T;
  RunResult SetupChecks;
  Prepared First;
  const double SetupS = timeSetup(Opts, T, [&] {
    SetupChecks = RunResult();
    First = generate(Opts.Seed, MixPoolSeed, SetupChecks);
    runRound(First, SetupChecks, nullptr, nullptr);
  });
  R = SetupChecks;

  if (Opts.Traced)
    setActiveTrace(&T);
  const int64_t RunStart = nowNs();
  verify(First, R);
  long PreparedOps = First.Ops;
  std::vector<Round> Rounds;
  double Measured = 0;
  double MetricsJsonUs = 0;
  long StoreKeys = 0;
  // Every round draws a new stream over new loops (the first is
  // set-up's), so a run averages over many loop draws: a few portfolio
  // loops take 100 ms or more, and one stream alone would make throughput
  // a property of its draw.
  do {
    Prepared Later;
    if (!Rounds.empty()) {
      Later = generate(Opts.Seed + 0x9e3779b97f4a7c15ULL * Rounds.size(),
                       MixPoolSeed + Rounds.size(), R);
      verify(Later, R);
      PreparedOps += Later.Ops;
    }
    const Prepared &P = Rounds.empty() ? First : Later;
    Rounds.emplace_back();
    runRound(P, R, &Rounds.back(), [&](SchedulingService &Svc) {
      const int64_t A = nowNs();
      {
        ScopedSpan Sp("service.metrics_json");
        (void)Svc.metricsJson(false);
      }
      MetricsJsonUs = static_cast<double>(nowNs() - A) * 1e-3;
      StoreKeys = Svc.storeStats().LiveKeys;
    });
    Measured += Rounds.back().Seconds;
    // The result needs only the first round's kinds, engines and expected
    // answers; its text would sit under later rounds' peak_rss_mb.
    if (Rounds.size() == 1)
      releaseText(First.Stream);
  } while (Measured < Opts.Seconds);
  const int64_t RunNs = nowNs() - RunStart;
  // Reopen the last round's log, as a restarted service would.
  double ReopenS = 0;
  {
    ScheduleStore Reopened;
    std::string Err;
    const int64_t A = nowNs();
    bool Ok;
    {
      ScopedSpan Sp("store.reopen");
      Ok = Reopened.open(StorePath, Err);
    }
    ReopenS = static_cast<double>(nowNs() - A) * 1e-9;
    if (!Ok)
      R.fail("store reopen failed: " + Err);
    else if (Reopened.stats().LiveKeys != StoreKeys)
      R.fail("store reopen found " +
             std::to_string(Reopened.stats().LiveKeys) +
             " keys, the service held " + std::to_string(StoreKeys));
  }
  setActiveTrace(nullptr);
  std::filesystem::remove(StorePath);

  std::vector<std::vector<double>> LatUs;
  std::vector<double> RoundRate, BaseRss, PeakRss;
  for (const Round &Rd : Rounds) {
    LatUs.push_back(Rd.LatUs);
    BaseRss.push_back(Rd.BaseRssMb);
    PeakRss.push_back(Rd.PeakRssMb);
    // MixThreads clients with no think time: by Little's law they are
    // answered at MixThreads / mean latency. Unlike requests / round wall
    // time, this leaves out the end of each finite round, when clients
    // idle while the last slow request finishes.
    const double MeanUs =
        std::accumulate(Rd.LatUs.begin(), Rd.LatUs.end(), 0.0) /
        static_cast<double>(Rd.LatUs.size());
    RoundRate.push_back(MixThreads * 1e6 / MeanUs);
  }
  const ServiceStream &Stream = First.Stream;
  const TierCounts &Tiers = Rounds[0].Tiers;
  long KindCount[NumRequestKinds] = {};
  for (const StreamRequest &Req : Stream.Timed)
    ++KindCount[static_cast<int>(Req.Kind)];
  const auto frac = [](double Part, double Whole) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f", Whole > 0 ? Part / Whole : 0.0);
    return std::string(Buf);
  };
  const double N = static_cast<double>(Stream.Timed.size());
  const double Served = static_cast<double>(Tiers.Requests);
  const auto kind = [&](RequestKind K) {
    return static_cast<double>(KindCount[static_cast<int>(K)]);
  };
  R.Info.push_back(
      "service_mix: " + std::to_string(Rounds.size()) + " round(s) of " +
      std::to_string(Stream.Timed.size()) + " requests after " +
      std::to_string(Stream.Warm.size()) + " warm loops; " +
      std::to_string(Stream.Loops.size()) + " distinct loops in the first");
  R.Info.push_back(rssInfo(median(BaseRss), median(PeakRss)) +
                   " (median over rounds)");
  R.Info.push_back(
      "tier shares of the first round, realized (intended): front " +
      frac(static_cast<double>(Tiers.Front), Served) + " (" +
      frac(kind(RequestKind::Resubmit), N) + "), lru " +
      frac(static_cast<double>(Tiers.Lru), Served) + " + store " +
      frac(static_cast<double>(Tiers.Store), Served) + " (renamed " +
      frac(kind(RequestKind::Renamed), N) + "), miss " +
      frac(static_cast<double>(Tiers.misses()), Served) + " (fresh slack " +
      frac(kind(RequestKind::FreshSlack), N) + " + portfolio " +
      frac(kind(RequestKind::FreshPortfolio), N) + ")");

  if (!Opts.Traced) {
    R.set("setup_s", SetupS, "s");
    R.set("throughput_per_s", median(RoundRate), "1/s");
    reportLatency(R, LatUs);
    R.set("ii_total", static_cast<double>(Rounds[0].IITotal), "count");
    R.set("maxlive_total", static_cast<double>(Rounds[0].MaxLiveTotal),
          "count");
    R.set("success_rate",
          1.0 - static_cast<double>(R.Failed) /
                    static_cast<double>(std::max(R.Attempted, 1L)),
          "frac");
    R.set("peak_rss_mb", median(PeakRss), "MB");
    return R;
  }
  // Busy times are per round. frontend, loopkey, core and exact come from
  // preparing each round's stream (the first in set-up's traced
  // repetition); counts come from the first round.
  const auto Totals = summarize(T);
  const double P = static_cast<double>(Rounds.size());
  const ScheduleStats &Stats = First.Stats;
  const double Compile = busySeconds(Totals, "frontend.compile");
  R.set("frontend.busy_s", Compile / P, "s");
  R.set("frontend.us_per_loop",
        Compile * 1e6 /
            static_cast<double>(std::max(Totals.at("frontend.compile").Count,
                                         1L)),
        "us");
  R.set("service.loopkey_busy_s", busySeconds(Totals, "service.loopkey", P),
        "s");
  R.set("core.schedule_busy_s", busySeconds(Totals, "core.schedule", P), "s");
  R.set("core.us_per_op",
        busySeconds(Totals, "core.schedule") * 1e6 /
            static_cast<double>(std::max(PreparedOps, 1L)),
        "us");
  R.set("core.attempts", static_cast<double>(Stats.AttemptsTried), "count");
  R.set("core.placements", static_cast<double>(Stats.Placements), "count");
  R.set("core.ejections", static_cast<double>(Stats.Ejections), "count");
  R.set("core.ii_restarts", static_cast<double>(Stats.IIRestarts), "count");
  R.set("core.placement_yield",
        static_cast<double>(First.Ops) /
            static_cast<double>(std::max(Stats.Placements, 1L)),
        "frac");
  R.set("exact.busy_s", busySeconds(Totals, "exact.schedule", P), "s");
  R.set("service.handle_us_front", medianSpanUs(T, "service.handle_front"),
        "us");
  R.set("service.handle_us_canonical",
        medianSpanUs(T, "service.handle_canonical"), "us");
  R.set("service.handle_us_miss", medianSpanUs(T, "service.handle_miss"),
        "us");
  R.set("service.render_busy_s", busySeconds(Totals, "service.render", P),
        "s");
  R.set("service.front_hits", static_cast<double>(Tiers.Front), "count");
  R.set("service.lru_hits", static_cast<double>(Tiers.Lru), "count");
  R.set("service.store_hits", static_cast<double>(Tiers.Store), "count");
  R.set("service.misses", static_cast<double>(Tiers.misses()), "count");
  R.set("service.hit_ratio",
        static_cast<double>(Tiers.Front + Tiers.Lru + Tiers.Store) / Served,
        "frac");
  R.set("service.metrics_json_us", MetricsJsonUs, "us");
  long Optimal = 0, Portfolio = 0;
  for (size_t U = 0; U < Stream.Loops.size(); ++U)
    if (Stream.Loops[U].Engine == ServiceEngine::Portfolio) {
      ++Portfolio;
      Optimal += First.Want[U].Optimal;
    }
  R.set("exact.optimal_frac",
        Portfolio
            ? static_cast<double>(Optimal) / static_cast<double>(Portfolio)
            : 0,
        "frac");
  R.set("store.writes", static_cast<double>(Tiers.StoreWrites), "count");
  R.set("store.reopen_s", ReopenS, "s");
  R.set("trace.overhead_frac", traceOverheadFrac(T.spanCount(), RunNs),
        "frac");
  const std::string SpansPath = Opts.WorkDir + "/spans-service_mix.tsv";
  if (!writeSpans(T, SpansPath))
    R.Info.push_back("could not write spans to " + SpansPath);
  return R;
}
