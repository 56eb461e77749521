#include "service/SchedulingService.h"

#include "bounds/Lifetimes.h"
#include "core/FuAssignment.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "service/Json.h"
#include "service/LoopKey.h"
#include "support/ParallelFor.h"
#include "workloads/Suite.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

using namespace lsms;

std::string ServiceResponse::toJsonl() const {
  return renderResponseLine(*this);
}

//===----------------------------------------------------------------------===//
// Persistent worker pool
//===----------------------------------------------------------------------===//

/// A minimal persistent pool: threads live for the service's lifetime and
/// pick batch indices off a shared atomic counter. Work stealing order is
/// timing-dependent, but results land in disjoint index slots and response
/// bytes are index-ordered, so scheduling order never shows.
class SchedulingService::Pool {
public:
  explicit Pool(int Threads) {
    Workers.reserve(static_cast<size_t>(Threads));
    for (int I = 0; I < Threads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopping = true;
    }
    WakeCV.notify_all();
    // ~jthread joins.
  }

  void run(int N, const std::function<void(int)> &Fn) {
    if (N <= 0)
      return;
    {
      // Defensive: a batch submitted after shutdown began would hang
      // forever waiting for workers that already exited. Run it inline
      // instead (drain() makes this unreachable in normal use).
      std::lock_guard<std::mutex> Lock(Mu);
      if (Stopping) {
        for (int I = 0; I < N; ++I)
          Fn(I);
        return;
      }
    }
    auto State = std::make_shared<Batch>();
    State->N = N;
    State->Fn = &Fn;
    State->Remaining.store(N, std::memory_order_relaxed);
    std::unique_lock<std::mutex> Lock(Mu);
    Current = State;
    ++Generation;
    WakeCV.notify_all();
    DoneCV.wait(Lock, [&] {
      return State->Remaining.load(std::memory_order_acquire) == 0;
    });
    Current.reset();
  }

private:
  /// Per-run state. Stragglers from a finished batch still hold their
  /// shared_ptr and see an exhausted index counter, so they can never
  /// touch the next batch's function or indices.
  struct Batch {
    int N = 0;
    const std::function<void(int)> *Fn = nullptr;
    std::atomic<int> Next{0};
    std::atomic<int> Remaining{0};
  };

  void workerLoop() {
    uint64_t Seen = 0;
    while (true) {
      std::shared_ptr<Batch> B;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        WakeCV.wait(Lock, [&] { return Stopping || Generation != Seen; });
        if (Stopping)
          return;
        Seen = Generation;
        B = Current;
      }
      if (!B)
        continue;
      while (true) {
        const int I = B->Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= B->N)
          break;
        (*B->Fn)(I);
        if (B->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> Lock(Mu);
          DoneCV.notify_all();
        }
      }
    }
  }

  std::mutex Mu;
  std::condition_variable WakeCV, DoneCV;
  uint64_t Generation = 0;
  bool Stopping = false;
  std::shared_ptr<Batch> Current;
  std::vector<std::jthread> Workers;
};

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

namespace {

uint64_t mixAux(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  H *= 0xff51afd7ed558ccdULL;
  return H ^ (H >> 33);
}

/// Everything besides the loop itself that determines a slack answer;
/// \p MachineHash is machineFingerprint of the service's machine.
uint64_t slackAux(uint64_t MachineHash, const SchedulerOptions &O) {
  uint64_t H = mixAux(0x51acULL, MachineHash);
  H = mixAux(H, O.DynamicPriority);
  H = mixAux(H, O.Bidirectional);
  H = mixAux(H, O.RecurrencesFirst);
  H = mixAux(H, O.HalveCriticalSlack);
  H = mixAux(H, O.HalveDividerSlack);
  H = mixAux(H, static_cast<uint64_t>(O.IIIncrementPct));
  H = mixAux(H, static_cast<uint64_t>(O.BudgetRatio));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIIFactor));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIISlack));
  H = mixAux(H, static_cast<uint64_t>(O.AcyclicPadStep));
  return H;
}

/// Everything besides the loop itself that determines an exact answer.
/// The deadline is deliberately absent: deadline-shortened outcomes are
/// never cached.
uint64_t exactAux(uint64_t MachineHash, const ExactOptions &O) {
  uint64_t H = mixAux(0xe8acULL, MachineHash);
  H = mixAux(H, static_cast<uint64_t>(O.Engine));
  H = mixAux(H, static_cast<uint64_t>(O.NodeBudget));
  H = mixAux(H, static_cast<uint64_t>(O.SatConflictBudget));
  H = mixAux(H, static_cast<uint64_t>(O.MaxLiveNodeBudget));
  H = mixAux(H, static_cast<uint64_t>(O.MaxLiveConflictBudget));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIIFactor));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIISlack));
  H = mixAux(H, O.MinimizeMaxLive);
  return H;
}

CachedSchedule fromSchedule(const Schedule &S, long MaxLive) {
  CachedSchedule C;
  C.Success = S.Success;
  C.II = S.II;
  C.MII = S.MII;
  C.ResMII = S.ResMII;
  C.RecMII = S.RecMII;
  C.MaxLive = MaxLive;
  C.Status = S.Success ? ExactStatus::Optimal : ExactStatus::Infeasible;
  if (S.Success)
    C.Times = S.Times;
  return C;
}

} // namespace

/// Counts a handle() call as in flight for drain(); the last one out
/// notifies waiters.
class SchedulingService::InFlightGuard {
public:
  explicit InFlightGuard(SchedulingService &S) : S(S) {
    S.InFlight.fetch_add(1, std::memory_order_acquire);
  }
  ~InFlightGuard() {
    if (S.InFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> Lock(S.DrainMu);
      S.DrainCV.notify_all();
    }
  }

private:
  SchedulingService &S;
};

SchedulingService::SchedulingService(ServiceConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      MachineHash(machineFingerprint(Config.Machine)),
      Jobs(resolveJobs(Config.Jobs)),
      Cache(Config.CacheCapacity, Config.CacheShards),
      Front(Config.FrontCacheCapacity, Config.CacheShards) {
  if (!Config.StorePath.empty() &&
      !Store.open(Config.StorePath, StoreOpenError))
    Metrics.inc("store_open_failures");
  if (Jobs > 1)
    Workers = std::make_unique<Pool>(Jobs);
}

SchedulingService::~SchedulingService() {
  // Shutdown ordering: finish every admitted request first, then join the
  // pool, then close the store the requests were writing through.
  drain();
  Workers.reset();
  Store.close();
}

void SchedulingService::beginDrain() {
  Draining.store(true, std::memory_order_release);
}

bool SchedulingService::accepting() const {
  return !Draining.load(std::memory_order_acquire);
}

void SchedulingService::drain() {
  beginDrain();
  std::unique_lock<std::mutex> Lock(DrainMu);
  DrainCV.wait(Lock, [&] {
    return InFlight.load(std::memory_order_acquire) == 0;
  });
}

ServiceResponse SchedulingService::handle(const ServiceRequest &ReqIn,
                                          int Index, AdmitMode Mode) {
  const InFlightGuard Guard(*this);
  const auto T0 = std::chrono::steady_clock::now();
  // SlackOnly admission reuses the deterministic deadline-expired path:
  // forcing DeadlineMs to 0 makes an exact request degrade to the slack
  // heuristic without touching an exact engine, and the front-cache key
  // already distinguishes the forced variant (the DeadlineMs == 0 flag is
  // part of it).
  ServiceRequest SlackOnlyReq;
  const ServiceRequest *ReqP = &ReqIn;
  if (Mode == AdmitMode::SlackOnly &&
      ReqIn.Engine != ServiceEngine::Slack && ReqIn.DeadlineMs != 0) {
    SlackOnlyReq = ReqIn;
    SlackOnlyReq.DeadlineMs = 0;
    ReqP = &SlackOnlyReq;
  }
  const ServiceRequest &Req = *ReqP;
  ServiceResponse Resp;
  Resp.Index = Index;
  Resp.Id = Req.Id;
  Resp.Engine = Req.Engine;
  Metrics.inc("requests_total");
  Metrics.inc(std::string("requests_engine_") +
              serviceEngineName(Req.Engine));
  if (Mode == AdmitMode::SlackOnly)
    Metrics.inc("requests_admit_slack_only");
  else if (Mode == AdmitMode::CachedOnly)
    Metrics.inc("requests_admit_cached_only");

  // -- Front cache: fully-rendered responses keyed on the raw payload
  // text and everything else that determines the line. A hit skips
  // parsing, canonicalization, scheduling, and validation. Requests with
  // an armed wall-clock deadline (DeadlineMs > 0) bypass this tier: their
  // degradation outcome is time-dependent, and every front entry must be
  // a pure function of the request. (DeadlineMs == 0 degrades
  // deterministically and is eligible; the flag is part of the key.)
  const bool FrontEligible = Req.DeadlineMs <= 0;
  CacheKey FrontKey;
  if (FrontEligible) {
    uint64_t Hi = 0x66726f6e745f6869ULL; // "front_hi"
    for (const char C : Req.Kernel)
      Hi = mixAux(Hi, static_cast<unsigned char>(C));
    uint64_t Lo = 0x66726f6e745f6c6fULL; // "front_lo"
    for (const char C : Req.Source)
      Lo = mixAux(Lo, static_cast<unsigned char>(C));
    uint64_t Aux = mixAux(0xf307ULL, static_cast<uint64_t>(Req.Engine));
    Aux = mixAux(Aux, slackAux(MachineHash, Config.Slack));
    Aux = mixAux(Aux, exactAux(MachineHash, Config.Exact));
    Aux = mixAux(Aux, static_cast<uint64_t>(Req.MaxII));
    Aux = mixAux(Aux, Req.DeadlineMs == 0);
    Aux = mixAux(Aux, Req.EmitTimes);
    FrontKey = CacheKey{Hi, Lo, Aux};
  }

  const auto finish = [&](ServiceResponse &R,
                          bool Replayed = false) -> ServiceResponse & {
    const auto Micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - T0)
                            .count();
    Metrics.observe("request_latency_us", Micros);
    Metrics.observe(std::string("request_latency_us_") +
                        serviceEngineName(Req.Engine),
                    Micros);
    Metrics.inc(R.Ok ? "requests_ok" : "requests_error");
    if (R.Ok)
      Metrics.inc(std::string("responses_tier_") + serviceTierName(R.Tier));
    // CachedOnly answers are re-tiered replays; inserting them would
    // poison the front cache for full-admission traffic.
    if (FrontEligible && !Replayed && Mode != AdmitMode::CachedOnly)
      Front.insert(FrontKey, R);
    return R;
  };
  const auto fail = [&](ServiceErrorCode Code, const std::string &Why) {
    Resp.Ok = false;
    Resp.Code = Code;
    Resp.Error = Why;
    return finish(Resp);
  };
  // The cached rung found nothing: report Overloaded WITHOUT caching the
  // outcome, so the caller (the socket front end) sheds this request.
  const auto cacheMiss = [&]() {
    Resp.Ok = false;
    Resp.Code = ServiceErrorCode::Overloaded;
    Resp.Tier = ServiceTier::Shed;
    Resp.Error = "server overloaded and no cached schedule for this loop";
    Metrics.inc("requests_cached_only_misses");
    return finish(Resp, /*Replayed=*/true);
  };

  if (FrontEligible) {
    ServiceResponse Hit;
    if (Front.lookup(FrontKey, Hit)) {
      // Index/Id/Name are per-request echoes, not part of the answer.
      Hit.Index = Index;
      Hit.Id = Req.Id;
      Hit.Name = Req.Name.empty()
                     ? (Req.Kernel.empty() ? std::string("inline")
                                           : Req.Kernel)
                     : Req.Name;
      if (Mode == AdmitMode::CachedOnly && Hit.Ok)
        Hit.Tier = ServiceTier::Cached;
      Metrics.inc("requests_front_hits");
      if (Hit.Degraded)
        Metrics.inc("requests_degraded");
      return finish(Hit, /*Replayed=*/true);
    }
  }

  // -- Resolve the loop body (named kernel or inline DSL). ----------------
  LoopBody Body;
  if (!Req.Kernel.empty()) {
    Resp.Name = Req.Name.empty() ? Req.Kernel : Req.Name;
    const NamedKernel *Found = nullptr;
    for (const NamedKernel &K : kernelSources())
      if (Req.Kernel == K.Name)
        Found = &K;
    if (!Found)
      return fail(ServiceErrorCode::UnknownKernel,
                  "unknown kernel '" + Req.Kernel + "'");
    const std::string Err = compileLoop(Found->Source, Resp.Name, Body);
    if (!Err.empty())
      return fail(ServiceErrorCode::CompileError,
                  "kernel '" + Req.Kernel + "' failed to compile: " + Err);
  } else {
    Resp.Name = Req.Name.empty() ? "inline" : Req.Name;
    const std::string Err = compileLoop(Req.Source, Resp.Name, Body);
    if (!Err.empty())
      return fail(ServiceErrorCode::CompileError, Err);
  }

  // -- Canonicalize. Schedules are only legal relative to their body's
  // greedy functional-unit assignment (assignFunctionalUnits walks ops in
  // id order), so canonical issue cycles remap soundly to the request's
  // numbering only when the request's unit partition REFINES the canonical
  // one: any two ops sharing a request-side instance must share a
  // canonical instance, so the canonical schedule's conflict-freedom
  // carries over (splits and instance relabelings are harmless; only
  // merging two canonical instances could double-book). When it does, the
  // canonical body is scheduled and the cache is shared across every
  // compatible renumbering of the loop. When it does not, the request body
  // itself is scheduled and cached under a numbering-sensitive key,
  // trading cross-numbering sharing for soundness. Both paths are
  // deterministic, so hits, misses, and worker counts all produce
  // bit-identical responses.
  const LoopKey Key = canonicalLoopKey(Body);
  const LoopBody Canon = canonicalLoopBody(Body, Key);
  bool Equivariant = true;
  {
    const std::vector<int> InstReq =
        assignFunctionalUnits(Body, Config.Machine);
    const std::vector<int> InstCanon =
        assignFunctionalUnits(Canon, Config.Machine);
    // Induced map (kind, request instance) -> canonical instance; it must
    // be single-valued.
    std::map<std::pair<int, int>, int> Induced;
    for (const Operation &Op : Body.Ops) {
      if (Config.Machine.unitFor(Op.Opc) == FuKind::None)
        continue;
      const int Kind = static_cast<int>(Config.Machine.unitFor(Op.Opc));
      const int CanonInst = InstCanon[static_cast<size_t>(
          Key.OpPerm[static_cast<size_t>(Op.Id)])];
      const auto [It, Inserted] = Induced.try_emplace(
          {Kind, InstReq[static_cast<size_t>(Op.Id)]}, CanonInst);
      if (!Inserted && It->second != CanonInst) {
        Equivariant = false;
        break;
      }
    }
  }
  uint64_t KeyHi = Key.Hi, KeyLo = Key.Lo;
  if (!Equivariant) {
    const uint64_t Raw = rawLoopFingerprint(Body);
    KeyHi ^= Raw;
    KeyLo ^= Raw * 0x9e3779b97f4a7c15ULL;
    Metrics.inc("requests_order_bound");
  }
  const LoopBody &Target = Equivariant ? Canon : Body;
  const DepGraph TargetGraph(Target, Config.Machine);

  CachedSchedule Result;
  bool HaveResult = false;
  bool NearestUsed = false;
  const bool WantExact = Req.Engine != ServiceEngine::Slack;

  if (WantExact) {
    ExactOptions EO = Config.Exact;
    switch (Req.Engine) {
    case ServiceEngine::Sat:
      EO.Engine = ExactEngineKind::Sat;
      break;
    case ServiceEngine::Portfolio:
      EO.Engine = ExactEngineKind::Portfolio;
      break;
    default:
      EO.Engine = ExactEngineKind::BranchAndBound;
      break;
    }
    if (Req.MaxII > 0) {
      EO.IICap.MaxIIFactor = 0;
      EO.IICap.MaxIISlack = Req.MaxII;
    }
    const CacheKey CK{KeyHi, KeyLo, exactAux(MachineHash, EO)};
    if (Cache.lookup(CK, Result)) {
      HaveResult = true;
      Resp.ExactVerdict = Result.Status;
    } else if (Store.get(CK, Result)) {
      // Persistent tier: a previous run (possibly a previous process)
      // already computed this answer. Promote it into the LRU.
      Metrics.inc("store_hits");
      Cache.insert(CK, Result);
      HaveResult = true;
      Resp.ExactVerdict = Result.Status;
    } else if (Mode == AdmitMode::CachedOnly) {
      // No precomputed exact answer; fall through to the cached slack
      // rungs below without running an engine.
      Resp.ExactVerdict = ExactStatus::Timeout;
    } else if (Req.DeadlineMs == 0) {
      // A zero deadline has expired before any work can happen; skip the
      // solve entirely so the degradation path is wall-clock independent.
      Resp.ExactVerdict = ExactStatus::Timeout;
    } else {
      if (Req.DeadlineMs > 0)
        EO.Deadline = T0 + std::chrono::milliseconds(Req.DeadlineMs);
      const ExactResult R = scheduleLoopExact(TargetGraph, EO);
      Resp.ExactVerdict = R.Status;
      CachedSchedule C;
      C.Success = R.Sched.Success;
      C.II = R.Sched.II;
      C.MII = R.Sched.MII;
      C.ResMII = R.Sched.ResMII;
      C.RecMII = R.Sched.RecMII;
      C.MaxLive = R.MaxLive;
      C.MaxLiveProven = R.MaxLiveProven;
      C.Certificate = R.Certificate;
      C.Status = R.Status;
      if (R.Sched.Success)
        C.Times = R.Sched.Times;
      // Deadline-free outcomes are deterministic under the service's fixed
      // budgets and safe to replay; with a deadline armed only a proven
      // Optimal is (an Optimal ladder never hit the deadline). The same
      // eligibility rule governs the persistent write-through.
      if (Req.DeadlineMs < 0 || R.Status == ExactStatus::Optimal) {
        Cache.insert(CK, C);
        if (Store.put(CK, C))
          Metrics.inc("store_writes");
      }
      Result = std::move(C);
      HaveResult = true;
    }
    if (HaveResult && !Result.Success)
      HaveResult = false; // cached Infeasible/Timeout: degrade below
  }

  if (!HaveResult) {
    // Slack path: the requested engine, or the degradation fallback.
    SchedulerOptions SO = Config.Slack;
    if (Req.MaxII > 0) {
      SO.IICap.MaxIIFactor = 0;
      SO.IICap.MaxIISlack = Req.MaxII;
    }
    const CacheKey SK{KeyHi, KeyLo, slackAux(MachineHash, SO)};
    if (!Cache.lookup(SK, Result)) {
      if (Store.get(SK, Result)) {
        Metrics.inc("store_hits");
        Cache.insert(SK, Result);
      } else if (Mode == AdmitMode::CachedOnly) {
        // Last rung: any persisted schedule for this loop, whatever the
        // options aux it was computed under (a different engine or budget
        // configuration). Validation below still guards the answer.
        if (!Store.getByLoop(KeyHi, KeyLo, Result) || !Result.Success)
          return cacheMiss();
        Metrics.inc("store_nearest_hits");
        NearestUsed = true;
      } else {
        const Schedule S = scheduleLoop(TargetGraph, SO);
        long MaxLive = -1;
        if (S.Success)
          MaxLive =
              computePressure(Target, S.Times, S.II, RegClass::RR).MaxLive;
        Result = fromSchedule(S, MaxLive);
        Cache.insert(SK, Result);
        if (Store.put(SK, Result))
          Metrics.inc("store_writes");
      }
    }
    if (WantExact) {
      Resp.Degraded = true;
      Metrics.inc("requests_degraded");
    }
    if (!Result.Success) {
      if (Mode == AdmitMode::CachedOnly)
        return cacheMiss(); // a cached failure is not an answer; shed
      return fail(ServiceErrorCode::NoSchedule,
                  WantExact
                      ? "exact engine gave up and the slack fallback found "
                        "no schedule within the II cap"
                      : "no schedule within the II cap");
    }
  }

  // The per-request cap is a hard constraint. The heuristic's ladder only
  // consults its cap when escalating — its first attempt at MII can
  // "succeed" past a cap below MII — so enforce it on the answer.
  if (Req.MaxII > 0 && Result.II > Req.MaxII)
    return fail(ServiceErrorCode::MaxIIExceeded,
                "no schedule within max_ii " + std::to_string(Req.MaxII) +
                    " (minimum initiation interval is " +
                    std::to_string(Result.MII) + ")");

  // -- Remap the schedule back to the request's numbering (the identity
  // when the request body was scheduled directly) and re-validate against
  // the request's own dependence graph. -----------------------------------
  std::vector<int> Times;
  if (Equivariant) {
    Times.resize(static_cast<size_t>(Body.numOps()));
    for (int Op = 0; Op < Body.numOps(); ++Op)
      Times[static_cast<size_t>(Op)] = Result.Times[static_cast<size_t>(
          Key.OpPerm[static_cast<size_t>(Op)])];
  } else {
    Times = Result.Times;
  }
  if (Config.ValidateResponses) {
    Schedule Check;
    Check.Success = true;
    Check.II = Result.II;
    Check.MII = Result.MII;
    Check.Times = Times;
    const DepGraph ReqGraph(Body, Config.Machine);
    const std::string V = validateSchedule(ReqGraph, Check);
    if (!V.empty()) {
      // A nearest-per-loop record can legitimately fail here (it was
      // written under a different machine/options aux): that rung simply
      // has no answer, so shed rather than report an internal error.
      if (NearestUsed)
        return cacheMiss();
      Metrics.inc("responses_validation_failures");
      return fail(ServiceErrorCode::Internal,
                  "internal: remapped schedule failed validation: " + V);
    }
  }

  Resp.Ok = true;
  Resp.Tier = Mode == AdmitMode::CachedOnly
                  ? ServiceTier::Cached
                  : (WantExact && !Resp.Degraded ? ServiceTier::Exact
                                                 : ServiceTier::Slack);
  Resp.II = Result.II;
  Resp.MII = Result.MII;
  Resp.ResMII = Result.ResMII;
  Resp.RecMII = Result.RecMII;
  Resp.Length = Times[1]; // Stop is operation 1 in every numbering
  Resp.MaxLive = Result.MaxLive;
  // Degraded responses carry the slack schedule, whose pressure is never
  // certified (the slack cache entry always has Certificate None).
  Resp.MaxLiveProven = Result.MaxLiveProven;
  Resp.Certificate = Result.Certificate;
  if (Req.EmitTimes)
    Resp.Times = std::move(Times);
  return finish(Resp);
}

std::vector<ServiceResponse>
SchedulingService::handleBatch(const std::vector<ServiceRequest> &Requests) {
  std::vector<ServiceResponse> Responses(Requests.size());
  const int N = static_cast<int>(Requests.size());
  const std::function<void(int)> Work = [&](int I) {
    Responses[static_cast<size_t>(I)] =
        handle(Requests[static_cast<size_t>(I)], I);
  };
  if (Workers)
    Workers->run(N, Work);
  else
    for (int I = 0; I < N; ++I)
      Work(I);
  return Responses;
}

bool SchedulingService::parseRequestLine(const std::string &Line,
                                         ServiceRequest &Out,
                                         std::string &Err,
                                         ServiceEngine DefaultEngine) {
  std::map<std::string, JsonScalar> Obj;
  if (!parseFlatJsonObject(Line, Obj, Err))
    return false;
  Out = ServiceRequest();
  Out.Engine = DefaultEngine;
  const auto takeString = [&](const char *Field, std::string &Dst) {
    const auto It = Obj.find(Field);
    if (It == Obj.end())
      return true;
    if (It->second.K != JsonScalar::String) {
      Err = std::string("field \"") + Field + "\" must be a string";
      return false;
    }
    Dst = It->second.S;
    Obj.erase(It);
    return true;
  };
  const auto takeInteger = [&](const char *Field, long &Dst) {
    const auto It = Obj.find(Field);
    if (It == Obj.end())
      return true;
    if (It->second.K != JsonScalar::Number ||
        It->second.N != static_cast<double>(static_cast<long>(It->second.N))) {
      Err = std::string("field \"") + Field + "\" must be an integer";
      return false;
    }
    Dst = static_cast<long>(It->second.N);
    Obj.erase(It);
    return true;
  };
  const auto takeBool = [&](const char *Field, bool &Dst) {
    const auto It = Obj.find(Field);
    if (It == Obj.end())
      return true;
    if (It->second.K != JsonScalar::Bool) {
      Err = std::string("field \"") + Field + "\" must be a boolean";
      return false;
    }
    Dst = It->second.B;
    Obj.erase(It);
    return true;
  };

  std::string EngineName;
  long MaxII = 0;
  if (!takeString("id", Out.Id) || !takeString("name", Out.Name) ||
      !takeString("kernel", Out.Kernel) || !takeString("source", Out.Source) ||
      !takeString("engine", EngineName) ||
      !takeInteger("deadline_ms", Out.DeadlineMs) ||
      !takeInteger("max_ii", MaxII) || !takeBool("emit_times", Out.EmitTimes))
    return false;
  if (!Obj.empty()) {
    Err = "unknown field \"" + Obj.begin()->first + "\"";
    return false;
  }
  if (!EngineName.empty() && !parseServiceEngine(EngineName, Out.Engine)) {
    Err = "unknown engine \"" + EngineName +
          "\" (expected slack, bnb, sat, or portfolio)";
    return false;
  }
  if (Out.Kernel.empty() == Out.Source.empty()) {
    Err = Out.Kernel.empty()
              ? "request needs exactly one of \"kernel\" or \"source\""
              : "request may not set both \"kernel\" and \"source\"";
    return false;
  }
  if (MaxII < 0) {
    Err = "field \"max_ii\" must be non-negative";
    return false;
  }
  Out.MaxII = static_cast<int>(MaxII);
  return true;
}

ServiceResponse SchedulingService::handleLine(const std::string &Line,
                                              int Index,
                                              ServiceEngine DefaultEngine,
                                              AdmitMode Mode) {
  ServiceRequest Req;
  std::string Err;
  if (parseRequestLine(Line, Req, Err, DefaultEngine))
    return handle(Req, Index, Mode);
  ServiceResponse Resp;
  Resp.Index = Index;
  Resp.Name = "invalid";
  Resp.Code = ServiceErrorCode::BadRequest;
  Resp.Error = "bad request: " + Err;
  Metrics.inc("requests_parse_errors");
  return Resp;
}

bool SchedulingService::handleLineCachedOnly(const std::string &Line,
                                             int Index,
                                             ServiceEngine DefaultEngine,
                                             ServiceResponse &Out) {
  Out = handleLine(Line, Index, DefaultEngine, AdmitMode::CachedOnly);
  // Parse errors and other request-level failures ARE answers; only the
  // ladder-exhausted Overloaded outcome means "nothing cached, shed me".
  return Out.Ok || Out.Code != ServiceErrorCode::Overloaded;
}

int SchedulingService::processJsonl(std::istream &In, std::ostream &Out,
                                    ServiceEngine DefaultEngine) {
  std::vector<std::string> Batch;
  std::string Line;
  while (std::getline(In, Line)) {
    const size_t FirstCh = Line.find_first_not_of(" \t\r");
    if (FirstCh == std::string::npos || Line[FirstCh] == '#')
      continue;
    Batch.push_back(Line);
  }

  std::vector<ServiceResponse> Responses(Batch.size());
  const int N = static_cast<int>(Batch.size());
  const std::function<void(int)> Work = [&](int I) {
    Responses[static_cast<size_t>(I)] =
        handleLine(Batch[static_cast<size_t>(I)], I, DefaultEngine);
  };
  if (Workers)
    Workers->run(N, Work);
  else
    for (int I = 0; I < N; ++I)
      Work(I);

  int Failures = 0;
  for (const ServiceResponse &R : Responses) {
    Out << R.toJsonl() << '\n';
    if (!R.Ok)
      ++Failures;
  }
  return Failures;
}

namespace {

void appendCacheJson(std::ostream &OS, const ScheduleCache::Stats &S,
                     size_t Capacity, int Shards) {
  char HitRate[32];
  std::snprintf(HitRate, sizeof(HitRate), "%.4f", S.hitRate());
  OS << "{\"capacity\": " << Capacity << ", \"shards\": " << Shards
     << ", \"entries\": " << S.Entries << ", \"hits\": " << S.Hits
     << ", \"misses\": " << S.Misses << ", \"evictions\": " << S.Evictions
     << ", \"insertions\": " << S.Insertions << ", \"hit_rate\": " << HitRate
     << '}';
}

void appendStoreJson(std::ostream &OS, bool Open,
                     const ScheduleStoreStats &S) {
  char HitRate[32];
  std::snprintf(HitRate, sizeof(HitRate), "%.4f", S.hitRate());
  OS << "{\"open\": " << (Open ? "true" : "false") << ", \"hits\": " << S.Hits
     << ", \"misses\": " << S.Misses << ", \"appends\": " << S.Appends
     << ", \"live_keys\": " << S.LiveKeys
     << ", \"recovered_records\": " << S.RecoveredRecords
     << ", \"truncated_bytes\": " << S.TruncatedBytes
     << ", \"torn_records\": " << S.TornRecords
     << ", \"compactions\": " << S.Compactions
     << ", \"log_bytes\": " << S.LogBytes
     << ", \"dead_bytes\": " << S.DeadBytes << ", \"hit_rate\": " << HitRate
     << '}';
}

} // namespace

std::string SchedulingService::metricsJson(bool Pretty) const {
  const char *Sep = Pretty ? ",\n  " : ", ";
  std::ostringstream OS;
  OS << "{" << (Pretty ? "\n  " : "") << "\"jobs\": " << Jobs << Sep
     << "\"cache\": ";
  appendCacheJson(OS, Cache.stats(), Cache.capacity(), Cache.shards());
  OS << Sep << "\"front_cache\": ";
  appendCacheJson(OS, Front.stats(), Front.capacity(), Front.shards());
  OS << Sep << "\"store\": ";
  appendStoreJson(OS, Store.isOpen(), Store.stats());
  OS << Sep << "\"metrics\": " << Metrics.toJson(Pretty) << "}"
     << (Pretty ? "\n" : "");
  return OS.str();
}
