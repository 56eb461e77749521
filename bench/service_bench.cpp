//===----------------------------------------------------------------------===//
/// \file Scheduling-service benchmark, in-process and over the socket.
///
/// In process: cold vs warm throughput, cache hit rate, and request-latency
/// percentiles over the deterministic corpus (suite kernels + seeded random
/// DSL loops), plus the byte-identity check across worker counts.
///
/// Over the socket, three scenarios against the epoll front end:
///  - warm-store restart: exact (bnb) cold compute over the wire into a
///    fresh store, then a new service on the same store path answering the
///    same corpus from the recovered index;
///  - open arrival: Poisson slack arrivals over a large pool of persistent
///    connections against the 4-way SO_REUSEPORT-sharded front end, with
///    latency charged from the scheduled arrival (no coordinated omission);
///  - overload ladder: a bnb Poisson burst far above the compute capacity
///    of a deliberately starved server, which the tier ladder must answer
///    (degraded or cached) instead of shedding.
///
/// Exit status enforces the contracts. --smoke shrinks every scenario and
/// keeps every gate except the two marked "full":
///  - warm (cache-hit) throughput >= 10x cold, no error responses, and a
///    byte-identical response stream at --jobs 1, 2, and N;
///  - the warm-store restart serves >= 10x the cold request rate, with no
///    errors or shed requests and a non-empty recovered index;
///  - open arrival sees no errors and sheds nothing; full: p99 <= 250 ms
///    at 1000 connections and 2000 requests/s;
///  - overload sees no errors; full: >= 90% of requests answered, with
///    the cached rung used.
///
/// Usage: service_bench [--smoke] [--jobs N] [--loops N] [--repeats R]
///                      [--engine slack|bnb|sat] [--out FILE]
///   --loops, --repeats and --engine apply to the in-process part only.
//===----------------------------------------------------------------------===//

#include "NetBenchCommon.h"
#include "ServiceBenchCommon.h"

#include "net/EpollServer.h"
#include "support/ParallelFor.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

using namespace lsms;

namespace {

std::string formatDouble(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

/// Boots an epoll front end over \p Svc, calls \p Drive with its port, and
/// shuts the front end down again. A failed start lands in \p Error and
/// skips \p Drive.
template <typename Fn>
void withServer(SchedulingService &Svc, const ServerConfig &Config,
                std::string &Error, Fn Drive) {
  EpollServer Front(Svc, Config);
  if (!Front.start(Error))
    return;
  std::thread IO([&Front] { Front.serve(); });
  Drive(Front.port());
  Front.requestStop();
  IO.join();
}

/// Bounds the exact engine by search budget instead of a wall deadline, so
/// exact compute is expensive but bounded and deterministic. Budget
/// degradation is part of the engines' contract, so every response,
/// degraded or not, is cache-eligible and store-persisted.
void boundExactBudget(ServiceConfig &Config) {
  Config.Exact.NodeBudget = 1L << 14;
  Config.Exact.MaxLiveNodeBudget = 1L << 14;
}

struct RestartRun {
  int Connections = 0;
  int WarmPasses = 3;
  double ColdSeconds = 0, WarmSeconds = 0;
  long ColdRequests = 0, WarmRequests = 0;
  long RecoveredRecords = 0;
  int64_t WarmP50Us = 0, WarmP99Us = 0, WarmP999Us = 0;
  long Errors = 0, Shed = 0;
  std::string Error;
  double coldRps() const {
    return ColdSeconds > 0 ? ColdRequests / ColdSeconds : 0;
  }
  double warmRps() const {
    return WarmSeconds > 0 ? WarmRequests / WarmSeconds : 0;
  }
  double speedup() const { return coldRps() > 0 ? warmRps() / coldRps() : 0; }
  bool ok() const {
    return Error.empty() && Errors == 0 && Shed == 0 &&
           RecoveredRecords > 0 && speedup() >= 10.0;
  }
};

/// Cold exact pass into a fresh store, then a restart that answers the
/// corpus WarmPasses times from the recovered index. The warm restart
/// never recomputes, because every cold response was persisted.
RestartRun runWarmStoreRestart(bool Smoke, int Jobs, uint64_t Seed) {
  const std::vector<std::string> Corpus =
      serviceBenchCorpus(Smoke ? 4 : 24, Seed + 1);
  RestartRun Run;
  Run.Connections = Smoke ? 2 : 4;
  const std::string StorePath = "service_bench_store.lsr";
  std::remove(StorePath.c_str());

  const auto phase = [&](bool Warm) {
    ServiceConfig SC;
    SC.Jobs = Jobs;
    SC.StorePath = StorePath;
    boundExactBudget(SC);
    SchedulingService Svc(SC);
    if (Warm)
      Run.RecoveredRecords = Svc.storeStats().RecoveredRecords;
    NetLoadResult R;
    withServer(Svc, ServerConfig(), Run.Error, [&](uint16_t Port) {
      NetLoadConfig LC;
      LC.Port = Port;
      LC.Connections = Run.Connections;
      LC.Engine = "bnb";
      LC.Corpus = Corpus;
      LC.DisjointSlices = true;
      LC.PipelineDepth = 16;
      const size_t Slice =
          (Corpus.size() + static_cast<size_t>(LC.Connections) - 1) /
          static_cast<size_t>(LC.Connections);
      LC.RequestsPerConnection =
          static_cast<int>(Slice) * (Warm ? Run.WarmPasses : 1);
      R = runNetLoad(LC);
      Run.Error = R.Error;
    });
    if (!Run.Error.empty())
      return false;
    (Warm ? Run.WarmSeconds : Run.ColdSeconds) = R.Seconds;
    (Warm ? Run.WarmRequests : Run.ColdRequests) = R.Received;
    Run.Errors += R.Errors;
    Run.Shed += R.Shed;
    if (Warm) {
      Run.WarmP50Us = R.P50Us;
      Run.WarmP99Us = R.P99Us;
      Run.WarmP999Us = R.P999Us;
    }
    return true;
  };
  if (phase(/*Warm=*/false))
    phase(/*Warm=*/true);
  std::remove(StorePath.c_str());
  return Run;
}

/// One open-arrival run: the offered load and what came back.
struct OpenRun {
  int IoShards = 0;
  OpenLoadConfig Load;
  OpenLoadResult Result;
};

OpenRun runOpenTail(bool Smoke, int Jobs, uint64_t Seed) {
  OpenRun Run;
  Run.IoShards = 4;
  Run.Load.Connections = Smoke ? 128 : 1000;
  Run.Load.TargetRps = Smoke ? 400 : 2000;
  Run.Load.TotalRequests = Smoke ? 800 : 10000;
  Run.Load.Seed = Seed + 2;
  Run.Load.Engine = "slack";
  Run.Load.Corpus = serviceBenchCorpus(Smoke ? 8 : 32, Seed + 2);
  ServiceConfig SC;
  SC.Jobs = Jobs;
  SchedulingService Svc(SC);
  ServerConfig NC;
  NC.IoShards = Run.IoShards;
  withServer(Svc, NC, Run.Result.Error, [&](uint16_t Port) {
    Run.Load.Port = Port;
    Run.Result = runOpenLoad(Run.Load);
  });
  return Run;
}

/// One worker, a tiny admission queue, and a budget-bound exact engine.
/// A slack pass in strict lockstep on one connection first puts a slack
/// answer for every corpus loop into the cache, so the cached rung has
/// answers when the bnb burst arrives.
OpenRun runOverload(bool Smoke, uint64_t Seed) {
  OpenRun Run;
  Run.IoShards = 2;
  Run.Load.Connections = Smoke ? 64 : 256;
  Run.Load.TargetRps = Smoke ? 300 : 1500;
  Run.Load.TotalRequests = Smoke ? 600 : 6000;
  Run.Load.Seed = Seed + 3;
  Run.Load.Engine = "bnb";
  Run.Load.Corpus = serviceBenchCorpus(Smoke ? 8 : 32, Seed + 3);
  ServiceConfig SC;
  SC.Jobs = 1;
  boundExactBudget(SC);
  SchedulingService Svc(SC);
  ServerConfig NC;
  NC.Workers = 1;
  NC.IoShards = Run.IoShards;
  NC.MaxQueueDepth = 4;
  NC.SlackQueueDepth = 8;
  NC.CachedFallback = true;
  withServer(Svc, NC, Run.Result.Error, [&](uint16_t Port) {
    NetLoadConfig WC;
    WC.Port = Port;
    WC.Connections = 1;
    WC.PipelineDepth = 1;
    WC.Engine = "slack";
    WC.Corpus = Run.Load.Corpus;
    WC.RequestsPerConnection = static_cast<int>(WC.Corpus.size());
    const NetLoadResult Warm = runNetLoad(WC);
    if (!Warm.ok() || Warm.Errors > 0) {
      Run.Result.Error =
          Warm.Error.empty() ? "overload warm pass saw errors" : Warm.Error;
      return;
    }
    Run.Load.Port = Port;
    Run.Result = runOpenLoad(Run.Load);
  });
  return Run;
}

void printOpenRun(std::ostream &OS, const char *Name, const OpenRun &Run,
                  const char *GateName, bool GateOk) {
  const OpenLoadResult &R = Run.Result;
  OS << "    \"" << Name << "\": {\n"
     << "      \"io_shards\": " << Run.IoShards << ",\n"
     << "      \"connections\": " << Run.Load.Connections << ",\n"
     << "      \"target_rps\": " << formatDouble(Run.Load.TargetRps, 1)
     << ",\n"
     << "      \"sent\": " << R.Sent << ",\n"
     << "      \"received\": " << R.Received << ",\n"
     << "      \"seconds\": " << formatDouble(R.Seconds, 3) << ",\n"
     << "      \"achieved_rps\": " << formatDouble(R.rps(), 1) << ",\n"
     << "      \"tier_exact\": " << R.TierExact << ",\n"
     << "      \"tier_slack\": " << R.TierSlack << ",\n"
     << "      \"tier_cached\": " << R.TierCached << ",\n"
     << "      \"answered_fraction\": "
     << formatDouble(R.answeredFraction(), 4) << ",\n"
     << "      \"p50_us\": " << R.P50Us << ",\n"
     << "      \"p99_us\": " << R.P99Us << ",\n"
     << "      \"p999_us\": " << R.P999Us << ",\n"
     << "      \"max_us\": " << R.MaxUs << ",\n"
     << "      \"errors\": " << R.Errors << ",\n"
     << "      \"shed\": " << R.Shed << ",\n"
     << "      \"" << GateName << "\": " << (GateOk ? "true" : "false")
     << "\n"
     << "    }";
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int JobsN = 0;
  int RandomLoops = -1;
  int Repeats = -1;
  ServiceEngine Engine = ServiceEngine::Slack;
  const char *OutPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc) {
      JobsN = std::atoi(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--loops") == 0 && I + 1 < Argc) {
      RandomLoops = std::atoi(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--repeats") == 0 && I + 1 < Argc) {
      Repeats = std::atoi(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--engine") == 0 && I + 1 < Argc) {
      if (!parseServiceEngine(Argv[++I], Engine)) {
        std::cerr << "service_bench: unknown engine '" << Argv[I] << "'\n";
        return 1;
      }
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else {
      std::cerr << "usage: service_bench [--smoke] [--jobs N] [--loops N] "
                   "[--repeats R] [--engine slack|bnb|sat] [--out FILE]\n";
      return 1;
    }
  }
  JobsN = resolveJobs(JobsN);
  if (RandomLoops < 0)
    RandomLoops = Smoke ? 8 : 75;
  if (Repeats < 0)
    Repeats = Smoke ? 3 : 10;
  const uint64_t Seed = 0x19930601;

  const std::vector<std::string> Corpus =
      serviceBenchCorpus(RandomLoops, Seed);

  ServiceConfig Config;
  Config.Jobs = JobsN;
  const ServiceBenchResult R =
      runServiceBench(Corpus, Engine, Repeats, Config);

  // Determinism: identical response bytes at 1, 2, and JobsN workers.
  std::vector<int> JobCounts = {1, 2, JobsN};
  const std::vector<std::string> Streams =
      serviceResponsesAtJobs(Corpus, Engine, JobCounts);
  bool ByteIdentical = true;
  for (size_t I = 1; I < Streams.size(); ++I)
    ByteIdentical = ByteIdentical && Streams[I] == Streams[0];

  const bool WarmFastEnough = R.warmSpeedup() >= 10.0;
  const bool NoErrors = R.Errors == 0;

  const RestartRun Restart = runWarmStoreRestart(Smoke, JobsN, Seed);
  const OpenRun Tail = runOpenTail(Smoke, JobsN, Seed);
  const OpenRun Overload = runOverload(Smoke, Seed);
  const OpenLoadResult &TR = Tail.Result, &OR = Overload.Result;
  const bool TailOk = TR.ok() && TR.Errors == 0 && TR.Shed == 0 &&
                      (Smoke || TR.P99Us <= 250000);
  const bool OverloadOk =
      OR.ok() && OR.Errors == 0 &&
      (Smoke || (OR.answeredFraction() >= 0.9 && OR.TierCached > 0));

  std::ostringstream JSON;
  JSON << "{\n"
       << "  \"bench\": \"service_bench\",\n"
       << "  \"mode\": \"" << (Smoke ? "smoke" : "full") << "\",\n"
       << "  \"engine\": \"" << serviceEngineName(Engine) << "\",\n"
       << "  \"jobs\": " << JobsN << ",\n"
       << "  \"corpus_loops\": " << R.CorpusLoops << ",\n"
       << "  \"warm_passes\": " << R.WarmPasses << ",\n"
       << "  \"cold_seconds\": " << formatDouble(R.ColdSeconds, 4) << ",\n"
       << "  \"cold_loops_per_sec\": " << formatDouble(R.coldLoopsPerSec(), 1)
       << ",\n"
       << "  \"warm_seconds\": " << formatDouble(R.WarmSeconds, 4) << ",\n"
       << "  \"warm_loops_per_sec\": " << formatDouble(R.warmLoopsPerSec(), 1)
       << ",\n"
       << "  \"warm_speedup\": " << formatDouble(R.warmSpeedup(), 1) << ",\n"
       << "  \"cache_hit_rate\": " << formatDouble(R.HitRate, 4) << ",\n"
       << "  \"request_p50_us\": " << R.P50Us << ",\n"
       << "  \"request_p99_us\": " << R.P99Us << ",\n"
       << "  \"errors\": " << R.Errors << ",\n"
       << "  \"responses_byte_identical_across_jobs\": "
       << (ByteIdentical ? "true" : "false") << ",\n"
       << "  \"warm_speedup_at_least_10x\": "
       << (WarmFastEnough ? "true" : "false") << ",\n"
       << "  \"server\": {\n"
       << "    \"restart\": {\n"
       << "      \"connections\": " << Restart.Connections << ",\n"
       << "      \"cold_requests\": " << Restart.ColdRequests << ",\n"
       << "      \"cold_seconds\": " << formatDouble(Restart.ColdSeconds, 4)
       << ",\n"
       << "      \"cold_rps\": " << formatDouble(Restart.coldRps(), 1)
       << ",\n"
       << "      \"warm_passes\": " << Restart.WarmPasses << ",\n"
       << "      \"warm_requests\": " << Restart.WarmRequests << ",\n"
       << "      \"warm_seconds\": " << formatDouble(Restart.WarmSeconds, 4)
       << ",\n"
       << "      \"warm_rps\": " << formatDouble(Restart.warmRps(), 1)
       << ",\n"
       << "      \"restart_speedup\": " << formatDouble(Restart.speedup(), 1)
       << ",\n"
       << "      \"recovered_records\": " << Restart.RecoveredRecords
       << ",\n"
       << "      \"warm_p50_us\": " << Restart.WarmP50Us << ",\n"
       << "      \"warm_p99_us\": " << Restart.WarmP99Us << ",\n"
       << "      \"warm_p999_us\": " << Restart.WarmP999Us << ",\n"
       << "      \"errors\": " << Restart.Errors << ",\n"
       << "      \"shed\": " << Restart.Shed << ",\n"
       << "      \"warm_store_10x\": " << (Restart.ok() ? "true" : "false")
       << "\n"
       << "    },\n";
  printOpenRun(JSON, "open_arrival", Tail, "p99_under_250ms", TailOk);
  JSON << ",\n";
  printOpenRun(JSON, "overload", Overload, "answered_90pct", OverloadOk);
  JSON << "\n  }\n}\n";

  if (OutPath) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::cerr << "service_bench: cannot write " << OutPath << "\n";
      return 1;
    }
    Out << JSON.str();
    std::cout << "wrote " << OutPath << "\n";
  } else {
    std::cout << JSON.str();
  }
  if (!ByteIdentical)
    std::cerr << "service_bench: FAIL responses differ across job counts\n";
  if (!WarmFastEnough)
    std::cerr << "service_bench: FAIL warm speedup "
              << formatDouble(R.warmSpeedup(), 1) << "x < 10x\n";
  if (!NoErrors)
    std::cerr << "service_bench: FAIL " << R.Errors << " error responses\n";
  if (!Restart.ok()) {
    if (!Restart.Error.empty())
      std::cerr << "service_bench: FAIL server restart: " << Restart.Error
                << "\n";
    else
      std::cerr << "service_bench: FAIL warm-store restart "
                << formatDouble(Restart.speedup(), 1)
                << "x < 10x over cold exact (errors=" << Restart.Errors
                << " shed=" << Restart.Shed
                << " recovered=" << Restart.RecoveredRecords << ")\n";
  }
  if (!TailOk) {
    if (!TR.ok())
      std::cerr << "service_bench: FAIL open arrival: " << TR.Error << "\n";
    else
      std::cerr << "service_bench: FAIL open-arrival tail p99 " << TR.P99Us
                << "us > 250ms (errors=" << TR.Errors << " shed=" << TR.Shed
                << ")\n";
  }
  if (!OverloadOk) {
    if (!OR.ok())
      std::cerr << "service_bench: FAIL overload: " << OR.Error << "\n";
    else
      std::cerr << "service_bench: FAIL overload ladder answered "
                << formatDouble(OR.answeredFraction() * 100, 1)
                << "% < 90% (errors=" << OR.Errors
                << " tier_cached=" << OR.TierCached << " shed=" << OR.Shed
                << ")\n";
  }
  return ByteIdentical && WarmFastEnough && NoErrors && Restart.ok() &&
                 TailOk && OverloadOk
             ? 0
             : 1;
}
