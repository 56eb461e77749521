//===----------------------------------------------------------------------===//
///
/// \file
/// Shared load-generation harness for the socket front end, in two modes:
///
///  - closed loop (runNetLoad): N client connections each keep a bounded
///    pipeline of requests in flight — throughput-oriented, but latency
///    under overload is flattered because a slow server throttles the
///    offered load.
///  - open arrival (runOpenLoad): requests arrive on a Poisson process at
///    a target aggregate rate, spread over a large pool of persistent
///    connections driven by a few epoll event-loop threads. Latency is
///    measured from the *scheduled* arrival time, so queueing delay the
///    server induces is charged to it (no coordinated omission), and
///    responses are classified per degradation tier.
///
/// Both build requests from a DSL corpus and report latency percentiles.
/// Used by bench/load_gen (the CLI) and the socket scenarios of
/// bench/service_bench.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_BENCH_NETBENCHCOMMON_H
#define LSMS_BENCH_NETBENCHCOMMON_H

#include <cstdint>
#include <string>
#include <vector>

namespace lsms {

struct NetLoadConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  int Connections = 4;
  /// Request lines each connection sends (its corpus slice is cycled).
  int RequestsPerConnection = 0;
  /// Closed-loop window: lines in flight per connection before the client
  /// waits for a response. 1 = strict request/response lockstep.
  int PipelineDepth = 8;
  /// Wire engine name stamped into every request ("slack", "bnb", "sat").
  std::string Engine = "slack";
  /// DSL sources requests are built from.
  std::vector<std::string> Corpus;
  /// When true, connection I only sends corpus[J] with J % Connections ==
  /// I, so no two connections ever share a cache or store key — the cold
  /// phase of the restart benchmark stays genuinely compute-bound.
  bool DisjointSlices = false;
};

struct NetLoadResult {
  long Sent = 0;
  long Received = 0;
  long Errors = 0; ///< responses with "status":"error"
  long Shed = 0;   ///< responses with "status":"shed"
  double Seconds = 0;
  int64_t P50Us = 0, P99Us = 0, P999Us = 0, MaxUs = 0;
  /// First connection-level failure ("" when the run was clean).
  std::string Error;
  bool ok() const { return Error.empty(); }
  double rps() const { return Seconds > 0 ? Received / Seconds : 0; }
};

/// Runs the configured load against a live server and blocks until every
/// connection finished (or failed).
NetLoadResult runNetLoad(const NetLoadConfig &Config);

struct OpenLoadConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  /// Persistent connections held open for the whole run; arrivals are
  /// spread over them round-robin.
  int Connections = 1000;
  /// Aggregate Poisson arrival rate (requests per second).
  double TargetRps = 1000;
  /// Total requests to send across all connections.
  long TotalRequests = 10000;
  /// Client event-loop threads (connections split evenly); 0 picks a
  /// small count from hardware concurrency.
  int ClientThreads = 0;
  /// Seed for the deterministic arrival process and corpus order.
  uint64_t Seed = 1;
  /// Wire engine name stamped into every request.
  std::string Engine = "slack";
  /// DSL sources requests are built from.
  std::vector<std::string> Corpus;
  /// After the last send, wait at most this long for stragglers before
  /// declaring the run stuck.
  long TailTimeoutMs = 30000;
};

struct OpenLoadResult {
  long Sent = 0;
  long Received = 0;
  long Errors = 0; ///< responses with "status":"error"
  long Shed = 0;   ///< responses with "tier":"shed"
  /// Per-tier answer counts (see service/Protocol.h).
  long TierExact = 0, TierSlack = 0, TierCached = 0;
  double Seconds = 0;
  /// Percentiles of response time measured from the scheduled arrival.
  int64_t P50Us = 0, P99Us = 0, P999Us = 0, MaxUs = 0;
  /// First connection-level failure ("" when the run was clean).
  std::string Error;
  bool ok() const { return Error.empty(); }
  double rps() const { return Seconds > 0 ? Received / Seconds : 0; }
  /// Fraction of sent requests that got a real answer (any tier but
  /// shed) — the degrade-before-shed acceptance metric.
  double answeredFraction() const {
    return Sent > 0 ? static_cast<double>(Received - Shed) /
                          static_cast<double>(Sent)
                    : 0;
  }
};

/// Runs the open-arrival load against a live server and blocks until
/// every request was answered (or the tail timeout expired).
OpenLoadResult runOpenLoad(const OpenLoadConfig &Config);

/// Best-effort raise of the process RLIMIT_NOFILE soft limit to at least
/// \p AtLeast (capped at the hard limit); returns the resulting soft
/// limit. Large open-arrival runs need client + server fds in one
/// process.
long raiseFdLimit(long AtLeast);

} // namespace lsms

#endif // LSMS_BENCH_NETBENCHCOMMON_H
