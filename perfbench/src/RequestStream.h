//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded request streams for the service workloads. A stream names a pool
/// of distinct small loops and a sequence of JSONL request lines over them,
/// each labelled with the cache tier it is meant to reach:
///   - Resubmit: the byte-identical text of a recent request (front tier);
///   - Renamed: an earlier loop with every identifier rewritten, so the
///     text is new but the canonical loop key is not (LRU or store tier);
///   - FreshSlack / FreshPortfolio: a loop never requested before (miss).
/// The same seed always yields the same pool, lines and labels.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REQUESTSTREAM_H
#define PERFBENCH_REQUESTSTREAM_H

#include "service/Protocol.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class RequestKind : uint8_t {
  Warm,           ///< warm-up request, before the timed stream
  Resubmit,       ///< byte-identical resubmission
  Renamed,        ///< renamed variant of an earlier loop
  FreshSlack,     ///< new loop, slack engine
  FreshPortfolio, ///< new loop, portfolio exact engine
};
constexpr int NumRequestKinds = 5;
const char *requestKindName(RequestKind K);

/// One distinct loop of the pool and the engine it is requested with.
struct PoolLoop {
  std::string Source;
  lsms::ServiceEngine Engine = lsms::ServiceEngine::Slack;
};

struct StreamRequest {
  RequestKind Kind = RequestKind::Warm;
  int Loop = -1; ///< index into ServiceStream::Loops
  std::string Line;
};

struct ServiceStream {
  std::vector<PoolLoop> Loops;
  std::vector<StreamRequest> Warm;  ///< one per warm loop, slack engine
  std::vector<StreamRequest> Timed; ///< the measured requests, in order
};

/// Resubmissions and renames only refer to requests at least this many
/// positions earlier, so a client thread never races the original.
constexpr int ReferenceDistance = 64;
/// Resubmissions copy one of this many most recent eligible requests, so
/// the copied response is still in the 4096-entry front cache.
constexpr int ResubmitWindow = 1024;
/// Share of each timed kind; the rest of 1.0 is Resubmit. Resubmissions
/// stay below half so the median request latency falls inside one
/// latency cluster (the renamed hits), not on the edge between the
/// front-hit cluster and the rest.
constexpr double RenamedShare = 0.28;
constexpr double FreshSlackShare = 0.22;
constexpr double FreshPortfolioShare = 0.05;

/// The kind of each timed request: exactly each share above of
/// \p Requests (rounded), in an order drawn from \p Seed.
std::vector<RequestKind> drawRequestKinds(uint64_t Seed, int Requests);

/// Number of fresh (never requested) loops \p Kinds consumes.
int freshLoopCount(const std::vector<RequestKind> &Kinds);

/// The \p Index-th small loop source of \p Seed's sequence (Table-2
/// generator with TargetOps at most 40).
std::string drawSmallLoopSource(uint64_t Seed, int Index);

/// Assigns loops to requests. \p LoopSources holds the \p WarmLoops warm
/// loops, then one loop per FreshSlack request, then one per
/// FreshPortfolio request, all distinct; each fresh request takes the
/// next unused loop of its engine, so which loops are requested with
/// which engine does not depend on \p Seed. ServiceStream::Loops follows
/// the same order. WarmLoops must be at least ReferenceDistance.
ServiceStream buildServiceStream(uint64_t Seed, int WarmLoops,
                                 const std::vector<RequestKind> &Kinds,
                                 const std::vector<std::string> &LoopSources);

/// Rewrites every identifier of a loop-DSL source (array, scalar, param and
/// induction-variable names; keywords and the trip count 'n' stay) by
/// prefixing it with a tag
/// derived from \p Salt. Comments, numbers and layout are copied verbatim.
std::string renameIdentifiers(const std::string &Source, uint64_t Salt);

} // namespace perfbench

#endif // PERFBENCH_REQUESTSTREAM_H
