#include "RequestStream.h"

#include "support/Rng.h"
#include "workloads/RandomLoop.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>

using namespace lsms;
using namespace perfbench;

const char *perfbench::requestKindName(RequestKind K) {
  switch (K) {
  case RequestKind::Warm:
    return "warm";
  case RequestKind::Resubmit:
    return "resubmit";
  case RequestKind::Renamed:
    return "renamed";
  case RequestKind::FreshSlack:
    return "fresh_slack";
  case RequestKind::FreshPortfolio:
    return "fresh_portfolio";
  }
  return "?";
}

std::vector<RequestKind> perfbench::drawRequestKinds(uint64_t Seed,
                                                     int Requests) {
  // Exact counts in a seeded order, so every seed has the same mix.
  const auto count = [&](double Share) {
    return static_cast<size_t>(std::lround(Share * Requests));
  };
  std::vector<RequestKind> Kinds;
  Kinds.reserve(static_cast<size_t>(Requests));
  Kinds.insert(Kinds.end(), count(FreshPortfolioShare),
               RequestKind::FreshPortfolio);
  Kinds.insert(Kinds.end(), count(FreshSlackShare), RequestKind::FreshSlack);
  Kinds.insert(Kinds.end(), count(RenamedShare), RequestKind::Renamed);
  Kinds.resize(std::max(Kinds.size(), static_cast<size_t>(Requests)),
               RequestKind::Resubmit);
  Kinds.resize(static_cast<size_t>(Requests));
  Rng R(Seed ^ 0x6b696e6473ULL); // "kinds"
  for (size_t I = Kinds.size(); I > 1; --I)
    std::swap(Kinds[I - 1], Kinds[R.nextBelow(I)]);
  return Kinds;
}

int perfbench::freshLoopCount(const std::vector<RequestKind> &Kinds) {
  int N = 0;
  for (const RequestKind K : Kinds)
    N += K == RequestKind::FreshSlack || K == RequestKind::FreshPortfolio;
  return N;
}

std::string perfbench::drawSmallLoopSource(uint64_t Seed, int Index) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(Index));
  RandomLoopConfig Config = drawTable2Config(R);
  while (Config.TargetOps > 40)
    Config = drawTable2Config(R);
  return generateRandomLoopSource(R, Config);
}

ServiceStream
perfbench::buildServiceStream(uint64_t Seed, int WarmLoops,
                              const std::vector<RequestKind> &Kinds,
                              const std::vector<std::string> &LoopSources) {
  const auto count = [&](RequestKind K) {
    return static_cast<int>(std::count(Kinds.begin(), Kinds.end(), K));
  };
  // Next unused loop of each engine.
  int NextSlack = WarmLoops;
  int NextPortfolio = WarmLoops + count(RequestKind::FreshSlack);
  assert(static_cast<int>(LoopSources.size()) ==
             NextPortfolio + count(RequestKind::FreshPortfolio) &&
         "one distinct loop per warm and fresh request");
  assert(WarmLoops >= ReferenceDistance && "too few warm loops to refer to");
  ServiceStream S;
  for (int I = 0; I < static_cast<int>(LoopSources.size()); ++I)
    S.Loops.push_back({LoopSources[static_cast<size_t>(I)],
                       I < NextPortfolio ? ServiceEngine::Slack
                                         : ServiceEngine::Portfolio});
  Rng R(Seed ^ 0x73747265616dULL); // "stream"
  // Requests in issue order (warm, then timed), and the loops in the order
  // they were first requested, with the position of that request.
  std::vector<const StreamRequest *> Issued;
  std::vector<int> FirstLoop, FirstSeen;
  const auto lineFor = [&](int Loop) {
    const PoolLoop &L = S.Loops[static_cast<size_t>(Loop)];
    return renderRequestLine(L.Source, serviceEngineName(L.Engine));
  };
  S.Warm.reserve(static_cast<size_t>(WarmLoops));
  S.Timed.reserve(Kinds.size());
  for (int I = 0; I < WarmLoops; ++I) {
    S.Warm.push_back({RequestKind::Warm, I, lineFor(I)});
    FirstLoop.push_back(I);
    FirstSeen.push_back(I);
  }
  for (const StreamRequest &W : S.Warm)
    Issued.push_back(&W);
  for (size_t T = 0; T < Kinds.size(); ++T) {
    const int Pos = WarmLoops + static_cast<int>(T);
    const int Horizon = Pos - ReferenceDistance; // newest referable position
    StreamRequest Req;
    Req.Kind = Kinds[T];
    switch (Req.Kind) {
    case RequestKind::Resubmit: {
      const int Lo = std::max(0, Horizon - ResubmitWindow + 1);
      const StreamRequest &Old =
          *Issued[static_cast<size_t>(R.nextInRange(Lo, Horizon))];
      Req.Loop = Old.Loop;
      Req.Line = Old.Line;
      break;
    }
    case RequestKind::Renamed: {
      // Any loop first requested at or before the horizon; FirstSeen is
      // increasing, so those loops form a prefix of FirstLoop.
      const auto Eligible = static_cast<uint64_t>(
          std::upper_bound(FirstSeen.begin(), FirstSeen.end(), Horizon) -
          FirstSeen.begin());
      Req.Loop = FirstLoop[R.nextBelow(Eligible)];
      const PoolLoop &L = S.Loops[static_cast<size_t>(Req.Loop)];
      Req.Line = renderRequestLine(
          renameIdentifiers(L.Source, Seed * 0x100000001b3ULL +
                                          static_cast<uint64_t>(Pos)),
          serviceEngineName(L.Engine));
      break;
    }
    case RequestKind::FreshSlack:
    case RequestKind::FreshPortfolio:
      Req.Loop = Req.Kind == RequestKind::FreshPortfolio ? NextPortfolio++
                                                         : NextSlack++;
      Req.Line = lineFor(Req.Loop);
      FirstLoop.push_back(Req.Loop);
      FirstSeen.push_back(Pos);
      break;
    case RequestKind::Warm:
      break;
    }
    S.Timed.push_back(std::move(Req));
    Issued.push_back(&S.Timed.back()); // no reallocation: reserved above
  }
  return S;
}

namespace {

/// Words a rename must keep: the DSL keywords, and 'n', the symbolic trip
/// count every loop's upper bound must name.
bool isReserved(const std::string &W) {
  static const char *const Keywords[] = {
      "param", "loop",    "if",   "then",  "else", "end",
      "endif", "endloop", "sqrt", "while", "n"};
  for (const char *K : Keywords)
    if (W == K)
      return true;
  return false;
}

} // namespace

std::string perfbench::renameIdentifiers(const std::string &Source,
                                         uint64_t Salt) {
  // Base-26 tag from the salt: distinct salts give distinct prefixes.
  std::string Tag;
  uint64_t X = Salt;
  do {
    Tag += static_cast<char>('a' + X % 26);
    X /= 26;
  } while (X);
  Tag += '_';
  std::string Out;
  Out.reserve(Source.size() * 2);
  const size_t N = Source.size();
  size_t I = 0;
  while (I < N) {
    const char C = Source[I];
    if (C == '#') {
      while (I < N && Source[I] != '\n')
        Out += Source[I++];
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Word;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        Word += Source[I++];
      Out += isReserved(Word) ? Word : Tag + Word;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '.' && I + 1 < N &&
         std::isdigit(static_cast<unsigned char>(Source[I + 1])))) {
      // Same number grammar as the lexer, so an exponent's 'e' is never
      // mistaken for an identifier.
      const size_t Begin = I;
      while (I < N && (std::isdigit(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '.' || Source[I] == 'e' ||
                       Source[I] == 'E' ||
                       ((Source[I] == '+' || Source[I] == '-') && I > Begin &&
                        (Source[I - 1] == 'e' || Source[I - 1] == 'E'))))
        Out += Source[I++];
      continue;
    }
    Out += C;
    ++I;
  }
  return Out;
}
