// Tests of the benchmark's own code: the tail-percentile rule, span
// self-time arithmetic, request-stream determinism, the renamed-variant
// generator, and the list of known kernel-code defects.

#include "Pipeline.h"
#include "RequestStream.h"
#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "frontend/LoopCompiler.h"
#include "service/LoopKey.h"
#include "service/SchedulingService.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

using namespace perfbench;

namespace {

std::vector<double> oneTo(int N) {
  std::vector<double> V(static_cast<size_t>(N));
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

SpanRecord span(int64_t Start, int64_t End, int32_t Parent) {
  SpanRecord S;
  S.StartNs = Start;
  S.EndNs = End;
  S.Parent = Parent;
  return S;
}

std::string sourceOf(const std::string &Line) {
  lsms::ServiceRequest Req;
  std::string Err;
  EXPECT_TRUE(lsms::SchedulingService::parseRequestLine(Line, Req, Err))
      << Err;
  return Req.Source;
}

} // namespace

TEST(PercentileRule, NearestRank) {
  EXPECT_EQ(percentile(oneTo(100), 0.5), 50);
  EXPECT_EQ(percentile(oneTo(100), 0.99), 99);
  EXPECT_EQ(percentile(oneTo(1000), 0.99), 990);
  EXPECT_EQ(median(oneTo(7)), 4);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(PercentileRule, TenSamplesBeyondTheTail) {
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(tailReportable(1000, 0.99));
  EXPECT_FALSE(tailReportable(999, 0.99));
  EXPECT_TRUE(tailReportable(100, 0.9));
  EXPECT_FALSE(tailReportable(99, 0.9));
  EXPECT_EQ(highestTailPercentile(1525), 0.99);
  EXPECT_EQ(highestTailPercentile(999), 0.9);
  EXPECT_EQ(highestTailPercentile(20), 0.5);
  EXPECT_EQ(highestTailPercentile(19), 0.0);
}

TEST(PercentileRule, LargeLoopsGetNoP99) {
  // Two passes over a handful of large loops: too few samples for p99 or
  // p90, so the windows are pooled and the tail is the median.
  RunResult R;
  reportLatency(R, {oneTo(10), oneTo(10)});
  EXPECT_EQ(R.Metrics["latency_tail_us"].Value, 5);
  EXPECT_EQ(R.Metrics["latency_p50_us"].Value, 5);
  ASSERT_EQ(R.Info.size(), 1u);
  EXPECT_NE(R.Info[0].find("p50"), std::string::npos);
}

TEST(PercentileRule, TailIsMedianOverWindows) {
  std::vector<double> Slow = oneTo(1000);
  for (double &V : Slow)
    V *= 10;
  RunResult R;
  reportLatency(R, {oneTo(1000), oneTo(1000), Slow});
  EXPECT_EQ(R.Metrics["latency_tail_us"].Value, 990);
  EXPECT_NE(R.Info[0].find("p99"), std::string::npos);
}

TEST(SelfTime, NestedChildren) {
  // root [0,100] > a [10,40] > b [15,20]
  const std::vector<SpanRecord> S = {span(0, 100, -1), span(10, 40, 0),
                                     span(15, 20, 1)};
  const std::vector<int64_t> Self = selfTimesNs(S);
  EXPECT_EQ(Self[0], 70);
  EXPECT_EQ(Self[1], 25);
  EXPECT_EQ(Self[2], 5);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10,40] and [30,60] overlap on [30,40]; [90,120] is clipped
  // to the parent's end.
  const std::vector<SpanRecord> S = {span(0, 100, -1), span(10, 40, 0),
                                     span(30, 60, 0), span(90, 120, 0)};
  EXPECT_EQ(selfTimesNs(S)[0], 100 - 50 - 10);
}

TEST(SelfTime, ChildCoveringParentLeavesZero) {
  const std::vector<SpanRecord> S = {span(10, 20, -1), span(0, 30, 0)};
  EXPECT_EQ(selfTimesNs(S)[0], 0);
}

TEST(SelfTime, ScopedSpansRecordParentsAndRequests) {
  Trace T;
  setActiveTrace(&T);
  {
    ScopedSpan Root("root", 7);
    { ScopedSpan Child("child"); }
    { ScopedSpan Child("child"); }
  }
  setActiveTrace(nullptr);
  { ScopedSpan Ignored("untraced"); }
  ASSERT_EQ(T.lanes().size(), 1u);
  const std::vector<SpanRecord> &S = T.lanes()[0]->Spans;
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0].Parent, -1);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[2].Parent, 0);
  EXPECT_EQ(S[2].Request, 7);
  const auto Totals = summarize(T);
  EXPECT_EQ(Totals.at("child").Count, 2);
  EXPECT_EQ(Totals.count("untraced"), 0u);
  EXPECT_LE(Totals.at("root").SelfNs, Totals.at("root").TotalNs);
}

TEST(RequestStream, SameSeedSameStream) {
  const auto Kinds = drawRequestKinds(5, 2000);
  EXPECT_EQ(Kinds, drawRequestKinds(5, 2000));
  EXPECT_NE(Kinds, drawRequestKinds(6, 2000));
  std::vector<std::string> Sources;
  for (int I = 0; I < 128 + freshLoopCount(Kinds); ++I)
    Sources.push_back(drawSmallLoopSource(5, I));
  EXPECT_EQ(Sources[3], drawSmallLoopSource(5, 3));
  EXPECT_NE(Sources[3], drawSmallLoopSource(6, 3));
  const ServiceStream A = buildServiceStream(5, 128, Kinds, Sources);
  const ServiceStream B = buildServiceStream(5, 128, Kinds, Sources);
  ASSERT_EQ(A.Timed.size(), B.Timed.size());
  for (size_t I = 0; I < A.Timed.size(); ++I) {
    EXPECT_EQ(A.Timed[I].Line, B.Timed[I].Line);
    EXPECT_EQ(A.Timed[I].Loop, B.Timed[I].Loop);
    EXPECT_EQ(A.Timed[I].Kind, B.Timed[I].Kind);
  }
}

TEST(RequestStream, MixAndReferenceDistance) {
  const int Warm = 256, N = 20000;
  const auto Kinds = drawRequestKinds(9, N);
  std::vector<std::string> Sources;
  for (int I = 0; I < Warm + freshLoopCount(Kinds); ++I)
    Sources.push_back(drawSmallLoopSource(9, I));
  const ServiceStream S = buildServiceStream(9, Warm, Kinds, Sources);
  ASSERT_EQ(S.Warm.size(), static_cast<size_t>(Warm));
  ASSERT_EQ(S.Timed.size(), static_cast<size_t>(N));
  std::vector<int> FirstSeen(S.Loops.size(), -1);
  std::vector<std::string> Issued;
  for (const StreamRequest &W : S.Warm) {
    FirstSeen[static_cast<size_t>(W.Loop)] = static_cast<int>(Issued.size());
    Issued.push_back(W.Line);
  }
  int Count[NumRequestKinds] = {};
  for (const StreamRequest &Req : S.Timed) {
    const int Pos = static_cast<int>(Issued.size());
    ++Count[static_cast<int>(Req.Kind)];
    const size_t L = static_cast<size_t>(Req.Loop);
    switch (Req.Kind) {
    case RequestKind::Resubmit: {
      // Byte-identical to a request between ReferenceDistance and
      // ReferenceDistance + ResubmitWindow positions back.
      bool Found = false;
      for (int P = std::max(0, Pos - ReferenceDistance - ResubmitWindow + 1);
           P <= Pos - ReferenceDistance && !Found; ++P)
        Found = Issued[static_cast<size_t>(P)] == Req.Line;
      EXPECT_TRUE(Found);
      break;
    }
    case RequestKind::Renamed:
      EXPECT_GE(FirstSeen[L], 0);
      EXPECT_LE(FirstSeen[L], Pos - ReferenceDistance);
      EXPECT_NE(sourceOf(Req.Line), S.Loops[L].Source);
      break;
    case RequestKind::FreshSlack:
    case RequestKind::FreshPortfolio:
      EXPECT_EQ(FirstSeen[L], -1);
      FirstSeen[L] = Pos;
      EXPECT_EQ(sourceOf(Req.Line), S.Loops[L].Source);
      EXPECT_EQ(S.Loops[L].Engine, Req.Kind == RequestKind::FreshPortfolio
                                       ? lsms::ServiceEngine::Portfolio
                                       : lsms::ServiceEngine::Slack);
      break;
    case RequestKind::Warm:
      ADD_FAILURE() << "warm request in the timed stream";
    }
    Issued.push_back(Req.Line);
  }
  const auto expect = [&](RequestKind K, double Share) {
    EXPECT_EQ(Count[static_cast<int>(K)], std::lround(Share * N));
  };
  expect(RequestKind::Renamed, RenamedShare);
  expect(RequestKind::FreshSlack, FreshSlackShare);
  expect(RequestKind::FreshPortfolio, FreshPortfolioShare);
  EXPECT_EQ(Count[static_cast<int>(RequestKind::Resubmit)],
            N - Count[static_cast<int>(RequestKind::Renamed)] -
                Count[static_cast<int>(RequestKind::FreshSlack)] -
                Count[static_cast<int>(RequestKind::FreshPortfolio)]);
}

TEST(RequestStream, LoopsAndEnginesDoNotDependOnStreamSeed) {
  const int Warm = 128, N = 4000;
  std::vector<std::string> Sources;
  for (int I = 0; I < Warm + freshLoopCount(drawRequestKinds(1, N)); ++I)
    Sources.push_back(drawSmallLoopSource(1, I));
  const ServiceStream A =
      buildServiceStream(1, Warm, drawRequestKinds(1, N), Sources);
  const ServiceStream B =
      buildServiceStream(2, Warm, drawRequestKinds(2, N), Sources);
  ASSERT_EQ(A.Loops.size(), B.Loops.size());
  for (size_t I = 0; I < A.Loops.size(); ++I) {
    EXPECT_EQ(A.Loops[I].Source, B.Loops[I].Source);
    EXPECT_EQ(A.Loops[I].Engine, B.Loops[I].Engine);
  }
  bool SameOrder = true;
  for (size_t I = 0; I < A.Timed.size(); ++I)
    SameOrder = SameOrder && A.Timed[I].Line == B.Timed[I].Line;
  EXPECT_FALSE(SameOrder);
}

TEST(Corpus, PaperSuiteSourcesReproduceBuildFullSuite) {
  const std::vector<NamedSource> Sources = paperSuiteSources(300);
  const std::vector<lsms::LoopBody> Suite = lsms::buildFullSuite(300);
  ASSERT_EQ(Sources.size(), Suite.size());
  for (size_t I = 0; I < Sources.size(); ++I) {
    lsms::LoopBody Body;
    ASSERT_EQ(lsms::compileLoop(Sources[I].Source, Sources[I].Name, Body), "");
    EXPECT_EQ(Body.Name, Suite[I].Name);
    EXPECT_TRUE(lsms::canonicalLoopKey(Body) ==
                lsms::canonicalLoopKey(Suite[I]))
        << Sources[I].Name;
  }
}

TEST(Corpus, KnownKernelCodeDefectsAreSuiteLoopsThatStillFail) {
  const lsms::MachineModel Machine = lsms::MachineModel::cydra5();
  std::set<std::string> Seen;
  for (const NamedSource &S : paperSuiteSources()) {
    if (!knownKernelCodeDefects().count(S.Name))
      continue;
    Seen.insert(S.Name);
    LoopArtifacts Art;
    ASSERT_TRUE(runLoopPipeline(S, Machine, 0, &Art).Ok) << S.Name;
    const std::string Err = checkLoop(Art, referenceRun(S, 40), 40);
    EXPECT_EQ(Err.rfind("kernel code: ", 0), 0u) << S.Name << ": " << Err;
  }
  EXPECT_EQ(Seen, knownKernelCodeDefects());
}

TEST(RenamedVariant, KeepsKeywordsNumbersAndComments) {
  const std::string Src = "# comment x\nparam a = 1.5e-3\n"
                          "loop i = 2, n\n  x[i] = sqrt(x[i-1]*a)\nend\n";
  const std::string Out = renameIdentifiers(Src, 0);
  EXPECT_EQ(Out, "# comment x\nparam a_a = 1.5e-3\n"
                 "loop a_i = 2, n\n  a_x[a_i] = sqrt(a_x[a_i-1]*a_a)\nend\n");
  EXPECT_NE(renameIdentifiers(Src, 1), renameIdentifiers(Src, 2));
}

TEST(RenamedVariant, SameCanonicalKeyAsOriginal) {
  int Checked = 0;
  const auto check = [&](const std::string &Src, uint64_t Salt) {
    const std::string Renamed = renameIdentifiers(Src, Salt);
    ASSERT_NE(Renamed, Src);
    lsms::LoopBody A, B;
    ASSERT_EQ(lsms::compileLoop(Src, "a", A), "");
    ASSERT_EQ(lsms::compileLoop(Renamed, "b", B), "") << Renamed;
    EXPECT_TRUE(lsms::canonicalLoopKey(A) == lsms::canonicalLoopKey(B));
    ++Checked;
  };
  for (const lsms::NamedKernel &K : lsms::kernelSources())
    check(K.Source, 12345);
  for (int I = 0; I < 200; ++I)
    check(drawSmallLoopSource(3, I), static_cast<uint64_t>(I));
  EXPECT_GT(Checked, 200);
}
