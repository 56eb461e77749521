//===----------------------------------------------------------------------===//
/// \file Tests for the work-sharding primitive and the determinism policy
/// it exists to uphold (DESIGN.md "Parallelism & determinism"): every sweep
/// that fans out across workers must produce byte-identical reports at any
/// job count, because results live in per-index slots and are aggregated in
/// input order. Also covers the sweep core the three differential oracles
/// share (oracle/Sweep.h): runSweep, printFindings and hasFinding.
//===----------------------------------------------------------------------===//

#include "oracle/ExactOracle.h"
#include "oracle/Sweep.h"
#include "support/ParallelFor.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace lsms {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int Jobs : {1, 2, 3, 8}) {
    for (const int N : {0, 1, 2, 7, 64}) {
      std::vector<std::atomic<int>> Hits(static_cast<size_t>(N));
      parallelFor(Jobs, N, [&](int I) {
        ++Hits[static_cast<size_t>(I)];
      });
      for (int I = 0; I < N; ++I)
        EXPECT_EQ(Hits[static_cast<size_t>(I)].load(), 1)
            << "Jobs=" << Jobs << " N=" << N << " I=" << I;
    }
  }
}

TEST(ParallelForTest, SequentialPathRunsInOrder) {
  // Jobs <= 1 must run inline in index order (callers rely on this for the
  // exact sequential code path).
  std::vector<int> Order;
  parallelFor(1, 5, [&](int I) { Order.push_back(I); });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
  Order.clear();
  parallelFor(0, 3, [&](int I) { Order.push_back(I); });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2}));
}

TEST(ParallelForTest, JobsClampedToWorkAvailable) {
  // More workers than items must still cover everything exactly once.
  std::vector<std::atomic<int>> Hits(3);
  parallelFor(16, 3, [&](int I) { ++Hits[static_cast<size_t>(I)]; });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1);
}

TEST(ParallelForTest, ResolveJobsPrecedence) {
  // An explicit request wins; otherwise LSMS_JOBS; otherwise hardware.
  EXPECT_EQ(resolveJobs(3), 3);
  ASSERT_EQ(setenv("LSMS_JOBS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(resolveJobs(0), 5);
  EXPECT_EQ(resolveJobs(2), 2);
  ASSERT_EQ(unsetenv("LSMS_JOBS"), 0);
  EXPECT_EQ(resolveJobs(0), hardwareJobs());
  EXPECT_GE(hardwareJobs(), 1);
}

TEST(ParallelDeterminismTest, OracleSuiteIdenticalAcrossJobCounts) {
  const std::vector<LoopBody> Seq =
      buildOracleSuite(/*Count=*/24, /*MinOps=*/3, /*MaxOps=*/16,
                       /*Seed=*/0xBEEF, /*Jobs=*/1);
  for (const int Jobs : {2, hardwareJobs()}) {
    const std::vector<LoopBody> Par =
        buildOracleSuite(24, 3, 16, 0xBEEF, Jobs);
    ASSERT_EQ(Par.size(), Seq.size()) << "Jobs=" << Jobs;
    for (size_t I = 0; I < Seq.size(); ++I) {
      EXPECT_EQ(Par[I].Name, Seq[I].Name) << "Jobs=" << Jobs;
      EXPECT_EQ(Par[I].numMachineOps(), Seq[I].numMachineOps())
          << "Jobs=" << Jobs << " loop " << I;
    }
  }
}

TEST(ParallelDeterminismTest, OracleReportByteIdenticalAcrossJobCounts) {
  OracleOptions Options;
  Options.NumLoops = 12;
  Options.Seed = 0x5EED;

  auto Render = [&Options](int Jobs) {
    Options.Jobs = Jobs;
    const OracleReport Report = runOracle(Options);
    std::ostringstream OS;
    printOracleReport(OS, Report);
    return OS.str();
  };

  const std::string Seq = Render(1);
  EXPECT_FALSE(Seq.empty());
  EXPECT_EQ(Render(2), Seq);
  EXPECT_EQ(Render(hardwareJobs()), Seq);
}

TEST(SweepCore, RunSweepKeepsLoopOrderAtEveryJobCount) {
  std::vector<int> Items(40);
  std::iota(Items.begin(), Items.end(), 0);
  for (const int Jobs : {1, 3, 16}) {
    const std::vector<std::string> Cases =
        runSweep(Items, Jobs, [](const int &I) {
          // Early items sleep longest, so under threads completion order
          // runs against item order.
          std::this_thread::sleep_for(std::chrono::microseconds(40 - I));
          return "loop" + std::to_string(I) + "/" + std::to_string(I * I);
        });
    ASSERT_EQ(Cases.size(), Items.size()) << "jobs=" << Jobs;
    for (int I = 0; I < 40; ++I)
      EXPECT_EQ(Cases[static_cast<size_t>(I)],
                "loop" + std::to_string(I) + "/" + std::to_string(I * I))
          << "jobs=" << Jobs;
  }
}

struct FakeCase {
  std::string Name;
  std::vector<Finding> Findings;
};

TEST(SweepCore, PrintFindingsPrintsOneLinePerFinding) {
  const std::vector<FakeCase> Cases = {
      {"a",
       {{FindingKind::Validation, "heuristic schedule invalid: x"},
        {FindingKind::Trace, "diverged"}}},
      {"b", {}},
      {"c", {{FindingKind::Parity, "parity: y"}}}};
  std::ostringstream OS;
  EXPECT_EQ(printFindings(OS, Cases), 3);
  EXPECT_EQ(OS.str(),
            "a: heuristic schedule invalid: x\na: diverged\nc: parity: y\n");

  std::ostringstream Clean;
  EXPECT_EQ(printFindings(Clean, std::vector<FakeCase>{{"b", {}}}), 0);
  EXPECT_EQ(Clean.str(), "");
}

TEST(SweepCore, HasFindingTellsKindsApart) {
  std::vector<Finding> Findings;
  EXPECT_TRUE(checkValid(Findings, "heuristic schedule", ""));
  EXPECT_TRUE(Findings.empty()) << "a legal result records nothing";
  EXPECT_FALSE(hasFinding(Findings, FindingKind::Validation));

  Findings.push_back({FindingKind::Parity, "p"});
  EXPECT_TRUE(hasFinding(Findings, FindingKind::Parity));
  EXPECT_FALSE(hasFinding(Findings, FindingKind::Validation));
  EXPECT_FALSE(hasFinding(Findings, FindingKind::Trace));

  EXPECT_FALSE(checkValid(Findings, "exact mapping", "slot clash"));
  EXPECT_TRUE(hasFinding(Findings, FindingKind::Validation));
  EXPECT_EQ(Findings.back().Text, "exact mapping invalid: slot clash");
  EXPECT_FALSE(hasFinding(Findings, FindingKind::Trace));
  Findings.push_back({FindingKind::Trace, "t"});
  EXPECT_TRUE(hasFinding(Findings, FindingKind::Trace));
}

} // namespace
} // namespace lsms
