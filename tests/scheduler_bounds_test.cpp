//===----------------------------------------------------------------------===//
/// \file Tests for the slack scheduler's incremental Estart/Lstart upkeep
/// (core/IncrementalBounds.h): a property test against the O(placed)
/// recompute of Section 4.1 under seeded random place/eject sequences, and
/// a backtracking-heavy 901-operation loop that the upkeep must schedule
/// quickly.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "core/IncrementalBounds.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "graph/MinDist.h"
#include "support/Rng.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

/// The full recompute: Estart/Lstart of one unplaced operation from every
/// placed one (Times[y] >= 0), exactly as Section 4.1 defines them.
struct BruteForceBounds {
  const MinDistMatrix &MinDist;
  int Stop;
  const std::vector<long> &Times;

  long estart(int X) const {
    long E = 0;
    for (int Y = 0; Y < MinDist.numOps(); ++Y)
      if (Times[static_cast<size_t>(Y)] >= 0 && MinDist.connected(Y, X))
        E = std::max(E, Times[static_cast<size_t>(Y)] + MinDist.at(Y, X));
    return E;
  }

  long lstart(int X, long LstartStop) const {
    long L = IncrementalBounds::Unbounded;
    if (X == Stop)
      L = LstartStop;
    else if (Times[static_cast<size_t>(Stop)] < 0 &&
             MinDist.connected(X, Stop))
      L = LstartStop - MinDist.at(X, Stop);
    for (int Y = 0; Y < MinDist.numOps(); ++Y)
      if (Times[static_cast<size_t>(Y)] >= 0 && MinDist.connected(X, Y))
        L = std::min(L, Times[static_cast<size_t>(Y)] - MinDist.at(X, Y));
    return L;
  }
};

/// Drives a seeded random place/eject sequence over \p Body's MinDist at
/// MII and returns a description of the first step where a published or
/// queried bound differs from the full recompute ("" when none does).
std::string checkRandomSequence(const LoopBody &Body, uint64_t Seed) {
  const DepGraph Graph(Body, machine());
  const int II = computeMII(Graph).MII;
  MinDistMatrix MinDist;
  if (!MinDist.compute(Graph, II))
    return "MinDist rejected II = MII";

  const int N = Body.numOps();
  const int Start = Body.startOp(), Stop = Body.stopOp();
  std::vector<long> Times(static_cast<size_t>(N), -1);
  const BruteForceBounds Ref{MinDist, Stop, Times};
  IncrementalBounds Bounds(MinDist, Stop);
  Times[static_cast<size_t>(Start)] = 0;
  Bounds.place(Start, 0);

  // Placement cycles cover the critical path plus a few stages, so bounds
  // are raised, lowered and contradicted (Estart > Lstart) alike.
  const long Horizon =
      std::max(0L, MinDist.at(Start, Stop)) + 3L * II + 1;
  long LstartStop = std::max(0L, MinDist.at(Start, Stop));
  std::vector<long> Estart(static_cast<size_t>(N), -1);
  std::vector<long> Lstart(static_cast<size_t>(N), -1);
  std::vector<int> Placed, Unplaced;
  for (int X = 0; X < N; ++X)
    if (X != Start)
      Unplaced.push_back(X);

  Rng R(Seed);
  auto TakeRandom = [&R](std::vector<int> &From) {
    const size_t I = R.nextBelow(From.size());
    const int X = From[I];
    From[I] = From.back();
    From.pop_back();
    return X;
  };

  const int Steps = 4 * N;
  for (int Step = 0; Step < Steps; ++Step) {
    // One to three mutations between refreshes, as forced placement
    // ejects several operations before placing one.
    const int Mutations = 1 + static_cast<int>(R.nextBelow(3));
    for (int M = 0; M < Mutations; ++M) {
      if (!Placed.empty() && (Unplaced.empty() || R.nextBelow(3) == 0)) {
        const int Y = TakeRandom(Placed);
        Bounds.eject(Y);
        Times[static_cast<size_t>(Y)] = -1;
        Unplaced.push_back(Y);
      } else if (!Unplaced.empty()) {
        const int Y = TakeRandom(Unplaced);
        const long T = R.nextInRange(0, Horizon);
        Bounds.place(Y, T);
        Times[static_cast<size_t>(Y)] = T;
        Placed.push_back(Y);
      }
    }

    Bounds.settle();
    std::ostringstream Where;
    Where << Body.Name << " seed " << Seed << " step " << Step << ": ";
    const long EstartStop = Bounds.estartStop();
    if (EstartStop != Ref.estart(Stop))
      return Where.str() + "Estart(Stop) " + std::to_string(EstartStop) +
             " != " + std::to_string(Ref.estart(Stop));
    if (EstartStop > LstartStop)
      LstartStop = EstartStop + static_cast<long>(R.nextBelow(
                                    static_cast<uint64_t>(II)));

    const std::vector<long> PrevEstart = Estart, PrevLstart = Lstart;
    Bounds.publish(LstartStop, Estart, Lstart);
    for (int X = 0; X < N; ++X) {
      const size_t I = static_cast<size_t>(X);
      if (Times[I] >= 0) {
        if (Estart[I] != PrevEstart[I] || Lstart[I] != PrevLstart[I])
          return Where.str() + "bounds of placed op " + std::to_string(X) +
                 " were republished";
        continue;
      }
      if (Estart[I] != Ref.estart(X))
        return Where.str() + "Estart(" + std::to_string(X) + ") " +
               std::to_string(Estart[I]) + " != " +
               std::to_string(Ref.estart(X));
      if (Lstart[I] != Ref.lstart(X, LstartStop))
        return Where.str() + "Lstart(" + std::to_string(X) + ") " +
               std::to_string(Lstart[I]) + " != " +
               std::to_string(Ref.lstart(X, LstartStop));
    }
  }
  return "";
}

} // namespace

TEST(IncrementalBounds, MatchesFullRecomputeOnKernels) {
  uint64_t Seed = 1;
  for (const LoopBody &Body : buildKernelSuite())
    EXPECT_EQ(checkRandomSequence(Body, Seed++), "");
}

TEST(IncrementalBounds, MatchesFullRecomputeOnRandomLoops) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    EXPECT_EQ(checkRandomSequence(generateRandomLoop(Seed), Seed), "");
}

// One long single-recurrence chain: a{k} feeds a{k+1}, and a60 feeds a1 of
// the next iteration. 901 operations, MII 240 (Res 180, Rec 240); the
// slack scheduler backtracks heavily and settles at II 249. With a full
// bounds recompute after every step this took close to a minute.
TEST(IncrementalBounds, BacktrackingHeavyChainSchedulesQuickly) {
  std::ostringstream Src;
  Src << "param c = 0.5\nloop i = 2, n\n";
  for (int K = 1; K <= 60; ++K) {
    const std::string P =
        K == 1 ? "a60[i-1]" : "a" + std::to_string(K - 1) + "[i]";
    const std::string S = std::to_string(K);
    Src << "  a" << S << "[i] = " << P << "*c + b" << S << "[i]*e" << S
        << "[i] - f" << S << "[i]*g" << S << "[i]\n";
  }
  Src << "end\n";
  ASSERT_EQ(Src.str().size(), 3100u);

  LoopBody Body;
  ASSERT_EQ(compileLoop(Src.str(), "chain60", Body), "");
  ASSERT_EQ(Body.numMachineOps(), 901);
  const DepGraph Graph(Body, machine());
  const Schedule Sched = scheduleLoop(Graph, SchedulerOptions::slack());
  ASSERT_TRUE(Sched.Success);
  EXPECT_EQ(Sched.ResMII, 180);
  EXPECT_EQ(Sched.RecMII, 240);
  EXPECT_EQ(Sched.II, 249);
  EXPECT_GT(Sched.Stats.Ejections, 0);
  EXPECT_EQ(validateSchedule(Graph, Sched), "");
}
