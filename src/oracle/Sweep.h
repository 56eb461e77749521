//===----------------------------------------------------------------------===//
///
/// \file
/// The core the three differential sweeps share (the exact oracle,
/// ExactOracle.h; the CGRA oracle, CgraOracle.h; the irregular-loop
/// oracle, SpecOracle.h): the common sweep options, the one index-ordered
/// fan-out over cases, and the per-case findings that every tool prints
/// through printFindings. The per-domain case logic, counters and report
/// printers stay in the oracle that owns them.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_ORACLE_SWEEP_H
#define LSMS_ORACLE_SWEEP_H

#include "support/ParallelFor.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace lsms {

/// Smallest random loop body, in machine operations, that the exact and
/// CGRA sweeps generate (buildOracleSuite); also the least --max-ops.
inline constexpr int SweepMinOps = 3;

/// The knobs every sweep takes (the shared CLI grammar of bench/SweepArgs.h).
struct SweepOptions {
  uint64_t Seed = 0x19930601;
  int NumLoops;
  int MaxOps; ///< largest generated loop body, in machine operations
  /// Worker threads: positive = that many; 0 defers to LSMS_JOBS, else the
  /// hardware. Reports are byte-identical for every job count.
  int Jobs = 0;

  SweepOptions(int NumLoops, int MaxOps) : NumLoops(NumLoops), MaxOps(MaxOps) {}
};

/// What a case found wrong: an illegal schedule or mapping (Validation),
/// a contradiction between two engines or lowerings (Parity), or an
/// execution that diverged from the reference trace (Trace).
enum class FindingKind { Validation, Parity, Trace };

struct Finding {
  FindingKind Kind;
  std::string Text; ///< one line, without the loop name
};

inline bool hasFinding(const std::vector<Finding> &Findings,
                       FindingKind Kind) {
  return std::any_of(Findings.begin(), Findings.end(),
                     [Kind](const Finding &F) { return F.Kind == Kind; });
}

/// Records the Validation finding "<What> invalid: <Err>" unless \p Err
/// (a validator's output) is empty; returns whether the result was legal.
inline bool checkValid(std::vector<Finding> &Findings, const std::string &What,
                       const std::string &Err) {
  if (!Err.empty())
    Findings.push_back({FindingKind::Validation, What + " invalid: " + Err});
  return Err.empty();
}

/// Runs \p RunCase on every item with the static index-ordered sharding of
/// parallelFor. Each result lands in its item's slot, so the returned
/// vector is in item order and byte-identical for every job count.
template <typename Item, typename Fn>
auto runSweep(const std::vector<Item> &Items, int Jobs, Fn &&RunCase) {
  std::vector<std::invoke_result_t<Fn &, const Item &>> Cases(Items.size());
  parallelFor(resolveJobs(Jobs), static_cast<int>(Items.size()), [&](int I) {
    Cases[static_cast<size_t>(I)] = RunCase(Items[static_cast<size_t>(I)]);
  });
  return Cases;
}

/// Prints one "<loop>: <text>" line per finding of every case (each case
/// has a Name and a Findings list) and returns the number printed.
template <typename Case>
int printFindings(std::ostream &OS, const std::vector<Case> &Cases) {
  int Printed = 0;
  for (const Case &C : Cases)
    for (const Finding &F : C.Findings) {
      OS << C.Name << ": " << F.Text << "\n";
      ++Printed;
    }
  return Printed;
}

} // namespace lsms

#endif // LSMS_ORACLE_SWEEP_H
