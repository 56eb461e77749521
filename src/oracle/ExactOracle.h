//===----------------------------------------------------------------------===//
///
/// \file
/// Differential-testing oracle for the slack heuristic: runs the paper's
/// bidirectional slack scheduler and the exact branch-and-bound scheduler
/// side by side on Table 2-calibrated random loops (seeded, deterministic),
/// validates every returned schedule with validateSchedule, and aggregates
/// the II and MaxLive gaps. This separates heuristic slack (heuristic vs
/// exact optimum) from bound slack (exact optimum vs MII / MinAvg), which
/// the schedule-independent bounds alone cannot do.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_ORACLE_EXACTORACLE_H
#define LSMS_ORACLE_EXACTORACLE_H

#include "exact/ExactScheduler.h"
#include "oracle/Sweep.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace lsms {

/// Configuration of one oracle sweep: the slack heuristic against the
/// selected exact engine, which always runs its MaxLive-minimization pass
/// so the pressure gap can be reported next to the II gap. Exact
/// scheduling is tractable well beyond 20 ops, but the default stays small
/// so the sweep runs as a test tier.
struct OracleOptions : SweepOptions {
  ExactOptions Exact;

  OracleOptions() : SweepOptions(/*NumLoops=*/50, /*MaxOps=*/20) {}
};

/// One loop's differential result.
struct OracleCase {
  std::string Name;
  int Ops = 0;              ///< machine operations
  int MII = 0;

  bool HeurSuccess = false;
  int HeurII = 0;
  long HeurMaxLive = -1;
  long HeurEjections = 0;   ///< total ejections across attempts

  ExactStatus Status = ExactStatus::Timeout;
  int ExactII = 0;          ///< valid when Status is Optimal/Feasible
  long ExactMaxLive = -1;
  bool MaxLiveProven = false;
  /// Proof backing ExactMaxLive (None when only best-effort).
  MaxLiveCertificate Certificate = MaxLiveCertificate::None;
  long MinAvg = 0;          ///< the paper's bound at ExactII
  long Nodes = 0;           ///< branch-and-bound nodes consumed

  bool IIGapValid = false;      ///< both schedulers produced a schedule
  int IIGap = 0;                ///< HeurII - ExactII
  bool MaxLiveGapValid = false; ///< additionally, at the same II
  long MaxLiveGap = 0;          ///< HeurMaxLive - ExactMaxLive

  /// Validation: a schedule that validateSchedule rejected.
  std::vector<Finding> Findings;
};

/// Derives the gap fields of \p Case from its scheduler outcomes. The
/// MaxLive gap is only valid when both schedulers succeeded AND landed on
/// the same II (pressure at different IIs is incomparable: a longer II
/// stretches lifetimes over more columns) AND both pressures were
/// computed; the II gap only needs both to have scheduled. Factored out
/// of the sweep so the aggregation rule itself is unit-testable.
void finalizeOracleGaps(OracleCase &Case);

/// Aggregated sweep results.
struct OracleReport {
  OracleOptions Config;
  std::vector<OracleCase> Cases;

  int HeurScheduled = 0;
  int ExactScheduled = 0;
  int ProvenOptimalII = 0;  ///< exact status Optimal
  int HeurAtExactII = 0;    ///< heuristic matched the proven/best exact II
  int HeurAtMII = 0;
  int ExactAtMII = 0;
  int MaxLiveCertified = 0; ///< cases whose ExactMaxLive carries a proof
  int CertMinAvg = 0;       ///< ... via the MinAvg bound (globally minimal)
  int CertFamily = 0;       ///< ... via a family-minimality proof
  int Timeouts = 0;
  int ValidationFailures = 0; ///< cases with a Validation finding
};

/// Runs the sweep. Deterministic: depends only on \p Options.
OracleReport runOracle(const OracleOptions &Options = OracleOptions());

/// Prints the per-loop table, the summary counters, and the II-gap and
/// MaxLive-gap distributions (one row per gap value, negative gaps
/// included). Deterministic (no timings).
void printOracleReport(std::ostream &OS, const OracleReport &Report);

} // namespace lsms

#endif // LSMS_ORACLE_EXACTORACLE_H
