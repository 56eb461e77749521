//===----------------------------------------------------------------------===//
///
/// \file
/// The speculation sweep: lowers every irregular loop both conservatively
/// and speculatively, schedules both lowerings with the slack heuristic
/// and an exact engine, replays the speculative schedule against a
/// concrete memory trace, and aggregates the conservative/speculative II
/// gap together with assumption-violation rates.
///
/// The speculative lowering's arcs are a subset of the conservative ones,
/// so every conservative schedule is also legal for the speculative body.
/// The sweep exploits that: when the heuristic does worse on the
/// speculative body (or fails), the conservative schedule is adopted for
/// it — making "speculative II <= conservative II" a structural guarantee
/// rather than a property of the heuristic.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_ORACLE_SPECORACLE_H
#define LSMS_ORACLE_SPECORACLE_H

#include "exact/ExactEngine.h"
#include "oracle/Sweep.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace lsms {

class LoopBody;

/// Configuration of one speculation sweep: the slack heuristic and the
/// selected exact engine on both lowerings (the speculative one with the
/// default SpecOptions).
struct IrregularOptions : SweepOptions {
  ExactOptions Exact;

  IrregularOptions() : SweepOptions(/*NumLoops=*/40, /*MaxOps=*/48) {
    Exact.Engine = ExactEngineKind::Portfolio;
  }
};

/// One loop's conservative-vs-speculative result.
struct IrregularCase {
  std::string Name;
  int Ops = 0;
  bool IsWhile = false;
  int MayAliasArcs = 0; ///< may-alias arcs in the conservative body
  int DroppedArcs = 0;  ///< arcs the speculative lowering omitted
  int NumAssumptions = 0;

  bool ConsSuccess = false;
  bool SpecSuccess = false;
  int ConsII = 0, SpecII = 0;
  /// The heuristic's speculative schedule was replaced by the conservative
  /// one (which is always legal for the speculative body) because it
  /// failed or landed on a higher II.
  bool AdoptedCons = false;
  bool IIGapValid = false;
  int IIGap = 0; ///< ConsII - SpecII (>= 0 by construction)

  ExactStatus ConsStatus = ExactStatus::Timeout;
  ExactStatus SpecStatus = ExactStatus::Timeout;
  int ConsExactII = 0, SpecExactII = 0;
  /// Both exact runs proved their II minimal: the gap is certified.
  bool CertifiedGapValid = false;
  int CertifiedGap = 0; ///< ConsExactII - SpecExactII

  // Replay of the speculative schedule against the default trace.
  bool Replayed = false;
  int AssumptionsHeld = 0;
  bool AllHeld = false;
  long Violations = 0; ///< summed over assumptions
  long MisspeculatedStores = 0;
  /// The speculative pipelined execution matched the reference trace.
  bool SpecTraceOk = false;
  /// Strict heuristic II gap, every assumption held, and the speculative
  /// pipelined execution matched the reference: a demonstrated win.
  bool SpecWin = false;

  /// Validation: a schedule that validateSchedule rejected. Parity: the
  /// speculative II exceeds the conservative one (the adoption makes that
  /// impossible). Trace: an unexpected execution mismatch.
  std::vector<Finding> Findings;
};

/// Aggregated sweep results.
struct IrregularReport {
  IrregularOptions Config;
  std::vector<IrregularCase> Cases;

  int ConsScheduled = 0;
  int SpecScheduled = 0;
  int Adopted = 0;
  int Comparable = 0;        ///< both lowerings scheduled (valid II gap)
  int SpecAtOrBelowCons = 0; ///< must equal Comparable (structural)
  int StrictGaps = 0;
  int CertifiedStrictGaps = 0;
  int WhileLoops = 0;
  int LoopsWithAssumptions = 0;
  int AllHeldLoops = 0;
  int ViolatedLoops = 0;
  int SpecWins = 0;
  long TotalViolations = 0;
  long TotalMisspeculatedStores = 0;
  int ValidationFailures = 0; ///< cases with a Validation finding
  int TraceFailures = 0;      ///< cases with a Trace finding
};

/// Runs both lowerings of one body through the heuristic + exact engines
/// and the replay harness. Pure: depends only on its arguments.
IrregularCase runIrregularCase(const LoopBody &Body,
                               const IrregularOptions &Options);

/// Runs the sweep over buildIrregularSuite(NumLoops, MaxOps, Seed).
/// Deterministic: depends only on \p Options.
IrregularReport runIrregularSweep(const IrregularOptions &Options = {});

/// Prints the per-loop table and summary counters. Deterministic (no
/// timings), so the output can serve as a golden regression reference.
void printIrregularReport(std::ostream &OS, const IrregularReport &Report);

} // namespace lsms

#endif // LSMS_ORACLE_SPECORACLE_H
