//===----------------------------------------------------------------------===//
/// \file Differential sweep of the slack heuristic against an exact modulo
/// scheduler: II-gap and MaxLive-gap tables and histograms on Table
/// 2-calibrated random loops. Deterministic from a fixed seed, so the
/// output can serve as a regression reference.
///
/// Usage: exact_gap [--loops N] [--max-ops N] [--seed S] [--jobs N]
///                  [--engine bnb|sat|portfolio] [--*-budget=N]
///
/// --engine selects the exact decision procedure: bnb (branch-and-bound,
/// the default), sat (the CDCL encoding), or portfolio (the staged bnb/sat
/// combination). The sweep fans out across worker threads (--jobs, or
/// LSMS_JOBS, or the hardware by default) with results merged in loop
/// order, so the report is byte-identical at every job count. Exits
/// nonzero when any schedule fails validation.
//===----------------------------------------------------------------------===//

#include "SweepArgs.h"
#include "oracle/ExactOracle.h"

#include <iostream>

using namespace lsms;

int main(int Argc, char **Argv) {
  OracleOptions Options;
  if (!parseSweepArgs(Argc, Argv, "exact_gap", Options, &Options.Exact))
    return 1;

  const OracleReport Report = runOracle(Options);
  std::cout << "Slack heuristic vs exact modulo scheduler ("
            << Report.Cases.size() << " random loops, <= "
            << Options.MaxOps << " ops, seed " << Options.Seed;
  // The default engine's header is part of the golden regression surface;
  // only non-default runs announce themselves.
  if (Options.Exact.Engine != ExactEngineKind::BranchAndBound)
    std::cout << ", engine " << exactEngineName(Options.Exact.Engine);
  std::cout << ")\n\n";
  printOracleReport(std::cout, Report);
  return printFindings(std::cerr, Report.Cases) == 0 ? 0 : 1;
}
