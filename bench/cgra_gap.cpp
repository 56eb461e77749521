//===----------------------------------------------------------------------===//
/// \file Differential sweep of the placement-aware slack mapper against the
/// exact SAT spatial mapper on a CGRA grid: per-loop II table, certified
/// optimal counts, and the spatial-vs-flat MII gap on the kernel suite plus
/// seeded random loops. Deterministic from a fixed seed.
///
/// Usage: cgra_gap [--loops N] [--max-ops N] [--seed S] [--jobs N]
///                 [--grid RxC]
///
/// --loops 0 maps the kernel suite alone. Exits nonzero when any mapping
/// fails validation or the two mappers contradict each other (heuristic II
/// below a proven-optimal II, or a heuristic mapping for a loop SAT proved
/// unmappable).
//===----------------------------------------------------------------------===//

#include "SweepArgs.h"
#include "oracle/CgraOracle.h"

#include <iostream>

using namespace lsms;

int main(int Argc, char **Argv) {
  CgraOracleOptions Options;
  if (!parseSweepArgs(Argc, Argv, "cgra_gap", Options, /*Exact=*/nullptr,
                      &Options.Cgra))
    return 1;

  const CgraOracleReport Report = runCgraOracle(Options);
  std::cout << "Placement-aware slack mapper vs exact SAT spatial mapper ("
            << Report.Cases.size() << " loops, grid "
            << Options.Cgra.rows() << "x" << Options.Cgra.cols() << ", seed "
            << Options.Seed << ")\n\n";
  printCgraOracleReport(std::cout, Report);
  return printFindings(std::cerr, Report.Cases) == 0 ? 0 : 1;
}
