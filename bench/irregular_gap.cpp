//===----------------------------------------------------------------------===//
/// \file Conservative vs speculative sweep over irregular loops
/// (while-exits, data-dependent subscripts): both lowerings run through the
/// slack heuristic and an exact engine, the speculative schedule is
/// replayed against a concrete memory trace, and the report aggregates the
/// per-loop II gap, the certified (exact) gap, and assumption-violation
/// rates. Deterministic from a fixed seed, so the output can serve as a
/// regression reference.
///
/// Usage: irregular_gap [--loops N] [--max-ops N] [--seed S] [--jobs N]
///                      [--engine bnb|sat|portfolio] [--*-budget=N]
///
/// Exits nonzero on any validation, parity or trace finding.
//===----------------------------------------------------------------------===//

#include "SweepArgs.h"
#include "oracle/SpecOracle.h"

#include <iostream>

using namespace lsms;

int main(int Argc, char **Argv) {
  IrregularOptions Options;
  if (!parseSweepArgs(Argc, Argv, "irregular_gap", Options, &Options.Exact))
    return 1;

  const IrregularReport Report = runIrregularSweep(Options);
  std::cout << "Conservative vs speculative scheduling on irregular loops ("
            << Report.Cases.size() << " loops, <= " << Options.MaxOps
            << " ops, seed " << Options.Seed;
  // The default engine's header is part of the golden regression surface;
  // only non-default runs announce themselves.
  if (Options.Exact.Engine != ExactEngineKind::Portfolio)
    std::cout << ", engine " << exactEngineName(Options.Exact.Engine);
  std::cout << ")\n\n";
  printIrregularReport(std::cout, Report);
  return printFindings(std::cerr, Report.Cases) == 0 ? 0 : 1;
}
