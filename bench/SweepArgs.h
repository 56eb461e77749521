//===----------------------------------------------------------------------===//
///
/// \file
/// The one flag grammar of the differential sweep tools (exact_gap,
/// cgra_gap, irregular_gap):
///
///   --loops N  --max-ops N  --seed S  --jobs N    every sweep
///   --engine bnb|sat|portfolio  --*-budget=N      sweeps with an exact
///                                                 engine (the budget
///                                                 flags of EngineFlag.h)
///   --grid RxC                                    cgra_gap
///
/// Anything else prints usage to stderr; the tool then exits 1.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_BENCH_SWEEPARGS_H
#define LSMS_BENCH_SWEEPARGS_H

#include "cgra/CgraModel.h"
#include "oracle/Sweep.h"
#include "service/EngineFlag.h"

#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>

namespace lsms {

/// Parses \p Argv into \p Sweep, and into \p Exact / \p Grid when the tool
/// has them (null = the flag is not accepted). On an unknown flag, a
/// missing or malformed value, or --max-ops below SweepMinOps, prints the
/// problem and the usage to stderr and returns false.
inline bool parseSweepArgs(int Argc, char **Argv, const char *Tool,
                           SweepOptions &Sweep, ExactOptions *Exact,
                           CgraModel *Grid = nullptr) {
  bool Ok = true;
  for (int I = 1; I < Argc && Ok; ++I) {
    const std::string Flag = Argv[I];
    if (Exact && applyExactBudgetFlag(Flag, *Exact))
      continue;
    const char *Value = I + 1 < Argc ? Argv[++I] : "";
    char *End = nullptr;
    const unsigned long long N = std::strtoull(Value, &End, 0);
    const bool IsInt = End != Value && *End == '\0' && N <= INT_MAX;
    std::string Err;
    if (Flag == "--seed" && End != Value && *End == '\0')
      Sweep.Seed = N;
    else if (Flag == "--loops" && IsInt)
      Sweep.NumLoops = static_cast<int>(N);
    else if (Flag == "--max-ops" && IsInt && N >= SweepMinOps)
      Sweep.MaxOps = static_cast<int>(N);
    else if (Flag == "--jobs" && IsInt)
      Sweep.Jobs = static_cast<int>(N);
    else if (Flag == "--engine" && Exact) {
      EngineSelection Sel;
      Ok = parseEngineSelection(Value, /*AllowSlack=*/false, Sel, Err);
      Exact->Engine = Sel.Exact;
    } else if (Flag == "--grid" && Grid)
      Ok = CgraModel::parseGridArg(Value, *Grid, Err);
    else
      Ok = false;
    if (!Err.empty())
      std::cerr << Tool << ": " << Err << "\n";
  }
  if (Ok)
    return true;
  std::cerr << "usage: " << Tool
            << " [--loops N] [--max-ops N] [--seed S] [--jobs N]";
  if (Grid)
    std::cerr << " [--grid RxC]";
  if (Exact)
    std::cerr << " [--engine " << engineFlagChoices(/*AllowSlack=*/false)
              << "]\n       [--node-budget=N] [--sat-conflict-budget=N] "
                 "[--maxlive-node-budget=N] [--maxlive-conflict-budget=N]";
  std::cerr << "\n";
  return false;
}

} // namespace lsms

#endif // LSMS_BENCH_SWEEPARGS_H
