// paper_suite and large_loops: DSL source to kernel code, one loop after
// another on one thread (closed loop).

#include "Pipeline.h"
#include "Workloads.h"

#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

using namespace lsms;
using namespace perfbench;

namespace {

/// Iterations each loop executes in the checks.
constexpr long SimIterations = 40;
/// Threads for the reference executions and the checks.
constexpr int CheckJobs = 4;

struct CompileWorkload {
  const char *Name;
  std::vector<NamedSource> (*Sources)();
};

RunResult runCompile(const RunOptions &Opts, const CompileWorkload &W) {
  RunResult R;
  const MachineModel Machine = MachineModel::cydra5();
  Trace T;
  std::vector<NamedSource> Sources;
  std::vector<int> Order;
  std::vector<ExecutionResult> Expected;
  // Set-up: generate the sources, and the sequential executions that the
  // checks compare the loops' kernel code and schedules against.
  const double SetupS = timeSetup(Opts, T, [&] {
    Sources = W.Sources();
    const int N = static_cast<int>(Sources.size());
    Expected.assign(static_cast<size_t>(N), ExecutionResult());
    parallelForDynamic(CheckJobs, N, [&](int I) {
      const size_t U = static_cast<size_t>(I);
      Expected[U] = referenceRun(Sources[U], SimIterations);
    });
    // The seed fixes the order the loops are compiled in.
    Rng Rand(Opts.Seed);
    Order.resize(static_cast<size_t>(N));
    std::iota(Order.begin(), Order.end(), 0);
    for (int I = N - 1; I > 0; --I)
      std::swap(Order[static_cast<size_t>(I)],
                Order[Rand.nextBelow(static_cast<uint64_t>(I) + 1)]);
  });

  const int N = static_cast<int>(Sources.size());
  std::vector<LoopResult> First(static_cast<size_t>(N));
  std::vector<std::vector<double>> LatUs; // per pass
  std::vector<char> Bad(static_cast<size_t>(N), 0);
  const auto fail = [&](size_t U, const std::string &Why) {
    Bad[U] = 1;
    R.fail(Sources[U].Name + ": " + Why);
  };
  int Passes = 0;
  const double BaseRss = resetPeakRss();
  if (Opts.Traced)
    setActiveTrace(&T);
  const int64_t Start = nowNs();
  const int64_t Deadline = Start + static_cast<int64_t>(Opts.Seconds * 1e9);
  // Whole passes only, so every run weighs each loop equally: at least
  // one, and more while the measuring time has not run out.
  do {
    LatUs.emplace_back();
    for (const int I : Order) {
      const size_t U = static_cast<size_t>(I);
      const int64_t A = nowNs();
      LoopResult LR = runLoopPipeline(Sources[U], Machine, I);
      LatUs.back().push_back(static_cast<double>(nowNs() - A) * 1e-3);
      ++R.Attempted;
      if (!LR.Ok)
        fail(U, LR.Error);
      else if (Passes > 0 &&
               (LR.II != First[U].II || LR.MaxLive != First[U].MaxLive))
        fail(U, "result differs between passes");
      if (Passes == 0)
        First[U] = std::move(LR);
    }
    ++Passes;
  } while (nowNs() < Deadline);
  const int64_t TimedNs = nowNs() - Start;
  setActiveTrace(nullptr);
  const double PeakRss = peakRssMb(); // before the checks allocate
  R.Info.push_back(rssInfo(BaseRss, PeakRss));

  // Checks outside the timed region, on every loop: the pipeline runs
  // once more and keeps its output, which must match the timed passes'
  // and pass checkLoop against sequential execution. Keeping the outputs
  // of the timed passes instead would put them in peak_rss_mb.
  std::vector<std::string> CheckErr(static_cast<size_t>(N));
  parallelForDynamic(CheckJobs, N, [&](int I) {
    const size_t U = static_cast<size_t>(I);
    if (!First[U].Ok)
      return;
    LoopArtifacts Art;
    const LoopResult LR = runLoopPipeline(Sources[U], Machine, I, &Art);
    if (!LR.Ok || LR.II != First[U].II || LR.MaxLive != First[U].MaxLive)
      CheckErr[U] = "result differs between runs";
    else
      CheckErr[U] = checkLoop(Art, Expected[U], SimIterations);
  });
  int KnownDefects = 0;
  for (size_t U = 0; U < CheckErr.size(); ++U) {
    const bool Listed = knownKernelCodeDefects().count(Sources[U].Name) > 0;
    if (Listed && CheckErr[U].starts_with("kernel code: ")) {
      Bad[U] = 1;
      ++KnownDefects;
      std::fprintf(stderr, "known defect: %s: %s\n", Sources[U].Name.c_str(),
                   CheckErr[U].c_str());
    } else if (!CheckErr[U].empty()) {
      fail(U, CheckErr[U]);
    } else if (Listed && First[U].Ok) {
      R.Info.push_back("known defect no longer seen: " + Sources[U].Name +
                       "'s kernel code matches sequential execution");
    }
  }
  if (KnownDefects > 0)
    R.Info.push_back(
        "known defect: " + std::to_string(KnownDefects) +
        " loop(s) get kernel code that differs from sequential execution "
        "(listed in knownKernelCodeDefects; counted in success_rate, not in "
        "failed)");

  long IITotal = 0, MaxLiveTotal = 0, Ops = 0, Arcs = 0, Regs = 0;
  ScheduleStats Stats;
  for (const LoopResult &L : First) {
    IITotal += L.II;
    MaxLiveTotal += L.MaxLive;
    Ops += L.Ops;
    Arcs += L.Arcs;
    Regs += L.Regs;
    Stats.accumulate(L.Stats);
  }
  R.Info.push_back(std::string(W.Name) + ": " + std::to_string(N) +
                   " loops, " + std::to_string(Passes) + " pass(es)");

  if (!Opts.Traced) {
    R.set("setup_s", SetupS, "s");
    R.set("throughput_per_s",
          static_cast<double>(Passes) * N /
              (static_cast<double>(TimedNs) * 1e-9),
          "1/s");
    reportLatency(R, LatUs);
    R.set("ii_total", static_cast<double>(IITotal), "count");
    R.set("maxlive_total", static_cast<double>(MaxLiveTotal), "count");
    // The share of loops with every output correct, whatever the pass
    // count.
    R.set("success_rate",
          1.0 - static_cast<double>(std::count(Bad.begin(), Bad.end(), 1)) /
                    N,
          "frac");
    R.set("peak_rss_mb", PeakRss, "MB");
    return R;
  }
  const auto Totals = summarize(T);
  const double P = Passes;
  const auto busy = [&](const char *Span) {
    return busySeconds(Totals, Span, P);
  };
  R.set("frontend.busy_s", busy("frontend.compile"), "s");
  R.set("frontend.us_per_loop", busy("frontend.compile") * 1e6 / N, "us");
  R.set("ir.depgraph_busy_s", busy("ir.depgraph"), "s");
  R.set("ir.arcs_per_loop", static_cast<double>(Arcs) / N, "count");
  R.set("bounds.mii_busy_s", busy("bounds.mii"), "s");
  R.set("graph.mindist_busy_s", busy("graph.mindist"), "s");
  R.set("core.schedule_busy_s", busy("core.schedule"), "s");
  R.set("core.us_per_op",
        busy("core.schedule") * 1e6 / static_cast<double>(std::max(Ops, 1L)),
        "us");
  R.set("core.validate_busy_s", busy("core.validate"), "s");
  R.set("core.attempts", static_cast<double>(Stats.AttemptsTried), "count");
  R.set("core.placements", static_cast<double>(Stats.Placements), "count");
  R.set("core.ejections", static_cast<double>(Stats.Ejections), "count");
  R.set("core.ii_restarts", static_cast<double>(Stats.IIRestarts), "count");
  R.set("core.placement_yield",
        static_cast<double>(Ops) /
            static_cast<double>(std::max(Stats.Placements, 1L)),
        "frac");
  R.set("regalloc.busy_s", busy("regalloc.allocate"), "s");
  R.set("regalloc.regs_over_maxlive",
        static_cast<double>(Regs) /
            static_cast<double>(std::max(MaxLiveTotal, 1L)),
        "frac");
  R.set("codegen.busy_s", busy("codegen.kernel"), "s");
  R.set("trace.overhead_frac", traceOverheadFrac(T.spanCount(), TimedNs),
        "frac");
  const std::string SpansPath = Opts.WorkDir + "/spans-" + W.Name + ".tsv";
  if (!writeSpans(T, SpansPath))
    R.Info.push_back("could not write spans to " + SpansPath);
  return R;
}

} // namespace

RunResult perfbench::runPaperSuite(const RunOptions &Opts) {
  return runCompile(Opts, {"paper_suite", [] { return paperSuiteSources(); }});
}

RunResult perfbench::runLargeLoops(const RunOptions &Opts) {
  return runCompile(Opts, {"large_loops", largeLoopSources});
}
