#include "Pipeline.h"

#include "Trace.h"

#include "bounds/Bounds.h"
#include "codegen/KernelCodeGen.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "graph/MinDist.h"
#include "ir/DepGraph.h"
#include "regalloc/RotatingAllocator.h"
#include "support/Rng.h"
#include "vliwsim/MachineSim.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <optional>

using namespace lsms;
using namespace perfbench;

std::vector<NamedSource> perfbench::paperSuiteSources(int Total) {
  constexpr uint64_t Seed = 19930601;
  std::vector<NamedSource> Out;
  for (const NamedKernel &K : kernelSources())
    Out.push_back({K.Name, K.Source});
  Rng R(Seed);
  int Next = 0;
  while (static_cast<int>(Out.size()) < Total) {
    const RandomLoopConfig Config = drawTable2Config(R);
    const uint64_t LoopSeed = Seed + 1000003ULL * static_cast<uint64_t>(++Next);
    Rng G(LoopSeed);
    Out.push_back({"rand" + std::to_string(LoopSeed),
                   generateRandomLoopSource(G, Config)});
  }
  return Out;
}

std::vector<NamedSource> perfbench::largeLoopSources() {
  constexpr uint64_t Seed = 19930601;
  constexpr int Count = 11;
  std::vector<NamedSource> Out;
  Rng R(Seed ^ 0x6c61726765ULL); // "large"
  for (int I = 0; I < Count; ++I) {
    RandomLoopConfig Config = drawTable2Config(R);
    // Stratified: loop I draws from the I-th of Count equal slices of the
    // range, so every seed covers the whole size range once.
    const int Lo = 500 + 400 * I / Count, Hi = 500 + 400 * (I + 1) / Count;
    Config.TargetOps = static_cast<int>(R.nextInRange(Lo, Hi));
    const uint64_t LoopSeed = R.next();
    Rng G(LoopSeed);
    Out.push_back({"large" + std::to_string(I),
                   generateRandomLoopSource(G, Config)});
  }
  return Out;
}

const std::set<std::string> &perfbench::knownKernelCodeDefects() {
  static const std::set<std::string> Names = {
      "rand582932290",  "rand591932317",  "rand867933145",
      "rand920933304",  "rand967933445",  "rand1101933847",
      "rand1302934450", "rand1459934921",
  };
  return Names;
}

LoopResult perfbench::runLoopPipeline(const NamedSource &Source,
                                      const MachineModel &Machine,
                                      int64_t Request, LoopArtifacts *Keep) {
  ScopedSpan Root("loop", Request);
  LoopResult R;
  LoopBody Body;
  std::string Err;
  {
    ScopedSpan S("frontend.compile");
    Err = compileLoop(Source.Source, Source.Name, Body);
  }
  if (!Err.empty()) {
    R.Error = "compile: " + Err;
    return R;
  }
  R.Ops = Body.numMachineOps();
  std::optional<DepGraph> Graph;
  {
    ScopedSpan S("ir.depgraph");
    Graph.emplace(Body, Machine);
  }
  R.Arcs = static_cast<long>(Graph->arcs().size());
  MIIBounds Bounds;
  {
    ScopedSpan S("bounds.mii");
    Bounds = computeMII(*Graph);
  }
  bool MinDistOk = false;
  {
    ScopedSpan S("graph.mindist");
    MinDistMatrix MinDist;
    MinDistOk = MinDist.compute(*Graph, Bounds.MII);
  }
  if (!MinDistOk) {
    R.Error = "mindist: positive cycle at MII";
    return R;
  }
  Schedule Sched;
  {
    ScopedSpan S("core.schedule");
    Sched = scheduleLoop(*Graph, SchedulerOptions::slack());
  }
  R.Stats = Sched.Stats;
  R.II = Sched.II;
  R.MII = Sched.MII;
  if (!Sched.Success) {
    R.Error = "schedule: no schedule within the II cap";
    return R;
  }
  if (Sched.MII != Bounds.MII) {
    R.Error = "schedule: MII differs from computeMII";
    return R;
  }
  {
    ScopedSpan S("core.validate");
    Err = validateSchedule(*Graph, Sched);
  }
  if (!Err.empty()) {
    R.Error = "validate: " + Err;
    return R;
  }
  AllocationResult Alloc;
  {
    ScopedSpan S("regalloc.allocate");
    Alloc = allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR);
  }
  if (!Alloc.Success) {
    R.Error = "regalloc: allocation failed";
    return R;
  }
  R.MaxLive = Alloc.MaxLive;
  R.Regs = Alloc.FileSize;
  KernelCode Code;
  {
    ScopedSpan S("codegen.kernel");
    Err = generateKernelCode(Body, Sched, Code);
  }
  if (!Err.empty()) {
    R.Error = "codegen: " + Err;
    return R;
  }
  R.Ok = true;
  if (Keep) {
    Graph.reset(); // refers to Body, which moves next
    Keep->Body = std::move(Body);
    Keep->Sched = std::move(Sched);
    Keep->Code = std::move(Code);
    Keep->Alloc = std::move(Alloc);
  }
  return R;
}

ExecutionResult perfbench::referenceRun(const NamedSource &Source,
                                        long Iterations) {
  LoopBody Body;
  ExecutionResult Ref;
  Ref.Error = compileLoop(Source.Source, Source.Name, Body);
  return Ref.Error.empty() ? runReference(Body, Iterations) : Ref;
}

std::string perfbench::checkLoop(const LoopArtifacts &A,
                                 const ExecutionResult &Ref,
                                 long Iterations) {
  if (std::string E = validateAllocation(A.Body, A.Sched.Times, A.Sched.II,
                                         RegClass::RR, A.Alloc);
      !E.empty())
    return "allocation: " + E;
  if (!Ref.Error.empty())
    return "reference: " + Ref.Error;
  const ExecutionResult Pipe = runPipelined(A.Body, A.Sched, Iterations);
  if (std::string D = compareExecutions(Ref, Pipe); !D.empty())
    return "pipelined schedule: " + D;
  const ExecutionResult Mach = runKernelCode(A.Body, A.Code, Iterations);
  // Kernel code keeps only the live-outs it materializes; compare those.
  ExecutionResult Aligned = Ref;
  for (auto It = Aligned.LiveOuts.begin(); It != Aligned.LiveOuts.end();)
    It = Mach.LiveOuts.count(It->first) ? std::next(It)
                                        : Aligned.LiveOuts.erase(It);
  if (std::string D = compareExecutions(Aligned, Mach); !D.empty())
    return "kernel code: " + D;
  return "";
}
