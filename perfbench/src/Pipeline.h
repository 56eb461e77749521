//===----------------------------------------------------------------------===//
///
/// \file
/// The compile path a user of the library runs on one loop, DSL source to
/// kernel code, with a span around each call into a library module:
/// compileLoop -> DepGraph -> computeMII -> MinDistMatrix::compute ->
/// scheduleLoop -> validateSchedule -> allocateRotating ->
/// validateAllocation -> generateKernelCode. Also the loop sources of the
/// two suite workloads and the simulation check on finished loops.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "codegen/KernelCode.h"
#include "core/Schedule.h"
#include "ir/LoopBody.h"
#include "machine/MachineModel.h"
#include "regalloc/RotatingAllocator.h"
#include "vliwsim/Execution.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct NamedSource {
  std::string Name;
  std::string Source;
};

/// The paper-suite sources: the hand-written kernels, then Table-2
/// generator loops up to \p Total, drawn exactly as lsms::buildFullSuite
/// draws them with its default seed.
std::vector<NamedSource> paperSuiteSources(int Total = 1525);

/// The large-loop corpus: eleven Table-2 generator loops, the I-th with
/// TargetOps drawn from the I-th of eleven equal slices of [500, 900].
/// Eleven, so the median loop latency is one loop's.
std::vector<NamedSource> largeLoopSources();

/// What one loop produced. Ok is false on any compile, schedule,
/// validation, allocation or code-generation failure (Error says which).
struct LoopResult {
  bool Ok = false;
  std::string Error;
  int Ops = 0;   ///< machine operations
  long Arcs = 0; ///< dependence arcs
  int II = 0;
  int MII = 0;
  long MaxLive = 0; ///< RR MaxLive of the schedule
  int Regs = 0;     ///< rotating RR file size the allocator used
  lsms::ScheduleStats Stats;
};

/// Everything checkLoop needs from a finished loop.
struct LoopArtifacts {
  lsms::LoopBody Body;
  lsms::Schedule Sched;
  lsms::KernelCode Code;
  lsms::AllocationResult Alloc;
};

/// paper_suite loops whose generated kernel code is known to differ from
/// sequential execution while their overlapped schedule matches it. In the
/// smallest, x[i] = x[i-2] * p1 + p1, the seed of the recurrence and the
/// seed of the address recurrence get the same rotating register (their
/// lifetimes in the steady state do not overlap, but both are preloaded
/// before the first iteration), so the kernel multiplies an address: the
/// wrong elements read 1024 and up. The defect is in the library's
/// register assignment or code generation, not in this benchmark. Their
/// kernel-code mismatch is printed on every run and counted in
/// success_rate, but not in failed; any other failure of these loops, and
/// a kernel-code mismatch of any other loop, is counted in failed.
const std::set<std::string> &knownKernelCodeDefects();

/// Runs the compile path on \p Source, checking the schedule with
/// validateSchedule. Spans carry \p Request. When \p Keep is non-null and
/// the loop succeeds, its artifacts are moved there.
LoopResult runLoopPipeline(const NamedSource &Source,
                           const lsms::MachineModel &Machine, int64_t Request,
                           LoopArtifacts *Keep = nullptr);

/// Sequential execution of \p Source for \p Iterations iterations: the
/// expected outcome checkLoop compares against (Error set when the source
/// does not compile).
lsms::ExecutionResult referenceRun(const NamedSource &Source,
                                   long Iterations);

/// Checks a finished loop: validateAllocation on its RR allocation, then
/// the overlapped schedule and the generated kernel code, each executed
/// for \p Iterations iterations, against \p Ref. Returns "" when every
/// check passes.
std::string checkLoop(const LoopArtifacts &A, const lsms::ExecutionResult &Ref,
                      long Iterations);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
