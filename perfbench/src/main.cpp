// The benchmark binary. Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--source-id ID]
// Prints '#'-prefixed information lines, then one JSON result line.

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_suite|large_loops|"
               "service_mix --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--source-id ID]\n");
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (const char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + '"';
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, SourceId = "unknown";
  RunOptions Opts;
  Opts.WorkDir = ".bench_build/work";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Workload = Val;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Val.empty();
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = *End == '\0' && Opts.Seconds > 0 && Opts.Seconds <= 600;
    } else if (Flag == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      Opts.Traced = Val == "1";
    } else if (Flag == "--work-dir") {
      Opts.WorkDir = Val;
    } else if (Flag == "--source-id") {
      SourceId = Val;
    } else {
      return usage();
    }
  }
  if (Argc % 2 == 0 || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage();
  RunResult (*Run)(const RunOptions &) = nullptr;
  if (Workload == "paper_suite")
    Run = runPaperSuite;
  else if (Workload == "large_loops")
    Run = runLargeLoops;
  else if (Workload == "service_mix")
    Run = runServiceMix;
  else
    return usage();
  std::error_code EC;
  std::filesystem::create_directories(Opts.WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "cannot create %s: %s\n", Opts.WorkDir.c_str(),
                 EC.message().c_str());
    return 1;
  }

#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Opts.Seconds, Opts.Traced ? 1 : 0);
  std::printf("# build: %s, %s, flags '%s', asserts %s, commit %s, "
              "nproc %u\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              Asserts, SourceId.c_str(), std::thread::hardware_concurrency());

  const RunResult R = Run(Opts);
  for (const std::string &Line : R.Info)
    std::printf("# %s\n", Line.c_str());
  for (const std::string &Why : R.Failures)
    std::fprintf(stderr, "check failed: %s\n", Why.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted) +
          ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", M.Value);
    Json += (First ? "" : ", ") + jsonString(Name) + ": {\"value\": " + Num +
            ", \"unit\": " + jsonString(M.Unit) + "}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
