//===- main.cpp - End-to-end benchmark runner --------------------------------==//
///
/// \file
///   perfbench_runner --workload paper_pipeline|serve_mixed|edit_session
///                    --seed N --seconds S --trace 0|1 --work-dir DIR
///
/// Prints one run-record line (host CPUs, compiler, build type and flags,
/// workload, seed, run length), then the result line
/// {"correct","attempted","failed","metrics"} last. perfbench/run.py
/// builds this binary and is the command to use.
///
//===----------------------------------------------------------------------===//

#include "BuildInfo.h"
#include "Common.h"

#include "serve/JSON.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include <sched.h>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload "
               "paper_pipeline|serve_mixed|edit_session --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

/// The truthful run record: what machine, what build, what inputs.
std::string runRecord(const RunConfig &C) {
  long Online = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Usable = ::sched_getaffinity(0, sizeof(Set), &Set) == 0
                   ? CPU_COUNT(&Set)
                   : static_cast<int>(Online);
  std::string Out = "{\"run_record\": {\"host_cpus\": " +
                    std::to_string(Online > 0 ? Online : 1) +
                    ", \"usable_cpus\": " + std::to_string(Usable) +
                    ", \"compiler\": ";
  dda::json::appendQuoted(Out, PERFBENCH_COMPILER);
  Out += ", \"build_type\": ";
  dda::json::appendQuoted(Out, PERFBENCH_BUILD_TYPE);
  Out += ", \"cxx_flags\": ";
  dda::json::appendQuoted(Out, PERFBENCH_CXX_FLAGS);
  Out += ", \"workload\": ";
  dda::json::appendQuoted(Out, C.Workload);
  Out += ", \"seed\": " + std::to_string(C.Seed) + ", \"seconds\": ";
  dda::json::appendNumber(Out, C.Seconds);
  Out += ", \"trace\": ";
  Out += C.Trace ? "1" : "0";
  Out += "}}";
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  for (int I = 1; I < Argc; ++I) {
    const char *Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *Value = Argv[++I];
    if (!std::strcmp(Flag, "--workload"))
      C.Workload = Value;
    else if (!std::strcmp(Flag, "--seed"))
      C.Seed = std::strtoull(Value, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      C.Seconds = std::strtod(Value, nullptr);
    else if (!std::strcmp(Flag, "--trace"))
      C.Trace = std::strcmp(Value, "0") != 0;
    else if (!std::strcmp(Flag, "--work-dir"))
      C.WorkDir = Value;
    else
      return usage();
  }
  void (*Run)(const RunConfig &, Report &) = nullptr;
  if (C.Workload == "paper_pipeline")
    Run = runPaperPipeline;
  else if (C.Workload == "serve_mixed")
    Run = runServeMixed;
  else if (C.Workload == "edit_session")
    Run = runEditSession;
  if (!Run || C.WorkDir.empty() || !(C.Seconds > 0))
    return usage();

  std::printf("%s\n", runRecord(C).c_str());
  std::fflush(stdout);
  Report R;
  try {
    std::filesystem::create_directories(C.WorkDir);
    Run(C, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  std::printf("%s\n", R.json().c_str());
  return 0;
}
