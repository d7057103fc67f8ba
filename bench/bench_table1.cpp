//===- bench_table1.cpp - Reproduces the paper's Table 1 -------------------==//
///
/// "Comparison of pointer analysis scalability on several jQuery versions;
/// the number of heap flushes is given in parentheses."
///
/// For each miniquery version (our jQuery stand-ins) and each configuration
/// (Baseline / Spec / Spec+DetDOM), runs the pipeline and prints ✓ when the
/// static pointer analysis completes within the step budget (the stand-in
/// for the paper's 10-minute timeout) and ✗ otherwise, with the dynamic
/// analysis's heap-flush count in parentheses (">1000" once the flush limit
/// is hit, exactly as the paper reports).
///
//===----------------------------------------------------------------------===//

#include "determinacy/Determinacy.h"
#include "parser/Parser.h"
#include "pointsto/PointsTo.h"
#include "specialize/Specializer.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include "BenchSupport.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace dda;

namespace {

constexpr uint64_t TimeoutBudget = 40'000;

struct Cell {
  bool Completed = false;
  uint64_t Flushes = 0;
  bool FlushLimitHit = false;
  uint64_t Steps = 0;
  uint64_t HeapCells = 0;
  double Millis = 0;

  /// Everything but the timing: what must not depend on the jobs value.
  bool sameOutcome(const Cell &O) const {
    return Completed == O.Completed && Steps == O.Steps &&
           Flushes == O.Flushes && FlushLimitHit == O.FlushLimitHit &&
           HeapCells == O.HeapCells;
  }

  std::string str(bool WithFlushes) const {
    std::string Out = Completed ? "yes" : "NO ";
    if (WithFlushes) {
      Out += " (";
      Out += FlushLimitHit ? ">1000" : std::to_string(Flushes);
      Out += ")";
    }
    return Out;
  }
};

Program parse(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "workload parse error:\n%s", Diags.str().c_str());
    std::exit(1);
  }
  return P;
}

Cell runConfig(const std::string &Source, bool Specialize, bool DetDom) {
  auto Start = std::chrono::steady_clock::now();
  Program P = parse(Source);
  PointsToOptions PTOpts;
  PTOpts.MaxPropagationSteps = TimeoutBudget;

  Cell C;
  if (!Specialize) {
    PointsToResult R = runPointsToAnalysis(P, PTOpts);
    C.Completed = R.Completed;
    C.Steps = R.PropagationSteps;
  } else {
    AnalysisOptions AOpts;
    AOpts.DeterminateDom = DetDom;
    AnalysisResult A = runDeterminacyAnalysis(P, AOpts);
    C.Flushes = A.Stats.HeapFlushes;
    C.FlushLimitHit = A.Stats.FlushLimitHit;
    C.HeapCells = A.Degradation.HeapCellsUsed;
    SpecializeResult S = specializeProgram(P, A);
    PointsToResult R = runPointsToAnalysis(S.Residual, PTOpts);
    C.Completed = R.Completed;
    C.Steps = R.PropagationSteps;
  }
  C.Millis = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
                 .count();
  return C;
}

/// The 12 table cells (4 versions x 3 configs) are independent — each
/// runConfig parses its own Program — so they fan out across a pool.
/// Cells land in a slot keyed by (version, config); the rendered table is
/// identical for every jobs value (runJobsSweep checks it).
std::vector<Cell> runAllCells(unsigned Jobs) {
  std::vector<Cell> Cells(12);
  ThreadPool::parallelFor(Jobs, Cells.size(), [&](size_t I) {
    int Minor = static_cast<int>(I / 3);
    int Config = static_cast<int>(I % 3);
    std::string Source = workloads::miniquery(Minor);
    Cells[I] = runConfig(Source, /*Specialize=*/Config > 0,
                         /*DetDom=*/Config == 2);
  });
  return Cells;
}

int runJobsSweep(const char *JsonPath) {
  std::printf("Table 1 cell fan-out sweep: 12 cells, jobs 1/2/4/8 "
              "(host has %u hardware threads)\n\n",
              ThreadPool::hardwareWorkers());
  TextTable T({"jobs", "wall ms", "speedup", "cells = jobs 1"});
  double BaselineMs = 0;
  struct Row {
    unsigned Jobs;
    double WallMs;
    double Speedup;
  };
  std::vector<Row> Rows;
  std::vector<Cell> Baseline;
  bool AllIdentical = true;
  uint64_t HeapCellsTotal = 0;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    auto Start = std::chrono::steady_clock::now();
    std::vector<Cell> Cells = runAllCells(Jobs);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    HeapCellsTotal = 0;
    for (const Cell &C : Cells)
      HeapCellsTotal += C.HeapCells;
    if (Jobs == 1) {
      BaselineMs = Ms;
      Baseline = Cells;
    }
    bool Identical = true;
    for (size_t I = 0; I < Cells.size(); ++I)
      Identical = Identical && Cells[I].sameOutcome(Baseline[I]);
    AllIdentical = AllIdentical && Identical;
    Rows.push_back({Jobs, Ms, BaselineMs / Ms});
    char MsBuf[32], SpBuf[32];
    std::snprintf(MsBuf, sizeof(MsBuf), "%.1f", Ms);
    std::snprintf(SpBuf, sizeof(SpBuf), "%.2fx", BaselineMs / Ms);
    T.addRow({std::to_string(Jobs), MsBuf, SpBuf, Identical ? "yes" : "NO"});
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("cells across jobs values: %s\n",
              AllIdentical ? "identical" : "DIVERGED");

  if (JsonPath) {
    FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"bench\": \"table1_jobs_sweep\",\n  \"cells\": 12,\n"
                 "  \"host_cpus\": %u,\n  \"cells_identical\": %s,\n"
                 "  \"runs\": [\n",
                 ThreadPool::hardwareWorkers(),
                 AllIdentical ? "true" : "false");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F,
                   "    {\"jobs\": %u, \"wall_ms\": %.3f, \"speedup\": "
                   "%.3f}%s\n",
                   Rows[I].Jobs, Rows[I].WallMs, Rows[I].Speedup,
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(F,
                 "  ],\n  \"heap_cells_total\": %llu,\n"
                 "  \"peak_rss_kb\": %ld\n}\n",
                 static_cast<unsigned long long>(HeapCellsTotal),
                 bench::peakRssKb());
    std::fclose(F);
  }
  return AllIdentical ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 1;
  const char *JsonPath = nullptr;
  bool JobsSweep = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--jobs") && I + 1 < Argc)
      Jobs = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    else if (!std::strcmp(Argv[I], "--jobs-sweep"))
      JobsSweep = true;
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
  }
  if (JobsSweep)
    return runJobsSweep(JsonPath);

  std::printf("Table 1: pointer-analysis scalability on miniquery versions\n");
  std::printf("(stand-in for jQuery 1.0-1.3; budget = %llu propagation "
              "steps ~ the paper's 10-minute timeout)\n\n",
              static_cast<unsigned long long>(TimeoutBudget));

  std::vector<Cell> Cells = runAllCells(Jobs);
  TextTable T({"Version", "Baseline", "Spec", "Spec+DetDOM",
               "base steps", "spec steps", "detdom steps"});
  for (int Minor = 0; Minor <= 3; ++Minor) {
    const Cell &Base = Cells[Minor * 3 + 0];
    const Cell &Spec = Cells[Minor * 3 + 1];
    const Cell &Det = Cells[Minor * 3 + 2];
    T.addRow({"1." + std::to_string(Minor), Base.str(false),
              Spec.str(true), Det.str(true), std::to_string(Base.Steps),
              std::to_string(Spec.Steps), std::to_string(Det.Steps)});
  }
  std::printf("%s\n", T.str().c_str());

  std::printf("Paper's Table 1 for comparison:\n");
  std::printf("  1.0   NO   yes (82)     yes (2)\n");
  std::printf("  1.1   NO   NO  (107)    yes (4)\n");
  std::printf("  1.2   yes  yes (>1000)  yes (0)\n");
  std::printf("  1.3   NO   NO  (>1000)  NO  (>1000)\n");
  return 0;
}
