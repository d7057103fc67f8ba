//===- bench_flush.cpp - Epoch-counter flush ablation -----------------------==//
///
/// Section 4: "To implement heap flushes, we keep a global epoch counter.
/// Every property has a recency annotation... incrementing the epoch counter
/// flushes the heap." This bench compares that O(1) design against the naive
/// alternative — eagerly walking the whole heap and demoting every slot —
/// across heap sizes, and measures the end-to-end effect on a flush-heavy
/// analysis run.
///
//===----------------------------------------------------------------------===//

#include "determinacy/Determinacy.h"
#include "interp/Heap.h"
#include "parser/Parser.h"

#include <benchmark/benchmark.h>
#include <string>

using namespace dda;

namespace {

/// Builds a heap with \p Objects objects of \p Props properties each.
Heap buildHeap(size_t Objects, size_t Props) {
  Heap H;
  for (size_t I = 0; I < Objects; ++I) {
    ObjectRef O = H.allocate(ObjectClass::Plain);
    for (size_t J = 0; J < Props; ++J) {
      std::string Name = "p";
      Name += std::to_string(J);
      H.get(O).set(intern(Name), Slot{Value::number(static_cast<double>(J)),
                                      Det::Determinate, 0});
    }
  }
  return H;
}

/// The paper's design: a flush is one counter increment, regardless of heap
/// size (slots compare their recency against the epoch on read).
void BM_EpochFlush(benchmark::State &State) {
  Heap H = buildHeap(static_cast<size_t>(State.range(0)), 8);
  uint32_t Epoch = 0;
  for (auto _ : State) {
    ++Epoch;
    benchmark::DoNotOptimize(Epoch);
  }
  State.SetLabel(std::to_string(H.size()) + " objects");
}
BENCHMARK(BM_EpochFlush)->Arg(100)->Arg(1000)->Arg(10000);

/// The naive alternative: demote every slot of every object.
void BM_NaiveFlush(benchmark::State &State) {
  Heap H = buildHeap(static_cast<size_t>(State.range(0)), 8);
  for (auto _ : State) {
    H.forEach([](ObjectRef, JSObject &O) {
      O.ExplicitlyOpen = true;
      for (auto &[Name, S] : O.slots())
        S.D = Det::Indeterminate;
    });
    benchmark::ClobberMemory();
  }
  State.SetLabel(std::to_string(H.size()) + " objects");
}
BENCHMARK(BM_NaiveFlush)->Arg(100)->Arg(1000)->Arg(10000);

/// End-to-end: a flush-heavy program (every loop iteration flushes once via
/// an indeterminate callee) over a large live heap.
void BM_FlushHeavyAnalysis(benchmark::State &State) {
  std::string Source = "function a(x) { return x; }\n"
                       "function b(x) { return x; }\n"
                       "var objs = [];\n"
                       "for (var i = 0; i < " +
                       std::to_string(State.range(0)) +
                       "; i++) { objs[i] = {v: i}; }\n"
                       "for (var j = 0; j < 200; j++) {\n"
                       "  (Math.random() < 0.5 ? a : b)(j);\n"
                       "}\n";
  for (auto _ : State) {
    DiagnosticEngine Diags;
    Program P = parseProgram(Source, Diags);
    AnalysisResult R = runDeterminacyAnalysis(P, AnalysisOptions());
    benchmark::DoNotOptimize(R.Stats.HeapFlushes);
  }
}
BENCHMARK(BM_FlushHeavyAnalysis)->Arg(100)->Arg(1000);

} // namespace

BENCHMARK_MAIN();
