//===- FuzzTest.cpp - Generated-program fuzz suites -------------------------==//
///
/// Property tests over randomly generated (but well-formed and terminating)
/// MiniJS programs — the paper's future-work direction of using automated
/// test generation to drive the dynamic analysis. Four properties:
///
///   1. parser round-trip: print∘parse is a fixed point;
///   2. interpreter determinism: same seeds → identical run;
///   3. Theorem 1: determinate globals hold in every concrete execution;
///   4. specializer soundness: the residual program is observationally
///      equivalent to the original under matching seeds.
///
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "determinacy/InstrumentedInterpreter.h"
#include "interp/Interpreter.h"
#include "interp/Ops.h"
#include "parser/Parser.h"
#include "support/FaultInjector.h"
#include "deadcode/DeadCode.h"
#include "pointsto/PointsTo.h"
#include "specialize/Specializer.h"
#include "workloads/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace dda;

namespace {

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

std::string generate(uint64_t Seed) {
  return workloads::generateProgram(Seed);
}

Program parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors())
      << Diags.str() << "\n--- source ---\n"
      << Source;
  return P;
}

TEST_P(FuzzTest, GeneratorIsDeterministic) {
  EXPECT_EQ(generate(GetParam()), generate(GetParam()));
  // Different seeds give different programs (no degenerate generator).
  EXPECT_NE(generate(GetParam()), generate(GetParam() + 1));
}

TEST_P(FuzzTest, ParserRoundTrip) {
  std::string Source = generate(GetParam());
  Program P = parseOk(Source);
  std::string Once = printProgram(P);
  Program P2 = parseOk(Once);
  EXPECT_EQ(printProgram(P2), Once) << "--- source ---\n" << Source;
}

TEST_P(FuzzTest, InterpreterRunsAndIsDeterministic) {
  std::string Source = generate(GetParam());
  Program P1 = parseOk(Source);
  Interpreter I1(P1);
  ASSERT_TRUE(I1.run()) << I1.errorMessage() << "\n--- source ---\n"
                        << Source;
  Program P2 = parseOk(Source);
  Interpreter I2(P2);
  ASSERT_TRUE(I2.run());
  EXPECT_EQ(I1.outputText(), I2.outputText());
}

TEST_P(FuzzTest, SoundnessOfDeterminateGlobals) {
  std::string Source = generate(GetParam());
  Program IP = parseOk(Source);
  AnalysisOptions AOpts;
  InstrumentedInterpreter I(IP, AOpts);
  ASSERT_TRUE(I.run()) << I.errorMessage() << "\n--- source ---\n" << Source;

  for (uint64_t Seed : {1, 5, 99}) {
    for (uint64_t DomSeed : {1, 17}) {
      Program CP = parseOk(Source);
      InterpOptions COpts;
      COpts.RandomSeed = Seed;
      COpts.DomSeed = DomSeed;
      Interpreter C(CP, COpts);
      ASSERT_TRUE(C.run()) << C.errorMessage() << "\n--- source ---\n"
                           << Source;
      if (Seed == AOpts.RandomSeed && DomSeed == AOpts.DomSeed) {
        EXPECT_EQ(I.outputText(), C.outputText())
            << "--- source ---\n" << Source;
      }
      for (const std::string &G : I.userGlobalNames()) {
        TaggedValue TV = I.globalVariable(G);
        if (!TV.isDet() || TV.V.isObject())
          continue;
        Value CV = C.globalVariable(G);
        EXPECT_TRUE(strictEquals(TV.V, CV))
            << "global " << G << " tagged determinate ("
            << toStringValue(TV.V, I.heap()) << ") but concrete run (seed "
            << Seed << "," << DomSeed << ") has "
            << toStringValue(CV, C.heap()) << "\n--- source ---\n"
            << Source;
      }
    }
  }
}

TEST_P(FuzzTest, SpecializationPreservesBehavior) {
  std::string Source = generate(GetParam());
  Program P = parseOk(Source);
  AnalysisResult A = runDeterminacyAnalysis(P, AnalysisOptions());
  ASSERT_TRUE(A.Ok) << A.Error << "\n--- source ---\n" << Source;
  SpecializeResult S = specializeProgram(P, A);

  // Residual and original must agree under the analysis seeds *and* under
  // fresh seeds (the rewrites must be valid for every execution).
  for (uint64_t Seed : {1, 42}) {
    Program Orig = parseOk(Source);
    InterpOptions Opts;
    Opts.RandomSeed = Seed;
    Interpreter IO(Orig, Opts);
    ASSERT_TRUE(IO.run()) << IO.errorMessage();

    DiagnosticEngine Diags;
    Program Residual = parseProgram(printProgram(S.Residual), Diags);
    ASSERT_FALSE(Diags.hasErrors())
        << "residual does not reparse:\n"
        << printProgram(S.Residual);
    Interpreter IR(Residual, Opts);
    ASSERT_TRUE(IR.run()) << IR.errorMessage() << "\n--- residual ---\n"
                          << printProgram(S.Residual);
    EXPECT_EQ(IR.outputText(), IO.outputText())
        << "seed " << Seed << "\n--- source ---\n"
        << Source << "\n--- residual ---\n"
        << printProgram(S.Residual);
  }
}

TEST_P(FuzzTest, StaticAnalysesAreTotalAndDeterministic) {
  // The pointer analysis and dead-code client must terminate and be
  // deterministic on arbitrary (well-formed) input, including residual
  // programs.
  std::string Source = generate(GetParam());
  Program P = parseOk(Source);
  PointsToResult A = runPointsToAnalysis(P);
  PointsToResult B = runPointsToAnalysis(P);
  EXPECT_TRUE(A.Completed);
  EXPECT_EQ(A.PropagationSteps, B.PropagationSteps);
  EXPECT_EQ(A.CallGraphEdges, B.CallGraphEdges);

  AnalysisResult Facts = runDeterminacyAnalysis(P, AnalysisOptions());
  ASSERT_TRUE(Facts.Ok);
  DeadCodeResult Dead = findDeadCode(P, Facts);
  EXPECT_LE(Dead.DeadStatements, Dead.TotalStatements);

  SpecializeResult S = specializeProgram(P, Facts);
  PointsToResult R = runPointsToAnalysis(S.Residual);
  EXPECT_TRUE(R.Completed);
  // Specialization may only improve (or preserve) call-graph precision.
  EXPECT_LE(R.AvgCallTargets, A.AvgCallTargets + 1e-9);
}

//===----------------------------------------------------------------------===//
// Robustness: tight budgets and injected faults over the generated corpus.
// A budget trip must degrade the analysis, never crash or hang it — and any
// fact that survives degradation must still be sound (Theorem 1 restricted
// to the executed prefix).
//===----------------------------------------------------------------------===//

/// Checks every determinate non-object global of a (possibly degraded)
/// instrumented run against a full concrete execution with matching seeds.
void expectDeterminateGlobalsSound(InstrumentedInterpreter &I,
                                   const std::string &Source,
                                   const char *Label) {
  Program CP = parseOk(Source);
  Interpreter C(CP);
  ASSERT_TRUE(C.run()) << C.errorMessage() << "\n--- source ---\n" << Source;
  for (const std::string &G : I.userGlobalNames()) {
    TaggedValue TV = I.globalVariable(G);
    if (!TV.isDet() || TV.V.isObject())
      continue;
    Value CV = C.globalVariable(G);
    EXPECT_TRUE(strictEquals(TV.V, CV))
        << Label << ": global " << G << " tagged determinate ("
        << toStringValue(TV.V, I.heap()) << ") but concrete run has "
        << toStringValue(CV, C.heap()) << "\n--- source ---\n"
        << Source;
  }
}

TEST_P(FuzzTest, TightBudgetsDegradeButStaySound) {
  std::string Source = generate(GetParam());
  struct BudgetCase {
    const char *Label;
    void (*Apply)(AnalysisOptions &);
  };
  const BudgetCase Cases[] = {
      {"steps", [](AnalysisOptions &O) { O.MaxSteps = 400; }},
      {"heap", [](AnalysisOptions &O) { O.MaxHeapCells = 40; }},
      {"cf-fuel", [](AnalysisOptions &O) { O.CounterfactualFuel = 1; }},
      {"eval", [](AnalysisOptions &O) { O.MaxEvalDepth = 1; }},
      {"combined",
       [](AnalysisOptions &O) {
         O.MaxSteps = 1'000;
         O.MaxHeapCells = 100;
         O.CounterfactualFuel = 2;
       }},
  };
  for (const BudgetCase &BC : Cases) {
    Program P = parseOk(Source);
    AnalysisOptions Opts;
    BC.Apply(Opts);
    InstrumentedInterpreter I(P, Opts);
    // Degraded or not, the run must succeed (Ok) — budget trips are not
    // errors any more.
    ASSERT_TRUE(I.run()) << BC.Label << ": " << I.errorMessage()
                         << "\n--- source ---\n"
                         << Source;
    if (I.trapKind() != TrapKind::None) {
      EXPECT_TRUE(isResourceTrap(I.trapKind())) << BC.Label;
    }
    expectDeterminateGlobalsSound(I, Source, BC.Label);
  }
}

TEST_P(FuzzTest, FaultInjectorSweepNeverCrashes) {
  // Trip every budget class at several checkpoints over the corpus. No
  // crash, no hang, and surviving determinate facts stay sound.
  std::string Source = generate(GetParam());
  const Budget Classes[] = {Budget::Steps,     Budget::Deadline,
                            Budget::HeapCells, Budget::CallDepth,
                            Budget::CfFuel,    Budget::EvalDepth};
  for (Budget B : Classes) {
    for (uint64_t At : {1u, 7u, 100u}) {
      Program P = parseOk(Source);
      AnalysisOptions Opts;
      FaultInjector FI(B, At);
      Opts.Injector = &FI;
      InstrumentedInterpreter I(P, Opts);
      std::string Label =
          std::string(budgetName(B)) + ":" + std::to_string(At);
      ASSERT_TRUE(I.run()) << Label << ": " << I.errorMessage()
                           << "\n--- source ---\n"
                           << Source;
      if (I.trapKind() != TrapKind::None) {
        EXPECT_TRUE(isResourceTrap(I.trapKind())) << Label;
        EXPECT_TRUE(I.degradation().Trip.Injected) << Label;
      }
      expectDeterminateGlobalsSound(I, Source, Label.c_str());
    }
  }
}

TEST_P(FuzzTest, InjectedFaultsAreDeterministic) {
  // Same (program, seed, spec) must trip at the same point with the same
  // observable state — byte-identical output and step count.
  std::string Source = generate(GetParam());
  auto RunOnce = [&](uint64_t &StepsOut, std::string &OutputOut) {
    Program P = parseOk(Source);
    AnalysisOptions Opts;
    FaultInjector FI(Budget::Steps, 300);
    Opts.Injector = &FI;
    InstrumentedInterpreter I(P, Opts);
    ASSERT_TRUE(I.run()) << I.errorMessage();
    StepsOut = I.governor().stepsUsed();
    OutputOut = I.outputText();
  };
  uint64_t StepsA = 0, StepsB = 0;
  std::string OutA, OutB;
  RunOnce(StepsA, OutA);
  RunOnce(StepsB, OutB);
  EXPECT_EQ(StepsA, StepsB);
  EXPECT_EQ(OutA, OutB);
}

TEST_P(FuzzTest, JournalUndoIntegrityAfterDegradedRuns) {
  // The write journal must stay invertible through degradation: after a
  // (possibly injected-fault) run, fully unwinding the journal restores the
  // pristine global scope — no user global survives, which would indicate a
  // missed journal entry on some write path.
  std::string Source = generate(GetParam());
  for (uint64_t At : {50u, 500u}) {
    Program P = parseOk(Source);
    AnalysisOptions Opts;
    FaultInjector FI(Budget::Steps, At);
    Opts.Injector = &FI;
    InstrumentedInterpreter I(P, Opts);
    ASSERT_TRUE(I.run()) << I.errorMessage();
    // By the end of a run no counterfactual is in flight, so the journal
    // holds exactly the real-world writes.
    size_t Entries = I.journalSize();
    I.unwindJournalForTest();
    EXPECT_EQ(I.journalSize(), 0u);
    std::vector<std::string> Leftover = I.userGlobalNames();
    EXPECT_TRUE(Leftover.empty())
        << "steps:" << At << " journal (" << Entries
        << " entries) failed to undo global '" << Leftover.front()
        << "'\n--- source ---\n"
        << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
