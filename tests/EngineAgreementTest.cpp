//===- EngineAgreementTest.cpp - Corpus-wide evaluator agreement ----------==//
///
/// The same program runs through three evaluators that must agree:
///
///  1. the concrete interpreter and the instrumented interpreter — the
///     instrumented run is a real execution, so under the same seeds it
///     ends the same way, prints the same output and reports the same
///     error as the concrete run;
///  2. the serial analysis and the parallel engine's task path — one seed
///     through `runDeterminacyAnalysisParallel` parses runtime-eval'd code
///     into a task-private overlay context instead of the shared program,
///     and must still produce a byte-identical result (facts, stats,
///     executed sets, output).
///
/// Both checks sweep every workload family (the paper figures, miniquery,
/// the eval suite's runtime-compiled overlays, and generated fuzz programs)
/// at the default seeds and again at two other seed pairs.
/// The suite keeps the name it had when it held a bytecode VM to the
/// tree-walk, so its test ids stay stable.
///
//===----------------------------------------------------------------------===//

#include "determinacy/Determinacy.h"
#include "determinacy/ParallelAnalysis.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

using namespace dda;

namespace {

Program parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return P;
}

/// Every corpus program the agreement tests sweep: the paper figures, the
/// four miniquery versions, the runnable eval-suite programs (runtime
/// parsed overlay ASTs), and a band of generated fuzz programs.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> Out;
  Out.emplace_back("figure1", workloads::figure1());
  Out.emplace_back("figure2", workloads::figure2());
  Out.emplace_back("figure3", workloads::figure3());
  Out.emplace_back("figure4", workloads::figure4());
  for (int Minor = 0; Minor < 4; ++Minor)
    Out.emplace_back("miniquery1_" + std::to_string(Minor),
                     workloads::miniquery(Minor));
  for (const auto &B : workloads::evalSuite())
    if (B.Runnable) {
      std::string Name = std::string("eval_") + B.Name;
      for (char &C : Name) // gtest param names must be [A-Za-z0-9_].
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      Out.emplace_back(Name, B.Source);
    }
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    Out.emplace_back("fuzz" + std::to_string(Seed),
                     workloads::generateProgram(Seed));
  return Out;
}

/// Everything observable about an instrumented run, rendered to one string
/// so differences show up as a readable diff.
std::string analysisFingerprint(const AnalysisResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " trap=" << static_cast<int>(R.Trap)
     << " degraded=" << R.Degradation.degraded() << "\n"
     << "error=" << R.Error << "\n"
     << "steps=" << R.Stats.StepsUsed << " flushes=" << R.Stats.HeapFlushes
     << " cf=" << R.Stats.Counterfactuals
     << " cfAborts=" << R.Stats.CounterfactualAborts
     << " journal=" << R.Stats.JournalEntries << "\n"
     << "executedCalls=" << R.ExecutedCalls.size()
     << " executedStmts=" << R.ExecutedStmts.size() << "\n"
     << "--- output ---\n"
     << R.Output << "--- facts ---\n"
     << R.Facts.dump(R.Contexts);
  return OS.str();
}

class BytecodeDifferentialTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

/// Concrete vs instrumented: same termination, output and error under the
/// same Math.random and DOM seeds. Step counts are not compared: the
/// instrumented run also spends steps on counterfactual branches.
TEST_P(BytecodeDifferentialTest, ConcreteEnginesAgree) {
  const std::string &Source = GetParam().second;
  Program PC = parseOk(Source);
  Interpreter Concrete(PC, InterpOptions());
  bool ConcreteOk = Concrete.run();

  Program PI = parseOk(Source);
  AnalysisResult Instrumented = runDeterminacyAnalysis(PI, AnalysisOptions());

  EXPECT_EQ(ConcreteOk, Instrumented.Ok);
  EXPECT_EQ(Concrete.outputText(), Instrumented.Output);
  EXPECT_EQ(Concrete.errorMessage(), Instrumented.Error);
}

/// Serial analysis vs the parallel engine's task path at one seed: the
/// full observable surface must be byte-identical.
TEST_P(BytecodeDifferentialTest, InstrumentedEnginesAgree) {
  const std::string &Source = GetParam().second;
  AnalysisOptions Opts;
  Opts.RecordAllExpressions = true; // Max-coverage fact surface.

  Program PS = parseOk(Source);
  AnalysisResult Serial = runDeterminacyAnalysis(PS, Opts);

  Program PP = parseOk(Source);
  AnalysisResult Task =
      runDeterminacyAnalysisParallel(PP, Opts, {Opts.RandomSeed}, 1);

  EXPECT_EQ(analysisFingerprint(Serial), analysisFingerprint(Task));
}

/// Multi-seed: different Math.random and DOM seeds exercise different paths
/// (indeterminate branches, counterfactuals); both agreements hold on all.
TEST_P(BytecodeDifferentialTest, InstrumentedEnginesAgreeAcrossSeeds) {
  const std::string &Source = GetParam().second;
  for (uint64_t Seed : {7u, 99u}) {
    InterpOptions COpts;
    COpts.RandomSeed = Seed;
    COpts.DomSeed = Seed + 1;
    Program PC = parseOk(Source);
    Interpreter Concrete(PC, COpts);
    bool ConcreteOk = Concrete.run();

    AnalysisOptions Opts;
    Opts.RandomSeed = Seed;
    Opts.DomSeed = Seed + 1;
    Opts.RecordAllExpressions = true;
    Program PS = parseOk(Source);
    AnalysisResult Serial = runDeterminacyAnalysis(PS, Opts);

    Program PP = parseOk(Source);
    AnalysisResult Task = runDeterminacyAnalysisParallel(PP, Opts, {Seed}, 1);

    EXPECT_EQ(ConcreteOk, Serial.Ok) << "seed=" << Seed;
    EXPECT_EQ(Concrete.outputText(), Serial.Output) << "seed=" << Seed;
    EXPECT_EQ(Concrete.errorMessage(), Serial.Error) << "seed=" << Seed;
    EXPECT_EQ(analysisFingerprint(Serial), analysisFingerprint(Task))
        << "seed=" << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BytecodeDifferentialTest, ::testing::ValuesIn(corpus()),
    [](const ::testing::TestParamInfo<std::pair<std::string, std::string>>
           &Info) { return Info.param.first; });

} // namespace
