//===- SnapshotTest.cpp - COW snapshot vs journal undo differential suite ==//
///
/// The copy-on-write snapshot undo engine replaces the journal's
/// reverse-replay for counterfactual branches; these tests hold the two to
/// *observational identity*: byte-identical fact dumps, outputs, stats
/// (including journal-entry counts — the slim journal still logs every
/// write for vd/pd marking), executed sets, and exit codes, across every
/// workload family (paper figures, miniquery, the eval suite's
/// runtime-compiled overlays, generated fuzz programs), injected faults,
/// and seed fan-outs at jobs 1 and 8.
///
/// The snapshot-only counters (SnapshotForks, CowCopies) are deliberately
/// excluded from the fingerprint: they describe *how* undo was done, not
/// what the analysis concluded, and legitimately differ between engines.
///
//===----------------------------------------------------------------------===//

#include "determinacy/Determinacy.h"
#include "determinacy/InstrumentedInterpreter.h"
#include "determinacy/ParallelAnalysis.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "support/FaultInjector.h"
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

/// The differential corpus: figures, miniquery, runnable eval-suite
/// overlays, and a band of generated fuzz programs.
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
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      Out.emplace_back(Name, B.Source);
    }
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Out.emplace_back("fuzz" + std::to_string(Seed),
                     workloads::generateProgram(Seed));
  return Out;
}

/// Everything the undo engines must agree on, rendered to one string so a
/// divergence shows up as a readable diff, including the serve-layer exit
/// code.
std::string undoFingerprint(const AnalysisResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " trap=" << static_cast<int>(R.Trap)
     << " exit=" << serve::analysisExitCode(R)
     << " degraded=" << R.Degradation.degraded()
     << " events=" << R.Degradation.EventsTotal << "\n"
     << "error=" << R.Error << "\n"
     << "steps=" << R.Stats.StepsUsed << " flushes=" << R.Stats.HeapFlushes
     << " cf=" << R.Stats.Counterfactuals
     << " cfAborts=" << R.Stats.CounterfactualAborts
     << " journal=" << R.Stats.JournalEntries
     << " flushlimit=" << R.Stats.FlushLimitHit << "\n"
     << "executedCalls=" << R.ExecutedCalls.size()
     << " executedStmts=" << R.ExecutedStmts.size() << "\n"
     << "--- output ---\n"
     << R.Output << "--- facts ---\n"
     << R.Facts.dump(R.Contexts);
  return OS.str();
}

AnalysisOptions undoOptions(UndoEngine Undo) {
  AnalysisOptions Opts;
  Opts.Undo = Undo;
  Opts.RecordAllExpressions = true; // Max-coverage fact surface.
  return Opts;
}

class SnapshotDifferentialTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

/// Core contract: for every corpus program, snapshot undo and journal undo
/// produce byte-identical results.
TEST_P(SnapshotDifferentialTest, SnapshotMatchesJournal) {
  const std::string &Source = GetParam().second;
  Program PS = parseOk(Source);
  AnalysisResult Snap =
      runDeterminacyAnalysis(PS, undoOptions(UndoEngine::Snapshot));

  Program PJ = parseOk(Source);
  AnalysisResult Jour =
      runDeterminacyAnalysis(PJ, undoOptions(UndoEngine::Journal));

  EXPECT_EQ(undoFingerprint(Snap), undoFingerprint(Jour));
}

/// Injected budget faults must trip at the same checkpoint and degrade to
/// the same partial-but-sound result under either undo engine.
TEST_P(SnapshotDifferentialTest, InjectedFaultAgreement) {
  const std::string &Source = GetParam().second;
  std::string Error;
  auto SnapInj = FaultInjector::parse("steps:300", &Error);
  ASSERT_TRUE(SnapInj) << Error;
  AnalysisOptions SnapOpts = undoOptions(UndoEngine::Snapshot);
  SnapOpts.Injector = &*SnapInj;
  Program PS = parseOk(Source);
  AnalysisResult Snap = runDeterminacyAnalysis(PS, SnapOpts);

  auto JourInj = FaultInjector::parse("steps:300", &Error);
  ASSERT_TRUE(JourInj) << Error;
  AnalysisOptions JourOpts = undoOptions(UndoEngine::Journal);
  JourOpts.Injector = &*JourInj;
  Program PJ = parseOk(Source);
  AnalysisResult Jour = runDeterminacyAnalysis(PJ, JourOpts);

  EXPECT_EQ(undoFingerprint(Snap), undoFingerprint(Jour));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SnapshotDifferentialTest, ::testing::ValuesIn(corpus()),
    [](const ::testing::TestParamInfo<std::pair<std::string, std::string>>
           &Info) { return Info.param.first; });

/// The seed fan-out must be independent of undo engine and job count at
/// once: journal jobs=1 is the reference, and snapshot jobs=1/8 must both
/// match it.
TEST(SnapshotParallel, MergedFactsIndependentOfUndoAndJobs) {
  const std::string Source = workloads::miniquery(3);
  std::vector<uint64_t> Seeds = {1, 2, 3, 4, 5, 6};

  auto Run = [&](UndoEngine Undo, unsigned Jobs) {
    Program P = parseOk(Source);
    AnalysisOptions Opts = undoOptions(Undo);
    AnalysisResult R = runDeterminacyAnalysisParallel(P, Opts, Seeds, Jobs);
    EXPECT_TRUE(R.Ok) << R.Error;
    return undoFingerprint(R);
  };

  std::string Reference = Run(UndoEngine::Journal, 1);
  EXPECT_EQ(Reference, Run(UndoEngine::Snapshot, 1));
  EXPECT_EQ(Reference, Run(UndoEngine::Snapshot, 8));
}

/// Multi-class injected faults on a call-heavy program, across undo
/// engines.
TEST(SnapshotGovernor, InjectedFaultClassesMatchJournal) {
  const std::string Source = workloads::miniquery(1);
  for (const char *Spec :
       {"steps:50", "steps:500", "heap:10", "depth:2", "cf-fuel:1"}) {
    std::string Error;
    auto SnapInj = FaultInjector::parse(Spec, &Error);
    ASSERT_TRUE(SnapInj) << Error;
    AnalysisOptions SnapOpts = undoOptions(UndoEngine::Snapshot);
    SnapOpts.Injector = &*SnapInj;
    Program PS = parseOk(Source);
    AnalysisResult Snap = runDeterminacyAnalysis(PS, SnapOpts);

    auto JourInj = FaultInjector::parse(Spec, &Error);
    ASSERT_TRUE(JourInj) << Error;
    AnalysisOptions JourOpts = undoOptions(UndoEngine::Journal);
    JourOpts.Injector = &*JourInj;
    Program PJ = parseOk(Source);
    AnalysisResult Jour = runDeterminacyAnalysis(PJ, JourOpts);

    EXPECT_EQ(undoFingerprint(Snap), undoFingerprint(Jour))
        << "inject " << Spec;
  }
}

/// A deeply nested tower of indeterminate branches, each level shadowing
/// the writes of the one above: the regression shape for nested
/// snapshot-frame restore ordering (a child frame's restore must not
/// clobber the parent's older pre-images, so the parent still restores to
/// the *outermost* pre-state).
const char *kNestedBranches =
    "var a = 1; var b = 2; var c = 3; var d = 4;\n"
    "var o = {x: 1, y: {z: 2}};\n"
    "if (Math.random() < 0.5) {\n"
    "  a = 10; o.x = 10;\n"
    "  if (Math.random() < 0.5) {\n"
    "    b = 20; o.y.z = 20; o.x = 11;\n"
    "    if (Math.random() < 0.5) {\n"
    "      c = 30; o.x = 12; o.y.z = 21;\n"
    "      if (Math.random() < 0.5) { d = 40; a = 13; o.x = 13; }\n"
    "      else { d = 41; b = 23; }\n"
    "    } else { c = 31; o.y.z = 22; }\n"
    "  } else { b = 21; o.x = 14; }\n"
    "} else { a = 15; }\n"
    "print(a); print(b); print(c); print(d); print(o.x); print(o.y.z);\n";

TEST(SnapshotUndo, NestedBranchesMatchJournalAcrossSeeds) {
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    AnalysisOptions SnapOpts = undoOptions(UndoEngine::Snapshot);
    SnapOpts.RandomSeed = Seed;
    Program PS = parseOk(kNestedBranches);
    AnalysisResult Snap = runDeterminacyAnalysis(PS, SnapOpts);

    AnalysisOptions JourOpts = undoOptions(UndoEngine::Journal);
    JourOpts.RandomSeed = Seed;
    Program PJ = parseOk(kNestedBranches);
    AnalysisResult Jour = runDeterminacyAnalysis(PJ, JourOpts);

    EXPECT_EQ(undoFingerprint(Snap), undoFingerprint(Jour))
        << "seed=" << Seed;
  }
}

/// Fully unwinding at the end of a snapshot-mode run must restore the
/// pristine global scope, exactly as the journal engine's replay does —
/// including after mid-run injected degradation (the regression FuzzTest
/// runs for the journal, here pinned explicitly to the snapshot engine on
/// the nested-branch shape).
TEST(SnapshotUndo, UnwindRestoresGlobalsAfterDegradedRuns) {
  for (uint64_t At : {50u, 500u}) {
    Program P = parseOk(kNestedBranches);
    AnalysisOptions Opts;
    Opts.Undo = UndoEngine::Snapshot;
    FaultInjector FI(Budget::Steps, At);
    Opts.Injector = &FI;
    InstrumentedInterpreter I(P, Opts);
    ASSERT_TRUE(I.run()) << I.errorMessage();
    I.unwindJournalForTest();
    EXPECT_EQ(I.journalSize(), 0u);
    std::vector<std::string> Leftover = I.userGlobalNames();
    EXPECT_TRUE(Leftover.empty())
        << "steps:" << At << " snapshot undo left global '"
        << Leftover.front() << "'";
  }
}

/// COW pre-image copies charge the same heap-cell budget as ordinary
/// allocations, so a branch-heavy program under a tight budget trips the
/// governor soundly (degraded partial result, not a crash or an overrun).
TEST(SnapshotGovernor, CowCopiesChargeHeapBudget) {
  // Untaken sides keep mutating a broad object graph: every first touch in
  // a counterfactual charges one COW save.
  std::string Source = "var objs = []; var i = 0;\n"
                       "while (i < 40) { objs[i] = {v: i}; i = i + 1; }\n"
                       "var r = 0;\n"
                       "var j = 0;\n"
                       "while (j < 10) {\n"
                       "  if (Math.random() < 0.5) {\n"
                       "    var k = 0;\n"
                       "    while (k < 40) { objs[k].v = j; k = k + 1; }\n"
                       "  } else { r = r + 1; }\n"
                       "  j = j + 1;\n"
                       "}\n";
  // Unlimited budget first: establish that this workload does fork
  // snapshots and save pre-images.
  Program PFree = parseOk(Source);
  AnalysisOptions Free = undoOptions(UndoEngine::Snapshot);
  AnalysisResult RFree = runDeterminacyAnalysis(PFree, Free);
  ASSERT_TRUE(RFree.Ok) << RFree.Error;
  EXPECT_GT(RFree.Stats.SnapshotForks, 0u);
  EXPECT_GT(RFree.Stats.CowCopies, 0u);

  // The journal engine undoes the same branches by replay: it never forks
  // a snapshot frame or copies a pre-image.
  Program PJour = parseOk(Source);
  AnalysisResult RJour =
      runDeterminacyAnalysis(PJour, undoOptions(UndoEngine::Journal));
  ASSERT_TRUE(RJour.Ok) << RJour.Error;
  EXPECT_EQ(RJour.Stats.SnapshotForks, 0u);
  EXPECT_EQ(RJour.Stats.CowCopies, 0u);

  // Now a ceiling well under the free run's save count: the governor must
  // trip on the COW charges and degrade soundly.
  Program PTight = parseOk(Source);
  AnalysisOptions Tight = undoOptions(UndoEngine::Snapshot);
  Tight.MaxHeapCells = 120;
  AnalysisResult RTight = runDeterminacyAnalysis(PTight, Tight);
  ASSERT_TRUE(RTight.Ok) << RTight.Error;
  EXPECT_EQ(RTight.Trap, TrapKind::HeapLimit);
  EXPECT_TRUE(RTight.Degradation.degraded());
}

} // namespace
