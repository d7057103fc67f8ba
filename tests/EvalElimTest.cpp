//===- EvalElimTest.cpp - Section 5.2 eval-elimination tests ---------------==//
///
/// Locks in the eval-elimination experiment: per-program outcomes and the
/// paper's aggregate counts — the unevalizer baseline handles 19/28, our
/// analysis handles 14 of the 24 runnable programs (including 6 the baseline
/// cannot), and the determinate-DOM assumption raises that to 20. The
/// failure breakdown matches the paper: 1 genuinely indeterminate argument,
/// 4 uncovered uses, 1 DOM-flush-indeterminate callee, 4 loop bounds (3 of
/// them DOM-caused).
///
//===----------------------------------------------------------------------===//

#include "evalelim/EvalElim.h"

#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <map>

using namespace dda;
using workloads::EvalBenchmark;

namespace dda::workloads {
// Without a printer gtest prints the parameter as raw bytes; the Name pointer
// among them would put the load address into every test's name, making the
// names differ from one build (and one run) to the next.
void PrintTo(const EvalBenchmark &B, std::ostream *OS) { *OS << B.Name; }
} // namespace dda::workloads

namespace {

class EvalSuiteTest : public ::testing::TestWithParam<EvalBenchmark> {};

TEST_P(EvalSuiteTest, MatchesExpectedOutcomes) {
  const EvalBenchmark &B = GetParam();

  UnevalizerResult U = runUnevalizer(B.Source);
  EXPECT_TRUE(U.ParseOk) << B.Name;
  EXPECT_EQ(U.Handled, B.ExpectedUnevalizer) << B.Name;

  if (!B.Runnable)
    return; // Static baseline only.

  EvalElimResult Spec = runEvalElimination(B.Source);
  if (B.MissingCode) {
    EXPECT_FALSE(Spec.Ran) << B.Name << " should fail to run";
    return;
  }
  ASSERT_TRUE(Spec.Ran) << B.Name << ": " << Spec.RunError;
  EXPECT_EQ(Spec.Handled, B.ExpectedSpec) << B.Name;

  EvalElimOptions DetDom;
  DetDom.DeterminateDom = true;
  EvalElimResult Det = runEvalElimination(B.Source, DetDom);
  ASSERT_TRUE(Det.Ran) << B.Name;
  EXPECT_EQ(Det.Handled, B.ExpectedSpecDetDom) << B.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EvalSuiteTest, ::testing::ValuesIn(workloads::evalSuite()),
    [](const ::testing::TestParamInfo<EvalBenchmark> &Info) {
      return std::string(Info.param.Name);
    });

TEST(EvalElim, AggregateCountsMatchPaper) {
  unsigned Unevalizer = 0, Spec = 0, DetDom = 0, Runnable = 0;
  unsigned SpecWinsOverUnevalizer = 0;
  for (const EvalBenchmark &B : workloads::evalSuite()) {
    if (runUnevalizer(B.Source).Handled)
      ++Unevalizer;
    if (!B.Runnable || B.MissingCode)
      continue;
    ++Runnable;
    EvalElimResult S = runEvalElimination(B.Source);
    bool SpecHandled = S.Ran && S.Handled;
    if (SpecHandled) {
      ++Spec;
      if (!runUnevalizer(B.Source).Handled)
        ++SpecWinsOverUnevalizer;
    }
    EvalElimOptions O;
    O.DeterminateDom = true;
    EvalElimResult D = runEvalElimination(B.Source, O);
    if (D.Ran && D.Handled)
      ++DetDom;
  }
  EXPECT_EQ(Unevalizer, 19u); // "eliminate all uses of eval in 19 of 28"
  EXPECT_EQ(Runnable, 24u);   // 28 − 3 missing code − 1 unrunnable
  EXPECT_EQ(Spec, 14u);       // "on 14 out of the remaining 24 programs"
  EXPECT_EQ(SpecWinsOverUnevalizer, 6u); // "six programs that unevalizer
                                         //  cannot handle"
  EXPECT_EQ(DetDom, 20u);     // "allowing it to handle 20 benchmarks"
}

TEST(EvalElim, FailureBreakdownMatchesPaper) {
  // Collect the dominant outcome per failing runnable program (without
  // DetDOM): 1 indeterminate argument, 4 not covered, 1 indeterminate
  // callee, 4 loop bounds.
  std::map<EvalOutcome, unsigned> Breakdown;
  for (const EvalBenchmark &B : workloads::evalSuite()) {
    if (!B.Runnable || B.MissingCode)
      continue;
    EvalElimResult R = runEvalElimination(B.Source);
    ASSERT_TRUE(R.Ran) << B.Name;
    if (R.Handled)
      continue;
    ASSERT_FALSE(R.Sites.empty()) << B.Name;
    // Take the worst (non-eliminated) site outcome as the program's reason.
    for (const EvalSiteInfo &S : R.Sites)
      if (S.Outcome != EvalOutcome::Eliminated &&
          S.Outcome != EvalOutcome::Unreachable) {
        ++Breakdown[S.Outcome];
        break;
      }
  }
  EXPECT_EQ(Breakdown[EvalOutcome::IndeterminateArgument], 1u);
  EXPECT_EQ(Breakdown[EvalOutcome::NotCovered], 4u);
  EXPECT_EQ(Breakdown[EvalOutcome::IndeterminateCallee], 1u);
  EXPECT_EQ(Breakdown[EvalOutcome::LoopBound], 4u);
}

TEST(EvalElim, DetDomRecoversExactlyTheDomFailures) {
  // The six DetDOM recoveries: 2 unreachable-code detections, the flushed
  // callee, and the 3 DOM-bounded loops.
  unsigned Recovered = 0;
  for (const EvalBenchmark &B : workloads::evalSuite()) {
    if (!B.Runnable || B.MissingCode)
      continue;
    if (!B.ExpectedSpec && B.ExpectedSpecDetDom)
      ++Recovered;
  }
  EXPECT_EQ(Recovered, 6u);
}

TEST(EvalElim, SiteOutcomesForFigure4) {
  EvalElimResult R = runEvalElimination(workloads::figure4());
  ASSERT_TRUE(R.Ran) << R.RunError;
  EXPECT_TRUE(R.Handled);
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Outcome, EvalOutcome::Eliminated);
  EXPECT_GE(R.Spec.EvalsSpliced, 2u); // Once per clone.
}

TEST(EvalElim, UnevalizerConstantFolding) {
  // Literal and single-assignment folding.
  EXPECT_TRUE(runUnevalizer("eval(\"1\");").Handled);
  EXPECT_TRUE(runUnevalizer("eval(\"a\" + \"b\");").Handled);
  EXPECT_TRUE(runUnevalizer("var c = \"x = \" + 1; eval(c);").Handled);
  // Reassignment defeats it.
  EXPECT_FALSE(
      runUnevalizer("var c = \"1\"; c = \"2\"; eval(c);").Handled);
  // Parameters defeat it.
  EXPECT_FALSE(
      runUnevalizer("function f(p) { eval(\"x\" + p); } f(\"1\");").Handled);
  // Invalid code in the constant defeats it.
  EXPECT_FALSE(runUnevalizer("eval(\"var = ;\");").Handled);
  // No eval at all: trivially handled.
  EXPECT_TRUE(runUnevalizer("var x = 1;").Handled);
}

TEST(EvalElim, UnevalizerSeesThroughAliases) {
  // TAJS-style points-to lets the baseline handle aliased eval with constant
  // arguments.
  EXPECT_TRUE(
      runUnevalizer("var lib = {e: eval}; lib.e(\"1 + 1\");").Handled);
  // But a polluted callee set is not provably eval-only.
  EXPECT_FALSE(runUnevalizer("function other() {}"
                             "var f = c ? eval : other; f(\"1\");"
                             "var c = true;")
                   .Handled);
}

TEST(EvalElim, ParseErrorReported) {
  EvalElimResult R = runEvalElimination("var = ;");
  EXPECT_FALSE(R.Ran);
  EXPECT_NE(R.RunError.find("parse error"), std::string::npos);
}

} // namespace
