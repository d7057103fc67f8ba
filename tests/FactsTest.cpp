//===- FactsTest.cpp - Fact database unit tests ------------------------------==//

#include "determinacy/Facts.h"

#include "determinacy/Determinacy.h"
#include "parser/Parser.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <gtest/gtest.h>
#include <set>

using namespace dda;

namespace {

FactValue num(double N) {
  FactValue F;
  F.K = FactValue::Number;
  F.Num = N;
  return F;
}

FactValue str(std::string S) {
  FactValue F;
  F.K = FactValue::String;
  F.Str = intern(S);
  return F;
}

TEST(Facts, FirstObservationIsStored) {
  FactDB DB;
  DB.record({1, 0, FactKind::Condition, 0}, num(5));
  const FactValue *F = DB.query({1, 0, FactKind::Condition, 0});
  ASSERT_TRUE(F);
  EXPECT_DOUBLE_EQ(F->Num, 5);
}

TEST(Facts, AgreeingRevisitsStayDeterminate) {
  FactDB DB;
  DB.record({1, 0, FactKind::Assign, 0}, num(5));
  DB.record({1, 0, FactKind::Assign, 0}, num(5));
  EXPECT_TRUE(DB.query({1, 0, FactKind::Assign, 0})->isDeterminate());
}

TEST(Facts, DisagreeingRevisitsDemoteToIndeterminate) {
  FactDB DB;
  DB.record({1, 0, FactKind::Assign, 0}, num(5));
  DB.record({1, 0, FactKind::Assign, 0}, num(6));
  EXPECT_FALSE(DB.query({1, 0, FactKind::Assign, 0})->isDeterminate());
  // Once indeterminate, always indeterminate.
  DB.record({1, 0, FactKind::Assign, 0}, num(5));
  EXPECT_FALSE(DB.query({1, 0, FactKind::Assign, 0})->isDeterminate());
}

TEST(Facts, KeysAreFullyDiscriminated) {
  FactDB DB;
  DB.record({1, 0, FactKind::Assign, 0}, num(1));
  DB.record({1, 1, FactKind::Assign, 0}, num(2)); // Different context.
  DB.record({1, 0, FactKind::CallArg, 0}, num(3)); // Different kind.
  DB.record({1, 0, FactKind::CallArg, 1}, num(4)); // Different index.
  DB.record({2, 0, FactKind::Assign, 0}, num(5));  // Different node.
  EXPECT_EQ(DB.size(), 5u);
  EXPECT_DOUBLE_EQ(DB.query({1, 1, FactKind::Assign, 0})->Num, 2);
  EXPECT_DOUBLE_EQ(DB.query({1, 0, FactKind::CallArg, 1})->Num, 4);
}

TEST(Facts, QueryMissReturnsNull) {
  FactDB DB;
  EXPECT_EQ(DB.query({9, 9, FactKind::EvalArg, 0}), nullptr);
}

TEST(Facts, NaNFactsCompareEqual) {
  // A point that always yields NaN is determinate (NaN is one value here).
  FactDB DB;
  DB.record({1, 0, FactKind::Assign, 0}, num(std::nan("")));
  DB.record({1, 0, FactKind::Assign, 0}, num(std::nan("")));
  EXPECT_TRUE(DB.query({1, 0, FactKind::Assign, 0})->isDeterminate());
}

TEST(Facts, ObjectFactsCompareByAllocationSite) {
  FactValue A, B, C;
  A.K = B.K = C.K = FactValue::Object;
  A.Node = 10;
  B.Node = 10;
  C.Node = 11;
  EXPECT_TRUE(A.sameAs(B));
  EXPECT_FALSE(A.sameAs(C));
  // Runtime-created objects (site 0) never match, even themselves.
  FactValue R1, R2;
  R1.K = R2.K = FactValue::Object;
  EXPECT_FALSE(R1.sameAs(R2));
}

TEST(Facts, MergeKeepsUnionAndDemotesConflicts) {
  FactDB A, B;
  A.record({1, 0, FactKind::Assign, 0}, num(1));
  A.record({2, 0, FactKind::Assign, 0}, num(2));
  B.record({2, 0, FactKind::Assign, 0}, num(99)); // Conflict.
  B.record({3, 0, FactKind::Assign, 0}, num(3));  // New.
  A.merge(B);
  EXPECT_EQ(A.size(), 3u);
  EXPECT_TRUE(A.query({1, 0, FactKind::Assign, 0})->isDeterminate());
  EXPECT_FALSE(A.query({2, 0, FactKind::Assign, 0})->isDeterminate());
  EXPECT_TRUE(A.query({3, 0, FactKind::Assign, 0})->isDeterminate());
}

TEST(Facts, CountsByKindAndDeterminacy) {
  FactDB DB;
  DB.record({1, 0, FactKind::Condition, 0}, num(1));
  DB.record({2, 0, FactKind::Condition, 0}, FactValue::indet());
  DB.record({3, 0, FactKind::EvalArg, 0}, str("x"));
  EXPECT_EQ(DB.countOfKind(FactKind::Condition), 2u);
  EXPECT_EQ(DB.countOfKind(FactKind::EvalArg), 1u);
  EXPECT_EQ(DB.countDeterminate(), 2u);
}

TEST(Facts, RenderingMatchesPaperNotation) {
  EXPECT_EQ(num(23).str(), "23");
  EXPECT_EQ(str("width").str(), "\"width\"");
  EXPECT_EQ(FactValue::indet().str(), "?");
  FactValue B;
  B.K = FactValue::Boolean;
  B.B = true;
  EXPECT_EQ(B.str(), "true");
  FactValue Fn;
  Fn.K = FactValue::Function;
  Fn.Node = 12;
  EXPECT_EQ(Fn.str(), "function@12");
}

TEST(Facts, DumpIsStableAndComplete) {
  FactDB DB;
  ContextTable Contexts;
  ContextID C = Contexts.intern(ContextTable::Root, 5, 0, 16);
  DB.record({7, C, FactKind::Condition, 0}, num(1));
  DB.record({3, ContextTable::Root, FactKind::EvalArg, 0}, str("a"));
  std::string Dump = DB.dump(Contexts);
  EXPECT_NE(Dump.find("node3"), std::string::npos);
  EXPECT_NE(Dump.find("node7"), std::string::npos);
  EXPECT_NE(Dump.find("16"), std::string::npos);
  // node3 sorts before node7.
  EXPECT_LT(Dump.find("node3"), Dump.find("node7"));
}

TEST(Facts, UniformAgreesAcrossContexts) {
  FactDB DB;
  DB.record({1, 10, FactKind::Condition, 0}, num(1));
  DB.record({1, 11, FactKind::Condition, 0}, num(1));
  const FactValue *U = UniformFacts(DB).get(FactKind::Condition, 1);
  ASSERT_TRUE(U);
  EXPECT_DOUBLE_EQ(U->Num, 1);
}

TEST(Facts, UniformRejectsDisagreementOrIndeterminacy) {
  FactDB DB;
  DB.record({1, 10, FactKind::Condition, 0}, num(1));
  DB.record({1, 11, FactKind::Condition, 0}, num(2));
  EXPECT_EQ(UniformFacts(DB).get(FactKind::Condition, 1), nullptr);

  FactDB DB2;
  DB2.record({1, 10, FactKind::Condition, 0}, num(1));
  DB2.record({1, 11, FactKind::Condition, 0}, FactValue::indet());
  UniformFacts U2(DB2);
  EXPECT_EQ(U2.get(FactKind::Condition, 1), nullptr);
  // Unobserved points have no uniform fact.
  EXPECT_EQ(U2.get(FactKind::EvalArg, 99), nullptr);
}

/// The definition UniformFacts replaces: a scan of every fact, folding the
/// matches at (Kind, Node) in table order.
const FactValue *uniformByScan(const FactDB &DB, FactKind Kind, NodeID Node) {
  const FactValue *Found = nullptr;
  for (const auto &[Key, Val] : DB.all()) {
    if (Key.Node != Node || Key.Kind != Kind)
      continue;
    if (!Val.isDeterminate())
      return nullptr;
    if (Found && !Found->sameAs(Val))
      return nullptr;
    Found = &Val;
  }
  return Found;
}

TEST(Facts, UniformIndexMatchesScanOnWorkloads) {
  std::vector<std::string> Sources = {
      workloads::figure1(), workloads::figure2(), workloads::figure3(),
      workloads::figure4()};
  for (int Minor = 0; Minor <= 3; ++Minor)
    Sources.push_back(workloads::miniquery(Minor));
  for (const auto &B : workloads::evalSuite())
    Sources.push_back(B.Source);
  size_t Points = 0, Determinate = 0;
  for (const std::string &Source : Sources) {
    DiagnosticEngine Diags;
    Program P = parseProgram(Source, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    for (bool DetDom : {false, true}) {
      AnalysisOptions Opts;
      Opts.DeterminateDom = DetDom;
      AnalysisResult A = runDeterminacyAnalysis(P, Opts);
      UniformFacts U(A.Facts);
      std::set<std::pair<FactKind, NodeID>> Seen;
      for (const auto &[Key, Val] : A.Facts.all()) {
        if (!Seen.insert({Key.Kind, Key.Node}).second)
          continue;
        const FactValue *Expected = uniformByScan(A.Facts, Key.Kind, Key.Node);
        ASSERT_EQ(U.get(Key.Kind, Key.Node), Expected)
            << factKindName(Key.Kind) << " node" << Key.Node;
        ++Points;
        Determinate += Expected != nullptr;
      }
    }
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(Determinate, 0u);
  EXPECT_GT(Points, Determinate);
}

} // namespace
