//===- PointsToTest.cpp - Static pointer analysis unit tests ---------------==//

#include "pointsto/PointsTo.h"

#include "ast/ASTWalk.h"
#include "determinacy/Determinacy.h"
#include "parser/Parser.h"
#include "specialize/Specializer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace dda;

namespace {

Program parse(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return P;
}

/// Targets of the first call expression on the given line.
std::set<NodeID> targetsOnLine(const Program &P, const PointsToResult &R,
                               uint32_t Line) {
  const Node *Call = findNodeOnLine(P, NodeKind::Call, Line);
  if (!Call)
    Call = findNodeOnLine(P, NodeKind::New, Line);
  EXPECT_TRUE(Call) << "no call on line " << Line;
  if (!Call)
    return {};
  auto It = R.CallTargets.find(Call->getID());
  return It == R.CallTargets.end() ? std::set<NodeID>() : It->second;
}

NodeID functionNamed(const Program &P, const std::string &Name) {
  const Node *N = findNode(P, [&](const Node *N) {
    const auto *F = dyn_cast<FunctionExpr>(N);
    return F && F->getName() == Name;
  });
  EXPECT_TRUE(N) << "no function named " << Name;
  return N ? N->getID() : 0;
}

TEST(PointsTo, DirectCallResolves) {
  Program P = parse("function f() { return 1; }\n"
                    "f();\n");
  PointsToResult R = runPointsToAnalysis(P);
  ASSERT_TRUE(R.Completed);
  auto T = targetsOnLine(P, R, 2);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "f")});
}

TEST(PointsTo, CallThroughVariable) {
  Program P = parse("var g = function inner() { return 1; };\n"
                    "g();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 2);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "inner")});
}

TEST(PointsTo, HigherOrderFlow) {
  Program P = parse("function apply(fn) { return fn(); }\n"
                    "function a() { return 1; }\n"
                    "apply(a);\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 1); // fn() inside apply
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "a")});
}

TEST(PointsTo, MethodCallThroughObject) {
  Program P = parse("var o = {m: function m1() { return 1; }};\n"
                    "o.m();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 2);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "m1")});
}

TEST(PointsTo, PrototypeMethodResolution) {
  Program P = parse("function A() {}\n"
                    "A.prototype.m = function meth() { return 1; };\n"
                    "var a = new A();\n"
                    "a.m();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto New = targetsOnLine(P, R, 3);
  EXPECT_EQ(New, std::set<NodeID>{functionNamed(P, "A")});
  auto T = targetsOnLine(P, R, 4);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "meth")});
}

TEST(PointsTo, ComputedWriteSmearsAcrossProperties) {
  // The precision cliff of Section 2.2: a computed write makes *both*
  // functions possible targets of o.a().
  Program P = parse("var o = {};\n"
                    "o.a = function fa() {};\n"
                    "o[somename] = function fb() {};\n"
                    "o.a();\n"
                    "var somename = \"b\";\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 4);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_TRUE(T.count(functionNamed(P, "fa")));
  EXPECT_TRUE(T.count(functionNamed(P, "fb")));
}

TEST(PointsTo, StringLiteralComputedAccessIsPrecise) {
  Program P = parse("var o = {};\n"
                    "o[\"a\"] = function fa() {};\n"
                    "o[\"b\"] = function fb() {};\n"
                    "o.a();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 4);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "fa")});
}

TEST(PointsTo, UnreachableFunctionNotAnalyzed) {
  // Lazy code (the jQuery 1.2 effect): functions never called contribute no
  // call edges.
  Program P = parse("function lazy() { heavyHelper(); }\n"
                    "function heavyHelper() {}\n"
                    "var x = 1;\n");
  PointsToResult R = runPointsToAnalysis(P);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReachableFunctions, 0u);
  EXPECT_TRUE(R.CallTargets.empty());
}

TEST(PointsTo, EventHandlerCallbackIsReachable) {
  Program P = parse("document.addEventListener(\"ready\", function h() {\n"
                    "  helper();\n"
                    "});\n"
                    "function helper() {}\n");
  PointsToResult R = runPointsToAnalysis(P);
  EXPECT_EQ(R.ReachableFunctions, 2u); // h and helper.
}

TEST(PointsTo, EventHandlerModelCanBeDisabled) {
  Program P = parse("document.addEventListener(\"ready\", function h() {\n"
                    "  helper();\n"
                    "});\n"
                    "function helper() {}\n");
  PointsToOptions Opts;
  Opts.ModelEventHandlers = false;
  PointsToResult R = runPointsToAnalysis(P, Opts);
  EXPECT_EQ(R.ReachableFunctions, 0u);
}

TEST(PointsTo, EvalCallSitesDetected) {
  Program P = parse("eval(\"1 + 2\");\n"
                    "var e2 = eval;\n"
                    "e2(\"3\");\n"
                    "function notEval() {} notEval();\n");
  PointsToResult R = runPointsToAnalysis(P);
  EXPECT_EQ(R.EvalOnlyCallSites.size(), 2u);
  EXPECT_EQ(R.EvalMaybeCallSites.size(), 2u);
}

TEST(PointsTo, EvalAliasedWithOtherFunctionIsOnlyMaybe) {
  Program P = parse("function other() {}\n"
                    "var f = flag ? eval : other;\n"
                    "f(\"1\");\n"
                    "var flag = true;\n");
  PointsToResult R = runPointsToAnalysis(P);
  EXPECT_EQ(R.EvalOnlyCallSites.size(), 0u);
  EXPECT_EQ(R.EvalMaybeCallSites.size(), 1u);
}

TEST(PointsTo, ClosureCapturedVariables) {
  Program P = parse("function mk() {\n"
                    "  var captured = function inner() {};\n"
                    "  return function get() { return captured; };\n"
                    "}\n"
                    "var g = mk();\n"
                    "var i = g();\n"
                    "i();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 7);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "inner")});
}

TEST(PointsTo, ReturnValueFlow) {
  Program P = parse("function mk() { return function made() {}; }\n"
                    "mk()();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 2);
  // Two calls on line 2: mk() and the result call; targetsOnLine finds the
  // outer one first (pre-order). Check both targets exist somewhere.
  size_t Edges = 0;
  for (const auto &[Site, Targets] : R.CallTargets)
    Edges += Targets.size();
  EXPECT_EQ(Edges, 2u);
  (void)T;
}

TEST(PointsTo, ThrowCatchFlow) {
  Program P = parse("function boom() {}\n"
                    "try { throw boom; } catch (e) { e(); }\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 2);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "boom")});
}

TEST(PointsTo, ArrayElementFlow) {
  Program P = parse("var fns = [function f0() {}, function f1() {}];\n"
                    "fns[0]();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 2);
  // Array elements are merged (★ field): both functions are targets.
  EXPECT_EQ(T.size(), 2u);
}

TEST(PointsTo, BudgetExhaustionReportsIncomplete) {
  Program P = parse("function f() { return 1; } f();");
  PointsToOptions Opts;
  Opts.MaxPropagationSteps = 3;
  PointsToResult R = runPointsToAnalysis(P, Opts);
  EXPECT_FALSE(R.Completed);
}

void expectSameResult(const PointsToResult &A, const PointsToResult &B,
                      const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.Completed, B.Completed);
  EXPECT_EQ(A.PropagationSteps, B.PropagationSteps);
  EXPECT_EQ(A.NumAbstractObjects, B.NumAbstractObjects);
  EXPECT_EQ(A.NumConstraintVars, B.NumConstraintVars);
  EXPECT_EQ(A.NumCopyEdges, B.NumCopyEdges);
  EXPECT_EQ(A.ReachableFunctions, B.ReachableFunctions);
  EXPECT_EQ(A.TotalPointsToSize, B.TotalPointsToSize);
  EXPECT_EQ(A.AvgPointsToSize, B.AvgPointsToSize);
  EXPECT_EQ(A.CallTargets, B.CallTargets);
  EXPECT_EQ(A.CallGraphEdges, B.CallGraphEdges);
  EXPECT_EQ(A.PolymorphicCallSites, B.PolymorphicCallSites);
  EXPECT_EQ(A.AvgCallTargets, B.AvgCallTargets);
  EXPECT_EQ(A.EvalOnlyCallSites, B.EvalOnlyCallSites);
  EXPECT_EQ(A.EvalMaybeCallSites, B.EvalMaybeCallSites);
}

TEST(PointsTo, BudgetBoundaryIsExact) {
  // A run that needs S insertions completes under a budget of S and stops
  // under S - 1 on its (S)th insertion: the budget counts logical
  // insertions, however the solver batches them.
  std::vector<std::pair<std::string, Program>> Inputs;
  for (int Minor = 0; Minor <= 3; ++Minor) {
    std::string Name = "miniquery 1." + std::to_string(Minor);
    Program P = parse(workloads::miniquery(Minor));
    for (bool DetDom : {false, true}) {
      AnalysisOptions Opts;
      Opts.DeterminateDom = DetDom;
      AnalysisResult A = runDeterminacyAnalysis(P, Opts);
      Inputs.emplace_back(Name + (DetDom ? " Spec+DetDOM" : " Spec"),
                          std::move(specializeProgram(P, A).Residual));
    }
    Inputs.emplace_back(Name, std::move(P));
  }
  const char *Figures[] = {workloads::figure1(), workloads::figure2(),
                           workloads::figure3(), workloads::figure4()};
  for (int I = 0; I < 4; ++I)
    Inputs.emplace_back("figure " + std::to_string(I + 1), parse(Figures[I]));
  for (const auto &B : workloads::evalSuite())
    if (B.Runnable)
      Inputs.emplace_back(B.Name, parse(B.Source));

  for (const auto &[Name, P] : Inputs) {
    PointsToResult Full = runPointsToAnalysis(P);
    ASSERT_TRUE(Full.Completed) << Name;
    uint64_t S = Full.PropagationSteps;
    ASSERT_GT(S, 0u) << Name;
    PointsToOptions Opts;
    Opts.MaxPropagationSteps = S;
    expectSameResult(runPointsToAnalysis(P, Opts), Full, Name + " at S");
    Opts.MaxPropagationSteps = S - 1;
    PointsToResult Short = runPointsToAnalysis(P, Opts);
    EXPECT_FALSE(Short.Completed) << Name;
    EXPECT_EQ(Short.PropagationSteps, S) << Name;
  }
}

TEST(PointsTo, StringMethodReceiverResolution) {
  // Monkey-patched String.prototype methods resolve on string receivers
  // (the Figure 3 `prop.cap()` pattern).
  Program P = parse("String.prototype.cap = function cap() { return 1; };\n"
                    "var s = \"x\";\n"
                    "s.cap();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 3);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "cap")});
}

TEST(PointsTo, PolymorphicCallSiteMetric) {
  Program P = parse("function a() {} function b() {}\n"
                    "var f = c ? a : b;\n"
                    "f();\n"
                    "var c = 1;\n");
  PointsToResult R = runPointsToAnalysis(P);
  EXPECT_EQ(R.PolymorphicCallSites, 1u);
  EXPECT_DOUBLE_EQ(R.AvgCallTargets, 2.0);
}

TEST(PointsTo, ArrayPushFlowsToElements) {
  Program P = parse("var fns = [];\n"
                    "fns.push(function pushed() {});\n"
                    "fns[0]();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 3);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "pushed")});
}

TEST(PointsTo, ArrayPopDrawsFromElements) {
  Program P = parse("var fns = [function popped() {}];\n"
                    "var f = fns.pop();\n"
                    "f();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 3);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "popped")});
}

TEST(PointsTo, ArrayConcatAndSliceMergeElements) {
  Program P = parse("var a = [function fa() {}];\n"
                    "var b = a.concat([function fb() {}]);\n"
                    "var c = b.slice(0);\n"
                    "c[0]();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 4);
  EXPECT_EQ(T.size(), 2u);
}

TEST(PointsTo, MultiLevelPrototypeChain) {
  Program P = parse("function A() {}\n"
                    "A.prototype.m = function am() {};\n"
                    "function B() {}\n"
                    "B.prototype = new A();\n"
                    "var b = new B();\n"
                    "b.m();\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 6);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "am")});
}

TEST(PointsTo, LateFieldWiringReachesEarlierUnknownLoads) {
  // The unknown-name load is processed before the field exists; the solver
  // must wire the later-created field back into the load's sink.
  Program P = parse("var o = {};\n"
                    "function use(k) { return o[k](); }\n"
                    "use(\"later\");\n"
                    "o.later = function lateFn() {};\n");
  PointsToResult R = runPointsToAnalysis(P);
  auto T = targetsOnLine(P, R, 2);
  EXPECT_EQ(T, std::set<NodeID>{functionNamed(P, "lateFn")});
}

TEST(PointsTo, ResidualProgramsAnalyzeIndependently) {
  // Clones with fresh node ids must not collide with original sites.
  Program P = parse("function f(x) { return x; }\n"
                    "f(function one() {});\n"
                    "f(function two() {});\n");
  PointsToResult R = runPointsToAnalysis(P);
  // Context-insensitive: both closures flow through f's parameter.
  size_t Total = 0;
  for (const auto &[Site, Targets] : R.CallTargets)
    Total += Targets.size();
  EXPECT_EQ(Total, 2u); // Two call edges to f.
}

} // namespace
