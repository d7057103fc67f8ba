//===- InterpreterTest.cpp - Concrete interpreter semantics tests ----------==//

#include "interp/Interpreter.h"

#include "interp/Ops.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace dda;

namespace {

struct RunResult {
  bool Ok;
  std::string Output;
  std::string Error;
};

/// Runs a program and returns its console output.
RunResult run(const std::string &Source, InterpOptions Opts = InterpOptions()) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter I(P, Opts);
  bool Ok = I.run();
  return {Ok, I.outputText(), I.errorMessage()};
}

/// Runs and expects success.
std::string runOutput(const std::string &Source,
                      InterpOptions Opts = InterpOptions()) {
  RunResult R = run(Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

TEST(Interp, ArithmeticAndPrint) {
  EXPECT_EQ(runOutput("print(1 + 2 * 3);"), "7\n");
  EXPECT_EQ(runOutput("print(10 % 4, 10 / 4);"), "2 2.5\n");
  EXPECT_EQ(runOutput("print(\"a\" + 1 + 2);"), "a12\n");
  EXPECT_EQ(runOutput("print(1 + 2 + \"a\");"), "3a\n");
}

TEST(Interp, VariablesAndScopes) {
  EXPECT_EQ(runOutput("var x = 1; x = x + 1; print(x);"), "2\n");
  EXPECT_EQ(runOutput("var x = 1;"
                      "function f() { var x = 2; return x; }"
                      "print(f(), x);"),
            "2 1\n");
}

TEST(Interp, Closures) {
  EXPECT_EQ(runOutput("function mk(n) { return function() { return n; }; }"
                      "var f = mk(7); var g = mk(8);"
                      "print(f(), g());"),
            "7 8\n");
}

TEST(Interp, ClosureSharedMutableState) {
  EXPECT_EQ(runOutput(
                "function counter() {"
                "  var n = 0;"
                "  return function() { n = n + 1; return n; };"
                "}"
                "var c = counter(); c(); c(); print(c());"),
            "3\n");
}

TEST(Interp, Hoisting) {
  EXPECT_EQ(runOutput("print(f()); function f() { return 1; }"), "1\n");
  EXPECT_EQ(runOutput("print(typeof x); var x = 1;"), "undefined\n");
}

TEST(Interp, ObjectsAndPrototypes) {
  EXPECT_EQ(runOutput(
                "function Rect(w, h) { this.w = w; this.h = h; }"
                "Rect.prototype.area = function() { return this.w * this.h; };"
                "var r = new Rect(3, 4);"
                "print(r.area());"),
            "12\n");
}

TEST(Interp, PrototypeChainLookupAndShadowing) {
  EXPECT_EQ(runOutput(
                "function A() {}"
                "A.prototype.x = 1;"
                "var a = new A();"
                "print(a.x);"
                "a.x = 2;"
                "print(a.x, new A().x);"),
            "1\n2 1\n");
}

TEST(Interp, InstanceofAndIn) {
  EXPECT_EQ(runOutput(
                "function A() {} var a = new A();"
                "print(a instanceof A);"
                "print(\"x\" in {x: 1});"
                "print(\"y\" in {x: 1});"),
            "true\ntrue\nfalse\n");
}

TEST(Interp, ComputedPropertyAccess) {
  EXPECT_EQ(runOutput(
                "var o = {};"
                "var k = \"ab\";"
                "o[k + \"c\"] = 5;"
                "print(o.abc);"),
            "5\n");
}

TEST(Interp, DeleteProperty) {
  EXPECT_EQ(runOutput("var o = {x: 1}; delete o.x; print(\"x\" in o);"),
            "false\n");
}

TEST(Interp, Arrays) {
  EXPECT_EQ(runOutput("var a = [1, 2, 3]; print(a.length, a[1]);"), "3 2\n");
  EXPECT_EQ(runOutput("var a = []; a.push(\"x\"); a.push(\"y\");"
                      "print(a.join(\"-\"), a.length);"),
            "x-y 2\n");
  EXPECT_EQ(runOutput("var a = [1, 2]; a[5] = 9; print(a.length);"), "6\n");
  EXPECT_EQ(runOutput("print([1, 2, 3].indexOf(2), [1].indexOf(9));"),
            "1 -1\n");
  EXPECT_EQ(runOutput("print([1, 2, 3, 4].slice(1, 3).join(\",\"));"), "2,3\n");
}

TEST(Interp, StringMethods) {
  EXPECT_EQ(runOutput("print(\"width\"[0].toUpperCase() +"
                      "      \"width\".substr(1));"),
            "Width\n");
  EXPECT_EQ(runOutput("print(\"a,b,c\".split(\",\").length);"), "3\n");
  EXPECT_EQ(runOutput("print(\"hello\".indexOf(\"ll\"));"), "2\n");
  EXPECT_EQ(runOutput("print(\"hello\".length);"), "5\n");
  EXPECT_EQ(runOutput("print(\"a-b\".replace(\"-\", \"+\"));"), "a+b\n");
}

TEST(Interp, ConditionalsAndLogical) {
  EXPECT_EQ(runOutput("print(1 < 2 ? \"y\" : \"n\");"), "y\n");
  EXPECT_EQ(runOutput("print(0 || \"fallback\", 1 && 2);"), "fallback 2\n");
  EXPECT_EQ(runOutput("var o = null; print(o || {x: 1}.x);"), "1\n");
}

TEST(Interp, ShortCircuitSkipsEffects) {
  EXPECT_EQ(runOutput("var n = 0;"
                      "function bump() { n++; return true; }"
                      "var r = false && bump();"
                      "print(n);"),
            "0\n");
}

TEST(Interp, Loops) {
  EXPECT_EQ(runOutput("var s = 0;"
                      "for (var i = 0; i < 5; i++) s += i;"
                      "print(s);"),
            "10\n");
  EXPECT_EQ(runOutput("var i = 0; while (i < 3) i++; print(i);"), "3\n");
  EXPECT_EQ(runOutput("var i = 0; do i++; while (i < 3); print(i);"), "3\n");
}

TEST(Interp, BreakAndContinue) {
  EXPECT_EQ(runOutput("var s = 0;"
                      "for (var i = 0; i < 10; i++) {"
                      "  if (i === 3) continue;"
                      "  if (i === 5) break;"
                      "  s += i;"
                      "}"
                      "print(s);"),
            "7\n"); // 0+1+2+4
}

TEST(Interp, ForInInsertionOrder) {
  EXPECT_EQ(runOutput("var o = {b: 1, a: 2, c: 3};"
                      "var keys = \"\";"
                      "for (var k in o) keys += k;"
                      "print(keys);"),
            "bac\n");
}

TEST(Interp, ForInOverArrayIndices) {
  EXPECT_EQ(runOutput("var a = [\"x\", \"y\"]; var out = \"\";"
                      "for (var i in a) if (i !== \"length\") out += i;"
                      "print(out);"),
            "01\n");
}

TEST(Interp, TryCatchFinally) {
  EXPECT_EQ(runOutput("try { throw \"boom\"; } catch (e) { print(e); }"),
            "boom\n");
  EXPECT_EQ(runOutput("function f() {"
                      "  try { return 1; } finally { print(\"cleanup\"); }"
                      "}"
                      "print(f());"),
            "cleanup\n1\n");
  EXPECT_EQ(runOutput("try { null.x; } catch (e) { print(\"caught\"); }"),
            "caught\n");
}

TEST(Interp, UncaughtExceptionFailsRun) {
  RunResult R = run("throw \"die\";");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("die"), std::string::npos);
}

TEST(Interp, TypeErrorOnNonFunctionCall) {
  RunResult R = run("var x = 3; x();");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not a function"), std::string::npos);
}

TEST(Interp, ReferenceErrorOnUndeclaredRead) {
  RunResult R = run("print(nope);");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("ReferenceError"), std::string::npos);
}

TEST(Interp, SloppyGlobalAssignment) {
  EXPECT_EQ(runOutput("function f() { g = 7; } f(); print(g);"), "7\n");
}

TEST(Interp, TypeofOperator) {
  EXPECT_EQ(runOutput("print(typeof 1, typeof \"s\", typeof true,"
                      "      typeof undefined, typeof null,"
                      "      typeof {}, typeof print);"),
            "number string boolean undefined object object function\n");
  EXPECT_EQ(runOutput("print(typeof undeclared_thing);"), "undefined\n");
}

TEST(Interp, UpdateExpressions) {
  EXPECT_EQ(runOutput("var i = 5; print(i++, i, ++i);"), "5 6 7\n");
  EXPECT_EQ(runOutput("var o = {n: 1}; o.n++; print(o.n);"), "2\n");
}

TEST(Interp, MathBuiltinsDeterministicPart) {
  EXPECT_EQ(runOutput("print(Math.floor(3.7), Math.max(1, 9, 4),"
                      "      Math.pow(2, 10), Math.abs(-3));"),
            "3 9 1024 3\n");
}

TEST(Interp, MathRandomSeedDependence) {
  InterpOptions A;
  A.RandomSeed = 1;
  InterpOptions B;
  B.RandomSeed = 2;
  std::string SA = runOutput("print(Math.random());", A);
  std::string SB = runOutput("print(Math.random());", B);
  std::string SA2 = runOutput("print(Math.random());", A);
  EXPECT_NE(SA, SB);
  EXPECT_EQ(SA, SA2); // Same seed → same run.
}

TEST(Interp, ParseIntAndFriends) {
  EXPECT_EQ(runOutput("print(parseInt(\"42px\"), parseFloat(\"3.5x\"),"
                      "      isNaN(\"abc\"));"),
            "42 3.5 true\n");
  EXPECT_EQ(runOutput("print(String(12) + Number(\"3\"));"), "123\n");
}

TEST(Interp, EvalBasics) {
  EXPECT_EQ(runOutput("print(eval(\"1 + 2\"));"), "3\n");
  EXPECT_EQ(runOutput("var x = 10; print(eval(\"x + 1\"));"), "11\n");
}

TEST(Interp, EvalSeesAndMutatesLocalScope) {
  EXPECT_EQ(runOutput("function f() {"
                      "  var local = 5;"
                      "  eval(\"local = 6;\");"
                      "  return local;"
                      "}"
                      "print(f());"),
            "6\n");
}

TEST(Interp, EvalNonStringPassesThrough) {
  EXPECT_EQ(runOutput("print(eval(42));"), "42\n");
}

TEST(Interp, EvalSyntaxErrorThrows) {
  EXPECT_EQ(runOutput("try { eval(\"var = ;\"); } catch (e) {"
                      "  print(\"caught\");"
                      "}"),
            "caught\n");
}

TEST(Interp, Figure4IvymapPattern) {
  // The paper's Figure 4, with handlers installed so the calls do something
  // observable.
  const char *Source = R"JS(
ivymap = window.ivymap || {};
ivymap['pc.sy.banner.tcck.'] = function() { print("tcck"); };
function showIvyViaJs(locationId) {
  var _f = undefined;
  var _fconv = "ivymap['" + locationId + "']";
  try {
    _f = eval(_fconv);
    if (_f != undefined) {
      _f();
    }
  } catch (e) {
  }
}
showIvyViaJs('pc.sy.banner.tcck.');
showIvyViaJs('pc.sy.banner.duilian.');
)JS";
  EXPECT_EQ(runOutput(Source), "tcck\n");
}

TEST(Interp, Figure3RectangleAccessors) {
  // The paper's Figure 3 accessor-generation idiom, end to end.
  const char *Source = R"JS(
function Rectangle(w, h) {
  this.width = w;
  this.height = h;
}
Rectangle.prototype.toString = function() {
  return "[" + this.width + "x" + this.height + "]";
};
String.prototype.cap = function() {
  return this[0].toUpperCase() + this.substr(1);
};
function defAccessors(prop) {
  Rectangle.prototype["get" + prop.cap()] =
    function() { return this[prop]; };
  Rectangle.prototype["set" + prop.cap()] =
    function(v) { this[prop] = v; };
}
var props = ["width", "height"];
for (var i = 0; i < props.length; i++)
  defAccessors(props[i]);
var r = new Rectangle(20, 30);
r.setWidth(r.getWidth() + 20);
alert(r.toString());
)JS";
  EXPECT_EQ(runOutput(Source), "[40x30]\n");
}

TEST(Interp, Figure2RunsClean) {
  const char *Source = R"JS(
(function() {
  function checkf(p) {
    if (p.f < 32)
      setg(p, 42);
  }
  function setg(r, v) {
    r.g = v;
  }
  var x = { f: 23 },
      y = { f: Math.random() * 100 };
  checkf(x);
  print(x.f, x.g);
  checkf(y);
  (y.f > 50 ? checkf : setg)(x, 72);
  var z = { f: x.g - 16, h: true };
  checkf(z);
})();
)JS";
  EXPECT_EQ(runOutput(Source), "23 42\n");
}

TEST(Interp, StepLimitTriggersOnInfiniteLoop) {
  InterpOptions Opts;
  Opts.MaxSteps = 10'000;
  RunResult R = run("while (true) {}", Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(Interp, CallDepthLimitThrowsCatchably) {
  EXPECT_EQ(runOutput("function f() { return f(); }"
                      "try { f(); } catch (e) { print(\"deep\"); }"),
            "deep\n");
}

TEST(Interp, RecursionFibonacci) {
  EXPECT_EQ(runOutput("function fib(n) {"
                      "  if (n < 2) return n;"
                      "  return fib(n - 1) + fib(n - 2);"
                      "}"
                      "print(fib(12));"),
            "144\n");
}

TEST(Interp, DomWindowPlainProperties) {
  EXPECT_EQ(runOutput("print(window.ivymap === undefined);"), "true\n");
  EXPECT_EQ(runOutput("window.state = 1; print(window.state);"), "1\n");
}

TEST(Interp, DomSyntheticReadsVaryWithDomSeed) {
  InterpOptions A;
  A.DomSeed = 10;
  InterpOptions B;
  B.DomSeed = 20;
  std::string SA = runOutput("print(document.title);", A);
  std::string SB = runOutput("print(document.title);", B);
  std::string SA2 = runOutput("print(document.title);", A);
  EXPECT_NE(SA, SB);
  EXPECT_EQ(SA, SA2);
}

TEST(Interp, DomElementsStableIdentity) {
  EXPECT_EQ(runOutput("var a = document.getElementById(\"x\");"
                      "var b = document.getElementById(\"x\");"
                      "print(a === b);"),
            "true\n");
}

TEST(Interp, DomSetAttributeReadsBack) {
  EXPECT_EQ(runOutput("var el = document.getElementById(\"x\");"
                      "el.setAttribute(\"p\", \"v\");"
                      "print(el.getAttribute(\"p\"));"),
            "v\n");
}

TEST(Interp, EventHandlersRunAfterMain) {
  InterpOptions Opts;
  Opts.ShuffleEventHandlers = false;
  EXPECT_EQ(runOutput("document.addEventListener(\"ready\", function() {"
                      "  print(\"handler\");"
                      "});"
                      "print(\"main\");",
                      Opts),
            "main\nhandler\n");
}

TEST(Interp, EventHandlerOrderDependsOnDomSeed) {
  const char *Source = "document.addEventListener(\"ready\", function() {"
                       "  print(\"1\");"
                       "});"
                       "document.addEventListener(\"load\", function() {"
                       "  print(\"2\");"
                       "});";
  // With shuffling on, some pair of seeds gives different orders.
  bool SawDifferent = false;
  InterpOptions Base;
  std::string First = runOutput(Source, Base);
  for (uint64_t Seed = 2; Seed < 12 && !SawDifferent; ++Seed) {
    InterpOptions O;
    O.DomSeed = Seed;
    if (runOutput(Source, O) != First)
      SawDifferent = true;
  }
  EXPECT_TRUE(SawDifferent);
}

TEST(Interp, GlobalVariableHook) {
  DiagnosticEngine Diags;
  Program P = parseProgram("var answer = 42; var s = \"x\";", Diags);
  Interpreter I(P);
  ASSERT_TRUE(I.run());
  EXPECT_DOUBLE_EQ(I.globalVariable("answer").Num, 42);
  EXPECT_EQ(I.globalVariable("s").strView(), "x");
  EXPECT_TRUE(I.globalVariable("missing").isUndefined());
}

TEST(Interp, ObjectKeysBuiltin) {
  EXPECT_EQ(runOutput("print(Object.keys({a: 1, b: 2}).join(\",\"));"),
            "a,b\n");
}

TEST(Interp, HasOwnProperty) {
  EXPECT_EQ(runOutput("function A() {} A.prototype.p = 1;"
                      "var a = new A(); a.q = 2;"
                      "print(a.hasOwnProperty(\"q\"), a.hasOwnProperty(\"p\"));"),
            "true false\n");
}

TEST(Interp, NamedFunctionExpressionSelfReference) {
  EXPECT_EQ(runOutput("var f = function fact(n) {"
                      "  return n < 2 ? 1 : n * fact(n - 1);"
                      "};"
                      "print(f(5));"),
            "120\n");
}

TEST(Interp, ConstructorReturningObjectWins) {
  EXPECT_EQ(runOutput("function F() { return {marker: 1}; }"
                      "print(new F().marker);"),
            "1\n");
}

TEST(Interp, CompoundAssignOnProperties) {
  EXPECT_EQ(runOutput("var o = {n: 10}; o.n += 5; o.n *= 2; print(o.n);"),
            "30\n");
}

TEST(Interp, RunsEveryExpressionShape) {
  // One of every expression form: literals, vars, members (static and
  // computed), compound assignment, update, delete, typeof,
  // logical/conditional branches, calls, new, eval.
  EXPECT_EQ(runOutput("var o = {a: 1, b: [1, 2, 3]};\n"
                      "function f(x) { return x ? o.a : o['b'][0]; }\n"
                      "o.a += f(2) && f(0) || 3;\n"
                      "function Ctor() { this.tag = 1; }\n"
                      "o.c = new Ctor();\n"
                      "delete o.a;\n"
                      "var t = typeof missing;\n"
                      "o.b[0]++;\n"
                      "print(eval('1 + 1'));\n"),
            "2\n");
}

TEST(Interp, NestedEvalOverlays) {
  // Runtime-parsed ASTs nested through recursion and through eval itself.
  EXPECT_EQ(runOutput("var depth = 0;\n"
                      "function go(n) {\n"
                      "  if (n > 0) { depth = eval('go(' + (n - 1) + "
                      "'); depth + 1'); }\n"
                      "  return depth;\n"
                      "}\n"
                      "print(go(5));\n"
                      "print(eval('eval(\"eval(\\'depth * 10\\')\")'));"
                      "\n"),
            "5\n50\n");
}

} // namespace
