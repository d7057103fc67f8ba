//===- Interpreter.h - Concrete big-step interpreter for MiniJS --*- C++ -*-==//
///
/// \file
/// The concrete semantics of MiniJS (paper Figure 8, extended from µJS to the
/// full subset: prototypes, exceptions, loops with break/continue, for-in,
/// eval, and a synthetic DOM). This interpreter is the ground truth that the
/// instrumented interpreter's determinacy facts are checked against: running
/// it with different `RandomSeed`/`DomSeed` values simulates the "other
/// executions" quantified over in Theorem 1.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_INTERP_INTERPRETER_H
#define DDA_INTERP_INTERPRETER_H

#include "ast/ASTContext.h"
#include "interp/Builtins.h"
#include "interp/Environment.h"
#include "interp/Heap.h"
#include "interp/Value.h"
#include "support/Diagnostics.h"
#include "support/FlatMap.h"
#include "support/RNG.h"
#include "support/ResourceGovernor.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace dda {

class FaultInjector;

/// Tunables for a concrete run.
struct InterpOptions {
  uint64_t RandomSeed = 1; ///< Seed for Math.random (program input).
  uint64_t DomSeed = 1;    ///< Seed for synthetic DOM content (environment).
  uint64_t MaxSteps = 50'000'000;
  uint64_t DeadlineMs = 0;   ///< Wall-clock budget; 0 = none.
  uint64_t MaxHeapCells = 0; ///< Heap-cell budget; 0 = unlimited.
  unsigned MaxCallDepth = 600;
  unsigned MaxEvalDepth = 64; ///< Nested eval budget; 0 = unlimited.
  bool RunEventHandlers = true;
  /// Permute event-handler firing order using DomSeed (events "can fire in
  /// any order", Section 4).
  bool ShuffleEventHandlers = true;
  /// Optional deterministic fault injector (not owned; may be null).
  FaultInjector *Injector = nullptr;

  GovernorLimits governorLimits() const {
    GovernorLimits L;
    L.MaxSteps = MaxSteps;
    L.DeadlineMs = DeadlineMs;
    L.MaxHeapCells = MaxHeapCells;
    L.MaxCallDepth = MaxCallDepth;
    L.MaxEvalDepth = MaxEvalDepth;
    return L;
  }
};

/// How a statement or expression finished.
///
/// `Fatal` means the run cannot continue; `Trap` distinguishes *why*: a
/// resource-budget trip (TrapKind::StepLimit, Deadline, ...) is an expected,
/// recoverable condition callers may degrade on, while
/// TrapKind::InternalError marks a genuine interpreter invariant violation.
struct Completion {
  enum Kind : uint8_t { Normal, Return, Break, Continue, Throw, Fatal } K =
      Normal;
  Value V; ///< Return value / thrown value; Fatal carries a message string.
  TrapKind Trap = TrapKind::None; ///< Set iff K == Fatal.

  bool isAbrupt() const { return K != Normal; }
  static Completion normal() { return Completion(); }
  static Completion ret(Value V) { return {Return, std::move(V)}; }
  static Completion thrown(Value V) { return {Throw, std::move(V)}; }
  /// An interpreter bug (malformed AST, broken invariant).
  static Completion fatal(std::string Message) {
    return {Fatal, Value::string(std::move(Message)), TrapKind::InternalError};
  }
  /// A typed trap (resource trip); carries a message for human output.
  static Completion trap(TrapKind Kind, std::string Message) {
    return {Fatal, Value::string(std::move(Message)), Kind};
  }
};

/// Result of evaluating an expression: a value, or an abrupt completion.
struct EvalResult {
  Completion C;
  Value V;

  bool abrupt() const { return C.isAbrupt(); }
  static EvalResult value(Value V) { return {Completion::normal(), std::move(V)}; }
  static EvalResult abruptly(Completion C) { return {std::move(C), Value()}; }
};

/// The concrete interpreter. One instance runs one program once.
class Interpreter : public NativeHost {
public:
  Interpreter(Program &P, InterpOptions Opts = InterpOptions());
  ~Interpreter() override;

  /// Runs the program (top-level code, then registered event handlers).
  /// Returns false on a fatal condition or an uncaught exception; see
  /// errorMessage().
  bool run();

  const std::string &outputText() const { return Output; }
  const std::string &errorMessage() const { return Error; }
  uint64_t stepsUsed() const { return Gov.stepsUsed(); }

  /// Why run() failed: a typed resource trap, an internal error, or
  /// TrapKind::None (success or ordinary uncaught exception).
  TrapKind trapKind() const { return Trap; }
  const ResourceGovernor &governor() const { return Gov; }

  /// Reads a global variable (test hook).
  Value globalVariable(const std::string &Name);
  /// Names of all user-created global variables (test hook).
  std::vector<std::string> userGlobalNames();
  /// Reads a property off an object value (test hook; follows prototypes).
  Value property(const Value &Base, const std::string &Name);

  // NativeHost implementation.
  Heap &heap() override { return TheHeap; }
  RNG &randomRng() override { return RandomRng; }
  RNG &domRng() override { return DomRng; }
  void nativeWriteProperty(ObjectRef O, StringId Name,
                           TaggedValue TV) override;
  TaggedValue nativeReadProperty(ObjectRef O, StringId Name) override;
  void output(const std::string &Text) override;
  void registerEventHandler(StringId Event, Value Handler) override;
  ObjectRef domElement(StringId Key) override;
  uint64_t domSeed() const override { return Opts.DomSeed; }
  ObjectRef newArray() override;
  Det recordSetDeterminacy(ObjectRef O) override;

private:
  friend class InterpreterTestPeer;

  // Setup.
  void installGlobals();
  ObjectRef makeNative(NativeFn Fn);
  ObjectRef makeFunction(const FunctionExpr *Fn, EnvRef Closure);

  // Statements.
  Completion execStmt(const Stmt *S);
  Completion execBlockBody(const std::vector<Stmt *> &Body);
  void hoist(const std::vector<Stmt *> &Body, EnvRef Env);
  void hoistStmt(const Stmt *S, EnvRef Env);

  // Expressions.
  EvalResult evalExpr(const Expr *E);
  EvalResult evalCall(const CallExpr *E);
  EvalResult evalNew(const NewExpr *E);
  EvalResult evalMember(const MemberExpr *E);
  EvalResult evalAssign(const AssignExpr *E);
  EvalResult evalUpdate(const UpdateExpr *E);
  EvalResult evalEval(const std::vector<Value> &Args);

  // Helpers.
  EvalResult getProperty(const Value &Base, StringId Name);
  Completion setProperty(const Value &Base, StringId Name, Value V);
  EvalResult callValue(const Value &Callee, const Value &ThisV,
                       const std::vector<Value> &Args);
  EvalResult callClosure(ObjectRef FnObj, const Value &ThisV,
                         const std::vector<Value> &Args);
  StringId propertyKey(const Value &V);
  /// Per-step governor checkpoint; defined inline because it runs once per
  /// AST node (the hottest call in the system).
  bool tick(Completion &C) {
    if (Gov.tickStep())
      return true;
    C = trapCompletion();
    return false;
  }
  Completion trapCompletion();
  Completion throwTypeError(const std::string &Message);

  Program &Prog;
  InterpOptions Opts;
  ResourceGovernor Gov;
  Heap TheHeap;
  EnvArena Envs;
  RNG RandomRng;
  RNG DomRng;

  EnvRef GlobalEnv = 0;
  EnvRef CurrentEnv = 0;
  Value CurrentThis;
  TrapKind Trap = TrapKind::None;

  // Shared prototype / builtin objects.
  ObjectRef ObjectProto = 0;
  ObjectRef StringProto = 0;
  ObjectRef ArrayProto = 0;
  ObjectRef EvalFn = 0;
  ObjectRef WindowObj = 0;
  ObjectRef DocumentObj = 0;

  FlatMap<StringId, ObjectRef> DomElements;
  std::vector<std::pair<StringId, Value>> EventHandlers;

  std::string Output;
  std::string Error;
  /// Completion value of the most recent ExpressionStmt (for eval).
  Value LastStmtValue;
};

} // namespace dda

#endif // DDA_INTERP_INTERPRETER_H
