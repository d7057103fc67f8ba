//===- Specializer.cpp ----------------------------------------------------==//

#include "specialize/Specializer.h"

#include "ast/ASTWalk.h"
#include "determinacy/InstrumentedInterpreter.h"
#include "parser/Parser.h"
#include "support/StringUtils.h"

#include <cassert>
#include <map>

using namespace dda;

namespace {

/// True for expressions whose evaluation has no observable effect, so a
/// pruned branch may drop them (condition expressions of removed ifs,
/// staticized index expressions).
bool isPureExpr(const Expr *E) {
  switch (E->getKind()) {
  case NodeKind::NumberLiteral:
  case NodeKind::StringLiteral:
  case NodeKind::BooleanLiteral:
  case NodeKind::NullLiteral:
  case NodeKind::UndefinedLiteral:
  case NodeKind::Identifier:
  case NodeKind::This:
  case NodeKind::Function:
    return true;
  case NodeKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    // Property reads can throw on null/undefined, but a pruned determinate
    // branch was observed to evaluate them successfully in every execution.
    if (!isPureExpr(M->getObject()))
      return false;
    return !M->isComputed() || isPureExpr(M->getIndex());
  }
  case NodeKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    return U->getOp() != UnaryOp::Delete && isPureExpr(U->getOperand());
  }
  case NodeKind::Binary:
    return isPureExpr(cast<BinaryExpr>(E)->getLHS()) &&
           isPureExpr(cast<BinaryExpr>(E)->getRHS());
  case NodeKind::Logical:
    return isPureExpr(cast<LogicalExpr>(E)->getLHS()) &&
           isPureExpr(cast<LogicalExpr>(E)->getRHS());
  case NodeKind::Conditional:
    return isPureExpr(cast<ConditionalExpr>(E)->getCond()) &&
           isPureExpr(cast<ConditionalExpr>(E)->getThen()) &&
           isPureExpr(cast<ConditionalExpr>(E)->getElse());
  default:
    return false; // Calls, assignments, updates, literals with allocation.
  }
}

/// Relaxed purity for *index expressions being replaced by a determinate
/// name*: the paper's rewrite (Section 2.2) drops computations like
/// `"get" + prop.cap()` whose value the dynamic analysis proved determinate.
/// Calls are permitted (their value is reproduced by the fact); assignments,
/// updates, and deletes are not (they mutate visible state).
bool isDroppableIndex(const Expr *E) {
  switch (E->getKind()) {
  case NodeKind::Assign:
  case NodeKind::Update:
    return false;
  case NodeKind::Unary:
    if (cast<UnaryExpr>(E)->getOp() == UnaryOp::Delete)
      return false;
    break;
  default:
    break;
  }
  bool Ok = true;
  forEachChild(E, [&](const Node *Child) {
    if (Ok && !isa<Stmt>(Child))
      Ok = isDroppableIndex(cast<Expr>(Child));
  });
  return Ok;
}

/// True if the subtree contains a break/continue not nested in an inner loop
/// (which would make unrolling change semantics).
bool hasLooseBreakOrContinue(const Stmt *S);

bool hasLooseBreakOrContinueNode(const Node *N) {
  switch (N->getKind()) {
  case NodeKind::BreakStmt:
  case NodeKind::ContinueStmt:
  case NodeKind::SwitchStmt: // Conservative: continue may escape a switch.
    return true;
  case NodeKind::WhileStmt:
  case NodeKind::DoWhileStmt:
  case NodeKind::ForStmt:
  case NodeKind::ForInStmt:
  case NodeKind::Function:
    return false; // Inner loops / functions capture their own break.
  default: {
    bool Found = false;
    forEachChild(N, [&](const Node *Child) {
      if (!Found)
        Found = hasLooseBreakOrContinueNode(Child);
    });
    return Found;
  }
  }
}

bool hasLooseBreakOrContinue(const Stmt *S) {
  return S && hasLooseBreakOrContinueNode(S);
}

/// Collects Call/New node ids that execute *exactly once, unconditionally*
/// per execution of the subtree: descends neither into nested functions nor
/// past any conditional or looping construct. Occurrence overrides assigned
/// during unrolling are only safe for such sites — a conditionally executed
/// call's dynamic occurrence counter does not track the iteration index.
void collectCallSites(const Node *N, std::vector<NodeID> &Out) {
  switch (N->getKind()) {
  case NodeKind::Function:
  case NodeKind::WhileStmt:
  case NodeKind::DoWhileStmt:
  case NodeKind::ForStmt:
  case NodeKind::ForInStmt:
  case NodeKind::TryStmt:
    return;
  case NodeKind::SwitchStmt:
    // Only the discriminant executes unconditionally.
    collectCallSites(cast<SwitchStmt>(N)->getDisc(), Out);
    return;
  case NodeKind::IfStmt:
    collectCallSites(cast<IfStmt>(N)->getCond(), Out);
    return;
  case NodeKind::Conditional:
    collectCallSites(cast<ConditionalExpr>(N)->getCond(), Out);
    return;
  case NodeKind::Logical:
    collectCallSites(cast<LogicalExpr>(N)->getLHS(), Out);
    return;
  default:
    break;
  }
  if (isa<CallExpr>(N) || isa<NewExpr>(N))
    Out.push_back(N->getID());
  forEachChild(N, [&](const Node *Child) { collectCallSites(Child, Out); });
}

/// Collects call sites inside loops *directly nested* in this subtree (not
/// behind any conditional or function): their dynamic occurrence within an
/// enclosing activation is `outerIteration * innerTrips + innerIteration`,
/// so an enclosing unroll records the outer iteration index as a *scaled
/// base* which the nested unroll multiplies out.
void collectNestedLoopCallSites(const Node *N, std::vector<NodeID> &Out) {
  switch (N->getKind()) {
  case NodeKind::Function:
  case NodeKind::TryStmt:
  case NodeKind::DoWhileStmt:
    return;
  case NodeKind::SwitchStmt:
    collectNestedLoopCallSites(cast<SwitchStmt>(N)->getDisc(), Out);
    return;
  case NodeKind::IfStmt:
    collectNestedLoopCallSites(cast<IfStmt>(N)->getCond(), Out);
    return;
  case NodeKind::Conditional:
    collectNestedLoopCallSites(cast<ConditionalExpr>(N)->getCond(), Out);
    return;
  case NodeKind::Logical:
    collectNestedLoopCallSites(cast<LogicalExpr>(N)->getLHS(), Out);
    return;
  case NodeKind::WhileStmt:
    collectCallSites(cast<WhileStmt>(N)->getBody(), Out);
    collectNestedLoopCallSites(cast<WhileStmt>(N)->getBody(), Out);
    return;
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(N);
    collectCallSites(F->getBody(), Out);
    if (F->getUpdate())
      collectCallSites(F->getUpdate(), Out);
    collectNestedLoopCallSites(F->getBody(), Out);
    return;
  }
  case NodeKind::ForInStmt:
    collectCallSites(cast<ForInStmt>(N)->getBody(), Out);
    collectNestedLoopCallSites(cast<ForInStmt>(N)->getBody(), Out);
    return;
  default:
    forEachChild(N, [&](const Node *Child) {
      collectNestedLoopCallSites(Child, Out);
    });
    return;
  }
}

/// True if the subtree contains a call or a computed member access — the
/// cheap proxy for "unrolling may enable other specializations".
bool hasSpecializationOpportunity(const Node *N) {
  if (isa<CallExpr>(N) || isa<NewExpr>(N))
    return true;
  if (const auto *M = dyn_cast<MemberExpr>(N))
    if (M->isComputed() && !isa<StringLiteral>(M->getIndex()))
      return true;
  bool Found = false;
  forEachChild(N, [&](const Node *Child) {
    if (!Found)
      Found = hasSpecializationOpportunity(Child);
  });
  return Found;
}

class Emitter {
public:
  Emitter(const Program &P, AnalysisResult &A, const SpecializerOptions &Opts)
      : Orig(P), A(A), Opts(Opts), Uniform(A.Facts) {
    indexOriginal();
    computeUsefulContexts();
  }

  SpecializeResult run() {
    SpecializeResult Result;
    ASTContext &Out = *Result.Residual.Context;
    OutCtx = &Out;
    OriginOf = &Result.OriginOf;

    State Top;
    Top.HasCtx = true;
    Top.Ctx = ContextTable::Root;
    for (const Stmt *S : Orig.Body)
      emitInto(Result.Residual.Body, S, Top);

    // Clones are appended at the end of the top-level list; function
    // declarations hoist, so forward references are fine.
    while (!Pending.empty()) {
      CloneRequest Req = Pending.back();
      Pending.pop_back();
      Result.Residual.Body.push_back(emitClone(Req));
    }

    Result.Report = Report;
    return Result;
  }

private:
  struct State {
    bool HasCtx = false;
    ContextID Ctx = ContextTable::Root;
    /// Occurrence overrides for call sites inside unrolled loop iterations.
    std::unordered_map<NodeID, uint32_t> OccMap;
    /// Outer-iteration indices for call sites inside loops nested within an
    /// unrolled body; multiplied out by the nested loop's own unroll.
    std::unordered_map<NodeID, uint32_t> ScaledBase;
    /// Parameters of the enclosing clone with determinate values.
    std::unordered_map<std::string, FactValue> KnownConsts;
  };

  struct CloneRequest {
    const FunctionExpr *Fn;
    ContextID Ctx;
    std::string Name;
    std::unordered_map<std::string, FactValue> KnownConsts;
  };

  // ----------------------------------------------------------- indexing --

  void indexOriginal() {
    walkProgram(Orig, [&](const Node *N) {
      if (const auto *F = dyn_cast<FunctionExpr>(N))
        FunctionByID[F->getID()] = F;
      return true;
    });
    // Functions that can be cloned: declared (or var-bound) at top level.
    for (const Stmt *S : Orig.Body) {
      if (const auto *FD = dyn_cast<FunctionDeclStmt>(S)) {
        TopLevelFns.insert(FD->getFunction()->getID());
        continue;
      }
      if (const auto *VD = dyn_cast<VarDeclStmt>(S))
        for (const auto &D : VD->getDeclarators())
          if (D.Init && isa<FunctionExpr>(D.Init))
            TopLevelFns.insert(D.Init->getID());
    }
  }

  void computeUsefulContexts() {
    for (const auto &[Key, Val] : A.Facts.all()) {
      if (!Val.isDeterminate())
        continue;
      switch (Key.Kind) {
      case FactKind::Condition:
      case FactKind::PropName:
      case FactKind::EvalArg:
      case FactKind::TripCount:
      case FactKind::CallArg:
        break;
      default:
        continue;
      }
      for (ContextID C = Key.Ctx; C != ContextTable::Root;
           C = A.Contexts.entry(C).Parent)
        UsefulCtxs.insert(C);
    }
  }

  // ------------------------------------------------------------ helpers --

  template <typename T, typename... Args>
  T *make(const Node *From, Args &&...Rest) {
    T *N = OutCtx->create<T>(From->getRange(), std::forward<Args>(Rest)...);
    (*OriginOf)[N->getID()] = From->getID();
    return N;
  }

  /// The child context of call site \p Site under \p St, if its occurrence
  /// is unambiguous; 0 otherwise.
  ContextID childContext(const State &St, NodeID Site, uint32_t Line) {
    if (!St.HasCtx)
      return 0;
    auto OccIt = St.OccMap.find(Site);
    if (OccIt != St.OccMap.end())
      return A.Contexts.intern(St.Ctx, Site, OccIt->second, Line);
    std::vector<ContextID> Children = A.Contexts.childrenAt(St.Ctx, Site);
    if (Children.size() != 1)
      return 0;
    return Children[0];
  }

  std::string cloneName(const FunctionExpr *Fn, ContextID Ctx) {
    auto Key = std::make_pair(Fn->getID(), Ctx);
    auto It = CloneNames.find(Key);
    if (It != CloneNames.end())
      return It->second;
    std::string Base = Fn->getName().empty()
                           ? "fn" + std::to_string(Fn->getID())
                           : Fn->getName();
    std::string Name = Base + "$" + std::to_string(++CloneCounter);
    CloneNames.emplace(Key, Name);
    return Name;
  }

  Stmt *emitClone(const CloneRequest &Req) {
    ++Report.FunctionClones;
    State St;
    St.HasCtx = true;
    St.Ctx = Req.Ctx;
    St.KnownConsts = Req.KnownConsts;
    Stmt *Body = emitStmt(Req.Fn->getBody(), St);
    auto *F = make<FunctionExpr>(Req.Fn, Req.Name,
                                 Req.Fn->getParams(), Body);
    return make<FunctionDeclStmt>(Req.Fn, F);
  }

  // ----------------------------------------------------------- emission --

  void emitInto(std::vector<Stmt *> &Out, const Stmt *S, const State &St) {
    Stmt *E = emitStmt(S, St);
    if (E)
      Out.push_back(E);
  }

  Stmt *emitStmt(const Stmt *S, const State &St) {
    if (!S)
      return nullptr;
    switch (S->getKind()) {
    case NodeKind::ExpressionStmt: {
      const Expr *E = cast<ExpressionStmt>(S)->getExpr();
      // Statement-position eval with a multi-statement determinate argument
      // splices as a block.
      if (const auto *Call = dyn_cast<CallExpr>(E))
        if (Stmt *Spliced = trySpliceEvalStmt(Call, St))
          return Spliced;
      return make<ExpressionStmt>(S, emitExpr(E, St));
    }
    case NodeKind::VarDeclStmt: {
      std::vector<VarDeclStmt::Declarator> Decls;
      for (const auto &D : cast<VarDeclStmt>(S)->getDeclarators())
        Decls.push_back({D.Name, D.Init ? emitExpr(D.Init, St) : nullptr});
      return make<VarDeclStmt>(S, std::move(Decls));
    }
    case NodeKind::FunctionDeclStmt: {
      // Originals are kept verbatim (facts do not apply context-free), but
      // known constants from an enclosing clone still flow in.
      const FunctionExpr *F = cast<FunctionDeclStmt>(S)->getFunction();
      return make<FunctionDeclStmt>(
          S, cast<FunctionExpr>(emitExpr(F, St)));
    }
    case NodeKind::BlockStmt: {
      std::vector<Stmt *> Body;
      for (const Stmt *Child : cast<BlockStmt>(S)->getBody())
        emitInto(Body, Child, St);
      return make<BlockStmt>(S, std::move(Body));
    }
    case NodeKind::IfStmt:
      return emitIf(cast<IfStmt>(S), St);
    case NodeKind::WhileStmt: {
      const auto *W = cast<WhileStmt>(S);
      if (Stmt *Unrolled = tryUnroll(S, nullptr, W->getCond(), nullptr,
                                     W->getBody(), St))
        return Unrolled;
      return make<WhileStmt>(S, emitExpr(W->getCond(), St),
                             emitStmt(W->getBody(), St));
    }
    case NodeKind::DoWhileStmt: {
      const auto *W = cast<DoWhileStmt>(S);
      return make<DoWhileStmt>(S, emitStmt(W->getBody(), St),
                               emitExpr(W->getCond(), St));
    }
    case NodeKind::ForStmt: {
      const auto *F = cast<ForStmt>(S);
      if (Stmt *Unrolled = tryUnroll(S, F->getInit(), F->getCond(),
                                     F->getUpdate(), F->getBody(), St))
        return Unrolled;
      return make<ForStmt>(S, emitStmt(F->getInit(), St),
                           F->getCond() ? emitExpr(F->getCond(), St) : nullptr,
                           F->getUpdate() ? emitExpr(F->getUpdate(), St)
                                          : nullptr,
                           emitStmt(F->getBody(), St));
    }
    case NodeKind::ForInStmt: {
      const auto *F = cast<ForInStmt>(S);
      if (Stmt *Unrolled = tryUnrollForIn(F, St))
        return Unrolled;
      return make<ForInStmt>(S, F->getVar(), F->declaresVar(),
                             emitExpr(F->getObject(), St),
                             emitStmt(F->getBody(), St));
    }
    case NodeKind::ReturnStmt: {
      const auto *R = cast<ReturnStmt>(S);
      return make<ReturnStmt>(S,
                              R->getArg() ? emitExpr(R->getArg(), St)
                                          : nullptr);
    }
    case NodeKind::BreakStmt:
      return make<BreakStmt>(S);
    case NodeKind::ContinueStmt:
      return make<ContinueStmt>(S);
    case NodeKind::ThrowStmt:
      return make<ThrowStmt>(S, emitExpr(cast<ThrowStmt>(S)->getArg(), St));
    case NodeKind::TryStmt: {
      const auto *T = cast<TryStmt>(S);
      return make<TryStmt>(S, emitStmt(T->getBlock(), St),
                           T->getCatchParam(),
                           emitStmt(T->getCatchBlock(), St),
                           emitStmt(T->getFinallyBlock(), St));
    }
    case NodeKind::EmptyStmt:
      return make<EmptyStmt>(S);
    case NodeKind::SwitchStmt:
      return emitSwitch(cast<SwitchStmt>(S), St);
    default:
      assert(false && "expression in statement position");
      return nullptr;
    }
  }

  /// Switch emission with determinate-selection pruning: when the dynamic
  /// analysis proved which clause is taken in every execution, the switch
  /// collapses to the selected clause suffix (stopping at a direct break).
  Stmt *emitSwitch(const SwitchStmt *Sw, const State &St) {
    const auto &Clauses = Sw->getClauses();
    const FactValue *Sel = nullptr;
    if (Opts.PruneBranches) {
      if (St.HasCtx)
        Sel = A.Facts.condition(Sw->getID(), St.Ctx);
      if (!Sel || !Sel->isDeterminate())
        Sel = Uniform.get(FactKind::Condition, Sw->getID());
    }
    if (Sel && Sel->K == FactValue::Number && Sel->Num >= 0 &&
        Sel->Num <= static_cast<double>(Clauses.size())) {
      // The clause suffix must be free of non-direct breaks / continues for
      // the collapse to preserve semantics.
      size_t Selected = static_cast<size_t>(Sel->Num);
      bool Collapsible = true;
      bool SawDirectBreak = false;
      std::vector<const Stmt *> Suffix;
      for (size_t I = Selected; I < Clauses.size() && !SawDirectBreak; ++I)
        for (const Stmt *Child : Clauses[I].Body) {
          if (isa<BreakStmt>(Child)) {
            SawDirectBreak = true;
            break;
          }
          if (hasLooseBreakOrContinue(Child)) {
            Collapsible = false;
            break;
          }
          Suffix.push_back(Child);
        }
      if (Collapsible) {
        ++Report.BranchesPruned;
        std::vector<Stmt *> Out;
        if (!isPureExpr(Sw->getDisc()))
          Out.push_back(make<ExpressionStmt>(Sw, emitExpr(Sw->getDisc(), St)));
        // Evaluated case tests may have side effects; keep the impure ones
        // up to (and including) the selected clause.
        for (size_t I = 0; I <= Selected && I < Clauses.size(); ++I)
          if (Clauses[I].Test && !isPureExpr(Clauses[I].Test))
            Out.push_back(
                make<ExpressionStmt>(Sw, emitExpr(Clauses[I].Test, St)));
        for (const Stmt *Child : Suffix)
          emitInto(Out, Child, St);
        return make<BlockStmt>(Sw, std::move(Out));
      }
    }
    // Structural copy.
    std::vector<SwitchStmt::Clause> NewClauses;
    for (const auto &Clause : Clauses) {
      SwitchStmt::Clause NC;
      NC.Test = Clause.Test ? emitExpr(Clause.Test, St) : nullptr;
      for (const Stmt *Child : Clause.Body)
        emitInto(NC.Body, Child, St);
      NewClauses.push_back(std::move(NC));
    }
    return make<SwitchStmt>(Sw, emitExpr(Sw->getDisc(), St),
                            std::move(NewClauses));
  }

  Stmt *emitIf(const IfStmt *If, const State &St) {
    const FactValue *Cond = nullptr;
    if (Opts.PruneBranches) {
      if (St.HasCtx)
        Cond = A.Facts.condition(If->getID(), St.Ctx);
      if ((!Cond || !Cond->isDeterminate()))
        Cond = Uniform.get(FactKind::Condition, If->getID());
    }
    if (Cond && Cond->isDeterminate() && Cond->K == FactValue::Boolean) {
      ++Report.BranchesPruned;
      const Stmt *Taken = Cond->B ? If->getThen() : If->getElse();
      std::vector<Stmt *> Body;
      // Keep the condition's side effects when it is not pure.
      if (!isPureExpr(If->getCond()))
        Body.push_back(
            make<ExpressionStmt>(If, emitExpr(If->getCond(), St)));
      if (Taken)
        emitInto(Body, Taken, St);
      return make<BlockStmt>(If, std::move(Body));
    }
    return make<IfStmt>(If, emitExpr(If->getCond(), St),
                        emitStmt(If->getThen(), St),
                        emitStmt(If->getElse(), St));
  }

  Stmt *tryUnroll(const Stmt *Loop, const Stmt *Init, const Expr *Cond,
                  const Expr *Update, const Stmt *Body, const State &St) {
    if (!Opts.UnrollLoops || !St.HasCtx || !Cond || !Body)
      return nullptr;
    const FactValue *Trip = A.Facts.tripCount(Loop->getID(), St.Ctx);
    if (!Trip || Trip->K != FactValue::Number)
      return nullptr;
    double N = Trip->Num;
    if (N < 0 || N > Opts.MaxUnroll || N != static_cast<double>(int(N)))
      return nullptr;
    if (!isPureExpr(Cond) || hasLooseBreakOrContinue(Body))
      return nullptr;
    if (!hasSpecializationOpportunity(Body))
      return nullptr;

    ++Report.LoopsUnrolled;
    std::vector<NodeID> Sites;
    collectCallSites(Body, Sites);
    if (Update)
      collectCallSites(Update, Sites);
    std::vector<NodeID> NestedSites;
    collectNestedLoopCallSites(Body, NestedSites);

    std::vector<Stmt *> Out;
    if (Init)
      emitInto(Out, Init, St);
    unsigned Trips = static_cast<unsigned>(N);
    auto ScaledIndex = [&](const State &Outer, NodeID Site, unsigned I) {
      // Compose with any enclosing unrolled loop: this body runs Trips
      // times per outer iteration, so index = outer * Trips + I.
      auto It = Outer.ScaledBase.find(Site);
      uint32_t Base = It == Outer.ScaledBase.end() ? 0 : It->second * Trips;
      return Base + I;
    };
    for (unsigned I = 0; I < Trips; ++I) {
      State Iter = St;
      for (NodeID Site : Sites)
        Iter.OccMap[Site] = ScaledIndex(St, Site, I);
      for (NodeID Site : NestedSites)
        Iter.ScaledBase[Site] = ScaledIndex(St, Site, I);
      emitInto(Out, Body, Iter);
      if (Update)
        Out.push_back(make<ExpressionStmt>(Loop, emitExpr(Update, Iter)));
    }
    return make<BlockStmt>(Loop, std::move(Out));
  }

  /// Unrolls a for-in loop whose property *set* was determinate: iteration
  /// order is determinate too (Section 5.2), so each iteration binds a known
  /// key. This is what specializes jQuery-style `extend` copy loops.
  Stmt *tryUnrollForIn(const ForInStmt *F, const State &St) {
    if (!Opts.UnrollLoops || !St.HasCtx)
      return nullptr;
    const FactValue *Trip = A.Facts.tripCount(F->getID(), St.Ctx);
    if (!Trip || Trip->K != FactValue::Number)
      return nullptr;
    double N = Trip->Num;
    if (N < 0 || N > Opts.MaxUnroll || N != static_cast<double>(int(N)))
      return nullptr;
    if (!isPureExpr(F->getObject()) || hasLooseBreakOrContinue(F->getBody()))
      return nullptr;
    if (!hasSpecializationOpportunity(F->getBody()))
      return nullptr;
    // Every iteration's key must be determinate.
    std::vector<StringId> Keys;
    for (unsigned I = 0; I < static_cast<unsigned>(N); ++I) {
      const FactValue *Key =
          A.Facts.forInKey(F->getID(), St.Ctx, static_cast<uint16_t>(I));
      if (!Key || Key->K != FactValue::String)
        return nullptr;
      Keys.push_back(Key->Str);
    }

    ++Report.LoopsUnrolled;
    std::vector<NodeID> Sites;
    collectCallSites(F->getBody(), Sites);
    std::vector<NodeID> NestedSites;
    collectNestedLoopCallSites(F->getBody(), NestedSites);

    std::vector<Stmt *> Out;
    uint32_t Trips = static_cast<uint32_t>(Keys.size());
    auto ScaledIndex = [&](NodeID Site, unsigned I) {
      auto It = St.ScaledBase.find(Site);
      uint32_t Base = It == St.ScaledBase.end() ? 0 : It->second * Trips;
      return Base + I;
    };
    for (unsigned I = 0; I < Keys.size(); ++I) {
      State Iter = St;
      for (NodeID Site : Sites)
        Iter.OccMap[Site] = ScaledIndex(Site, I);
      for (NodeID Site : NestedSites)
        Iter.ScaledBase[Site] = ScaledIndex(Site, I);
      Iter.KnownConsts[F->getVar()] = [&] {
        FactValue FV;
        FV.K = FactValue::String;
        FV.Str = Keys[I];
        return FV;
      }();
      // Bind the loop variable so plain uses of it still work.
      auto *KeyLit = make<StringLiteral>(F, std::string(atomText(Keys[I])));
      auto *VarRef = make<Identifier>(F, F->getVar());
      auto *Bind = make<AssignExpr>(F, AssignOp::Assign, VarRef, KeyLit);
      Out.push_back(make<ExpressionStmt>(F, Bind));
      emitInto(Out, F->getBody(), Iter);
    }
    return make<BlockStmt>(F, std::move(Out));
  }

  /// Statement-position eval splicing (multi-statement argument).
  Stmt *trySpliceEvalStmt(const CallExpr *Call, const State &St) {
    std::string Code;
    if (!evalSpliceCandidate(Call, St, Code))
      return nullptr;
    DiagnosticEngine Diags;
    std::vector<Stmt *> Parsed = parseIntoContext(Code, *OutCtx, Diags);
    if (Diags.hasErrors())
      return nullptr;
    ++Report.EvalsSpliced;
    Report.SplicedEvalSites.insert(Call->getID());
    for (Stmt *S : Parsed)
      (*OriginOf)[S->getID()] = Call->getID();
    // Argument side effects (string concatenations) are pure by the
    // candidate check, so drop the original call entirely.
    return OutCtx->create<BlockStmt>(Call->getRange(), std::move(Parsed));
  }

  /// Shared precondition check: eval-only callee, determinate string arg.
  bool evalSpliceCandidate(const CallExpr *Call, const State &St,
                           std::string &CodeOut) {
    if (!Opts.SpliceEval)
      return false;
    // Strictly context-qualified (like the paper's specializer): an eval
    // inside a loop that cannot be unrolled has an ambiguous occurrence and
    // is not rewritten, even if every observed argument was the same.
    ContextID Ctx = childContext(St, Call->getID(), Call->getLine());
    if (!Ctx)
      return false;
    const FactValue *Callee = A.Facts.callee(Call->getID(), Ctx);
    if (!Callee || !Callee->isNative(NativeFn::Eval))
      return false;
    const FactValue *Arg = A.Facts.evalArg(Call->getID(), Ctx);
    if (!Arg || Arg->K != FactValue::String)
      return false;
    if (Call->getArgs().size() != 1 || !isPureExpr(Call->getArgs()[0]))
      return false;
    CodeOut = Interner::global().str(Arg->Str);
    return true;
  }

  Expr *emitExpr(const Expr *E, const State &St) {
    switch (E->getKind()) {
    case NodeKind::NumberLiteral:
      return make<NumberLiteral>(E, cast<NumberLiteral>(E)->getValue());
    case NodeKind::StringLiteral:
      return make<StringLiteral>(E, cast<StringLiteral>(E)->getValue());
    case NodeKind::BooleanLiteral:
      return make<BooleanLiteral>(E, cast<BooleanLiteral>(E)->getValue());
    case NodeKind::NullLiteral:
      return make<NullLiteral>(E);
    case NodeKind::UndefinedLiteral:
      return make<UndefinedLiteral>(E);
    case NodeKind::Identifier:
      return make<Identifier>(E, cast<Identifier>(E)->getName());
    case NodeKind::This:
      return make<ThisExpr>(E);
    case NodeKind::ArrayLiteral: {
      std::vector<Expr *> Elements;
      for (const Expr *Child : cast<ArrayLiteral>(E)->getElements())
        Elements.push_back(emitExpr(Child, St));
      return make<ArrayLiteral>(E, std::move(Elements));
    }
    case NodeKind::ObjectLiteral: {
      std::vector<ObjectLiteral::Property> Props;
      for (const auto &P : cast<ObjectLiteral>(E)->getProperties())
        Props.push_back({P.Key, emitExpr(P.Value, St)});
      return make<ObjectLiteral>(E, std::move(Props));
    }
    case NodeKind::Function: {
      const auto *F = cast<FunctionExpr>(E);
      // The body runs under other call stacks: drop the context, keep known
      // constants not shadowed by the function's own names.
      State Inner;
      Inner.HasCtx = false;
      Inner.KnownConsts = St.KnownConsts;
      for (const std::string &P : F->getParams())
        Inner.KnownConsts.erase(P);
      std::vector<std::string> Assigned = collectAssignedNames(F->getBody());
      for (const std::string &Name : Assigned)
        Inner.KnownConsts.erase(Name);
      return make<FunctionExpr>(F, F->getName(), F->getParams(),
                                emitStmt(F->getBody(), Inner));
    }
    case NodeKind::Member:
      return emitMember(cast<MemberExpr>(E), St);
    case NodeKind::Call:
      return emitCall(cast<CallExpr>(E), St);
    case NodeKind::New: {
      const auto *C = cast<NewExpr>(E);
      std::vector<Expr *> Args;
      for (const Expr *Arg : C->getArgs())
        Args.push_back(emitExpr(Arg, St));
      return make<NewExpr>(E, emitExpr(C->getCallee(), St), std::move(Args));
    }
    case NodeKind::Unary:
      return make<UnaryExpr>(E, cast<UnaryExpr>(E)->getOp(),
                             emitExpr(cast<UnaryExpr>(E)->getOperand(), St));
    case NodeKind::Update:
      return make<UpdateExpr>(E, cast<UpdateExpr>(E)->isIncrement(),
                              cast<UpdateExpr>(E)->isPrefix(),
                              emitExpr(cast<UpdateExpr>(E)->getOperand(), St));
    case NodeKind::Binary:
      return make<BinaryExpr>(E, cast<BinaryExpr>(E)->getOp(),
                              emitExpr(cast<BinaryExpr>(E)->getLHS(), St),
                              emitExpr(cast<BinaryExpr>(E)->getRHS(), St));
    case NodeKind::Logical:
      return make<LogicalExpr>(E, cast<LogicalExpr>(E)->isAnd(),
                               emitExpr(cast<LogicalExpr>(E)->getLHS(), St),
                               emitExpr(cast<LogicalExpr>(E)->getRHS(), St));
    case NodeKind::Assign:
      return make<AssignExpr>(E, cast<AssignExpr>(E)->getOp(),
                              emitExpr(cast<AssignExpr>(E)->getTarget(), St),
                              emitExpr(cast<AssignExpr>(E)->getValue(), St));
    case NodeKind::Conditional:
      return make<ConditionalExpr>(
          E, emitExpr(cast<ConditionalExpr>(E)->getCond(), St),
          emitExpr(cast<ConditionalExpr>(E)->getThen(), St),
          emitExpr(cast<ConditionalExpr>(E)->getElse(), St));
    default:
      assert(false && "statement in expression position");
      return nullptr;
    }
  }

  static std::vector<std::string> collectAssignedNames(const Stmt *Body);

  Expr *emitMember(const MemberExpr *M, const State &St) {
    Expr *Base = emitExpr(M->getObject(), St);
    if (!M->isComputed())
      return make<MemberExpr>(M, Base, M->getProperty());

    if (Opts.StaticizeProperties && isDroppableIndex(M->getIndex())) {
      // (a) context-qualified fact; (b) uniform fact over all contexts;
      // (c) a known-constant captured parameter.
      const FactValue *Name = nullptr;
      if (St.HasCtx)
        Name = A.Facts.propName(M->getID(), St.Ctx);
      if ((!Name || !Name->isDeterminate()))
        Name = Uniform.get(FactKind::PropName, M->getID());
      if (!Name || !Name->isDeterminate())
        if (const auto *Id = dyn_cast<Identifier>(M->getIndex())) {
          auto It = St.KnownConsts.find(Id->getName());
          if (It != St.KnownConsts.end() && It->second.K == FactValue::String)
            Name = &It->second;
        }
      if (Name && Name->K == FactValue::String &&
          isIdentifier(Interner::global().str(Name->Str))) {
        ++Report.PropertiesStaticized;
        return make<MemberExpr>(M, Base, std::string(atomText(Name->Str)));
      }
    }
    return make<MemberExpr>(M, Base, emitExpr(M->getIndex(), St));
  }

  Expr *emitCall(const CallExpr *Call, const State &St) {
    // Expression-position eval splicing: single-expression argument only.
    std::string Code;
    if (evalSpliceCandidate(Call, St, Code)) {
      DiagnosticEngine Diags;
      std::vector<Stmt *> Parsed = parseIntoContext(Code, *OutCtx, Diags);
      if (!Diags.hasErrors() && Parsed.size() == 1 &&
          isa<ExpressionStmt>(Parsed[0])) {
        ++Report.EvalsSpliced;
        Report.SplicedEvalSites.insert(Call->getID());
        Expr *Spliced = cast<ExpressionStmt>(Parsed[0])->getExpr();
        (*OriginOf)[Spliced->getID()] = Call->getID();
        return Spliced;
      }
    }

    std::vector<Expr *> Args;
    for (const Expr *Arg : Call->getArgs())
      Args.push_back(emitExpr(Arg, St));

    // Clone redirection.
    if (Opts.CloneFunctions) {
      ContextID Ctx = childContext(St, Call->getID(), Call->getLine());
      if (Ctx && A.Contexts.depth(Ctx) <= Opts.MaxCloneDepth &&
          UsefulCtxs.count(Ctx)) {
        const FactValue *Callee = A.Facts.callee(Call->getID(), Ctx);
        if (Callee && Callee->isFunction() &&
            TopLevelFns.count(Callee->Node) &&
            !isa<MemberExpr>(Call->getCallee())) {
          const FunctionExpr *F = FunctionByID.at(Callee->Node);
          std::string Name = cloneName(F, Ctx);
          if (RequestedClones.insert({F->getID(), Ctx}).second) {
            CloneRequest Req;
            Req.Fn = F;
            Req.Ctx = Ctx;
            Req.Name = Name;
            // Determinate arguments become known constants in the clone.
            for (size_t I = 0; I < F->getParams().size(); ++I) {
              const FactValue *Arg = A.Facts.callArg(
                  Call->getID(), Ctx, static_cast<uint16_t>(I));
              if (Arg && Arg->isDeterminate())
                Req.KnownConsts.emplace(F->getParams()[I], *Arg);
            }
            Pending.push_back(std::move(Req));
          }
          auto *NewCallee = make<Identifier>(Call->getCallee(), Name);
          return make<CallExpr>(Call, NewCallee, std::move(Args));
        }
      }
    }

    return make<CallExpr>(Call, emitExpr(Call->getCallee(), St),
                          std::move(Args));
  }

  const Program &Orig;
  AnalysisResult &A;
  const SpecializerOptions &Opts;
  /// Context-insensitive fallback: the merged value over all observed
  /// contexts, or null if any disagree or are indeterminate.
  const UniformFacts Uniform;
  SpecializationReport Report;

  ASTContext *OutCtx = nullptr;
  std::unordered_map<NodeID, NodeID> *OriginOf = nullptr;

  std::unordered_map<NodeID, const FunctionExpr *> FunctionByID;
  std::set<NodeID> TopLevelFns;
  std::set<ContextID> UsefulCtxs;

  std::vector<CloneRequest> Pending;
  std::set<std::pair<NodeID, ContextID>> RequestedClones;
  std::map<std::pair<NodeID, ContextID>, std::string> CloneNames;
  unsigned CloneCounter = 0;
};

std::vector<std::string> Emitter::collectAssignedNames(const Stmt *Body) {
  // Reuse the determinacy library's syntactic vd(s); the emitter keys its
  // constant map on spelled names, so convert the atoms back.
  std::vector<std::string> Names;
  for (StringId Id : collectAssignedVars(Body))
    Names.emplace_back(atomText(Id));
  return Names;
}

} // namespace

SpecializeResult dda::specializeProgram(const Program &P,
                                        AnalysisResult &Analysis,
                                        const SpecializerOptions &Opts) {
  Emitter E(P, Analysis, Opts);
  return E.run();
}
