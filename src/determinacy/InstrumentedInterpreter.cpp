//===- InstrumentedInterpreter.cpp ----------------------------------------==//

#include "determinacy/InstrumentedInterpreter.h"

#include "determinacy/ParallelAnalysis.h"
#include "interp/Ops.h"
#include "parser/Parser.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace dda;

//===----------------------------------------------------------------------===//
// Syntactic variable domains
//===----------------------------------------------------------------------===//

namespace {

void collectAssignedInExpr(const Expr *E, std::vector<StringId> &Out);

void collectAssignedInStmt(const Stmt *S, std::vector<StringId> &Out) {
  if (!S)
    return;
  switch (S->getKind()) {
  case NodeKind::ExpressionStmt:
    collectAssignedInExpr(cast<ExpressionStmt>(S)->getExpr(), Out);
    return;
  case NodeKind::VarDeclStmt:
    for (const auto &D : cast<VarDeclStmt>(S)->getDeclarators()) {
      Out.push_back(D.Atom);
      if (D.Init)
        collectAssignedInExpr(D.Init, Out);
    }
    return;
  case NodeKind::FunctionDeclStmt:
    Out.push_back(cast<FunctionDeclStmt>(S)->getFunction()->getNameAtom());
    return;
  case NodeKind::BlockStmt:
    for (const Stmt *Child : cast<BlockStmt>(S)->getBody())
      collectAssignedInStmt(Child, Out);
    return;
  case NodeKind::IfStmt: {
    const auto *If = cast<IfStmt>(S);
    collectAssignedInExpr(If->getCond(), Out);
    collectAssignedInStmt(If->getThen(), Out);
    collectAssignedInStmt(If->getElse(), Out);
    return;
  }
  case NodeKind::WhileStmt:
    collectAssignedInExpr(cast<WhileStmt>(S)->getCond(), Out);
    collectAssignedInStmt(cast<WhileStmt>(S)->getBody(), Out);
    return;
  case NodeKind::DoWhileStmt:
    collectAssignedInExpr(cast<DoWhileStmt>(S)->getCond(), Out);
    collectAssignedInStmt(cast<DoWhileStmt>(S)->getBody(), Out);
    return;
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(S);
    collectAssignedInStmt(F->getInit(), Out);
    if (F->getCond())
      collectAssignedInExpr(F->getCond(), Out);
    if (F->getUpdate())
      collectAssignedInExpr(F->getUpdate(), Out);
    collectAssignedInStmt(F->getBody(), Out);
    return;
  }
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(S);
    Out.push_back(F->getVarAtom());
    collectAssignedInExpr(F->getObject(), Out);
    collectAssignedInStmt(F->getBody(), Out);
    return;
  }
  case NodeKind::ReturnStmt:
    if (const Expr *A = cast<ReturnStmt>(S)->getArg())
      collectAssignedInExpr(A, Out);
    return;
  case NodeKind::ThrowStmt:
    collectAssignedInExpr(cast<ThrowStmt>(S)->getArg(), Out);
    return;
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    collectAssignedInStmt(T->getBlock(), Out);
    collectAssignedInStmt(T->getCatchBlock(), Out);
    collectAssignedInStmt(T->getFinallyBlock(), Out);
    return;
  }
  case NodeKind::SwitchStmt: {
    const auto *Sw = cast<SwitchStmt>(S);
    collectAssignedInExpr(Sw->getDisc(), Out);
    for (const auto &Clause : Sw->getClauses()) {
      if (Clause.Test)
        collectAssignedInExpr(Clause.Test, Out);
      for (const Stmt *Child : Clause.Body)
        collectAssignedInStmt(Child, Out);
    }
    return;
  }
  default:
    return;
  }
}

void collectAssignedInExpr(const Expr *E, std::vector<StringId> &Out) {
  if (!E)
    return;
  switch (E->getKind()) {
  case NodeKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    if (const auto *Id = dyn_cast<Identifier>(A->getTarget()))
      Out.push_back(Id->getAtom());
    else
      collectAssignedInExpr(A->getTarget(), Out);
    collectAssignedInExpr(A->getValue(), Out);
    return;
  }
  case NodeKind::Update: {
    const auto *U = cast<UpdateExpr>(E);
    if (const auto *Id = dyn_cast<Identifier>(U->getOperand()))
      Out.push_back(Id->getAtom());
    else
      collectAssignedInExpr(U->getOperand(), Out);
    return;
  }
  case NodeKind::Function:
    return; // Callee locals cannot touch our scope.
  case NodeKind::ArrayLiteral:
    for (const Expr *Child : cast<ArrayLiteral>(E)->getElements())
      collectAssignedInExpr(Child, Out);
    return;
  case NodeKind::ObjectLiteral:
    for (const auto &P : cast<ObjectLiteral>(E)->getProperties())
      collectAssignedInExpr(P.Value, Out);
    return;
  case NodeKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    collectAssignedInExpr(M->getObject(), Out);
    if (M->isComputed())
      collectAssignedInExpr(M->getIndex(), Out);
    return;
  }
  case NodeKind::Call: {
    const auto *C = cast<CallExpr>(E);
    collectAssignedInExpr(C->getCallee(), Out);
    for (const Expr *A : C->getArgs())
      collectAssignedInExpr(A, Out);
    return;
  }
  case NodeKind::New: {
    const auto *C = cast<NewExpr>(E);
    collectAssignedInExpr(C->getCallee(), Out);
    for (const Expr *A : C->getArgs())
      collectAssignedInExpr(A, Out);
    return;
  }
  case NodeKind::Unary:
    collectAssignedInExpr(cast<UnaryExpr>(E)->getOperand(), Out);
    return;
  case NodeKind::Binary:
    collectAssignedInExpr(cast<BinaryExpr>(E)->getLHS(), Out);
    collectAssignedInExpr(cast<BinaryExpr>(E)->getRHS(), Out);
    return;
  case NodeKind::Logical:
    collectAssignedInExpr(cast<LogicalExpr>(E)->getLHS(), Out);
    collectAssignedInExpr(cast<LogicalExpr>(E)->getRHS(), Out);
    return;
  case NodeKind::Conditional:
    collectAssignedInExpr(cast<ConditionalExpr>(E)->getCond(), Out);
    collectAssignedInExpr(cast<ConditionalExpr>(E)->getThen(), Out);
    collectAssignedInExpr(cast<ConditionalExpr>(E)->getElse(), Out);
    return;
  default:
    return;
  }
}

} // namespace

std::vector<StringId> dda::collectAssignedVars(const Stmt *S) {
  std::vector<StringId> Out;
  collectAssignedInStmt(S, Out);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// Construction and globals
//===----------------------------------------------------------------------===//

InstrumentedInterpreter::InstrumentedInterpreter(Program &P,
                                                 const AnalysisOptions &Opts)
    : Prog(P), Opts(Opts), Gov(Opts.governorLimits()),
      RandomRng(Opts.RandomSeed), DomRng(Opts.DomSeed) {
  Gov.setInjector(Opts.Injector);
  SnapMode = this->Opts.Undo == UndoEngine::Snapshot;
  // Journal engine: undo is a reverse replay, so the journal stores Binding
  // and Slot pre-images out-of-line. Snapshot engine: entries only (the
  // vd/pd marking log); undo restores COW frames.
  J.setCapture(!SnapMode);
  Frames.push_back(Frame());
  installGlobals();
  // Builtin setup above is free; only program-driven allocations count.
  TheHeap.setGovernor(&Gov);
  Envs.setGovernor(&Gov);
  if (SnapMode) {
    // Base frame at mark 0: undoSince(0) (the test unwind hook) restores
    // the pristine post-installGlobals state. Uncharged and not counted as
    // a fork — it is bookkeeping, not a branch.
    TheHeap.beginSnapshot(/*Charged=*/false);
    Envs.beginSnapshot(/*Charged=*/false);
    SnapMarks.push_back(0);
  }
}

InstrumentedInterpreter::~InstrumentedInterpreter() = default;

ObjectRef InstrumentedInterpreter::makeNative(NativeFn Fn) {
  ObjectRef Ref = TheHeap.allocate(ObjectClass::Native);
  JSObject &O = TheHeap.get(Ref);
  O.Native = Fn;
  O.ClosedEpoch = Epoch;
  return Ref;
}

ObjectRef InstrumentedInterpreter::makeFunction(const FunctionExpr *Fn,
                                                EnvRef Closure) {
  ObjectRef Ref = TheHeap.allocate(ObjectClass::Function, Fn->getID());
  JSObject &O = TheHeap.get(Ref);
  O.Fn = Fn;
  O.Closure = Closure;
  O.ClosedEpoch = Epoch;
  ObjectRef ProtoObj = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ProtoObj).Proto = ObjectProto;
  TheHeap.get(ProtoObj).ClosedEpoch = Epoch;
  TheHeap.get(ProtoObj).set(
      atoms().Constructor, Slot{Value::object(Ref), Det::Determinate, Epoch});
  TheHeap.get(Ref).set(
      atoms().Prototype,
      Slot{Value::object(ProtoObj), Det::Determinate, Epoch});
  return Ref;
}

void InstrumentedInterpreter::installGlobals() {
  GlobalEnv = Envs.allocate(0);
  CurrentEnv = GlobalEnv;

  auto Set = [&](ObjectRef O, const char *Name, Value V) {
    TheHeap.get(O).set(intern(Name), Slot{std::move(V), Det::Determinate,
                                          Epoch, /*Immune=*/true});
  };

  ObjectProto = TheHeap.allocate(ObjectClass::Plain);
  Set(ObjectProto, "hasOwnProperty",
      Value::object(makeNative(NativeFn::ObjHasOwnProperty)));

  StringProto = TheHeap.allocate(ObjectClass::Plain);
  auto AddStringMethod = [&](const char *Name, NativeFn Fn) {
    Set(StringProto, Name, Value::object(makeNative(Fn)));
  };
  AddStringMethod("charAt", NativeFn::StrCharAt);
  AddStringMethod("charCodeAt", NativeFn::StrCharCodeAt);
  AddStringMethod("toUpperCase", NativeFn::StrToUpperCase);
  AddStringMethod("toLowerCase", NativeFn::StrToLowerCase);
  AddStringMethod("substr", NativeFn::StrSubstr);
  AddStringMethod("substring", NativeFn::StrSubstring);
  AddStringMethod("indexOf", NativeFn::StrIndexOf);
  AddStringMethod("slice", NativeFn::StrSlice);
  AddStringMethod("split", NativeFn::StrSplit);
  AddStringMethod("concat", NativeFn::StrConcat);
  AddStringMethod("replace", NativeFn::StrReplace);

  ArrayProto = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ArrayProto).Proto = ObjectProto;
  auto AddArrayMethod = [&](const char *Name, NativeFn Fn) {
    Set(ArrayProto, Name, Value::object(makeNative(Fn)));
  };
  AddArrayMethod("push", NativeFn::ArrPush);
  AddArrayMethod("pop", NativeFn::ArrPop);
  AddArrayMethod("shift", NativeFn::ArrShift);
  AddArrayMethod("join", NativeFn::ArrJoin);
  AddArrayMethod("indexOf", NativeFn::ArrIndexOf);
  AddArrayMethod("slice", NativeFn::ArrSlice);
  AddArrayMethod("concat", NativeFn::ArrConcat);

  Environment &G = Envs.get(GlobalEnv);
  auto DefineGlobal = [&](const char *Name, Value V) {
    G.Vars[intern(Name)] =
        Binding{std::move(V), Det::Determinate, /*Immune=*/true};
  };

  ObjectRef MathObj = TheHeap.allocate(ObjectClass::Plain);
  auto AddMath = [&](const char *Name, NativeFn Fn) {
    Set(MathObj, Name, Value::object(makeNative(Fn)));
  };
  AddMath("random", NativeFn::MathRandom);
  AddMath("floor", NativeFn::MathFloor);
  AddMath("ceil", NativeFn::MathCeil);
  AddMath("round", NativeFn::MathRound);
  AddMath("abs", NativeFn::MathAbs);
  AddMath("max", NativeFn::MathMax);
  AddMath("min", NativeFn::MathMin);
  AddMath("pow", NativeFn::MathPow);
  AddMath("sqrt", NativeFn::MathSqrt);
  DefineGlobal("Math", Value::object(MathObj));

  ObjectRef ConsoleObj = TheHeap.allocate(ObjectClass::Plain);
  Set(ConsoleObj, "log", Value::object(makeNative(NativeFn::Print)));
  DefineGlobal("console", Value::object(ConsoleObj));
  DefineGlobal("alert", Value::object(makeNative(NativeFn::Print)));
  DefineGlobal("print", Value::object(makeNative(NativeFn::Print)));

  DefineGlobal("parseInt", Value::object(makeNative(NativeFn::ParseInt)));
  DefineGlobal("parseFloat", Value::object(makeNative(NativeFn::ParseFloat)));
  DefineGlobal("isNaN", Value::object(makeNative(NativeFn::IsNaN)));
  ObjectRef StringCtor = makeNative(NativeFn::StringCtor);
  Set(StringCtor, "prototype", Value::object(StringProto));
  DefineGlobal("String", Value::object(StringCtor));
  DefineGlobal("Number", Value::object(makeNative(NativeFn::NumberCtor)));
  DefineGlobal("Boolean", Value::object(makeNative(NativeFn::BooleanCtor)));
  EvalFn = makeNative(NativeFn::Eval);
  DefineGlobal("eval", Value::object(EvalFn));

  ObjectRef ObjectCtor = TheHeap.allocate(ObjectClass::Plain);
  Set(ObjectCtor, "keys", Value::object(makeNative(NativeFn::ObjKeys)));
  Set(ObjectCtor, "prototype", Value::object(ObjectProto));
  DefineGlobal("Object", Value::object(ObjectCtor));

  ObjectRef ArrayCtor = TheHeap.allocate(ObjectClass::Plain);
  Set(ArrayCtor, "prototype", Value::object(ArrayProto));
  DefineGlobal("Array", Value::object(ArrayCtor));

  WindowObj = TheHeap.allocate(ObjectClass::Plain);
  DocumentObj = TheHeap.allocate(ObjectClass::Dom);
  Set(DocumentObj, "getElementById",
      Value::object(makeNative(NativeFn::DomGetElementById)));
  Set(DocumentObj, "createElement",
      Value::object(makeNative(NativeFn::DomCreateElement)));
  Set(DocumentObj, "write", Value::object(makeNative(NativeFn::DomWrite)));
  Set(DocumentObj, "addEventListener",
      Value::object(makeNative(NativeFn::DomAddEventListener)));
  Set(WindowObj, "document", Value::object(DocumentObj));
  Set(WindowObj, "addEventListener",
      Value::object(makeNative(NativeFn::DomAddEventListener)));
  DefineGlobal("window", Value::object(WindowObj));
  DefineGlobal("document", Value::object(DocumentObj));
  DefineGlobal("undefined", Value::undefined());
}

//===----------------------------------------------------------------------===//
// NativeHost
//===----------------------------------------------------------------------===//

void InstrumentedInterpreter::nativeWriteProperty(ObjectRef O, StringId Name,
                                                  TaggedValue TV) {
  // Natives resolved their receiver through a determinate path (the
  // interpreter flushed otherwise), so Base/Name are determinate here.
  writeProp(O, Name, std::move(TV), Det::Determinate, Det::Determinate);
}

TaggedValue InstrumentedInterpreter::nativeReadProperty(ObjectRef O,
                                                        StringId Name) {
  const JSObject &Obj = TheHeap.get(O);
  if (const Slot *S = Obj.get(Name))
    return TaggedValue(S->V, slotDet(*S));
  Det D = (recordClosed(Obj) && !Obj.isMaybeAbsent(Name))
              ? Det::Determinate
              : Det::Indeterminate;
  if (Obj.Class == ObjectClass::Dom)
    D = domDet();
  return TaggedValue(Value::undefined(), D);
}

void InstrumentedInterpreter::output(const std::string &Text) {
  if (inCounterfactual())
    return; // Hypothetical worlds do not print.
  Output += Text;
  Output += '\n';
}

void InstrumentedInterpreter::registerEventHandler(StringId Event,
                                                   Value Handler) {
  EventHandlers.emplace_back(Event, std::move(Handler));
}

ObjectRef InstrumentedInterpreter::domElement(StringId Key) {
  auto It = DomElements.find(Key);
  if (It != DomElements.end())
    return It->second;
  ObjectRef El = TheHeap.allocate(ObjectClass::Dom);
  JSObject &O = TheHeap.get(El);
  O.ClosedEpoch = Epoch;
  auto Set = [&](const char *Name, NativeFn Fn) {
    O.set(intern(Name), Slot{Value::object(makeNative(Fn)), Det::Determinate,
                             Epoch, /*Immune=*/true});
  };
  Set("getAttribute", NativeFn::DomGetAttribute);
  Set("setAttribute", NativeFn::DomSetAttribute);
  Set("appendChild", NativeFn::DomAppendChild);
  Set("addEventListener", NativeFn::DomAddEventListener);
  DomElements.emplace(Key, El);
  return El;
}

ObjectRef InstrumentedInterpreter::newArray() {
  ObjectRef Arr = TheHeap.allocate(ObjectClass::Array);
  TheHeap.get(Arr).Proto = ArrayProto;
  TheHeap.get(Arr).ClosedEpoch = Epoch;
  return Arr;
}

Det InstrumentedInterpreter::recordSetDeterminacy(ObjectRef O) {
  const JSObject &Obj = TheHeap.get(O);
  if (Obj.Class == ObjectClass::Dom)
    return domDet();
  return (recordClosed(Obj) && Obj.MaybeAbsent.empty() &&
          Obj.MaybePresent.empty())
             ? Det::Determinate
             : Det::Indeterminate;
}

//===----------------------------------------------------------------------===//
// Journaled mutation
//===----------------------------------------------------------------------===//

void InstrumentedInterpreter::declareVar(EnvRef Env, StringId Name,
                                         TaggedValue TV) {
  Environment &E = Envs.get(Env);
  envBarrier(Env); // Copies the env into the snapshot frame; &E stays valid.
  JournalEntry JE;
  JE.K = JournalEntry::VarWrite;
  JE.Env = Env;
  JE.Name = Name;
  auto It = E.Vars.find(Name);
  JE.Existed = It != E.Vars.end();
  if (JE.Existed)
    J.push(JE, It->second);
  else
    J.push(JE);
  ++Stats.JournalEntries;
  E.Vars[Name] = Binding{std::move(TV.V), taintAdjust(TV.D)};
}

void InstrumentedInterpreter::setVar(StringId Name, TaggedValue TV) {
  EnvRef E = Envs.lookupEnv(CurrentEnv, Name);
  if (!E)
    E = GlobalEnv; // Sloppy-mode global creation.
  declareVar(E, Name, std::move(TV));
}

void InstrumentedInterpreter::weakenVar(EnvRef Env, StringId Name) {
  Environment &E = Envs.get(Env);
  auto It = E.Vars.find(Name);
  if (It == E.Vars.end() || It->second.D == Det::Indeterminate)
    return; // Already weak: no journal entry — and no pre-image copy.
  envBarrier(Env);
  JournalEntry JE;
  JE.K = JournalEntry::VarWrite;
  JE.Env = Env;
  JE.Name = Name;
  JE.Existed = true;
  J.push(JE, It->second);
  ++Stats.JournalEntries;
  It->second.D = Det::Indeterminate;
}

void InstrumentedInterpreter::writeProp(ObjectRef Obj, StringId Name,
                                        TaggedValue TV, Det BaseDet,
                                        Det NameDet) {
  // ŜTO: an indeterminate property name makes the whole record open and
  // indeterminate; an indeterminate base address flushes the heap.
  if (NameDet == Det::Indeterminate)
    openRecord(Obj);

  heapBarrier(Obj);
  JSObject &O = TheHeap.get(Obj);
  JournalEntry JE;
  JE.K = JournalEntry::PropWrite;
  JE.Obj = Obj;
  JE.Name = Name;
  if (const Slot *S = O.get(Name)) {
    JE.Existed = true;
    J.push(JE, *S);
  } else {
    J.push(JE);
  }
  ++Stats.JournalEntries;

  Det D = taintAdjust(meet(TV.D, NameDet));
  O.set(Name, Slot{std::move(TV.V), D, Epoch});

  // Array length maintenance. Canonical index atoms carry their numeric
  // value from intern time, so no digits are re-parsed here.
  uint32_t Idx = Interner::global().arrayIndex(Name);
  if (O.Class == ObjectClass::Array && Idx != Interner::NotAnIndex) {
    const Slot *Len = O.get(atoms().Length);
    double N = Len && Len->V.isNumber() ? Len->V.Num : 0;
    Det LenDet = Len ? slotDet(*Len) : Det::Determinate;
    if (Idx + 1 > N) {
      JournalEntry LE;
      LE.K = JournalEntry::PropWrite;
      LE.Obj = Obj;
      LE.Name = atoms().Length;
      if (Len) {
        LE.Existed = true;
        J.push(LE, *Len);
      } else {
        J.push(LE);
      }
      ++Stats.JournalEntries;
      O.set(atoms().Length,
            Slot{Value::number(Idx + 1.0), taintAdjust(meet(LenDet, NameDet)),
                 Epoch});
    }
  }

  if (BaseDet == Det::Indeterminate)
    flushHeap();
}

bool InstrumentedInterpreter::eraseProp(ObjectRef Obj, StringId Name) {
  heapBarrier(Obj);
  JSObject &O = TheHeap.get(Obj);
  const Slot *S = O.get(Name);
  JournalEntry JE;
  JE.K = JournalEntry::PropWrite;
  JE.Obj = Obj;
  JE.Name = Name;
  if (S) {
    JE.Existed = true;
    J.push(JE, *S);
  } else {
    J.push(JE);
  }
  ++Stats.JournalEntries;
  return O.erase(Name);
}

void InstrumentedInterpreter::openRecord(ObjectRef Obj) {
  JSObject &O = TheHeap.get(Obj);
  if (!O.ExplicitlyOpen) {
    heapBarrier(Obj);
    JournalEntry JE;
    JE.K = JournalEntry::RecordOpen;
    JE.Obj = Obj;
    JE.OldOpen = O.ExplicitlyOpen;
    J.push(std::move(JE));
    ++Stats.JournalEntries;
    O.ExplicitlyOpen = true;
  }
  // All existing properties become indeterminate (any may be overwritten).
  std::vector<StringId> Names;
  Names.reserve(O.slots().size());
  for (const auto &[Name, S] : O.slots())
    if (S.D == Det::Determinate && S.Epoch == Epoch)
      Names.push_back(Name);
  if (!Names.empty())
    heapBarrier(Obj); // Only a real weakening needs a pre-image.
  for (StringId Name : Names) {
    Slot *S = TheHeap.get(Obj).get(Name);
    JournalEntry JE;
    JE.K = JournalEntry::PropWrite;
    JE.Obj = Obj;
    JE.Name = Name;
    JE.Existed = true;
    J.push(JE, *S);
    ++Stats.JournalEntries;
    S->D = Det::Indeterminate;
  }
}

void InstrumentedInterpreter::addMaybeAbsent(ObjectRef Obj, StringId Name) {
  JSObject &O = TheHeap.get(Obj);
  // Probe before mutating so a no-op neither journals nor copies.
  if (O.has(Name) || O.isMaybeAbsent(Name))
    return;
  heapBarrier(Obj);
  O.insertMaybeAbsent(Name);
  JournalEntry JE;
  JE.K = JournalEntry::MaybeAbsentAdd;
  JE.Obj = Obj;
  JE.Name = Name;
  J.push(std::move(JE));
  ++Stats.JournalEntries;
}

void InstrumentedInterpreter::addMaybePresent(ObjectRef Obj, StringId Name) {
  JSObject &O = TheHeap.get(Obj);
  if (O.isMaybePresent(Name))
    return;
  heapBarrier(Obj);
  O.insertMaybePresent(Name);
  JournalEntry JE;
  JE.K = JournalEntry::MaybePresentAdd;
  JE.Obj = Obj;
  JE.Name = Name;
  J.push(std::move(JE));
  ++Stats.JournalEntries;
}

void InstrumentedInterpreter::flushHeap() {
  ++Epoch;
  ++Stats.HeapFlushes;
  if (Stats.HeapFlushes > Opts.FlushLimit)
    Stats.FlushLimitHit = true;
}

//===----------------------------------------------------------------------===//
// Branch machinery
//===----------------------------------------------------------------------===//

void InstrumentedInterpreter::markIndetSince(Journal::Mark M) {
  size_t End = J.size(); // New entries appended below need no re-marking.
  for (size_t I = M; I < End; ++I) {
    JournalEntry E = J[I]; // Copy: appending below may reallocate.
    switch (E.K) {
    case JournalEntry::VarWrite: {
      auto It = Envs.get(E.Env).Vars.find(E.Name);
      if (It != Envs.get(E.Env).Vars.end())
        It->second.D = Det::Indeterminate;
      break;
    }
    case JournalEntry::PropWrite: {
      if (Slot *S = TheHeap.get(E.Obj).get(E.Name)) {
        S->D = Det::Indeterminate;
        // A property *created* in this branch may not exist in other
        // executions: the record's property set is no longer determinate.
        if (!E.Existed)
          addMaybePresent(E.Obj, E.Name);
      } else {
        // Deleted in this branch; other executions may still have it.
        addMaybeAbsent(E.Obj, E.Name);
      }
      break;
    }
    case JournalEntry::RecordOpen:
    case JournalEntry::MaybeAbsentAdd:
    case JournalEntry::MaybePresentAdd:
      break; // Already weak; nothing further.
    }
  }
}

Journal::Mark InstrumentedInterpreter::beginUndoFrame() {
  Journal::Mark M = J.mark();
  TheHeap.beginSnapshot(/*Charged=*/true);
  Envs.beginSnapshot(/*Charged=*/true);
  SnapMarks.push_back(M);
  ++Stats.SnapshotForks;
  return M;
}

void InstrumentedInterpreter::undoSince(Journal::Mark M) {
  if (SnapMode) {
    // Every caller's mark is its own frame boundary (counterfactualBranch
    // opens one; the ctor opened the base frame at 0), and
    // frames are strictly balanced — an opener restores its frame before
    // returning, on every path — so the caller's frame is exactly the top
    // of the stack: restore it and done. Cost is proportional to objects
    // *touched* since the frame opened, not writes performed. (A `>=` scan
    // would be wrong: an enclosing frame may share the mark when nothing
    // was journaled between the two opens.)
    assert(!SnapMarks.empty() && SnapMarks.back() == M &&
           "undo mark is not the innermost snapshot frame");
    TheHeap.restoreSnapshot();
    Envs.restoreSnapshot();
    SnapMarks.pop_back();
    J.truncate(M);
    return;
  }
  // Reverse replay: the pre-image side arrays are parallel to the Existed
  // VarWrite/PropWrite subsequence of the journal, so walking entries
  // backwards consumes each array from its tail.
  size_t BI = J.bindingPreCount(), SI = J.slotPreCount();
  for (size_t I = J.size(); I > M; --I) {
    const JournalEntry &E = J[I - 1];
    switch (E.K) {
    case JournalEntry::VarWrite: {
      Environment &Env = Envs.get(E.Env);
      if (E.Existed)
        Env.Vars[E.Name] = J.bindingPre(--BI);
      else
        Env.Vars.erase(E.Name);
      break;
    }
    case JournalEntry::PropWrite: {
      JSObject &O = TheHeap.get(E.Obj);
      if (E.Existed)
        O.set(E.Name, J.slotPre(--SI));
      else
        O.erase(E.Name);
      break;
    }
    case JournalEntry::RecordOpen:
      TheHeap.get(E.Obj).ExplicitlyOpen = E.OldOpen;
      break;
    case JournalEntry::MaybeAbsentAdd:
      TheHeap.get(E.Obj).eraseMaybeAbsent(E.Name);
      break;
    case JournalEntry::MaybePresentAdd:
      TheHeap.get(E.Obj).eraseMaybePresent(E.Name);
      break;
    }
  }
  J.truncate(M);
}

void InstrumentedInterpreter::cntrAbort(
    const std::vector<StringId> &AbortVd) {
  ++Stats.CounterfactualAborts;
  flushHeap();
  for (StringId Name : AbortVd) {
    EnvRef E = Envs.lookupEnv(CurrentEnv, Name);
    if (E)
      weakenVar(E, Name);
  }
  // The unexecuted branch may call closures that write any reachable
  // binding, and may transfer control non-locally: taint conservatively.
  taintAllEnvironments();
  noteCounterfactualEscape(IComp::Normal, /*UnexploredSuffix=*/true);
}

void InstrumentedInterpreter::taintAllEnvironments() {
  Envs.forEach([&](EnvRef Ref, Environment &E) {
    std::vector<StringId> Names;
    for (const auto &[Name, B] : E.Vars)
      if (!B.Immune && B.D == Det::Determinate)
        Names.push_back(Name);
    for (StringId Name : Names)
      weakenVar(Ref, Name);
  });
}

void InstrumentedInterpreter::noteCounterfactualEscape(IComp::Kind K,
                                                       bool UnexploredSuffix) {
  Journal::Mark Now = J.mark();
  auto SetMin = [Now](std::optional<Journal::Mark> &M) {
    if (!M || *M > Now)
      M = Now;
  };
  if (UnexploredSuffix) {
    // Unknown alternative code: any transfer is possible.
    SetMin(CfThrowMark);
    SetMin(CfBreakMark);
    SetMin(Frames.back().ReturnEscape);
    return;
  }
  switch (K) {
  case IComp::Throw:
    SetMin(CfThrowMark);
    break;
  case IComp::Return:
    SetMin(Frames.back().ReturnEscape);
    break;
  case IComp::Break:
  case IComp::Continue:
    SetMin(CfBreakMark);
    break;
  default:
    break;
  }
}

IComp InstrumentedInterpreter::counterfactualBranch(
    const std::vector<StringId> &AbortVd,
    const std::function<IComp()> &Exec) {
  bool Abort =
      !Opts.CounterfactualEnabled || CfDepth >= Opts.CounterfactualDepth;
  // Fuel is only spent on branches we would otherwise explore; exhaustion
  // degrades *locally* through the same ĈNTRABORT path as deep nesting —
  // the run continues, soundly, with a weaker post-state.
  if (!Abort && !Gov.spendCfFuel()) {
    Abort = true;
    Degradation.addEvent(TrapKind::CfFuelExhausted, "cntr-abort",
                         "fuel spent=" + std::to_string(Gov.cfFuelUsed()) +
                             " vd-size=" + std::to_string(AbortVd.size()));
  }
  if (Abort) {
    cntrAbort(AbortVd);
    return IComp::normal();
  }

  ++Stats.Counterfactuals;
  ++CfDepth;
  // Snapshot engine: fork is O(1) — a frame on each arena, charged so the
  // first-touch pre-image copies bill the heap-cell budget like the journal
  // engine's entry captures effectively did.
  Journal::Mark M = SnapMode ? beginUndoFrame() : J.mark();
  uint64_t RandomState = RandomRng.getState();
  uint64_t DomState = DomRng.getState();

  IComp C = Exec();

  --CfDepth;
  RandomRng.setState(RandomState);
  DomRng.setState(DomState);

  bool Unexplored = CfAbortRequested; // Unsafe native: branch suffix unseen.
  bool Aborted = Unexplored || C.K == IComp::Return ||
                 C.K == IComp::Break || C.K == IComp::Continue ||
                 C.K == IComp::Throw;
  CfAbortRequested = false;

  // Snapshot what the branch touched, then revert it.
  std::vector<JournalEntry> Touched;
  Touched.reserve(J.size() - M);
  for (size_t I = M; I < J.size(); ++I)
    Touched.push_back(J[I]);
  undoSince(M);

  // The other execution may perform these writes: weaken each location
  // (journaled, so an enclosing counterfactual can still undo precisely).
  for (const JournalEntry &E : Touched) {
    switch (E.K) {
    case JournalEntry::VarWrite:
      weakenVar(E.Env, E.Name);
      break;
    case JournalEntry::PropWrite: {
      JSObject &O = TheHeap.get(E.Obj);
      Slot *S = O.get(E.Name);
      if (S && (S->D == Det::Determinate && S->Epoch == Epoch)) {
        heapBarrier(E.Obj); // Weakened under the *enclosing* frame now.
        JournalEntry JE;
        JE.K = JournalEntry::PropWrite;
        JE.Obj = E.Obj;
        JE.Name = E.Name;
        JE.Existed = true;
        J.push(JE, *S);
        ++Stats.JournalEntries;
        S->D = Det::Indeterminate;
      } else if (!S) {
        // The branch created a property that does not exist here: in another
        // execution the record may have it. Records are total functions
        // (paper Section 3.1), so mark just this name as possibly present
        // and keep the rest of the record determinate.
        addMaybeAbsent(E.Obj, E.Name);
      }
      break;
    }
    case JournalEntry::RecordOpen:
      openRecord(E.Obj);
      break;
    case JournalEntry::MaybeAbsentAdd:
      addMaybeAbsent(E.Obj, E.Name);
      break;
    case JournalEntry::MaybePresentAdd:
      // The inner world considered the property possibly-created; after the
      // undo it is absent here but may exist in other executions.
      addMaybeAbsent(E.Obj, E.Name);
      break;
    }
  }

  if (C.K == IComp::Fatal)
    return C;
  if (Aborted) {
    // Exceptions / unknown effects during counterfactual: give up on the
    // heap, and record that other executions transfer control non-locally
    // from here (their catch handlers may run; our continuation may be
    // skipped there).
    flushHeap();
    if (Unexplored || C.K == IComp::Throw)
      taintAllEnvironments();
    noteCounterfactualEscape(C.K, Unexplored);
  }
  return IComp::normal();
}

//===----------------------------------------------------------------------===//
// Fact recording and small helpers
//===----------------------------------------------------------------------===//

void InstrumentedInterpreter::commitFactRecord(const FactKey &K,
                                               const FactValue &FV) {
  Facts.record(K, FV);
  if (IncCapturing)
    IncFacts.emplace_back(K, FV);
}

void InstrumentedInterpreter::recordFact(FactKind Kind, NodeID Node,
                                         const TaggedValue &TV,
                                         uint16_t Index) {
  if (Stats.FlushLimitHit)
    return;
  commitFactRecord({Node, currentCtx(), Kind, Index},
                   FactValue::fromTagged(TV, TheHeap));
}

void InstrumentedInterpreter::recordFactAt(FactKind Kind, NodeID Node,
                                           ContextID Ctx,
                                           const TaggedValue &TV,
                                           uint16_t Index) {
  if (Stats.FlushLimitHit)
    return;
  commitFactRecord({Node, Ctx, Kind, Index},
                   FactValue::fromTagged(TV, TheHeap));
}

void InstrumentedInterpreter::recordFactValue(FactKind Kind, NodeID Node,
                                              FactValue FV, uint16_t Index) {
  if (Stats.FlushLimitHit)
    return;
  commitFactRecord({Node, currentCtx(), Kind, Index}, FV);
}

/// The step-limit message text is load-bearing: callers historically
/// matched on "step limit".
IComp InstrumentedInterpreter::trapCompletion() {
  TrapKind K = Gov.trapKind();
  std::string Msg;
  switch (K) {
  case TrapKind::StepLimit:
    Msg = "step limit exceeded";
    break;
  case TrapKind::Deadline:
    Msg = "deadline exceeded";
    break;
  case TrapKind::HeapLimit:
    Msg = "heap cell limit exceeded";
    break;
  case TrapKind::CallDepthLimit:
    Msg = "call depth limit exceeded";
    break;
  case TrapKind::EvalDepthLimit:
    Msg = "eval depth limit exceeded";
    break;
  default:
    return IComp::fatal("governor trap without a tripped budget");
  }
  if (Gov.trip().Injected)
    Msg += " (injected)";
  return IComp::trap(K, std::move(Msg));
}

IComp InstrumentedInterpreter::throwString(const std::string &Message) {
  return IComp::thrown(TaggedValue(Value::string(Message)));
}

//===----------------------------------------------------------------------===//
// Hoisting
//===----------------------------------------------------------------------===//

void InstrumentedInterpreter::hoistStmt(const Stmt *S, EnvRef Env) {
  switch (S->getKind()) {
  case NodeKind::VarDeclStmt:
    for (const auto &D : cast<VarDeclStmt>(S)->getDeclarators())
      if (!Envs.get(Env).Vars.count(D.Atom))
        declareVar(Env, D.Atom, TaggedValue(Value::undefined()));
    return;
  case NodeKind::FunctionDeclStmt: {
    const FunctionExpr *Fn = cast<FunctionDeclStmt>(S)->getFunction();
    ObjectRef FnObj = makeFunction(Fn, Env);
    declareVar(Env, Fn->getNameAtom(), TaggedValue(Value::object(FnObj)));
    return;
  }
  case NodeKind::BlockStmt:
    for (const Stmt *Inner : cast<BlockStmt>(S)->getBody())
      hoistStmt(Inner, Env);
    return;
  case NodeKind::IfStmt:
    hoistStmt(cast<IfStmt>(S)->getThen(), Env);
    if (const Stmt *Else = cast<IfStmt>(S)->getElse())
      hoistStmt(Else, Env);
    return;
  case NodeKind::WhileStmt:
    hoistStmt(cast<WhileStmt>(S)->getBody(), Env);
    return;
  case NodeKind::DoWhileStmt:
    hoistStmt(cast<DoWhileStmt>(S)->getBody(), Env);
    return;
  case NodeKind::ForStmt:
    if (const Stmt *Init = cast<ForStmt>(S)->getInit())
      hoistStmt(Init, Env);
    hoistStmt(cast<ForStmt>(S)->getBody(), Env);
    return;
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(S);
    if (F->declaresVar() && !Envs.get(Env).Vars.count(F->getVarAtom()))
      declareVar(Env, F->getVarAtom(), TaggedValue(Value::undefined()));
    hoistStmt(F->getBody(), Env);
    return;
  }
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    hoistStmt(T->getBlock(), Env);
    if (T->getCatchBlock())
      hoistStmt(T->getCatchBlock(), Env);
    if (T->getFinallyBlock())
      hoistStmt(T->getFinallyBlock(), Env);
    return;
  }
  case NodeKind::SwitchStmt:
    for (const auto &Clause : cast<SwitchStmt>(S)->getClauses())
      for (const Stmt *Inner : Clause.Body)
        hoistStmt(Inner, Env);
    return;
  default:
    return;
  }
}

void InstrumentedInterpreter::hoist(const std::vector<Stmt *> &Body,
                                    EnvRef Env) {
  for (const Stmt *S : Body)
    hoistStmt(S, Env);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

IComp InstrumentedInterpreter::execBlockBody(const std::vector<Stmt *> &Body) {
  return execStmtsFrom(Body, 0);
}

IComp InstrumentedInterpreter::execStmtsFrom(const std::vector<Stmt *> &Body,
                                             size_t From) {
  for (size_t I = From; I < Body.size(); ++I) {
    IComp C = execStmt(Body[I]);
    if (!C.isAbrupt())
      continue;
    if (C.IndetControl && C.K != IComp::Fatal && I + 1 < Body.size()) {
      // Other executions may not take this control transfer: explore the
      // statements it skips counterfactually.
      std::vector<StringId> Vd;
      for (size_t R = I + 1; R < Body.size(); ++R)
        collectAssignedInStmt(Body[R], Vd);
      std::sort(Vd.begin(), Vd.end());
      Vd.erase(std::unique(Vd.begin(), Vd.end()), Vd.end());
      IComp CF = counterfactualBranch(
          Vd, [&] { return execStmtsFrom(Body, I + 1); });
      if (CF.K == IComp::Fatal)
        return CF;
    }
    return C;
  }
  return IComp::normal();
}

IComp InstrumentedInterpreter::execStmt(const Stmt *S) {
  IComp Tick;
  if (!tick(Tick))
    return Tick;
  if (!inCounterfactual())
    noteExecutedStmt(S->getID());

  switch (S->getKind()) {
  case NodeKind::ExpressionStmt: {
    IRes R = evalExpr(cast<ExpressionStmt>(S)->getExpr());
    if (R.abrupt())
      return R.C;
    LastStmtValue = R.V;
    return IComp::normal();
  }
  case NodeKind::VarDeclStmt: {
    const auto &Decls = cast<VarDeclStmt>(S)->getDeclarators();
    for (size_t I = 0; I < Decls.size(); ++I) {
      if (!Decls[I].Init)
        continue;
      IRes R = evalExpr(Decls[I].Init);
      if (R.abrupt())
        return R.C;
      recordFact(FactKind::Assign, S->getID(),
                 TaggedValue(R.V.V, taintAdjust(R.V.D)),
                 static_cast<uint16_t>(I));
      setVar(Decls[I].Atom, R.V);
    }
    return IComp::normal();
  }
  case NodeKind::FunctionDeclStmt:
    return IComp::normal();
  case NodeKind::BlockStmt:
    return execBlockBody(cast<BlockStmt>(S)->getBody());
  case NodeKind::IfStmt:
    return execIf(cast<IfStmt>(S));
  case NodeKind::WhileStmt: {
    const auto *W = cast<WhileStmt>(S);
    return execLoop(S, W->getCond(), W->getBody(), nullptr,
                    /*CondFirst=*/true);
  }
  case NodeKind::DoWhileStmt: {
    const auto *W = cast<DoWhileStmt>(S);
    return execLoop(S, W->getCond(), W->getBody(), nullptr,
                    /*CondFirst=*/false);
  }
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(S);
    if (F->getInit()) {
      IComp C = execStmt(F->getInit());
      if (C.isAbrupt())
        return C;
    }
    return execLoop(S, F->getCond(), F->getBody(), F->getUpdate(),
                    /*CondFirst=*/true);
  }
  case NodeKind::ForInStmt:
    return execForIn(cast<ForInStmt>(S));
  case NodeKind::ReturnStmt: {
    const auto *R = cast<ReturnStmt>(S);
    if (!R->getArg())
      return IComp::ret(TaggedValue(Value::undefined()));
    IRes V = evalExpr(R->getArg());
    if (V.abrupt())
      return V.C;
    return IComp::ret(V.V);
  }
  case NodeKind::BreakStmt:
    return {IComp::Break, TaggedValue(), false};
  case NodeKind::ContinueStmt:
    return {IComp::Continue, TaggedValue(), false};
  case NodeKind::ThrowStmt: {
    IRes V = evalExpr(cast<ThrowStmt>(S)->getArg());
    if (V.abrupt())
      return V.C;
    return IComp::thrown(V.V);
  }
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    bool HadThrowEscape = CfThrowMark.has_value();
    IComp C = execStmt(T->getBlock());
    // A counterfactually explored throw inside this try block: the other
    // execution runs our catch handler and skips the rest of the block —
    // weaken everything written since the escape point.
    if (!HadThrowEscape && CfThrowMark && T->getCatchBlock()) {
      markIndetSince(*CfThrowMark);
      CfThrowMark.reset();
    }
    if (C.K == IComp::Throw && T->getCatchBlock()) {
      bool Indet = C.IndetControl;
      EnvRef CatchEnv = Envs.allocate(CurrentEnv);
      EnvRef Saved = CurrentEnv;
      CurrentEnv = CatchEnv;
      declareVar(CatchEnv, T->getCatchAtom(),
                 Indet ? C.V.asIndeterminate() : C.V);
      // If the throw itself is control-dependent on indeterminate data,
      // other executions may skip the catch block entirely: treat it like a
      // branch under an indeterminate condition.
      Journal::Mark M = J.mark();
      if (Indet)
        ++IndetBranchDepth;
      C = execStmt(T->getCatchBlock());
      if (Indet) {
        --IndetBranchDepth;
        markIndetSince(M);
        if (C.isAbrupt())
          C.IndetControl = true;
      }
      CurrentEnv = Saved;
    }
    if (T->getFinallyBlock()) {
      IComp F = execStmt(T->getFinallyBlock());
      if (F.isAbrupt())
        return F;
    }
    return C;
  }
  case NodeKind::EmptyStmt:
    return IComp::normal();
  case NodeKind::SwitchStmt:
    return execSwitch(cast<SwitchStmt>(S));
  default:
    return IComp::fatal("expression node in statement position");
  }
}

IComp InstrumentedInterpreter::execSwitch(const SwitchStmt *Sw) {
  IRes Disc = evalExpr(Sw->getDisc());
  if (Disc.abrupt())
    return Disc.C;

  // Clause selection: evaluate tests in order until a strict match. The
  // selection is determinate iff the discriminant and every *evaluated*
  // test are (unevaluated tests are the same in every execution that takes
  // the same path, and irrelevant otherwise).
  const auto &Clauses = Sw->getClauses();
  Det SelDet = Disc.V.D;
  size_t Selected = Clauses.size();
  for (size_t I = 0; I < Clauses.size(); ++I) {
    if (!Clauses[I].Test)
      continue;
    IRes T = evalExpr(Clauses[I].Test);
    if (T.abrupt())
      return T.C;
    SelDet = meet(SelDet, T.V.D);
    if (strictEquals(Disc.V.V, T.V.V)) {
      Selected = I;
      break;
    }
  }
  if (Selected == Clauses.size())
    for (size_t I = 0; I < Clauses.size(); ++I)
      if (!Clauses[I].Test) {
        Selected = I;
        break;
      }

  // Record the selected-clause fact (Condition kind, clause index or ?).
  FactValue SelFact = FactValue::indet();
  if (SelDet == Det::Determinate) {
    SelFact.K = FactValue::Number;
    SelFact.Num = static_cast<double>(Selected);
  }
  recordFactValue(FactKind::Condition, Sw->getID(), SelFact);

  if (SelDet == Det::Determinate) {
    for (size_t I = Selected; I < Clauses.size(); ++I) {
      IComp C = execBlockBody(Clauses[I].Body);
      if (C.K == IComp::Break)
        return IComp::normal();
      if (C.isAbrupt())
        return C;
    }
    return IComp::normal();
  }

  // Indeterminate selection: other executions may run *any* clause suffix.
  // Run the concrete path with ÎF1 marking, and conservatively taint the
  // whole statement's syntactic write set plus the heap for the clauses we
  // did not run (the same treatment as ĈNTRABORT).
  Journal::Mark M = J.mark();
  ++IndetBranchDepth;
  IComp Result = IComp::normal();
  for (size_t I = Selected; I < Clauses.size(); ++I) {
    IComp C = execBlockBody(Clauses[I].Body);
    if (C.K == IComp::Break) {
      Result = IComp::normal();
      break;
    }
    if (C.isAbrupt()) {
      Result = C;
      break;
    }
  }
  --IndetBranchDepth;
  markIndetSince(M);
  cntrAbort(collectAssignedVars(Sw));
  if (Result.isAbrupt() && Result.K != IComp::Fatal)
    Result.IndetControl = true;
  return Result;
}

IComp InstrumentedInterpreter::execIf(const IfStmt *If) {
  IRes Cond = evalExpr(If->getCond());
  if (Cond.abrupt())
    return Cond.C;
  bool B = toBoolean(Cond.V.V);
  recordFactValue(FactKind::Condition, If->getID(),
                  Cond.V.isDet()
                      ? [&] {
                          FactValue F;
                          F.K = FactValue::Boolean;
                          F.B = B;
                          return F;
                        }()
                      : FactValue::indet());

  const Stmt *Taken = B ? If->getThen() : If->getElse();
  const Stmt *Untaken = B ? If->getElse() : If->getThen();

  if (Cond.V.isDet())
    return Taken ? execStmt(Taken) : IComp::normal();

  // Indeterminate condition. Explore the untaken side first (ĈNTR, against
  // the shared pre-branch state), then run the taken side and weaken its
  // writes (ÎF1).
  if (Untaken) {
    std::vector<StringId> Vd;
    collectAssignedInStmt(Untaken, Vd);
    IComp CF =
        counterfactualBranch(Vd, [&] { return execStmt(Untaken); });
    if (CF.K == IComp::Fatal)
      return CF;
  }
  if (!Taken)
    return IComp::normal();
  Journal::Mark M = J.mark();
  ++IndetBranchDepth;
  IComp C = execStmt(Taken);
  --IndetBranchDepth;
  markIndetSince(M);
  if (C.isAbrupt() && C.K != IComp::Fatal)
    C.IndetControl = true;
  return C;
}

IComp InstrumentedInterpreter::execLoop(const Stmt *LoopNode, const Expr *Cond,
                                        const Stmt *Body, const Expr *Update,
                                        bool CondFirst) {
  std::optional<Journal::Mark> IndetMark;
  uint32_t Trips = 0;
  Det TripDet = Det::Determinate;
  IComp Result = IComp::normal();
  bool SkipCondOnce = !CondFirst;
  bool StrictTainting = false;

  auto CounterfactualContinuation = [&]() {
    // ĈNTR on the loop desugaring if(x){s; while(x){s}}: hypothetically run
    // the body once more, then the rest of the loop.
    std::vector<StringId> Vd;
    collectAssignedInStmt(Body, Vd);
    return counterfactualBranch(Vd, [&]() -> IComp {
      IComp BC = execStmt(Body);
      if (BC.K == IComp::Break)
        return IComp::normal();
      if (BC.isAbrupt() && BC.K != IComp::Continue)
        return BC;
      if (Update) {
        IRes U = evalExpr(Update);
        if (U.abrupt())
          return U.C;
      }
      return execLoop(LoopNode, Cond, Body, Update, /*CondFirst=*/true);
    });
  };

  for (;;) {
    IComp Tick;
    if (!tick(Tick)) {
      Result = Tick;
      break;
    }

    if (!SkipCondOnce) {
      Det CondDet = Det::Determinate;
      bool B = true;
      if (Cond) {
        IRes C = evalExpr(Cond);
        if (C.abrupt()) {
          Result = C.C;
          break;
        }
        B = toBoolean(C.V.V);
        CondDet = C.V.D;
        recordFactValue(FactKind::Condition, LoopNode->getID(),
                        C.V.isDet()
                            ? [&] {
                                FactValue F;
                                F.K = FactValue::Boolean;
                                F.B = B;
                                return F;
                              }()
                            : FactValue::indet());
      }
      TripDet = meet(TripDet, CondDet);
      if (!B) {
        if (CondDet == Det::Indeterminate) {
          IComp CF = CounterfactualContinuation();
          if (CF.K == IComp::Fatal) {
            Result = CF;
            break;
          }
        }
        break;
      }
      if (CondDet == Det::Indeterminate && !IndetMark) {
        IndetMark = J.mark();
        if (Opts.StrictTaint) {
          ++IndetBranchDepth;
          StrictTainting = true;
        }
      }
    }
    SkipCondOnce = false;

    bool HadBreakEscape = CfBreakMark.has_value();
    IComp BC = execStmt(Body);
    // A counterfactually explored break/continue in this body: other
    // executions may exit the loop (or skip the body suffix) here.
    if (!HadBreakEscape && CfBreakMark) {
      TripDet = Det::Indeterminate;
      if (!IndetMark || *IndetMark > *CfBreakMark)
        IndetMark = *CfBreakMark;
      CfBreakMark.reset();
    }
    if (BC.K == IComp::Break) {
      if (BC.IndetControl) {
        // Other executions may keep looping arbitrarily; re-running the body
        // here would just re-take the same break, so fall back to the
        // ĈNTRABORT treatment over the loop's syntactic write set.
        TripDet = Det::Indeterminate;
        if (!IndetMark)
          IndetMark = J.mark();
        cntrAbort(collectAssignedVars(LoopNode));
      }
      break;
    }
    if (BC.isAbrupt() && BC.K != IComp::Continue) {
      Result = BC;
      break;
    }
    if (BC.K == IComp::Continue && BC.IndetControl) {
      TripDet = Det::Indeterminate;
      if (!IndetMark)
        IndetMark = J.mark();
    }
    ++Trips;
    if (Update) {
      IRes U = evalExpr(Update);
      if (U.abrupt()) {
        Result = U.C;
        break;
      }
    }
  }

  if (StrictTainting)
    --IndetBranchDepth;
  if (Result.K != IComp::Fatal) {
    FactValue TripFact = FactValue::indet();
    if (TripDet == Det::Determinate && !Result.isAbrupt()) {
      TripFact.K = FactValue::Number;
      TripFact.Num = Trips;
    }
    recordFactValue(FactKind::TripCount, LoopNode->getID(), TripFact);
  }
  if (IndetMark)
    markIndetSince(*IndetMark);
  if (Result.isAbrupt() && Result.K != IComp::Fatal && IndetMark)
    Result.IndetControl = true;
  return Result;
}

IComp InstrumentedInterpreter::execForIn(const ForInStmt *F) {
  IRes Obj = evalExpr(F->getObject());
  if (Obj.abrupt())
    return Obj.C;
  if (!Obj.V.V.isObject()) {
    recordFactValue(FactKind::TripCount, F->getID(), [&] {
      FactValue FV;
      FV.K = FactValue::Number;
      FV.Num = 0;
      return FV;
    }());
    return IComp::normal();
  }
  ObjectRef O = Obj.V.V.Obj;
  Det SetDet = meet(Obj.V.D, recordSetDeterminacy(O));

  std::vector<StringId> Keys = TheHeap.get(O).ownKeys();
  Journal::Mark M = J.mark();
  if (SetDet == Det::Indeterminate)
    ++IndetBranchDepth;

  IComp Result = IComp::normal();
  bool IndetExit = false;
  uint32_t Index = 0;
  for (StringId Key : Keys) {
    if (!TheHeap.get(O).has(Key))
      continue; // Deleted during iteration.
    // With a determinate property set, iteration order is determinate too
    // (paper Section 5.2), so each iteration's key is a per-index fact the
    // specializer can unroll against.
    if (SetDet == Det::Determinate && Index < 0xffff) {
      FactValue KeyFact;
      KeyFact.K = FactValue::String;
      KeyFact.Str = Key;
      recordFactValue(FactKind::ForInKey, F->getID(), KeyFact,
                      static_cast<uint16_t>(Index));
    }
    ++Index;
    setVar(F->getVarAtom(), TaggedValue(Value::atom(Key), SetDet));
    IComp C = execStmt(F->getBody());
    if (C.K == IComp::Break) {
      IndetExit = C.IndetControl;
      break;
    }
    if (C.isAbrupt() && C.K != IComp::Continue) {
      Result = C;
      break;
    }
  }

  if (SetDet == Det::Indeterminate)
    --IndetBranchDepth;

  FactValue TripFact = FactValue::indet();
  if (SetDet == Det::Determinate && !Result.isAbrupt() && !IndetExit) {
    TripFact.K = FactValue::Number;
    TripFact.Num = static_cast<double>(Keys.size());
  }
  if (Result.K != IComp::Fatal)
    recordFactValue(FactKind::TripCount, F->getID(), TripFact);

  if (SetDet == Det::Indeterminate || IndetExit) {
    // Other executions may iterate different keys (possibly *more* than we
    // did, including zero-iteration runs here) and write through computed
    // names anywhere reachable: weaken everything the loop wrote, taint the
    // body's syntactic write set (covering iterations we never saw), and
    // flush for heap writes we cannot enumerate.
    markIndetSince(M);
    if (SetDet == Det::Indeterminate) {
      for (StringId Name : collectAssignedVars(F)) {
        EnvRef E = Envs.lookupEnv(CurrentEnv, Name);
        if (E)
          weakenVar(E, Name);
      }
      flushHeap();
    }
    if (Result.isAbrupt() && Result.K != IComp::Fatal)
      Result.IndetControl = true;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Property access (L̂D / ŜTO)
//===----------------------------------------------------------------------===//

IRes InstrumentedInterpreter::readProperty(const TaggedValue &Base,
                                           StringId Name, Det NameDet) {
  Det DIn = meet(Base.D, NameDet);
  switch (Base.V.Kind) {
  case ValueKind::Undefined:
  case ValueKind::Null: {
    IComp C = throwString("TypeError: cannot read property '" +
                          Interner::global().str(Name) + "' of " +
                          (Base.V.isNull() ? "null" : "undefined"));
    // Whether this throw happens is control-dependent on the base value.
    C.IndetControl = Base.D == Det::Indeterminate;
    return IRes::abruptly(C);
  }
  case ValueKind::String: {
    std::string_view Chars = Base.V.strView();
    if (Name == atoms().Length)
      return IRes::value(TaggedValue(
          Value::number(static_cast<double>(Chars.size())), DIn));
    uint32_t I = Interner::global().arrayIndex(Name);
    if (I != Interner::NotAnIndex && I < Chars.size())
      return IRes::value(TaggedValue(
          Value::atom(Interner::global().internChar(Chars[I])), DIn));
    const Slot *S = TheHeap.get(StringProto).get(Name);
    if (!S)
      return IRes::value(TaggedValue(Value::undefined(), DIn));
    return IRes::value(TaggedValue(S->V, meet(DIn, slotDet(*S))));
  }
  case ValueKind::Number:
  case ValueKind::Boolean:
    return IRes::value(TaggedValue(Value::undefined(), DIn));
  case ValueKind::Object: {
    ObjectRef O = Base.V.Obj;
    Det MissDet = Det::Determinate;
    while (O) {
      const JSObject &Obj = TheHeap.get(O);
      if (const Slot *S = Obj.get(Name)) {
        Det D = meet(DIn, meet(MissDet, slotDet(*S)));
        // Paper Section 4: any value read from a DOM data structure is
        // indeterminate (native members exempt so DOM *methods* resolve).
        if (Obj.Class == ObjectClass::Dom && !(S->V.isObject() &&
            TheHeap.get(S->V.Obj).Class == ObjectClass::Native))
          D = meet(D, domDet());
        return IRes::value(TaggedValue(S->V, D));
      }
      if (Obj.Class == ObjectClass::Dom && O == Base.V.Obj) {
        // Unwritten DOM property: synthetic environment content.
        return IRes::value(TaggedValue(
            domSyntheticValue(Opts.DomSeed, O, Name), meet(DIn, domDet())));
      }
      // An open record — or one where this specific name was written in a
      // counterfactual world — may have the property in another execution,
      // shadowing whatever the prototype chain provides.
      if (!recordClosed(Obj) || Obj.isMaybeAbsent(Name))
        MissDet = Det::Indeterminate;
      O = Obj.Proto;
    }
    return IRes::value(TaggedValue(Value::undefined(), meet(DIn, MissDet)));
  }
  }
  return IRes::value(TaggedValue(Value::undefined(), DIn));
}

IComp InstrumentedInterpreter::setPropertyTagged(const TaggedValue &Base,
                                                 StringId Name, Det NameDet,
                                                 TaggedValue V) {
  if (!Base.V.isObject()) {
    IComp C = throwString("TypeError: cannot set property '" +
                          Interner::global().str(Name) + "' on a non-object");
    C.IndetControl = Base.D == Det::Indeterminate;
    return C;
  }
  writeProp(Base.V.Obj, Name, std::move(V), Base.D, NameDet);
  return IComp::normal();
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

IRes InstrumentedInterpreter::resolveKey(const MemberExpr *M, StringId &Key,
                                         Det &KeyDet) {
  if (!M->isComputed()) {
    Key = M->getPropertyAtom();
    KeyDet = Det::Determinate;
    return IRes::value(TaggedValue());
  }
  IRes I = evalExpr(M->getIndex());
  if (I.abrupt())
    return I;
  Key = toStringAtom(I.V.V, TheHeap);
  KeyDet = I.V.D;
  // The value of a computed property name is a core client fact (access
  // staticization, paper Section 2.2 / 5.1).
  recordFact(FactKind::PropName, M->getID(),
             TaggedValue(Value::atom(Key), KeyDet));
  return IRes::value(TaggedValue());
}

IRes InstrumentedInterpreter::evalMember(const MemberExpr *E) {
  IRes Base = evalExpr(E->getObject());
  if (Base.abrupt())
    return Base;
  StringId Key;
  Det KeyDet = Det::Determinate;
  IRes KeyR = resolveKey(E, Key, KeyDet);
  if (KeyR.abrupt())
    return KeyR;
  return readProperty(Base.V, Key, KeyDet);
}

IRes InstrumentedInterpreter::evalBranchExpr(const TaggedValue &CondV,
                                             const Expr *Taken,
                                             const Expr *Untaken) {
  if (CondV.isDet()) {
    if (!Taken)
      return IRes::value(CondV);
    return evalExpr(Taken);
  }
  // Indeterminate condition: explore the untaken side counterfactually
  // against the shared pre-branch state.
  if (Untaken) {
    std::vector<StringId> Vd;
    collectAssignedInExpr(Untaken, Vd);
    IComp CF = counterfactualBranch(Vd, [&] {
      IRes R = evalExpr(Untaken);
      return R.C;
    });
    if (CF.K == IComp::Fatal)
      return IRes::abruptly(CF);
  }
  if (!Taken)
    return IRes::value(CondV.asIndeterminate());
  Journal::Mark M = J.mark();
  ++IndetBranchDepth;
  IRes R = evalExpr(Taken);
  --IndetBranchDepth;
  markIndetSince(M);
  if (R.abrupt()) {
    if (R.C.K != IComp::Fatal)
      R.C.IndetControl = true;
    return R;
  }
  return IRes::value(R.V.asIndeterminate());
}

IRes InstrumentedInterpreter::evalExpr(const Expr *E) {
  IComp Tick;
  if (!tick(Tick))
    return IRes::abruptly(Tick);

  IRes Result = [&]() -> IRes {
    switch (E->getKind()) {
    case NodeKind::NumberLiteral:
      return IRes::value(
          TaggedValue(Value::number(cast<NumberLiteral>(E)->getValue())));
    case NodeKind::StringLiteral:
      return IRes::value(
          TaggedValue(Value::atom(cast<StringLiteral>(E)->getAtom())));
    case NodeKind::BooleanLiteral:
      return IRes::value(
          TaggedValue(Value::boolean(cast<BooleanLiteral>(E)->getValue())));
    case NodeKind::NullLiteral:
      return IRes::value(TaggedValue(Value::null()));
    case NodeKind::UndefinedLiteral:
      return IRes::value(TaggedValue(Value::undefined()));
    case NodeKind::This:
      return IRes::value(Frames.back().ThisV);
    case NodeKind::Identifier: {
      const auto *Id = cast<Identifier>(E);
      Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
      if (!B)
        return IRes::abruptly(throwString("ReferenceError: " + Id->getName() +
                                          " is not defined"));
      return IRes::value(TaggedValue(B->V, B->D));
    }
    case NodeKind::ArrayLiteral: {
      const auto *A = cast<ArrayLiteral>(E);
      ObjectRef Arr = TheHeap.allocate(ObjectClass::Array, A->getID());
      TheHeap.get(Arr).Proto = ArrayProto;
      TheHeap.get(Arr).ClosedEpoch = Epoch;
      size_t N = A->getElements().size();
      for (size_t I = 0; I < N; ++I) {
        IRes R = evalExpr(A->getElements()[I]);
        if (R.abrupt())
          return R;
        TheHeap.get(Arr).set(Interner::global().internIndex(I),
                             Slot{R.V.V, taintAdjust(R.V.D), Epoch});
      }
      TheHeap.get(Arr).set(atoms().Length,
                           Slot{Value::number(static_cast<double>(N)),
                                Det::Determinate, Epoch});
      return IRes::value(TaggedValue(Value::object(Arr)));
    }
    case NodeKind::ObjectLiteral: {
      const auto *OL = cast<ObjectLiteral>(E);
      ObjectRef O = TheHeap.allocate(ObjectClass::Plain, OL->getID());
      TheHeap.get(O).Proto = ObjectProto;
      TheHeap.get(O).ClosedEpoch = Epoch;
      for (const auto &P : OL->getProperties()) {
        IRes R = evalExpr(P.Value);
        if (R.abrupt())
          return R;
        TheHeap.get(O).set(P.KeyAtom,
                           Slot{R.V.V, taintAdjust(R.V.D), Epoch});
      }
      return IRes::value(TaggedValue(Value::object(O)));
    }
    case NodeKind::Function: {
      const auto *F = cast<FunctionExpr>(E);
      ObjectRef FnObj = makeFunction(F, CurrentEnv);
      if (!F->getName().empty()) {
        EnvRef Wrapper = Envs.allocate(CurrentEnv);
        Envs.get(Wrapper).Vars[F->getNameAtom()] =
            Binding{Value::object(FnObj), Det::Determinate};
        TheHeap.get(FnObj).Closure = Wrapper;
      }
      return IRes::value(TaggedValue(Value::object(FnObj)));
    }
    case NodeKind::Member:
      return evalMember(cast<MemberExpr>(E));
    case NodeKind::Call:
      return evalCall(cast<CallExpr>(E));
    case NodeKind::New:
      return evalNew(cast<NewExpr>(E));
    case NodeKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      if (U->getOp() == UnaryOp::Delete) {
        const auto *M = dyn_cast<MemberExpr>(U->getOperand());
        if (!M)
          return IRes::value(TaggedValue(Value::boolean(false)));
        IRes Base = evalExpr(M->getObject());
        if (Base.abrupt())
          return Base;
        StringId Key;
        Det KeyDet = Det::Determinate;
        IRes KeyR = resolveKey(M, Key, KeyDet);
        if (KeyR.abrupt())
          return KeyR;
        if (!Base.V.V.isObject())
          return IRes::value(
              TaggedValue(Value::boolean(true), meet(Base.V.D, KeyDet)));
        if (KeyDet == Det::Indeterminate)
          openRecord(Base.V.V.Obj); // Some property goes away; which varies.
        bool Existed = eraseProp(Base.V.V.Obj, Key);
        if (Base.V.D == Det::Indeterminate)
          flushHeap();
        return IRes::value(
            TaggedValue(Value::boolean(Existed), meet(Base.V.D, KeyDet)));
      }
      if (U->getOp() == UnaryOp::Typeof) {
        if (const auto *Id = dyn_cast<Identifier>(U->getOperand())) {
          Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
          if (!B)
            return IRes::value(TaggedValue(Value::atom(atoms().Undefined)));
          return IRes::value(
              TaggedValue(Value::string(typeofString(B->V, TheHeap)), B->D));
        }
      }
      IRes R = evalExpr(U->getOperand());
      if (R.abrupt())
        return R;
      Det D = R.V.D;
      switch (U->getOp()) {
      case UnaryOp::Not:
        return IRes::value(TaggedValue(Value::boolean(!toBoolean(R.V.V)), D));
      case UnaryOp::Minus:
        return IRes::value(TaggedValue(Value::number(-toNumber(R.V.V)), D));
      case UnaryOp::Plus:
        return IRes::value(TaggedValue(Value::number(toNumber(R.V.V)), D));
      case UnaryOp::Typeof:
        return IRes::value(
            TaggedValue(Value::string(typeofString(R.V.V, TheHeap)), D));
      case UnaryOp::Void:
        return IRes::value(TaggedValue(Value::undefined()));
      case UnaryOp::Delete:
        return IRes::value(TaggedValue(Value::boolean(true)));
      }
      return IRes::value(TaggedValue(Value::undefined(), D));
    }
    case NodeKind::Update:
      return evalUpdate(cast<UpdateExpr>(E));
    case NodeKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      IRes L = evalExpr(B->getLHS());
      if (L.abrupt())
        return L;
      IRes R = evalExpr(B->getRHS());
      if (R.abrupt())
        return R;
      Det D = meet(L.V.D, R.V.D);
      if (B->getOp() == BinaryOp::In) {
        if (!R.V.V.isObject()) {
          IComp C = throwString("TypeError: 'in' requires an object");
          C.IndetControl = R.V.D == Det::Indeterminate;
          return IRes::abruptly(C);
        }
        StringId Key = toStringAtom(L.V.V, TheHeap);
        // Walk the chain; openness on the way makes the answer uncertain.
        Det MissDet = Det::Determinate;
        for (ObjectRef O = R.V.V.Obj; O; O = TheHeap.get(O).Proto) {
          const JSObject &Obj = TheHeap.get(O);
          if (Obj.has(Key)) {
            Det HitDet = Obj.isMaybePresent(Key) ? Det::Indeterminate
                                                 : Det::Determinate;
            return IRes::value(TaggedValue(Value::boolean(true),
                                           meet(meet(D, MissDet), HitDet)));
          }
          if (!recordClosed(Obj) || Obj.isMaybeAbsent(Key))
            MissDet = Det::Indeterminate;
        }
        return IRes::value(
            TaggedValue(Value::boolean(false), meet(D, MissDet)));
      }
      if (B->getOp() == BinaryOp::Instanceof) {
        if (!R.V.V.isObject()) {
          IComp C = throwString("TypeError: 'instanceof' requires a function");
          C.IndetControl = R.V.D == Det::Indeterminate;
          return IRes::abruptly(C);
        }
        IRes Proto = readProperty(R.V, atoms().Prototype, Det::Determinate);
        if (Proto.abrupt())
          return Proto;
        Det DP = meet(D, Proto.V.D);
        if (!L.V.V.isObject() || !Proto.V.V.isObject())
          return IRes::value(TaggedValue(Value::boolean(false), DP));
        for (ObjectRef O = TheHeap.get(L.V.V.Obj).Proto; O;
             O = TheHeap.get(O).Proto)
          if (O == Proto.V.V.Obj)
            return IRes::value(TaggedValue(Value::boolean(true), DP));
        return IRes::value(TaggedValue(Value::boolean(false), DP));
      }
      return IRes::value(
          TaggedValue(applyBinaryOp(B->getOp(), L.V.V, R.V.V, TheHeap), D));
    }
    case NodeKind::Logical: {
      const auto *L = cast<LogicalExpr>(E);
      IRes LHS = evalExpr(L->getLHS());
      if (LHS.abrupt())
        return LHS;
      bool Truthy = toBoolean(LHS.V.V);
      bool EvaluatesRHS = L->isAnd() ? Truthy : !Truthy;
      return evalBranchExpr(LHS.V, EvaluatesRHS ? L->getRHS() : nullptr,
                            EvaluatesRHS ? nullptr : L->getRHS());
    }
    case NodeKind::Assign:
      return evalAssign(cast<AssignExpr>(E));
    case NodeKind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      IRes Cond = evalExpr(C->getCond());
      if (Cond.abrupt())
        return Cond;
      bool B = toBoolean(Cond.V.V);
      recordFactValue(FactKind::Condition, E->getID(),
                      Cond.V.isDet()
                          ? [&] {
                              FactValue F;
                              F.K = FactValue::Boolean;
                              F.B = B;
                              return F;
                            }()
                          : FactValue::indet());
      return evalBranchExpr(Cond.V, B ? C->getThen() : C->getElse(),
                            B ? C->getElse() : C->getThen());
    }
    default:
      return IRes::abruptly(
          IComp::fatal("statement node in expression position"));
    }
  }();

  if (Opts.RecordAllExpressions && !Result.abrupt())
    recordFact(FactKind::Expression, E->getID(), Result.V);
  return Result;
}

IRes InstrumentedInterpreter::evalAssign(const AssignExpr *E) {
  auto Compute = [&](const TaggedValue &Old, bool &Failed,
                     IComp &C) -> TaggedValue {
    IRes R = evalExpr(E->getValue());
    if (R.abrupt()) {
      Failed = true;
      C = R.C;
      return TaggedValue();
    }
    if (E->getOp() == AssignOp::Assign)
      return R.V;
    BinaryOp Op;
    switch (E->getOp()) {
    case AssignOp::Add:
      Op = BinaryOp::Add;
      break;
    case AssignOp::Sub:
      Op = BinaryOp::Sub;
      break;
    case AssignOp::Mul:
      Op = BinaryOp::Mul;
      break;
    case AssignOp::Div:
      Op = BinaryOp::Div;
      break;
    default:
      Op = BinaryOp::Mod;
      break;
    }
    return TaggedValue(applyBinaryOp(Op, Old.V, R.V.V, TheHeap),
                       meet(Old.D, R.V.D));
  };

  if (const auto *Id = dyn_cast<Identifier>(E->getTarget())) {
    Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
    if (!B && E->getOp() != AssignOp::Assign)
      return IRes::abruptly(throwString("ReferenceError: " + Id->getName() +
                                        " is not defined"));
    TaggedValue Old = B ? TaggedValue(B->V, B->D) : TaggedValue();
    bool Failed = false;
    IComp C;
    TaggedValue NewV = Compute(Old, Failed, C);
    if (Failed)
      return IRes::abruptly(C);
    recordFact(FactKind::Assign, E->getID(),
               TaggedValue(NewV.V, taintAdjust(NewV.D)));
    setVar(Id->getAtom(), NewV);
    return IRes::value(NewV);
  }

  const auto *M = cast<MemberExpr>(E->getTarget());
  IRes Base = evalExpr(M->getObject());
  if (Base.abrupt())
    return Base;
  StringId Key;
  Det KeyDet = Det::Determinate;
  IRes KeyR = resolveKey(M, Key, KeyDet);
  if (KeyR.abrupt())
    return KeyR;
  TaggedValue Old;
  if (E->getOp() != AssignOp::Assign) {
    IRes OldR = readProperty(Base.V, Key, KeyDet);
    if (OldR.abrupt())
      return OldR;
    Old = OldR.V;
  }
  bool Failed = false;
  IComp C;
  TaggedValue NewV = Compute(Old, Failed, C);
  if (Failed)
    return IRes::abruptly(C);
  recordFact(FactKind::Assign, E->getID(),
             TaggedValue(NewV.V, taintAdjust(NewV.D)));
  IComp W = setPropertyTagged(Base.V, Key, KeyDet, NewV);
  if (W.isAbrupt())
    return IRes::abruptly(W);
  return IRes::value(NewV);
}

IRes InstrumentedInterpreter::evalUpdate(const UpdateExpr *E) {
  double Delta = E->isIncrement() ? 1 : -1;
  if (const auto *Id = dyn_cast<Identifier>(E->getOperand())) {
    Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
    if (!B)
      return IRes::abruptly(throwString("ReferenceError: " + Id->getName() +
                                        " is not defined"));
    double Old = toNumber(B->V);
    Det D = B->D;
    setVar(Id->getAtom(), TaggedValue(Value::number(Old + Delta), D));
    return IRes::value(
        TaggedValue(Value::number(E->isPrefix() ? Old + Delta : Old), D));
  }
  const auto *M = dyn_cast<MemberExpr>(E->getOperand());
  if (!M)
    return IRes::abruptly(throwString("TypeError: invalid update target"));
  IRes Base = evalExpr(M->getObject());
  if (Base.abrupt())
    return Base;
  StringId Key;
  Det KeyDet = Det::Determinate;
  IRes KeyR = resolveKey(M, Key, KeyDet);
  if (KeyR.abrupt())
    return KeyR;
  IRes OldR = readProperty(Base.V, Key, KeyDet);
  if (OldR.abrupt())
    return OldR;
  double Old = toNumber(OldR.V.V);
  Det D = OldR.V.D;
  IComp W = setPropertyTagged(Base.V, Key, KeyDet,
                              TaggedValue(Value::number(Old + Delta), D));
  if (W.isAbrupt())
    return IRes::abruptly(W);
  return IRes::value(
      TaggedValue(Value::number(E->isPrefix() ? Old + Delta : Old), D));
}

//===----------------------------------------------------------------------===//
// Calls (ÎNV)
//===----------------------------------------------------------------------===//

IRes InstrumentedInterpreter::evalCall(const CallExpr *E) {
  TaggedValue ThisV;
  TaggedValue Callee;
  if (const auto *M = dyn_cast<MemberExpr>(E->getCallee())) {
    IRes Base = evalExpr(M->getObject());
    if (Base.abrupt())
      return Base;
    StringId Key;
    Det KeyDet = Det::Determinate;
    IRes KeyR = resolveKey(M, Key, KeyDet);
    if (KeyR.abrupt())
      return KeyR;
    IRes Fn = readProperty(Base.V, Key, KeyDet);
    if (Fn.abrupt())
      return Fn;
    ThisV = Base.V;
    Callee = Fn.V;
  } else {
    IRes Fn = evalExpr(E->getCallee());
    if (Fn.abrupt())
      return Fn;
    Callee = Fn.V;
  }

  std::vector<TaggedValue> Args;
  Args.reserve(E->getArgs().size());
  for (size_t I = 0; I < E->getArgs().size(); ++I) {
    IRes R = evalExpr(E->getArgs()[I]);
    if (R.abrupt())
      return R;
    Args.push_back(R.V);
  }

  // Facts about this call are keyed by the *child* context (site +
  // occurrence), so distinct loop iterations keep distinct facts (the
  // paper's 24_0 vs 24_1 contexts).
  ContextID ChildCtx = enterSite(E->getID(), E->getLine());
  recordFactAt(FactKind::Callee, E->getID(), ChildCtx, Callee);
  for (size_t I = 0; I < Args.size(); ++I)
    recordFactAt(FactKind::CallArg, E->getID(), ChildCtx, Args[I],
                 static_cast<uint16_t>(I));
  if (!inCounterfactual())
    noteExecutedCall(E->getID());

  if (Callee.V.isObject() && Callee.V.Obj == EvalFn)
    return evalEval(E->getID(), Args, ChildCtx);

  return callValueTagged(Callee, ThisV, Args, ChildCtx);
}

ContextID InstrumentedInterpreter::enterSite(NodeID Site, uint32_t Line) {
  uint32_t Occ = Frames.back().SiteCounts[Site]++;
  return Contexts.intern(currentCtx(), Site, Occ, Line);
}

IRes InstrumentedInterpreter::callValueTagged(
    const TaggedValue &Callee, const TaggedValue &ThisV,
    const std::vector<TaggedValue> &Args, ContextID ChildCtx) {
  if (!Callee.V.isObject()) {
    IComp C = throwString("TypeError: " + toStringValue(Callee.V, TheHeap) +
                          " is not a function");
    C.IndetControl = Callee.D == Det::Indeterminate;
    return IRes::abruptly(C);
  }
  JSObject &O = TheHeap.get(Callee.V.Obj);
  if (O.Class == ObjectClass::Native) {
    const NativeInfo &Info = nativeInfo(O.Native);
    if (inCounterfactual() && !Info.CounterfactualSafe) {
      // A native we cannot undo: abort the counterfactual execution
      // (paper Section 4).
      CfAbortRequested = true;
      return IRes::abruptly(throwString("__counterfactual_abort"));
    }
    NativeResult R = callNative(*this, O.Native, ThisV, Args);
    if (R.Threw) {
      IComp C = IComp::thrown(TaggedValue(R.Thrown));
      C.IndetControl = Callee.D == Det::Indeterminate;
      return IRes::abruptly(C);
    }
    Det D = R.Result.D;
    if (Info.DomRead)
      D = Opts.DeterminateDom ? D : Det::Indeterminate;
    D = meet(D, Callee.D);
    if (Callee.D == Det::Indeterminate)
      flushHeap();
    return IRes::value(TaggedValue(R.Result.V, D));
  }
  if (O.Class != ObjectClass::Function) {
    IComp C = throwString("TypeError: not a function");
    C.IndetControl = Callee.D == Det::Indeterminate;
    return IRes::abruptly(C);
  }
  return callClosure(Callee.V.Obj, Callee.D, ThisV, Args, ChildCtx);
}

IRes InstrumentedInterpreter::callClosure(ObjectRef FnObj, Det CalleeDet,
                                          const TaggedValue &ThisV,
                                          const std::vector<TaggedValue> &Args,
                                          ContextID ChildCtx) {
  switch (Gov.enterCall()) {
  case ResourceGovernor::CallGate::Ok:
    break;
  case ResourceGovernor::CallGate::Overflow:
    // Natural overflow stays a catchable JS exception, as before.
    return IRes::abruptly(
        throwString("RangeError: maximum call depth exceeded"));
  case ResourceGovernor::CallGate::Trip:
    return IRes::abruptly(trapCompletion());
  }

  const JSObject &O = TheHeap.get(FnObj);
  const FunctionExpr *Fn = O.Fn;
  EnvRef CallEnv = Envs.allocate(O.Closure);
  const std::vector<StringId> &Params = Fn->getParamAtoms();
  for (size_t I = 0; I < Params.size(); ++I) {
    TaggedValue V = I < Args.size() ? Args[I] : TaggedValue();
    declareVar(CallEnv, Params[I], std::move(V));
  }
  const auto *Body = cast<BlockStmt>(Fn->getBody());
  hoist(Body->getBody(), CallEnv);

  EnvRef SavedEnv = CurrentEnv;
  CurrentEnv = CallEnv;
  Frames.push_back(Frame{ChildCtx, {}, ThisV, std::nullopt});
  IComp C = execBlockBody(Body->getBody());
  Gov.exitCall();
  // A counterfactually explored `return` escaped somewhere in this
  // activation: other executions leave early, so everything written since
  // then is weakened and the return value cannot be determinate.
  std::optional<Journal::Mark> ReturnEscape = Frames.back().ReturnEscape;
  Frames.pop_back();
  CurrentEnv = SavedEnv;
  if (ReturnEscape) {
    markIndetSince(*ReturnEscape);
    C.V.D = Det::Indeterminate;
    if (C.K == IComp::Normal)
      C.IndetControl = true;
  }

  // ÎNV: an indeterminate callee means another execution may have run
  // arbitrary other code here — flush, and the result is indeterminate.
  bool IndetCallee = CalleeDet == Det::Indeterminate;
  if (IndetCallee)
    flushHeap();

  switch (C.K) {
  case IComp::Normal:
    return IRes::value(TaggedValue(Value::undefined(),
                                   (IndetCallee || ReturnEscape)
                                       ? Det::Indeterminate
                                       : Det::Determinate));
  case IComp::Return: {
    TaggedValue V = C.V;
    if (IndetCallee || C.IndetControl || ReturnEscape)
      V.D = Det::Indeterminate;
    return IRes::value(V);
  }
  case IComp::Break:
  case IComp::Continue:
    return IRes::abruptly(
        IComp::fatal("break/continue escaped a function body"));
  case IComp::Throw: {
    if (IndetCallee) {
      C.V.D = Det::Indeterminate;
      C.IndetControl = true;
    }
    return IRes::abruptly(C);
  }
  case IComp::Fatal:
    return IRes::abruptly(C);
  }
  return IRes::value(TaggedValue());
}

IRes InstrumentedInterpreter::evalNew(const NewExpr *E) {
  IRes Fn = evalExpr(E->getCallee());
  if (Fn.abrupt())
    return Fn;
  std::vector<TaggedValue> Args;
  Args.reserve(E->getArgs().size());
  for (size_t I = 0; I < E->getArgs().size(); ++I) {
    IRes R = evalExpr(E->getArgs()[I]);
    if (R.abrupt())
      return R;
    Args.push_back(R.V);
  }
  ContextID ChildCtx = enterSite(E->getID(), E->getLine());
  recordFactAt(FactKind::Callee, E->getID(), ChildCtx, Fn.V);
  for (size_t I = 0; I < Args.size(); ++I)
    recordFactAt(FactKind::CallArg, E->getID(), ChildCtx, Args[I],
                 static_cast<uint16_t>(I));
  if (!inCounterfactual())
    noteExecutedCall(E->getID());

  if (!Fn.V.V.isObject())
    return IRes::abruptly(throwString("TypeError: not a constructor"));
  JSObject &FnObj = TheHeap.get(Fn.V.V.Obj);
  if (FnObj.Class == ObjectClass::Native) {
    NativeResult R = callNative(*this, FnObj.Native, TaggedValue(), Args);
    if (R.Threw)
      return IRes::abruptly(IComp::thrown(TaggedValue(R.Thrown)));
    return IRes::value(TaggedValue(R.Result.V, meet(R.Result.D, Fn.V.D)));
  }
  if (FnObj.Class != ObjectClass::Function)
    return IRes::abruptly(throwString("TypeError: not a constructor"));

  ObjectRef Fresh = TheHeap.allocate(ObjectClass::Plain, E->getID());
  TheHeap.get(Fresh).ClosedEpoch = Epoch;
  IRes ProtoR = readProperty(Fn.V, atoms().Prototype, Det::Determinate);
  if (ProtoR.abrupt())
    return ProtoR;
  TheHeap.get(Fresh).Proto =
      ProtoR.V.V.isObject() ? ProtoR.V.V.Obj : ObjectProto;

  IRes R = callClosure(Fn.V.V.Obj, Fn.V.D, TaggedValue(Value::object(Fresh)),
                       Args, ChildCtx);
  if (R.abrupt())
    return R;
  if (R.V.V.isObject())
    return R;
  return IRes::value(TaggedValue(Value::object(Fresh),
                                 meet(Fn.V.D, Det::Determinate)));
}

IRes InstrumentedInterpreter::evalEval(NodeID Site,
                                       const std::vector<TaggedValue> &Args,
                                       ContextID ChildCtx) {
  TaggedValue Arg = Args.empty() ? TaggedValue() : Args[0];
  recordFactAt(FactKind::EvalArg, Site, ChildCtx, Arg);
  if (!Arg.V.isString())
    return IRes::value(Arg);

  if (!Gov.enterEval())
    return IRes::abruptly(trapCompletion());
  struct EvalScope {
    ResourceGovernor &G;
    ~EvalScope() { G.exitEval(); }
  } Scope{Gov};

  DiagnosticEngine Diags;
  ASTContext &EvalCtx = Opts.EvalContext ? *Opts.EvalContext : *Prog.Context;
  std::vector<Stmt *> Body =
      parseIntoContext(Interner::global().str(Arg.V.Str), EvalCtx, Diags);
  if (Diags.hasErrors()) {
    IComp C = throwString("SyntaxError: " + Diags.diagnostics()[0].Message);
    C.IndetControl = Arg.D == Det::Indeterminate;
    return IRes::abruptly(C);
  }
  hoist(Body, CurrentEnv);

  TaggedValue Saved = LastStmtValue;
  LastStmtValue = TaggedValue();
  Journal::Mark M = J.mark();
  bool Indet = Arg.D == Det::Indeterminate;
  if (Indet)
    ++IndetBranchDepth;
  IComp C = execBlockBody(Body);
  if (Indet) {
    --IndetBranchDepth;
    // Other executions evaluate different code: weaken everything this code
    // wrote and flush (the paper's implementation flushes the heap when the
    // eval'd code is not determinate).
    markIndetSince(M);
    flushHeap();
  }
  TaggedValue Result = LastStmtValue;
  LastStmtValue = Saved;
  if (C.K == IComp::Return)
    return IRes::abruptly(throwString("SyntaxError: illegal return"));
  if (C.isAbrupt()) {
    if (Indet && C.K != IComp::Fatal)
      C.IndetControl = true;
    return IRes::abruptly(C);
  }
  if (Indet)
    Result.D = Det::Indeterminate;
  return IRes::value(Result);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

void InstrumentedInterpreter::degradeAfterTrap(const IComp &C) {
  Trap = C.Trap;
  Degradation.Trap = C.Trap;
  Degradation.Trip = Gov.trip();
  // Exactly the ĈNTRABORT recipe, applied to the whole remaining run: the
  // unexecuted suffix of the program may write anything, so open every
  // record (epoch bump) and weaken every non-immune binding. Everything
  // recorded in the FactDB *before* the trip described fully-executed
  // occurrences and stays sound; the final-state projection becomes
  // conservative (all indeterminate).
  flushHeap();
  Degradation.addEvent(C.Trap, "heap-flush", "epoch bumped, records opened");
  taintAllEnvironments();
  Degradation.addEvent(C.Trap, "env-taint",
                       "all non-immune bindings weakened");
  Degradation.addEvent(C.Trap, "abandon-run",
                       toStringValue(C.V.V, TheHeap));
  Degradation.StepsUsed = Gov.stepsUsed();
  Degradation.HeapCellsUsed = Gov.heapCellsUsed();
  Stats.StepsUsed = Gov.stepsUsed();
}

bool InstrumentedInterpreter::run() {
  Gov.startClock();
  CurrentEnv = GlobalEnv;
  Frames.back().ThisV = TaggedValue(Value::object(WindowObj));
  hoist(Prog.Body, GlobalEnv);
  IComp C = incrementalActive() ? execProgramBody() : execBlockBody(Prog.Body);
  Stats.StepsUsed = Gov.stepsUsed();
  if (C.K == IComp::Throw) {
    Error = "uncaught exception: " + toStringValue(C.V.V, TheHeap);
    return false;
  }
  if (C.K == IComp::Fatal) {
    if (isResourceTrap(C.Trap)) {
      // Degrade, don't die: keep the partial-but-sound facts.
      degradeAfterTrap(C);
      return true;
    }
    Error = toStringValue(C.V.V, TheHeap);
    Trap = C.Trap;
    return false;
  }

  if (Opts.RunEventHandlers) {
    // Matches the concrete interpreter: only ready/load handlers fire.
    std::vector<std::pair<StringId, Value>> Firable;
    for (auto &H : EventHandlers)
      if (H.first == atoms().Ready || H.first == atoms().Load)
        Firable.push_back(H);
    EventHandlers = std::move(Firable);
    size_t Fired = 0;
    uint32_t HandlerIndex = 0;
    while (Fired < EventHandlers.size()) {
      size_t Remaining = EventHandlers.size() - Fired;
      size_t Pick = Fired + DomRng.nextBelow(Remaining);
      std::swap(EventHandlers[Fired], EventHandlers[Pick]);
      Value Handler = EventHandlers[Fired].second;
      StringId EventName = EventHandlers[Fired].first;
      ++Fired;

      // "Since DOM events can fire in any order, we perform a heap flush
      // immediately upon entering an event handler" (Section 4).
      flushHeap();
      // Event handlers run under a synthetic context frame (site 0 with the
      // firing index as occurrence) so facts inside them stay qualified.
      std::vector<TaggedValue> HandlerArgs = {
          TaggedValue(Value::atom(EventName), Det::Indeterminate)};
      ContextID HandlerCtx =
          Contexts.intern(ContextTable::Root, /*Site=*/0, HandlerIndex, 0);
      IRes R = callValueTagged(TaggedValue(Handler),
                               TaggedValue(Value::object(DocumentObj)),
                               HandlerArgs, HandlerCtx);
      ++HandlerIndex;
      if (R.C.K == IComp::Throw) {
        Error = "uncaught exception in event handler: " +
                toStringValue(R.C.V.V, TheHeap);
        Stats.StepsUsed = Gov.stepsUsed();
        return false;
      }
      if (R.C.K == IComp::Fatal) {
        if (isResourceTrap(R.C.Trap)) {
          degradeAfterTrap(R.C);
          return true;
        }
        Error = toStringValue(R.C.V.V, TheHeap);
        Trap = R.C.Trap;
        Stats.StepsUsed = Gov.stepsUsed();
        return false;
      }
    }
  }
  Stats.StepsUsed = Gov.stepsUsed();
  Degradation.StepsUsed = Gov.stepsUsed();
  Degradation.HeapCellsUsed = Gov.heapCellsUsed();
  return true;
}


static bool isBuiltinGlobalName(const std::string &Name) {
  static const char *Builtins[] = {
      "Math",   "console", "alert",    "print",  "parseInt", "parseFloat",
      "isNaN",  "String",  "Number",   "Boolean", "eval",    "Object",
      "Array",  "window",  "document", "undefined"};
  for (const char *B : Builtins)
    if (Name == B)
      return true;
  return false;
}

TaggedValue InstrumentedInterpreter::globalVariable(const std::string &Name) {
  Binding *B = Envs.lookup(GlobalEnv, intern(Name));
  return B ? TaggedValue(B->V, B->D) : TaggedValue();
}

std::vector<std::string> InstrumentedInterpreter::userGlobalNames() {
  std::vector<std::string> Names;
  for (const auto &[Name, B] : Envs.get(GlobalEnv).Vars) {
    std::string Text(atomText(Name));
    if (!isBuiltinGlobalName(Text))
      Names.push_back(std::move(Text));
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

TaggedValue
InstrumentedInterpreter::taggedProperty(const TaggedValue &Base,
                                        const std::string &Name) {
  IRes R = readProperty(Base, intern(Name), Det::Determinate);
  return R.abrupt() ? TaggedValue() : R.V;
}

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

namespace {

AnalysisResult assembleResult(InstrumentedInterpreter &I, bool Ok) {
  AnalysisResult R;
  R.Ok = Ok;
  R.Error = I.errorMessage();
  R.Output = I.outputText();
  R.Trap = I.trapKind();
  R.Degradation = I.degradation();
  R.Facts = std::move(I.facts());
  R.Contexts = std::move(I.contexts());
  R.Stats = I.finalStats();
  R.ExecutedCalls = I.executedCalls();
  R.ExecutedStmts = I.executedStmts();
  return R;
}

} // namespace

AnalysisResult dda::runDeterminacyAnalysis(Program &P,
                                           const AnalysisOptions &Opts) {
  InstrumentedInterpreter I(P, Opts);
  bool Ok = I.run();
  return assembleResult(I, Ok);
}

AnalysisResult dda::runDeterminacyAnalysisMultiSeed(
    Program &P, const AnalysisOptions &Opts,
    const std::vector<uint64_t> &Seeds) {
  // One code path for every thread count: the serial case is the parallel
  // engine's inline Jobs == 1 mode (see ParallelAnalysis.cpp).
  return runDeterminacyAnalysisParallel(P, Opts, Seeds, 1);
}
