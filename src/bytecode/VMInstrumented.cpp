//===- VMInstrumented.cpp - Instrumented dispatch loop over bytecode -------==//
///
/// \file
/// The instrumented engine's dispatch loop (member functions of
/// InstrumentedInterpreter). It runs the *same* chunks the concrete loop
/// runs, layering the determinacy semantics over each instruction: tagging
/// rules on loads/stores/operators, fact recording at each node's
/// completing instruction, journal writes through the shared setVar /
/// writeProp helpers, and counterfactual fork/undo on indeterminate
/// branches via vmBranchExpr (the code-range twin of evalBranchExpr).
/// Every handler mirrors the corresponding arm of the tree-walk evalExpr
/// verbatim — the differential suites hold the two dispatch modes to
/// identical facts, output, and governor step counts.
///
/// Unlike the concrete loop, branch ranges run as recursive vmRun
/// activations rather than flattened IP jumps: an indeterminate condition
/// forks a counterfactual run of the untaken side with journal undo, which
/// needs an activation boundary. Everything else matches the concrete
/// loop's shape — threaded dispatch on GCC/Clang with a portable switch
/// fallback, and a preallocated operand stack indexed unchecked (the chunk
/// carries a conservative MaxStack bound).
///
//===----------------------------------------------------------------------===//

#include "ast/AST.h"
#include "bytecode/Bytecode.h"
#include "determinacy/InstrumentedInterpreter.h"
#include "interp/Ops.h"

using namespace dda;
using namespace dda::bc;

#if defined(__GNUC__) || defined(__clang__)
#define DDA_THREADED_DISPATCH 1
#else
#define DDA_THREADED_DISPATCH 0
#endif

IRes InstrumentedInterpreter::vmEval(const Expr *E) {
  const Chunk &Ch = BC->getOrCompile(E);
  return vmRun(Ch, 0, static_cast<uint32_t>(Ch.Code.size()));
}

IRes InstrumentedInterpreter::vmBranchExpr(
    const Chunk &Ch, const TaggedValue &CondV, bool HasTaken, uint32_t TFrom,
    uint32_t TTo, bool HasUntaken, uint32_t UFrom, uint32_t UTo,
    uint32_t UntakenVd) {
  if (CondV.isDet()) {
    if (!HasTaken)
      return IRes::value(CondV);
    return vmRun(Ch, TFrom, TTo);
  }
  // Indeterminate condition: explore the untaken side counterfactually
  // against the shared pre-branch state.
  if (HasUntaken) {
    IComp CF = counterfactualBranch(Ch.VdLists[UntakenVd], [&] {
      IRes R = vmRun(Ch, UFrom, UTo);
      return R.C;
    });
    if (CF.K == IComp::Fatal)
      return IRes::abruptly(CF);
  }
  if (!HasTaken)
    return IRes::value(CondV.asIndeterminate());
  Journal::Mark M = J.mark();
  ++IndetBranchDepth;
  IRes R = vmRun(Ch, TFrom, TTo);
  --IndetBranchDepth;
  markIndetSince(M);
  if (R.abrupt()) {
    if (R.C.K != IComp::Fatal)
      R.C.IndetControl = true;
    return R;
  }
  return IRes::value(R.V.asIndeterminate());
}

IRes InstrumentedInterpreter::vmRun(const Chunk &Ch, uint32_t From,
                                    uint32_t To) {
  std::vector<TaggedValue> &S = VStack;
  std::vector<VMJoin> &Joins = JStack;
  const size_t Base = S.size();
  const size_t JBase = Joins.size();
  // One resize up front (MaxStack bounds any execution through the chunk,
  // including sub-range activations); pushes and pops below are unchecked
  // index writes. Nested activations reserve above this frame's region.
  S.resize(Base + Ch.MaxStack);
  size_t Top = Base;
  const Instr *const Code = Ch.Code.data();
  InlineCache *const ICs = Ch.IC.data();
  const bool RecordAll = Opts.RecordAllExpressions;
  auto Fail = [&](IComp C) {
    S.resize(Base);
    Joins.resize(JBase);
    return IRes::abruptly(std::move(C));
  };

  // Flattened determinate branches rejoin here: a taken then-range ends at
  // AEnd but resumes past the else-range at BEnd, and the branch node's
  // completing fact is recorded at the join (the branch's value is then on
  // top of the stack). Ranges nest strictly, so joins are LIFO; NextJoin
  // mirrors the top to keep the per-dispatch check to one compare.
  // Indeterminate conditions never come through here — they keep the
  // recursive vmBranchExpr activation (counterfactual fork/undo needs the
  // boundary), below which JBase isolates this frame's entries.
  uint32_t NextJoin = UINT32_MAX;
  uint32_t IP = From;

#if DDA_THREADED_DISPATCH
  // Label table indexed by Opcode; order must match the enum exactly.
  static const void *const Targets[] = {
      &&L_Tick,        &&L_PushNum,     &&L_PushAtom,
      &&L_PushBool,    &&L_PushNull,    &&L_PushUndef,
      &&L_PushThis,    &&L_LoadVar,     &&L_TypeofVar,
      &&L_DeleteFalse, &&L_UpdateVar,   &&L_UpdateInvalid,
      &&L_MakeClosure, &&L_FatalExpr,   &&L_NewArray,
      &&L_ArrayElem,   &&L_ArrayFinish, &&L_NewObject,
      &&L_ObjProp,     &&L_ObjFinish,   &&L_ResolveKey,
      &&L_GetMember,   &&L_GetCalleeMember, &&L_MemberOld,
      &&L_SetMember,   &&L_SetMemberCompound, &&L_DeleteMember,
      &&L_UpdateMember, &&L_LoadVarCompound, &&L_StoreVar,
      &&L_StoreVarCompound, &&L_Unary,  &&L_Binary,
      &&L_LogicalBranch, &&L_CondBranch, &&L_Invoke,
      &&L_InvokeNew,
  };
  static_assert(sizeof(Targets) / sizeof(Targets[0]) ==
                    static_cast<size_t>(Opcode::InvokeNew) + 1,
                "dispatch table out of sync with Opcode");

#define VM_DISPATCH()                                                          \
  do {                                                                         \
    while (IP == NextJoin) {                                                   \
      const VMJoin &Jn = Joins.back();                                         \
      if (RecordAll && (Code[Jn.Instr].Flags & kCompletes))                    \
        recordFact(FactKind::Expression, Code[Jn.Instr].ID, S[Top - 1]);       \
      IP = Jn.Resume;                                                          \
      Joins.pop_back();                                                        \
      NextJoin = Joins.size() == JBase ? UINT32_MAX : Joins.back().Join;       \
    }                                                                          \
    if (IP >= To)                                                              \
      goto L_Done;                                                             \
    goto *Targets[static_cast<size_t>(Code[IP].Op)];                           \
  } while (0)
#define VM_CASE(Name) L_##Name
// Each node's completing instruction is where the tree-walk's evalExpr
// wrapper would record the Expression fact for the node.
#define VM_NEXT()                                                              \
  do {                                                                         \
    if (RecordAll && (Code[IP].Flags & kCompletes))                            \
      recordFact(FactKind::Expression, Code[IP].ID, S[Top - 1]);               \
    ++IP;                                                                      \
    VM_DISPATCH();                                                             \
  } while (0)
// Branch handlers retarget IP themselves, so they record their own
// completing fact and jump without the VM_NEXT flag check.
#define VM_JUMP() VM_DISPATCH()

  VM_DISPATCH();
#else
#define VM_CASE(Name) case Opcode::Name
#define VM_NEXT() goto L_Next
#define VM_JUMP() goto L_Top
L_Top:
  while (IP == NextJoin) {
    const VMJoin &Jn = Joins.back();
    if (RecordAll && (Code[Jn.Instr].Flags & kCompletes))
      recordFact(FactKind::Expression, Code[Jn.Instr].ID, S[Top - 1]);
    IP = Jn.Resume;
    Joins.pop_back();
    NextJoin = Joins.size() == JBase ? UINT32_MAX : Joins.back().Join;
  }
  if (IP >= To)
    goto L_Done;
  switch (Code[IP].Op) {
#endif

  VM_CASE(Tick) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    VM_NEXT();
  }
  VM_CASE(PushNum) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    S[Top++] = TaggedValue(Value::number(Ch.Nums[Code[IP].C]));
    VM_NEXT();
  }
  VM_CASE(PushAtom) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    S[Top++] = TaggedValue(Value::atom(StringId{Code[IP].C}));
    VM_NEXT();
  }
  VM_CASE(PushBool) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    S[Top++] = TaggedValue(Value::boolean(Code[IP].C != 0));
    VM_NEXT();
  }
  VM_CASE(PushNull) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    S[Top++] = TaggedValue(Value::null());
    VM_NEXT();
  }
  VM_CASE(PushUndef) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    S[Top++] = TaggedValue(Value::undefined());
    VM_NEXT();
  }
  VM_CASE(PushThis) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    S[Top++] = Frames.back().ThisV;
    VM_NEXT();
  }
  VM_CASE(LoadVar) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    const Instr &I = Code[IP];
    InlineCache &C = ICs[IP];
    Binding *B;
    if (C.Key == CurrentEnv && C.Gen == Envs.shapeGen()) {
      B = static_cast<Binding *>(C.Ptr);
    } else {
      EnvRef FoundIn = 0;
      B = Envs.lookup(CurrentEnv, StringId{I.C}, &FoundIn);
      if (!B)
        return Fail(throwString("ReferenceError: " +
                                Interner::global().str(StringId{I.C}) +
                                " is not defined"));
      C = {CurrentEnv, Envs.shapeGen(), B, FoundIn};
    }
    S[Top++] = TaggedValue(B->V, B->D);
    VM_NEXT();
  }
  VM_CASE(TypeofVar) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    const Instr &I = Code[IP];
    Binding *B = Envs.lookup(CurrentEnv, StringId{I.C});
    if (!B)
      S[Top++] = TaggedValue(Value::atom(atoms().Undefined));
    else
      S[Top++] = TaggedValue(Value::string(typeofString(B->V, TheHeap)), B->D);
    VM_NEXT();
  }
  VM_CASE(DeleteFalse) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    S[Top++] = TaggedValue(Value::boolean(false));
    VM_NEXT();
  }
  VM_CASE(UpdateVar) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    const Instr &I = Code[IP];
    InlineCache &C = ICs[IP];
    Binding *B;
    EnvRef FoundIn = 0;
    if (C.Key == CurrentEnv && C.Gen == Envs.shapeGen()) {
      B = static_cast<Binding *>(C.Ptr);
      FoundIn = static_cast<EnvRef>(C.Aux);
    } else {
      B = Envs.lookup(CurrentEnv, StringId{I.C}, &FoundIn);
      if (!B)
        return Fail(throwString("ReferenceError: " +
                                Interner::global().str(StringId{I.C}) +
                                " is not defined"));
      C = {CurrentEnv, Envs.shapeGen(), B, FoundIn};
    }
    double Delta = (I.Flags & kIncrement) ? 1 : -1;
    double Old = toNumber(B->V);
    Det D = B->D;
    // The binding exists, so setVar would resolve to exactly (FoundIn, B).
    storeVarCached(FoundIn, *B, StringId{I.C},
                   TaggedValue(Value::number(Old + Delta), D));
    S[Top++] =
        TaggedValue(Value::number((I.Flags & kPrefix) ? Old + Delta : Old), D);
    VM_NEXT();
  }
  VM_CASE(UpdateInvalid) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    return Fail(throwString("TypeError: invalid update target"));
  }
  VM_CASE(MakeClosure) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    const FunctionExpr *F = Ch.Fns[Code[IP].C];
    ObjectRef FnObj = makeFunction(F, CurrentEnv);
    if (!F->getName().empty()) {
      EnvRef Wrapper = Envs.allocate(CurrentEnv);
      Envs.get(Wrapper).Vars[F->getNameAtom()] =
          Binding{Value::object(FnObj), Det::Determinate};
      TheHeap.get(FnObj).Closure = Wrapper;
    }
    S[Top++] = TaggedValue(Value::object(FnObj));
    VM_NEXT();
  }
  VM_CASE(FatalExpr) : {
    IComp T;
    for (uint32_t Pre = Code[IP].B + 1u; Pre; --Pre)
      if (!tick(T))
        return Fail(std::move(T));
    return Fail(IComp::fatal("statement node in expression position"));
  }
  VM_CASE(NewArray) : {
    if (uint32_t Pre = Code[IP].B) { // fused pre-ticks
      IComp T;
      do
        if (!tick(T))
          return Fail(std::move(T));
      while (--Pre);
    }
    ObjectRef Arr = TheHeap.allocate(ObjectClass::Array, Code[IP].ID);
    TheHeap.get(Arr).Proto = ArrayProto;
    TheHeap.get(Arr).ClosedEpoch = Epoch;
    S[Top++] = TaggedValue(Value::object(Arr));
    VM_NEXT();
  }
  VM_CASE(ArrayElem) : {
    TaggedValue V = std::move(S[--Top]);
    TheHeap.get(S[Top - 1].V.Obj)
        .set(Interner::global().internIndex(Code[IP].C),
             Slot{V.V, taintAdjust(V.D), Epoch});
    VM_NEXT();
  }
  VM_CASE(ArrayFinish) : {
    TheHeap.get(S[Top - 1].V.Obj)
        .set(atoms().Length, Slot{Value::number(static_cast<double>(Code[IP].C)),
                                  Det::Determinate, Epoch});
    VM_NEXT();
  }
  VM_CASE(NewObject) : {
    if (uint32_t Pre = Code[IP].B) { // fused pre-ticks
      IComp T;
      do
        if (!tick(T))
          return Fail(std::move(T));
      while (--Pre);
    }
    ObjectRef O = TheHeap.allocate(ObjectClass::Plain, Code[IP].ID);
    TheHeap.get(O).Proto = ObjectProto;
    TheHeap.get(O).ClosedEpoch = Epoch;
    S[Top++] = TaggedValue(Value::object(O));
    VM_NEXT();
  }
  VM_CASE(ObjProp) : {
    TaggedValue V = std::move(S[--Top]);
    TheHeap.get(S[Top - 1].V.Obj)
        .set(StringId{Code[IP].C}, Slot{V.V, taintAdjust(V.D), Epoch});
    VM_NEXT();
  }
  VM_CASE(ObjFinish) : { VM_NEXT(); } // The object value is already on top.
  VM_CASE(ResolveKey) : {
    TaggedValue Idx = std::move(S[--Top]);
    StringId Key = toStringAtom(Idx.V, TheHeap);
    TaggedValue KeyV(Value::atom(Key), Idx.D);
    // The value of a computed property name is a core client fact (access
    // staticization, paper Section 2.2 / 5.1).
    recordFact(FactKind::PropName, Code[IP].ID, KeyV);
    S[Top++] = KeyV;
    VM_NEXT();
  }
  VM_CASE(GetMember) : {
    const Instr &I = Code[IP];
    StringId Key{I.C};
    Det KeyDet = Det::Determinate;
    if (I.Flags & kComputed) {
      Key = S[Top - 1].V.Str;
      KeyDet = S[Top - 1].D;
      --Top;
    }
    TaggedValue BaseV = std::move(S[--Top]);
    const bool Static = !(I.Flags & kComputed);
    InlineCache &C = ICs[IP];
    const Slot *Hint = nullptr;
    if (Static && BaseV.V.isObject() && C.Key == BaseV.V.Obj &&
        C.Gen == TheHeap.get(BaseV.V.Obj).ShapeGen)
      Hint = static_cast<const Slot *>(C.Ptr);
    const Slot *Own = nullptr;
    IRes R = readProperty(BaseV, Key, KeyDet, Hint, Static ? &Own : nullptr);
    if (R.abrupt())
      return Fail(std::move(R.C));
    if (Own && Static)
      C = {BaseV.V.Obj, TheHeap.get(BaseV.V.Obj).ShapeGen,
           const_cast<Slot *>(Own)};
    S[Top++] = std::move(R.V);
    VM_NEXT();
  }
  VM_CASE(GetCalleeMember) : {
    const Instr &I = Code[IP];
    StringId Key{I.C};
    Det KeyDet = Det::Determinate;
    if (I.Flags & kComputed) {
      Key = S[Top - 1].V.Str;
      KeyDet = S[Top - 1].D;
      --Top;
    }
    const TaggedValue &BaseV = S[Top - 1];
    const bool Static = !(I.Flags & kComputed);
    InlineCache &C = ICs[IP];
    const Slot *Hint = nullptr;
    if (Static && BaseV.V.isObject() && C.Key == BaseV.V.Obj &&
        C.Gen == TheHeap.get(BaseV.V.Obj).ShapeGen)
      Hint = static_cast<const Slot *>(C.Ptr);
    ObjectRef BaseObj = BaseV.V.isObject() ? BaseV.V.Obj : 0;
    const Slot *Own = nullptr;
    IRes R = readProperty(BaseV, Key, KeyDet, Hint, Static ? &Own : nullptr);
    if (R.abrupt())
      return Fail(std::move(R.C));
    if (Own && Static)
      C = {BaseObj, TheHeap.get(BaseObj).ShapeGen, const_cast<Slot *>(Own)};
    S[Top++] = std::move(R.V);
    VM_NEXT();
  }
  VM_CASE(MemberOld) : {
    const Instr &I = Code[IP];
    StringId Key{I.C};
    Det KeyDet = Det::Determinate;
    const TaggedValue *BaseV = &S[Top - 1];
    if (I.Flags & kComputed) {
      Key = S[Top - 1].V.Str;
      KeyDet = S[Top - 1].D;
      BaseV = &S[Top - 2];
    }
    const bool Static = !(I.Flags & kComputed);
    InlineCache &C = ICs[IP];
    const Slot *Hint = nullptr;
    if (Static && BaseV->V.isObject() && C.Key == BaseV->V.Obj &&
        C.Gen == TheHeap.get(BaseV->V.Obj).ShapeGen)
      Hint = static_cast<const Slot *>(C.Ptr);
    ObjectRef BaseObj = BaseV->V.isObject() ? BaseV->V.Obj : 0;
    const Slot *Own = nullptr;
    IRes R = readProperty(*BaseV, Key, KeyDet, Hint, Static ? &Own : nullptr);
    if (R.abrupt())
      return Fail(std::move(R.C));
    if (Own && Static)
      C = {BaseObj, TheHeap.get(BaseObj).ShapeGen, const_cast<Slot *>(Own)};
    S[Top++] = std::move(R.V);
    VM_NEXT();
  }
  VM_CASE(SetMember) : {
    const Instr &I = Code[IP];
    TaggedValue NewV = std::move(S[--Top]);
    StringId Key{I.C};
    Det KeyDet = Det::Determinate;
    if (I.Flags & kComputed) {
      Key = S[Top - 1].V.Str;
      KeyDet = S[Top - 1].D;
      --Top;
    }
    TaggedValue BaseV = std::move(S[--Top]);
    recordFact(FactKind::Assign, I.ID, TaggedValue(NewV.V, taintAdjust(NewV.D)));
    IComp W = setPropertyTagged(BaseV, Key, KeyDet, NewV);
    if (W.isAbrupt())
      return Fail(std::move(W));
    S[Top++] = std::move(NewV);
    VM_NEXT();
  }
  VM_CASE(SetMemberCompound) : {
    const Instr &I = Code[IP];
    TaggedValue RHS = std::move(S[--Top]);
    TaggedValue Old = std::move(S[--Top]);
    StringId Key{I.C};
    Det KeyDet = Det::Determinate;
    if (I.Flags & kComputed) {
      Key = S[Top - 1].V.Str;
      KeyDet = S[Top - 1].D;
      --Top;
    }
    TaggedValue BaseV = std::move(S[--Top]);
    TaggedValue NewV;
    NewV.D = meet(Old.D, RHS.D);
    if (!applyBinaryOpFast(static_cast<BinaryOp>(I.B), Old.V, RHS.V, NewV.V))
      NewV.V = applyBinaryOp(static_cast<BinaryOp>(I.B), Old.V, RHS.V, TheHeap);
    recordFact(FactKind::Assign, I.ID, TaggedValue(NewV.V, taintAdjust(NewV.D)));
    IComp W = setPropertyTagged(BaseV, Key, KeyDet, NewV);
    if (W.isAbrupt())
      return Fail(std::move(W));
    S[Top++] = std::move(NewV);
    VM_NEXT();
  }
  VM_CASE(DeleteMember) : {
    const Instr &I = Code[IP];
    StringId Key{I.C};
    Det KeyDet = Det::Determinate;
    if (I.Flags & kComputed) {
      Key = S[Top - 1].V.Str;
      KeyDet = S[Top - 1].D;
      --Top;
    }
    TaggedValue BaseV = std::move(S[--Top]);
    if (!BaseV.V.isObject()) {
      S[Top++] = TaggedValue(Value::boolean(true), meet(BaseV.D, KeyDet));
      VM_NEXT();
    }
    if (KeyDet == Det::Indeterminate)
      openRecord(BaseV.V.Obj); // Some property goes away; which varies.
    bool Existed = eraseProp(BaseV.V.Obj, Key);
    if (BaseV.D == Det::Indeterminate)
      flushHeap();
    S[Top++] = TaggedValue(Value::boolean(Existed), meet(BaseV.D, KeyDet));
    VM_NEXT();
  }
  VM_CASE(UpdateMember) : {
    const Instr &I = Code[IP];
    StringId Key{I.C};
    Det KeyDet = Det::Determinate;
    if (I.Flags & kComputed) {
      Key = S[Top - 1].V.Str;
      KeyDet = S[Top - 1].D;
      --Top;
    }
    TaggedValue BaseV = std::move(S[--Top]);
    IRes OldR = readProperty(BaseV, Key, KeyDet);
    if (OldR.abrupt())
      return Fail(std::move(OldR.C));
    double Delta = (I.Flags & kIncrement) ? 1 : -1;
    double Old = toNumber(OldR.V.V);
    Det D = OldR.V.D;
    IComp W = setPropertyTagged(BaseV, Key, KeyDet,
                                TaggedValue(Value::number(Old + Delta), D));
    if (W.isAbrupt())
      return Fail(std::move(W));
    S[Top++] =
        TaggedValue(Value::number((I.Flags & kPrefix) ? Old + Delta : Old), D);
    VM_NEXT();
  }
  VM_CASE(LoadVarCompound) : {
    const Instr &I = Code[IP];
    if (uint32_t Pre = I.B) { // fused pre-ticks
      IComp T;
      do
        if (!tick(T))
          return Fail(std::move(T));
      while (--Pre);
    }
    InlineCache &C = ICs[IP];
    Binding *B;
    if (C.Key == CurrentEnv && C.Gen == Envs.shapeGen()) {
      B = static_cast<Binding *>(C.Ptr);
    } else {
      EnvRef FoundIn = 0;
      B = Envs.lookup(CurrentEnv, StringId{I.C}, &FoundIn);
      if (!B)
        return Fail(throwString("ReferenceError: " +
                                Interner::global().str(StringId{I.C}) +
                                " is not defined"));
      C = {CurrentEnv, Envs.shapeGen(), B, FoundIn};
    }
    S[Top++] = TaggedValue(B->V, B->D);
    VM_NEXT();
  }
  VM_CASE(StoreVar) : {
    const Instr &I = Code[IP];
    TaggedValue NewV = std::move(S[--Top]);
    recordFact(FactKind::Assign, I.ID, TaggedValue(NewV.V, taintAdjust(NewV.D)));
    InlineCache &C = ICs[IP];
    if (C.Key == CurrentEnv && C.Gen == Envs.shapeGen()) {
      storeVarCached(static_cast<EnvRef>(C.Aux),
                     *static_cast<Binding *>(C.Ptr), StringId{I.C}, NewV);
    } else {
      EnvRef FoundIn = 0;
      if (Binding *B = Envs.lookup(CurrentEnv, StringId{I.C}, &FoundIn)) {
        C = {CurrentEnv, Envs.shapeGen(), B, FoundIn};
        storeVarCached(FoundIn, *B, StringId{I.C}, NewV);
      } else {
        setVar(StringId{I.C}, NewV); // Sloppy-mode global creation.
      }
    }
    S[Top++] = std::move(NewV);
    VM_NEXT();
  }
  VM_CASE(StoreVarCompound) : {
    const Instr &I = Code[IP];
    TaggedValue RHS = std::move(S[--Top]);
    TaggedValue Old = std::move(S[--Top]);
    TaggedValue NewV;
    NewV.D = meet(Old.D, RHS.D);
    if (!applyBinaryOpFast(static_cast<BinaryOp>(I.B), Old.V, RHS.V, NewV.V))
      NewV.V = applyBinaryOp(static_cast<BinaryOp>(I.B), Old.V, RHS.V, TheHeap);
    recordFact(FactKind::Assign, I.ID, TaggedValue(NewV.V, taintAdjust(NewV.D)));
    InlineCache &C = ICs[IP];
    if (C.Key == CurrentEnv && C.Gen == Envs.shapeGen()) {
      storeVarCached(static_cast<EnvRef>(C.Aux),
                     *static_cast<Binding *>(C.Ptr), StringId{I.C}, NewV);
    } else {
      EnvRef FoundIn = 0;
      if (Binding *B = Envs.lookup(CurrentEnv, StringId{I.C}, &FoundIn)) {
        C = {CurrentEnv, Envs.shapeGen(), B, FoundIn};
        storeVarCached(FoundIn, *B, StringId{I.C}, NewV);
      } else {
        setVar(StringId{I.C}, NewV); // Sloppy-mode global creation.
      }
    }
    S[Top++] = std::move(NewV);
    VM_NEXT();
  }
  VM_CASE(Unary) : {
    TaggedValue R = std::move(S[--Top]);
    Det D = R.D;
    switch (static_cast<UnaryOp>(Code[IP].B)) {
    case UnaryOp::Not:
      S[Top++] = TaggedValue(Value::boolean(!toBooleanFast(R.V)), D);
      break;
    case UnaryOp::Minus:
      S[Top++] = TaggedValue(Value::number(-toNumber(R.V)), D);
      break;
    case UnaryOp::Plus:
      S[Top++] = TaggedValue(Value::number(toNumber(R.V)), D);
      break;
    case UnaryOp::Typeof:
      S[Top++] = TaggedValue(Value::string(typeofString(R.V, TheHeap)), D);
      break;
    case UnaryOp::Void:
      S[Top++] = TaggedValue(Value::undefined());
      break;
    case UnaryOp::Delete:
      S[Top++] = TaggedValue(Value::boolean(true));
      break;
    }
    VM_NEXT();
  }
  VM_CASE(Binary) : {
    const Instr &I = Code[IP];
    TaggedValue R = std::move(S[--Top]);
    TaggedValue L = std::move(S[--Top]);
    Det D = meet(L.D, R.D);
    BinaryOp Op = static_cast<BinaryOp>(I.B);
    if (Op == BinaryOp::In) {
      if (!R.V.isObject()) {
        IComp C = throwString("TypeError: 'in' requires an object");
        C.IndetControl = R.D == Det::Indeterminate;
        return Fail(std::move(C));
      }
      StringId Key = toStringAtom(L.V, TheHeap);
      // Walk the chain; openness on the way makes the answer uncertain.
      Det MissDet = Det::Determinate;
      bool Pushed = false;
      for (ObjectRef O = R.V.Obj; O; O = TheHeap.get(O).Proto) {
        const JSObject &Obj = TheHeap.get(O);
        if (Obj.has(Key)) {
          Det HitDet =
              Obj.isMaybePresent(Key) ? Det::Indeterminate : Det::Determinate;
          S[Top++] =
              TaggedValue(Value::boolean(true), meet(meet(D, MissDet), HitDet));
          Pushed = true;
          break;
        }
        if (!recordClosed(Obj) || Obj.isMaybeAbsent(Key))
          MissDet = Det::Indeterminate;
      }
      if (!Pushed)
        S[Top++] = TaggedValue(Value::boolean(false), meet(D, MissDet));
      VM_NEXT();
    }
    if (Op == BinaryOp::Instanceof) {
      if (!R.V.isObject()) {
        IComp C = throwString("TypeError: 'instanceof' requires a function");
        C.IndetControl = R.D == Det::Indeterminate;
        return Fail(std::move(C));
      }
      IRes Proto = readProperty(R, atoms().Prototype, Det::Determinate);
      if (Proto.abrupt())
        return Fail(std::move(Proto.C));
      Det DP = meet(D, Proto.V.D);
      if (!L.V.isObject() || !Proto.V.V.isObject()) {
        S[Top++] = TaggedValue(Value::boolean(false), DP);
        VM_NEXT();
      }
      bool Found = false;
      for (ObjectRef O = TheHeap.get(L.V.Obj).Proto; O; O = TheHeap.get(O).Proto)
        if (O == Proto.V.V.Obj) {
          Found = true;
          break;
        }
      S[Top++] = TaggedValue(Value::boolean(Found), DP);
      VM_NEXT();
    }
    Value Fast;
    if (applyBinaryOpFast(Op, L.V, R.V, Fast))
      S[Top++] = TaggedValue(std::move(Fast), D);
    else
      S[Top++] = TaggedValue(applyBinaryOp(Op, L.V, R.V, TheHeap), D);
    VM_NEXT();
  }
  VM_CASE(LogicalBranch) : {
    const Instr &I = Code[IP];
    TaggedValue LHS = std::move(S[--Top]);
    const BranchInfo &Br = Ch.Branches[I.C];
    bool Truthy = toBooleanFast(LHS.V);
    bool EvaluatesRHS = (I.Flags & kIsAnd) ? Truthy : !Truthy;
    if (LHS.isDet()) {
      // Determinate condition: no counterfactual side, so run flattened
      // like the concrete loop instead of recursing.
      if (!EvaluatesRHS) {
        S[Top++] = std::move(LHS); // Short-circuit: the LHS is the value.
        if (RecordAll && (I.Flags & kCompletes))
          recordFact(FactKind::Expression, I.ID, S[Top - 1]);
        IP = Br.BEnd;
        VM_JUMP();
      }
      // Fall into the RHS range; it ends at the continuation (AEnd ==
      // BEnd), so a join entry is only needed to record our fact there.
      if (RecordAll && (I.Flags & kCompletes)) {
        Joins.push_back({Br.AEnd, Br.AEnd, IP});
        NextJoin = Br.AEnd;
      }
      ++IP;
      VM_JUMP();
    }
    IRes R = vmBranchExpr(Ch, LHS, EvaluatesRHS, Br.AStart, Br.AEnd,
                          !EvaluatesRHS, Br.AStart, Br.AEnd, Br.VdA);
    if (R.abrupt())
      return Fail(std::move(R.C));
    S[Top++] = std::move(R.V);
    if (RecordAll && (I.Flags & kCompletes))
      recordFact(FactKind::Expression, I.ID, S[Top - 1]);
    IP = Br.BEnd; // Straight to the continuation past both ranges.
    VM_JUMP();
  }
  VM_CASE(CondBranch) : {
    const Instr &I = Code[IP];
    TaggedValue Cond = std::move(S[--Top]);
    const BranchInfo &Br = Ch.Branches[I.C];
    bool B = toBooleanFast(Cond.V);
    recordFactValue(FactKind::Condition, I.ID,
                    Cond.isDet()
                        ? [&] {
                            FactValue F;
                            F.K = FactValue::Boolean;
                            F.B = B;
                            return F;
                          }()
                        : FactValue::indet());
    if (Cond.isDet()) {
      // Determinate condition: take one side flattened, rejoining past the
      // untaken range (where the branch's completing fact gets recorded).
      if (B) {
        Joins.push_back({Br.AEnd, Br.BEnd, IP});
        NextJoin = Br.AEnd;
        ++IP; // Falls onto the then-range.
      } else {
        if (RecordAll && (I.Flags & kCompletes)) {
          Joins.push_back({Br.BEnd, Br.BEnd, IP});
          NextJoin = Br.BEnd;
        }
        IP = Br.BStart; // The else-range ends at the continuation.
      }
      VM_JUMP();
    }
    IRes R = B ? vmBranchExpr(Ch, Cond, true, Br.AStart, Br.AEnd, true,
                              Br.BStart, Br.BEnd, Br.VdB)
               : vmBranchExpr(Ch, Cond, true, Br.BStart, Br.BEnd, true,
                              Br.AStart, Br.AEnd, Br.VdA);
    if (R.abrupt())
      return Fail(std::move(R.C));
    S[Top++] = std::move(R.V);
    if (RecordAll && (I.Flags & kCompletes))
      recordFact(FactKind::Expression, I.ID, S[Top - 1]);
    IP = Br.BEnd; // Straight to the continuation past both ranges.
    VM_JUMP();
  }
  VM_CASE(Invoke) : {
    const Instr &I = Code[IP];
    size_t Argc = I.B;
    std::vector<TaggedValue> Args(S.begin() + (Top - Argc), S.begin() + Top);
    Top -= Argc;
    TaggedValue Callee = std::move(S[--Top]);
    TaggedValue ThisV;
    if (I.Flags & kMemberCall) {
      ThisV = std::move(S[--Top]);
    }
    // Facts about this call are keyed by the *child* context (site +
    // occurrence), so distinct loop iterations keep distinct facts.
    ContextID ChildCtx = enterSite(I.ID, I.C);
    recordFactAt(FactKind::Callee, I.ID, ChildCtx, Callee);
    for (size_t A = 0; A < Args.size(); ++A)
      recordFactAt(FactKind::CallArg, I.ID, ChildCtx, Args[A],
                   static_cast<uint16_t>(A));
    if (!inCounterfactual())
      noteExecutedCall(I.ID);
    IRes R = (Callee.V.isObject() && Callee.V.Obj == EvalFn)
                 ? evalEval(I.ID, Args, ChildCtx)
                 : callValueTagged(Callee, ThisV, Args, ChildCtx);
    if (R.abrupt())
      return Fail(std::move(R.C));
    S[Top++] = std::move(R.V);
    VM_NEXT();
  }
  VM_CASE(InvokeNew) : {
    const Instr &I = Code[IP];
    size_t Argc = I.B;
    std::vector<TaggedValue> Args(S.begin() + (Top - Argc), S.begin() + Top);
    Top -= Argc;
    TaggedValue Fn = std::move(S[--Top]);
    ContextID ChildCtx = enterSite(I.ID, I.C);
    recordFactAt(FactKind::Callee, I.ID, ChildCtx, Fn);
    for (size_t A = 0; A < Args.size(); ++A)
      recordFactAt(FactKind::CallArg, I.ID, ChildCtx, Args[A],
                   static_cast<uint16_t>(A));
    if (!inCounterfactual())
      noteExecutedCall(I.ID);

    if (!Fn.V.isObject())
      return Fail(throwString("TypeError: not a constructor"));
    JSObject &FnObj = TheHeap.get(Fn.V.Obj);
    if (FnObj.Class == ObjectClass::Native) {
      NativeResult R = callNative(*this, FnObj.Native, TaggedValue(), Args);
      if (R.Threw)
        return Fail(IComp::thrown(TaggedValue(R.Thrown)));
      S[Top++] = TaggedValue(R.Result.V, meet(R.Result.D, Fn.D));
      VM_NEXT();
    }
    if (FnObj.Class != ObjectClass::Function)
      return Fail(throwString("TypeError: not a constructor"));

    ObjectRef Fresh = TheHeap.allocate(ObjectClass::Plain, I.ID);
    TheHeap.get(Fresh).ClosedEpoch = Epoch;
    IRes ProtoR = readProperty(Fn, atoms().Prototype, Det::Determinate);
    if (ProtoR.abrupt())
      return Fail(std::move(ProtoR.C));
    TheHeap.get(Fresh).Proto =
        ProtoR.V.V.isObject() ? ProtoR.V.V.Obj : ObjectProto;

    IRes R = callClosure(Fn.V.Obj, Fn.D, TaggedValue(Value::object(Fresh)),
                         Args, ChildCtx);
    if (R.abrupt())
      return Fail(std::move(R.C));
    // If the constructor returned an object, that wins.
    if (R.V.V.isObject())
      S[Top++] = std::move(R.V);
    else
      S[Top++] = TaggedValue(Value::object(Fresh), meet(Fn.D, Det::Determinate));
    VM_NEXT();
  }

#if !DDA_THREADED_DISPATCH
  }
  goto L_Top; // Unreachable: every handler ends in VM_NEXT.
L_Next:
  if (RecordAll && (Code[IP].Flags & kCompletes))
    recordFact(FactKind::Expression, Code[IP].ID, S[Top - 1]);
  ++IP;
  goto L_Top;
#endif

#undef VM_CASE
#undef VM_NEXT
#undef VM_JUMP
#ifdef VM_DISPATCH
#undef VM_DISPATCH
#endif

L_Done : {
  TaggedValue V = std::move(S[--Top]);
  S.resize(Base);
  return IRes::value(std::move(V));
}
}
