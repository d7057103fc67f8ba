//===- IncrementalRegions.cpp - Region-level capture and replay ----------===//
///
/// \file
/// The incremental re-analysis core (`--incremental`, DESIGN.md "Incremental
/// re-analysis"). A *region* is one top-level statement of the program. At
/// each region boundary the interpreter is in a canonical state (base frame,
/// global scope, no branch machinery in flight), so a region's effect on the
/// analysis is a pure function of (the reaching state, the statement, the
/// option vector). Instead of hashing the reaching state — O(heap) per
/// region — we certify it with a *chained fingerprint*: FP_0 covers the
/// option vector and the hoisted declarations, and FP_{i+1} extends FP_i
/// with region i's statement key and effect-delta hash. A deterministic
/// interpreter makes the fingerprint a sound (modulo 64-bit collisions;
/// `--incremental strict` checks) certificate of the entire reaching state.
///
/// A region summary stores the region's *net effect* as an explicit byte
/// delta: post-images of every pre-existing object/environment it touched
/// (the journal suffix is the complete touched set — every mutation of
/// pre-existing state goes through a journaled mutator), new arena tail
/// entries wholesale, appended contexts/facts/coverage/output/handlers,
/// RNG tapes, the epoch, governor spend, and fingerprinted statistics.
/// Replaying a summary re-applies that delta without executing — the warm
/// path — and is byte-identical to execution in everything the analysis
/// publishes. All strings are spelled out as text (never interner ids), so
/// summaries are valid across processes.
///
//===----------------------------------------------------------------------===//

#include "ast/ASTWalk.h"
#include "ast/StructuralHash.h"
#include "determinacy/InstrumentedInterpreter.h"
#include "incremental/FactStore.h"
#include "incremental/SubtreeSummary.h"

#include <algorithm>

using namespace dda;

//===----------------------------------------------------------------------===//
// Option-vector fingerprint
//===----------------------------------------------------------------------===//

uint64_t dda::optionVectorFingerprint(const AnalysisOptions &Opts,
                                      std::string_view InjectorSpec) {
  ByteWriter W;
  W.u32(3); // fingerprint schema version
  W.u64(Opts.DomSeed);
  W.u64(Opts.MaxSteps);
  W.u64(Opts.DeadlineMs);
  W.u64(Opts.MaxHeapCells);
  W.u32(Opts.MaxCallDepth);
  W.u32(Opts.MaxEvalDepth);
  W.u64(Opts.CounterfactualFuel);
  W.u32(Opts.CounterfactualDepth);
  W.u32(Opts.FlushLimit);
  W.u8(Opts.DeterminateDom);
  W.u8(Opts.RunEventHandlers);
  W.u8(Opts.CounterfactualEnabled);
  W.u8(Opts.StrictTaint);
  W.u8(Opts.RecordAllExpressions);
  W.u8(static_cast<uint8_t>(Opts.Undo));
  W.str(InjectorSpec);
  return summaryChecksum(W.bytes());
}

//===----------------------------------------------------------------------===//
// Pre-region capture state
//===----------------------------------------------------------------------===//

namespace dda {
/// Everything buildRegionDelta diffs the post-region interpreter against.
struct RegionCaptureState {
  Journal::Mark Mark = 0;
  size_t HeapSize = 0, EnvSize = 0, CtxSize = 0;
  size_t OutputLen = 0, HandlersLen = 0;
  size_t DegEvents = 0;
  uint64_t DegTotal = 0;
  ResourceGovernor::Checkpoint Gov;
  uint64_t Flushes = 0, Cntr = 0, Aborts = 0, JEntries = 0;
  NodeID EvalNextID = 0;
};
} // namespace dda

//===----------------------------------------------------------------------===//
// Byte schema helpers
//===----------------------------------------------------------------------===//

namespace {

std::string_view atomStr(StringId Id) { return Interner::global().view(Id); }

bool textLess(StringId A, StringId B) { return atomStr(A) < atomStr(B); }

void writeAtom(ByteWriter &W, StringId Id) { W.str(atomStr(Id)); }

StringId readAtom(ByteReader &R) { return Interner::global().intern(R.str()); }

void writeValue(ByteWriter &W, const Value &V) {
  W.u8(static_cast<uint8_t>(V.Kind));
  switch (V.Kind) {
  case ValueKind::Boolean:
    W.u8(V.Bool);
    break;
  case ValueKind::Number:
    W.f64(V.Num);
    break;
  case ValueKind::String:
    writeAtom(W, V.Str);
    break;
  case ValueKind::Object:
    W.u32(V.Obj);
    break;
  default:
    break;
  }
}

Value readValue(ByteReader &R) {
  switch (static_cast<ValueKind>(R.u8())) {
  case ValueKind::Null:
    return Value::null();
  case ValueKind::Boolean:
    return Value::boolean(R.u8() != 0);
  case ValueKind::Number:
    return Value::number(R.f64());
  case ValueKind::String:
    return Value::atom(readAtom(R));
  case ValueKind::Object:
    return Value::object(R.u32());
  default:
    return Value::undefined();
  }
}

void writeTagged(ByteWriter &W, const TaggedValue &TV) {
  writeValue(W, TV.V);
  W.u8(static_cast<uint8_t>(TV.D));
}

TaggedValue readTagged(ByteReader &R) {
  Value V = readValue(R);
  return TaggedValue(V, static_cast<Det>(R.u8()));
}

void writeSlot(ByteWriter &W, const Slot &S) {
  writeValue(W, S.V);
  W.u8(static_cast<uint8_t>(S.D));
  W.u32(S.Epoch);
  W.u8(S.Immune);
}

Slot readSlot(ByteReader &R) {
  Slot S;
  S.V = readValue(R);
  S.D = static_cast<Det>(R.u8());
  S.Epoch = R.u32();
  S.Immune = R.u8() != 0;
  return S;
}

void writeFactValue(ByteWriter &W, const FactValue &V) {
  W.u8(static_cast<uint8_t>(V.K));
  W.u8(V.B);
  W.f64(V.Num);
  W.str(V.K == FactValue::String ? atomStr(V.Str) : std::string_view());
  W.u32(V.Node);
  W.u16(static_cast<uint16_t>(V.NativeID));
}

FactValue readFactValue(ByteReader &R) {
  FactValue V;
  V.K = static_cast<FactValue::Kind>(R.u8());
  V.B = R.u8() != 0;
  V.Num = R.f64();
  std::string Text = R.str();
  if (V.K == FactValue::String)
    V.Str = Interner::global().intern(Text);
  V.Node = R.u32();
  V.NativeID = static_cast<NativeFn>(R.u16());
  return V;
}

/// Serialized image of one heap object. Atom sets are written sorted by
/// *text* (interner ids are process-local) so capture bytes are
/// deterministic across processes; Props ride in insertion (enumeration)
/// order, which execution determines deterministically.
bool writeObject(ByteWriter &W, const JSObject &O,
                 const FlatMap<NodeID, const FunctionExpr *> &Fns) {
  W.u8(static_cast<uint8_t>(O.Class));
  W.u32(O.Proto);
  if (O.Fn) {
    auto It = Fns.find(O.Fn->getID());
    if (It == Fns.end() || It->second != O.Fn)
      return false; // Not a program function (eval overlay): not portable.
    W.u8(1);
    W.u32(O.Fn->getID());
  } else {
    W.u8(0);
    W.u32(0);
  }
  W.u32(O.Closure);
  W.u16(static_cast<uint16_t>(O.Native));
  W.u32(O.AllocSite);
  W.u32(O.ClosedEpoch);
  W.u8(O.ExplicitlyOpen);
  for (const auto *Set : {&O.MaybeAbsent, &O.MaybePresent}) {
    std::vector<StringId> ByText(Set->begin(), Set->end());
    std::sort(ByText.begin(), ByText.end(), textLess);
    W.u32(static_cast<uint32_t>(ByText.size()));
    for (StringId Id : ByText)
      writeAtom(W, Id);
  }
  const std::vector<StringId> &Keys = O.orderedKeys();
  W.u32(static_cast<uint32_t>(Keys.size()));
  for (StringId K : Keys) {
    writeAtom(W, K);
    writeSlot(W, *O.get(K));
  }
  return true;
}

struct ObjImage {
  ObjectRef Ref = 0; // 0 for fresh objects (ref implicit from arena order).
  uint8_t Class = 0;
  ObjectRef Proto = 0;
  bool HasFn = false;
  NodeID FnNode = 0;
  EnvRef Closure = 0;
  uint16_t Native = 0;
  NodeID AllocSite = 0;
  uint32_t ClosedEpoch = 0;
  bool Open = false;
  std::vector<StringId> MaybeAbsent, MaybePresent;
  std::vector<std::pair<StringId, Slot>> Props;
};

bool readObject(ByteReader &R, ObjImage &Im) {
  Im.Class = R.u8();
  Im.Proto = R.u32();
  Im.HasFn = R.u8() != 0;
  Im.FnNode = R.u32();
  Im.Closure = R.u32();
  Im.Native = R.u16();
  Im.AllocSite = R.u32();
  Im.ClosedEpoch = R.u32();
  Im.Open = R.u8() != 0;
  for (std::vector<StringId> *Set : {&Im.MaybeAbsent, &Im.MaybePresent}) {
    uint32_t N = R.u32();
    if (N > R.remaining())
      return false;
    Set->reserve(N);
    for (uint32_t I = 0; I < N && R.ok(); ++I)
      Set->push_back(readAtom(R));
    std::sort(Set->begin(), Set->end()); // Re-sorted under *local* ids.
  }
  uint32_t NProps = R.u32();
  if (NProps > R.remaining())
    return false;
  Im.Props.reserve(NProps);
  for (uint32_t I = 0; I < NProps && R.ok(); ++I) {
    StringId K = readAtom(R);
    Im.Props.emplace_back(K, readSlot(R));
  }
  return R.ok();
}

void buildObject(const ObjImage &Im,
                 const FlatMap<NodeID, const FunctionExpr *> &Fns,
                 JSObject &O) {
  O.Class = static_cast<ObjectClass>(Im.Class);
  O.Proto = Im.Proto;
  O.Fn = Im.HasFn ? Fns.at(Im.FnNode) : nullptr;
  O.Closure = Im.Closure;
  O.Native = static_cast<NativeFn>(Im.Native);
  O.AllocSite = Im.AllocSite;
  O.ClosedEpoch = Im.ClosedEpoch;
  O.ExplicitlyOpen = Im.Open;
  O.MaybeAbsent = Im.MaybeAbsent;
  O.MaybePresent = Im.MaybePresent;
  for (const auto &[K, S] : Im.Props)
    O.set(K, S);
}

void writeEnv(ByteWriter &W, const Environment &E) {
  W.u32(E.Parent);
  std::vector<std::pair<StringId, Binding>> Vars(E.Vars.begin(), E.Vars.end());
  std::sort(Vars.begin(), Vars.end(),
            [](const auto &A, const auto &B) {
              return textLess(A.first, B.first);
            });
  W.u32(static_cast<uint32_t>(Vars.size()));
  for (const auto &[Name, B] : Vars) {
    writeAtom(W, Name);
    writeValue(W, B.V);
    W.u8(static_cast<uint8_t>(B.D));
    W.u8(B.Immune);
  }
}

struct EnvImage {
  EnvRef Ref = 0; // 0 for fresh environments.
  EnvRef Parent = 0;
  std::vector<std::pair<StringId, Binding>> Vars;
};

bool readEnv(ByteReader &R, EnvImage &Im) {
  Im.Parent = R.u32();
  uint32_t N = R.u32();
  if (N > R.remaining())
    return false;
  Im.Vars.reserve(N);
  for (uint32_t I = 0; I < N && R.ok(); ++I) {
    StringId Name = readAtom(R);
    Binding B;
    B.V = readValue(R);
    B.D = static_cast<Det>(R.u8());
    B.Immune = R.u8() != 0;
    Im.Vars.emplace_back(Name, B);
  }
  return R.ok();
}

/// The fully decoded delta, validated before anything mutates.
struct DecodedDelta {
  std::vector<ObjImage> Touched, Fresh;
  std::vector<EnvImage> TouchedEnvs, FreshEnvs;
  std::vector<ContextEntry> Ctxs;
  std::vector<std::pair<FactKey, FactValue>> Facts;
  std::vector<NodeID> Stmts, Calls;
  std::string Out;
  std::vector<std::pair<StringId, Value>> Handlers;
  std::vector<std::pair<StringId, ObjectRef>> DomAdds;
  std::vector<std::pair<NodeID, uint32_t>> SiteCounts;
  uint64_t RandomState = 0, DomState = 0;
  uint32_t Epoch = 0;
  TaggedValue LastStmt;
  uint64_t DSteps = 0, DHeap = 0, DFuel = 0, DCalls = 0;
  uint64_t DFlushes = 0, DCntr = 0, DAborts = 0, DJournal = 0;
  bool FlushLimitHit = false;
  std::vector<DegradationEvent> DegEvents;
  uint64_t DegTotalDelta = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Eligibility
//===----------------------------------------------------------------------===//

bool InstrumentedInterpreter::incrementalActive() const {
  // A fault injector counts checkpoints by ordinal; replaying a region
  // skips its checkpoints and would shift every later ordinal, so the
  // incremental layer stands down entirely when one is attached.
  return Opts.Incremental != IncrementalMode::Off && Opts.Store &&
         !Opts.Injector;
}

bool InstrumentedInterpreter::regionBoundaryClean() const {
  if (CfDepth != 0 || IndetBranchDepth != 0 || CfAbortRequested)
    return false;
  if (CfThrowMark || CfBreakMark)
    return false;
  if (Frames.size() != 1 || Frames.back().ReturnEscape)
    return false;
  if (CurrentEnv != GlobalEnv)
    return false;
  // A latched-but-unobserved heap trip is pending state a delta cannot
  // carry; treat it like a trip.
  ResourceGovernor::Checkpoint Cp = Gov.checkpoint();
  if (Cp.Tripped || Cp.HeapTripLatched)
    return false;
  size_t WantDepth = SnapMode ? 1 : 0; // Base COW frame only.
  return TheHeap.snapshotDepth() == WantDepth &&
         Envs.snapshotDepth() == WantDepth;
}

//===----------------------------------------------------------------------===//
// Fingerprints and keys
//===----------------------------------------------------------------------===//

static void hoistFpStmt(const Stmt *S, uint64_t &H) {
  // Mirrors InstrumentedInterpreter::hoistStmt exactly: the names declared
  // (in recursion order) plus the full content+position identity of hoisted
  // functions. Covering positions here is what lets a region legitimately
  // reference *later* statements' NodeIDs through hoisted calls.
  auto MixText = [&H](StringId Id) {
    std::string_view T = atomStr(Id);
    H = mixHash(H, hashBytesFnv(T.data(), T.size(), 0x9e3779b97f4a7c15ull));
  };
  switch (S->getKind()) {
  case NodeKind::VarDeclStmt:
    for (const auto &D : cast<VarDeclStmt>(S)->getDeclarators())
      MixText(D.Atom);
    return;
  case NodeKind::FunctionDeclStmt: {
    const FunctionExpr *Fn = cast<FunctionDeclStmt>(S)->getFunction();
    MixText(Fn->getNameAtom());
    H = mixHash(H, subtreeHash(Fn));
    H = mixHash(H, subtreePositionHash(Fn));
    return;
  }
  case NodeKind::BlockStmt:
    for (const Stmt *Inner : cast<BlockStmt>(S)->getBody())
      hoistFpStmt(Inner, H);
    return;
  case NodeKind::IfStmt:
    hoistFpStmt(cast<IfStmt>(S)->getThen(), H);
    if (const Stmt *Else = cast<IfStmt>(S)->getElse())
      hoistFpStmt(Else, H);
    return;
  case NodeKind::WhileStmt:
    hoistFpStmt(cast<WhileStmt>(S)->getBody(), H);
    return;
  case NodeKind::DoWhileStmt:
    hoistFpStmt(cast<DoWhileStmt>(S)->getBody(), H);
    return;
  case NodeKind::ForStmt:
    if (const Stmt *Init = cast<ForStmt>(S)->getInit())
      hoistFpStmt(Init, H);
    hoistFpStmt(cast<ForStmt>(S)->getBody(), H);
    return;
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(S);
    if (F->declaresVar())
      MixText(F->getVarAtom());
    hoistFpStmt(F->getBody(), H);
    return;
  }
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    hoistFpStmt(T->getBlock(), H);
    if (T->getCatchBlock())
      hoistFpStmt(T->getCatchBlock(), H);
    if (T->getFinallyBlock())
      hoistFpStmt(T->getFinallyBlock(), H);
    return;
  }
  case NodeKind::SwitchStmt:
    for (const auto &Clause : cast<SwitchStmt>(S)->getClauses())
      for (const Stmt *Inner : Clause.Body)
        hoistFpStmt(Inner, H);
    return;
  default:
    return;
  }
}

uint64_t InstrumentedInterpreter::hoistFingerprint() const {
  uint64_t H = 0x6a09e667f3bcc909ull;
  for (const Stmt *S : Prog.Body)
    hoistFpStmt(S, H);
  return H;
}

uint64_t InstrumentedInterpreter::stmtKeyFor(const Stmt *S) const {
  // Content hash x position hash: facts and contexts embed NodeIDs and
  // lines, so identical code at shifted positions must key differently.
  return mixHash(mixHash(subtreeHash(S), subtreePositionHash(S)), S->getID());
}

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

bool InstrumentedInterpreter::buildRegionDelta(const RegionCaptureState &RC,
                                               std::string &Delta) {
  if (IncUnserializable)
    return false;
  ResourceGovernor::Checkpoint Now = Gov.checkpoint();
  // An eval re-parsed code into the overlay arena: later facts may reference
  // overlay NodeIDs whose assignment depends on this process's history.
  if (Now.EvalsEntered != RC.Gov.EvalsEntered)
    return false;
  const ASTContext *EvalCtx =
      Opts.EvalContext ? Opts.EvalContext : Prog.Context.get();
  if (EvalCtx->nextID() != RC.EvalNextID)
    return false;

  // The journal suffix is the complete set of touched pre-existing
  // locations: every mutation of pre-existing state routes through a
  // journaled mutator (natives included, via the NativeHost interface), and
  // counterfactualBranch re-journals surviving weakenings after undo.
  std::vector<ObjectRef> TObjs;
  std::vector<EnvRef> TEnvs;
  for (size_t I = RC.Mark; I < J.size(); ++I) {
    const JournalEntry &E = J[I];
    if (E.K == JournalEntry::VarWrite) {
      if (E.Env != 0 && E.Env <= RC.EnvSize)
        TEnvs.push_back(E.Env);
    } else {
      if (E.Obj != 0 && E.Obj <= RC.HeapSize)
        TObjs.push_back(E.Obj);
    }
  }
  std::sort(TObjs.begin(), TObjs.end());
  TObjs.erase(std::unique(TObjs.begin(), TObjs.end()), TObjs.end());
  std::sort(TEnvs.begin(), TEnvs.end());
  TEnvs.erase(std::unique(TEnvs.begin(), TEnvs.end()), TEnvs.end());

  ByteWriter W;
  W.u64(RC.HeapSize);
  W.u64(RC.EnvSize);
  W.u64(RC.CtxSize);

  W.u32(static_cast<uint32_t>(TObjs.size()));
  for (ObjectRef R : TObjs) {
    W.u32(R);
    if (!writeObject(W, TheHeap.get(R), IncFnIndex))
      return IncUnserializable = true, false;
  }
  W.u32(static_cast<uint32_t>(TheHeap.size() - RC.HeapSize));
  for (size_t I = RC.HeapSize + 1; I <= TheHeap.size(); ++I)
    if (!writeObject(W, TheHeap.get(static_cast<ObjectRef>(I)), IncFnIndex))
      return IncUnserializable = true, false;

  W.u32(static_cast<uint32_t>(TEnvs.size()));
  for (EnvRef R : TEnvs) {
    W.u32(R);
    writeEnv(W, Envs.get(R));
  }
  W.u32(static_cast<uint32_t>(Envs.size() - RC.EnvSize));
  for (size_t I = RC.EnvSize + 1; I <= Envs.size(); ++I)
    writeEnv(W, Envs.get(static_cast<EnvRef>(I)));

  W.u32(static_cast<uint32_t>(Contexts.size() - RC.CtxSize));
  for (size_t I = RC.CtxSize; I < Contexts.size(); ++I) {
    const ContextEntry &E = Contexts.entry(static_cast<ContextID>(I));
    W.u32(E.Parent);
    W.u32(E.Site);
    W.u32(E.Occurrence);
    W.u32(E.Line);
  }

  // Facts, sorted by (key, value): the delta bytes stay canonical whatever
  // the recording order, and FactDB::record's merge is order-independent,
  // so any canonical order is sound.
  std::sort(IncFacts.begin(), IncFacts.end(),
            [](const std::pair<FactKey, FactValue> &A,
               const std::pair<FactKey, FactValue> &B) {
              const FactKey &KA = A.first, &KB = B.first;
              if (KA.Node != KB.Node)
                return KA.Node < KB.Node;
              if (KA.Ctx != KB.Ctx)
                return KA.Ctx < KB.Ctx;
              if (KA.Kind != KB.Kind)
                return KA.Kind < KB.Kind;
              if (KA.Index != KB.Index)
                return KA.Index < KB.Index;
              ByteWriter VA, VB;
              writeFactValue(VA, A.second);
              writeFactValue(VB, B.second);
              return VA.bytes() < VB.bytes();
            });
  W.u32(static_cast<uint32_t>(IncFacts.size()));
  for (const auto &[K, V] : IncFacts) {
    W.u32(K.Node);
    W.u32(K.Ctx);
    W.u8(static_cast<uint8_t>(K.Kind));
    W.u16(K.Index);
    writeFactValue(W, V);
  }

  for (std::vector<NodeID> *Cov : {&IncStmts, &IncCalls}) {
    std::sort(Cov->begin(), Cov->end());
    Cov->erase(std::unique(Cov->begin(), Cov->end()), Cov->end());
    W.u32(static_cast<uint32_t>(Cov->size()));
    for (NodeID N : *Cov)
      W.u32(N);
  }

  W.str(std::string_view(Output).substr(RC.OutputLen));

  W.u32(static_cast<uint32_t>(EventHandlers.size() - RC.HandlersLen));
  for (size_t I = RC.HandlersLen; I < EventHandlers.size(); ++I) {
    writeAtom(W, EventHandlers[I].first);
    writeValue(W, EventHandlers[I].second);
  }

  std::vector<std::pair<StringId, ObjectRef>> DomAdds;
  {
    std::vector<StringId> Pre = IncPreDomKeys;
    std::sort(Pre.begin(), Pre.end());
    for (const auto &[K, V] : DomElements)
      if (!std::binary_search(Pre.begin(), Pre.end(), K))
        DomAdds.emplace_back(K, V);
    std::sort(DomAdds.begin(), DomAdds.end(),
              [](const auto &A, const auto &B) {
                return textLess(A.first, B.first);
              });
  }
  W.u32(static_cast<uint32_t>(DomAdds.size()));
  for (const auto &[K, V] : DomAdds) {
    writeAtom(W, K);
    W.u32(V);
  }

  std::vector<std::pair<NodeID, uint32_t>> SCDiff;
  for (const auto &[N, C] : Frames.back().SiteCounts) {
    auto It = IncPreSiteCounts.find(N);
    if (It == IncPreSiteCounts.end() || It->second != C)
      SCDiff.emplace_back(N, C);
  }
  std::sort(SCDiff.begin(), SCDiff.end());
  W.u32(static_cast<uint32_t>(SCDiff.size()));
  for (const auto &[N, C] : SCDiff) {
    W.u32(N);
    W.u32(C);
  }

  W.u64(RandomRng.getState());
  W.u64(DomRng.getState());
  W.u32(Epoch);
  writeTagged(W, LastStmtValue);

  W.u64(Now.Steps - RC.Gov.Steps);
  W.u64(Now.HeapCells - RC.Gov.HeapCells);
  W.u64(Now.CfFuelUsed - RC.Gov.CfFuelUsed);
  W.u64(Now.CallsEntered - RC.Gov.CallsEntered);

  W.u64(Stats.HeapFlushes - RC.Flushes);
  W.u64(Stats.Counterfactuals - RC.Cntr);
  W.u64(Stats.CounterfactualAborts - RC.Aborts);
  W.u64(Stats.JournalEntries - RC.JEntries);
  W.u8(Stats.FlushLimitHit);

  // Degradation events feed DegradationReport::str(), which the
  // fact-fingerprint parity contract covers — replay must reproduce them.
  W.u32(static_cast<uint32_t>(Degradation.Events.size() - RC.DegEvents));
  for (size_t I = RC.DegEvents; I < Degradation.Events.size(); ++I) {
    const DegradationEvent &E = Degradation.Events[I];
    W.u8(static_cast<uint8_t>(E.Cause));
    W.str(E.Action);
    W.str(E.Detail);
  }
  W.u64(Degradation.EventsTotal - RC.DegTotal);

  Delta = W.take();
  return true;
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

bool InstrumentedInterpreter::applyRegionDelta(const std::string &Delta) {
  ByteReader R(Delta);

  // Validation header: the live pre-state must be the one the capture
  // diffed against. A mismatch (hash collision, foreign store) is detected
  // here, before anything mutates.
  uint64_t PreHeap = R.u64(), PreEnv = R.u64(), PreCtx = R.u64();
  if (!R.ok() || PreHeap != TheHeap.size() || PreEnv != Envs.size() ||
      PreCtx != Contexts.size())
    return false;

  DecodedDelta D;
  uint32_t NTouched = R.u32();
  if (NTouched > R.remaining())
    return false;
  D.Touched.resize(NTouched);
  for (auto &Im : D.Touched) {
    Im.Ref = R.u32();
    if (Im.Ref == 0 || Im.Ref > PreHeap || !readObject(R, Im))
      return false;
  }
  uint32_t NFresh = R.u32();
  if (NFresh > R.remaining())
    return false;
  D.Fresh.resize(NFresh);
  for (auto &Im : D.Fresh)
    if (!readObject(R, Im))
      return false;

  uint32_t NTouchedEnvs = R.u32();
  if (NTouchedEnvs > R.remaining())
    return false;
  D.TouchedEnvs.resize(NTouchedEnvs);
  for (auto &Im : D.TouchedEnvs) {
    Im.Ref = R.u32();
    if (Im.Ref == 0 || Im.Ref > PreEnv || !readEnv(R, Im))
      return false;
  }
  uint32_t NFreshEnvs = R.u32();
  if (NFreshEnvs > R.remaining())
    return false;
  D.FreshEnvs.resize(NFreshEnvs);
  for (auto &Im : D.FreshEnvs)
    if (!readEnv(R, Im))
      return false;

  uint32_t NCtx = R.u32();
  if (NCtx > R.remaining())
    return false;
  D.Ctxs.resize(NCtx);
  for (auto &E : D.Ctxs) {
    E.Parent = R.u32();
    E.Site = R.u32();
    E.Occurrence = R.u32();
    E.Line = R.u32();
  }

  uint32_t NFacts = R.u32();
  if (NFacts > R.remaining())
    return false;
  D.Facts.resize(NFacts);
  for (auto &[K, V] : D.Facts) {
    K.Node = R.u32();
    K.Ctx = R.u32();
    K.Kind = static_cast<FactKind>(R.u8());
    K.Index = R.u16();
    V = readFactValue(R);
  }

  for (std::vector<NodeID> *Cov : {&D.Stmts, &D.Calls}) {
    uint32_t N = R.u32();
    if (N > R.remaining())
      return false;
    Cov->resize(N);
    for (NodeID &Id : *Cov)
      Id = R.u32();
  }

  D.Out = R.str();

  uint32_t NHandlers = R.u32();
  if (NHandlers > R.remaining())
    return false;
  D.Handlers.resize(NHandlers);
  for (auto &[K, V] : D.Handlers) {
    K = readAtom(R);
    V = readValue(R);
  }

  uint32_t NDom = R.u32();
  if (NDom > R.remaining())
    return false;
  D.DomAdds.resize(NDom);
  for (auto &[K, V] : D.DomAdds) {
    K = readAtom(R);
    V = R.u32();
  }

  uint32_t NSites = R.u32();
  if (NSites > R.remaining())
    return false;
  D.SiteCounts.resize(NSites);
  for (auto &[N, C] : D.SiteCounts) {
    N = R.u32();
    C = R.u32();
  }

  D.RandomState = R.u64();
  D.DomState = R.u64();
  D.Epoch = R.u32();
  D.LastStmt = readTagged(R);

  D.DSteps = R.u64();
  D.DHeap = R.u64();
  D.DFuel = R.u64();
  D.DCalls = R.u64();

  D.DFlushes = R.u64();
  D.DCntr = R.u64();
  D.DAborts = R.u64();
  D.DJournal = R.u64();
  D.FlushLimitHit = R.u8() != 0;

  uint32_t NDeg = R.u32();
  if (!R.ok() || NDeg > R.remaining())
    return false;
  D.DegEvents.resize(NDeg);
  for (auto &E : D.DegEvents) {
    E.Cause = static_cast<TrapKind>(R.u8());
    E.Action = R.str();
    E.Detail = R.str();
  }
  D.DegTotalDelta = R.u64();

  if (!R.ok() || !R.atEnd())
    return false;
  if (D.DHeap < D.Fresh.size() || D.DegTotalDelta < D.DegEvents.size())
    return false;
  for (const ObjImage *Group : {D.Touched.data(), D.Fresh.data()})
    (void)Group;
  for (const auto &Im : D.Touched)
    if (Im.HasFn && !IncFnIndex.count(Im.FnNode))
      return false;
  for (const auto &Im : D.Fresh)
    if (Im.HasFn && !IncFnIndex.count(Im.FnNode))
      return false;

  // ---- Everything validated: apply. No failure paths from here. ----

  for (const ObjImage &Im : D.Touched) {
    // Mimic restoreSnapshot's discipline: pre-image the object into the
    // base COW frame, replace it wholesale, and keep the save stamp.
    heapBarrier(Im.Ref);
    JSObject &Live = TheHeap.get(Im.Ref);
    uint32_t KeepSave = Live.SaveGen;
    JSObject N;
    buildObject(Im, IncFnIndex, N);
    Live = std::move(N);
    Live.SaveGen = KeepSave;
  }
  for (const ObjImage &Im : D.Fresh) {
    // allocate() charges the heap-cell budget exactly like the cold run's
    // allocation did; the external-spend fold below adds only the rest.
    ObjectRef Ref = TheHeap.allocate(static_cast<ObjectClass>(Im.Class),
                                     Im.AllocSite);
    JSObject N;
    buildObject(Im, IncFnIndex, N);
    TheHeap.get(Ref) = std::move(N);
  }

  for (const EnvImage &Im : D.TouchedEnvs) {
    envBarrier(Im.Ref);
    Environment &E = Envs.get(Im.Ref);
    uint32_t KeepSave = E.SaveGen;
    E.Parent = Im.Parent;
    E.Vars.clear();
    for (const auto &[Name, B] : Im.Vars)
      E.Vars.emplace(Name, B);
    E.SaveGen = KeepSave;
  }
  for (const EnvImage &Im : D.FreshEnvs) {
    EnvRef Ref = Envs.allocate(Im.Parent);
    Environment &E = Envs.get(Ref);
    for (const auto &[Name, B] : Im.Vars)
      E.Vars.emplace(Name, B);
  }

  for (const ContextEntry &E : D.Ctxs)
    Contexts.intern(E.Parent, E.Site, E.Occurrence, E.Line);

  for (const auto &[K, V] : D.Facts)
    Facts.record(K, V);
  Stats.ReplayedFacts += D.Facts.size();

  for (NodeID N : D.Stmts)
    ExecutedStmts.insert(N);
  for (NodeID N : D.Calls)
    ExecutedCalls.insert(N);

  Output += D.Out;
  for (const auto &[K, V] : D.Handlers)
    EventHandlers.emplace_back(K, V);
  for (const auto &[K, V] : D.DomAdds)
    DomElements.emplace(K, V);
  for (const auto &[N, C] : D.SiteCounts)
    Frames.back().SiteCounts[N] = C;

  RandomRng.setState(D.RandomState);
  DomRng.setState(D.DomState);
  Epoch = D.Epoch;
  LastStmtValue = D.LastStmt;

  Gov.applyExternalSpend(D.DSteps, D.DHeap - D.Fresh.size(), D.DFuel,
                         /*DEvals=*/0, D.DCalls);

  Stats.HeapFlushes += D.DFlushes;
  Stats.Counterfactuals += D.DCntr;
  Stats.CounterfactualAborts += D.DAborts;
  // Journal entries are a per-push counter; replay pushes nothing (no undo
  // ever reaches back past a clean region boundary), so fold the count.
  Stats.JournalEntries += D.DJournal;
  Stats.FlushLimitHit = D.FlushLimitHit;

  for (const DegradationEvent &E : D.DegEvents)
    Degradation.addEvent(E.Cause, E.Action, E.Detail); // bumps EventsTotal
  Degradation.EventsTotal += D.DegTotalDelta - D.DegEvents.size();

  return true;
}

//===----------------------------------------------------------------------===//
// The region driver
//===----------------------------------------------------------------------===//

IComp InstrumentedInterpreter::execProgramBody() {
  const std::vector<Stmt *> &Body = Prog.Body;

  IncOptFp = mixHash(optionVectorFingerprint(Opts), Opts.RandomSeed);
  IncFnIndex.clear();
  for (const Stmt *S : Body)
    walkPreOrder(S, [this](const Node *N) {
      if (N->getKind() == NodeKind::Function)
        IncFnIndex.emplace(N->getID(), cast<FunctionExpr>(N));
      return true;
    });
  IncChainFp =
      chainFingerprint(0x441cee9202af60d3ull, IncOptFp, hoistFingerprint());

  for (size_t I = 0; I < Body.size(); ++I) {
    if (IncStop || !regionBoundaryClean()) {
      // First unclean boundary: the chain fingerprint no longer certifies
      // the reaching state, so the rest of the program runs plain.
      IncStop = true;
      return execStmtsFrom(Body, I);
    }
    const Stmt *S = Body[I];
    ++Stats.IncrementalRegions;
    const uint64_t StmtKey = stmtKeyFor(S);
    const uint64_t PreFp = IncChainFp;
    const RegionSummary *Hit = Opts.Store->lookup(StmtKey, PreFp, IncOptFp);

    if (Hit && Opts.Incremental == IncrementalMode::On &&
        applyRegionDelta(Hit->Delta)) {
      IncChainFp = Hit->PostFp;
      ++Stats.IncrementalReplays;
      continue;
    }

    // Cold path (and the whole of strict mode): execute with capture on.
    RegionCaptureState RC;
    RC.Mark = J.mark();
    RC.HeapSize = TheHeap.size();
    RC.EnvSize = Envs.size();
    RC.CtxSize = Contexts.size();
    RC.OutputLen = Output.size();
    RC.HandlersLen = EventHandlers.size();
    RC.DegEvents = Degradation.Events.size();
    RC.DegTotal = Degradation.EventsTotal;
    RC.Gov = Gov.checkpoint();
    RC.Flushes = Stats.HeapFlushes;
    RC.Cntr = Stats.Counterfactuals;
    RC.Aborts = Stats.CounterfactualAborts;
    RC.JEntries = Stats.JournalEntries;
    const ASTContext *EvalCtx =
        Opts.EvalContext ? Opts.EvalContext : Prog.Context.get();
    RC.EvalNextID = EvalCtx->nextID();
    IncPreDomKeys.clear();
    for (const auto &[K, V] : DomElements) {
      (void)V;
      IncPreDomKeys.push_back(K);
    }
    IncPreSiteCounts = Frames.back().SiteCounts;
    IncFacts.clear();
    IncStmts.clear();
    IncCalls.clear();
    IncUnserializable = false;
    IncCapturing = true;

    IComp C = execStmt(S);

    IncCapturing = false;
    std::string Delta;
    bool Clean = C.K == IComp::Normal && regionBoundaryClean() &&
                 buildRegionDelta(RC, Delta);
    if (Clean) {
      uint64_t PostFp =
          chainFingerprint(PreFp, StmtKey, summaryChecksum(Delta));
      if (Hit) {
        if (Opts.Incremental == IncrementalMode::Strict &&
            (Hit->Delta != Delta || Hit->PostFp != PostFp))
          return IComp::fatal(
              "incremental strict mismatch: stored summary for region " +
              std::to_string(I) +
              " diverges from re-execution (stale store or hash collision)");
      } else {
        RegionSummary Sum;
        Sum.StmtKey = StmtKey;
        Sum.PreFp = PreFp;
        Sum.OptFp = IncOptFp;
        Sum.PostFp = PostFp;
        Sum.Delta = std::move(Delta);
        Opts.Store->insert(std::move(Sum));
        ++Stats.SummariesStored;
      }
      IncChainFp = PostFp;
    } else {
      IncStop = true;
    }

    if (!C.isAbrupt())
      continue;
    // Identical to execStmtsFrom's abrupt tail: an indeterminate control
    // transfer explores the skipped suffix counterfactually.
    IncStop = true;
    if (C.IndetControl && C.K != IComp::Fatal && I + 1 < Body.size()) {
      std::vector<StringId> Vd;
      for (size_t R2 = I + 1; R2 < Body.size(); ++R2) {
        std::vector<StringId> Part = collectAssignedVars(Body[R2]);
        Vd.insert(Vd.end(), Part.begin(), Part.end());
      }
      std::sort(Vd.begin(), Vd.end());
      Vd.erase(std::unique(Vd.begin(), Vd.end()), Vd.end());
      IComp CF =
          counterfactualBranch(Vd, [&] { return execStmtsFrom(Body, I + 1); });
      if (CF.K == IComp::Fatal)
        return CF;
    }
    return C;
  }
  return IComp::normal();
}
