//===- PointsTo.cpp -------------------------------------------------------==//
///
/// Solver layout. Constraint variables are dense ids with their state in
/// parallel arrays: a points-to row and a processed row (bitsets over
/// abstract objects, each sized by its highest word), a successor list, a
/// trigger list and a worklist flag. Rows and lists live in shared pools
/// (`Pool`), so a run makes a handful of allocations instead of several per
/// variable. Names are the parser's interned atoms.
///
/// Propagation order is part of the result. A run that stops at the step
/// budget reports the state it reached, so the solver keeps one order of
/// insertions: a FIFO worklist, each variable's triggers and successors in
/// insertion order, and objects in ascending id. Unions go a word at a time
/// and fall back to single bits only in the word where the budget trips, so
/// the trip lands on the same object as a bit-by-bit loop would.
///
//===----------------------------------------------------------------------===//

#include "pointsto/PointsTo.h"

#include "ast/ASTWalk.h"
#include "interp/Builtins.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <cassert>

using namespace dda;

namespace {

using AbsObj = uint32_t;
using VarID = uint32_t;
/// A field is named by its atom (`StringId::Raw`).
using FieldID = uint32_t;

constexpr VarID NoVar = ~VarID(0);
/// Successor lists shorter than this are scanned for duplicate edges.
constexpr uint32_t ScanLimit = 64;

/// A growable list inside a shared pool: items `[Off, Off + Len)`, with
/// `[Len, Cap)` value-initialized spare room.
struct Span {
  uint32_t Off = 0, Len = 0, Cap = 0;
};

/// Backing store for many Spans. A list that outgrows its slot moves to the
/// end of the pool with doubled capacity; the old slot is abandoned, which
/// costs at most the live size again.
template <typename T> class Pool {
public:
  T *data(const Span &S) { return Items.data() + S.Off; }
  T &at(const Span &S, uint32_t I) { return Items[S.Off + I]; }

  void reserve(Span &S, uint32_t N) {
    if (N <= S.Cap)
      return;
    uint32_t NewCap = std::max(N, S.Cap * 2);
    auto Off = static_cast<uint32_t>(Items.size());
    Items.resize(Off + NewCap);
    std::copy_n(Items.begin() + S.Off, S.Len, Items.begin() + Off);
    S.Off = Off;
    S.Cap = NewCap;
  }

  void push(Span &S, T V) {
    reserve(S, S.Len + 1);
    Items[S.Off + S.Len++] = V;
  }

private:
  std::vector<T> Items;
};

/// What an abstract object denotes.
struct AbstractObject {
  enum Kind : uint8_t {
    FunctionObj, ///< Closure of a syntactic function (0-CFA merge).
    ProtoObj,    ///< The implicit F.prototype object.
    SiteObj,     ///< Object/array literal or new-expression allocation site.
    NativeObj,   ///< A builtin function.
    Singleton,   ///< window / document / Math / string-prim / ...
  } K;
  const FunctionExpr *Fn = nullptr;
  NodeID Site = 0;
  NativeFn Native = NativeFn::None;
  const char *Name = "";
};

/// Per syntactic function: scope parent, abstract objects, and the lazily
/// created return and `this` variables.
struct FunctionInfo {
  const FunctionExpr *Parent = nullptr;
  AbsObj Obj = 0;
  AbsObj Proto = 0;
  VarID Ret = NoVar;
  VarID This = NoVar;
  bool Generated = false;
};

/// A name in the scope of a function (null = global scope).
struct ScopedName {
  const FunctionExpr *Fn;
  StringId Name;
  bool operator==(const ScopedName &O) const {
    return Fn == O.Fn && Name == O.Name;
  }
};
struct ScopedNameHash {
  uint64_t operator()(const ScopedName &K) const {
    return splitmix64(reinterpret_cast<uintptr_t>(K.Fn) *
                          0x9E3779B97F4A7C15ull ^
                      K.Name.Raw);
  }
};

/// Deferred constraint on the objects of a variable. Call arguments live in
/// Analysis::ArgPool.
struct Trigger {
  enum Kind : uint8_t { Load, LoadAll, Store, StoreStar, Call } K = Load;
  bool IsNew = false;
  FieldID Field = 0;
  VarID Other = 0; ///< dst for loads, src for stores.
  // Call payload:
  NodeID CallNode = 0;
  VarID Result = 0;
  VarID Receiver = 0; ///< 0 = none.
  uint32_t ArgOff = 0, NumArgs = 0;
};

/// Identity of a trigger on a variable: two triggers with the same key
/// would add the same constraints.
struct TriggerKey {
  VarID Var;
  uint32_t Kind;
  FieldID Field;
  VarID Other;
  NodeID CallNode;
  VarID Result;
  bool operator==(const TriggerKey &O) const {
    return Var == O.Var && Kind == O.Kind && Field == O.Field &&
           Other == O.Other && CallNode == O.CallNode && Result == O.Result;
  }
};
struct TriggerKeyHash {
  uint64_t operator()(const TriggerKey &K) const {
    uint64_t H = splitmix64((static_cast<uint64_t>(K.Var) << 32) | K.Other);
    H = splitmix64(H ^ ((static_cast<uint64_t>(K.Field) << 32) | K.Result));
    return splitmix64(H ^ ((static_cast<uint64_t>(K.CallNode) << 8) | K.Kind));
  }
};

struct Analysis {
  const Program &Prog;
  const PointsToOptions &Opts;
  PointsToResult Result;

  // --- Abstract object universe (pre-enumerated) -------------------------
  std::vector<AbstractObject> Objects;
  FlatMap<const FunctionExpr *, FunctionInfo> Functions;
  FlatMap<NodeID, AbsObj> SiteObjs;
  FlatMap<NativeFn, AbsObj> NativeObjs;
  AbsObj WindowObj = 0, DocumentObj = 0, DomElementObj = 0, MathObj = 0,
         ConsoleObj = 0, ObjectCtorObj = 0, ArrayCtorObj = 0,
         StringProtoObj = 0, ArrayProtoObj = 0, ObjectProtoObj = 0,
         NativeArrayObj = 0, StringPrimObj = 0;

  // --- Constraint variables (struct of arrays) ------------------------------
  std::vector<Span> PointsTo;  ///< Rows in Words.
  std::vector<Span> Processed; ///< Rows in Words: objects already handled.
  std::vector<Span> Succ;      ///< Lists in SuccPool.
  std::vector<Span> SuccBits;  ///< Rows in Words, for wide fan-outs.
  std::vector<Span> Triggers;  ///< Lists in TriggerPool.
  std::vector<uint8_t> InWorklist;
  Pool<uint64_t> Words;
  Pool<VarID> SuccPool;
  Pool<Trigger> TriggerPool;
  std::vector<VarID> ArgPool;
  FlatSet<TriggerKey, TriggerKeyHash> TriggerKeys;

  FlatMap<NodeID, VarID> ExprVars;
  FlatMap<ScopedName, VarID, ScopedNameHash> LocalVars;
  FlatMap<uint64_t, VarID> FieldVars; // (AbsObj << 32 | FieldID)
  VarID ThrownVar = 0;

  // --- Field names -----------------------------------------------------------
  const FieldID StarField = intern("*").Raw;
  const FieldID ProtoField = intern("__proto__").Raw;
  const FieldID PrototypeField = atoms().Prototype.Raw;
  const FieldID ConstructorField = atoms().Constructor.Raw;
  // Per object: created (field, var) pairs and pending load-all sinks.
  std::vector<Span> ObjFields; ///< Lists in FieldPool.
  std::vector<Span> LoadAllSinks; ///< Lists in SinkPool.
  Pool<std::pair<FieldID, VarID>> FieldPool;
  Pool<VarID> SinkPool;

  // --- Scope information ------------------------------------------------------
  FlatSet<ScopedName, ScopedNameHash> DeclaredNames;
  FlatMap<NodeID, VarID> CallSiteCalleeVar;

  std::vector<VarID> Worklist; ///< FIFO from WorklistHead.
  size_t WorklistHead = 0;
  std::vector<uint64_t> SnapshotStack; ///< addTrigger's row copies.
  std::vector<AbsObj> Delta;
  uint64_t Steps = 0;
  bool Budget = true;

  Analysis(const Program &P, const PointsToOptions &O) : Prog(P), Opts(O) {}

  // ---------------------------------------------------------------- setup --

  AbsObj makeObject(AbstractObject O) {
    Objects.push_back(O);
    ObjFields.emplace_back();
    LoadAllSinks.emplace_back();
    return static_cast<AbsObj>(Objects.size() - 1);
  }

  FunctionInfo &info(const FunctionExpr *F) { return Functions.at(F); }

  VarID makeVar() {
    PointsTo.emplace_back();
    Processed.emplace_back();
    Succ.emplace_back();
    SuccBits.emplace_back();
    Triggers.emplace_back();
    InWorklist.push_back(0);
    return static_cast<VarID>(PointsTo.size() - 1);
  }

  VarID exprVar(const Expr *E) {
    auto [It, Inserted] = ExprVars.try_emplace(E->getID());
    if (Inserted)
      It->second = makeVar();
    return It->second;
  }

  VarID localVar(const FunctionExpr *Fn, StringId Name) {
    auto [It, Inserted] = LocalVars.try_emplace({Fn, Name});
    if (Inserted)
      It->second = makeVar();
    return It->second;
  }

  VarID retVar(const FunctionExpr *Fn) {
    VarID &V = info(Fn).Ret;
    if (V == NoVar)
      V = makeVar();
    return V;
  }

  VarID thisVar(const FunctionExpr *Fn) {
    VarID &V = info(Fn).This;
    if (V == NoVar)
      V = makeVar();
    return V;
  }

  VarID fieldVar(AbsObj O, FieldID F) {
    uint64_t Key = (static_cast<uint64_t>(O) << 32) | F;
    auto [It, Inserted] = FieldVars.try_emplace(Key);
    if (!Inserted)
      return It->second;
    VarID V = makeVar();
    It->second = V;
    FieldPool.push(ObjFields[O], {F, V});
    // Late wiring: an unknown-name load registered earlier must see this
    // newly materialized field.
    if (F != ProtoField)
      for (uint32_t I = 0; I < LoadAllSinks[O].Len; ++I)
        addEdge(V, SinkPool.at(LoadAllSinks[O], I));
    return V;
  }

  /// Resolves an identifier lexically from function \p Fn outward; names not
  /// declared anywhere become globals (sloppy mode).
  VarID resolveVar(const FunctionExpr *Fn, StringId Name) {
    for (const FunctionExpr *F = Fn; F; F = info(F).Parent)
      if (DeclaredNames.contains({F, Name}))
        return localVar(F, Name);
    return localVar(nullptr, Name);
  }

  // ------------------------------------------------------------ solving --

  void enqueue(VarID V) {
    if (!InWorklist[V]) {
      InWorklist[V] = 1;
      Worklist.push_back(V);
    }
  }

  /// Widens row \p S to at least \p N words.
  void growRow(Span &S, uint32_t N) {
    if (N <= S.Len)
      return;
    Words.reserve(S, N);
    S.Len = N;
  }

  bool testBit(const Span &Row, uint32_t I) {
    return (I >> 6) < Row.Len && (Words.at(Row, I >> 6) >> (I & 63)) & 1;
  }

  uint64_t count(const Span &Row) {
    uint64_t N = 0;
    for (uint32_t W = 0; W < Row.Len; ++W)
      N += static_cast<uint64_t>(__builtin_popcountll(Words.at(Row, W)));
    return N;
  }

  /// Sets bit \p I of a row; false if it was already set.
  bool setBit(Span &Row, uint32_t I) {
    growRow(Row, (I >> 6) + 1);
    uint64_t &Word = Words.at(Row, I >> 6);
    uint64_t Mask = 1ULL << (I & 63);
    if (Word & Mask)
      return false;
    Word |= Mask;
    return true;
  }

  void addObj(VarID V, AbsObj O) {
    if (!Budget || !setBit(PointsTo[V], O))
      return;
    if (++Steps > Opts.MaxPropagationSteps)
      Budget = false;
    enqueue(V);
  }

  /// Adds every object of \p From to \p To, with the steps, trip point and
  /// enqueue that calling addObj for each object in ascending order would
  /// have.
  void addAll(VarID From, VarID To) {
    uint32_t Len = PointsTo[From].Len;
    if (!Budget || !Len)
      return;
    growRow(PointsTo[To], Len);
    uint64_t *Dst = Words.data(PointsTo[To]);
    const uint64_t *Src = Words.data(PointsTo[From]);
    bool Added = false;
    for (uint32_t W = 0; W < Len; ++W) {
      uint64_t New = Src[W] & ~Dst[W];
      if (!New)
        continue;
      Added = true;
      auto N = static_cast<uint64_t>(__builtin_popcountll(New));
      if (Steps + N <= Opts.MaxPropagationSteps) {
        Dst[W] |= New;
        Steps += N;
        continue;
      }
      // The budget trips inside this word: stop at the same object.
      for (;; New &= New - 1) {
        Dst[W] |= New & -New;
        if (++Steps > Opts.MaxPropagationSteps)
          break;
      }
      Budget = false;
      break;
    }
    if (Added)
      enqueue(To);
  }

  /// Duplicate check. A short successor list is scanned; once it reaches
  /// ScanLimit its targets move into a bit row over variables, which
  /// answers from then on (a scan beats a probe for the typical small
  /// fan-out, the row keeps wide fan-outs linear).
  bool isNewEdge(VarID From, VarID To) {
    if (Succ[From].Len >= ScanLimit)
      return setBit(SuccBits[From], To);
    const VarID *List = SuccPool.data(Succ[From]);
    uint32_t Len = Succ[From].Len;
    if (std::find(List, List + Len, To) != List + Len)
      return false;
    if (Len + 1 == ScanLimit) {
      for (uint32_t I = 0; I < Len; ++I)
        setBit(SuccBits[From], List[I]);
      setBit(SuccBits[From], To);
    }
    return true;
  }

  void addEdge(VarID From, VarID To) {
    if (From == To || !isNewEdge(From, To))
      return;
    SuccPool.push(Succ[From], To);
    ++Result.NumCopyEdges;
    addAll(From, To);
  }

  void addTrigger(VarID V, const Trigger &T) {
    if (!TriggerKeys.insert(
            {V, T.K, T.Field, T.Other, T.CallNode, T.Result}))
      return;
    TriggerPool.push(Triggers[V], T);
    if (!Budget)
      return;
    // Apply to the objects V holds now, then leave it to solve() for future
    // ones. Iterate a copy: applying may add objects to V itself.
    Span Row = PointsTo[V];
    size_t Base = SnapshotStack.size();
    SnapshotStack.insert(SnapshotStack.end(), Words.data(Row),
                         Words.data(Row) + Row.Len);
    for (uint32_t W = 0; W < Row.Len && Budget; ++W)
      for (uint64_t Bits = SnapshotStack[Base + W]; Bits && Budget;
           Bits &= Bits - 1)
        applyTrigger(T, (W << 6) + __builtin_ctzll(Bits));
    SnapshotStack.resize(Base);
  }

  void applyTrigger(const Trigger &T, AbsObj O) {
    if (!Budget)
      return;
    switch (T.K) {
    case Trigger::Load: {
      addEdge(fieldVar(O, T.Field), T.Other);
      addEdge(fieldVar(O, StarField), T.Other);
      // Prototype chain: the same load applies to whatever __proto__ holds.
      addTrigger(fieldVar(O, ProtoField), T);
      break;
    }
    case Trigger::LoadAll: {
      for (uint32_t I = 0; I < ObjFields[O].Len; ++I) {
        auto [F, V] = FieldPool.at(ObjFields[O], I);
        if (F != ProtoField)
          addEdge(V, T.Other);
      }
      SinkPool.push(LoadAllSinks[O], T.Other);
      addEdge(fieldVar(O, StarField), T.Other);
      addTrigger(fieldVar(O, ProtoField), T);
      break;
    }
    case Trigger::Store:
      addEdge(T.Other, fieldVar(O, T.Field));
      break;
    case Trigger::StoreStar:
      addEdge(T.Other, fieldVar(O, StarField));
      break;
    case Trigger::Call:
      applyCall(T, O);
      break;
    }
  }

  VarID arg(const Trigger &T, uint32_t I) const {
    return ArgPool[T.ArgOff + I];
  }

  void applyCall(const Trigger &T, AbsObj O) {
    const AbstractObject &AO = Objects[O];
    if (AO.K == AbstractObject::FunctionObj) {
      const FunctionExpr *F = AO.Fn;
      if (T.CallNode)
        Result.CallTargets[T.CallNode].insert(F->getID());
      generateFunction(F);
      // Parameters.
      const std::vector<StringId> &Params = F->getParamAtoms();
      for (uint32_t I = 0; I < Params.size(); ++I)
        if (I < T.NumArgs)
          addEdge(arg(T, I), localVar(F, Params[I]));
      // Return value.
      addEdge(retVar(F), T.Result);
      // this-binding.
      if (T.IsNew) {
        AbsObj NewObj = SiteObjs.at(T.CallNode);
        addObj(thisVar(F), NewObj);
        addObj(T.Result, NewObj);
        // newObj.__proto__ ⊇ F.prototype.
        addEdge(fieldVar(info(F).Obj, PrototypeField),
                fieldVar(NewObj, ProtoField));
      } else if (T.Receiver) {
        addEdge(T.Receiver, thisVar(F));
      }
      return;
    }
    if (AO.K != AbstractObject::NativeObj)
      return;
    // Native models.
    switch (AO.Native) {
    case NativeFn::Eval:
      // Recorded post-hoc via CallSiteCalleeVar.
      break;
    case NativeFn::ObjKeys:
    case NativeFn::StrSplit:
      addObj(T.Result, NativeArrayObj);
      break;
    case NativeFn::ArrPush:
      // Arguments flow into the receiver's merged element field.
      if (T.Receiver)
        for (uint32_t I = 0; I < T.NumArgs; ++I) {
          Trigger St;
          St.K = Trigger::StoreStar;
          St.Other = arg(T, I);
          addTrigger(T.Receiver, St);
        }
      break;
    case NativeFn::ArrPop:
    case NativeFn::ArrShift:
      // Result drawn from the receiver's elements.
      if (T.Receiver) {
        Trigger Ld;
        Ld.K = Trigger::Load;
        Ld.Field = StarField;
        Ld.Other = T.Result;
        addTrigger(T.Receiver, Ld);
      }
      break;
    case NativeFn::ArrSlice:
    case NativeFn::ArrConcat: {
      addObj(T.Result, NativeArrayObj);
      // Elements flow from the receiver (and, for concat, arguments) into
      // the merged native-array element field.
      VarID ElemField = fieldVar(NativeArrayObj, StarField);
      if (T.Receiver) {
        Trigger Ld;
        Ld.K = Trigger::Load;
        Ld.Field = StarField;
        Ld.Other = ElemField;
        addTrigger(T.Receiver, Ld);
      }
      for (uint32_t I = 0; I < T.NumArgs; ++I) {
        // Array arguments contribute their elements; scalars flow directly.
        VarID Arg = arg(T, I);
        Trigger Ld;
        Ld.K = Trigger::Load;
        Ld.Field = StarField;
        Ld.Other = ElemField;
        addTrigger(Arg, Ld);
        addEdge(Arg, ElemField);
      }
      break;
    }
    case NativeFn::DomGetElementById:
    case NativeFn::DomCreateElement:
      addObj(T.Result, DomElementObj);
      break;
    case NativeFn::DomAddEventListener:
      if (Opts.ModelEventHandlers && T.NumArgs >= 2) {
        Trigger HandlerCall;
        HandlerCall.K = Trigger::Call;
        HandlerCall.CallNode = T.CallNode;
        HandlerCall.Result = makeVar();
        HandlerCall.Receiver = makeVar();
        addObj(HandlerCall.Receiver, DocumentObj);
        addTrigger(arg(T, 1), HandlerCall);
      }
      break;
    case NativeFn::StringCtor:
    case NativeFn::StrCharAt:
    case NativeFn::StrToUpperCase:
    case NativeFn::StrToLowerCase:
    case NativeFn::StrSubstr:
    case NativeFn::StrSubstring:
    case NativeFn::StrSlice:
    case NativeFn::StrConcat:
    case NativeFn::StrReplace:
      addObj(T.Result, StringPrimObj);
      break;
    default:
      break;
    }
  }

  // ----------------------------------------------------------- pre-pass --

  /// Global names need no record: resolveVar falls back to them.
  void declare(const FunctionExpr *Fn, StringId Name) {
    if (Fn)
      DeclaredNames.insert({Fn, Name});
  }

  /// Enumerates the abstract objects under \p N and the names each function
  /// declares (vars, inner function declarations, for-in and catch
  /// variables, parameters and its own name).
  void walk(const Node *N, const FunctionExpr *Enclosing) {
    switch (N->getKind()) {
    case NodeKind::VarDeclStmt:
      for (const auto &D : cast<VarDeclStmt>(N)->getDeclarators())
        declare(Enclosing, D.Atom);
      break;
    case NodeKind::FunctionDeclStmt:
      declare(Enclosing,
              cast<FunctionDeclStmt>(N)->getFunction()->getNameAtom());
      break;
    case NodeKind::ForInStmt:
      if (cast<ForInStmt>(N)->declaresVar())
        declare(Enclosing, cast<ForInStmt>(N)->getVarAtom());
      break;
    case NodeKind::TryStmt:
      if (!cast<TryStmt>(N)->getCatchParam().empty())
        declare(Enclosing, cast<TryStmt>(N)->getCatchAtom());
      break;
    default:
      break;
    }
    if (const auto *F = dyn_cast<FunctionExpr>(N)) {
      FunctionInfo &FI = Functions[F];
      FI.Parent = Enclosing;
      FI.Obj = makeObject({AbstractObject::FunctionObj, F, F->getID(),
                           NativeFn::None,
                           F->getName().empty() ? "<anon>"
                                                : F->getName().c_str()});
      FI.Proto = makeObject({AbstractObject::ProtoObj, F, F->getID(),
                             NativeFn::None, "proto"});
      for (StringId P : F->getParamAtoms())
        declare(F, P);
      if (!F->getName().empty())
        declare(F, F->getNameAtom());
      forEachChild(F->getBody(), [&](const Node *C) { walk(C, F); });
      return;
    }
    if (isa<ObjectLiteral>(N) || isa<ArrayLiteral>(N) || isa<NewExpr>(N))
      SiteObjs[N->getID()] =
          makeObject({AbstractObject::SiteObj, nullptr, N->getID(),
                      NativeFn::None, "site"});
    forEachChild(N, [&](const Node *C) { walk(C, Enclosing); });
  }

  void prePass() {
    // Reserve object 0 as invalid.
    makeObject({AbstractObject::Singleton, nullptr, 0, NativeFn::None,
                "<invalid>"});
    for (const Stmt *S : Prog.Body)
      walk(S, nullptr);

    auto MakeSingleton = [&](const char *Name) {
      return makeObject(
          {AbstractObject::Singleton, nullptr, 0, NativeFn::None, Name});
    };
    WindowObj = MakeSingleton("window");
    DocumentObj = MakeSingleton("document");
    DomElementObj = MakeSingleton("dom-element");
    MathObj = MakeSingleton("Math");
    ConsoleObj = MakeSingleton("console");
    ObjectCtorObj = MakeSingleton("Object");
    ArrayCtorObj = MakeSingleton("Array");
    StringProtoObj = MakeSingleton("String.prototype");
    ArrayProtoObj = MakeSingleton("Array.prototype");
    ObjectProtoObj = MakeSingleton("Object.prototype");
    NativeArrayObj = MakeSingleton("native-array");
    StringPrimObj = MakeSingleton("string-prim");
  }

  AbsObj nativeObj(NativeFn Fn) {
    auto It = NativeObjs.find(Fn);
    if (It != NativeObjs.end())
      return It->second;
    AbsObj O = makeObject({AbstractObject::NativeObj, nullptr, 0, Fn,
                           nativeInfo(Fn).Name});
    NativeObjs.emplace(Fn, O);
    return O;
  }

  void seedGlobals() {
    auto Global = [&](const char *Name, AbsObj O) {
      addObj(localVar(nullptr, intern(Name)), O);
    };
    auto Field = [&](AbsObj O, const char *Name, AbsObj V) {
      addObj(fieldVar(O, intern(Name).Raw), V);
    };

    Global("window", WindowObj);
    Global("document", DocumentObj);
    Global("Math", MathObj);
    Global("console", ConsoleObj);
    Global("Object", ObjectCtorObj);
    Global("Array", ArrayCtorObj);
    Global("alert", nativeObj(NativeFn::Print));
    Global("print", nativeObj(NativeFn::Print));
    Global("parseInt", nativeObj(NativeFn::ParseInt));
    Global("parseFloat", nativeObj(NativeFn::ParseFloat));
    Global("isNaN", nativeObj(NativeFn::IsNaN));
    Global("String", nativeObj(NativeFn::StringCtor));
    Global("Number", nativeObj(NativeFn::NumberCtor));
    Global("Boolean", nativeObj(NativeFn::BooleanCtor));
    Global("eval", nativeObj(NativeFn::Eval));

    Field(WindowObj, "document", DocumentObj);
    Field(WindowObj, "addEventListener",
          nativeObj(NativeFn::DomAddEventListener));
    Field(DocumentObj, "getElementById",
          nativeObj(NativeFn::DomGetElementById));
    Field(DocumentObj, "createElement",
          nativeObj(NativeFn::DomCreateElement));
    Field(DocumentObj, "write", nativeObj(NativeFn::DomWrite));
    Field(DocumentObj, "addEventListener",
          nativeObj(NativeFn::DomAddEventListener));
    Field(DomElementObj, "getAttribute", nativeObj(NativeFn::DomGetAttribute));
    Field(DomElementObj, "setAttribute", nativeObj(NativeFn::DomSetAttribute));
    Field(DomElementObj, "appendChild", nativeObj(NativeFn::DomAppendChild));
    Field(DomElementObj, "addEventListener",
          nativeObj(NativeFn::DomAddEventListener));

    Field(MathObj, "random", nativeObj(NativeFn::MathRandom));
    Field(MathObj, "floor", nativeObj(NativeFn::MathFloor));
    Field(MathObj, "ceil", nativeObj(NativeFn::MathCeil));
    Field(MathObj, "round", nativeObj(NativeFn::MathRound));
    Field(MathObj, "abs", nativeObj(NativeFn::MathAbs));
    Field(MathObj, "max", nativeObj(NativeFn::MathMax));
    Field(MathObj, "min", nativeObj(NativeFn::MathMin));
    Field(MathObj, "pow", nativeObj(NativeFn::MathPow));
    Field(MathObj, "sqrt", nativeObj(NativeFn::MathSqrt));
    Field(ConsoleObj, "log", nativeObj(NativeFn::Print));

    Field(ObjectCtorObj, "keys", nativeObj(NativeFn::ObjKeys));
    Field(ObjectCtorObj, "prototype", ObjectProtoObj);
    Field(ArrayCtorObj, "prototype", ArrayProtoObj);
    Field(nativeObj(NativeFn::StringCtor), "prototype", StringProtoObj);

    Field(ObjectProtoObj, "hasOwnProperty",
          nativeObj(NativeFn::ObjHasOwnProperty));
    auto StrMethod = [&](const char *Name, NativeFn Fn) {
      Field(StringProtoObj, Name, nativeObj(Fn));
    };
    StrMethod("charAt", NativeFn::StrCharAt);
    StrMethod("charCodeAt", NativeFn::StrCharCodeAt);
    StrMethod("toUpperCase", NativeFn::StrToUpperCase);
    StrMethod("toLowerCase", NativeFn::StrToLowerCase);
    StrMethod("substr", NativeFn::StrSubstr);
    StrMethod("substring", NativeFn::StrSubstring);
    StrMethod("indexOf", NativeFn::StrIndexOf);
    StrMethod("slice", NativeFn::StrSlice);
    StrMethod("split", NativeFn::StrSplit);
    StrMethod("concat", NativeFn::StrConcat);
    StrMethod("replace", NativeFn::StrReplace);
    auto ArrMethod = [&](const char *Name, NativeFn Fn) {
      Field(ArrayProtoObj, Name, nativeObj(Fn));
    };
    ArrMethod("push", NativeFn::ArrPush);
    ArrMethod("pop", NativeFn::ArrPop);
    ArrMethod("shift", NativeFn::ArrShift);
    ArrMethod("join", NativeFn::ArrJoin);
    ArrMethod("indexOf", NativeFn::ArrIndexOf);
    ArrMethod("slice", NativeFn::ArrSlice);
    ArrMethod("concat", NativeFn::ArrConcat);

    // Primitive strings and native arrays delegate to their prototypes.
    addObj(fieldVar(StringPrimObj, ProtoField), StringProtoObj);
    addObj(fieldVar(NativeArrayObj, ProtoField), ArrayProtoObj);
    addObj(fieldVar(DomElementObj, ProtoField), ObjectProtoObj);

    ThrownVar = makeVar();
  }

  // ------------------------------------------------- constraint generation --

  /// Generates constraints for a function body once, when it becomes a call
  /// target (on-the-fly call graph).
  void generateFunction(const FunctionExpr *F) {
    FunctionInfo &FI = info(F);
    if (FI.Generated)
      return;
    FI.Generated = true;
    ++Result.ReachableFunctions;
    if (!F->getName().empty())
      addObj(localVar(F, F->getNameAtom()), FI.Obj);
    genStmt(F, F->getBody());
  }

  void genStmt(const FunctionExpr *Fn, const Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case NodeKind::ExpressionStmt:
      genExpr(Fn, cast<ExpressionStmt>(S)->getExpr());
      return;
    case NodeKind::VarDeclStmt:
      for (const auto &D : cast<VarDeclStmt>(S)->getDeclarators())
        if (D.Init) {
          VarID V = genExpr(Fn, D.Init);
          addEdge(V, resolveVar(Fn, D.Atom));
        }
      return;
    case NodeKind::FunctionDeclStmt: {
      const FunctionExpr *F = cast<FunctionDeclStmt>(S)->getFunction();
      seedFunctionObject(F);
      addObj(resolveVar(Fn, F->getNameAtom()), info(F).Obj);
      return;
    }
    case NodeKind::BlockStmt:
      for (const Stmt *Child : cast<BlockStmt>(S)->getBody())
        genStmt(Fn, Child);
      return;
    case NodeKind::IfStmt: {
      const auto *If = cast<IfStmt>(S);
      genExpr(Fn, If->getCond());
      genStmt(Fn, If->getThen());
      genStmt(Fn, If->getElse());
      return;
    }
    case NodeKind::WhileStmt:
      genExpr(Fn, cast<WhileStmt>(S)->getCond());
      genStmt(Fn, cast<WhileStmt>(S)->getBody());
      return;
    case NodeKind::DoWhileStmt:
      genStmt(Fn, cast<DoWhileStmt>(S)->getBody());
      genExpr(Fn, cast<DoWhileStmt>(S)->getCond());
      return;
    case NodeKind::ForStmt: {
      const auto *F = cast<ForStmt>(S);
      genStmt(Fn, F->getInit());
      if (F->getCond())
        genExpr(Fn, F->getCond());
      if (F->getUpdate())
        genExpr(Fn, F->getUpdate());
      genStmt(Fn, F->getBody());
      return;
    }
    case NodeKind::ForInStmt: {
      const auto *F = cast<ForInStmt>(S);
      genExpr(Fn, F->getObject());
      addObj(resolveVar(Fn, F->getVarAtom()), StringPrimObj);
      genStmt(Fn, F->getBody());
      return;
    }
    case NodeKind::ReturnStmt:
      if (const Expr *A = cast<ReturnStmt>(S)->getArg()) {
        VarID V = genExpr(Fn, A);
        if (Fn)
          addEdge(V, retVar(Fn));
      }
      return;
    case NodeKind::ThrowStmt:
      addEdge(genExpr(Fn, cast<ThrowStmt>(S)->getArg()), ThrownVar);
      return;
    case NodeKind::TryStmt: {
      const auto *T = cast<TryStmt>(S);
      genStmt(Fn, T->getBlock());
      if (T->getCatchBlock()) {
        if (!T->getCatchParam().empty())
          addEdge(ThrownVar, resolveVar(Fn, T->getCatchAtom()));
        genStmt(Fn, T->getCatchBlock());
      }
      genStmt(Fn, T->getFinallyBlock());
      return;
    }
    case NodeKind::SwitchStmt: {
      const auto *Sw = cast<SwitchStmt>(S);
      genExpr(Fn, Sw->getDisc());
      for (const auto &Clause : Sw->getClauses()) {
        if (Clause.Test)
          genExpr(Fn, Clause.Test);
        for (const Stmt *Child : Clause.Body)
          genStmt(Fn, Child);
      }
      return;
    }
    default:
      return;
    }
  }

  void seedFunctionObject(const FunctionExpr *F) {
    const FunctionInfo &FI = info(F);
    AbsObj FO = FI.Obj;
    AbsObj PO = FI.Proto;
    addObj(fieldVar(FO, PrototypeField), PO);
    addObj(fieldVar(PO, ConstructorField), FO);
    addObj(fieldVar(PO, ProtoField), ObjectProtoObj);
  }

  /// Returns the constraint variable holding the expression's value.
  VarID genExpr(const FunctionExpr *Fn, const Expr *E) {
    VarID Out = exprVar(E);
    switch (E->getKind()) {
    case NodeKind::NumberLiteral:
    case NodeKind::BooleanLiteral:
    case NodeKind::NullLiteral:
    case NodeKind::UndefinedLiteral:
      return Out;
    case NodeKind::StringLiteral:
      addObj(Out, StringPrimObj);
      return Out;
    case NodeKind::Identifier:
      addEdge(resolveVar(Fn, cast<Identifier>(E)->getAtom()), Out);
      return Out;
    case NodeKind::This:
      if (Fn)
        addEdge(thisVar(Fn), Out);
      else
        addObj(Out, WindowObj);
      return Out;
    case NodeKind::ArrayLiteral: {
      AbsObj O = SiteObjs.at(E->getID());
      addObj(Out, O);
      addObj(fieldVar(O, ProtoField), ArrayProtoObj);
      for (const Expr *Elem : cast<ArrayLiteral>(E)->getElements())
        addEdge(genExpr(Fn, Elem), fieldVar(O, StarField));
      return Out;
    }
    case NodeKind::ObjectLiteral: {
      AbsObj O = SiteObjs.at(E->getID());
      addObj(Out, O);
      addObj(fieldVar(O, ProtoField), ObjectProtoObj);
      for (const auto &P : cast<ObjectLiteral>(E)->getProperties())
        addEdge(genExpr(Fn, P.Value), fieldVar(O, P.KeyAtom.Raw));
      return Out;
    }
    case NodeKind::Function: {
      const auto *F = cast<FunctionExpr>(E);
      seedFunctionObject(F);
      addObj(Out, info(F).Obj);
      return Out;
    }
    case NodeKind::Member: {
      const auto *M = cast<MemberExpr>(E);
      VarID Base = genExpr(Fn, M->getObject());
      genLoad(Fn, M, Base, Out);
      return Out;
    }
    case NodeKind::Call:
    case NodeKind::New:
      genCall(Fn, E, Out);
      return Out;
    case NodeKind::Unary:
      genExpr(Fn, cast<UnaryExpr>(E)->getOperand());
      return Out;
    case NodeKind::Update:
      genExpr(Fn, cast<UpdateExpr>(E)->getOperand());
      return Out;
    case NodeKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      genExpr(Fn, B->getLHS());
      genExpr(Fn, B->getRHS());
      // `+` may concatenate strings.
      if (B->getOp() == BinaryOp::Add)
        addObj(Out, StringPrimObj);
      return Out;
    }
    case NodeKind::Logical: {
      const auto *L = cast<LogicalExpr>(E);
      addEdge(genExpr(Fn, L->getLHS()), Out);
      addEdge(genExpr(Fn, L->getRHS()), Out);
      return Out;
    }
    case NodeKind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      VarID V = genExpr(Fn, A->getValue());
      if (const auto *Id = dyn_cast<Identifier>(A->getTarget())) {
        addEdge(V, resolveVar(Fn, Id->getAtom()));
      } else {
        const auto *M = cast<MemberExpr>(A->getTarget());
        VarID Base = genExpr(Fn, M->getObject());
        genStore(Fn, M, Base, V);
      }
      addEdge(V, Out);
      return Out;
    }
    case NodeKind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      genExpr(Fn, C->getCond());
      addEdge(genExpr(Fn, C->getThen()), Out);
      addEdge(genExpr(Fn, C->getElse()), Out);
      return Out;
    }
    default:
      return Out;
    }
  }

  /// Static field name if the access is non-computed or uses a string
  /// literal index; invalid atom = unknown (★).
  static StringId staticFieldName(const MemberExpr *M) {
    if (!M->isComputed())
      return M->getPropertyAtom();
    if (const auto *S = dyn_cast<StringLiteral>(M->getIndex()))
      return S->getAtom();
    return StringId();
  }

  void genLoad(const FunctionExpr *Fn, const MemberExpr *M, VarID Base,
               VarID Dst) {
    if (M->isComputed() && !isa<StringLiteral>(M->getIndex()))
      genExpr(Fn, M->getIndex());
    Trigger T;
    if (StringId Name = staticFieldName(M)) {
      T.K = Trigger::Load;
      T.Field = Name.Raw;
    } else {
      T.K = Trigger::LoadAll;
    }
    T.Other = Dst;
    addTrigger(Base, T);
  }

  void genStore(const FunctionExpr *Fn, const MemberExpr *M, VarID Base,
                VarID Src) {
    if (M->isComputed() && !isa<StringLiteral>(M->getIndex()))
      genExpr(Fn, M->getIndex());
    Trigger T;
    if (StringId Name = staticFieldName(M)) {
      T.K = Trigger::Store;
      T.Field = Name.Raw;
    } else {
      T.K = Trigger::StoreStar;
    }
    T.Other = Src;
    addTrigger(Base, T);
  }

  void genCall(const FunctionExpr *Fn, const Expr *E, VarID Out) {
    bool IsNew = isa<NewExpr>(E);
    const Expr *CalleeE =
        IsNew ? cast<NewExpr>(E)->getCallee() : cast<CallExpr>(E)->getCallee();
    const std::vector<Expr *> &Args =
        IsNew ? cast<NewExpr>(E)->getArgs() : cast<CallExpr>(E)->getArgs();

    Trigger T;
    T.K = Trigger::Call;
    T.CallNode = E->getID();
    T.Result = Out;
    T.IsNew = IsNew;

    VarID CalleeV;
    if (const auto *M = dyn_cast<MemberExpr>(CalleeE)) {
      VarID Base = genExpr(Fn, M->getObject());
      CalleeV = exprVar(CalleeE);
      genLoad(Fn, M, Base, CalleeV);
      T.Receiver = Base;
    } else {
      CalleeV = genExpr(Fn, CalleeE);
    }
    // Collect first: calls nested in the arguments append their own.
    std::vector<VarID> ArgVars;
    ArgVars.reserve(Args.size());
    for (const Expr *A : Args)
      ArgVars.push_back(genExpr(Fn, A));
    T.ArgOff = static_cast<uint32_t>(ArgPool.size());
    T.NumArgs = static_cast<uint32_t>(ArgVars.size());
    ArgPool.insert(ArgPool.end(), ArgVars.begin(), ArgVars.end());
    CallSiteCalleeVar[E->getID()] = CalleeV;
    addTrigger(CalleeV, T);
  }

  // ---------------------------------------------------------------- solve --

  void solve() {
    while (WorklistHead < Worklist.size() && Budget) {
      VarID V = Worklist[WorklistHead++];
      InWorklist[V] = 0;

      // New objects since last processing.
      Delta.clear();
      uint32_t Len = PointsTo[V].Len;
      growRow(Processed[V], Len);
      const uint64_t *Row = Words.data(PointsTo[V]);
      uint64_t *Done = Words.data(Processed[V]);
      for (uint32_t W = 0; W < Len; ++W) {
        uint64_t New = Row[W] & ~Done[W];
        Done[W] |= New;
        for (; New; New &= New - 1)
          Delta.push_back((W << 6) + __builtin_ctzll(New));
      }
      for (AbsObj O : Delta) {
        // Triggers may grow (and move) while we iterate; index loop over a
        // by-value copy of each entry.
        for (uint32_t I = 0; I < Triggers[V].Len && Budget; ++I) {
          Trigger T = TriggerPool.at(Triggers[V], I);
          applyTrigger(T, O);
        }
      }
      // Copy edges.
      for (uint32_t I = 0; I < Succ[V].Len; ++I)
        addAll(V, SuccPool.at(Succ[V], I));

      // Drop the consumed prefix once it dominates the queue.
      if (WorklistHead > 4096 && WorklistHead * 2 > Worklist.size()) {
        Worklist.erase(Worklist.begin(),
                       Worklist.begin() + static_cast<ptrdiff_t>(WorklistHead));
        WorklistHead = 0;
      }
    }
  }

  void finalize() {
    Result.Completed = Budget;
    Result.PropagationSteps = Steps;
    Result.NumAbstractObjects = Objects.size();
    Result.NumConstraintVars = PointsTo.size();
    size_t NonEmpty = 0;
    for (const Span &Row : PointsTo) {
      uint64_t Count = count(Row);
      Result.TotalPointsToSize += Count;
      if (Count)
        ++NonEmpty;
    }
    Result.AvgPointsToSize =
        NonEmpty ? double(Result.TotalPointsToSize) / double(NonEmpty) : 0;

    for (const auto &[Site, Targets] : Result.CallTargets) {
      Result.CallGraphEdges += Targets.size();
      if (Targets.size() > 1)
        ++Result.PolymorphicCallSites;
    }
    Result.AvgCallTargets =
        Result.CallTargets.empty()
            ? 0
            : double(Result.CallGraphEdges) / double(Result.CallTargets.size());

    auto It = NativeObjs.find(NativeFn::Eval);
    if (It == NativeObjs.end())
      return;
    AbsObj EvalObj = It->second;
    for (const auto &[Site, CalleeV] : CallSiteCalleeVar) {
      if (!testBit(PointsTo[CalleeV], EvalObj))
        continue;
      Result.EvalMaybeCallSites.insert(Site);
      if (count(PointsTo[CalleeV]) == 1)
        Result.EvalOnlyCallSites.insert(Site);
    }
  }

  void run() {
    // Size the busiest tables for the program: growing them one rehash at
    // a time costs more than the spare room.
    size_t N = Prog.Context->nodeCount();
    TriggerKeys.reserve(N / 2);
    FieldVars.reserve(N / 2);
    ExprVars.reserve(N / 2);
    prePass();
    seedGlobals();
    for (const Stmt *S : Prog.Body)
      genStmt(nullptr, S);
    solve();
    finalize();
  }
};

} // namespace

PointsToResult dda::runPointsToAnalysis(const Program &P,
                                        const PointsToOptions &Opts) {
  Analysis A(P, Opts);
  A.run();
  return A.Result;
}
