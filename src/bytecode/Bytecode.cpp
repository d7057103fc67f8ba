//===- Bytecode.cpp - Expression lowering and disassembly -------------------==//

#include "bytecode/Bytecode.h"

#include "ast/AST.h"

#include <cstdlib>
#include <sstream>

using namespace dda;
using namespace dda::bc;

ExecEngine dda::defaultExecEngine() {
  static ExecEngine E = [] {
    const char *V = std::getenv("DDA_ENGINE");
    if (V && std::string(V) == "tree")
      return ExecEngine::TreeWalk;
    return ExecEngine::Bytecode;
  }();
  return E;
}

const char *dda::execEngineName(ExecEngine E) {
  return E == ExecEngine::TreeWalk ? "tree" : "bytecode";
}

bool dda::parseExecEngine(const std::string &Name, ExecEngine &Out) {
  if (Name == "tree") {
    Out = ExecEngine::TreeWalk;
    return true;
  }
  if (Name == "bytecode") {
    Out = ExecEngine::Bytecode;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

namespace {

/// Names assigned anywhere in \p E, not descending into nested function
/// bodies. Must produce the same names in the same order as the tree-walk's
/// syntactic collector in InstrumentedInterpreter.cpp: the list drives
/// counterfactual journal weakening, and journal-entry counts are part of
/// the engines' observable equivalence.
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

BinaryOp compoundOp(AssignOp Op) {
  switch (Op) {
  case AssignOp::Add:
    return BinaryOp::Add;
  case AssignOp::Sub:
    return BinaryOp::Sub;
  case AssignOp::Mul:
    return BinaryOp::Mul;
  case AssignOp::Div:
    return BinaryOp::Div;
  default:
    return BinaryOp::Mod;
  }
}

class Compiler {
public:
  explicit Compiler(Chunk &Ch) : Ch(Ch) {}

  void expr(const Expr *E) {
    switch (E->getKind()) {
    case NodeKind::NumberLiteral: {
      Ch.Nums.push_back(cast<NumberLiteral>(E)->getValue());
      emit(Opcode::PushNum, kCompletes, 0,
           static_cast<uint32_t>(Ch.Nums.size() - 1), E->getID());
      return;
    }
    case NodeKind::StringLiteral:
      emit(Opcode::PushAtom, kCompletes, 0,
           cast<StringLiteral>(E)->getAtom().Raw, E->getID());
      return;
    case NodeKind::BooleanLiteral:
      emit(Opcode::PushBool, kCompletes, 0,
           cast<BooleanLiteral>(E)->getValue() ? 1 : 0, E->getID());
      return;
    case NodeKind::NullLiteral:
      emit(Opcode::PushNull, kCompletes, 0, 0, E->getID());
      return;
    case NodeKind::UndefinedLiteral:
      emit(Opcode::PushUndef, kCompletes, 0, 0, E->getID());
      return;
    case NodeKind::This:
      emit(Opcode::PushThis, kCompletes, 0, 0, E->getID());
      return;
    case NodeKind::Identifier:
      emit(Opcode::LoadVar, kCompletes, 0,
           cast<Identifier>(E)->getAtom().Raw, E->getID());
      return;
    case NodeKind::ArrayLiteral: {
      const auto *A = cast<ArrayLiteral>(E);
      tick(E);
      emit(Opcode::NewArray, 0, 0, 0, E->getID());
      const auto &Elems = A->getElements();
      for (size_t I = 0; I < Elems.size(); ++I) {
        expr(Elems[I]);
        emit(Opcode::ArrayElem, 0, 0, static_cast<uint32_t>(I), E->getID());
      }
      emit(Opcode::ArrayFinish, kCompletes, 0,
           static_cast<uint32_t>(Elems.size()), E->getID());
      return;
    }
    case NodeKind::ObjectLiteral: {
      const auto *OL = cast<ObjectLiteral>(E);
      tick(E);
      emit(Opcode::NewObject, 0, 0, 0, E->getID());
      for (const auto &P : OL->getProperties()) {
        expr(P.Value);
        emit(Opcode::ObjProp, 0, 0, P.KeyAtom.Raw, E->getID());
      }
      emit(Opcode::ObjFinish, kCompletes, 0, 0, E->getID());
      return;
    }
    case NodeKind::Function: {
      Ch.Fns.push_back(cast<FunctionExpr>(E));
      emit(Opcode::MakeClosure, kCompletes, 0,
           static_cast<uint32_t>(Ch.Fns.size() - 1), E->getID());
      return;
    }
    case NodeKind::Member: {
      const auto *M = cast<MemberExpr>(E);
      tick(E);
      expr(M->getObject());
      emit(Opcode::GetMember, kCompletes | memberKey(M), 0, keyAtom(M),
           M->getID());
      return;
    }
    case NodeKind::Call: {
      const auto *C = cast<CallExpr>(E);
      tick(E);
      uint8_t Flags = kCompletes;
      if (const auto *M = dyn_cast<MemberExpr>(C->getCallee())) {
        // The callee MemberExpr is resolved inline (no tick of its own, no
        // Expression fact), exactly as the tree-walk's evalCall does.
        expr(M->getObject());
        emit(Opcode::GetCalleeMember, memberKey(M), 0, keyAtom(M),
             M->getID());
        Flags |= kMemberCall;
      } else {
        expr(C->getCallee());
      }
      for (const Expr *A : C->getArgs())
        expr(A);
      emit(Opcode::Invoke, Flags,
           static_cast<uint16_t>(C->getArgs().size()), C->getLine(),
           C->getID());
      return;
    }
    case NodeKind::New: {
      const auto *N = cast<NewExpr>(E);
      tick(E);
      expr(N->getCallee());
      for (const Expr *A : N->getArgs())
        expr(A);
      emit(Opcode::InvokeNew, kCompletes,
           static_cast<uint16_t>(N->getArgs().size()), N->getLine(),
           N->getID());
      return;
    }
    case NodeKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      if (U->getOp() == UnaryOp::Delete) {
        const auto *M = dyn_cast<MemberExpr>(U->getOperand());
        if (!M) {
          emit(Opcode::DeleteFalse, kCompletes, 0, 0, E->getID());
          return;
        }
        tick(E);
        expr(M->getObject());
        emit(Opcode::DeleteMember, kCompletes | memberKey(M), 0, keyAtom(M),
             E->getID());
        return;
      }
      if (U->getOp() == UnaryOp::Typeof &&
          isa<Identifier>(U->getOperand())) {
        emit(Opcode::TypeofVar, kCompletes, 0,
             cast<Identifier>(U->getOperand())->getAtom().Raw, E->getID());
        return;
      }
      tick(E);
      expr(U->getOperand());
      emit(Opcode::Unary, kCompletes,
           static_cast<uint16_t>(U->getOp()), 0, E->getID());
      return;
    }
    case NodeKind::Update: {
      const auto *U = cast<UpdateExpr>(E);
      uint8_t Mode = (U->isPrefix() ? kPrefix : 0) |
                     (U->isIncrement() ? kIncrement : 0);
      if (const auto *Id = dyn_cast<Identifier>(U->getOperand())) {
        emit(Opcode::UpdateVar, kCompletes | Mode, 0, Id->getAtom().Raw,
             E->getID());
        return;
      }
      const auto *M = dyn_cast<MemberExpr>(U->getOperand());
      if (!M) {
        emit(Opcode::UpdateInvalid, 0, 0, 0, E->getID());
        return;
      }
      tick(E);
      expr(M->getObject());
      emit(Opcode::UpdateMember, kCompletes | Mode | memberKey(M), 0,
           keyAtom(M), E->getID());
      return;
    }
    case NodeKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      tick(E);
      expr(B->getLHS());
      expr(B->getRHS());
      emit(Opcode::Binary, kCompletes,
           static_cast<uint16_t>(B->getOp()), 0, E->getID());
      return;
    }
    case NodeKind::Logical: {
      const auto *L = cast<LogicalExpr>(E);
      tick(E);
      expr(L->getLHS());
      uint32_t BranchIP = emit(Opcode::LogicalBranch,
                               kCompletes | (L->isAnd() ? kIsAnd : 0), 0, 0,
                               E->getID());
      BranchInfo Br;
      Br.AStart = pc();
      expr(L->getRHS());
      Br.AEnd = Br.BStart = Br.BEnd = pc();
      Br.VdA = vd(L->getRHS());
      Br.VdB = 0;
      Ch.Code[BranchIP].C = addBranch(Br);
      return;
    }
    case NodeKind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      tick(E);
      expr(C->getCond());
      uint32_t BranchIP =
          emit(Opcode::CondBranch, kCompletes, 0, 0, E->getID());
      BranchInfo Br;
      Br.AStart = pc();
      expr(C->getThen());
      Br.AEnd = Br.BStart = pc();
      expr(C->getElse());
      Br.BEnd = pc();
      Br.VdA = vd(C->getThen());
      Br.VdB = vd(C->getElse());
      Ch.Code[BranchIP].C = addBranch(Br);
      return;
    }
    case NodeKind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      bool Compound = A->getOp() != AssignOp::Assign;
      uint16_t Op = static_cast<uint16_t>(compoundOp(A->getOp()));
      tick(E);
      if (const auto *Id = dyn_cast<Identifier>(A->getTarget())) {
        if (Compound)
          emit(Opcode::LoadVarCompound, 0, 0, Id->getAtom().Raw, E->getID());
        expr(A->getValue());
        if (Compound)
          emit(Opcode::StoreVarCompound, kCompletes, Op, Id->getAtom().Raw,
               E->getID());
        else
          emit(Opcode::StoreVar, kCompletes, 0, Id->getAtom().Raw,
               E->getID());
        return;
      }
      const auto *M = cast<MemberExpr>(A->getTarget());
      expr(M->getObject());
      uint8_t Key = memberKey(M);
      if (Compound)
        emit(Opcode::MemberOld, Key, 0, keyAtom(M), M->getID());
      expr(A->getValue());
      if (Compound)
        emit(Opcode::SetMemberCompound, kCompletes | Key, Op, keyAtom(M),
             E->getID());
      else
        emit(Opcode::SetMember, kCompletes | Key, 0, keyAtom(M), E->getID());
      return;
    }
    default:
      emit(Opcode::FatalExpr, 0, 0, 0, E->getID());
      return;
    }
  }

private:
  uint32_t pc() const { return static_cast<uint32_t>(Ch.Code.size()); }

  uint32_t emit(Opcode Op, uint8_t Flags, uint16_t B, uint32_t C,
                NodeID ID) {
    Ch.Code.push_back(Instr{Op, Flags, B, C, ID});
    return pc() - 1;
  }

  void tick(const Expr *E) { emit(Opcode::Tick, 0, 0, 0, E->getID()); }

  /// Emits the computed-key resolution (if any) and returns the kComputed
  /// flag bit for the consuming instruction.
  uint8_t memberKey(const MemberExpr *M) {
    if (!M->isComputed())
      return 0;
    expr(M->getIndex());
    emit(Opcode::ResolveKey, 0, 0, 0, M->getID());
    return kComputed;
  }

  uint32_t keyAtom(const MemberExpr *M) {
    return M->isComputed() ? 0 : M->getPropertyAtom().Raw;
  }

  uint32_t vd(const Expr *E) {
    std::vector<StringId> Names;
    collectAssignedInExpr(E, Names);
    Ch.VdLists.push_back(std::move(Names));
    return static_cast<uint32_t>(Ch.VdLists.size() - 1);
  }

  uint32_t addBranch(const BranchInfo &Br) {
    Ch.Branches.push_back(Br);
    return static_cast<uint32_t>(Ch.Branches.size() - 1);
  }

  Chunk &Ch;
};

} // namespace

/// Conservative operand-stack bound: a linear pass over the instruction
/// stream. Branch ranges are laid out inline, so walking straight through
/// simulates both arms back to back — each CondBranch therefore counts one
/// phantom extra value (both arms "push" their result), which only
/// over-reserves, never under.
static uint32_t maxStackDepth(const Chunk &Ch) {
  int32_t Depth = 0, Max = 1;
  for (const Instr &I : Ch.Code) {
    int32_t Pops = 0, Pushes = 0;
    const bool Computed = (I.Flags & kComputed) != 0;
    switch (I.Op) {
    case Opcode::Tick:
    case Opcode::ArrayFinish:
    case Opcode::ObjFinish:
    case Opcode::UpdateInvalid:
    case Opcode::FatalExpr:
      break;
    case Opcode::PushNum:
    case Opcode::PushAtom:
    case Opcode::PushBool:
    case Opcode::PushNull:
    case Opcode::PushUndef:
    case Opcode::PushThis:
    case Opcode::LoadVar:
    case Opcode::TypeofVar:
    case Opcode::DeleteFalse:
    case Opcode::UpdateVar:
    case Opcode::MakeClosure:
    case Opcode::NewArray:
    case Opcode::NewObject:
    case Opcode::MemberOld:
    case Opcode::LoadVarCompound:
      Pushes = 1;
      break;
    case Opcode::ArrayElem:
    case Opcode::ObjProp:
      Pops = 1;
      break;
    case Opcode::ResolveKey:
    case Opcode::Unary:
      Pops = 1;
      Pushes = 1;
      break;
    case Opcode::GetMember:
      Pops = Computed ? 2 : 1;
      Pushes = 1;
      break;
    case Opcode::GetCalleeMember:
      Pops = Computed ? 1 : 0;
      Pushes = 1;
      break;
    case Opcode::SetMember:
      Pops = Computed ? 3 : 2;
      Pushes = 1;
      break;
    case Opcode::SetMemberCompound:
      Pops = Computed ? 4 : 3;
      Pushes = 1;
      break;
    case Opcode::DeleteMember:
    case Opcode::UpdateMember:
      Pops = Computed ? 2 : 1;
      Pushes = 1;
      break;
    case Opcode::StoreVar:
      Pops = 1;
      Pushes = 1;
      break;
    case Opcode::StoreVarCompound:
    case Opcode::Binary:
      Pops = 2;
      Pushes = 1;
      break;
    case Opcode::LogicalBranch:
    case Opcode::CondBranch:
      Pops = 1;
      break;
    case Opcode::Invoke:
      Pops = I.B + 1 + ((I.Flags & kMemberCall) ? 1 : 0);
      Pushes = 1;
      break;
    case Opcode::InvokeNew:
      Pops = I.B + 1;
      Pushes = 1;
      break;
    }
    Depth -= Pops;
    if (Depth < 0)
      Depth = 0; // Phantom branch-arm values; bound stays conservative.
    Depth += Pushes;
    Max = std::max(Max, Depth);
  }
  return static_cast<uint32_t>(Max);
}

/// Which instructions can absorb preceding Tick instructions into their B
/// immediate (unused otherwise on these). Every compiled subtree bottoms
/// out at one of them — the first instruction after any run of interior-
/// node ticks is a leaf, an allocation, or a variable access — so in
/// practice every Tick run fuses away.
static bool absorbsTicks(Opcode Op) {
  switch (Op) {
  case Opcode::PushNum:
  case Opcode::PushAtom:
  case Opcode::PushBool:
  case Opcode::PushNull:
  case Opcode::PushUndef:
  case Opcode::PushThis:
  case Opcode::LoadVar:
  case Opcode::TypeofVar:
  case Opcode::DeleteFalse:
  case Opcode::UpdateVar:
  case Opcode::UpdateInvalid:
  case Opcode::MakeClosure:
  case Opcode::FatalExpr:
  case Opcode::NewArray:
  case Opcode::NewObject:
  case Opcode::LoadVarCompound:
    return true;
  default:
    return false;
  }
}

/// Folds each run of Tick instructions into the following instruction's B
/// immediate (its pre-tick count), eliminating one dispatch per interior
/// AST node while keeping the governor's checkpoint sequence bit-identical:
/// the absorbing handler performs the same tick() calls in the same order
/// before its own work, so traps fire at the same step with the same state.
/// A run never folds across a branch-range boundary — an entry point must
/// not acquire ticks that precede it, and a range end must not lose ticks
/// that follow it — and branch ranges are remapped to the shrunken stream.
static void fuseTicks(Chunk &Ch) {
  const uint32_t N = static_cast<uint32_t>(Ch.Code.size());
  if (N == 0)
    return;
  std::vector<char> IsBound(N + 1, 0);
  for (const BranchInfo &Br : Ch.Branches) {
    IsBound[Br.AStart] = 1;
    IsBound[Br.AEnd] = 1;
    IsBound[Br.BStart] = 1;
    IsBound[Br.BEnd] = 1;
  }
  std::vector<Instr> Out;
  Out.reserve(N);
  std::vector<uint32_t> NewIdx(N + 1, 0);
  uint32_t I = 0;
  while (I < N) {
    if (Ch.Code[I].Op != Opcode::Tick) {
      NewIdx[I] = static_cast<uint32_t>(Out.size());
      Out.push_back(Ch.Code[I]);
      ++I;
      continue;
    }
    uint32_t K = I;
    while (K < N && Ch.Code[K].Op == Opcode::Tick)
      ++K;
    if (K == N) { // Cannot happen (chunks end completing), but stay safe.
      for (uint32_t P = I; P < K; ++P) {
        NewIdx[P] = static_cast<uint32_t>(Out.size());
        Out.push_back(Ch.Code[P]);
      }
      I = K;
      continue;
    }
    // Latest legal fusion start: past any boundary inside (I, K].
    uint32_t S = I;
    for (uint32_t P = I + 1; P <= K; ++P)
      if (IsBound[P])
        S = P;
    if (!absorbsTicks(Ch.Code[K].Op) ||
        (K - S) > static_cast<uint32_t>(0xFFFF - Ch.Code[K].B))
      S = K; // Fuse nothing.
    for (uint32_t P = I; P < S; ++P) {
      NewIdx[P] = static_cast<uint32_t>(Out.size());
      Out.push_back(Ch.Code[P]);
    }
    for (uint32_t P = S; P <= K; ++P)
      NewIdx[P] = static_cast<uint32_t>(Out.size());
    Instr Target = Ch.Code[K];
    Target.B = static_cast<uint16_t>(Target.B + (K - S));
    Out.push_back(Target);
    I = K + 1;
  }
  NewIdx[N] = static_cast<uint32_t>(Out.size());
  for (BranchInfo &Br : Ch.Branches) {
    Br.AStart = NewIdx[Br.AStart];
    Br.AEnd = NewIdx[Br.AEnd];
    Br.BStart = NewIdx[Br.BStart];
    Br.BEnd = NewIdx[Br.BEnd];
  }
  Ch.Code = std::move(Out);
}

std::unique_ptr<Chunk> bc::compileExpr(const Expr *Root) {
  auto Ch = std::make_unique<Chunk>();
  Ch->Root = Root;
  Compiler(*Ch).expr(Root);
  fuseTicks(*Ch);
  Ch->IC.assign(Ch->Code.size(), InlineCache{});
  Ch->MaxStack = maxStackDepth(*Ch);
  return Ch;
}

const Chunk &Module::getOrCompile(const Expr *E) {
  NodeID ID = E->getID();
  if (ID < Table.size()) {
    const Chunk *Ch = Table[ID].Ch;
    if (Ch && Ch->Root == E)
      return *Ch;
  } else {
    Table.resize(ID + 1);
  }
  Owned.push_back(compileExpr(E));
  Table[ID].Ch = Owned.back().get();
  return *Table[ID].Ch;
}

// Out-of-line tail of the inline lookupHot probe: NodeID reused by a
// different (eval-overlay) tree — restart warmup. The stale chunk's storage
// stays in Owned; an in-flight activation may still be executing it.
const Chunk *Module::invalidateAndCount(NodeID ID, const Expr *E) {
  Entry &En = Table[ID];
  En = Entry{};
  if (++En.Warm < WarmupRuns)
    return nullptr;
  return compileHot(ID, E);
}

// First sighting of this NodeID: grow the table and start its count.
const Chunk *Module::growAndCount(NodeID ID) {
  Table.resize(ID + 1);
  Table[ID].Warm = 1;
  return nullptr;
}

const Chunk *Module::compileHot(NodeID ID, const Expr *E) {
  Owned.push_back(compileExpr(E));
  Table[ID].Ch = Owned.back().get();
  return Table[ID].Ch;
}

//===----------------------------------------------------------------------===//
// Disassembler
//===----------------------------------------------------------------------===//

static const char *opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Tick:
    return "tick";
  case Opcode::PushNum:
    return "push_num";
  case Opcode::PushAtom:
    return "push_atom";
  case Opcode::PushBool:
    return "push_bool";
  case Opcode::PushNull:
    return "push_null";
  case Opcode::PushUndef:
    return "push_undef";
  case Opcode::PushThis:
    return "push_this";
  case Opcode::LoadVar:
    return "load_var";
  case Opcode::TypeofVar:
    return "typeof_var";
  case Opcode::DeleteFalse:
    return "delete_false";
  case Opcode::UpdateVar:
    return "update_var";
  case Opcode::UpdateInvalid:
    return "update_invalid";
  case Opcode::MakeClosure:
    return "make_closure";
  case Opcode::FatalExpr:
    return "fatal_expr";
  case Opcode::NewArray:
    return "new_array";
  case Opcode::ArrayElem:
    return "array_elem";
  case Opcode::ArrayFinish:
    return "array_finish";
  case Opcode::NewObject:
    return "new_object";
  case Opcode::ObjProp:
    return "obj_prop";
  case Opcode::ObjFinish:
    return "obj_finish";
  case Opcode::ResolveKey:
    return "resolve_key";
  case Opcode::GetMember:
    return "get_member";
  case Opcode::GetCalleeMember:
    return "get_callee_member";
  case Opcode::MemberOld:
    return "member_old";
  case Opcode::SetMember:
    return "set_member";
  case Opcode::SetMemberCompound:
    return "set_member_compound";
  case Opcode::DeleteMember:
    return "delete_member";
  case Opcode::UpdateMember:
    return "update_member";
  case Opcode::LoadVarCompound:
    return "load_var_compound";
  case Opcode::StoreVar:
    return "store_var";
  case Opcode::StoreVarCompound:
    return "store_var_compound";
  case Opcode::Unary:
    return "unary";
  case Opcode::Binary:
    return "binary";
  case Opcode::LogicalBranch:
    return "logical_branch";
  case Opcode::CondBranch:
    return "cond_branch";
  case Opcode::Invoke:
    return "invoke";
  case Opcode::InvokeNew:
    return "invoke_new";
  }
  return "?";
}

static bool hasAtomOperand(Opcode Op) {
  switch (Op) {
  case Opcode::PushAtom:
  case Opcode::LoadVar:
  case Opcode::TypeofVar:
  case Opcode::UpdateVar:
  case Opcode::ObjProp:
  case Opcode::LoadVarCompound:
  case Opcode::StoreVar:
  case Opcode::StoreVarCompound:
    return true;
  case Opcode::GetMember:
  case Opcode::GetCalleeMember:
  case Opcode::MemberOld:
  case Opcode::SetMember:
  case Opcode::SetMemberCompound:
  case Opcode::DeleteMember:
  case Opcode::UpdateMember:
    return true;
  default:
    return false;
  }
}

std::string bc::disassemble(const Chunk &Ch) {
  std::ostringstream OS;
  for (size_t IP = 0; IP < Ch.Code.size(); ++IP) {
    const Instr &I = Ch.Code[IP];
    OS << IP << "\t" << opcodeName(I.Op);
    switch (I.Op) {
    case Opcode::PushNum:
      OS << " " << Ch.Nums[I.C];
      break;
    case Opcode::PushBool:
      OS << " " << (I.C ? "true" : "false");
      break;
    case Opcode::Unary:
    case Opcode::Binary:
      OS << " op=" << I.B;
      break;
    case Opcode::MakeClosure:
      OS << " fn#" << I.C;
      break;
    case Opcode::LogicalBranch:
    case Opcode::CondBranch: {
      const BranchInfo &Br = Ch.Branches[I.C];
      OS << " a=[" << Br.AStart << "," << Br.AEnd << ")";
      if (Br.BEnd != Br.AEnd)
        OS << " b=[" << Br.BStart << "," << Br.BEnd << ")";
      break;
    }
    case Opcode::Invoke:
    case Opcode::InvokeNew:
      OS << " argc=" << I.B << " line=" << I.C;
      break;
    case Opcode::ArrayElem:
    case Opcode::ArrayFinish:
      OS << " " << I.C;
      break;
    default:
      if (hasAtomOperand(I.Op) && !(I.Flags & kComputed))
        OS << " '" << atomText(StringId{I.C}) << "'";
      break;
    }
    if (I.Flags & kCompletes)
      OS << " !";
    OS << "\tnode=" << I.ID << "\n";
  }
  return OS.str();
}
