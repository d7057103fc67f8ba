//===- Bytecode.h - Flat bytecode for MiniJS expressions ---------*- C++ -*-==//
///
/// \file
/// A compact postfix bytecode shared by the concrete and the instrumented
/// interpreters. One compiler lowers each expression tree (statements stay
/// tree-walk — they are control, not the hot path) to a flat instruction
/// stream over an explicit operand stack of PR-1 16-byte POD Values (or
/// TaggedValues in the instrumented dispatch mode). The two engines differ
/// only in their dispatch loops: the instrumented loop layers determinacy
/// tagging, fact recording, journal writes and counterfactual fork/abort
/// hooks over the same instruction stream, so the differential and
/// soundness suites remain the oracle that both semantics agree.
///
/// Invariants the dispatch loops rely on:
///
///  * governor ticks are explicit: every compiled node either starts with a
///    Tick instruction or is a self-ticking leaf, placed so the VM's step
///    sequence is *identical* (count and order) to the tree-walk's
///    pre-order ticking — injected faults trip at the same checkpoint
///    under either engine;
///  * each expression node has exactly one "completing" instruction
///    (Flags & kCompletes), in postfix order, whose result is the node's
///    value — the instrumented loop hangs Expression facts off it;
///  * branch operands (?:, &&, ||) are nested code ranges executed
///    recursively, with the untaken side's assigned-variable list
///    precompiled in the exact order the tree-walk's syntactic collector
///    produces it (journal-entry counts depend on that order).
///
/// Chunks are compiled on first evaluation of a root expression and cached
/// per interpreter instance, keyed by node pointer — ASTs parsed at runtime
/// by `eval` (including the parallel engine's per-task overlay arenas) get
/// chunks the same way, and die with the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_BYTECODE_BYTECODE_H
#define DDA_BYTECODE_BYTECODE_H

#include "support/Interner.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dda {

class Expr;
class FunctionExpr;
using NodeID = uint32_t;

/// Which execution engine evaluates expressions.
enum class ExecEngine : uint8_t {
  TreeWalk, ///< Reference semantics: recursive big-step evaluation.
  Bytecode, ///< Compile-once flat dispatch (default).
};

/// Process default: `DDA_ENGINE=tree` selects the tree-walk reference
/// semantics, anything else (including unset) the bytecode VM.
ExecEngine defaultExecEngine();

/// "tree" / "bytecode".
const char *execEngineName(ExecEngine E);

/// Parses an `--engine` value; returns false on an unknown name.
bool parseExecEngine(const std::string &Name, ExecEngine &Out);

namespace bc {

enum class Opcode : uint8_t {
  // Pre-order governor checkpoint for an interior node. After compilation a
  // tick-fusion peephole folds runs of these into the next instruction's B
  // field as a pre-tick count (see fuseTicks in Bytecode.cpp); a standalone
  // Tick only survives when a branch-range boundary cuts through the run.
  Tick,
  // Self-ticking leaves (push one value). All of them — and the three
  // allocating/compound openers below — treat B as "extra governor ticks
  // to run first", the fusion pass's landing field.
  PushNum,   ///< C = index into Chunk::Nums.
  PushAtom,  ///< C = raw StringId.
  PushBool,  ///< C = 0/1.
  PushNull,
  PushUndef,
  PushThis,
  LoadVar,   ///< C = name atom; throws ReferenceError when unbound.
  TypeofVar, ///< typeof <identifier>; tolerates unbound names.
  DeleteFalse,   ///< delete of a non-member: false, operand unevaluated.
  UpdateVar,     ///< ++x/x--; C = name atom, kPrefix/kIncrement flags.
  UpdateInvalid, ///< update of a non-reference: TypeError, no eval.
  MakeClosure,   ///< C = index into Chunk::Fns.
  FatalExpr,     ///< malformed AST: statement node in expression position.
  // Literals with element streams. NewArray/NewObject allocate before the
  // elements evaluate (heap allocation order matches the tree-walk).
  NewArray,    ///< push fresh array.
  ArrayElem,   ///< C = element index; pops value, peeks array.
  ArrayFinish, ///< C = element count; writes length, completes.
  NewObject,
  ObjProp,   ///< C = key atom; pops value, peeks object.
  ObjFinish, ///< completes with the object.
  // Property access. Non-computed keys ride in C; computed keys are
  // resolved by ResolveKey, which pops the index value and pushes the key
  // atom (with its determinacy in the instrumented mode).
  ResolveKey,      ///< ID = the MemberExpr (PropName facts hang here).
  GetMember,       ///< pops [key,] base; pushes property value.
  GetCalleeMember, ///< pops [key]; peeks base; pushes callee above it.
  MemberOld,       ///< compound assign: peeks base/[key], pushes old value.
  SetMember,       ///< pops value, [key,] base; writes; pushes value.
  SetMemberCompound, ///< pops rhs, old, [key,] base; B = BinaryOp.
  DeleteMember,      ///< pops [key,] base; pushes existed-boolean.
  UpdateMember,      ///< pops [key,] base; read-modify-write.
  // Variable stores.
  LoadVarCompound,  ///< compound assign: pushes old; ReferenceError if unbound.
  StoreVar,         ///< pops value; writes variable; pushes value.
  StoreVarCompound, ///< pops rhs, old; B = BinaryOp; writes; pushes result.
  // Operators.
  Unary,  ///< B = UnaryOp; pops operand, pushes result.
  Binary, ///< B = BinaryOp (includes in/instanceof); pops rhs, lhs.
  // Branches: C = index into Chunk::Branches; sub-ranges follow inline and
  // the dispatch loop jumps past them.
  LogicalBranch, ///< kIsAnd flag; range A = RHS.
  CondBranch,    ///< range A = then, range B = else.
  // Calls: B = argc, C = source line; kMemberCall means the receiver sits
  // under the callee on the stack.
  Invoke,
  InvokeNew,
};

// Instr::Flags bits.
inline constexpr uint8_t kCompletes = 1;  ///< node's postfix result point
inline constexpr uint8_t kComputed = 2;   ///< member key came from ResolveKey
inline constexpr uint8_t kPrefix = 4;     ///< ++x rather than x++
inline constexpr uint8_t kIncrement = 8;  ///< ++ rather than --
inline constexpr uint8_t kIsAnd = 16;     ///< && rather than ||
inline constexpr uint8_t kMemberCall = 32;///< receiver under callee

/// One 12-byte instruction. B carries small immediates (operator kinds,
/// argument counts), C large ones (atoms, pool/branch indices, lines), ID
/// the AST node for facts, error positions and allocation sites.
struct Instr {
  Opcode Op;
  uint8_t Flags;
  uint16_t B;
  uint32_t C;
  NodeID ID;
};

/// A branch construct's two inline code ranges ([AStart,AEnd) then
/// [BStart,BEnd), contiguous) plus the precompiled assigned-variable lists
/// used when a side runs counterfactually. For && / || only range A (the
/// RHS) exists and BStart == BEnd == AEnd.
struct BranchInfo {
  uint32_t AStart, AEnd, BStart, BEnd;
  uint32_t VdA, VdB; ///< VdLists indices (untaken-side vd); VdB unused for &&/||.
};

/// One monomorphic inline-cache entry. Variable instructions cache the
/// Binding* resolved from (Key = start EnvRef) while Gen matches the env
/// arena's shape generation; member instructions cache the own Slot* for
/// (Key = base ObjectRef) while Gen matches that object's shape generation.
/// A generation mismatch just refills — never unsound, only slower.
struct InlineCache {
  uint32_t Key = 0;
  uint32_t Gen = 0;
  void *Ptr = nullptr;
  /// Engine-specific extra word: the instrumented VM stores the declaring
  /// EnvRef alongside a cached Binding* (its journal entries name the
  /// environment, not just the binding).
  uint32_t Aux = 0;
};

/// A compiled expression: the instruction stream plus side tables.
/// Constants are pooled; atoms are already interned StringIds and ride in
/// the instruction word itself.
struct Chunk {
  const Expr *Root = nullptr;
  std::vector<Instr> Code;
  std::vector<double> Nums;
  std::vector<const FunctionExpr *> Fns;
  std::vector<BranchInfo> Branches;
  std::vector<std::vector<StringId>> VdLists;
  /// Per-instruction inline caches, indexed like Code. Mutable because the
  /// compiled code itself is immutable; caches are per-interpreter scratch
  /// (each interpreter owns its Module, so chunks are never shared across
  /// threads).
  mutable std::vector<InlineCache> IC;
  /// Upper bound on operand-stack growth of any execution through this
  /// chunk (conservative: a linear pass that walks both branch arms). The
  /// dispatch loops resize their stack once on entry and index into it
  /// unchecked instead of paying a capacity check per push.
  uint32_t MaxStack = 0;
};

/// Lowers one expression tree to a chunk.
std::unique_ptr<Chunk> compileExpr(const Expr *Root);

/// Per-interpreter chunk cache (one compile per root expression).
///
/// Direct-mapped on NodeID rather than hashed on the node pointer: the
/// lookup runs once per root-expression evaluation, and for tiny roots
/// (loop conditions, `i++` updates) a hash probe is a measurable fraction
/// of the whole evaluation. NodeIDs are dense (ASTContext hands them out
/// sequentially; eval overlays base at the program's nextID), so the table
/// stays compact. The cached Root pointer guards against id reuse across
/// distinct eval overlay arenas — on a mismatch the slot is recompiled, but
/// the stale chunk's storage is retained until the Module dies, because an
/// in-flight dispatch activation may still be executing it.
class Module {
public:
  const Chunk &getOrCompile(const Expr *E);

  /// Tiered lookup: returns the chunk once \p E has run often enough to be
  /// worth compiling, null while it is still cold (the caller tree-walks —
  /// the two engines are observationally identical, so mixing them per
  /// root changes nothing observable). One-shot code (top-level
  /// initialization, most of the eval corpus) never pays compilation; a
  /// loop's condition/update/body roots compile within their first few
  /// iterations. Inline because every root evaluation — hot or cold —
  /// makes this probe; only table growth, id-reuse invalidation, and
  /// compilation itself leave the header. \p ID must be E->getID() (passed
  /// in so this header needs no AST dependency).
  const Chunk *lookupHot(NodeID ID, const Expr *E) {
    if (ID < Table.size()) {
      Entry &En = Table[ID];
      if (En.Ch) {
        if (En.Ch->Root == E)
          return En.Ch;
        return invalidateAndCount(ID, E); // id reused by an eval overlay
      }
      if (++En.Warm < WarmupRuns)
        return nullptr;
      return compileHot(ID, E);
    }
    return growAndCount(ID);
  }

private:
  const Chunk *invalidateAndCount(NodeID ID, const Expr *E);
  const Chunk *growAndCount(NodeID ID);
  const Chunk *compileHot(NodeID ID, const Expr *E);
  /// Executions after which a root is compiled (so N-1 tree-walk runs).
  /// High enough that straight-line code run a handful of times never pays
  /// compilation; any loop crosses it within its first few iterations.
  static constexpr uint32_t WarmupRuns = 4;

  /// One slot per NodeID: the chunk once hot, plus the execution count
  /// while cold. A single vector so the per-evaluation probe (which every
  /// cold tree-walk node pays too, via the recursive evalExpr) touches one
  /// cache line.
  struct Entry {
    const Chunk *Ch = nullptr;
    uint32_t Warm = 0;
  };
  std::vector<Entry> Table;
  std::vector<std::unique_ptr<Chunk>> Owned;
};

/// Human-readable listing (debugging aid; exercised by tests).
std::string disassemble(const Chunk &Ch);

} // namespace bc
} // namespace dda

#endif // DDA_BYTECODE_BYTECODE_H
