//===- Facts.h - Determinacy facts and the fact database ---------*- C++ -*-==//
///
/// \file
/// A determinacy fact is the paper's `⟦e⟧ c = v`: at program point `e` under
/// calling context `c`, the value is `v` in every execution (or `?` if
/// indeterminate). The instrumented interpreter records facts at the points
/// client analyses consume:
///
///   * Condition  — branch/loop conditions (branch pruning, Figure 1),
///   * Callee     — call targets (call-graph specialization, eval detection),
///   * PropName   — computed property names (access staticization, Figure 3),
///   * EvalArg    — eval argument strings (eval elimination, Figure 4),
///   * CallArg    — argument values at call sites (function specialization),
///   * Assign     — values written by assignments,
///   * TripCount  — loop iteration counts (bounded unrolling),
///   * Expression — every expression (optional; used by tests and tools).
///
/// Re-visiting the same (point, context) merges by value equality: a second
/// visit with a different value demotes the fact to indeterminate.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_DETERMINACY_FACTS_H
#define DDA_DETERMINACY_FACTS_H

#include "determinacy/Context.h"
#include "interp/Builtins.h"
#include "interp/Heap.h"
#include "interp/Value.h"
#include "support/FlatMap.h"

#include <optional>
#include <string>
#include <vector>

namespace dda {

/// What kind of program point a fact describes.
enum class FactKind : uint8_t {
  Condition,
  Callee,
  PropName,
  EvalArg,
  CallArg,
  Assign,
  TripCount,
  /// Key bound by iteration #Index of a for-in loop over a determinate
  /// property set (iteration order is determinate, Section 5.2).
  ForInKey,
  Expression,
};

const char *factKindName(FactKind Kind);

/// The value side of a fact. Objects are identified by allocation site and
/// functions by their AST node, which is what makes facts comparable across
/// executions (the paper's µ address mapping).
struct FactValue {
  enum Kind : uint8_t {
    Indeterminate,
    Undefined,
    Null,
    Boolean,
    Number,
    String,
    Function, ///< User closure, identified by FunctionExpr NodeID.
    Native,   ///< Built-in, identified by NativeFn.
    Object,   ///< Plain/array/DOM object, identified by allocation site.
  } K = Indeterminate;

  bool B = false;
  double Num = 0;
  StringId Str; ///< Interned atom (K == String).
  NodeID Node = 0;
  NativeFn NativeID = NativeFn::None;

  static FactValue indet() { return FactValue(); }
  static FactValue fromTagged(const TaggedValue &TV, const Heap &H);

  bool isDeterminate() const { return K != Indeterminate; }
  bool isString() const { return K == String; }
  bool isBooleanTrue() const { return K == Boolean && B; }
  bool isBooleanFalse() const { return K == Boolean && !B; }
  bool isFunction() const { return K == Function; }
  bool isNative(NativeFn Fn) const { return K == Native && NativeID == Fn; }

  bool sameAs(const FactValue &Other) const;

  /// Renders like the paper: `23`, `"width"`, `true`, `?`, `function@12`.
  std::string str() const;
};

/// Key of a fact: program point + context + kind (+ argument index).
struct FactKey {
  NodeID Node = 0;
  ContextID Ctx = 0;
  FactKind Kind = FactKind::Expression;
  uint16_t Index = 0; ///< Argument position for CallArg.

  bool operator==(const FactKey &O) const {
    return Node == O.Node && Ctx == O.Ctx && Kind == O.Kind && Index == O.Index;
  }
};

/// Hashes the packed key through a splitmix64 finalizer. The packed word
/// alone is NOT a usable hash: `std::hash<uint64_t>` is the identity on
/// libstdc++, and a power-of-two table masks to the low bits — which for the
/// old `A * 1000003 + B` scheme were dominated by Kind/Index, clustering
/// every (node, ctx) pair for a hot fact kind into a handful of buckets.
/// See the FactKeyHashDistribution regression test.
struct FactKeyHash {
  size_t operator()(const FactKey &K) const {
    uint64_t A = (static_cast<uint64_t>(K.Node) << 32) | K.Ctx;
    uint64_t B = (static_cast<uint64_t>(K.Index) << 8) |
                 static_cast<uint64_t>(K.Kind);
    return static_cast<size_t>(splitmix64(A * 0x9E3779B97F4A7C15ull ^ B));
  }
};

/// The database of merged facts from one (or more) instrumented runs.
class FactDB {
public:
  /// Open-addressing table: fact recording is the single hottest map
  /// operation on the per-step path (every condition, callee, and argument
  /// observation probes it). Iteration order is arbitrary but a pure
  /// function of the insertion history; `dump()` sorts, and merge, counts
  /// and the specializer's scans are order-insensitive — see the
  /// FactDBDeterminism test. UniformFacts is the one order-sensitive
  /// reader: of several agreeing values (`0` and `-0`) it keeps the last.
  using Map = FlatMap<FactKey, FactValue, FactKeyHash>;

  /// Records an observation; merges with any prior fact at the same key.
  void record(const FactKey &Key, const FactValue &Value);

  /// The merged fact, or nullptr if the point was never observed.
  const FactValue *query(const FactKey &Key) const;

  // Convenience queries.
  const FactValue *condition(NodeID Stmt, ContextID Ctx) const {
    return query({Stmt, Ctx, FactKind::Condition, 0});
  }
  const FactValue *callee(NodeID Call, ContextID Ctx) const {
    return query({Call, Ctx, FactKind::Callee, 0});
  }
  const FactValue *propName(NodeID Member, ContextID Ctx) const {
    return query({Member, Ctx, FactKind::PropName, 0});
  }
  const FactValue *evalArg(NodeID Call, ContextID Ctx) const {
    return query({Call, Ctx, FactKind::EvalArg, 0});
  }
  const FactValue *callArg(NodeID Call, ContextID Ctx, uint16_t I) const {
    return query({Call, Ctx, FactKind::CallArg, I});
  }
  const FactValue *tripCount(NodeID Loop, ContextID Ctx) const {
    return query({Loop, Ctx, FactKind::TripCount, 0});
  }
  const FactValue *forInKey(NodeID Loop, ContextID Ctx, uint16_t I) const {
    return query({Loop, Ctx, FactKind::ForInKey, I});
  }
  const FactValue *expression(NodeID E, ContextID Ctx) const {
    return query({E, Ctx, FactKind::Expression, 0});
  }

  /// Merges another database into this one (running the analysis on more
  /// inputs "yields more facts, which are all sound and hence can be used
  /// together" — paper Section 7). Points observed in both merge by value;
  /// points observed in only one database are kept as-is.
  void merge(const FactDB &Other);

  size_t size() const { return Facts.size(); }
  size_t countDeterminate() const;
  size_t countOfKind(FactKind Kind) const;

  /// All facts, for iteration/dumping.
  const Map &all() const { return Facts; }

  /// Human-readable dump: one `⟦node@line⟧ ctx = value` per line.
  std::string dump(const ContextTable &Contexts) const;

private:
  Map Facts;
};

/// The *context-free* (shallow) merge of every observation at each
/// (Kind, Node), over all contexts and argument indices: a determinate value
/// only if all observations agree and none is indeterminate, else null. This
/// is the paper's future-work direction of "inferring determinacy facts with
/// shallower calling contexts": sound because it is the meet over all
/// full-context facts.
///
/// Built in one pass over the database in its iteration order, so a lookup
/// costs one probe instead of a scan of every fact. Of several agreeing
/// values the last in that order wins. The index points into \p DB, which
/// must outlive it and must not change while it is in use.
class UniformFacts {
public:
  explicit UniformFacts(const FactDB &DB);

  /// The merged value at (Kind, Node), or null if the point was never
  /// observed, or any observation is indeterminate or disagrees.
  const FactValue *get(FactKind Kind, NodeID Node) const {
    auto It = Index.find(key(Kind, Node));
    return It == Index.end() ? nullptr : It->second;
  }

private:
  static uint64_t key(FactKind Kind, NodeID Node) {
    return (static_cast<uint64_t>(Node) << 8) | static_cast<uint8_t>(Kind);
  }

  /// Null marks a point whose observations disagree or are indeterminate.
  FlatMap<uint64_t, const FactValue *> Index;
};

} // namespace dda

#endif // DDA_DETERMINACY_FACTS_H
