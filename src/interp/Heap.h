//===- Heap.h - Object heap for MiniJS ---------------------------*- C++ -*-==//
///
/// \file
/// Heap object model shared by the concrete and instrumented interpreters.
/// Objects store properties in insertion order (matching JavaScript engines'
/// enumeration order, which the paper's eval case study relies on: "if the
/// set of properties to iterate over is determinate, our analysis assumes
/// that the iteration order is also determinate").
///
/// Each property slot carries a determinacy flag and a *recency epoch*: the
/// instrumented interpreter implements the paper's heap flush (Section 4) by
/// bumping a global epoch counter, so a property is determinate only when its
/// flag is `!` and its epoch equals the current one. The concrete interpreter
/// ignores both fields.
///
/// Property names are interned atoms (StringId): map probes hash a 32-bit id,
/// and the array-index fast path reads the index precomputed at intern time.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_INTERP_HEAP_H
#define DDA_INTERP_HEAP_H

#include "ast/AST.h"
#include "interp/Value.h"
#include "support/Arena.h"
#include "support/ResourceGovernor.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

namespace dda {

/// Classification of heap objects.
enum class ObjectClass : uint8_t {
  Plain,    ///< Object literal / new-expression result.
  Array,    ///< Array literal; keeps `length` in sync with index writes.
  Function, ///< User closure: AST function + captured environment.
  Native,   ///< Built-in function.
  Dom,      ///< DOM node / document / window; reads are indeterminate.
};

/// A property slot: the stored value plus instrumentation metadata.
struct Slot {
  Value V;
  Det D = Det::Determinate;
  uint32_t Epoch = 0; ///< Recency annotation (heap-flush support).
  /// Builtin slots installed before the program runs (native methods,
  /// prototype wiring) survive heap flushes: they model the immutable parts
  /// of the standard library whose behavior the hand-written native models
  /// already capture (paper Section 4). A user write replaces the slot and
  /// clears the flag.
  bool Immune = false;
};

/// Identifier of a built-in function; dispatch lives in Builtins.cpp.
enum class NativeFn : uint16_t;

/// A heap object. Also represents closures and built-ins.
class JSObject {
public:
  ObjectClass Class = ObjectClass::Plain;
  ObjectRef Proto = 0; ///< Prototype link; 0 means none.

  // Function payload (Class == Function).
  const FunctionExpr *Fn = nullptr;
  EnvRef Closure = 0;

  // Native payload (Class == Native).
  NativeFn Native{};

  /// Allocation site (NodeID of the literal / function / new expression), or
  /// 0 for runtime-created objects. Used to render object values in facts and
  /// by the pointer-analysis comparison tests.
  NodeID AllocSite = 0;

  // Instrumentation state (used only by the instrumented interpreter).
  /// Epoch at which this record was created/known closed. The record is
  /// *open* (paper: `{x:v, ...}`) if this differs from the current global
  /// epoch or if ExplicitlyOpen is set.
  uint32_t ClosedEpoch = 0;
  /// Set when a property store with an indeterminate name hits this record.
  bool ExplicitlyOpen = false;
  /// Properties that are absent here but may exist in other executions
  /// (counterfactually created then undone). The paper models records as
  /// total functions, so a single absent property can be `undefined?` while
  /// the rest of the record stays determinate. Sorted, duplicate-free.
  /// Small-vector: almost every record has zero-to-few entries, so they
  /// live inline in the object instead of in the global allocator.
  SmallVec<StringId, 4> MaybeAbsent;
  /// Properties present here but possibly absent in other executions
  /// (created inside a branch with an indeterminate condition). They make
  /// the record's property *set* indeterminate even though each value's
  /// determinacy is tracked per slot. Sorted, duplicate-free.
  SmallVec<StringId, 4> MaybePresent;

  bool isMaybeAbsent(StringId Name) const {
    return std::binary_search(MaybeAbsent.begin(), MaybeAbsent.end(), Name);
  }

  bool isMaybePresent(StringId Name) const {
    return std::binary_search(MaybePresent.begin(), MaybePresent.end(), Name);
  }

  /// Inserts into the sorted MaybeAbsent set; returns false if already there
  /// (so callers journal only real insertions and the set cannot grow
  /// unboundedly across counterfactual rounds).
  bool insertMaybeAbsent(StringId Name) { return sortedInsert(MaybeAbsent, Name); }
  bool insertMaybePresent(StringId Name) {
    return sortedInsert(MaybePresent, Name);
  }

  /// Removes from the sorted sets (journal undo).
  void eraseMaybeAbsent(StringId Name) { sortedErase(MaybeAbsent, Name); }
  void eraseMaybePresent(StringId Name) { sortedErase(MaybePresent, Name); }

  /// Generation of the innermost snapshot frame that already holds a
  /// pre-image of this object (copy-on-write stamp); 0 = never saved. See
  /// Heap::ensureSaved.
  uint32_t SaveGen = 0;

  bool has(StringId Name) const { return Props.count(Name) != 0; }

  /// Returns the slot for \p Name, or null if absent (prototype chain is the
  /// interpreter's job, not the object's).
  const Slot *get(StringId Name) const {
    auto It = Props.find(Name);
    return It == Props.end() ? nullptr : &It->second;
  }

  Slot *get(StringId Name) {
    auto It = Props.find(Name);
    return It == Props.end() ? nullptr : &It->second;
  }

  /// Creates or overwrites the slot for \p Name, maintaining insertion order.
  void set(StringId Name, Slot S) {
    auto [It, Inserted] = Props.try_emplace(Name, S);
    if (Inserted)
      Order.push_back(Name);
    else
      It->second = S;
  }

  /// Removes a property; returns true if it existed. The insertion-order
  /// entry is removed too, so a later reinsertion appends at the end —
  /// matching JavaScript enumeration semantics.
  bool erase(StringId Name) {
    auto It = Props.find(Name);
    if (It == Props.end())
      return false;
    Props.erase(It);
    Order.erase(std::find(Order.begin(), Order.end(), Name));
    return true;
  }

  /// Own enumerable property names in insertion order. `erase` keeps Order
  /// consistent with Props, so this is a straight copy.
  std::vector<StringId> ownKeys() const { return Order; }

  /// Insertion-order keys without copying (hot-path iteration).
  const std::vector<StringId> &orderedKeys() const { return Order; }

  size_t propertyCount() const { return Props.size(); }

  /// Iteration support for analyses that need every slot.
  const std::unordered_map<StringId, Slot> &slots() const { return Props; }
  std::unordered_map<StringId, Slot> &slots() { return Props; }

private:
  static bool sortedInsert(SmallVec<StringId, 4> &Set, StringId Name) {
    auto It = std::lower_bound(Set.begin(), Set.end(), Name);
    if (It != Set.end() && *It == Name)
      return false;
    Set.insert(It, Name);
    return true;
  }

  static void sortedErase(SmallVec<StringId, 4> &Set, StringId Name) {
    auto It = std::lower_bound(Set.begin(), Set.end(), Name);
    if (It != Set.end() && *It == Name)
      Set.erase(It);
  }

  std::unordered_map<StringId, Slot> Props;
  std::vector<StringId> Order;
};

/// The heap: an append-only arena of objects (no GC; analysis runs are short,
/// matching the paper's focus on initialization phases).
class Heap {
public:
  Heap() { Objects.push(); } // Index 0 is the invalid object.
  // Move-only: nothing needs a second copy of a live heap.
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;
  Heap(Heap &&) = default;
  Heap &operator=(Heap &&) = default;

  /// Attaches a budget governor (not owned; may be null). Interpreters set
  /// this *after* installing builtins so that only program-driven
  /// allocations count against the heap-cell budget. Allocation itself
  /// never fails: an over-budget cell latches a trip in the governor, which
  /// the interpreter observes at its next step checkpoint.
  void setGovernor(ResourceGovernor *G) { Gov = G; }

  ObjectRef allocate(ObjectClass Class, NodeID AllocSite = 0) {
    if (Gov)
      Gov->noteHeapCell();
    JSObject &O = Objects.push();
    O.Class = Class;
    O.AllocSite = AllocSite;
    return static_cast<ObjectRef>(Objects.size() - 1);
  }

  JSObject &get(ObjectRef Ref) {
    assert(Ref != 0 && Ref < Objects.size() && "invalid object reference");
    return Objects[Ref];
  }

  const JSObject &get(ObjectRef Ref) const {
    assert(Ref != 0 && Ref < Objects.size() && "invalid object reference");
    return Objects[Ref];
  }

  size_t size() const { return Objects.size() - 1; }

  /// Iterates all live objects (used by whole-heap checks in tests and the
  /// naive-flush ablation benchmark).
  template <typename Fn> void forEach(Fn F) {
    for (size_t I = 1; I < Objects.size(); ++I)
      F(static_cast<ObjectRef>(I), Objects[I]);
  }

  // --- Copy-on-write snapshots -------------------------------------------
  //
  // A snapshot frame is an O(1) fork point: beginSnapshot() records nothing
  // but a fresh generation number. The first mutation of each object after
  // the fork (the interpreter's write barrier calls ensureSaved) copies that
  // object's pre-image into the frame and stamps the live object with the
  // frame's generation so later writes are free. restoreSnapshot() assigns
  // the pre-images back in reverse save order — undo cost is O(objects
  // *touched* in the branch), independent of how many writes each received.
  // Frames nest: an inner frame's pre-image copy carries the object's outer
  // SaveGen stamp, so restoring the inner frame re-establishes the outer
  // frame's saved-status exactly.

  /// Opens a snapshot frame. \p Charged frames bill each pre-image copy to
  /// the governor's heap-cell budget (counterfactual branches; see
  /// ResourceGovernor::noteCowSave); the uncharged base frame does not.
  void beginSnapshot(bool Charged) {
    Snapshots.push_back(SnapshotFrame{++SnapGen, Charged, {}});
  }

  /// Write barrier: copies \p Ref's pre-image into the innermost snapshot
  /// frame unless it is already saved there. No-op when no frame is open.
  void ensureSaved(ObjectRef Ref) {
    if (Snapshots.empty())
      return;
    SnapshotFrame &F = Snapshots.back();
    JSObject &O = Objects[Ref];
    if (O.SaveGen == F.Gen)
      return;
    F.Saved.emplace_back(Ref, O);
    O.SaveGen = F.Gen;
    ++CowSaveCount;
    if (F.Charged && Gov)
      Gov->noteCowSave();
  }

  /// Undoes every write made since the innermost frame opened by assigning
  /// the pre-images back in reverse save order.
  void restoreSnapshot() {
    assert(!Snapshots.empty() && "no snapshot frame to restore");
    SnapshotFrame &F = Snapshots.back();
    for (auto It = F.Saved.rbegin(); It != F.Saved.rend(); ++It)
      Objects[It->first] = std::move(It->second);
    Snapshots.pop_back();
  }

  size_t snapshotDepth() const { return Snapshots.size(); }
  uint64_t cowSaves() const { return CowSaveCount; }

private:
  struct SnapshotFrame {
    uint32_t Gen;
    bool Charged;
    std::vector<std::pair<ObjectRef, JSObject>> Saved;
  };

  // Chunked arena: object references handed out as JSObject& stay valid
  // across later allocations (chunks never move), and chunks are sized in
  // objects rather than libstdc++'s 512-byte deque blocks.
  ChunkedArena<JSObject> Objects;
  ResourceGovernor *Gov = nullptr;
  std::vector<SnapshotFrame> Snapshots;
  uint32_t SnapGen = 0;
  uint64_t CowSaveCount = 0;
};

} // namespace dda

#endif // DDA_INTERP_HEAP_H
