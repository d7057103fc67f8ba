//===- Determinacy.h - Dynamic determinacy analysis (public API) -*- C++ -*-==//
///
/// \file
/// Entry point for the dynamic determinacy analysis of Schäfer, Sridharan,
/// Dolby & Tip, "Dynamic Determinacy Analysis" (PLDI 2013). One call to
/// runDeterminacyAnalysis executes the program once under the instrumented
/// semantics (paper Figure 9) and returns a database of determinacy facts
/// that hold for *every* execution (Theorem 1), along with the calling
/// context table and analysis statistics.
///
/// \code
///   Program P = parseProgram(Source, Diags);
///   AnalysisResult R = runDeterminacyAnalysis(P, AnalysisOptions());
///   const FactValue *F = R.Facts.condition(IfNodeID, Ctx);
///   if (F && F->isBooleanFalse())
///     ...branch is dead under Ctx in all executions...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DDA_DETERMINACY_DETERMINACY_H
#define DDA_DETERMINACY_DETERMINACY_H

#include "ast/ASTContext.h"
#include "determinacy/Context.h"
#include "determinacy/Facts.h"
#include "support/BitSet.h"
#include "support/ResourceGovernor.h"

#include <string>
#include <string_view>

namespace dda {

class FactStore;
class FaultInjector;

/// Whether (and how) the interpreter reuses persisted region summaries.
enum class IncrementalMode : uint8_t {
  Off, ///< Execute everything; neither read nor write the store.
  On,  ///< Replay matching regions from the store, capture the rest.
  /// Belt-and-braces validation: on a store hit, execute the region anyway
  /// and assert the captured effect is byte-identical to the stored one.
  /// A mismatch (a hash collision, a corrupted-but-checksum-valid record,
  /// or a nondeterminism bug) is an internal error — exit code 4.
  Strict,
};

/// The expression engine. The tree-walk is the only one; the type and
/// AnalysisOptions::Engine remain for callers that still pass the field to
/// serve::analysisPayloadJson.
enum class ExecEngine : uint8_t { TreeWalk };

/// How the instrumented interpreter undoes the writes of a counterfactual
/// branch (paper rule ĈNTR).
enum class UndoEngine : uint8_t {
  /// Copy-on-write arena snapshots: O(1) fork, first write of each touched
  /// object/environment copies its pre-image, undo restores the copies.
  /// Undo cost is O(locations touched), independent of write count. The
  /// write journal still runs (it is the vd/pd marking log) but skips
  /// capturing pre-images.
  Snapshot,
  /// Reference engine: the journal captures pre-images and undo is a
  /// reverse replay, O(writes in branch). Kept selectable (`--undo
  /// journal`) as the differential oracle for the snapshot path.
  Journal,
};

/// Configuration of an instrumented run.
struct AnalysisOptions {
  uint64_t RandomSeed = 1; ///< Concrete seed for Math.random.
  uint64_t DomSeed = 1;    ///< Concrete seed for synthetic DOM content.
  ExecEngine Engine = ExecEngine::TreeWalk; ///< The only value; see ExecEngine.
  uint64_t MaxSteps = 50'000'000;
  uint64_t DeadlineMs = 0;   ///< Wall-clock budget for the run; 0 = none.
  uint64_t MaxHeapCells = 0; ///< Heap-cell budget; 0 = unlimited.
  unsigned MaxCallDepth = 600;
  unsigned MaxEvalDepth = 64; ///< Nested eval budget; 0 = unlimited.

  /// Total counterfactual-execution fuel for the whole run; exhaustion
  /// degrades each further indeterminate-false branch via ĈNTRABORT.
  /// 0 = unlimited.
  uint64_t CounterfactualFuel = 0;

  /// Optional deterministic fault injector (not owned; may be null). Used
  /// by tests and `ddajs --inject-fault` to trip any budget at a chosen
  /// checkpoint. The parallel engine clones it per task, so each worker's
  /// checkpoint counters — and its trip — are its own.
  FaultInjector *Injector = nullptr;

  /// Arena receiving AST nodes parsed at runtime by `eval` (not owned; may
  /// be null). When null they splice into the program's own context — the
  /// single-run default. The parallel engine points each worker at a
  /// private overlay context based at the program's nextID, so concurrent
  /// seeds never mutate the shared AST and eval'd code gets deterministic
  /// NodeIDs regardless of thread count.
  ASTContext *EvalContext = nullptr;

  /// Paper's `k`: maximum nesting depth of counterfactual executions; deeper
  /// nests short-circuit via the ĈNTRABORT rule.
  unsigned CounterfactualDepth = 4;

  /// The paper stops the dynamic analysis after 1000 heap flushes "since at
  /// this point it is unlikely to detect new determinacy facts".
  unsigned FlushLimit = 1000;

  /// Section 5.1's (unsound) determinate-DOM assumption: DOM properties and
  /// DOM native results are treated as determinate.
  bool DeterminateDom = false;

  bool RunEventHandlers = true;

  /// Ablation: disable counterfactual execution entirely; indeterminate-false
  /// branches fall back to ĈNTRABORT (flush + static taint).
  bool CounterfactualEnabled = true;

  /// Ablation: classic dynamic-information-flow marking — values written
  /// under an indeterminate conditional are tainted *immediately* rather
  /// than after the branch completes (Section 6, Information Flow Analysis).
  bool StrictTaint = false;

  /// Record an Expression fact for every expression evaluation (heavier;
  /// used by tests and the quickstart example).
  bool RecordAllExpressions = false;

  /// Branch-undo machinery; Snapshot is the default hot path, Journal the
  /// reference oracle. Facts, coverage, and every fingerprinted statistic
  /// are byte-identical between the two.
  UndoEngine Undo = UndoEngine::Snapshot;

  /// Incremental re-analysis (`--incremental`): replay top-level regions
  /// whose (statement key, reaching-state fingerprint, option fingerprint)
  /// match a summary in Store, and capture fresh summaries for the rest.
  /// Requires Store; ignored (fully off) when Store is null or a fault
  /// injector is attached (replay would shift the injector's deterministic
  /// checkpoint ordinals).
  IncrementalMode Incremental = IncrementalMode::Off;

  /// Persistent region-summary store (not owned; may be null). Shared by
  /// every seed task and serve request — FactStore is internally
  /// thread-safe.
  FactStore *Store = nullptr;

  GovernorLimits governorLimits() const {
    GovernorLimits L;
    L.MaxSteps = MaxSteps;
    L.DeadlineMs = DeadlineMs;
    L.MaxHeapCells = MaxHeapCells;
    L.MaxCallDepth = MaxCallDepth;
    L.CfFuel = CounterfactualFuel;
    L.MaxEvalDepth = MaxEvalDepth;
    return L;
  }
};

/// Counters describing what the instrumented run did.
struct AnalysisStats {
  uint64_t HeapFlushes = 0;
  uint64_t Counterfactuals = 0;       ///< ĈNTR activations.
  uint64_t CounterfactualAborts = 0;  ///< ĈNTRABORT activations.
  uint64_t JournalEntries = 0;
  uint64_t StepsUsed = 0;
  // Snapshot-engine observability. These describe *how* undo was done, not
  // *what* the analysis concluded, so they are excluded from the
  // fact-fingerprint parity contract (they legitimately differ between
  // undo engines).
  uint64_t SnapshotForks = 0;         ///< COW snapshot frames opened.
  uint64_t CowCopies = 0;             ///< Object/environment pre-images saved.
  // Incremental-replay observability. Same contract as the snapshot
  // counters: mechanism, not conclusions — excluded from fact fingerprints
  // (a warm run replays instead of executing, but produces byte-identical
  // facts, output, and governor totals).
  uint64_t IncrementalRegions = 0; ///< Top-level regions considered.
  uint64_t IncrementalReplays = 0; ///< Regions warm-started from the store.
  uint64_t ReplayedFacts = 0;      ///< Facts re-recorded from summaries.
  uint64_t SummariesStored = 0;    ///< Fresh summaries captured this run.
  bool FlushLimitHit = false;
};

/// Everything an instrumented run produces.
///
/// A run that trips a resource budget still returns `Ok = true` with
/// *partial-but-sound* facts: the analysis degrades through the ĈNTRABORT
/// machinery (abort in-flight counterfactuals, flush the heap, taint the
/// variable domain) instead of failing, and `Degradation` records what
/// happened. `Ok = false` is reserved for conditions that invalidate the
/// run entirely: parse/internal errors or an uncaught program exception.
struct AnalysisResult {
  bool Ok = false;
  std::string Error;
  std::string Output; ///< Console output of the (real) execution.

  /// TrapKind::None for a clean in-budget run; a resource trap kind when
  /// the run was cut short but soundly degraded; InternalError when Ok is
  /// false because of an interpreter bug.
  TrapKind Trap = TrapKind::None;
  /// Structured account of budget trips and the weakenings they caused.
  DegradationReport Degradation;

  FactDB Facts;
  ContextTable Contexts;
  AnalysisStats Stats;

  /// Call expressions that actually executed (non-counterfactually) — used
  /// by the eval-elimination client to classify "not covered" sites.
  /// Dense bitset; iteration is in ascending NodeID order.
  NodeBitSet ExecutedCalls;
  /// Statements that actually executed (non-counterfactually).
  NodeBitSet ExecutedStmts;
};

/// Fingerprint of every analysis option that can change what a run
/// concludes — the one definition of "same options" shared by the serve
/// result cache, the batch driver, and FactStore summary keys. RandomSeed
/// is deliberately excluded (callers fold the seed per run or per seed
/// list); IncrementalMode and the Store pointer are excluded because
/// replay-vs-execute must not change results. InjectorSpec is the textual
/// form of the fault injector ("" = none).
uint64_t optionVectorFingerprint(const AnalysisOptions &Opts,
                                 std::string_view InjectorSpec = {});

/// Runs the program once under the instrumented semantics.
AnalysisResult runDeterminacyAnalysis(Program &P,
                                      const AnalysisOptions &Opts = {});

/// Runs the analysis under several Math.random seeds and merges the fact
/// databases ("running the determinacy analysis on different inputs yields
/// more facts, which are all sound and hence can be used together").
AnalysisResult runDeterminacyAnalysisMultiSeed(
    Program &P, const AnalysisOptions &Opts,
    const std::vector<uint64_t> &Seeds);

} // namespace dda

#endif // DDA_DETERMINACY_DETERMINACY_H
