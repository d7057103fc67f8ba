//===- EditSession.cpp - Incremental re-analysis under an edit loop --------==//
///
/// \file
/// Workload `edit_session`: a closed loop on one thread. A session is one
/// library (miniquery 1.0-1.3 or a generated library, in a seeded order
/// that visits every library equally often) plus a small app tail:
///
///  * the first version is analyzed cold on an empty FactStore in a fresh
///    directory (capture plus commit);
///  * then EditsPerSession one-statement edits follow, most of them in the
///    tail and some inserting a statement inside the library, so the
///    replayed prefix varies; each version is re-analyzed on the warm
///    store and committed;
///  * every version is also analyzed once with incremental off, as the
///    control, and must match it in fingerprint, output and exit code;
///  * finally the store is reopened from disk, as a restarted client would.
///
/// It is the only workload where capture (writes) and replay (reads) of
/// the incremental layer run side by side. It uses library code because a
/// synthetic loop corpus shows cold and edit ratios far from what library
/// code shows. op is one edit, op2 the cold first analysis of a session;
/// the libraries differ in cost by an order of magnitude, so each metric
/// is a geometric mean over libraries of the library's own percentile (base
/// BasePercentile, tail p90).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "determinacy/Determinacy.h"
#include "incremental/FactStore.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dda;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

constexpr unsigned EditsPerSession = 6;
/// Edits per session that insert into the library; the rest edit the tail.
constexpr unsigned LibraryEditsPerSession = 2;
constexpr unsigned GeneratedLibraries = 4;

struct Library {
  std::string Name;
  std::string Source;
};

/// What an incremental run must share with its control.
std::string outcome(const AnalysisResult &A) {
  return std::to_string(serve::factFingerprint(A)) + "/" +
         std::to_string(serve::analysisExitCode(A)) + "/" + A.Output;
}

/// Inserts \p Stmt as a line of its own before line \p Line (1-based).
std::string insertBeforeLine(const std::string &Source, uint32_t Line,
                             const std::string &Stmt) {
  size_t Pos = 0;
  for (uint32_t L = 1; L < Line && Pos < Source.size(); ++L) {
    size_t NL = Source.find('\n', Pos);
    Pos = NL == std::string::npos ? Source.size() : NL + 1;
  }
  return Source.substr(0, Pos) + Stmt + "\n" + Source.substr(Pos);
}

size_t topLevelCount(const std::string &Source, std::vector<uint32_t> *Lines) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  if (Diags.hasErrors())
    return 0;
  if (Lines)
    for (const Stmt *S : P.Body)
      Lines->push_back(S->getLine());
  return P.Body.size();
}

/// Per-run tallies behind the metrics.
struct Tally {
  KeyedTimes ColdMs, EditMs; ///< Keyed by library.
  std::vector<double> OffMs, ColdTax, EditSpeedup;
  KeyedTimes TracedEditMs, UntracedEditMs;
  DeterminacyCounts Det;
  uint64_t Parses = 0, Nodes = 0;
  uint64_t Edits = 0, Regions = 0, Replays = 0, Stored = 0, ReplayedFacts = 0;
  uint64_t Sessions = 0, StoreBytes = 0;
};

class SessionRunner {
public:
  SessionRunner(const RunConfig &C, Report &R, Rng &Rand)
      : C(C), R(R), Rand(Rand) {}

  /// Runs one whole session on \p Lib. \p T is null for untraced sessions.
  void run(const Library &Lib, uint64_t Id, Tracer *T, Tally &S) {
    this->T = T;
    Scoped Span(T, "session", Id);
    fs::path Dir = fs::path(C.WorkDir) / ("store-" + std::to_string(Id));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    {
      FactStore Store;
      std::string Err;
      if (!Store.open(Dir.string(), Err))
        throw std::runtime_error("cannot open fact store: " + Err);

      std::string LibSource = Lib.Source;
      uint64_t TailK = Rand.below(1000);
      std::string Source = LibSource + appTail(TailK);
      double ColdMs = 0;
      AnalysisResult Cold = analyze(Source, &Store, "cold", ++Op, ColdMs, S);
      double OffMs = 0;
      AnalysisResult Off = analyze(Source, nullptr, "control", Op, OffMs, S);
      check(Lib, Cold, Off, "cold");
      S.ColdMs.add(Lib.Name, ColdMs);
      S.OffMs.push_back(OffMs);
      S.ColdTax.push_back(ColdMs / OffMs);

      // A fixed number of library edits per session, at seeded positions,
      // keeps the mix of edit kinds the same in every run.
      std::vector<char> LibraryEdit(EditsPerSession, 0);
      for (unsigned E = 0; E < LibraryEditsPerSession; ++E)
        LibraryEdit[E] = 1;
      Rand.shuffle(LibraryEdit);
      for (unsigned E = 0; E < EditsPerSession; ++E) {
        if (LibraryEdit[E])
          LibSource = editLibrary(LibSource);
        else
          TailK = (TailK + 1 + Rand.below(998)) % 1000;
        Source = LibSource + appTail(TailK);
        double EditMs = 0;
        AnalysisResult Edit =
            analyze(Source, &Store, "edit", ++Op, EditMs, S);
        AnalysisResult Control =
            analyze(Source, nullptr, "control", Op, OffMs, S);
        check(Lib, Edit, Control, "edit");
        S.EditMs.add(Lib.Name, EditMs);
        (T ? S.TracedEditMs : S.UntracedEditMs).add(Lib.Name, EditMs);
        S.OffMs.push_back(OffMs);
        S.EditSpeedup.push_back(OffMs / EditMs);
        ++S.Edits;
        S.Regions += Edit.Stats.IncrementalRegions;
        S.Replays += Edit.Stats.IncrementalReplays;
        S.Stored += Edit.Stats.SummariesStored;
        S.ReplayedFacts += Edit.Stats.ReplayedFacts;
      }
    }
    // A restarted client reopens the session's store from disk.
    {
      Scoped Open(T, "factstore.open", Op);
      FactStore Reopened;
      std::string Err;
      if (!Reopened.open(Dir.string(), Err))
        R.fail(Lib.Name + ": cannot reopen fact store: " + Err, false);
    }
    ++S.Sessions;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.is_regular_file())
        S.StoreBytes += E.file_size();
    fs::remove_all(Dir);
  }

private:
  /// Parses and analyzes \p Source, with the incremental layer on \p Store
  /// (then committing) or off when \p Store is null; \p Ms is the op time.
  AnalysisResult analyze(const std::string &Source, FactStore *Store,
                         const char *OpName, uint64_t OpId, double &Ms,
                         Tally &S) {
    Clock::time_point T0 = Clock::now();
    Scoped Span(T, OpName, OpId);
    Program P;
    {
      Scoped Parse(T, "parser", OpId);
      DiagnosticEngine Diags;
      P = parseProgram(Source, Diags);
    }
    if (T) {
      ++S.Parses;
      S.Nodes += P.Context->nodeCount();
    }
    AnalysisOptions Opts;
    AnalysisResult A;
    if (Store) {
      Opts.Incremental = IncrementalMode::On;
      Opts.Store = Store;
      {
        Scoped Run(T, "incremental", OpId);
        A = runDeterminacyAnalysis(P, Opts);
      }
      Scoped Commit(T, "factstore.commit", OpId);
      std::string Err;
      if (!Store->commit(Err))
        R.fail(std::string(OpName) + ": commit failed: " + Err, false);
    } else {
      {
        Scoped Run(T, "determinacy", OpId);
        A = runDeterminacyAnalysis(P, Opts);
      }
      if (T)
        S.Det.add(A);
    }
    Ms = msBetween(T0, Clock::now());
    return A;
  }

  void check(const Library &Lib, const AnalysisResult &Inc,
             const AnalysisResult &Control, const char *What) {
    ++R.Attempted;
    if (outcome(Inc) != outcome(Control))
      R.fail(Lib.Name + " " + What + " " + std::to_string(Op) +
                 ": incremental result differs from the control",
             /*WrongOutput=*/true);
  }

  /// Inserts one print statement before a random top-level statement.
  std::string editLibrary(const std::string &LibSource) {
    std::vector<uint32_t> Lines;
    size_t Before = topLevelCount(LibSource, &Lines);
    uint32_t Line = Lines.empty() ? 1 : Lines[Rand.below(Lines.size())];
    std::string Edited = insertBeforeLine(
        LibSource, Line,
        "print(\"edit " + std::to_string(Rand.below(1000)) + "\");");
    // A line that starts inside a multi-line statement is no statement
    // boundary; keep the library unchanged then.
    if (topLevelCount(Edited, nullptr) != Before + 1)
      return LibSource;
    return Edited;
  }

  const RunConfig &C;
  Report &R;
  Rng &Rand;
  Tracer *T = nullptr;
  uint64_t Op = 0;
};

/// Miniquery 1.0-1.3 plus the first generated libraries that analyze
/// cleanly. The libraries are the same for every workload seed, so every
/// run offers the same mix of library sizes; the seed picks the order, the
/// tails and the edits.
std::vector<Library> buildLibraries() {
  std::vector<Library> Libs;
  for (int Minor = 0; Minor < 4; ++Minor)
    Libs.push_back({"miniquery 1." + std::to_string(Minor),
                    workloads::miniquery(Minor)});
  workloads::GeneratorOptions Gen;
  Gen.TopLevelStmts = 40;
  Gen.MaxFunctions = 8;
  for (uint64_t Seed = 0; Libs.size() < 4 + GeneratedLibraries; ++Seed) {
    std::string Source = workloads::generateProgram(Seed, Gen);
    DiagnosticEngine Diags;
    Program P = parseProgram(Source, Diags);
    if (Diags.hasErrors())
      continue;
    AnalysisResult A = runDeterminacyAnalysis(P, AnalysisOptions());
    if (A.Ok && A.Trap == TrapKind::None)
      Libs.push_back({"generated " + std::to_string(Seed), Source});
  }
  return Libs;
}

} // namespace

void runEditSession(const RunConfig &C, Report &R) {
  Rng Rand(C.Seed);
  std::vector<Library> Libs;
  uint64_t SessionId = 0;
  double SetupS = timedSetup([&] {
    Rand = Rng(C.Seed);
    Libs = buildLibraries();
    // First-touch warm-up: one verified session per library before timing.
    Tally Warm;
    SessionRunner Runner(C, R, Rand);
    for (const Library &Lib : Libs)
      Runner.run(Lib, ++SessionId, nullptr, Warm);
  });

  Tracer T;
  Tally S;
  SessionRunner Runner(C, R, Rand);
  std::vector<size_t> Order(Libs.size());
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(C.Seconds));
  for (uint64_t Cycle = 0; Clock::now() < Deadline; ++Cycle) {
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    Rand.shuffle(Order);
    // Traced runs trace every other cycle of libraries, so both halves see
    // every library and the untraced half measures what tracing costs.
    Tracer *Trace = C.Trace && Cycle % 2 == 0 ? &T : nullptr;
    for (size_t I : Order) {
      if (Clock::now() >= Deadline)
        break;
      Runner.run(Libs[I], ++SessionId, Trace, S);
    }
  }

  if (!C.Trace) {
    addEndToEnd(R, SetupS, S.EditMs.geomean(BasePercentile),
                S.ColdMs.geomean(BasePercentile));
    return;
  }
  TraceView V(T);
  reportParser(R, V, S.Nodes, S.Parses);
  V.addLayer(R, "determinacy");
  S.Det.report(R, V.selfMs("determinacy"));
  // The incremental layer's share includes the commits of its fact store.
  V.addLayer(R, "incremental", "", {"factstore.commit", "factstore.open"});
  R.add("incremental.off_ms", median(S.OffMs), "ms");
  R.add("incremental.cold_tax", median(S.ColdTax), "ratio");
  R.add("incremental.edit_speedup", median(S.EditSpeedup), "ratio");
  R.add("incremental.regions", per(S.Regions, S.Edits), "count");
  R.add("incremental.replays", per(S.Replays, S.Edits), "count");
  R.add("incremental.replay_frac", per(S.Replays, S.Regions), "ratio");
  R.add("incremental.summaries_stored", per(S.Stored, S.Edits), "count");
  R.add("incremental.replayed_facts", per(S.ReplayedFacts, S.Edits), "count");
  R.add("factstore.commit_ms", V.meanMs("factstore.commit"), "ms");
  R.add("factstore.open_ms", V.meanMs("factstore.open"), "ms");
  R.add("factstore.bytes", per(S.StoreBytes, S.Sessions), "B");
  R.add("op_ms.tail", S.UntracedEditMs.geomean(90), "ms");
  V.addSummary(R, {"session", "cold", "edit", "control"},
               S.TracedEditMs.geomean(50), S.UntracedEditMs.geomean(50));
  writeTrace(C, T);
}

} // namespace perfbench
