//===- Common.h - Shared benchmark plumbing ----------------------*- C++ -*-==//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the clock,
/// percentile helpers, the seeded input generator, the metric report, the
/// span tracer, and the layer counters read from public result structs.
/// The runner measures each layer only from outside, around the public
/// entry points it calls, so everything here lives in the benchmark's own
/// files.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_PERFBENCH_COMMON_H
#define DDA_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dda {
struct AnalysisResult;
} // namespace dda

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// Parsed command line of one benchmark run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for per-run files (fact stores, the span dump), inside the
  /// checkout. Workloads remove the fact stores they create there.
  std::string WorkDir;
};

/// Nearest-rank percentile (P in [0, 100]) of \p V; 0 for an empty sample.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

/// Seeded generator behind every input choice (splitmix64): the same seed
/// gives the same corpus order, edit script, and arrival schedule.
class Rng {
public:
  /// Seeds are mixed first, so nearby seeds give unrelated streams.
  explicit Rng(uint64_t Seed) : State(mix(Seed ^ 0x6A09E667F3BCC909ull)) {}
  uint64_t next() { return mix(State += 0x9E3779B97F4A7C15ull); }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  static uint64_t mix(uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t State;
};

/// The metrics one run prints, in insertion order, plus the outcome
/// counters of the final result line.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);

  /// Records a failed op. \p WrongOutput marks a result that disagreed
  /// with its reference, as opposed to an error or a missing response.
  /// The first few reasons go to stderr.
  void fail(const std::string &Why, bool WrongOutput);

  /// The result line: {"correct","attempted","failed","metrics"}.
  std::string json() const;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
  unsigned Logged = 0;
};

/// In-memory span recorder. A span names the layer a public call belongs
/// to; its parent is the span open around it, and every span carries the
/// id of the op (pass, request, edit) it serves. Nothing is written until
/// the run ends.
class Tracer {
public:
  static constexpr uint32_t None = ~0u;

  /// Opens a span under the innermost open span; returns its index.
  uint32_t begin(const char *Name, uint64_t Op);
  void end(uint32_t Id);
  /// Adds a closed span with explicit bounds under \p Parent, for
  /// intervals measured elsewhere (such as the server-reported time).
  uint32_t add(const char *Name, uint64_t Op, uint32_t Parent,
               Clock::time_point Start, Clock::time_point End);

  struct Layer {
    double SelfMs = 0;
    uint64_t Calls = 0;
  };
  /// Per span name: total self time (each span's duration minus the union
  /// of its children's intervals) and the number of spans.
  std::map<std::string, Layer> selfTimes() const;
  /// Number and total duration (ms) of the root spans.
  size_t roots() const;
  double rootMs() const;
  size_t size() const { return Spans.size(); }

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t Op;
    uint32_t Parent;
    Clock::time_point Start, End;
  };
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

/// RAII span; a no-op when \p T is null (untraced runs and untraced ops).
class Scoped {
public:
  Scoped(Tracer *T, const char *Name, uint64_t Op)
      : T(T), Id(T ? T->begin(Name, Op) : Tracer::None) {}
  ~Scoped() {
    if (T)
      T->end(Id);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer *T;
  uint32_t Id;
};

/// \p Sum / \p N, or 0 when nothing was counted.
inline double per(uint64_t Sum, uint64_t N) {
  return N ? double(Sum) / double(N) : 0.0;
}

/// Self times of a finished trace, for the per-layer report.
class TraceView {
public:
  explicit TraceView(const Tracer &T)
      : Self(T.selfTimes()), Roots(T.roots()), RootMs(T.rootMs()) {}

  /// Total self time of the spans named \p Name.
  double selfMs(const std::string &Name) const;
  /// Mean self time per span named \p Name.
  double meanMs(const std::string &Name) const;

  /// Reports \p Layer's mean self time per call as \p MsName (default
  /// `<layer>.ms`) and, as `<layer>.share`, the share of all root-span time
  /// taken by its spans and by those named in \p AlsoSpans.
  void addLayer(Report &R, const std::string &Layer,
                const std::string &MsName = "",
                const std::vector<std::string> &AlsoSpans = {}) const;

  /// Reports the runner's own cost (`bench.self_ms` per root span, from
  /// the self time of the spans named in \p OwnSpans) and
  /// `trace.overhead_pct`: traced runs trace every other op, and this is
  /// the relative difference between the typical traced and untraced op
  /// times.
  void addSummary(Report &R, const std::vector<std::string> &OwnSpans,
                  double TracedMs, double UntracedMs) const;

private:
  std::map<std::string, Tracer::Layer> Self;
  size_t Roots;
  double RootMs;
};

/// Reports the parser layer: `parser.ms` and `parser.share` from the
/// trace, `parser.nodes` per parse and `parser.nodes_per_ms`.
void reportParser(Report &R, const TraceView &V, uint64_t Nodes,
                  uint64_t Parses);

/// A small app tail to append to a library: distinct \p K give distinct
/// programs that share the whole library.
std::string appTail(uint64_t K);

/// Determinacy-layer counts summed over analysis runs, read from the
/// public AnalysisResult.
struct DeterminacyCounts {
  uint64_t Runs = 0, Steps = 0, Flushes = 0, Counterfactuals = 0,
           CfAborts = 0, JournalEntries = 0, SnapshotForks = 0,
           CowCopies = 0, HeapCells = 0, Facts = 0, Determinate = 0;

  void add(const dda::AnalysisResult &A);
  void add(const DeterminacyCounts &O);
  /// Reports every `determinacy.*` count as a mean per run, and
  /// `determinacy.steps_per_ms` against \p SelfMs, the layer's traced self
  /// time (0 where the layer runs out of the runner's sight).
  void report(Report &R, double SelfMs) const;
};

/// The base time of a closed loop's op is this percentile of the run's ops.
/// Neighbours on the host slow a thread by up to 1.5x in bursts of seconds,
/// and a run's median moves with the share of the run they cover; the
/// fastest ops stay put across processes, and the 10th percentile is the
/// fastest that does not hang on a handful of samples.
constexpr double BasePercentile = 10;

/// Op times grouped by what the op ran on (a Table 1 cell, a library).
/// Where ops differ widely in cost, a percentile over the whole mix lands
/// between the clusters of different keys and jumps with the mix a run
/// happens to complete; the geometric mean over keys of each key's own
/// percentile weighs every key equally in every run.
class KeyedTimes {
public:
  void add(const std::string &Key, double Ms) { ByKey[Key].push_back(Ms); }
  /// Geometric mean over keys of each key's \p P-th percentile.
  double geomean(double P) const;
  /// "key p50" per key, for logs.
  std::string medians() const;

private:
  std::map<std::string, std::vector<double>> ByKey;
};

/// Runs \p Setup at least MinSetupReps times, and again until the
/// repetitions took MinSetupSeconds or MaxSetupReps is reached; returns the
/// median duration in seconds. A set-up of a tenth of a second is repeated
/// more often, so that its median does not hang on one burst of host
/// noise. Each repetition rebuilds the workload's whole state; the one
/// built last is the one measured.
constexpr unsigned MinSetupReps = 5, MaxSetupReps = 50;
constexpr double MinSetupSeconds = 5;
template <typename Fn> double timedSetup(Fn &&Setup) {
  std::vector<double> Secs;
  double Total = 0;
  while (Secs.size() < MinSetupReps ||
         (Total < MinSetupSeconds && Secs.size() < MaxSetupReps)) {
    Clock::time_point T0 = Clock::now();
    Setup();
    Secs.push_back(msBetween(T0, Clock::now()) / 1000.0);
    Total += Secs.back();
  }
  return median(Secs);
}

/// Reports the end-to-end metrics every workload shares: setup_s,
/// peak_rss_mb, op_ms.base and op2_ms.base. What op and op2 are, and which
/// percentile base is, differs per workload (rationale.json).
void addEndToEnd(Report &R, double SetupS, double OpBase, double Op2Base);

/// Writes the span dump into the run's work directory.
void writeTrace(const RunConfig &C, const Tracer &T);

// The three workloads. Each fills \p R with every end-to-end metric when
// tracing is off and with its per-layer metrics when tracing is on.
void runPaperPipeline(const RunConfig &C, Report &R);
void runServeMixed(const RunConfig &C, Report &R);
void runEditSession(const RunConfig &C, Report &R);

} // namespace perfbench

#endif // DDA_PERFBENCH_COMMON_H
