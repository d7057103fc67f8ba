//===- PaperPipeline.cpp - The paper's evaluation as a closed loop ---------==//
///
/// \file
/// Workload `paper_pipeline`: a closed loop on one thread. One op is one
/// pass over the paper's evaluation:
///
///  * the twelve Table 1 cells, miniquery 1.0-1.3 x {Baseline, Spec,
///    Spec+DetDOM}, each with its static half: points-to under a budget of
///    40,000 propagation steps, as in bench_table1;
///  * the Section 5.2 eval suite: all 28 programs through the unevalizer
///    baseline, and the 24 runnable ones through Spec and Spec+DetDOM.
///    These run runEvalElimination's pipeline step for step from the
///    runner (parse, points-to on the original program, analyze,
///    specialize, points-to on the residual program, site
///    classification), so each step is timed in its own layer; set-up
///    checks that the verdicts and site outcomes equal runEvalElimination's.
///
/// It is the only workload that runs the static clients, so a points-to or
/// specializer change shows here and nowhere else. op is one pass (base
/// BasePercentile, tail p90), op2 one Table 1 cell (the geometric mean over
/// the twelve cells of each cell's BasePercentile). The seed shuffles the
/// order of cells and programs in each pass; every verdict and flush count
/// is checked on every pass.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ast/ASTWalk.h"
#include "determinacy/Determinacy.h"
#include "evalelim/EvalElim.h"
#include "interp/Builtins.h"
#include "parser/Parser.h"
#include "pointsto/PointsTo.h"
#include "specialize/Specializer.h"
#include "workloads/Workloads.h"

#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace dda;

namespace perfbench {
namespace {

constexpr uint64_t Table1Budget = 40'000;

enum class Config : uint8_t { Baseline, Spec, SpecDetDom };

/// One Table 1 cell and its reference outcome, the "this implementation"
/// column of EXPERIMENTS.md. FlushLimit marks its ">1000" entries, whose
/// exact flush count is not part of the reference.
struct Cell {
  int Minor;
  Config Cfg;
  bool Completes;
  uint64_t Flushes;
  bool FlushLimit;
};

constexpr Cell Table1[] = {
    {0, Config::Baseline, false, 0, false},
    {0, Config::Spec, true, 82, false},
    {0, Config::SpecDetDom, true, 2, false},
    {1, Config::Baseline, false, 0, false},
    {1, Config::Spec, false, 623, false},
    {1, Config::SpecDetDom, true, 4, false},
    {2, Config::Baseline, true, 0, false},
    {2, Config::Spec, true, 0, true},
    {2, Config::SpecDetDom, true, 0, false},
    {3, Config::Baseline, false, 0, false},
    {3, Config::Spec, false, 0, true},
    {3, Config::SpecDetDom, false, 0, true},
};
constexpr size_t NumCells = sizeof(Table1) / sizeof(Table1[0]);

std::string cellName(const Cell &C) {
  static const char *const Names[] = {"Baseline", "Spec", "Spec+DetDOM"};
  return "miniquery 1." + std::to_string(C.Minor) + " " +
         Names[static_cast<int>(C.Cfg)];
}

/// Counts read at the layer boundaries of traced passes.
struct Counts {
  uint64_t Parses = 0, Nodes = 0;
  DeterminacyCounts Det;
  uint64_t Specializations = 0, ResidualNodes = 0, Clones = 0, Unrolled = 0,
           Staticized = 0, Pruned = 0, Spliced = 0;
  uint64_t PtRuns = 0, PtSteps = 0, PtCompleted = 0, CopyEdges = 0,
           ConstraintVars = 0;
  uint64_t Verdicts = 0, Handled = 0;
};

/// The state one pass runs under. T and K are null for untraced passes.
struct Pass {
  Tracer *T;
  Counts *K;
  uint64_t Op;
  std::vector<std::string> Mismatches;
};

bool parse(const std::string &Source, Program &P, Pass &X) {
  Scoped S(X.T, "parser", X.Op);
  DiagnosticEngine Diags;
  P = parseProgram(Source, Diags);
  if (Diags.hasErrors())
    return false;
  if (X.K) {
    ++X.K->Parses;
    X.K->Nodes += P.Context->nodeCount();
  }
  return true;
}

AnalysisResult analyze(Program &P, bool DetDom, Pass &X) {
  AnalysisOptions Opts;
  Opts.DeterminateDom = DetDom;
  AnalysisResult A;
  {
    Scoped S(X.T, "determinacy", X.Op);
    A = runDeterminacyAnalysis(P, Opts);
  }
  if (X.K)
    X.K->Det.add(A);
  return A;
}

SpecializeResult specialize(const Program &P, AnalysisResult &A, Pass &X) {
  SpecializeResult SR;
  {
    Scoped S(X.T, "specialize", X.Op);
    SR = specializeProgram(P, A);
  }
  if (Counts *K = X.K) {
    ++K->Specializations;
    K->ResidualNodes += SR.Residual.Context->nodeCount();
    K->Clones += SR.Report.FunctionClones;
    K->Unrolled += SR.Report.LoopsUnrolled;
    K->Staticized += SR.Report.PropertiesStaticized;
    K->Pruned += SR.Report.BranchesPruned;
    K->Spliced += SR.Report.EvalsSpliced;
  }
  return SR;
}

PointsToResult pointsTo(const Program &P, const PointsToOptions &Opts,
                        Pass &X) {
  PointsToResult PT;
  {
    Scoped S(X.T, "pointsto", X.Op);
    PT = runPointsToAnalysis(P, Opts);
  }
  if (Counts *K = X.K) {
    ++K->PtRuns;
    K->PtSteps += PT.PropagationSteps;
    K->PtCompleted += PT.Completed;
    K->CopyEdges += PT.NumCopyEdges;
    K->ConstraintVars += PT.NumConstraintVars;
  }
  return PT;
}

void runCell(const Cell &C, const std::string &Source, Pass &X) {
  Scoped S(X.T, "cell", X.Op);
  Program P;
  if (!parse(Source, P, X)) {
    X.Mismatches.push_back(cellName(C) + ": parse error");
    return;
  }
  PointsToOptions PTOpts;
  PTOpts.MaxPropagationSteps = Table1Budget;
  bool Completed = false;
  uint64_t Flushes = 0;
  bool LimitHit = false;
  if (C.Cfg == Config::Baseline) {
    Completed = pointsTo(P, PTOpts, X).Completed;
  } else {
    AnalysisResult A = analyze(P, C.Cfg == Config::SpecDetDom, X);
    Flushes = A.Stats.HeapFlushes;
    LimitHit = A.Stats.FlushLimitHit;
    SpecializeResult SR = specialize(P, A, X);
    Completed = pointsTo(SR.Residual, PTOpts, X).Completed;
  }
  if (Completed != C.Completes || LimitHit != C.FlushLimit ||
      (!C.FlushLimit && Flushes != C.Flushes))
    X.Mismatches.push_back(cellName(C) + ": completed=" +
                           std::to_string(Completed) + " flushes=" +
                           std::to_string(Flushes) +
                           (LimitHit ? " (limit)" : ""));
}

/// Outcome of each original eval site, as runEvalElimination classifies
/// it.
std::vector<EvalSiteInfo>
classifySites(const Program &P, const AnalysisResult &A,
              const SpecializeResult &SR, const std::set<NodeID> &Original,
              const std::unordered_set<NodeID> &StillReachable) {
  std::unordered_map<NodeID, uint32_t> Lines;
  walkProgram(P, [&](const Node *N) {
    Lines[N->getID()] = N->getLine();
    return true;
  });
  std::vector<EvalSiteInfo> Sites;
  for (NodeID Site : Original) {
    EvalSiteInfo Info;
    Info.Site = Site;
    auto Line = Lines.find(Site);
    Info.Line = Line == Lines.end() ? 0 : Line->second;
    if (SR.Report.SplicedEvalSites.count(Site)) {
      Info.Outcome = EvalOutcome::Eliminated;
    } else if (!StillReachable.count(Site)) {
      Info.Outcome = EvalOutcome::Unreachable;
    } else if (!A.ExecutedCalls.count(Site)) {
      Info.Outcome = EvalOutcome::NotCovered;
    } else {
      size_t Contexts = 0;
      bool CalleeIndet = false, ArgIndet = false;
      for (const auto &[Key, Val] : A.Facts.all()) {
        if (Key.Node != Site)
          continue;
        if (Key.Kind == FactKind::Callee) {
          ++Contexts;
          CalleeIndet |= !Val.isNative(NativeFn::Eval);
        }
        ArgIndet |= Key.Kind == FactKind::EvalArg && !Val.isDeterminate();
      }
      Info.Outcome = CalleeIndet   ? EvalOutcome::IndeterminateCallee
                     : Contexts > 1 ? EvalOutcome::LoopBound
                     : ArgIndet     ? EvalOutcome::IndeterminateArgument
                                    : EvalOutcome::NotCovered;
    }
    Sites.push_back(Info);
  }
  return Sites;
}

/// The eval-elimination pipeline, run as runEvalElimination runs it, step
/// for step, with each public call in its layer's span: points-to on the
/// original program for its eval sites, analysis, specialization,
/// points-to on the residual program, then the per-site classification.
/// Returns whether the residual program has no statically reachable eval
/// site; \p Sites receives each original site's outcome.
bool evalHandled(const std::string &Source, bool DetDom, Pass &X,
                 std::vector<EvalSiteInfo> &Sites) {
  Program P;
  if (!parse(Source, P, X))
    return false;
  std::set<NodeID> Original =
      pointsTo(P, PointsToOptions(), X).EvalMaybeCallSites;
  AnalysisResult A = analyze(P, DetDom, X);
  if (!A.Ok)
    return false;
  SpecializeResult SR = specialize(P, A, X);
  PointsToResult Residual = pointsTo(SR.Residual, PointsToOptions(), X);
  Scoped S(X.T, "evalelim.sites", X.Op);
  std::unordered_set<NodeID> StillReachable;
  for (NodeID Site : Residual.EvalMaybeCallSites) {
    auto It = SR.OriginOf.find(Site);
    StillReachable.insert(It == SR.OriginOf.end() ? Site : It->second);
  }
  Sites = classifySites(P, A, SR, Original, StillReachable);
  return StillReachable.empty();
}

/// Holds the pipeline above to runEvalElimination: the same verdict and
/// the same outcome for every site of every runnable suite program.
void checkEvalMirror(const std::vector<workloads::EvalBenchmark> &Suite,
                     Report &R) {
  for (const workloads::EvalBenchmark &B : Suite) {
    if (!B.Runnable || B.MissingCode)
      continue;
    for (bool DetDom : {false, true}) {
      Pass X{nullptr, nullptr, 0, {}};
      std::vector<EvalSiteInfo> Sites;
      bool Handled = evalHandled(B.Source, DetDom, X, Sites);
      EvalElimOptions Opts;
      Opts.DeterminateDom = DetDom;
      EvalElimResult Want = runEvalElimination(B.Source, Opts);
      bool Same = Handled == Want.Handled && Sites.size() == Want.Sites.size();
      for (size_t I = 0; Same && I < Sites.size(); ++I)
        Same = Sites[I].Site == Want.Sites[I].Site &&
               Sites[I].Line == Want.Sites[I].Line &&
               Sites[I].Outcome == Want.Sites[I].Outcome;
      ++R.Attempted;
      if (!Same)
        R.fail(std::string(B.Name) + (DetDom ? " Spec+DetDOM" : " Spec") +
                   ": the benchmark's eval pipeline disagrees with "
                   "runEvalElimination",
               /*WrongOutput=*/true);
    }
  }
}

void verdict(Pass &X, const workloads::EvalBenchmark &B, const char *Config,
             bool Got, bool Expected) {
  if (X.K) {
    ++X.K->Verdicts;
    X.K->Handled += Got;
  }
  if (Got != Expected)
    X.Mismatches.push_back(std::string(B.Name) + " " + Config + ": handled=" +
                           std::to_string(Got));
}

void runEvalProgram(const workloads::EvalBenchmark &B, Pass &X) {
  Scoped S(X.T, "eval_program", X.Op);
  bool Handled;
  {
    Scoped U(X.T, "evalelim", X.Op);
    Handled = runUnevalizer(B.Source).Handled;
  }
  verdict(X, B, "unevalizer", Handled, B.ExpectedUnevalizer);
  if (!B.Runnable || B.MissingCode)
    return;
  std::vector<EvalSiteInfo> Sites;
  verdict(X, B, "Spec", evalHandled(B.Source, false, X, Sites),
          B.ExpectedSpec);
  verdict(X, B, "Spec+DetDOM", evalHandled(B.Source, true, X, Sites),
          B.ExpectedSpecDetDom);
}

struct Corpus {
  std::vector<std::string> Miniquery;
  const std::vector<workloads::EvalBenchmark> *Suite = nullptr;
};

void runPass(const Corpus &Co, Rng &Rand, Pass &X, KeyedTimes &CellMs) {
  Scoped S(X.T, "pass", X.Op);
  std::vector<size_t> Cells(NumCells), Programs(Co.Suite->size());
  std::iota(Cells.begin(), Cells.end(), 0);
  std::iota(Programs.begin(), Programs.end(), 0);
  Rand.shuffle(Cells);
  Rand.shuffle(Programs);
  for (size_t I : Cells) {
    Clock::time_point T0 = Clock::now();
    runCell(Table1[I], Co.Miniquery[Table1[I].Minor], X);
    CellMs.add(cellName(Table1[I]), msBetween(T0, Clock::now()));
  }
  for (size_t I : Programs)
    runEvalProgram((*Co.Suite)[I], X);
}

void checkPass(const Pass &X, Report &R) {
  ++R.Attempted;
  if (X.Mismatches.empty())
    return;
  std::string Why = "pass " + std::to_string(X.Op) + ": " +
                    X.Mismatches.front();
  if (X.Mismatches.size() > 1)
    Why += " (+" + std::to_string(X.Mismatches.size() - 1) + " more)";
  R.fail(Why, /*WrongOutput=*/true);
}

} // namespace

void runPaperPipeline(const RunConfig &C, Report &R) {
  Corpus Co;
  Rng Rand(C.Seed);
  double SetupS = timedSetup([&] {
    Rand = Rng(C.Seed);
    Co = Corpus();
    for (int Minor = 0; Minor < 4; ++Minor)
      Co.Miniquery.push_back(workloads::miniquery(Minor));
    Co.Suite = &workloads::evalSuite();
    checkEvalMirror(*Co.Suite, R);
    // First-touch warm-up: one verified pass before timing.
    Pass Warm{nullptr, nullptr, 0, {}};
    KeyedTimes Ignored;
    runPass(Co, Rand, Warm, Ignored);
    checkPass(Warm, R);
  });

  Tracer T;
  Counts K;
  std::vector<double> PassMs, TracedMs, UntracedMs;
  KeyedTimes CellMs;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(C.Seconds));
  for (uint64_t Op = 1; Clock::now() < Deadline; ++Op) {
    // Traced runs trace every other pass, so the untraced half measures
    // what tracing costs.
    bool Traced = C.Trace && Op % 2 == 1;
    Pass X{Traced ? &T : nullptr, Traced ? &K : nullptr, Op, {}};
    Clock::time_point T0 = Clock::now();
    runPass(Co, Rand, X, CellMs);
    double Ms = msBetween(T0, Clock::now());
    PassMs.push_back(Ms);
    (Traced ? TracedMs : UntracedMs).push_back(Ms);
    checkPass(X, R);
  }

  if (!C.Trace) {
    addEndToEnd(R, SetupS, percentile(PassMs, BasePercentile),
                CellMs.geomean(BasePercentile));
    return;
  }
  TraceView V(T);
  reportParser(R, V, K.Nodes, K.Parses);
  V.addLayer(R, "determinacy");
  K.Det.report(R, V.selfMs("determinacy"));
  V.addLayer(R, "specialize");
  R.add("specialize.residual_nodes", per(K.ResidualNodes, K.Specializations),
        "count");
  R.add("specialize.clones", per(K.Clones, K.Specializations), "count");
  R.add("specialize.loops_unrolled", per(K.Unrolled, K.Specializations),
        "count");
  R.add("specialize.props_staticized", per(K.Staticized, K.Specializations),
        "count");
  R.add("specialize.branches_pruned", per(K.Pruned, K.Specializations),
        "count");
  R.add("specialize.evals_spliced", per(K.Spliced, K.Specializations),
        "count");
  V.addLayer(R, "pointsto");
  R.add("pointsto.steps", per(K.PtSteps, K.PtRuns), "count");
  R.add("pointsto.steps_per_ms",
        V.selfMs("pointsto") > 0 ? double(K.PtSteps) / V.selfMs("pointsto")
                                 : 0,
        "1/ms");
  R.add("pointsto.copy_edges", per(K.CopyEdges, K.PtRuns), "count");
  R.add("pointsto.constraint_vars", per(K.ConstraintVars, K.PtRuns), "count");
  R.add("pointsto.completed_frac", per(K.PtCompleted, K.PtRuns), "ratio");
  // The layer's share covers the unevalizer and the site classification.
  V.addLayer(R, "evalelim", "evalelim.unevalizer_ms", {"evalelim.sites"});
  R.add("evalelim.handled_frac", per(K.Handled, K.Verdicts), "ratio");
  R.add("op_ms.tail", percentile(UntracedMs, 90), "ms");
  V.addSummary(R, {"pass", "cell", "eval_program"}, median(TracedMs),
               median(UntracedMs));
  writeTrace(C, T);
}

} // namespace perfbench
