//===- Common.cpp - Shared benchmark plumbing -------------------------------==//

#include "Common.h"

#include "BenchSupport.h"
#include "determinacy/Determinacy.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  Entries.push_back({Name, std::isfinite(Value) ? Value : 0, Unit});
}

void Report::fail(const std::string &Why, bool WrongOutput) {
  ++Failed;
  if (WrongOutput)
    Correct = false;
  if (Logged < 10) {
    ++Logged;
    std::fprintf(stderr, "perfbench: failed op: %s\n", Why.c_str());
  }
}

std::string Report::json() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < Entries.size(); ++I) {
    char Num[40];
    std::snprintf(Num, sizeof(Num), "%.17g", Entries[I].Value);
    if (I)
      Out += ", ";
    Out += "\"" + Entries[I].Name + "\": {\"value\": " + Num +
           ", \"unit\": \"" + Entries[I].Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

uint32_t Tracer::begin(const char *Name, uint64_t Op) {
  uint32_t Id = static_cast<uint32_t>(Spans.size());
  Clock::time_point Now = Clock::now();
  Spans.push_back({Name, Op, Open.empty() ? None : Open.back(), Now, Now});
  Open.push_back(Id);
  return Id;
}

void Tracer::end(uint32_t Id) {
  Spans[Id].End = Clock::now();
  // Scoped spans close innermost first.
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

uint32_t Tracer::add(const char *Name, uint64_t Op, uint32_t Parent,
                     Clock::time_point Start, Clock::time_point End) {
  Spans.push_back({Name, Op, Parent, Start, std::max(Start, End)});
  return static_cast<uint32_t>(Spans.size() - 1);
}

std::map<std::string, Tracer::Layer> Tracer::selfTimes() const {
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  std::vector<std::vector<Interval>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != None)
      Children[S.Parent].push_back({S.Start, S.End});
  std::map<std::string, Layer> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<Interval> &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    // Union of the children's intervals, clipped to the span.
    double Covered = 0;
    Clock::time_point Reach = S.Start;
    for (const Interval &K : Kids) {
      Clock::time_point From = std::max(K.first, Reach);
      Clock::time_point To = std::min(K.second, S.End);
      if (To > From) {
        Covered += msBetween(From, To);
        Reach = To;
      }
    }
    Layer &L = Out[S.Name];
    L.SelfMs += std::max(0.0, msBetween(S.Start, S.End) - Covered);
    ++L.Calls;
  }
  return Out;
}

size_t Tracer::roots() const {
  size_t N = 0;
  for (const Span &S : Spans)
    N += S.Parent == None;
  return N;
}

double Tracer::rootMs() const {
  double Ms = 0;
  for (const Span &S : Spans)
    if (S.Parent == None)
      Ms += msBetween(S.Start, S.End);
  return Ms;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  Clock::time_point T0 = Spans.empty() ? Clock::now() : Spans.front().Start;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.Start);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 I, S.Name, static_cast<unsigned long long>(S.Op),
                 S.Parent == None ? -1LL : static_cast<long long>(S.Parent),
                 msBetween(T0, S.Start) * 1000, msBetween(T0, S.End) * 1000);
  }
  return std::fclose(F) == 0;
}

void writeTrace(const RunConfig &C, const Tracer &T) {
  std::string Path = C.WorkDir + "/spans-" + C.Workload + "-" +
                     std::to_string(C.Seed) + ".jsonl";
  if (T.write(Path))
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", T.size(),
                 Path.c_str());
  else
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
}

//===----------------------------------------------------------------------===//
// TraceView
//===----------------------------------------------------------------------===//

double TraceView::selfMs(const std::string &Name) const {
  auto It = Self.find(Name);
  return It == Self.end() ? 0 : It->second.SelfMs;
}

double TraceView::meanMs(const std::string &Name) const {
  auto It = Self.find(Name);
  return It == Self.end() || !It->second.Calls
             ? 0
             : It->second.SelfMs / double(It->second.Calls);
}

void TraceView::addLayer(Report &R, const std::string &Layer,
                         const std::string &MsName,
                         const std::vector<std::string> &AlsoSpans) const {
  double Ms = selfMs(Layer);
  for (const std::string &Name : AlsoSpans)
    Ms += selfMs(Name);
  R.add(MsName.empty() ? Layer + ".ms" : MsName, meanMs(Layer), "ms");
  R.add(Layer + ".share", RootMs > 0 ? Ms / RootMs : 0, "ratio");
}

void TraceView::addSummary(Report &R, const std::vector<std::string> &OwnSpans,
                           double TracedMs, double UntracedMs) const {
  double Own = 0;
  for (const std::string &Name : OwnSpans)
    Own += selfMs(Name);
  R.add("bench.self_ms", Roots ? Own / double(Roots) : 0, "ms");
  R.add("trace.overhead_pct",
        UntracedMs > 0 ? 100 * (TracedMs - UntracedMs) / UntracedMs : 0, "%");
}

void reportParser(Report &R, const TraceView &V, uint64_t Nodes,
                  uint64_t Parses) {
  V.addLayer(R, "parser");
  R.add("parser.nodes", per(Nodes, Parses), "count");
  double Ms = V.selfMs("parser");
  R.add("parser.nodes_per_ms", Ms > 0 ? double(Nodes) / Ms : 0, "1/ms");
}

std::string appTail(uint64_t K) {
  return "var appValue = " + std::to_string(K) +
         ";\nprint(\"app \" + appValue);\n";
}

//===----------------------------------------------------------------------===//
// Layer counts and the shared end-to-end metrics
//===----------------------------------------------------------------------===//

void DeterminacyCounts::add(const dda::AnalysisResult &A) {
  ++Runs;
  Steps += A.Stats.StepsUsed;
  Flushes += A.Stats.HeapFlushes;
  Counterfactuals += A.Stats.Counterfactuals;
  CfAborts += A.Stats.CounterfactualAborts;
  JournalEntries += A.Stats.JournalEntries;
  SnapshotForks += A.Stats.SnapshotForks;
  CowCopies += A.Stats.CowCopies;
  HeapCells += A.Degradation.HeapCellsUsed;
  Facts += A.Facts.size();
  Determinate += A.Facts.countDeterminate();
}

void DeterminacyCounts::add(const DeterminacyCounts &O) {
  Runs += O.Runs;
  Steps += O.Steps;
  Flushes += O.Flushes;
  Counterfactuals += O.Counterfactuals;
  CfAborts += O.CfAborts;
  JournalEntries += O.JournalEntries;
  SnapshotForks += O.SnapshotForks;
  CowCopies += O.CowCopies;
  HeapCells += O.HeapCells;
  Facts += O.Facts;
  Determinate += O.Determinate;
}

void DeterminacyCounts::report(Report &R, double SelfMs) const {
  double N = Runs ? double(Runs) : 1;
  R.add("determinacy.steps", double(Steps) / N, "count");
  R.add("determinacy.steps_per_ms", SelfMs > 0 ? double(Steps) / SelfMs : 0,
        "1/ms");
  R.add("determinacy.flushes", double(Flushes) / N, "count");
  R.add("determinacy.counterfactuals", double(Counterfactuals) / N, "count");
  R.add("determinacy.cf_aborts", double(CfAborts) / N, "count");
  R.add("determinacy.journal_entries", double(JournalEntries) / N, "count");
  R.add("determinacy.snapshot_forks", double(SnapshotForks) / N, "count");
  R.add("determinacy.cow_copies", double(CowCopies) / N, "count");
  R.add("determinacy.heap_cells", double(HeapCells) / N, "count");
  R.add("determinacy.facts", double(Facts) / N, "count");
  R.add("determinacy.determinate_frac",
        Facts ? double(Determinate) / double(Facts) : 0, "ratio");
}

double KeyedTimes::geomean(double P) const {
  if (ByKey.empty())
    return 0;
  double LogSum = 0;
  for (const auto &[Key, Ms] : ByKey)
    LogSum += std::log(std::max(percentile(Ms, P), 1e-9));
  return std::exp(LogSum / double(ByKey.size()));
}

std::string KeyedTimes::medians() const {
  std::string Out;
  for (const auto &[Key, Ms] : ByKey) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.2f", median(Ms));
    Out += (Out.empty() ? "" : "  ") + Key + Buf;
  }
  return Out;
}

void addEndToEnd(Report &R, double SetupS, double OpBase, double Op2Base) {
  R.add("setup_s", SetupS, "s");
  R.add("peak_rss_mb", double(dda::bench::peakRssKb()) / 1024.0, "MB");
  R.add("op_ms.base", OpBase, "ms");
  R.add("op2_ms.base", Op2Base, "ms");
}

} // namespace perfbench
