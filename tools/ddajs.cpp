//===- ddajs.cpp - Command-line driver for the determinacy toolkit ----------==//
///
/// The downstream-user entry point: run, analyze, specialize, and inspect
/// MiniJS programs from files.
///
///   ddajs run <file> [--seed N] [--dom-seed N]     execute a program
///   ddajs analyze <file> [--detdom] [--seeds N]    dump determinacy facts
///   ddajs analyze <file> --seeds a,b,c --jobs 4    parallel multi-seed merge
///   ddajs analyze --batch dir/ --jobs 8            analyze every dir/*.js
///   ddajs specialize <file> [--detdom]             print the residual program
///   ddajs deadcode <file> [--detdom]               report dead branches
///   ddajs evalelim <file> [--detdom]               eval-elimination report
///   ddajs pointsto <file>                          call-graph summary
///   ddajs serve --port N --jobs N                  long-lived analysis daemon
///
/// `--batch` and `serve` share one JSON response schema (serve/Protocol.h),
/// so a served answer can be diffed field-by-field — fingerprint included —
/// against a single-shot CLI run.
///
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "ast/StructuralHash.h"
#include "deadcode/DeadCode.h"
#include "determinacy/Determinacy.h"
#include "determinacy/ParallelAnalysis.h"
#include "incremental/FactStore.h"
#include "evalelim/EvalElim.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "pointsto/PointsTo.h"
#include "serve/JSON.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "specialize/Specializer.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"

#include <algorithm>
#include <memory>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace dda;

namespace {

// Exit codes: 0 success, 1 program error (bad file / parse error / uncaught
// exception), 2 usage, 3 resource-budget trip (results, if printed, are
// partial but sound), 4 internal interpreter error (a bug — please report).
enum ExitCode : int {
  ExitOk = 0,
  ExitProgramError = 1,
  ExitUsage = 2,
  ExitResourceTrip = 3,
  ExitInternalError = 4,
};

int exitCodeForTrap(TrapKind K) {
  if (K == TrapKind::None)
    return ExitProgramError; // Failure without a trap: program-level error.
  return isResourceTrap(K) ? ExitResourceTrip : ExitInternalError;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: ddajs <command> <file.js> [options]\n"
      "\n"
      "commands:\n"
      "  run         execute the program and print its output\n"
      "  analyze     run the dynamic determinacy analysis, dump the facts\n"
      "  specialize  print the fact-specialized residual program\n"
      "  deadcode    report branches no execution can take\n"
      "  evalelim    classify and eliminate eval call sites\n"
      "  pointsto    static call-graph summary\n"
      "  serve       long-lived multi-tenant analysis daemon (JSON lines\n"
      "              over TCP; see --port/--host and the service options)\n"
      "\n"
      "options:\n"
      "  --seed N           Math.random seed (default 1)\n"
      "  --dom-seed N       synthetic-DOM seed (default 1)\n"
      "  --seeds N|a,b,c    analyze: merge N consecutive seed runs, or an\n"
      "                     explicit comma-separated seed list\n"
      "  --jobs N           analyze: fan seeds/programs across N worker\n"
      "                     threads (0 = one per core; merged facts are\n"
      "                     identical for every N)\n"
      "  --batch DIR        analyze: process every DIR/*.js concurrently;\n"
      "                     exit code is the worst per-file code\n"
      "  --undo E           counterfactual undo engine: snapshot (default;\n"
      "                     copy-on-write arena snapshots, O(1) fork) or\n"
      "                     journal (reverse-replay reference oracle);\n"
      "                     facts and fingerprints are identical for both\n"
      "  --detdom           assume determinate DOM (unsound; paper 5.1)\n"
      "\n"
      "incremental re-analysis (analyze/specialize/deadcode and serve):\n"
      "  --fact-store DIR   persistent region-summary store; regions whose\n"
      "                     subtree hash and reaching fingerprint match a\n"
      "                     stored summary are replayed instead of executed\n"
      "                     (facts and exit codes stay byte-identical);\n"
      "                     implies --incremental on unless overridden\n"
      "  --incremental M    off | on | strict; strict re-executes store\n"
      "                     hits and exits 4 if a stored summary diverges\n"
      "                     from re-execution (requires --fact-store)\n"
      "\n"
      "resource governor (degrade soundly instead of failing):\n"
      "  --max-steps N      interpreter step budget (default 50000000)\n"
      "  --deadline-ms N    wall-clock budget in milliseconds (0 = none)\n"
      "  --max-heap N       heap-cell budget (0 = unlimited)\n"
      "  --max-call-depth N call-depth limit (default 600)\n"
      "  --max-eval-depth N nested-eval limit (default 64)\n"
      "  --cf-fuel N        counterfactual-execution fuel (0 = unlimited)\n"
      "  --inject-fault S   trip budget S=class:N at the Nth checkpoint\n"
      "                     (classes: steps deadline heap depth cf-fuel\n"
      "                     eval-depth; also via DDA_INJECT_FAULT env)\n"
      "\n"
      "serve options (budget flags above become the service ceiling):\n"
      "  --port N               TCP port (0 = ephemeral, printed at start)\n"
      "  --host H               bind address (default 127.0.0.1)\n"
      "  --root DIR             allow `path` requests, confined to DIR\n"
      "                         (default: path requests disabled)\n"
      "  --queue-depth N        admission tickets before shedding\n"
      "                         (default 4 x jobs)\n"
      "  --max-connections N    concurrent connections (default 64)\n"
      "  --max-request-bytes N  per-request byte cap (default 1048576)\n"
      "  --cache-asts N         parsed-AST LRU entries (default 64)\n"
      "  --cache-results N      result LRU entries (default 256)\n"
      "  --service-deadline-ms N  per-request wall-clock ceiling\n"
      "                         (default 10000; 0 = none)\n"
      "\n"
      "exit codes: 0 ok, 1 program error, 2 usage, 3 budget trip (partial\n"
      "but sound results), 4 internal error\n");
  return ExitUsage;
}

struct Options {
  std::string Command;
  std::string File;
  std::string BatchDir; ///< --batch: analyze every *.js in this directory.
  uint64_t Seed = 1;
  uint64_t DomSeed = 1;
  unsigned Seeds = 1;
  std::vector<uint64_t> SeedList; ///< --seeds a,b,c (overrides Seeds).
  unsigned Jobs = 1;              ///< --jobs: 0 = one per hardware thread.
  UndoEngine Undo = UndoEngine::Snapshot;
  bool DetDom = false;
  uint64_t MaxSteps = 50'000'000;
  uint64_t DeadlineMs = 0;
  uint64_t MaxHeapCells = 0;
  unsigned MaxCallDepth = 600;
  unsigned MaxEvalDepth = 64;
  uint64_t CfFuel = 0;
  std::optional<FaultInjector> Injector;

  // Incremental re-analysis (--fact-store / --incremental).
  std::string FactStoreDir;
  IncrementalMode Incremental = IncrementalMode::Off;
  bool IncrementalSet = false; ///< --incremental given explicitly.
  std::unique_ptr<FactStore> Store; ///< Opened in main when FactStoreDir set.

  // serve-only options.
  std::string Host = "127.0.0.1";
  std::string Root; ///< --root: serve `path` requests confined here.
  unsigned Port = 0;
  size_t QueueDepth = 0;
  size_t MaxConnections = 64;
  size_t MaxRequestBytes = 1 << 20;
  size_t CacheAsts = 64;
  size_t CacheResults = 256;
  uint64_t ServiceDeadlineMs = 10'000;
};

/// Parses `a,b,c` into seed values; returns false on malformed lists.
bool parseSeedList(const char *Spec, std::vector<uint64_t> &Out) {
  std::string S = Spec;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    std::string Tok = S.substr(Pos, Comma == std::string::npos ? std::string::npos
                                                               : Comma - Pos);
    if (Tok.empty())
      return false;
    char *End = nullptr;
    uint64_t V = std::strtoull(Tok.c_str(), &End, 10);
    if (End == Tok.c_str() || *End != '\0')
      return false;
    Out.push_back(V);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return !Out.empty();
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  if (Argc < 2)
    return false;
  Opts.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg.rfind("--", 0) != 0) {
      // First bare argument is the input file.
      if (!Opts.File.empty())
        return false;
      Opts.File = Arg;
    } else if (Arg == "--detdom") {
      Opts.DetDom = true;
    } else if (Arg == "--seed") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--dom-seed") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.DomSeed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seeds") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strchr(V, ',')) {
        if (!parseSeedList(V, Opts.SeedList))
          return false;
        Opts.Seeds = static_cast<unsigned>(Opts.SeedList.size());
      } else {
        Opts.Seeds = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
      }
    } else if (Arg == "--jobs") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Jobs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (Arg == "--batch") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.BatchDir = V;
    } else if (Arg == "--undo") {
      const char *V = Next();
      if (!V) {
        return false;
      } else if (!std::strcmp(V, "snapshot")) {
        Opts.Undo = UndoEngine::Snapshot;
      } else if (!std::strcmp(V, "journal")) {
        Opts.Undo = UndoEngine::Journal;
      } else {
        std::fprintf(stderr, "ddajs: --undo expects 'snapshot' or 'journal'\n");
        return false;
      }
    } else if (Arg == "--fact-store") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.FactStoreDir = V;
    } else if (Arg == "--incremental") {
      const char *V = Next();
      if (!V) {
        return false;
      } else if (!std::strcmp(V, "off")) {
        Opts.Incremental = IncrementalMode::Off;
      } else if (!std::strcmp(V, "on")) {
        Opts.Incremental = IncrementalMode::On;
      } else if (!std::strcmp(V, "strict")) {
        Opts.Incremental = IncrementalMode::Strict;
      } else {
        std::fprintf(stderr,
                     "ddajs: --incremental expects 'off', 'on', or 'strict'\n");
        return false;
      }
      Opts.IncrementalSet = true;
    } else if (Arg == "--max-steps") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MaxSteps = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--deadline-ms") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.DeadlineMs = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--max-heap") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MaxHeapCells = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--max-call-depth") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MaxCallDepth = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (Arg == "--max-eval-depth") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MaxEvalDepth = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (Arg == "--cf-fuel") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CfFuel = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--port") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Port = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
      if (Opts.Port > 65535)
        return false;
    } else if (Arg == "--host") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Host = V;
    } else if (Arg == "--root") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Root = V;
    } else if (Arg == "--queue-depth") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.QueueDepth = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--max-connections") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MaxConnections = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--max-request-bytes") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MaxRequestBytes = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--cache-asts") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheAsts = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--cache-results") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheResults = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--service-deadline-ms") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.ServiceDeadlineMs = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--inject-fault") {
      const char *V = Next();
      if (!V)
        return false;
      std::string Error;
      Opts.Injector = FaultInjector::parse(V, &Error);
      if (!Opts.Injector) {
        std::fprintf(stderr, "ddajs: %s\n", Error.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      return false;
    }
  }
  if (!Opts.Injector)
    Opts.Injector = FaultInjector::fromEnvironment();
  // serve takes no input file; batch mode supplies its own file list;
  // every other invocation needs a single input file.
  if (Opts.Command == "serve") {
    if (!Opts.File.empty() || !Opts.BatchDir.empty())
      return false;
  } else if (Opts.BatchDir.empty() == Opts.File.empty()) {
    return false;
  }
  if (!Opts.BatchDir.empty() && Opts.Command != "analyze") {
    std::fprintf(stderr, "ddajs: --batch only supports the analyze command\n");
    return false;
  }
  if (Opts.FactStoreDir.empty()) {
    if (Opts.Incremental != IncrementalMode::Off) {
      std::fprintf(stderr, "ddajs: --incremental requires --fact-store DIR\n");
      return false;
    }
  } else if (!Opts.IncrementalSet) {
    Opts.Incremental = IncrementalMode::On; // --fact-store alone means "on".
  }
  return true;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "ddajs: cannot open %s\n", Path.c_str());
    return false;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

bool parseSource(const std::string &Source, Program &P) {
  DiagnosticEngine Diags;
  P = parseProgram(Source, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return false;
  }
  return true;
}

AnalysisOptions analysisOptions(Options &Opts) {
  AnalysisOptions AOpts;
  AOpts.RandomSeed = Opts.Seed;
  AOpts.DomSeed = Opts.DomSeed;
  AOpts.DeterminateDom = Opts.DetDom;
  AOpts.MaxSteps = Opts.MaxSteps;
  AOpts.DeadlineMs = Opts.DeadlineMs;
  AOpts.MaxHeapCells = Opts.MaxHeapCells;
  AOpts.MaxCallDepth = Opts.MaxCallDepth;
  AOpts.MaxEvalDepth = Opts.MaxEvalDepth;
  AOpts.CounterfactualFuel = Opts.CfFuel;
  AOpts.Injector = Opts.Injector ? &*Opts.Injector : nullptr;
  AOpts.Undo = Opts.Undo;
  if (Opts.Store) {
    AOpts.Incremental = Opts.Incremental;
    AOpts.Store = Opts.Store.get();
  }
  return AOpts;
}

std::vector<uint64_t> seedList(const Options &Opts) {
  if (!Opts.SeedList.empty())
    return Opts.SeedList;
  std::vector<uint64_t> Seeds;
  for (unsigned I = 0; I < std::max(1u, Opts.Seeds); ++I)
    Seeds.push_back(Opts.Seed + I);
  return Seeds;
}

AnalysisResult analyze(Program &P, Options &Opts) {
  AnalysisOptions AOpts = analysisOptions(Opts);
  std::vector<uint64_t> Seeds = seedList(Opts);
  if (Seeds.size() == 1 && Opts.Jobs == 1)
    return runDeterminacyAnalysis(P, AOpts);
  return runDeterminacyAnalysisParallel(P, AOpts, Seeds, Opts.Jobs);
}

/// Prints the degradation report (if any) and returns the exit code for an
/// analysis that completed: 0 for a clean run, 3 when a budget tripped and
/// the printed results are partial but sound.
int finishAnalysis(const AnalysisResult &R) {
  if (R.Trap == TrapKind::None && !R.Degradation.degraded())
    return ExitOk;
  std::fprintf(stderr, "ddajs: %s", R.Degradation.str().c_str());
  return R.Trap == TrapKind::None ? ExitOk : ExitResourceTrip;
}

int cmdRun(const std::string &Source, Options &Opts) {
  Program P;
  if (!parseSource(Source, P))
    return ExitProgramError;
  InterpOptions IOpts;
  IOpts.RandomSeed = Opts.Seed;
  IOpts.DomSeed = Opts.DomSeed;
  IOpts.MaxSteps = Opts.MaxSteps;
  IOpts.DeadlineMs = Opts.DeadlineMs;
  IOpts.MaxHeapCells = Opts.MaxHeapCells;
  IOpts.MaxCallDepth = Opts.MaxCallDepth;
  IOpts.MaxEvalDepth = Opts.MaxEvalDepth;
  IOpts.Injector = Opts.Injector ? &*Opts.Injector : nullptr;
  Interpreter I(P, IOpts);
  bool Ok = I.run();
  std::fputs(I.outputText().c_str(), stdout);
  if (!Ok) {
    std::fprintf(stderr, "ddajs: %s\n", I.errorMessage().c_str());
    return exitCodeForTrap(I.trapKind());
  }
  return ExitOk;
}

int cmdAnalyze(const std::string &Source, Options &Opts) {
  Program P;
  if (!parseSource(Source, P))
    return ExitProgramError;
  AnalysisResult R = analyze(P, Opts);
  if (!R.Ok) {
    std::fprintf(stderr, "ddajs: %s\n", R.Error.c_str());
    return exitCodeForTrap(R.Trap);
  }
  std::fputs(R.Facts.dump(R.Contexts).c_str(), stdout);
  std::fprintf(stderr,
               "%zu facts (%zu determinate), %llu flushes, "
               "%llu counterfactuals\n",
               R.Facts.size(), R.Facts.countDeterminate(),
               static_cast<unsigned long long>(R.Stats.HeapFlushes),
               static_cast<unsigned long long>(R.Stats.Counterfactuals));
  return finishAnalysis(R);
}

/// Prefixes the canonical analysis payload with the file path, producing a
/// `--batch` summary line: the same JSON object a serve response carries in
/// `result`, plus a leading `path` member.
std::string batchLine(const std::string &Path, const std::string &Payload) {
  std::string Line = "{\"path\":";
  json::appendQuoted(Line, Path);
  Line += ',';
  Line.append(Payload, 1, std::string::npos); // Merge into the payload object.
  return Line;
}

/// --batch DIR: analyzes every DIR/*.js (sorted by name) with all
/// (program, seed) tasks sharing one worker pool. Prints one JSON summary
/// line per file (shared schema with serve; path, exit code, trap kind,
/// degradation flags, fact fingerprint) and returns the worst per-file
/// exit code.
int cmdBatch(Options &Opts) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Files;
  for (const auto &Entry : fs::directory_iterator(Opts.BatchDir, EC)) {
    if (Entry.is_regular_file() && Entry.path().extension() == ".js")
      Files.push_back(Entry.path().string());
  }
  if (EC) {
    std::fprintf(stderr, "ddajs: cannot read %s: %s\n", Opts.BatchDir.c_str(),
                 EC.message().c_str());
    return ExitProgramError;
  }
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::fprintf(stderr, "ddajs: no .js files in %s\n", Opts.BatchDir.c_str());
    return ExitProgramError;
  }

  int Worst = ExitOk;
  std::vector<Program> Programs;
  std::vector<std::string> Sources; // Content of Programs[i], for dedupe.
  // Byte-identical files parse and analyze once: each file maps to the
  // Programs index that carries its content, and duplicates just re-emit
  // that program's summary line under their own path.
  std::vector<std::pair<std::string, size_t>> Emit; // (path, program index)
  std::unordered_map<uint64_t, std::vector<size_t>> ByContentHash;
  for (const std::string &File : Files) {
    std::string Source;
    if (!readFile(File, Source)) {
      std::puts(batchLine(File, serve::errorPayloadJson(
                                    serve::ErrorKind::BadRequest,
                                    "cannot open file"))
                    .c_str());
      Worst = std::max(Worst, static_cast<int>(ExitProgramError));
      continue;
    }
    uint64_t ContentHash = hashBytesFnv(Source.data(), Source.size(), 0);
    auto &Bucket = ByContentHash[ContentHash];
    size_t Existing = Programs.size();
    for (size_t Idx : Bucket)
      if (Sources[Idx] == Source) { // Hash-collision paranoia.
        Existing = Idx;
        break;
      }
    if (Existing != Programs.size()) {
      Emit.emplace_back(File, Existing);
      continue;
    }
    DiagnosticEngine Diags;
    Program P = parseProgram(Source, Diags);
    if (Diags.hasErrors()) {
      std::puts(batchLine(File, serve::errorPayloadJson(
                                    serve::ErrorKind::ParseError, Diags.str()))
                    .c_str());
      Worst = std::max(Worst, static_cast<int>(ExitProgramError));
      continue;
    }
    Bucket.push_back(Programs.size());
    Emit.emplace_back(File, Programs.size());
    Programs.push_back(std::move(P));
    Sources.push_back(std::move(Source));
  }

  AnalysisOptions AOpts = analysisOptions(Opts);
  std::vector<uint64_t> Seeds = seedList(Opts);
  std::vector<AnalysisResult> Results =
      runDeterminacyAnalysisBatch(Programs, AOpts, Seeds, Opts.Jobs);
  for (const auto &[File, Idx] : Emit) {
    const AnalysisResult &R = Results[Idx];
    std::puts(
        batchLine(File, serve::analysisPayloadJson(R, AOpts.Engine, Seeds))
            .c_str());
    Worst = std::max(Worst, serve::analysisExitCode(R));
  }
  return Worst;
}

// Signal → drain: handlers may only poke the server's wake pipe (the write
// is async-signal-safe; everything else happens on the acceptor thread).
int GServeWakeFd = -1;
void serveSignalHandler(int) {
  if (GServeWakeFd >= 0) {
    char B = 'x';
    [[maybe_unused]] ssize_t N = write(GServeWakeFd, &B, 1);
  }
}

int cmdServe(Options &Opts) {
  serve::ServeOptions SOpts;
  SOpts.Host = Opts.Host;
  SOpts.Root = Opts.Root;
  SOpts.Port = static_cast<uint16_t>(Opts.Port);
  SOpts.Jobs = Opts.Jobs;
  SOpts.QueueDepth = Opts.QueueDepth;
  SOpts.MaxConnections = Opts.MaxConnections;
  SOpts.MaxRequestBytes = Opts.MaxRequestBytes;
  SOpts.CacheAsts = Opts.CacheAsts;
  SOpts.CacheResults = Opts.CacheResults;
  SOpts.DetDom = Opts.DetDom;
  SOpts.DomSeed = Opts.DomSeed;
  SOpts.Injector = Opts.Injector;
  SOpts.FactStoreDir = Opts.FactStoreDir;
  SOpts.Incremental = Opts.Incremental;

  // The CLI budget flags become the service ceiling; requests can only
  // tighten them. --deadline-ms, when given, wins over the serve-specific
  // --service-deadline-ms default.
  GovernorLimits Ceiling;
  Ceiling.MaxSteps = Opts.MaxSteps;
  Ceiling.DeadlineMs =
      Opts.DeadlineMs ? Opts.DeadlineMs : Opts.ServiceDeadlineMs;
  Ceiling.MaxHeapCells = Opts.MaxHeapCells;
  Ceiling.MaxCallDepth = Opts.MaxCallDepth;
  Ceiling.MaxEvalDepth = Opts.MaxEvalDepth;
  Ceiling.CfFuel = Opts.CfFuel;
  SOpts.Ceiling = Ceiling;

  serve::Server Server(SOpts);
  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "ddajs serve: %s\n", Error.c_str());
    return ExitProgramError;
  }

  GServeWakeFd = Server.wakeFd();
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = serveSignalHandler;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  // One parseable line so wrappers can discover the bound (ephemeral) port.
  std::string Listening = "{\"event\":\"listening\",\"host\":";
  json::appendQuoted(Listening, Opts.Host);
  Listening += ",\"port\":" + std::to_string(Server.port()) + "}";
  std::puts(Listening.c_str());
  std::fflush(stdout);

  Server.wait(); // Blocks until SIGTERM/SIGINT completes the drain.
  std::printf("{\"event\":\"stats\",\"stats\":%s}\n",
              Server.statsJson().c_str());
  std::fflush(stdout);
  GServeWakeFd = -1;
  return ExitOk;
}

int cmdSpecialize(const std::string &Source, Options &Opts) {
  Program P;
  if (!parseSource(Source, P))
    return ExitProgramError;
  AnalysisResult R = analyze(P, Opts);
  if (!R.Ok) {
    std::fprintf(stderr, "ddajs: %s\n", R.Error.c_str());
    return exitCodeForTrap(R.Trap);
  }
  SpecializeResult S = specializeProgram(P, R);
  std::fputs(printProgram(S.Residual).c_str(), stdout);
  std::fprintf(stderr,
               "%u branches pruned, %u accesses staticized, %u loops "
               "unrolled, %u evals spliced, %u clones\n",
               S.Report.BranchesPruned, S.Report.PropertiesStaticized,
               S.Report.LoopsUnrolled, S.Report.EvalsSpliced,
               S.Report.FunctionClones);
  return finishAnalysis(R);
}

int cmdDeadCode(const std::string &Source, Options &Opts) {
  Program P;
  if (!parseSource(Source, P))
    return ExitProgramError;
  AnalysisResult R = analyze(P, Opts);
  if (!R.Ok) {
    std::fprintf(stderr, "ddajs: %s\n", R.Error.c_str());
    return exitCodeForTrap(R.Trap);
  }
  DeadCodeResult D = findDeadCode(P, R);
  for (const DeadRegion &Region : D.Regions)
    std::printf("line %u: dead branch (condition determinately %s)\n",
                Region.Line, Region.CondValue ? "true" : "false");
  std::printf("%zu/%zu statements dead (%.0f%%)\n", D.DeadStatements,
              D.TotalStatements, 100 * D.deadFraction());
  return finishAnalysis(R);
}

int cmdEvalElim(const std::string &Source, const Options &Opts) {
  EvalElimOptions EOpts;
  EOpts.DeterminateDom = Opts.DetDom;
  EOpts.RandomSeed = Opts.Seed;
  EOpts.DomSeed = Opts.DomSeed;
  EvalElimResult R = runEvalElimination(Source, EOpts);
  if (!R.Ran) {
    std::fprintf(stderr, "ddajs: %s\n", R.RunError.c_str());
    return 1;
  }
  for (const EvalSiteInfo &S : R.Sites)
    std::printf("eval at line %u: %s\n", S.Line, evalOutcomeName(S.Outcome));
  std::printf("%s: %zu reachable eval site(s) remain in the residual\n",
              R.Handled ? "handled" : "NOT handled",
              R.ResidualReachableEvalSites);
  return R.Handled ? 0 : 1;
}

int cmdPointsTo(const std::string &Source) {
  Program P;
  if (!parseSource(Source, P))
    return 1;
  PointsToResult R = runPointsToAnalysis(P);
  std::printf("completed: %s (%llu steps)\n", R.Completed ? "yes" : "NO",
              static_cast<unsigned long long>(R.PropagationSteps));
  std::printf("reachable functions : %zu\n", R.ReachableFunctions);
  std::printf("call-graph edges    : %zu over %zu sites (avg %.2f)\n",
              R.CallGraphEdges, R.CallTargets.size(), R.AvgCallTargets);
  std::printf("polymorphic sites   : %zu\n", R.PolymorphicCallSites);
  std::printf("eval call sites     : %zu (%zu provably eval-only)\n",
              R.EvalMaybeCallSites.size(), R.EvalOnlyCallSites.size());
  return 0;
}

} // namespace

/// Opens the CLI-side fact store (serve opens its own inside Server). A
/// directory that cannot be created/opened is an operator error; corrupt
/// contents degrade to (partial) cold start inside FactStore.
bool openFactStore(Options &Opts) {
  if (Opts.FactStoreDir.empty())
    return true;
  Opts.Store = std::make_unique<FactStore>();
  std::string Error;
  if (!Opts.Store->open(Opts.FactStoreDir, Error)) {
    std::fprintf(stderr, "ddajs: --fact-store %s: %s\n",
                 Opts.FactStoreDir.c_str(), Error.c_str());
    return false;
  }
  return true;
}

/// Persists summaries captured during this invocation. I/O failure is a
/// warning, not an error: the analysis results already printed are
/// complete, only warm-start state for future runs is lost.
void commitFactStore(Options &Opts) {
  if (!Opts.Store)
    return;
  std::string Error;
  if (!Opts.Store->commit(Error))
    std::fprintf(stderr, "ddajs: fact-store commit failed: %s\n",
                 Error.c_str());
}

int dispatch(Options &Opts) {
  if (!Opts.BatchDir.empty())
    return cmdBatch(Opts);
  std::string Source;
  if (!readFile(Opts.File, Source))
    return 1;

  if (Opts.Command == "run")
    return cmdRun(Source, Opts);
  if (Opts.Command == "analyze")
    return cmdAnalyze(Source, Opts);
  if (Opts.Command == "specialize")
    return cmdSpecialize(Source, Opts);
  if (Opts.Command == "deadcode")
    return cmdDeadCode(Source, Opts);
  if (Opts.Command == "evalelim")
    return cmdEvalElim(Source, Opts);
  if (Opts.Command == "pointsto")
    return cmdPointsTo(Source);
  return usage();
}

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();
  if (Opts.Command == "serve")
    return cmdServe(Opts); // serve owns its store; see Server::start.
  if (!openFactStore(Opts))
    return ExitProgramError;
  int Code = dispatch(Opts);
  commitFactStore(Opts);
  return Code;
}
