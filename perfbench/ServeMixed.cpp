//===- ServeMixed.cpp - Open-loop traffic into the analysis daemon --------==//
///
/// \file
/// Workload `serve_mixed`: one generator thread multiplexes four loopback
/// connections into an in-process serve::Server (jobs 4, default options,
/// so the incremental layer is off) on a seeded Poisson schedule. The
/// client sockets keep the kernel's default options, as the repository's
/// other clients do. Each request analyzes four seeds of a program from
/// one of three pools:
///
///  * library (LibraryShare): a miniquery library with an edited app tail,
///    every key with a tail of its own. DESIGN.md names "the same large
///    library analyzed over and over under a stream of small app edits" as
///    the traffic serve exists for, so this is the cold majority;
///  * generated (the rest of the cold traffic): fresh ProgramGenerator
///    programs, which have random branches, DOM reads and eval;
///  * hot (HotShare): exact repeats of a small hot set of library versions,
///    which hit the result cache.
///
/// No measurement of serve traffic exists; the shares follow that one
/// statement and are otherwise a choice. Each cold pool's keys are sent in
/// one fixed cyclic order and outnumber the server's result cache, so a
/// cold request always misses it (every other cold key was inserted since
/// its last use).
///
/// A run steps through a light and a heavy fixed rate; a traced run then
/// climbs a fixed rate ladder. Latency is timed from each request's due
/// time, so a stall charges every request queued behind it. op is a
/// heavy-rate request, op2 a light-rate one; their base is the geometric
/// mean over the three pools of each pool's median, since the pools differ
/// in cost by an order of magnitude and a median over the mix would fall
/// between them. The tail is the heavy step's p99.
/// The ladder gives serve.max_rps: the highest ladder rate whose p99 meets
/// LatencyLimitMs without a growing backlog, interpolated between the last
/// step that meets it and the first that does not. It sits on the latency
/// knee, where host noise moves it most, so it is a per-layer figure
/// rather than an end-to-end one.
///
/// Every response's result must be byte-equal to analysisPayloadJson over
/// a serial runDeterminacyAnalysisParallel of the same program and seeds,
/// computed once at set-up. A missing, failed or `overloaded` response
/// counts as failed and as missing the latency limit.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "determinacy/ParallelAnalysis.h"
#include "parser/Parser.h"
#include "serve/JSON.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/ThreadPool.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dda;

namespace perfbench {
namespace {

// Traffic shape.
constexpr unsigned Connections = 4;
constexpr unsigned ServerJobs = 4;
constexpr unsigned SeedsPerRequest = 4;

enum Pool : uint8_t { Hot, Library, Generated, NumPools };
const char *const PoolNames[NumPools] = {"hot", "library", "generated"};
/// Shares of all requests; generated programs take the rest.
constexpr double HotShare = 0.3, LibraryShare = 0.5;
/// Keys per pool. Hot keys are library versions, two per miniquery
/// version.
constexpr unsigned HotKeys = 8, LibraryKeys = 224, GeneratedKeys = 112;
/// The server's default result-cache capacity (ServeOptions::CacheResults):
/// each cold pool's cycle must outgrow it for cold requests to miss.
constexpr size_t ResultCacheEntries = 256;

// Rates in requests per second, and the latency limit behind max_rps. The
// latency knee lies between 450 and 650 req/s, as host load varies. At the
// heavy rate queueing shows in the library pool's median; at 300 req/s it
// amplified host noise enough to nearly double the heavy base's spread
// across seeds.
constexpr double WarmupRate = 200;
constexpr double LightRate = 100;
constexpr double HeavyRate = 200;
constexpr double LadderRates[] = {300, 450, 600, 750};
constexpr size_t LadderSteps = sizeof(LadderRates) / sizeof(LadderRates[0]);
constexpr double LatencyLimitMs = 100;
/// Shares of the fixed-rate steps' time. Traced runs give the fixed-rate
/// steps half of the run and the ladder the rest.
constexpr double LightShare = 0.4, HeavyShare = 0.6;
/// How long a step may wait for its stragglers before the next one starts.
constexpr double DrainCapS = 3;

struct Key {
  std::string Source;
  std::vector<uint64_t> Seeds;
  std::string Line;     ///< The request line after its `{"id":N` prefix.
  std::string Expected; ///< Reference result payload.
  DeterminacyCounts Counts;
  bool Usable = false; ///< The reference analysis succeeded.
  Pool From = Generated;
};

/// The reference answer: a serial single-shot run, as ServeTest checks.
void computeReference(Key &K) {
  DiagnosticEngine Diags;
  Program P = parseProgram(K.Source, Diags);
  if (Diags.hasErrors())
    return;
  AnalysisOptions Opts;
  Opts.RandomSeed = K.Seeds.front();
  AnalysisResult A = runDeterminacyAnalysisParallel(P, Opts, K.Seeds, 1);
  K.Usable = A.Ok && A.Trap == TrapKind::None;
  K.Expected = serve::analysisPayloadJson(A, Opts.Engine, K.Seeds);
  K.Counts.add(A);
}

/// Every key of every pool; references computed on \p Connections
/// threads.
std::vector<Key> buildKeys(Rng &Rand) {
  std::vector<Key> Keys;
  auto Add = [&](std::string Source, Pool From) {
    Key K;
    K.Source = std::move(Source);
    K.From = From;
    uint64_t Base = 1 + Rand.below(1u << 20);
    for (unsigned J = 0; J < SeedsPerRequest; ++J)
      K.Seeds.push_back(Base + J);
    Keys.push_back(std::move(K));
  };
  // Library keys, hot ones first, each with a tail of its own.
  uint64_t Tail = Rand.below(1'000'000);
  for (unsigned I = 0; I < HotKeys + LibraryKeys; ++I)
    Add(workloads::miniquery(static_cast<int>(I % 4)) + appTail(Tail + I),
        I < HotKeys ? Hot : Library);
  // The generated programs are the same for every workload seed, so runs
  // with different seeds offer the same mix of program sizes; the seed
  // picks their analysis seeds, the order and the schedule.
  for (unsigned I = 0; I < GeneratedKeys; ++I)
    Add(workloads::generateProgram(I), Generated);
  ThreadPool::parallelFor(Connections, Keys.size(),
                          [&](size_t I) { computeReference(Keys[I]); });
  Keys.erase(std::remove_if(Keys.begin(), Keys.end(),
                            [](const Key &K) { return !K.Usable; }),
             Keys.end());
  // Between two uses of a cold key, Count / Share requests pass, and the
  // cold ones among them insert distinct results; with a margin, they
  // must evict the key before it recurs.
  std::array<size_t, NumPools> Count = {};
  for (const Key &K : Keys)
    ++Count[K.From];
  const double Share[NumPools] = {HotShare, LibraryShare,
                                  1 - HotShare - LibraryShare};
  for (Pool P : {Library, Generated})
    if (double(Count[P]) / Share[P] * (1 - HotShare) <
        1.2 * ResultCacheEntries)
      throw std::runtime_error(std::string("serve_mixed: too few usable ") +
                               PoolNames[P] +
                               " keys to outgrow the result cache");
  if (Count[Hot] != HotKeys)
    throw std::runtime_error("serve_mixed: a hot key did not analyze");
  Rand.shuffle(Keys);
  for (Key &K : Keys) {
    K.Line = ",\"cmd\":\"analyze\",\"source\":";
    json::appendQuoted(K.Line, K.Source);
    K.Line += ",\"seeds\":[";
    for (size_t J = 0; J < K.Seeds.size(); ++J) {
      if (J)
        K.Line += ',';
      K.Line += std::to_string(K.Seeds[J]);
    }
    K.Line += "]}\n";
  }
  return Keys;
}

/// One request as scheduled, sent and answered.
struct Sample {
  Clock::time_point Due, Sent, Recv;
  uint32_t Key = 0;
  uint32_t ElapsedMs = 0;
  uint8_t Conn = 0;
  bool Done = false, Ok = false, Cached = false, Traced = false;
};

/// What one rate step measured.
struct Step {
  double Rate = 0;
  std::vector<double> LatencyMs; ///< Due to response; failures = miss.
  KeyedTimes PoolMs;             ///< LatencyMs by pool.
  std::vector<double> RttMs, ElapsedMs, WireMs;
  KeyedTimes TracedMs, UntracedMs; ///< Traced runs: by pool.
  size_t Failed = 0, Cached = 0;
  size_t Backlog = 0; ///< Outstanding when the step's last request left.
  double MaxLateMs = 0;

  double p99() const { return percentile(LatencyMs, 99); }
  /// The geometric mean over pools of each pool's median latency.
  double base() const { return PoolMs.geomean(50); }
  bool meetsLimit() const {
    return Failed == 0 && p99() <= LatencyLimitMs &&
           double(Backlog) <= std::max<double>(2.0 * Connections,
                                               Rate * LatencyLimitMs / 1000);
  }
};

/// The open-loop client: a seeded schedule, four non-blocking connections
/// polled from one thread, and a response check against the references.
class LoadGenerator {
public:
  LoadGenerator(const std::vector<Key> &Keys, Rng &Rand, Report &R)
      : Keys(Keys), Rand(Rand), R(R) {
    for (uint32_t I = 0; I < Keys.size(); ++I)
      Ids[Keys[I].From].push_back(I);
  }
  ~LoadGenerator() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }
  LoadGenerator(const LoadGenerator &) = delete;
  LoadGenerator &operator=(const LoadGenerator &) = delete;

  void connect(uint16_t Port) {
    for (Conn &C : Conns) {
      C.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in Addr = {};
      Addr.sin_family = AF_INET;
      Addr.sin_port = htons(Port);
      ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
      if (C.Fd < 0 ||
          ::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof(Addr)) != 0)
        throw std::runtime_error(std::string("serve_mixed: connect: ") +
                                 std::strerror(errno));
      ::fcntl(C.Fd, F_SETFL, ::fcntl(C.Fd, F_GETFL) | O_NONBLOCK);
    }
  }

  /// Ends the warm-up: later requests feed the metrics, and every other
  /// one is traced when \p Trace is set.
  void startMeasuring(Tracer *Trace) {
    T = Trace;
    MeasureFrom = Samples.size();
  }

  /// Sends a seeded Poisson schedule at \p Rate for \p Seconds, then waits
  /// (up to DrainCapS) for its responses.
  Step run(double Rate, double Seconds) {
    Step S;
    S.Rate = Rate;
    std::vector<double> Offsets;
    for (double At = 0;;) {
      At += -std::log(1.0 - Rand.unit()) / Rate;
      if (At >= Seconds)
        break;
      Offsets.push_back(At);
    }
    size_t First = Samples.size();
    Clock::time_point Start = Clock::now() + std::chrono::milliseconds(1);
    for (double At : Offsets) {
      Sample X;
      X.Due = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(At));
      X.Key = pickKey();
      X.Traced = T && Samples.size() % 2 == 0;
      Samples.push_back(X);
    }
    for (size_t Next = First; Next < Samples.size();) {
      Clock::time_point Now = Clock::now();
      while (Next < Samples.size() && Samples[Next].Due <= Now) {
        S.MaxLateMs = std::max(S.MaxLateMs, msBetween(Samples[Next].Due, Now));
        send(Next++, Now);
      }
      if (Next < Samples.size())
        pump(Samples[Next].Due);
    }
    S.Backlog = Outstanding;
    collect(First, S);
    return S;
  }

  /// Waits (up to DrainCapS) for the responses to requests First.. and
  /// fills \p S from them.
  void collect(size_t First, Step &S) {
    Clock::time_point DrainEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(DrainCapS));
    while (Outstanding > 0 && Clock::now() < DrainEnd)
      pump(std::min(DrainEnd, Clock::now() + std::chrono::milliseconds(20)));

    Clock::time_point Now = Clock::now();
    for (size_t I = First; I < Samples.size(); ++I) {
      const Sample &X = Samples[I];
      double Latency = msBetween(X.Due, X.Done ? X.Recv : Now);
      if (!X.Done || !X.Ok) {
        ++S.Failed;
        Latency = std::max(Latency, 1000 * DrainCapS);
      } else {
        double Rtt = msBetween(X.Sent, X.Recv);
        S.RttMs.push_back(Rtt);
        S.ElapsedMs.push_back(X.ElapsedMs);
        S.WireMs.push_back(std::max(0.0, Rtt - X.ElapsedMs));
        S.Cached += X.Cached;
        if (T)
          (X.Traced ? S.TracedMs : S.UntracedMs)
              .add(PoolNames[Keys[X.Key].From], Latency);
      }
      S.LatencyMs.push_back(Latency);
      S.PoolMs.add(PoolNames[Keys[X.Key].From], Latency);
    }
  }

  /// Fails every request still unanswered; call once all steps are done.
  void finish() {
    Clock::time_point DrainEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(DrainCapS));
    while (Outstanding > 0 && Clock::now() < DrainEnd)
      pump(std::min(DrainEnd, Clock::now() + std::chrono::milliseconds(20)));
    for (size_t I = 0; I < Samples.size(); ++I)
      if (!Samples[I].Done)
        R.fail("request " + std::to_string(I) + ": no response", false);
    R.Attempted += Samples.size();
  }

  /// Determinacy counts of every analysis the server ran (responses that
  /// were not served from the result cache).
  DeterminacyCounts analyzed() const {
    DeterminacyCounts D;
    for (size_t I = MeasureFrom; I < Samples.size(); ++I)
      if (Samples[I].Done && Samples[I].Ok && !Samples[I].Cached)
        D.add(Keys[Samples[I].Key].Counts);
    return D;
  }

private:
  struct Conn {
    int Fd = -1;
    std::string Out;
    size_t OutOff = 0;
    std::string In;
    unsigned Outstanding = 0;
  };

  /// Draws the pool, then a random hot key or the next key of the cold
  /// pool's cycle.
  uint32_t pickKey() {
    double U = Rand.unit();
    if (U < HotShare)
      return Ids[Hot][Rand.below(Ids[Hot].size())];
    Pool P = U < HotShare + LibraryShare ? Library : Generated;
    size_t &Pos = Cursor[P];
    uint32_t K = Ids[P][Pos];
    Pos = (Pos + 1) % Ids[P].size();
    return K;
  }

  /// Queues request \p Id on the connection with the fewest outstanding.
  void send(size_t Id, Clock::time_point Now) {
    size_t Best = 0;
    for (size_t I = 1; I < Conns.size(); ++I)
      if (Conns[I].Outstanding < Conns[Best].Outstanding)
        Best = I;
    Conn &C = Conns[Best];
    Sample &X = Samples[Id];
    C.Out += "{\"id\":" + std::to_string(Id);
    C.Out += Keys[X.Key].Line;
    X.Sent = Now;
    X.Conn = static_cast<uint8_t>(Best);
    ++C.Outstanding;
    ++Outstanding;
    flush(C);
  }

  void flush(Conn &C) {
    while (C.OutOff < C.Out.size()) {
      ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff,
                         C.Out.size() - C.OutOff, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        if (errno == EINTR)
          continue;
        throw std::runtime_error(std::string("serve_mixed: send: ") +
                                 std::strerror(errno));
      }
      C.OutOff += static_cast<size_t>(N);
    }
    if (C.OutOff == C.Out.size()) {
      C.Out.clear();
      C.OutOff = 0;
    }
  }

  /// Waits for socket events until \p Until at the latest and handles
  /// them.
  void pump(Clock::time_point Until) {
    std::array<pollfd, Connections> Fds;
    for (size_t I = 0; I < Conns.size(); ++I)
      Fds[I] = {Conns[I].Fd,
                static_cast<short>(POLLIN | (Conns[I].Out.empty() ? 0
                                                                   : POLLOUT)),
                0};
    auto Wait = std::max(Clock::duration::zero(), Until - Clock::now());
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Wait);
    timespec Ts = {static_cast<time_t>(Ns.count() / 1000000000),
                   static_cast<long>(Ns.count() % 1000000000)};
    int N = ::ppoll(Fds.data(), Fds.size(), &Ts, nullptr);
    if (N < 0) {
      if (errno == EINTR)
        return;
      throw std::runtime_error(std::string("serve_mixed: poll: ") +
                               std::strerror(errno));
    }
    for (size_t I = 0; I < Conns.size(); ++I) {
      if (Fds[I].revents & POLLOUT)
        flush(Conns[I]);
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
        receive(Conns[I]);
    }
  }

  void receive(Conn &C) {
    char Buf[64 * 1024];
    while (true) {
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (N > 0) {
        C.In.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      if (N < 0 && errno == EINTR)
        continue;
      throw std::runtime_error("serve_mixed: the server closed a connection");
    }
    Clock::time_point Now = Clock::now();
    size_t Pos = 0, NL;
    while ((NL = C.In.find('\n', Pos)) != std::string::npos) {
      onResponse(std::string_view(C.In).substr(Pos, NL - Pos), Now);
      Pos = NL + 1;
    }
    C.In.erase(0, Pos);
  }

  /// Parses `{"id":N,"cached":B,"elapsed_ms":E,"result":P}` and checks P.
  void onResponse(std::string_view Line, Clock::time_point Now) {
    auto Eat = [&](std::string_view Lit) {
      if (Line.substr(0, Lit.size()) != Lit)
        return false;
      Line.remove_prefix(Lit.size());
      return true;
    };
    auto Number = [&](uint64_t &Out) {
      size_t I = 0;
      Out = 0;
      while (I < Line.size() && Line[I] >= '0' && Line[I] <= '9')
        Out = Out * 10 + uint64_t(Line[I++] - '0');
      Line.remove_prefix(I);
      return I > 0;
    };
    uint64_t Id = 0, Elapsed = 0;
    bool Cached = false;
    if (!Eat("{\"id\":") || !Number(Id) || Id >= Samples.size() ||
        Samples[Id].Done) {
      R.fail("unattributable response: " + std::string(Line.substr(0, 80)),
             false);
      return;
    }
    Sample &X = Samples[Id];
    X.Done = true;
    X.Recv = Now;
    --Conns[X.Conn].Outstanding;
    --Outstanding;
    if (Eat(",\"cached\":true"))
      Cached = true;
    else if (!Eat(",\"cached\":false"))
      Line = {};
    if (!Eat(",\"elapsed_ms\":") || !Number(Elapsed) ||
        !Eat(",\"result\":") || Line.empty() || Line.back() != '}') {
      R.fail("request " + std::to_string(Id) + ": malformed response", false);
      return;
    }
    Line.remove_suffix(1);
    X.Cached = Cached;
    X.ElapsedMs = static_cast<uint32_t>(Elapsed);
    X.Ok = Line == Keys[X.Key].Expected;
    if (!X.Ok) {
      bool IsError = Line.substr(0, 18) == "{\"status\":\"error\"";
      R.fail("request " + std::to_string(Id) + ": " +
                 (IsError ? std::string(Line.substr(0, 120))
                          : std::string("result differs from the reference")),
             !IsError);
    }
    if (T && X.Traced) {
      uint32_t Root = T->add("request", Id, Tracer::None, X.Due, X.Recv);
      T->add("generator_late", Id, Root, X.Due, X.Sent);
      T->add("serve.elapsed", Id, Root,
             std::max(X.Sent, X.Recv - std::chrono::milliseconds(Elapsed)),
             X.Recv);
    }
  }

  const std::vector<Key> &Keys;
  Rng &Rand;
  Report &R;
  Tracer *T = nullptr;
  std::array<Conn, Connections> Conns;
  std::vector<Sample> Samples;
  size_t MeasureFrom = 0;
  size_t Outstanding = 0;
  std::array<std::vector<uint32_t>, NumPools> Ids; ///< Keys by pool.
  std::array<size_t, NumPools> Cursor = {};        ///< Cold cycle positions.
};

/// max_rps: the highest ladder rate that meets the limit, interpolated on
/// log p99 towards the first step that does not.
double maxRps(const std::vector<Step> &Steps) {
  size_t I = 0;
  while (I < Steps.size() && Steps[I].meetsLimit())
    ++I;
  if (I == Steps.size()) {
    std::fprintf(stderr, "perfbench: every ladder step met the limit; "
                         "max_rps is the ladder's top\n");
    return Steps.back().Rate;
  }
  if (I == 0) {
    std::fprintf(stderr, "perfbench: no ladder step met the limit\n");
    return Steps[0].Rate * LatencyLimitMs / std::max(Steps[0].p99(), 1e-9);
  }
  const Step &Lo = Steps[I - 1], &Hi = Steps[I];
  double Frac = 0.5;
  if (Hi.Failed == 0 && Hi.p99() > LatencyLimitMs && Lo.p99() > 0)
    Frac = std::log(LatencyLimitMs / Lo.p99()) / std::log(Hi.p99() / Lo.p99());
  return Lo.Rate + std::clamp(Frac, 0.0, 1.0) * (Hi.Rate - Lo.Rate);
}

void logStep(const char *Name, const Step &S) {
  std::fprintf(stderr,
               "perfbench: step %-6s rate %6.0f/s  sent %5zu  base %7.2f ms  "
               "p99 %8.2f ms  backlog %4zu  late max %6.2f ms  failed %zu  "
               "p50 by pool: %s\n",
               Name, S.Rate, S.LatencyMs.size(), S.base(), S.p99(), S.Backlog,
               S.MaxLateMs, S.Failed, S.PoolMs.medians().c_str());
}

} // namespace

void runServeMixed(const RunConfig &C, Report &R) {
  Rng Rand(C.Seed);
  std::vector<Key> Keys;
  Tracer T;
  std::unique_ptr<serve::Server> Server;
  std::unique_ptr<LoadGenerator> Gen;
  double SetupS = timedSetup([&] {
    if (Gen)
      Gen->finish();
    Gen.reset();
    Server.reset();
    Rand = Rng(C.Seed);
    Keys = buildKeys(Rand);
    serve::ServeOptions Opts;
    Opts.Port = 0;
    Opts.Jobs = ServerJobs;
    Server = std::make_unique<serve::Server>(Opts);
    std::string Err;
    if (!Server->start(&Err))
      throw std::runtime_error("serve_mixed: server start: " + Err);
    Gen = std::make_unique<LoadGenerator>(Keys, Rand, R);
    Gen->connect(Server->port());
    // First-touch warm-up: the hot set and the head of the cold cycle.
    logStep("warmup", Gen->run(WarmupRate, 0.5));
  });
  Gen->startMeasuring(C.Trace ? &T : nullptr);

  double FixedS = C.Trace ? C.Seconds / 2 : C.Seconds;
  Step Light = Gen->run(LightRate, FixedS * LightShare);
  logStep("light", Light);
  Step Heavy = Gen->run(HeavyRate, FixedS * HeavyShare);
  logStep("heavy", Heavy);
  std::vector<Step> Ladder;
  if (C.Trace) {
    for (double Rate : LadderRates) {
      Ladder.push_back(Gen->run(Rate, (C.Seconds - FixedS) / LadderSteps));
      logStep("ladder", Ladder.back());
    }
  }
  Gen->finish();
  uint64_t MaxActive = Server->stats().MaxActiveRequests.load();
  DeterminacyCounts Det = Gen->analyzed();
  Gen.reset();
  Server->stop();

  if (!C.Trace) {
    addEndToEnd(R, SetupS, Heavy.base(), Light.base());
    return;
  }
  double MaxLate = std::max(Light.MaxLateMs, Heavy.MaxLateMs);
  for (const Step &S : Ladder)
    MaxLate = std::max(MaxLate, S.MaxLateMs);
  R.add("serve.max_rps", maxRps(Ladder), "1/s");
  R.add("serve.rtt_ms.p50", percentile(Heavy.RttMs, 50), "ms");
  R.add("serve.rtt_ms.p99", percentile(Heavy.RttMs, 99), "ms");
  R.add("serve.elapsed_ms.p50", percentile(Heavy.ElapsedMs, 50), "ms");
  R.add("serve.elapsed_ms.p99", percentile(Heavy.ElapsedMs, 99), "ms");
  R.add("serve.wire_ms.p50", percentile(Heavy.WireMs, 50), "ms");
  R.add("serve.light_ms.p99", Light.p99(), "ms");
  // Over the fixed-rate steps: past the knee, the connections drain their
  // backlogs at different speeds, which reorders the cold cycle enough for
  // some cold requests to hit.
  R.add("serve.cache_hit_frac",
        per(Light.Cached + Heavy.Cached,
            Light.RttMs.size() + Heavy.RttMs.size()),
        "ratio");
  R.add("serve.max_active", double(MaxActive), "count");
  R.add("serve.gen_late_ms.max", MaxLate, "ms");
  R.add("serve.backlog", double(Heavy.Backlog), "count");
  // The analysis runs inside the server, out of the runner's sight: its
  // time is part of serve.elapsed, and its counts come from the reference
  // runs of the requests that missed the result cache.
  R.add("determinacy.ms", 0, "ms");
  R.add("determinacy.share", 0, "ratio");
  Det.report(R, 0);
  R.add("op_ms.tail", percentile(Heavy.LatencyMs, 99), "ms");
  TraceView(T).addSummary(R, {"generator_late"}, Heavy.TracedMs.geomean(50),
                          Heavy.UntracedMs.geomean(50));
  writeTrace(C, T);
}

} // namespace perfbench
