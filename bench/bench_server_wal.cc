// Server WAL benchmark: what durability costs. Three timed measurements —
// raw CRC-framed appends across the fsync batching sweep (the group-commit
// knob), journaled session mutations vs the bare engine (per-command WAL
// overhead), and recovery replay throughput (records/sec through the
// normal batch path at Session::Open) — plus, under `--json`, a
// deterministic table (journal/recovery/shared-base byte and record
// counters for a fixed workload) written to BENCH_server_wal.json for the
// bench_compare CI gate.

#include <benchmark/benchmark.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "server/engine_server.h"
#include "server/session.h"
#include "server/wal.h"

namespace sorel {
namespace server {
namespace {

constexpr const char* kRules = R"(
(literalize item id cat val)
(p promote { (item ^cat A ^val <v>) <i> } -->
  (modify <i> ^cat B ^val (compute <v> * 2)))
)";

std::string TempPath(const char* stem) {
  std::string path = "/tmp/sorel_bench_wal_XXXXXX";
  int fd = ::mkstemp(path.data());
  if (fd >= 0) ::close(fd);
  return path + "." + stem;
}

void BM_WalAppend(benchmark::State& state) {
  const int fsync_every = static_cast<int>(state.range(0));
  // A typical journaled batch payload is ~100 bytes of JSON.
  const std::string payload(96, 'x');
  std::string path = TempPath("append");
  uint64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(path.c_str());
    WalWriter writer;
    if (!writer.Open(path, fsync_every).ok()) state.SkipWithError("open");
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(writer.Append(payload));
    }
    if (!writer.Sync().ok()) state.SkipWithError("sync");
    records += 256;
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.SetLabel("fsync_every=" + std::to_string(fsync_every));
}
BENCHMARK(BM_WalAppend)->Arg(1)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

/// Makes through a journaled session (WAL on) vs the bare engine; the gap
/// is the per-command durability cost at the given fsync batching.
void BM_JournaledMake(benchmark::State& state) {
  const int fsync_every = static_cast<int>(state.range(0));
  const bool journaled = fsync_every > 0;
  std::string dir = "/tmp/sorel_bench_wal_session_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    state.SkipWithError("mkdtemp");
    return;
  }
  uint64_t made = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::remove((dir + "/s.wal").c_str());
    Engine bare;
    std::unique_ptr<Session> session;
    if (journaled) {
      SessionOptions options;
      options.fsync_every = fsync_every;
      auto opened = Session::Open("s", kRules, dir, options);
      if (!opened.ok()) {
        state.SkipWithError("open");
        break;
      }
      session = std::move(*opened);
    } else if (!bare.LoadString(kRules).ok()) {
      state.SkipWithError("load");
      break;
    }
    SymbolTable& symbols =
        journaled ? session->engine().symbols() : bare.symbols();
    Value cat = Value::Symbol(symbols.Intern("C"));
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      std::vector<std::pair<std::string, Value>> attrs = {
          {"id", Value::Int(i)}, {"cat", cat}, {"val", Value::Int(i % 7)}};
      if (journaled) {
        benchmark::DoNotOptimize(session->Make("item", attrs));
      } else {
        benchmark::DoNotOptimize(bare.MakeWme("item", attrs));
      }
    }
    made += 256;
  }
  std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(made));
  state.SetLabel(journaled ? "wal fsync_every=" + std::to_string(fsync_every)
                           : "bare engine");
}
// 0 = no WAL (bare engine baseline), then the batching sweep.
BENCHMARK(BM_JournaledMake)->Arg(0)->Arg(1)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Recovery replay: Open a session whose WAL holds `range(0)` records.
void BM_Recovery(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  std::string dir = "/tmp/sorel_bench_wal_recover_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    state.SkipWithError("mkdtemp");
    return;
  }
  {
    SessionOptions options;
    options.fsync_every = 64;
    auto session = Session::Open("s", kRules, dir, options);
    if (!session.ok()) {
      state.SkipWithError("open");
      return;
    }
    SymbolTable& symbols = (*session)->engine().symbols();
    Value cat = Value::Symbol(symbols.Intern("C"));
    for (int i = 0; i < records; ++i) {
      (void)(*session)->Make("item", {{"id", Value::Int(i)},
                                      {"cat", cat},
                                      {"val", Value::Int(i % 7)}});
    }
  }
  uint64_t replayed = 0;
  for (auto _ : state) {
    SessionOptions options;
    auto session = Session::Open("s", kRules, dir, options);
    if (!session.ok()) {
      state.SkipWithError("recover");
      break;
    }
    replayed += (*session)->recovery().replayed_records;
  }
  std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(replayed));
}
BENCHMARK(BM_Recovery)->Arg(256)->Arg(2048)->Unit(benchmark::kMillisecond);

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/// What a recovered engine must reproduce, as comparable strings (the
/// bench-local stand-in for the test suites' full fingerprint).
std::string StateKey(Engine& engine) {
  std::ostringstream out;
  engine.DumpWm(out);
  out << "|next_tag=" << engine.wm().next_time_tag();
  return out.str();
}

/// The deterministic section behind the bench_compare CI gate: a fixed
/// journal/replay/share workload whose byte and record counters must not
/// drift between commits without refreshing the committed seed JSON.
/// Timing columns are reported but excluded from the comparison (`*_ms`).
void PrintTable(bench::JsonReport* report) {
  constexpr int kMakes = 512;
  constexpr int kSessions = 4;
  std::printf("=== server WAL: journal, replay, shared rule base ===\n");
  std::printf("%d journaled makes + runs, snapshot round trip, then %d "
              "server sessions\nbound to one compiled rule base\n\n",
              kMakes, kSessions);
  if (report != nullptr) {
    report->Config("makes", kMakes);
    report->Config("sessions", kSessions);
  }

  // -- journal + replay -------------------------------------------------
  std::string dir = "/tmp/sorel_bench_wal_table_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) return;
  SessionOptions options;
  options.fsync_every = 64;
  options.trace_firings = false;
  std::string live_key;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  double journal_ms = 0;
  {
    auto session = Session::Open("s", kRules, dir, options);
    if (!session.ok()) return;
    auto start = std::chrono::steady_clock::now();
    SymbolTable& symbols = (*session)->engine().symbols();
    Value cat = Value::Symbol(symbols.Intern("A"));
    for (int i = 0; i < kMakes; ++i) {
      (void)(*session)->Make("item", {{"id", Value::Int(i)},
                                      {"cat", cat},
                                      {"val", Value::Int(i % 13)}});
    }
    (void)(*session)->Run(-1);
    (void)(*session)->SyncWal();
    journal_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    live_key = StateKey((*session)->engine());
    auto wal = ReadWal((*session)->wal_path());
    if (wal.ok()) wal_records = wal->records.size();
    wal_bytes = FileBytes((*session)->wal_path());
  }
  double replay_ms = 0;
  uint64_t replayed = 0;
  bool identical = false;
  {
    auto start = std::chrono::steady_clock::now();
    auto recovered = Session::Open("s", kRules, dir, options);
    replay_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (recovered.ok()) {
      replayed = (*recovered)->recovery().replayed_records;
      identical = StateKey((*recovered)->engine()) == live_key;
    }
  }
  std::printf("journal: %llu records, %llu bytes, %.2f ms; replay: %llu "
              "records in %.2f ms, identical=%s\n",
              static_cast<unsigned long long>(wal_records),
              static_cast<unsigned long long>(wal_bytes), journal_ms,
              static_cast<unsigned long long>(replayed), replay_ms,
              identical ? "yes" : "NO");
  if (report != nullptr) {
    report->BeginRow("journal");
    report->Value("wal.records", static_cast<double>(wal_records));
    report->Value("wal.bytes", static_cast<double>(wal_bytes));
    report->Value("journal_ms", journal_ms);
    report->BeginRow("replay");
    report->Value("recovery.replayed_records", static_cast<double>(replayed));
    report->Value("recovery.bit_identical", identical ? 1 : 0);
    report->Value("replay_ms", replay_ms);
  }

  // -- shared compiled rule base ----------------------------------------
  std::string server_dir = dir + "/srv";
  EngineServerOptions sopts;
  sopts.data_dir = server_dir;
  auto server = EngineServer::Create(kRules, sopts);
  uint64_t base_bytes = 0;
  int resident = 0;
  double open_ms = 0;
  if (server.ok()) {
    auto start = std::chrono::steady_clock::now();
    for (int s = 0; s < kSessions; ++s) {
      (void)(*server)->HandleLine("{\"cmd\":\"open\",\"session\":\"s" +
                                  std::to_string(s) + "\"}");
    }
    open_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    base_bytes = (*server)->rule_base()->MemoryBytes();
    resident = (*server)->sessions_resident();
  }
  std::printf("shared base: %llu bytes serving %d sessions (%llu bytes "
              "saved vs per-session compiles)\n\n",
              static_cast<unsigned long long>(base_bytes), resident,
              static_cast<unsigned long long>(base_bytes * (kSessions - 1)));
  if (report != nullptr) {
    report->BeginRow("shared_base/sessions=" + std::to_string(kSessions));
    report->Value("server.rule_base_bytes", static_cast<double>(base_bytes));
    report->Value("server.sessions_resident", resident);
    report->Value("server.bytes_saved",
                  static_cast<double>(base_bytes * (kSessions - 1)));
    report->Value("open_ms", open_ms);
  }
  std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());
}

}  // namespace
}  // namespace server
}  // namespace sorel

int main(int argc, char** argv) {
  bool json = sorel::bench::StripJsonFlag(&argc, argv);
  sorel::bench::JsonReport report("server_wal");
  sorel::server::PrintTable(json ? &report : nullptr);
  if (json && !report.Write()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
