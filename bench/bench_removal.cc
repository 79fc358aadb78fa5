// Removal-path benchmark: how fast does the Rete matcher retract?
// One join-heavy rule per team is driven through three phases — a bulk add
// transaction, a bulk remove transaction retracting half the WMEs, and a
// churn loop of remove+re-add transactions that hammers the token arena
// free lists — at sequential and parallel thread counts. Run with `--json`
// to also write BENCH_removal.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace sorel {
namespace bench {
namespace {

constexpr int kRules = 16;
constexpr int kPlayers = 2048;
constexpr int kChurnRounds = 4;
constexpr int kChurnSize = 256;

/// One rule per team; CE1 x CE2 is a non-equijoin (`<=`) so every team's
/// alpha memory joins quadratically — plenty of tokens to retract — and
/// the never-matching CE3 keeps the conflict set empty by construction.
std::string RemovalProgram(int rules) {
  std::string src = kPlayerSchema;
  for (int k = 0; k < rules; ++k) {
    const std::string t = "team" + std::to_string(k);
    src += "(p churn-" + std::to_string(k) + " (player ^team " + t +
           " ^id <i> ^score <s>) (player ^team " + t +
           " ^score <= <s>) (player ^id 999999) --> (write x))";
  }
  return src;
}

struct Measured {
  double add_ms = 0;
  double remove_ms = 0;
  double churn_ms = 0;
  Engine::MatchStats stats;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Measured RunOnce(int threads) {
  EngineOptions options;
  options.matcher = MatcherKind::kRete;
  options.match_threads = threads;
  Engine engine(options);
  engine.set_output(DevNull());
  MustLoad(engine, RemovalProgram(kRules));
  engine.ResetMatchStats();

  Measured m;
  std::vector<TimeTag> live;
  live.reserve(kPlayers);
  int next_id = 0;
  auto make_player = [&](Engine& e) {
    live.push_back(MustMake(
        e, "player",
        {{"team", e.Sym("team" + std::to_string(next_id % kRules))},
         {"id", Value::Int(next_id)},
         {"score", Value::Int(next_id % 17)}}));
    ++next_id;
  };

  auto t0 = std::chrono::steady_clock::now();
  engine.wm().Begin();
  for (int i = 0; i < kPlayers; ++i) make_player(engine);
  Check(engine.wm().Commit(), "add commit");
  m.add_ms = MsSince(t0);

  auto t1 = std::chrono::steady_clock::now();
  engine.wm().Begin();
  std::vector<TimeTag> survivors;
  survivors.reserve(live.size() / 2);
  for (size_t i = 0; i < live.size(); ++i) {
    if (i % 2 == 0) {
      Check(engine.RemoveWme(live[i]), "RemoveWme");
    } else {
      survivors.push_back(live[i]);
    }
  }
  Check(engine.wm().Commit(), "remove commit");
  m.remove_ms = MsSince(t1);
  live = std::move(survivors);

  auto t2 = std::chrono::steady_clock::now();
  for (int round = 0; round < kChurnRounds; ++round) {
    engine.wm().Begin();
    for (int i = 0; i < kChurnSize; ++i) {
      Check(engine.RemoveWme(live[static_cast<size_t>(i)]), "churn remove");
    }
    live.erase(live.begin(), live.begin() + kChurnSize);
    for (int i = 0; i < kChurnSize; ++i) make_player(engine);
    Check(engine.wm().Commit(), "churn commit");
  }
  m.churn_ms = MsSince(t2);

  m.stats = engine.match_stats();
  // Removal recycles dead tokens through the arena free lists, so the
  // churn loop must produce pool hits — zero means recycling regressed.
  if (m.stats.rete.token_pool_hits == 0) {
    std::fprintf(stderr,
                 "bench_removal: rete.token_pool_hits == 0 after churn "
                 "(threads=%d) — token recycling is broken\n",
                 threads);
    std::abort();
  }
  return m;
}

void PrintTable(JsonReport* report) {
  std::printf("=== removal path: bulk token-tree deletion ===\n");
  std::printf("%d rules (one per team), %d players added in 1 transaction,\n"
              "half removed in a second, then %d churn rounds of %d "
              "remove+re-add\n\n",
              kRules, kPlayers, kChurnRounds, kChurnSize);
  if (report != nullptr) {
    report->Config("rules", kRules);
    report->Config("players", kPlayers);
    report->Config("churn_rounds", kChurnRounds);
    report->Config("churn_size", kChurnSize);
    report->Config("host_cores", std::thread::hardware_concurrency());
  }
  std::printf("%8s | %8s %9s %8s | %9s %7s %7s\n", "threads", "add ms",
              "remove ms", "churn ms", "pool hits", "bulkdel", "slabs");
  // Discarded warmup: the process's first run pays one-time costs (page
  // faults, lazy allocator growth) that would otherwise land entirely on
  // the first table row.
  RunOnce(0);
  for (int threads : {0, 4}) {
    Measured m = RunOnce(threads);
    std::printf("%8d | %8.2f %9.2f %8.2f | %9llu %7llu %7llu\n", threads,
                m.add_ms, m.remove_ms, m.churn_ms,
                static_cast<unsigned long long>(m.stats.rete.token_pool_hits),
                static_cast<unsigned long long>(m.stats.rete.bulk_deletes),
                static_cast<unsigned long long>(m.stats.rete.arena_slabs));
    if (report != nullptr) {
      report->BeginRow("threads=" + std::to_string(threads));
      report->Value("threads", threads);
      report->Value("add_ms", m.add_ms);
      report->Value("remove_ms", m.remove_ms);
      report->Value("churn_ms", m.churn_ms);
      report->MatchStats(m.stats);
      // Not part of the MatchStats flatten, but this bench is precisely
      // about them.
      report->Value("rete.bulk_deletes",
                    static_cast<double>(m.stats.rete.bulk_deletes));
      report->Value("rete.arena_slabs",
                    static_cast<double>(m.stats.rete.arena_slabs));
      report->Value("wm.wme_pool_hits",
                    static_cast<double>(m.stats.wm.wme_pool_hits));
      report->Value("wm.wme_slabs",
                    static_cast<double>(m.stats.wm.wme_slabs));
    }
  }
  std::printf("\n(bulk deletion compacts each dirty output/child/anchor\n"
              " container once per flush; the arenas keep dead tokens on\n"
              " per-rule free lists so churn stops round-tripping through\n"
              " the heap)\n\n");
}

void BM_RemovalChurn(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Measured m = RunOnce(threads);
    benchmark::DoNotOptimize(m.remove_ms);
  }
  state.SetLabel("threads=" + std::to_string(threads));
  state.SetItemsProcessed(state.iterations() * kPlayers);
}
BENCHMARK(BM_RemovalChurn)->Arg(0)->Arg(4);

}  // namespace
}  // namespace bench
}  // namespace sorel

int main(int argc, char** argv) {
  bool json = sorel::bench::StripJsonFlag(&argc, argv);
  sorel::bench::JsonReport report("removal");
  sorel::bench::PrintTable(json ? &report : nullptr);
  if (json && !report.Write()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
