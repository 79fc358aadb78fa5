// Tentpole experiment: multi-threaded match propagation over ChangeBatches.
// A wide multi-rule program (one join-heavy rule per team) is driven with
// one large add transaction, one large remove transaction, and a smaller
// re-add transaction (which must recycle the removed tokens); with
// `match_threads` = N each matcher fans the batch out per rule (Rete
// replays beta chains, TREAT re-searches, DIPS refreshes) and the buffered
// conflict-set sends merge deterministically. The rules' final CE never
// matches, so conflict-set traffic is ~zero by construction and the
// measured time is the parallelizable join work — the speedup ceiling the
// deterministic merge leaves intact. Run with `--json` to also write
// BENCH_parallel_match.json.

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

constexpr int kRules = 32;
constexpr int kPlayers = 4096;

/// One rule per team. CE1 x CE2 is a non-equijoin (`<=`), so every team-k
/// add scans team k's alpha memory — O(m^2) join attempts per team, all of
/// it rule-private beta work. CE3 never matches: the chain does full join
/// work but emits nothing, keeping the serialized merge phase empty.
std::string HeavyRules(int rules) {
  std::string src;
  for (int k = 0; k < rules; ++k) {
    const std::string t = "team" + std::to_string(k);
    src += "(p heavy-" + std::to_string(k) + " (player ^team " + t +
           " ^id <i> ^score <s>) (player ^team " + t +
           " ^score <= <s>) (player ^id 999999) --> (write x))";
  }
  return src;
}

std::string HeavyProgram(int rules) {
  return std::string(kPlayerSchema) + HeavyRules(rules);
}

struct Measured {
  double add_ms = 0;
  double remove_ms = 0;
  double readd_ms = 0;
  Engine::MatchStats stats;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Adds `players` WMEs in one transaction, removes half in another, then
/// adds a quarter more in a third, timing each commit's match propagation.
/// The re-add lands on the token storage the removals just vacated, so for
/// Rete it must be served from the arena free lists — the run aborts if
/// the recycling counter stayed at zero.
Measured RunOnce(MatcherKind kind, int threads, int rules, int players) {
  EngineOptions options;
  options.matcher = kind;
  options.match_threads = threads;
  Engine engine(options);
  engine.set_output(DevNull());
  MustLoad(engine, HeavyProgram(rules));
  engine.ResetMatchStats();

  Measured m;
  std::vector<TimeTag> tags;
  tags.reserve(players);
  auto t0 = std::chrono::steady_clock::now();
  engine.wm().Begin();
  for (int i = 0; i < players; ++i) {
    tags.push_back(MustMake(
        engine, "player",
        {{"team", engine.Sym("team" + std::to_string(i % rules))},
         {"id", Value::Int(i)},
         {"score", Value::Int(i % 17)}}));
  }
  Check(engine.wm().Commit(), "add commit");
  m.add_ms = MsSince(t0);

  auto t1 = std::chrono::steady_clock::now();
  engine.wm().Begin();
  for (size_t i = 0; i < tags.size(); i += 2) {
    Check(engine.RemoveWme(tags[i]), "RemoveWme");
  }
  Check(engine.wm().Commit(), "remove commit");
  m.remove_ms = MsSince(t1);

  auto t2 = std::chrono::steady_clock::now();
  engine.wm().Begin();
  for (int i = 0; i < players / 4; ++i) {
    MustMake(engine, "player",
             {{"team", engine.Sym("team" + std::to_string(i % rules))},
              {"id", Value::Int(players + i)},
              {"score", Value::Int(i % 17)}});
  }
  Check(engine.wm().Commit(), "re-add commit");
  m.readd_ms = MsSince(t2);

  m.stats = engine.match_stats();
  if (kind == MatcherKind::kRete && m.stats.rete.token_pool_hits == 0) {
    std::fprintf(stderr,
                 "bench_parallel_match: rete.token_pool_hits == 0 after the "
                 "re-add phase — removal stopped recycling tokens into the "
                 "arena free lists\n");
    std::abort();
  }
  return m;
}

const char* KindName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kRete:
      return "Rete";
    case MatcherKind::kTreat:
      return "TREAT";
    case MatcherKind::kDips:
      return "DIPS";
    case MatcherKind::kPlan:
      return "plan";
  }
  return "?";
}

void PrintTable(JsonReport* report) {
  std::printf("=== tentpole: multi-threaded batch match propagation ===\n");
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("%d rules (one per team), %d players added in 1 transaction,\n"
              "half removed in a second one; threads=0 is the sequential\n"
              "ablation baseline; host has %u core(s) — speedup is capped\n"
              "by that, not by the match layer\n\n", kRules, kPlayers, cores);
  if (report != nullptr) {
    report->Config("rules", kRules);
    report->Config("players", kPlayers);
    report->Config("host_cores", cores);
  }
  std::printf("%7s %8s | %10s %8s | %10s %8s | %9s | %9s %9s\n", "matcher",
              "threads", "add ms", "speedup", "remove ms", "speedup",
              "readd ms", "pool tasks", "depth");
  // Discarded warmup (see bench_removal): keep one-time process costs off
  // the first measured row.
  RunOnce(MatcherKind::kRete, 0, kRules, kPlayers);
  for (MatcherKind kind : {MatcherKind::kRete, MatcherKind::kTreat,
                           MatcherKind::kDips, MatcherKind::kPlan}) {
    double base_add = 0, base_remove = 0;
    for (int threads : {0, 1, 2, 4, 8}) {
      Measured m = RunOnce(kind, threads, kRules, kPlayers);
      if (threads == 0) {
        base_add = m.add_ms;
        base_remove = m.remove_ms;
      }
      std::printf(
          "%7s %8d | %10.2f %7.2fx | %10.2f %7.2fx | %9.2f | %9llu %9llu\n",
          KindName(kind), threads, m.add_ms, base_add / m.add_ms, m.remove_ms,
          base_remove / m.remove_ms, m.readd_ms,
          static_cast<unsigned long long>(m.stats.pool.tasks),
          static_cast<unsigned long long>(m.stats.pool.max_task_depth));
      if (report != nullptr) {
        report->BeginRow(std::string(KindName(kind)) +
                         "/threads=" + std::to_string(threads));
        report->Value("threads", threads);
        report->Value("add_ms", m.add_ms);
        report->Value("remove_ms", m.remove_ms);
        report->Value("readd_ms", m.readd_ms);
        report->Value("add_speedup", base_add / m.add_ms);
        report->Value("remove_speedup", base_remove / m.remove_ms);
        report->MatchStats(m.stats);
      }
    }
  }
  std::printf("\n(the per-rule beta/alpha work dominates and shards cleanly;\n"
              " the serialized parts — WM staging, alpha inserts, the\n"
              " conflict-set merge — stay on the coordinator)\n\n");
}

// --- intra-rule sweep (TREAT) ----------------------------------------------
//
// Two wide rules on purpose: with fewer rules than threads, the per-rule
// fan-out from the tentpole above cannot fill the pool, so any further
// speedup must come from splitting a single rule's work. TREAT slices the
// add-rule full search. Both phases are timed: `rule ms` loads the rules
// into an already-populated WM (the split site), `add ms` commits a second
// player batch (seeded searches, which never split). The split=0 rows at
// every thread count are the controls: the same pool with no slicing.

constexpr int kIntraRules = 2;
constexpr int kIntraPlayers = 2048;
constexpr int kIntraSecondBatch = 1024;

struct IntraMeasured {
  double rule_ms = 0;
  double add_ms = 0;
  Engine::MatchStats stats;
};

IntraMeasured RunIntraOnce(int threads, int split) {
  EngineOptions options;
  options.matcher = MatcherKind::kTreat;
  options.match_threads = threads;
  options.intra_rule_split_min_tokens = split;
  Engine engine(options);
  engine.set_output(DevNull());
  MustLoad(engine, kPlayerSchema);
  engine.wm().Begin();
  for (int i = 0; i < kIntraPlayers; ++i) {
    MustMake(engine, "player",
             {{"team", engine.Sym("team" + std::to_string(i % kIntraRules))},
              {"id", Value::Int(i)},
              {"score", Value::Int(i % 17)}});
  }
  Check(engine.wm().Commit(), "populate commit");
  engine.ResetMatchStats();

  IntraMeasured m;
  auto t0 = std::chrono::steady_clock::now();
  MustLoad(engine, HeavyRules(kIntraRules));
  m.rule_ms = MsSince(t0);

  auto t1 = std::chrono::steady_clock::now();
  engine.wm().Begin();
  for (int i = 0; i < kIntraSecondBatch; ++i) {
    MustMake(engine, "player",
             {{"team", engine.Sym("team" + std::to_string(i % kIntraRules))},
              {"id", Value::Int(kIntraPlayers + i)},
              {"score", Value::Int(i % 17)}});
  }
  Check(engine.wm().Commit(), "second add commit");
  m.add_ms = MsSince(t1);

  m.stats = engine.match_stats();
  return m;
}

void PrintIntraTable(JsonReport* report) {
  std::printf("=== intra-rule split sweep, TREAT (threshold x threads) ===\n");
  std::printf("%d rules only — too few to fill the pool rule-per-task; "
              "%d players\npre-loaded, rules added on top (the split "
              "site), then %d more\nplayers in one batch; threshold 0 "
              "disables splitting\n\n",
              kIntraRules, kIntraPlayers, kIntraSecondBatch);
  if (report != nullptr) {
    report->Config("rules", kIntraRules);
    report->Config("players", kIntraPlayers);
    report->Config("second_batch", kIntraSecondBatch);
    report->Config("host_cores", std::thread::hardware_concurrency());
  }
  std::printf("%7s %6s %8s | %9s %8s | %9s %8s | %7s %7s\n", "matcher",
              "split", "threads", "rule ms", "speedup", "add ms", "speedup",
              "splits", "slices");
  double base_rule = 0, base_add = 0;
  for (int split : {0, 1024, 256, 64}) {
    for (int threads : {0, 2, 4, 8}) {
      IntraMeasured m = RunIntraOnce(threads, split);
      if (split == 0 && threads == 0) {
        base_rule = m.rule_ms;
        base_add = m.add_ms;
      }
      std::printf(
          "%7s %6d %8d | %9.2f %7.2fx | %9.2f %7.2fx | %7llu %7llu\n",
          "TREAT", split, threads, m.rule_ms, base_rule / m.rule_ms, m.add_ms,
          base_add / m.add_ms,
          static_cast<unsigned long long>(m.stats.treat.intra_splits),
          static_cast<unsigned long long>(m.stats.treat.intra_slice_tasks));
      if (report != nullptr) {
        report->BeginRow("TREAT/split=" + std::to_string(split) +
                         "/threads=" + std::to_string(threads));
        report->Value("split_min_tokens", split);
        report->Value("threads", threads);
        report->Value("rule_ms", m.rule_ms);
        report->Value("add_ms", m.add_ms);
        report->Value("rule_speedup", base_rule / m.rule_ms);
        report->Value("add_speedup", base_add / m.add_ms);
        report->MatchStats(m.stats);
      }
    }
  }
  std::printf("\n(slice forks pay a per-search fork/merge toll, so the win\n"
              " depends on slice width: low thresholds over-shard small\n"
              " alphas, high thresholds never engage)\n\n");
}

void BM_ParallelMatchBatch(benchmark::State& state) {
  MatcherKind kind = static_cast<MatcherKind>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Measured m = RunOnce(kind, threads, 16, 1024);
    benchmark::DoNotOptimize(m.add_ms);
  }
  state.SetLabel(std::string(KindName(kind)) + " threads=" +
                 std::to_string(threads));
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ParallelMatchBatch)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({1, 0})
    ->Args({1, 4})
    ->Args({2, 0})
    ->Args({2, 4})
    ->Args({3, 0})
    ->Args({3, 4});

}  // namespace
}  // namespace bench
}  // namespace sorel

int main(int argc, char** argv) {
  bool json = sorel::bench::StripJsonFlag(&argc, argv);
  sorel::bench::JsonReport report("parallel_match");
  sorel::bench::PrintTable(json ? &report : nullptr);
  if (json && !report.Write()) return 1;
  sorel::bench::JsonReport intra_report("intra_rule");
  sorel::bench::PrintIntraTable(json ? &intra_report : nullptr);
  if (json && !intra_report.Write()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
