// Experiment B2: a macro workload in the style of the classic OPS5
// benchmark suite (Manners): run the dinner-seating program end-to-end on
// all three matchers, and compare the set-oriented completion test against
// the tuple-oriented one.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "examples/dinner_party_program.h"

namespace sorel {
namespace bench {
namespace {

int RunSeating(MatcherKind kind, int guests, bool set_oriented_done,
               bool indexed = true, int match_threads = 0) {
  EngineOptions options;
  options.matcher = kind;
  options.rete.use_indexed_joins = indexed;
  options.indexed_conflict_set = indexed;
  options.match_threads = match_threads;
  Engine engine(options);
  engine.set_output(DevNull());
  std::string rules = sorel_examples::kDinnerRules;
  if (!set_oriented_done) {
    // Swap the set-oriented completion rule for the tuple check.
    size_t cut = rules.find("(p all-seated");
    rules = rules.substr(0, cut);
    rules += sorel_examples::kDinnerDoneTuple;
  }
  MustLoad(engine, rules);
  MustLoad(engine, sorel_examples::DinnerPartyWm(guests));
  int fired = MustRun(engine, 10 * guests + 16);
  if (fired != guests + 1) {
    std::fprintf(stderr, "seating did not complete: %d firings for %d\n",
                 fired, guests);
    std::abort();
  }
  return fired;
}

void BM_SeatingWorkload(benchmark::State& state) {
  MatcherKind kind = static_cast<MatcherKind>(state.range(0));
  int guests = static_cast<int>(state.range(1));
  // TREAT and the plan matcher reject set-oriented rules.
  bool set_done =
      kind != MatcherKind::kTreat && kind != MatcherKind::kPlan;
  for (auto _ : state) {
    int fired = RunSeating(kind, guests, set_done);
    state.counters["firings"] = fired;
    benchmark::DoNotOptimize(fired);
  }
  const char* name =
      kind == MatcherKind::kRete
          ? "Rete"
          : (kind == MatcherKind::kTreat
                 ? "TREAT"
                 : (kind == MatcherKind::kPlan ? "plan" : "DIPS"));
  state.SetLabel(std::string(name) +
                 (set_done ? " (set-oriented done)" : " (tuple done)"));
  state.SetItemsProcessed(state.iterations() * guests);
}
BENCHMARK(BM_SeatingWorkload)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({2, 16})
    ->Args({3, 16})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({3, 64})
    ->Args({0, 128});

void BM_SeatingDoneVariant(benchmark::State& state) {
  bool set_done = state.range(0) != 0;
  int guests = static_cast<int>(state.range(1));
  for (auto _ : state) {
    int fired = RunSeating(MatcherKind::kRete, guests, set_done);
    benchmark::DoNotOptimize(fired);
  }
  state.SetLabel(set_done ? ":test (count) completion"
                          : "lastseat-counter completion");
}
BENCHMARK(BM_SeatingDoneVariant)->Args({1, 64})->Args({0, 64});

/// Ablation: hash-indexed join memories + ordered conflict set vs the
/// seed's linear scans, on the Rete matcher (the seat-next joins key on
/// `<k>`, `<prev>`, `<h>`, so most of the match work is index-eligible).
void BM_SeatingIndexedAblation(benchmark::State& state) {
  bool indexed = state.range(0) != 0;
  int guests = static_cast<int>(state.range(1));
  for (auto _ : state) {
    int fired = RunSeating(MatcherKind::kRete, guests,
                           /*set_oriented_done=*/true, indexed);
    benchmark::DoNotOptimize(fired);
  }
  state.SetLabel(indexed ? "indexed joins + ordered conflict set"
                         : "linear scans (seed baseline)");
  state.SetItemsProcessed(state.iterations() * guests);
}
BENCHMARK(BM_SeatingIndexedAblation)
    ->Args({1, 64})
    ->Args({0, 64})
    ->Args({1, 128})
    ->Args({0, 128});

/// Threads sweep on the macro workload. Seating fires one rule at a time
/// with tiny per-firing batches, so this measures the parallel layer's
/// overhead floor on latency-bound work rather than its speedup.
void BM_SeatingThreads(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  int guests = static_cast<int>(state.range(1));
  for (auto _ : state) {
    int fired = RunSeating(MatcherKind::kRete, guests,
                           /*set_oriented_done=*/true, /*indexed=*/true,
                           threads);
    benchmark::DoNotOptimize(fired);
  }
  state.SetLabel("match_threads=" + std::to_string(threads));
  state.SetItemsProcessed(state.iterations() * guests);
}
BENCHMARK(BM_SeatingThreads)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({8, 64});

void PrintHeader() {
  std::printf("=== B2: Manners-style seating macro workload ===\n");
  Engine engine;
  engine.set_output(DevNull());
  MustLoad(engine, sorel_examples::kDinnerRules);
  MustLoad(engine, sorel_examples::DinnerPartyWm(16));
  int fired = MustRun(engine, 200);
  std::printf("16 guests seated in %d firings (1 start + 15 extend + 1 "
              "set-oriented report)\n\n", fired);
}

}  // namespace
}  // namespace bench
}  // namespace sorel

int main(int argc, char** argv) {
  sorel::bench::PrintHeader();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
