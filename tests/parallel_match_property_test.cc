// Parallel-match equivalence: with `match_threads` = N every matcher fans
// each ChangeBatch out to a worker pool (Rete replays per-rule beta chains,
// TREAT re-searches per rule, DIPS refreshes per rule) and merges the
// buffered conflict-set sends deterministically — so the observable
// behavior must be bit-identical to the single-threaded baseline: same
// firing sequence (rule + recency tags), same conflict sets, same final
// working memory, same time-tag counter. Checked for every matcher ×
// strategy × batched/per-WME delivery over random op sequences with
// WM-mutating rules. Internal matcher counters (ReteStats etc.) are NOT
// compared: the replay path legitimately skips the sequential path's
// grouped-removal bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace sorel {
namespace {

/// Deterministic LCG so failures reproduce.
class Rng {
 public:
  explicit Rng(unsigned seed) : state_(seed * 2654435761u + 12345u) {}
  unsigned Next(unsigned bound) {
    state_ = state_ * 1664525u + 1013904223u;
    return (state_ >> 16) % bound;
  }

 private:
  unsigned state_;
};

constexpr std::string_view kSchema = "(literalize player name team score)";

// Tuple-oriented mutating rules: every matcher (TREAT included) runs these.
// Each one drains its own trigger, so capped runs terminate. The mix covers
// joins, negation, and modify/remove RHS actions — the cases where a buggy
// merge would reorder conflict-set arrivals.
constexpr const char* kTupleRules =
    "(p cap { (player ^score > 4) <p> } --> (modify <p> ^score 4))"
    "(p purge-c (player ^team C ^name <n>) --> (remove 1))"
    "(p lone-b { (player ^team B ^name <n>) <p> }"
    " - (player ^team A ^name <n>) --> (modify <p> ^team A))"
    "(p twin { (player ^name <n> ^team <t> ^score <s>) <p> }"
    " (player ^name <n> ^team <> <t>) (player ^score < <s>)"
    " --> (modify <p> ^score 2))";

// Set-oriented mutating rules (Rete and DIPS only; TREAT rejects set CEs).
constexpr const char* kSetRules =
    "(p zero-team { [player ^team <t> ^score <s>] <P> } :scalar (<t>)"
    " :test ((sum <s>) > 8) --> (set-modify <P> ^score 0))";

/// Canonical conflict-set fingerprint (rule name + sorted row signatures).
std::multiset<std::string> Fingerprint(Engine& engine) {
  std::multiset<std::string> out;
  for (InstantiationRef* inst : engine.conflict_set().Entries()) {
    std::vector<Row> rows;
    inst->CollectRows(&rows);
    std::vector<std::string> row_sigs;
    for (const Row& row : rows) {
      std::string sig;
      for (const WmePtr& w : row) {
        sig += std::to_string(w->time_tag());
        sig += ",";
      }
      row_sigs.push_back(std::move(sig));
    }
    std::sort(row_sigs.begin(), row_sigs.end());
    std::string entry = inst->rule().name + "{";
    for (const std::string& s : row_sigs) entry += s + ";";
    entry += "}";
    out.insert(std::move(entry));
  }
  return out;
}

std::string Dump(Engine& engine) {
  std::ostringstream out;
  engine.DumpWm(out);
  return out.str();
}

/// One parallel configuration to pit against the sequential baseline.
struct ParConfig {
  int threads = 0;
  bool batched = true;
  int intra_split = 0;    // EngineOptions::intra_rule_split_min_tokens
};

/// Drives a single-threaded and a parallel-configured engine through the
/// same random add / remove / run schedule and asserts bit-identical
/// observable behavior throughout.
void CheckEquivalence(MatcherKind matcher, Strategy strategy,
                      const ParConfig& config, unsigned seed,
                      bool with_set_rules) {
  int threads = config.threads;
  bool batched = config.batched;
  SCOPED_TRACE("threads=" + std::to_string(threads) +
               " batched=" + std::to_string(batched) +
               " intra_split=" + std::to_string(config.intra_split) +
               " seed=" + std::to_string(seed));
  std::ostringstream seq_trace, par_trace;
  EngineOptions seq_opts, par_opts;
  seq_opts.matcher = par_opts.matcher = matcher;
  seq_opts.strategy = par_opts.strategy = strategy;
  seq_opts.trace_firings = par_opts.trace_firings = true;
  seq_opts.batched_wm = par_opts.batched_wm = batched;
  seq_opts.match_threads = 0;
  par_opts.match_threads = threads;
  par_opts.intra_rule_split_min_tokens = config.intra_split;
  Engine seq(seq_opts), par(par_opts);
  seq.set_output(&seq_trace);
  par.set_output(&par_trace);
  std::string program = std::string(kSchema) + kTupleRules;
  if (with_set_rules) program += kSetRules;
  MustLoad(seq, program);
  MustLoad(par, program);

  Rng rng(seed);
  static const char* kNames[] = {"ann", "bob", "cyd", "dee"};
  static const char* kTeams[] = {"A", "B", "C"};
  for (int step = 0; step < 36; ++step) {
    // Rule firings mutate the WM, so removal targets come from the live
    // snapshot, not a remembered tag list.
    std::vector<WmePtr> snap = seq.wm().Snapshot();
    if (!snap.empty() && rng.Next(4) == 0) {
      TimeTag tag = snap[rng.Next(static_cast<unsigned>(snap.size()))]
                        ->time_tag();
      ASSERT_NE(par.wm().Find(tag), nullptr) << "step " << step;
      ASSERT_TRUE(seq.RemoveWme(tag).ok());
      ASSERT_TRUE(par.RemoveWme(tag).ok());
    } else {
      const char* name = kNames[rng.Next(4)];
      const char* team = kTeams[rng.Next(3)];
      auto score = static_cast<int64_t>(rng.Next(6));
      for (Engine* e : {&seq, &par}) {
        auto r = e->MakeWme("player", {{"name", e->Sym(name)},
                                       {"team", e->Sym(team)},
                                       {"score", Value::Int(score)}});
        ASSERT_TRUE(r.ok());
      }
    }
    ASSERT_EQ(Fingerprint(seq), Fingerprint(par)) << "step " << step;
    if (step % 4 == 3) {
      int fired_seq = MustRun(seq, 8);
      int fired_par = MustRun(par, 8);
      ASSERT_EQ(fired_seq, fired_par) << "step " << step;
      ASSERT_EQ(seq_trace.str(), par_trace.str()) << "step " << step;
      ASSERT_EQ(Fingerprint(seq), Fingerprint(par)) << "step " << step;
      // Identical firing sequence implies identical modifies, so the
      // monotone tag counters must agree too.
      ASSERT_EQ(seq.wm().next_time_tag(), par.wm().next_time_tag())
          << "step " << step;
      ASSERT_EQ(Dump(seq), Dump(par)) << "step " << step;
    }
  }
  // The baseline really is the ablation: no pool on the threads=0 side.
  EXPECT_EQ(seq.match_stats().pool.threads, 0u);
  if (threads > 0) {
    EXPECT_EQ(par.match_stats().pool.threads,
              static_cast<uint64_t>(threads));
  }
}

void CheckAllConfigs(MatcherKind matcher, Strategy strategy, unsigned seed,
                     bool with_set_rules) {
  for (int threads : {1, 2, 4}) {
    for (bool batched : {true, false}) {
      CheckEquivalence(matcher, strategy, {threads, batched}, seed,
                       with_set_rules);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Intra-rule slicing (TREAT splits; the other matchers ignore the
  // threshold).
  ParConfig extra[] = {
      {4, true, 1},
      {2, false, 2},
  };
  for (const ParConfig& config : extra) {
    CheckEquivalence(matcher, strategy, config, seed, with_set_rules);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class ParallelMatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMatchEquivalence, ReteLex) {
  CheckAllConfigs(MatcherKind::kRete, Strategy::kLex,
                  static_cast<unsigned>(GetParam()), true);
}

TEST_P(ParallelMatchEquivalence, ReteMea) {
  CheckAllConfigs(MatcherKind::kRete, Strategy::kMea,
                  static_cast<unsigned>(GetParam()) + 100u, true);
}

TEST_P(ParallelMatchEquivalence, TreatLex) {
  CheckAllConfigs(MatcherKind::kTreat, Strategy::kLex,
                  static_cast<unsigned>(GetParam()) + 200u, false);
}

TEST_P(ParallelMatchEquivalence, TreatMea) {
  CheckAllConfigs(MatcherKind::kTreat, Strategy::kMea,
                  static_cast<unsigned>(GetParam()) + 300u, false);
}

TEST_P(ParallelMatchEquivalence, DipsLex) {
  CheckAllConfigs(MatcherKind::kDips, Strategy::kLex,
                  static_cast<unsigned>(GetParam()) + 400u, true);
}

TEST_P(ParallelMatchEquivalence, DipsMea) {
  CheckAllConfigs(MatcherKind::kDips, Strategy::kMea,
                  static_cast<unsigned>(GetParam()) + 500u, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelMatchEquivalence,
                         ::testing::Range(0, 6));

// The parallel path actually engages: a batched multi-rule run with
// threads > 0 must dispatch replay tasks through the pool.
TEST(ParallelMatchEngaged, PoolRunsTasks) {
  for (MatcherKind matcher :
       {MatcherKind::kRete, MatcherKind::kTreat, MatcherKind::kDips}) {
    EngineOptions opts;
    opts.matcher = matcher;
    opts.match_threads = 2;
    Engine engine(opts);
    std::ostringstream sink;
    engine.set_output(&sink);
    MustLoad(engine, std::string(kSchema) + kTupleRules);
    for (int i = 0; i < 12; ++i) {
      MustMake(engine, "player",
               {{"name", engine.Sym(i % 2 == 0 ? "ann" : "bob")},
                {"team", engine.Sym(i % 3 == 0 ? "B" : "C")},
                {"score", Value::Int(5)}});
    }
    MustRun(engine, 32);
    Engine::MatchStats stats = engine.match_stats();
    EXPECT_EQ(stats.pool.threads, 2u) << "matcher " << static_cast<int>(matcher);
    EXPECT_GT(stats.pool.tasks, 0u) << "matcher " << static_cast<int>(matcher);
    EXPECT_GT(stats.pool.batches, 0u)
        << "matcher " << static_cast<int>(matcher);
  }
}

// The intra-rule split path actually engages: with a tiny threshold, TREAT
// (the only matcher that splits one rule's work) must report forked slice
// scans.
TEST(ParallelMatchEngaged, IntraRuleSplitRunsSlices) {
  EngineOptions opts;
  opts.matcher = MatcherKind::kTreat;
  opts.match_threads = 2;
  opts.intra_rule_split_min_tokens = 2;
  Engine engine(opts);
  std::ostringstream sink;
  engine.set_output(&sink);
  MustLoad(engine, std::string(kSchema));
  for (int i = 0; i < 16; ++i) {
    MustMake(engine, "player",
             {{"name", engine.Sym(i % 2 == 0 ? "ann" : "bob")},
              {"team", engine.Sym(i % 3 == 0 ? "B" : "C")},
              {"score", Value::Int(i % 6)}});
  }
  // Rules load after the WM is populated so the add-rule search (TREAT's
  // SearchAll) scans alphas above the split threshold.
  MustLoad(engine, kTupleRules);
  MustRun(engine, 24);
  Engine::MatchStats stats = engine.match_stats();
  EXPECT_GT(stats.treat.intra_splits, 0u);
  EXPECT_GT(stats.treat.intra_slice_tasks, stats.treat.intra_splits);
}

}  // namespace
}  // namespace sorel
