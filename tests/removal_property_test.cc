// Removal-path property tests.
//
// The Rete matcher removes through one token-deletion routine: bulk tree
// deletion with one deferred compaction per flush, over slab-backed token
// arenas, with WMEs from a slab pool. Two checks hold it to an
// observable contract over seeded remove-heavy fuzz schedules:
//
//  - parallel replay (match_threads = 4) must reproduce the sequential
//    engine's firing trace, per-op conflict-set fingerprints, final WM
//    dump, and time-tag counter bit for bit;
//  - on match-only schedules, Rete at threads 0 and 4 must produce the
//    same canonical conflict set after every op, and the same final WM,
//    as DIPS — a matcher with no tokens at all, so an independent
//    reference for what deletion must leave behind.
//
// A deterministic churn check then pins the recycling contract itself:
// tokens freed by a removal batch must be served back out of the arena
// free lists on the next add batch (`rete.token_pool_hits` > 0), and for
// a negation-free program the hit count must be identical sequential vs
// parallel (no allocation happens inside a removal run there, so every
// configuration sees the same free-list state at every allocation).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "tests/fuzz_gen.h"
#include "tests/test_util.h"

namespace sorel {
namespace {

using fuzz::FuzzOp;
using fuzz::FuzzProgram;
using fuzz::FuzzRng;

struct RemovalConfig {
  MatcherKind matcher = MatcherKind::kRete;
  int threads = 0;

  std::string ToString() const {
    return std::string(matcher == MatcherKind::kRete ? "rete" : "dips") +
           " threads=" + std::to_string(threads);
  }
};

struct RunResult {
  std::string load_error;
  std::string run_error;
  std::string trace;  // firing trace + RHS write output
  std::vector<std::string> fingerprints;
  std::string dump;
  uint64_t next_tag = 0;
};

/// Canonical conflict-set fingerprint (same scheme as the differential
/// fuzzer): sorted "rule{sorted row tags}" entries.
std::string Fingerprint(Engine& engine) {
  std::vector<std::string> entries;
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
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (const std::string& e : entries) {
    out += e;
    out += " ";
  }
  return out;
}

RunResult RunSchedule(const FuzzProgram& program,
                      const std::vector<FuzzOp>& schedule,
                      const RemovalConfig& config) {
  RunResult result;
  EngineOptions opts;
  opts.matcher = config.matcher;
  opts.trace_firings = true;
  opts.match_threads = config.threads;
  Engine engine(opts);
  std::ostringstream out;
  engine.set_output(&out);
  Status loaded = engine.LoadString(program.Source());
  if (!loaded.ok()) {
    result.load_error = loaded.ToString();
    return result;
  }
  for (const FuzzOp& op : schedule) {
    switch (op.kind) {
      case FuzzOp::Kind::kMake: {
        auto r = engine.MakeWme(
            "item", {{"id", Value::Int(op.id)},
                     {"cat", engine.Sym(fuzz::kCats[op.cat])},
                     {"val", Value::Int(op.val)}});
        if (!r.ok() && result.run_error.empty()) {
          result.run_error = r.status().ToString();
        }
        break;
      }
      case FuzzOp::Kind::kRemove: {
        std::vector<WmePtr> snap = engine.wm().Snapshot();
        if (snap.empty()) break;
        TimeTag tag =
            snap[op.pick % static_cast<unsigned>(snap.size())]->time_tag();
        Status s = engine.RemoveWme(tag);
        if (!s.ok() && result.run_error.empty()) {
          result.run_error = s.ToString();
        }
        break;
      }
      case FuzzOp::Kind::kRun: {
        auto r = engine.Run(op.cap);
        if (!r.ok() && result.run_error.empty()) {
          result.run_error = r.status().ToString();
        }
        break;
      }
    }
    result.fingerprints.push_back(Fingerprint(engine));
  }
  result.trace = out.str();
  std::ostringstream dump;
  engine.DumpWm(dump);
  result.dump = dump.str();
  result.next_tag = static_cast<uint64_t>(engine.wm().next_time_tag());
  return result;
}

std::string Diff(const RunResult& a, const RunResult& b) {
  if (a.load_error != b.load_error) {
    return "load: [" + a.load_error + "] vs [" + b.load_error + "]";
  }
  if (!a.load_error.empty()) return "";
  if (a.run_error != b.run_error) {
    return "run status: [" + a.run_error + "] vs [" + b.run_error + "]";
  }
  if (a.trace != b.trace) {
    return "trace:\n--- A ---\n" + a.trace + "--- B ---\n" + b.trace;
  }
  size_t steps = std::min(a.fingerprints.size(), b.fingerprints.size());
  for (size_t i = 0; i < steps; ++i) {
    if (a.fingerprints[i] != b.fingerprints[i]) {
      return "conflict set after op " + std::to_string(i) + ":\nA: " +
             a.fingerprints[i] + "\nB: " + b.fingerprints[i];
    }
  }
  if (a.dump != b.dump) {
    return "final WM:\n--- A ---\n" + a.dump + "--- B ---\n" + b.dump;
  }
  if (a.next_tag != b.next_tag) {
    return "time-tag counter: " + std::to_string(a.next_tag) + " vs " +
           std::to_string(b.next_tag);
  }
  return "";
}

/// One seed: a high-negation program against a remove-heavy firing
/// schedule, sequential Rete vs parallel replay.
void CheckSeed(unsigned seed, unsigned remove_pct) {
  FuzzRng rng(seed);
  FuzzProgram program = fuzz::GenProgram(rng, /*allow_set=*/true,
                                         /*neg_chance=*/70);
  std::vector<FuzzOp> schedule =
      fuzz::GenSchedule(rng, 40, /*with_runs=*/true, remove_pct);
  RemovalConfig base;
  RunResult base_result = RunSchedule(program, schedule, base);
  ASSERT_EQ(base_result.load_error, "")
      << "seed " << seed << "\n" << program.Source();
  RemovalConfig parallel{MatcherKind::kRete, /*threads=*/4};
  std::string mismatch =
      Diff(base_result, RunSchedule(program, schedule, parallel));
  EXPECT_EQ(mismatch, "")
      << "seed " << seed << " remove_pct " << remove_pct << "\nbase: "
      << base.ToString() << "\nvariant: " << parallel.ToString() << "\n"
      << program.Source() << "\n" << fuzz::ScheduleToString(schedule);
}

/// One seed of the independent-reference check: the same generator on a
/// match-only schedule, Rete at threads 0 and 4 against DIPS. With no runs
/// nothing fires, so there is no firing order to disagree on, and the full
/// Diff reduces to the per-op conflict sets and the final WM. Returns
/// whether the program has a negated CE, the case where token deletion and
/// unblocking interleave.
bool CheckAgainstDips(unsigned seed, unsigned remove_pct) {
  FuzzRng rng(seed);
  FuzzProgram program = fuzz::GenProgram(rng, /*allow_set=*/true,
                                         /*neg_chance=*/70);
  std::vector<FuzzOp> schedule =
      fuzz::GenSchedule(rng, 40, /*with_runs=*/false, remove_pct);
  RemovalConfig dips{MatcherKind::kDips, 0};
  RunResult reference = RunSchedule(program, schedule, dips);
  EXPECT_EQ(reference.load_error, "")
      << "seed " << seed << "\n" << program.Source();
  for (int threads : {0, 4}) {
    RemovalConfig rete{MatcherKind::kRete, threads};
    std::string mismatch =
        Diff(reference, RunSchedule(program, schedule, rete));
    EXPECT_EQ(mismatch, "")
        << "seed " << seed << " remove_pct " << remove_pct << "\nA: "
        << dips.ToString() << "\nB: " << rete.ToString() << "\n"
        << program.Source() << "\n" << fuzz::ScheduleToString(schedule);
  }
  return program.Source().find(" - (item") != std::string::npos;
}

class RemovalProperty : public ::testing::TestWithParam<int> {};

TEST_P(RemovalProperty, RemoveMostlySchedules) {
  for (unsigned s = 0; s < 4; ++s) {
    CheckSeed(7000 + static_cast<unsigned>(GetParam()) * 10 + s,
              /*remove_pct=*/60);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_P(RemovalProperty, ChurnSchedules) {
  for (unsigned s = 0; s < 4; ++s) {
    CheckSeed(8000 + static_cast<unsigned>(GetParam()) * 10 + s,
              /*remove_pct=*/40);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemovalProperty, ::testing::Range(0, 4));

/// 160 seeds, 80 at each removal share, two Rete-vs-DIPS pairs per seed.
/// The negated-CE floor guards the generator: most programs must exercise
/// the negative-node retract and unblock paths.
TEST(RemovalReference, ReteMatchesDipsOnRemoveHeavySchedules) {
  int with_negation = 0;
  for (unsigned remove_pct : {60u, 40u}) {
    for (unsigned s = 0; s < 80; ++s) {
      if (CheckAgainstDips(9000 + remove_pct * 100 + s, remove_pct)) {
        ++with_negation;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  ::testing::Test::RecordProperty("programs_with_negated_ce", with_negation);
  EXPECT_GE(with_negation, 100);
}

/// The recycling contract, on a deterministic negation-free churn: remove
/// batches must feed the arena free lists, the next add batch must drain
/// them, and the hit count must not depend on the thread count.
TEST(RemovalChurn, RecyclesTokensDeterministically) {
  const char* kProgram =
      "(literalize item id cat val)\n"
      "(p pair (item ^cat A ^val <v>) (item ^cat B ^val <v>) -->"
      " (write paired (crlf)))";
  auto churn = [&](int threads) {
    EngineOptions opts;
    opts.match_threads = threads;
    Engine engine(opts);
    std::ostringstream out;
    engine.set_output(&out);
    EXPECT_TRUE(engine.LoadString(kProgram).ok());
    std::vector<TimeTag> tags;
    engine.wm().Begin();
    for (int i = 0; i < 64; ++i) {
      auto r = engine.MakeWme(
          "item", {{"id", Value::Int(i)},
                   {"cat", engine.Sym(i % 2 == 0 ? "A" : "B")},
                   {"val", Value::Int(i % 8)}});
      EXPECT_TRUE(r.ok());
      tags.push_back(*r);
    }
    EXPECT_TRUE(engine.wm().Commit().ok());
    engine.wm().Begin();
    for (size_t i = 0; i < tags.size(); i += 2) {
      EXPECT_TRUE(engine.RemoveWme(tags[i]).ok());
    }
    EXPECT_TRUE(engine.wm().Commit().ok());
    engine.wm().Begin();
    for (int i = 64; i < 96; ++i) {
      EXPECT_TRUE(engine
                      .MakeWme("item",
                               {{"id", Value::Int(i)},
                                {"cat", engine.Sym(i % 2 == 0 ? "A" : "B")},
                                {"val", Value::Int(i % 8)}})
                      .ok());
    }
    EXPECT_TRUE(engine.wm().Commit().ok());
    Engine::MatchStats stats = engine.match_stats();
    std::ostringstream dump;
    engine.DumpWm(dump);
    return std::make_tuple(stats.rete.token_pool_hits, stats.rete.bulk_deletes,
                           dump.str());
  };
  auto [seq_hits, seq_bulk, seq_dump] = churn(0);
  auto [par_hits, par_bulk, par_dump] = churn(4);
  EXPECT_GT(seq_hits, 0u);
  EXPECT_GT(seq_bulk, 0u);
  EXPECT_GT(par_bulk, 0u);
  EXPECT_EQ(seq_hits, par_hits);
  EXPECT_EQ(seq_dump, par_dump);
}

/// Regression: removing a WME that blocks two negated CEs of one rule must
/// not fire the rule while another WME still blocks the second CE. The
/// first negative node's unblock cascade creates the second node's token
/// *after* the WME left the alpha memories, so the WME's own pending
/// right-activation there must not decrement a blocker count that never
/// included it (Token::born_of_removal) — doing so propagated a token WME 0
/// still blocks.
TEST(RemovalRegression, CascadeBornTokenKeepsItsBlockers) {
  const char* kProgram =
      "(literalize item id cat val)\n"
      "(p guard (item ^cat A) - (item ^cat B) - (item ^val 2) -->"
      " (write fired (crlf)))";
  const RemovalConfig configs[] = {
      {MatcherKind::kRete, 0},  {MatcherKind::kRete, 4},
      {MatcherKind::kTreat, 0}, {MatcherKind::kPlan, 0},
      {MatcherKind::kDips, 0},
  };
  for (const RemovalConfig& config : configs) {
    EngineOptions opts;
    opts.matcher = config.matcher;
    opts.match_threads = config.threads;
    Engine engine(opts);
    std::ostringstream out;
    engine.set_output(&out);
    ASSERT_TRUE(engine.LoadString(kProgram).ok());
    auto make = [&](int id, const char* cat, int val) {
      auto r = engine.MakeWme("item", {{"id", Value::Int(id)},
                                       {"cat", engine.Sym(cat)},
                                       {"val", Value::Int(val)}});
      EXPECT_TRUE(r.ok());
      return *r;
    };
    TimeTag x = make(0, "X", 2);  // blocks -(item ^val 2) only
    TimeTag w = make(1, "B", 2);  // blocks both negated CEs
    make(2, "A", 0);              // matches the positive CE
    std::string label = "matcher " +
                        std::to_string(static_cast<int>(config.matcher)) +
                        " threads " + std::to_string(config.threads);
    EXPECT_EQ(engine.conflict_set().Entries().size(), 0u) << label;
    EXPECT_TRUE(engine.RemoveWme(w).ok());
    EXPECT_EQ(engine.conflict_set().Entries().size(), 0u) << label;
    // Dropping the remaining blocker finally fires the rule.
    EXPECT_TRUE(engine.RemoveWme(x).ok());
    EXPECT_EQ(engine.conflict_set().Entries().size(), 1u) << label;
  }
}

/// The same churn through the WME slab pool: the remove batch must push
/// freed WME blocks, and the re-add batch must pop them.
TEST(RemovalChurn, RecyclesWmeBlocks) {
  EngineOptions opts;
  Engine engine(opts);
  std::ostringstream out;
  engine.set_output(&out);
  EXPECT_TRUE(engine.LoadString("(literalize item id cat val)").ok());
  std::vector<TimeTag> tags;
  for (int i = 0; i < 32; ++i) {
    auto r = engine.MakeWme("item", {{"id", Value::Int(i)}});
    ASSERT_TRUE(r.ok());
    tags.push_back(*r);
  }
  for (TimeTag t : tags) EXPECT_TRUE(engine.RemoveWme(t).ok());
  for (int i = 32; i < 64; ++i) {
    EXPECT_TRUE(engine.MakeWme("item", {{"id", Value::Int(i)}}).ok());
  }
  Engine::MatchStats stats = engine.match_stats();
  EXPECT_GT(stats.wm.wme_pool_hits, 0u);
  EXPECT_GT(stats.wm.wme_slabs, 0u);
}

}  // namespace
}  // namespace sorel
