// Differential fuzzing across matchers and engine configurations.
//
// Seeded random programs (plain CEs with joins and negations, set CEs with
// aggregates and :scalar, set-modify / set-remove / foreach RHS) and random
// WM schedules drive pairs of engines that must agree:
//
//   1. Within one matcher, every parallel configuration — match_threads and
//      intra_rule_split_min_tokens, each × batched_wm — must be
//      bit-identical to the single-threaded baseline: same firing trace and
//      write output, same conflict set after every op, same final WM dump
//      and time-tag counter, same error text.
//   2. Across matchers (Rete vs TREAT vs DIPS), match-only schedules must
//      produce the same canonical conflict-set fingerprint and WM state.
//      (Firing schedules are not compared across matchers: conflict-
//      resolution tie-breaks depend on matcher-specific arrival order.)
//
// Every run also captures the structured TraceSink event stream (JSON
// lines: cycle/select/fire/rhs_apply plus WM batch_commit/rollback), and
// within-matcher pairs must agree on it too — the firing-trace comparison
// the ROADMAP asked for, run under both LEX and MEA. Per-rule rule_replay
// events and sequence numbers are normalized away first: replay
// granularity legitimately depends on the parallel configuration.
//
// On a mismatch the harness greedily shrinks the schedule and the rule
// list, then prints a self-contained repro (program source, schedule,
// the two configurations, the first divergence, and the tail of both
// event streams in the TraceSink JSONL format).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "tests/fuzz_gen.h"
#include "tests/test_util.h"

namespace sorel {
namespace {

using fuzz::FuzzOp;
using fuzz::FuzzProgram;
using fuzz::FuzzRng;

struct FuzzConfig {
  MatcherKind matcher = MatcherKind::kRete;
  Strategy strategy = Strategy::kLex;
  int threads = 0;
  bool batched = true;
  int intra_split = 0;
  bool indexed_cs = true;
  JoinOrder join_order = JoinOrder::kTextual;

  std::string ToString() const {
    std::string m = matcher == MatcherKind::kRete    ? "rete"
                    : matcher == MatcherKind::kTreat ? "treat"
                    : matcher == MatcherKind::kPlan  ? "plan"
                                                     : "dips";
    return m + (strategy == Strategy::kLex ? "/lex" : "/mea") +
           " threads=" + std::to_string(threads) +
           " batched=" + std::to_string(batched) +
           " intra_split=" + std::to_string(intra_split) +
           " indexed_cs=" + std::to_string(indexed_cs) +
           " join_order=" +
           (join_order == JoinOrder::kTextual ? "textual" : "optimized");
  }
};

/// Everything observable from one engine run of a schedule.
struct FuzzResult {
  std::string load_error;  // empty = loaded fine
  std::string trace;       // firing trace + RHS write output
  std::string events;      // structured TraceSink stream (JSON lines)
  std::vector<std::string> fingerprints;  // conflict set after each op
  /// Same, with tags sorted within each row (CE-reordering-insensitive).
  std::vector<std::string> fingerprints_rowset;
  std::string dump;        // final WM
  uint64_t next_tag = 0;
  std::string run_error;   // first Run error (empty = none)
};

/// Canonicalizes an event stream for comparison: drops per-rule
/// rule_replay events (their granularity depends on matcher and parallel
/// config) and the seq field (replay events consume sequence numbers).
std::string NormalizeEvents(const std::string& events) {
  std::istringstream in(events);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("\"ev\":\"rule_replay\"") != std::string::npos) continue;
    size_t pos = line.find(",\"seq\":");
    if (pos != std::string::npos) {
      size_t end = pos + 7;
      while (end < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[end])) != 0) {
        ++end;
      }
      line.erase(pos, end - pos);
    }
    out += line;
    out += '\n';
  }
  return out;
}

/// The last `n` lines of an event stream, for repro dumps.
std::string EventTail(const std::string& events, size_t n) {
  std::vector<std::string> lines;
  std::istringstream in(events);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::string out;
  for (size_t i = lines.size() > n ? lines.size() - n : 0; i < lines.size();
       ++i) {
    out += lines[i];
    out += '\n';
  }
  return out;
}

/// Canonical conflict-set fingerprint: sorted "rule{sorted row tags}"
/// entries, comparable across matchers. With `row_multiset`, tags are
/// sorted within each row too — the form comparable across *CE
/// reorderings* (the load-time pre-reordering pass permutes token
/// positions, so raw row order legitimately differs).
std::string Fingerprint(Engine& engine, bool row_multiset) {
  std::vector<std::string> entries;
  for (InstantiationRef* inst : engine.conflict_set().Entries()) {
    std::vector<Row> rows;
    inst->CollectRows(&rows);
    std::vector<std::string> row_sigs;
    for (const Row& row : rows) {
      std::vector<TimeTag> tags;
      for (const WmePtr& w : row) tags.push_back(w->time_tag());
      if (row_multiset) std::sort(tags.begin(), tags.end());
      std::string sig;
      for (TimeTag t : tags) {
        sig += std::to_string(t);
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

FuzzResult RunSchedule(const FuzzProgram& program,
                       const std::vector<FuzzOp>& schedule,
                       const FuzzConfig& config) {
  FuzzResult result;
  EngineOptions opts;
  opts.matcher = config.matcher;
  opts.strategy = config.strategy;
  opts.trace_firings = true;
  opts.batched_wm = config.batched;
  opts.match_threads = config.threads;
  opts.intra_rule_split_min_tokens = config.intra_split;
  opts.indexed_conflict_set = config.indexed_cs;
  opts.join_order = config.join_order;
  std::ostringstream events;
  obs::JsonLinesTraceSink sink(&events);
  opts.trace_sink = &sink;
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
    result.fingerprints.push_back(Fingerprint(engine, false));
    result.fingerprints_rowset.push_back(Fingerprint(engine, true));
  }
  result.trace = out.str();
  result.events = events.str();
  std::ostringstream dump;
  engine.DumpWm(dump);
  result.dump = dump.str();
  result.next_tag = static_cast<uint64_t>(engine.wm().next_time_tag());
  return result;
}

/// Comparison strictness. kFull: everything (within-config and
/// plan-vs-Rete bit-identity). kMatchOnly: canonical conflict sets + WM
/// (cross-matcher — tie-breaks depend on arrival order). kMatchRowset:
/// kMatchOnly with row-multiset fingerprints (CE-reordered Rete/TREAT —
/// token positions are permuted by the rewrite).
enum class Cmp { kFull, kMatchOnly, kMatchRowset };

/// First divergence between two results, or "" if identical.
std::string Diff(const FuzzResult& a, const FuzzResult& b, Cmp cmp) {
  const bool match_only = cmp != Cmp::kFull;
  if (a.load_error != b.load_error) {
    return "load: [" + a.load_error + "] vs [" + b.load_error + "]";
  }
  if (!a.load_error.empty()) return "";
  if (a.run_error != b.run_error) {
    return "run status: [" + a.run_error + "] vs [" + b.run_error + "]";
  }
  if (!match_only && a.trace != b.trace) {
    return "trace:\n--- A ---\n" + a.trace + "--- B ---\n" + b.trace;
  }
  if (!match_only) {
    std::string ea = NormalizeEvents(a.events);
    std::string eb = NormalizeEvents(b.events);
    if (ea != eb) {
      return "events (normalized, last 20):\n--- A ---\n" +
             EventTail(ea, 20) + "--- B ---\n" + EventTail(eb, 20);
    }
  }
  const std::vector<std::string>& fa =
      cmp == Cmp::kMatchRowset ? a.fingerprints_rowset : a.fingerprints;
  const std::vector<std::string>& fb =
      cmp == Cmp::kMatchRowset ? b.fingerprints_rowset : b.fingerprints;
  size_t steps = std::min(fa.size(), fb.size());
  for (size_t i = 0; i < steps; ++i) {
    if (fa[i] != fb[i]) {
      return "conflict set after op " + std::to_string(i) + ":\nA: " +
             fa[i] + "\nB: " + fb[i];
    }
  }
  if (a.dump != b.dump) {
    return "final WM:\n--- A ---\n" + a.dump + "--- B ---\n" + b.dump;
  }
  if (!match_only && a.next_tag != b.next_tag) {
    return "time-tag counter: " + std::to_string(a.next_tag) + " vs " +
           std::to_string(b.next_tag);
  }
  return "";
}

std::string Check(const FuzzProgram& program,
                  const std::vector<FuzzOp>& schedule, const FuzzConfig& a,
                  const FuzzConfig& b, Cmp cmp) {
  return Diff(RunSchedule(program, schedule, a),
              RunSchedule(program, schedule, b), cmp);
}

/// Greedy shrink: drop schedule ops (end first), then whole rules, as long
/// as some divergence survives. Returns the self-contained repro text.
std::string ShrinkAndFormat(FuzzProgram program, std::vector<FuzzOp> schedule,
                            const FuzzConfig& a, const FuzzConfig& b,
                            Cmp cmp, unsigned seed) {
  for (size_t i = schedule.size(); i-- > 0;) {
    std::vector<FuzzOp> trial = schedule;
    trial.erase(trial.begin() + static_cast<long>(i));
    if (!Check(program, trial, a, b, cmp).empty()) {
      schedule = std::move(trial);
    }
  }
  for (size_t r = program.rules.size(); r-- > 0;) {
    if (program.rules.size() == 1) break;
    FuzzProgram trial = program;
    trial.rules.erase(trial.rules.begin() + static_cast<long>(r));
    if (!Check(program, schedule, a, b, cmp).empty() &&
        !Check(trial, schedule, a, b, cmp).empty()) {
      program = std::move(trial);
    }
  }
  std::string mismatch = Check(program, schedule, a, b, cmp);
  std::string out = "=== FUZZ REPRO (seed " + std::to_string(seed) +
                    ") ===\nprogram:\n" + program.Source() +
                    "\nschedule:\n" + fuzz::ScheduleToString(schedule) +
                    "config A: " + a.ToString() + "\nconfig B: " +
                    b.ToString() + "\nmismatch: " + mismatch + "\n";
  return out;
}

/// One seed of the within-matcher sweep, run under BOTH strategies: LEX
/// and MEA each produce their own firing trace and structured event
/// stream, and every parallel configuration must reproduce its strategy's
/// streams exactly (the ROADMAP's LEX-vs-MEA firing-trace comparison).
void CheckConfigSweep(MatcherKind matcher, unsigned seed) {
  FuzzRng rng(seed);
  bool allow_set =
      matcher != MatcherKind::kTreat && matcher != MatcherKind::kPlan;
  FuzzProgram program = fuzz::GenProgram(rng, allow_set);
  std::vector<FuzzOp> schedule = fuzz::GenSchedule(rng, 28, true);

  for (Strategy strategy : {Strategy::kLex, Strategy::kMea}) {
    for (bool batched : {true, false}) {
      FuzzConfig base{matcher, strategy, 0, batched, 0};
      FuzzResult base_result = RunSchedule(program, schedule, base);
      // Generated programs must always load — a load failure here is a
      // generator bug, not a divergence.
      ASSERT_EQ(base_result.load_error, "")
          << "seed " << seed << "\n" << program.Source();
      std::vector<FuzzConfig> variants = {
          {matcher, strategy, 4, batched, 0},
          {matcher, strategy, 4, batched, 2},
          {matcher, strategy, 0, batched, 0, /*indexed_cs=*/false},
      };
      if (matcher == MatcherKind::kPlan) {
        // The cost-chosen execution order must be unobservable: emission
        // is canonicalized, so optimized plans (serial and parallel) stay
        // bit-identical to the textual-order baseline.
        variants.push_back({matcher, strategy, 0, batched, 0,
                            /*indexed_cs=*/true, JoinOrder::kOptimized});
        variants.push_back({matcher, strategy, 4, batched, 0,
                            /*indexed_cs=*/true, JoinOrder::kOptimized});
      }
      for (const FuzzConfig& variant : variants) {
        std::string mismatch =
            Diff(base_result, RunSchedule(program, schedule, variant),
                 Cmp::kFull);
        if (!mismatch.empty()) {
          FAIL() << ShrinkAndFormat(program, schedule, base, variant, Cmp::kFull,
                                    seed);
        }
      }
    }
  }
}

/// One seed of the remove-heavy negation sweep (ROADMAP open item):
/// high-negation-density programs (GenTupleRule neg_chance=70, so most
/// rules carry one negated CE and many carry two) against schedules where
/// half the steps retract — the workload that exercises negated-CE
/// blocking/unblocking, token deletion, and SOI emptying under every
/// parallel configuration.
void CheckRemoveHeavy(MatcherKind matcher, unsigned seed) {
  FuzzRng rng(seed);
  bool allow_set =
      matcher != MatcherKind::kTreat && matcher != MatcherKind::kPlan;
  FuzzProgram program = fuzz::GenProgram(rng, allow_set, /*neg_chance=*/70);
  std::vector<FuzzOp> schedule =
      fuzz::GenSchedule(rng, 32, true, /*remove_pct=*/50);

  for (Strategy strategy : {Strategy::kLex, Strategy::kMea}) {
    for (bool batched : {true, false}) {
      FuzzConfig base{matcher, strategy, 0, batched, 0};
      FuzzResult base_result = RunSchedule(program, schedule, base);
      ASSERT_EQ(base_result.load_error, "")
          << "seed " << seed << "\n" << program.Source();
      std::vector<FuzzConfig> variants = {
          {matcher, strategy, 4, batched, 0},
          {matcher, strategy, 4, batched, 2},
      };
      if (matcher == MatcherKind::kPlan) {
        // Optimized join order under retraction-heavy load: the unblock
        // re-searches and instantiation drops must stay bit-identical.
        variants.push_back({matcher, strategy, 0, batched, 0,
                            /*indexed_cs=*/true, JoinOrder::kOptimized});
        variants.push_back({matcher, strategy, 4, batched, 0,
                            /*indexed_cs=*/true, JoinOrder::kOptimized});
      }
      for (const FuzzConfig& variant : variants) {
        std::string mismatch =
            Diff(base_result, RunSchedule(program, schedule, variant),
                 Cmp::kFull);
        if (!mismatch.empty()) {
          FAIL() << ShrinkAndFormat(program, schedule, base, variant, Cmp::kFull,
                                    seed);
        }
      }
    }
  }
}

/// One seed of the cross-matcher check: match-only schedules, canonical
/// fingerprints + WM state. The join_order=optimized columns also pull in
/// the load-time CE pre-reordering pass (Rete/TREAT execute a rewritten
/// rule, which must still match the same instantiations).
void CheckCrossMatcher(unsigned seed) {
  FuzzRng rng(seed);
  FuzzProgram tuple_program = fuzz::GenProgram(rng, false);
  std::vector<FuzzOp> schedule = fuzz::GenSchedule(rng, 24, false);
  Strategy strategy = (seed % 2 == 0) ? Strategy::kLex : Strategy::kMea;
  FuzzConfig rete{MatcherKind::kRete, strategy};
  FuzzConfig treat{MatcherKind::kTreat, strategy, 4};
  FuzzConfig dips{MatcherKind::kDips, strategy, 4};
  FuzzConfig plan{MatcherKind::kPlan, strategy, 4};
  FuzzConfig rete_opt{MatcherKind::kRete, strategy, 0, true, 0,
                      true, JoinOrder::kOptimized};
  FuzzConfig treat_opt{MatcherKind::kTreat, strategy, 4, true, 0,
                       true, JoinOrder::kOptimized};
  FuzzConfig plan_opt{MatcherKind::kPlan, strategy, 0, true, 0,
                      true, JoinOrder::kOptimized};
  // The reordered Rete/TREAT columns execute a rewritten rule whose token
  // positions are permuted, so their rows compare as multisets; the plan
  // matcher never rewrites the rule and keeps the strict row comparison.
  const std::pair<FuzzConfig, Cmp> columns[] = {
      {treat, Cmp::kMatchOnly},    {dips, Cmp::kMatchOnly},
      {plan, Cmp::kMatchOnly},     {rete_opt, Cmp::kMatchRowset},
      {treat_opt, Cmp::kMatchRowset}, {plan_opt, Cmp::kMatchOnly},
  };
  for (const auto& [other, cmp] : columns) {
    std::string mismatch = Check(tuple_program, schedule, rete, other, cmp);
    if (!mismatch.empty()) {
      FAIL() << ShrinkAndFormat(tuple_program, schedule, rete, other, cmp,
                                seed);
    }
  }
  // Set-oriented programs: Rete's S-nodes vs DIPS' COND tables.
  FuzzProgram set_program = fuzz::GenProgram(rng, true);
  std::string mismatch = Check(set_program, schedule, rete, dips, Cmp::kMatchOnly);
  if (!mismatch.empty()) {
    FAIL() << ShrinkAndFormat(set_program, schedule, rete, dips, Cmp::kMatchOnly,
                              seed);
  }
}

/// The plan matcher's bit-identity contract against *sequential Rete*:
/// full-trace comparison (firing trace, normalized event stream, per-op
/// conflict sets, final WM, time-tag counter) on firing schedules, for
/// both join orders and both plan parallel modes. This is stronger than
/// the cross-matcher fingerprint check — conflict-resolution tie-breaks
/// (arrival order) must also coincide.
void CheckPlanVsRete(unsigned seed, int neg_chance, int remove_pct) {
  FuzzRng rng(seed);
  FuzzProgram program = fuzz::GenProgram(rng, false, neg_chance);
  std::vector<FuzzOp> schedule =
      fuzz::GenSchedule(rng, 28, true, remove_pct);
  for (Strategy strategy : {Strategy::kLex, Strategy::kMea}) {
    for (bool batched : {true, false}) {
      FuzzConfig rete{MatcherKind::kRete, strategy, 0, batched, 0};
      FuzzResult rete_result = RunSchedule(program, schedule, rete);
      ASSERT_EQ(rete_result.load_error, "")
          << "seed " << seed << "\n" << program.Source();
      FuzzConfig plans[] = {
          {MatcherKind::kPlan, strategy, 0, batched, 0},
          {MatcherKind::kPlan, strategy, 4, batched, 0},
          {MatcherKind::kPlan, strategy, 0, batched, 0, true,
           JoinOrder::kOptimized},
          {MatcherKind::kPlan, strategy, 4, batched, 0, true,
           JoinOrder::kOptimized},
      };
      for (const FuzzConfig& plan : plans) {
        std::string mismatch =
            Diff(rete_result, RunSchedule(program, schedule, plan),
                 Cmp::kFull);
        if (!mismatch.empty()) {
          FAIL() << ShrinkAndFormat(program, schedule, rete, plan, Cmp::kFull,
                                    seed);
        }
      }
    }
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, ReteConfigSweep) {
  for (unsigned s = 0; s < 10; ++s) {
    CheckConfigSweep(MatcherKind::kRete,
                     static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, TreatConfigSweep) {
  for (unsigned s = 0; s < 10; ++s) {
    CheckConfigSweep(MatcherKind::kTreat,
                     1000 + static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, DipsConfigSweep) {
  for (unsigned s = 0; s < 10; ++s) {
    CheckConfigSweep(MatcherKind::kDips,
                     2000 + static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, CrossMatcherMatchOnly) {
  for (unsigned s = 0; s < 10; ++s) {
    CheckCrossMatcher(3000 + static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, RemoveHeavyNegationRete) {
  for (unsigned s = 0; s < 5; ++s) {
    CheckRemoveHeavy(MatcherKind::kRete,
                     4000 + static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, RemoveHeavyNegationTreat) {
  for (unsigned s = 0; s < 5; ++s) {
    CheckRemoveHeavy(MatcherKind::kTreat,
                     5000 + static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, PlanConfigSweep) {
  for (unsigned s = 0; s < 10; ++s) {
    CheckConfigSweep(MatcherKind::kPlan,
                     6000 + static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, RemoveHeavyNegationPlan) {
  for (unsigned s = 0; s < 5; ++s) {
    CheckRemoveHeavy(MatcherKind::kPlan,
                     7000 + static_cast<unsigned>(GetParam()) * 10 + s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, PlanVsReteFullTrace) {
  for (unsigned s = 0; s < 5; ++s) {
    CheckPlanVsRete(8000 + static_cast<unsigned>(GetParam()) * 10 + s,
                    /*neg_chance=*/30, /*remove_pct=*/20);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialFuzz, PlanVsReteRemoveHeavy) {
  for (unsigned s = 0; s < 5; ++s) {
    CheckPlanVsRete(9000 + static_cast<unsigned>(GetParam()) * 10 + s,
                    /*neg_chance=*/70, /*remove_pct=*/50);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// 7 shards × (10 seeds × (3 matchers + cross-matcher) + 2×5 remove-heavy
// seeds) = 350 generated programs per full run.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 7));

// Pinned remove-heavy regression seed: a deterministic anchor for the
// negation/removal interaction. The generator must keep producing a
// negation-bearing program and a retraction-heavy schedule for this seed
// (guarding the generator against silent distribution drift), and the
// full sweep must stay clean on it.
TEST(DifferentialFuzzRegression, RemoveHeavySeed4242) {
  FuzzRng rng(4242);
  FuzzProgram program = fuzz::GenProgram(rng, true, /*neg_chance=*/70);
  std::vector<FuzzOp> schedule =
      fuzz::GenSchedule(rng, 32, true, /*remove_pct=*/50);
  bool has_negation = false;
  for (const std::string& rule : program.rules) {
    if (rule.find(" - (item") != std::string::npos) has_negation = true;
  }
  EXPECT_TRUE(has_negation) << program.Source();
  int removes = 0;
  for (const FuzzOp& op : schedule) {
    if (op.kind == FuzzOp::Kind::kRemove) ++removes;
  }
  EXPECT_GE(removes, 8) << fuzz::ScheduleToString(schedule);
  CheckRemoveHeavy(MatcherKind::kRete, 4242);
  CheckRemoveHeavy(MatcherKind::kDips, 4242);
}

// The shrinker itself: a deliberately diverging "pair" (an engine with one
// rule vs the same engine with an extra firing rule) must shrink to a
// minimal schedule while preserving the divergence — guarding the
// harness's own machinery.
TEST(FuzzShrinker, ReducesScheduleAndKeepsDivergence) {
  FuzzProgram program;
  program.rules.push_back(
      "(p diverge { (item ^val > 3) <e> } --> (modify <e> ^val 0))");
  // Configs with different strategies genuinely diverge in trace once two
  // eligible instantiations coexist; the shrinker must keep a schedule
  // that still shows it.
  FuzzRng shrink_rng(7);
  std::vector<FuzzOp> schedule = fuzz::GenSchedule(shrink_rng, 20, true);
  FuzzConfig a{MatcherKind::kRete, Strategy::kLex};
  FuzzConfig b{MatcherKind::kRete, Strategy::kLex, 4, true, 2};
  // Identical configs modulo parallelism: no divergence, nothing to shrink.
  EXPECT_EQ(Check(program, schedule, a, b, Cmp::kFull), "");
}

}  // namespace
}  // namespace sorel
