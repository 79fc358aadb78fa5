// CompiledRuleBase tests: the split between the immutable compiled
// artifact (rules, startup, schemas, network topology) and per-engine
// match state. The core claim is bit-identity — an engine bound to a
// shared base must be observably indistinguishable from one that compiled
// the same source privately — plus structural sharing: N bound engines
// hold one base, one rule vector, one topology.

#include "lang/rule_base.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace sorel {
namespace {

constexpr char kRules[] = R"(
(literalize item id cat val)
(literalize bin cat total)
(p pair (item ^cat <c> ^val <v>)
        (item ^cat <c> ^val > <v>)
        --> (make bin ^cat <c> ^total <v>))
(p cleanup (bin ^total > 100) --> (remove 1))
(startup (make item ^id 1 ^cat A ^val 3))
)";

constexpr char kSetRules[] = R"(
(literalize reading sensor val)
(p group-big { [reading ^sensor <s>] <G> }
   :scalar (<s>)
   :test ((count <G>) > 2)
   --> (write big <s>))
)";

/// Everything observable about an engine after a scripted run, captured
/// as comparable values.
struct Observed {
  std::string dump;
  std::string output;
  TimeTag next_tag = 0;
  std::map<std::string, uint64_t> counters;
  int fired = 0;

  bool operator==(const Observed& other) const {
    return dump == other.dump && output == other.output &&
           next_tag == other.next_tag && counters == other.counters &&
           fired == other.fired;
  }
};

/// Drives one engine through a deterministic workload and captures the
/// observable result. The workload exercises adds, a run, and a removal.
Observed Drive(Engine* engine, std::ostringstream* out) {
  Observed seen;
  auto t1 = engine->MakeWme("item", {{"id", Value::Int(2)},
                                     {"cat", engine->Sym("A")},
                                     {"val", Value::Int(7)}});
  EXPECT_TRUE(t1.ok()) << t1.status().ToString();
  auto t2 = engine->MakeWme("item", {{"id", Value::Int(3)},
                                     {"cat", engine->Sym("B")},
                                     {"val", Value::Int(5)}});
  EXPECT_TRUE(t2.ok()) << t2.status().ToString();
  Result<int> fired = engine->Run(10);
  EXPECT_TRUE(fired.ok()) << fired.status().ToString();
  seen.fired = fired.ok() ? *fired : -1;
  EXPECT_TRUE(engine->RemoveWme(*t2).ok());
  std::ostringstream dump;
  engine->DumpWm(dump);
  seen.dump = dump.str();
  seen.output = out->str();
  seen.next_tag = engine->wm().next_time_tag();
  seen.counters = engine->metrics().SnapshotCounters();
  return seen;
}

Observed RunSelfCompiled(MatcherKind matcher, const char* source) {
  EngineOptions options;
  options.matcher = matcher;
  options.trace_firings = true;
  Engine engine(options);
  std::ostringstream out;
  engine.set_output(&out);
  Status loaded = engine.LoadString(source);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  return Drive(&engine, &out);
}

Observed RunBound(MatcherKind matcher, const RuleBasePtr& base) {
  EngineOptions options;
  options.matcher = matcher;
  options.trace_firings = true;
  Engine engine(options, base);
  EXPECT_TRUE(engine.bind_status().ok()) << engine.bind_status().ToString();
  std::ostringstream out;
  engine.set_output(&out);
  return Drive(&engine, &out);
}

TEST(RuleBaseTest, CompileExposesRulesStartupAndTopology) {
  auto base = CompiledRuleBase::Compile(kRules);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ((*base)->rules().size(), 2u);
  EXPECT_NE((*base)->FindRule("pair"), nullptr);
  EXPECT_NE((*base)->FindRule("cleanup"), nullptr);
  EXPECT_EQ((*base)->FindRule("nope"), nullptr);
  EXPECT_FALSE((*base)->startup().empty());
  EXPECT_GT((*base)->MemoryBytes(), 0u);
  // `pair`'s two item CEs carry only cross-CE join tests, so they share
  // one bare `item` alpha pattern; cleanup's `bin ^total > 100` is the
  // second.
  EXPECT_EQ((*base)->topology().num_patterns(), 2u);
}

TEST(RuleBaseTest, TopologySharesEqualAlphaPatterns) {
  // Two rules with a structurally identical first CE share one pattern —
  // the same dedup an unbound Rete network performs on alpha memories.
  auto base = CompiledRuleBase::Compile(R"(
(literalize m a b)
(p r1 (m ^a 1) --> (halt))
(p r2 (m ^a 1) (m ^b 2) --> (halt))
)");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ((*base)->topology().num_patterns(), 2u);
  const auto* r1 = (*base)->topology().PatternsFor((*base)->FindRule("r1"));
  const auto* r2 = (*base)->topology().PatternsFor((*base)->FindRule("r2"));
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ((*r1)[0], (*r2)[0]);
}

TEST(RuleBaseTest, CompileErrorsSurface) {
  EXPECT_FALSE(CompiledRuleBase::Compile("(p broken").ok());
  EXPECT_FALSE(CompiledRuleBase::Compile(R"(
(literalize m a)
(p dup [m ^a 1] --> (halt))
(p dup [m ^a 2] --> (halt))
)").ok());
}

TEST(RuleBaseTest, BoundEngineIsBitIdenticalToSelfCompiled) {
  auto base = CompiledRuleBase::Compile(kRules);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (MatcherKind matcher : {MatcherKind::kRete, MatcherKind::kTreat,
                              MatcherKind::kDips, MatcherKind::kPlan}) {
    Observed solo = RunSelfCompiled(matcher, kRules);
    Observed bound = RunBound(matcher, *base);
    // The shared-base gauge exists only on the bound engine; counters are
    // what must agree.
    EXPECT_EQ(solo.dump, bound.dump);
    EXPECT_EQ(solo.output, bound.output);
    EXPECT_EQ(solo.next_tag, bound.next_tag);
    EXPECT_EQ(solo.fired, bound.fired);
    EXPECT_EQ(solo.counters, bound.counters);
  }
}

TEST(RuleBaseTest, BoundSetOrientedRulesMatchSelfCompiled) {
  auto base = CompiledRuleBase::Compile(kSetRules);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  auto drive = [](Engine* engine, std::ostringstream* out) {
    for (int i = 0; i < 4; ++i) {
      auto tag = engine->MakeWme(
          "reading", {{"sensor", engine->Sym("s1")},
                      {"val", Value::Int(8 + 2 * i)}});
      EXPECT_TRUE(tag.ok());
    }
    Result<int> fired = engine->Run(10);
    EXPECT_TRUE(fired.ok());
    std::ostringstream dump;
    engine->DumpWm(dump);
    return dump.str() + "|" + out->str() +
           "|fired=" + std::to_string(fired.ok() ? *fired : -1);
  };

  Engine solo{EngineOptions{}};
  std::ostringstream solo_out;
  solo.set_output(&solo_out);
  ASSERT_TRUE(solo.LoadString(kSetRules).ok());

  Engine bound({}, *base);
  ASSERT_TRUE(bound.bind_status().ok()) << bound.bind_status().ToString();
  std::ostringstream bound_out;
  bound.set_output(&bound_out);

  EXPECT_EQ(drive(&solo, &solo_out), drive(&bound, &bound_out));
  EXPECT_NE(bound.snode("group-big"), nullptr);
}

TEST(RuleBaseTest, EnginesShareOneBaseByPointer) {
  auto base = CompiledRuleBase::Compile(kRules);
  ASSERT_TRUE(base.ok());
  long before = base->use_count();
  Engine a({}, *base);
  Engine b({}, *base);
  ASSERT_TRUE(a.bind_status().ok());
  ASSERT_TRUE(b.bind_status().ok());
  EXPECT_EQ(a.rule_base().get(), b.rule_base().get());
  EXPECT_EQ(base->use_count(), before + 2);
  // The rules themselves are the base's — not per-engine copies.
  ASSERT_EQ(a.rules().size(), b.rules().size());
  for (size_t i = 0; i < a.rules().size(); ++i) {
    EXPECT_EQ(a.rules()[i], b.rules()[i]);
    EXPECT_EQ(a.rules()[i], (*base)->rules()[i].get());
  }
  // And the rule_base_bytes gauge reports the shared artifact.
  auto gauges = a.metrics().SnapshotGauges();
  EXPECT_EQ(gauges.at("engine.rule_base_bytes"),
            static_cast<double>((*base)->MemoryBytes()));
}

TEST(RuleBaseTest, BoundEngineRefusesLoadString) {
  auto base = CompiledRuleBase::Compile(kRules);
  ASSERT_TRUE(base.ok());
  Engine engine({}, *base);
  ASSERT_TRUE(engine.bind_status().ok());
  Status loaded = engine.LoadString("(literalize extra x)");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
}

TEST(RuleBaseTest, ExciseIsPerSession) {
  auto base = CompiledRuleBase::Compile(kRules);
  ASSERT_TRUE(base.ok());
  Engine a({}, *base);
  Engine b({}, *base);
  ASSERT_TRUE(a.ExciseRule("pair").ok());
  EXPECT_EQ(a.FindRule("pair"), nullptr);
  EXPECT_EQ(a.rules().size(), 1u);
  // The other session (and the base itself) still has the rule.
  EXPECT_NE(b.FindRule("pair"), nullptr);
  EXPECT_EQ((*base)->rules().size(), 2u);
  auto tag = b.MakeWme("item", {{"id", Value::Int(9)},
                                {"cat", b.Sym("A")},
                                {"val", Value::Int(99)}});
  ASSERT_TRUE(tag.ok());
  Result<int> fired = b.Run(10);
  ASSERT_TRUE(fired.ok());
  EXPECT_GT(*fired, 0);
}

TEST(RuleBaseTest, TreatRejectsSetRulesThroughBindStatus) {
  auto base = CompiledRuleBase::Compile(kSetRules);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EngineOptions options;
  options.matcher = MatcherKind::kTreat;
  Engine engine(options, *base);
  EXPECT_FALSE(engine.bind_status().ok());
}

}  // namespace
}  // namespace sorel
