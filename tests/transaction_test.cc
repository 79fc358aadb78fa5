// Transaction semantics of the working memory and the RHS executor:
//   1. Begin/Commit delivers all staged changes as one ChangeBatch;
//      Rollback undoes them and listeners never observe them.
//   2. Nested transactions (savepoints) roll back independently.
//   3. A WME made and removed in the same transaction nets out.
//   4. A set-modify / set-remove / modify that errors on its k-th member
//      leaves the working memory exactly as it was before the firing
//      (the §8.1 all-or-nothing guarantee).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "wm/change_batch.h"
#include "wm/working_memory.h"

namespace sorel {
namespace {

/// Records every notification it receives, tagging batch boundaries.
class RecordingListener : public WorkingMemory::Listener {
 public:
  void OnAdd(const WmePtr& wme) override {
    events.push_back("+" + std::to_string(wme->time_tag()));
  }
  void OnRemove(const WmePtr& wme) override {
    events.push_back("-" + std::to_string(wme->time_tag()));
  }
  void OnBatch(const ChangeBatch& batch) override {
    events.push_back("[" + std::to_string(batch.size()));
    WorkingMemory::Listener::OnBatch(batch);
    events.push_back("]");
  }

  std::vector<std::string> events;
};

class WmTransactionTest : public ::testing::Test {
 protected:
  WmTransactionTest() : wm_(&schemas_, &symbols_) {
    cls_ = symbols_.Intern("item");
    EXPECT_TRUE(schemas_.Declare(cls_, {symbols_.Intern("v")}, symbols_).ok());
    wm_.AddListener(&listener_);
  }

  WmePtr Make(int64_t v) {
    auto r = wm_.MakeFromFields(cls_, {Value::Int(v)});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  SymbolTable symbols_;
  SchemaRegistry schemas_;
  WorkingMemory wm_;
  RecordingListener listener_;
  SymbolId cls_;
};

TEST_F(WmTransactionTest, CommitDeliversOneBatchInStagingOrder) {
  wm_.Begin();
  WmePtr a = Make(1);
  WmePtr b = Make(2);
  ASSERT_TRUE(wm_.Remove(a->time_tag()).ok());
  // Nothing delivered while the transaction is open; reads see the staged
  // state immediately.
  EXPECT_TRUE(listener_.events.empty());
  EXPECT_EQ(wm_.Find(a->time_tag()), nullptr);
  EXPECT_NE(wm_.Find(b->time_tag()), nullptr);
  ASSERT_TRUE(wm_.Commit().ok());
  // The add of `a` netted out against its removal: one batch, one change.
  std::vector<std::string> want = {"[1", "+2", "]"};
  EXPECT_EQ(listener_.events, want);
  EXPECT_EQ(wm_.stats().batches, 1u);
  EXPECT_EQ(wm_.stats().batched_changes, 1u);
  EXPECT_EQ(wm_.stats().direct_events, 0u);
}

TEST_F(WmTransactionTest, RollbackRestoresLiveSetSilently) {
  WmePtr pre = Make(7);
  listener_.events.clear();
  wm_.Begin();
  Make(8);
  ASSERT_TRUE(wm_.Remove(pre->time_tag()).ok());
  wm_.Rollback();
  EXPECT_TRUE(listener_.events.empty());
  EXPECT_EQ(wm_.size(), 1u);
  EXPECT_NE(wm_.Find(pre->time_tag()), nullptr);
  EXPECT_EQ(wm_.stats().rollbacks, 1u);
  // Rolled-back transactions must not leak into a later commit.
  wm_.Begin();
  WmePtr later = Make(9);
  ASSERT_TRUE(wm_.Commit().ok());
  std::vector<std::string> want = {"[1",
                                   "+" + std::to_string(later->time_tag()),
                                   "]"};
  EXPECT_EQ(listener_.events, want);
}

TEST_F(WmTransactionTest, NestedRollbackKeepsOuterChanges) {
  wm_.Begin();
  WmePtr outer = Make(1);
  wm_.Begin();
  Make(2);
  ASSERT_TRUE(wm_.Remove(outer->time_tag()).ok());
  wm_.Rollback();  // undoes only the inner transaction
  EXPECT_NE(wm_.Find(outer->time_tag()), nullptr);
  ASSERT_TRUE(wm_.Commit().ok());
  std::vector<std::string> want = {"[1",
                                   "+" + std::to_string(outer->time_tag()),
                                   "]"};
  EXPECT_EQ(listener_.events, want);
}

TEST_F(WmTransactionTest, ReplaceStagesALinkedDeltaPair) {
  WmePtr old = Make(1);
  listener_.events.clear();
  wm_.Begin();
  auto r = wm_.Replace(old->time_tag(), {Value::Int(2)});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(wm_.Commit().ok());
  std::vector<std::string> want = {"[2", "-" + std::to_string(old->time_tag()),
                                   "+" + std::to_string((*r)->time_tag()),
                                   "]"};
  EXPECT_EQ(listener_.events, want);
}

TEST_F(WmTransactionTest, CommitWithoutBeginFails) {
  EXPECT_FALSE(wm_.Commit().ok());
}

// --- RHS all-or-nothing regressions -------------------------------------

/// Dumps the WM plus the next time tag: equal dumps + equal counters means
/// the rolled-back firing left no trace at all.
std::string WmFingerprint(Engine& engine) {
  std::ostringstream out;
  engine.DumpWm(out);
  out << "next=" << engine.wm().next_time_tag();
  return out.str();
}

constexpr std::string_view kItemSchema = "(literalize item id score)";

TEST(RhsRollbackTest, ModifyFailingOnKthMemberRollsBackWholeFiring) {
  // The foreach modifies each member in turn; the member whose score is a
  // symbol makes `(<s> + 1)` error mid-firing, after earlier members were
  // already modified. The whole firing must roll back.
  Engine engine;
  std::ostringstream devnull;
  engine.set_output(&devnull);
  MustLoad(engine, std::string(kItemSchema) +
                       "(p bump { [item ^score <s>] <P> }"
                       " :test ((count <P>) >= 3) -->"
                       " (foreach <P> ascending"
                       "   (modify <P> ^score (<s> + 1))))");
  MustMake(engine, "item", {{"id", Value::Int(1)}, {"score", Value::Int(10)}});
  MustMake(engine, "item",
           {{"id", Value::Int(2)}, {"score", engine.Sym("poison")}});
  MustMake(engine, "item", {{"id", Value::Int(3)}, {"score", Value::Int(30)}});
  std::string before = WmFingerprint(engine);
  auto r = engine.Run(10);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("non-numeric"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(WmFingerprint(engine), before);
  EXPECT_GT(engine.wm().stats().rollbacks, 0u);
}

TEST(RhsRollbackTest, SetModifyFollowedByErrorRollsBack) {
  Engine engine;
  std::ostringstream devnull;
  engine.set_output(&devnull);
  MustLoad(engine, std::string(kItemSchema) +
                       "(p zero { [item ^id <i> ^score <s>] <P> }"
                       " :test ((sum <s>) > 0) -->"
                       " (set-modify <P> ^score 0)"
                       " (bind <x> (1 / 0)))");
  MustMake(engine, "item", {{"id", Value::Int(1)}, {"score", Value::Int(5)}});
  MustMake(engine, "item", {{"id", Value::Int(2)}, {"score", Value::Int(6)}});
  std::string before = WmFingerprint(engine);
  ASSERT_FALSE(engine.Run(10).ok());
  EXPECT_EQ(WmFingerprint(engine), before);
}

TEST(RhsRollbackTest, SetRemoveFollowedByErrorRollsBack) {
  Engine engine;
  std::ostringstream devnull;
  engine.set_output(&devnull);
  MustLoad(engine, std::string(kItemSchema) +
                       "(p purge { [item ^id <i>] <P> }"
                       " :test ((count <P>) >= 2) -->"
                       " (set-remove <P>)"
                       " (bind <x> (1 / 0)))");
  MustMake(engine, "item", {{"id", Value::Int(1)}});
  MustMake(engine, "item", {{"id", Value::Int(2)}});
  std::string before = WmFingerprint(engine);
  ASSERT_FALSE(engine.Run(10).ok());
  EXPECT_EQ(WmFingerprint(engine), before);
  // The matchers never saw the rolled-back removals: the SOI is intact and
  // still holds both members.
  SNode* snode = engine.snode("purge");
  ASSERT_NE(snode, nullptr);
  EXPECT_EQ(snode->num_sois(), 1u);
}

// --- per-member set-oriented RHS: error paths and member order ----------

/// Everything observable from one run of `rule`, capped at `max_firings`,
/// over items with the given scores.
struct RhsOutcome {
  std::string status;  // "" = Run succeeded
  std::string before, after;  // WmFingerprint around the run
  uint64_t rollbacks = 0;
  uint64_t skipped_dead = 0;
};

RhsOutcome RunRhs(const std::string& rule, const std::vector<int64_t>& scores,
                  int max_firings = 10) {
  Engine engine;
  std::ostringstream devnull;
  engine.set_output(&devnull);
  MustLoad(engine, std::string(kItemSchema) + rule);
  int64_t id = 1;
  for (int64_t s : scores) {
    MustMake(engine, "item",
             {{"id", Value::Int(id++)}, {"score", Value::Int(s)}});
  }
  RhsOutcome o;
  o.before = WmFingerprint(engine);
  auto r = engine.Run(max_firings);
  o.status = r.ok() ? "" : r.status().ToString();
  o.after = WmFingerprint(engine);
  o.rollbacks = engine.wm().stats().rollbacks;
  o.skipped_dead = engine.rhs_stats().skipped_dead_targets;
  return o;
}

TEST(SetRhsMemberTest, ForeachKthMemberErrorRollsBackFiring) {
  // Member 2 (score 0) makes `(10 / <s>)` divide by zero after member 1
  // was already modified: the whole firing must roll back.
  RhsOutcome o = RunRhs(
      "(p bump { [item ^score <s>] <P> } :test ((count <P>) >= 3) -->"
      " (foreach <P> ascending (modify <P> ^score (10 / <s>))))",
      {5, 0, 2});
  ASSERT_NE(o.status, "");
  EXPECT_NE(o.status.find("zero"), std::string::npos) << o.status;
  EXPECT_EQ(o.after, o.before);
  EXPECT_GT(o.rollbacks, 0u);
}

TEST(SetRhsMemberTest, SetModifyMemberErrorRollsBackAction) {
  // The set-modify expression errors identically for every member; it
  // surfaces on member 1 inside the action's single transaction and
  // leaves the WM untouched.
  RhsOutcome o = RunRhs(
      "(p zero { [item ^score <s>] <P> } :test ((sum <s>) > 0) -->"
      " (set-modify <P> ^score ((sum <s>) / 0)))",
      {5, 6});
  ASSERT_NE(o.status, "");
  EXPECT_NE(o.status.find("zero"), std::string::npos) << o.status;
  EXPECT_EQ(o.after, o.before);
  EXPECT_GT(o.rollbacks, 0u);
}

TEST(SetRhsMemberTest, RemoveThenModifySkipsDeadTarget) {
  // Each member's body removes the member and then modifies it: the modify
  // hits the dead-target skip, not an error.
  RhsOutcome o = RunRhs(
      "(p drain { [item ^score <s>] <P> } :test ((count <P>) >= 3) -->"
      " (foreach <P> ascending (remove <P>) (modify <P> ^score 9)))",
      {1, 2, 3});
  EXPECT_EQ(o.status, "");
  EXPECT_EQ(o.after, "(startup\n)\nnext=4");
  EXPECT_EQ(o.skipped_dead, 3u);
}

TEST(SetRhsMemberTest, DescendingForeachModifiesInMemberOrder) {
  const std::string rule =
      "(p bump { [item ^score <s>] <P> } :test ((count <P>) >= 3) -->"
      " (foreach <P> descending (modify <P> ^score (<s> + 1))))";
  // One firing modifies the newest member first, so the fresh time tags
  // (and the dump, which lists WMEs by tag) run in reverse.
  RhsOutcome once = RunRhs(rule, {1, 2, 3}, 1);
  EXPECT_EQ(once.status, "");
  EXPECT_EQ(once.after,
            "(startup\n  (make item ^id 3 ^score 4)\n"
            "  (make item ^id 2 ^score 3)\n"
            "  (make item ^id 1 ^score 2)\n)\nnext=7");
  // Every modify changes the SOI, so the rule refires up to the cap.
  RhsOutcome o = RunRhs(rule, {1, 2, 3});
  EXPECT_EQ(o.status, "");
  EXPECT_EQ(o.after,
            "(startup\n  (make item ^id 1 ^score 11)\n"
            "  (make item ^id 2 ^score 12)\n"
            "  (make item ^id 3 ^score 13)\n)\nnext=34");
}

TEST(RhsRollbackTest, SuccessfulFiringStillCommitsAsOneBatch) {
  Engine engine;
  std::ostringstream devnull;
  engine.set_output(&devnull);
  MustLoad(engine, std::string(kItemSchema) +
                       "(p zero { [item ^score <s>] <P> }"
                       " :test ((sum <s>) > 0) -->"
                       " (set-modify <P> ^score 0))");
  MustMake(engine, "item", {{"id", Value::Int(1)}, {"score", Value::Int(5)}});
  MustMake(engine, "item", {{"id", Value::Int(2)}, {"score", Value::Int(6)}});
  ASSERT_EQ(MustRun(engine, 10), 1);
  // One firing = one committed batch carrying both modify delta pairs.
  EXPECT_EQ(engine.wm().stats().batches, 1u);
  EXPECT_EQ(engine.wm().stats().batched_changes, 4u);
  for (const WmePtr& w : engine.wm().Snapshot()) {
    EXPECT_EQ(w->field(1), Value::Int(0));
  }
}

}  // namespace
}  // namespace sorel
