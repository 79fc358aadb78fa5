#ifndef SOREL_ENGINE_ENGINE_H_
#define SOREL_ENGINE_ENGINE_H_

#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/symbol_table.h"
#include "base/thread_pool.h"
#include "base/value.h"
#include "core/snode.h"
#include "dips/dips.h"
#include "engine/rhs.h"
#include "lang/compiled_rule.h"
#include "lang/compiler.h"
#include "lang/join_order.h"
#include "lang/rule_base.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_matcher.h"
#include "rete/conflict_set.h"
#include "rete/matcher.h"
#include "rete/network.h"
#include "treat/treat.h"
#include "wm/schema.h"
#include "wm/working_memory.h"

namespace sorel {

/// Which match algorithm drives the engine.
enum class MatcherKind {
  kRete,   // the paper's extended Rete (S-node support)
  kTreat,  // tuple-oriented TREAT baseline (no set-oriented rules)
  kDips,   // relational (COND-table) matching per §8, set-oriented included
  kPlan,   // plan/iterator matcher: cost-ordered join pipelines, no betas
};

/// Construction-time options.
struct EngineOptions {
  Strategy strategy = Strategy::kLex;
  MatcherKind matcher = MatcherKind::kRete;
  SNodeOptions snode;
  /// Print "FIRE rule [tags]" lines to the output stream.
  bool trace_firings = false;
  /// Print "==> (wme)" / "<== (wme)" lines on every WM change.
  bool trace_wm = false;
  /// Match-network options (kRete only). The engine hands the matcher its
  /// worker pool, metric registry, tracer and (when bound) the shared
  /// topology itself.
  ReteOptions rete;
  /// Join-order policy. kTextual keeps the program's CE order (the OPS5
  /// baseline). kOptimized picks a cost-guided order from live alpha
  /// cardinalities: the plan matcher executes it directly (and re-derives
  /// it when cardinalities drift), while kRete/kTreat apply it once per
  /// rule at load time as a CE pre-reordering pass (tuple-oriented rules
  /// only; with MEA the reordered first CE becomes the recency anchor).
  /// Either way, matching stays semantically exact — order moves work.
  JoinOrder join_order = JoinOrder::kTextual;
  /// Serve conflict-set selection from the ordered index; off falls back
  /// to the linear scan (ablation baseline).
  bool indexed_conflict_set = true;
  /// Run each firing (and each WM-mutating RHS action) inside a WM
  /// transaction: the firing's changes reach the matchers as one
  /// ChangeBatch at commit, each matcher propagates them natively (the
  /// S-node evaluates `:test` once per touched SOI, TREAT coalesces
  /// unblocking re-searches, DIPS refreshes once per rule), and an error
  /// mid-action rolls the whole firing back (§8.1). Off restores the
  /// seed's per-WME propagation — the ablation baseline.
  bool batched_wm = true;
  /// Worker threads for batch match propagation. 0 (the ablation baseline)
  /// keeps the single-threaded path; N > 0 spawns a pool of N workers and
  /// every matcher fans each ChangeBatch out per rule (Rete replays
  /// per-rule beta chains, TREAT re-searches per rule, DIPS refreshes per
  /// rule), buffering conflict-set sends into per-rule deltas that merge
  /// deterministically — firing traces, conflict-set order, and time-tag
  /// counters are bit-identical to match_threads = 0.
  int match_threads = 0;
  /// Intra-rule match parallelism (kTreat only, with match_threads > 0):
  /// when a full search's first-CE alpha memory holds at least this many
  /// WMEs, the search forks into slices on the worker pool; emission
  /// (dedup and conflict-set sends) stays serial in scan order, so traces
  /// remain bit-identical. 0 disables. Other matchers ignore it.
  int intra_rule_split_min_tokens = 0;
  /// Install phase timers (match/select/act) and per-rule firing timers in
  /// the metric registry; `Profile()` renders them. Off (the default) costs
  /// nothing on the hot paths: components only install a ScopedTimer when
  /// this was set at construction, and a null timer is a no-op.
  bool enable_timers = false;
  /// Structured trace sink (borrowed; may be null). When set, the engine
  /// and its components emit the TraceEvent stream documented in
  /// obs/trace.h (cycle/select/fire/rhs_apply plus WM batch_commit/rollback
  /// and per-rule rule_replay). Swappable later via set_trace_sink().
  obs::TraceSink* trace_sink = nullptr;
};

/// The sorel production-system engine: an OPS5 interpreter extended with
/// the paper's set-oriented constructs. Typical use:
///
///   Engine engine;
///   engine.LoadString(R"((literalize player name team)
///                        (p compete [player ^name <n> ^team A]
///                                   [player ^name <n> ^team B]
///                                   --> (write ...)))");
///   engine.MakeWme("player", {{"name", engine.Sym("Jack")},
///                             {"team", engine.Sym("A")}});
///   engine.Run();
class Engine {
 public:
  /// Hot-path counters for the matcher and the conflict set, assembled by
  /// `match_stats()` (zeros for the sources a configuration lacks).
  struct MatchStats {
    ReteStats rete;
    ConflictSet::Stats select;
    /// Aggregated over every S-node (kRete with set-oriented rules).
    SNode::Stats snode;
    TreatMatcher::Stats treat;
    dips::DipsMatcher::Stats dips;
    PlanMatcher::Stats plan;
    /// Propagation-boundary counters (direct events vs. batches).
    WorkingMemory::Stats wm;
    /// Worker-pool counters (zeros when match_threads == 0).
    ThreadPool::Stats pool;
  };

  struct RunStats {
    uint64_t firings = 0;
    uint64_t actions = 0;
    std::map<std::string, uint64_t> firings_by_rule;
    /// Snapshot of `match_stats()` taken when Run/RunParallel returns.
    MatchStats match;
  };

  explicit Engine(EngineOptions options = {});
  /// Binds a session to a shared compiled rule base: instead of compiling
  /// source privately, the engine copies the base's symbol interning,
  /// reads its schema registry directly, hands the matcher the base's
  /// shared network topology, loads every base rule, and executes the
  /// base's startup actions against its own (empty) working memory. All
  /// mutable match state — alpha items, tokens, conflict set, WM — stays
  /// per-engine; the base is read-only and may be bound by any number of
  /// engines concurrently. Observable behavior is bit-identical to a
  /// private `LoadString(base->source())` on a fresh engine.
  Engine(EngineOptions options, RuleBasePtr base);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Loads `(literalize ...)` and `(p ...)` forms from source text.
  /// Refused on an engine bound to a shared rule base (the compiled
  /// artifact is immutable; compile a new base from the new source instead).
  Status LoadString(std::string_view source);
  Status LoadFile(const std::string& path);

  /// Runs the recognize–act cycle until quiescence, `halt`, or
  /// `max_firings` (< 0: unlimited). Returns the number of firings.
  Result<int> Run(int max_firings = -1);

  /// Removes a production (OPS5's `excise`): its instantiations leave the
  /// conflict set and the match network is pruned.
  Status ExciseRule(std::string_view name);

  /// Parallel-firing mode (§8.1: DIPS "attempts to execute all satisfied
  /// instantiations concurrently, relying on transaction semantics to block
  /// inconsistent updates"). Each *cycle* greedily selects, in
  /// conflict-resolution order, a maximal batch of eligible instantiations
  /// whose matched WMEs are pairwise disjoint (the conservative conflict
  /// test: overlapping support could invalidate each other, the problem
  /// Raschid et al. report), snapshots them all against the same WM state,
  /// then fires the batch. Returns the number of cycles executed; see
  /// `parallel_stats()` for firings per cycle — the §1 parallelism measure.
  Result<int> RunParallel(int max_cycles = -1);

  struct ParallelStats {
    uint64_t cycles = 0;
    uint64_t firings = 0;
    uint64_t largest_batch = 0;
    /// Instantiations skipped because their support overlapped a batch
    /// member (the would-be transaction aborts of §8.1).
    uint64_t conflicts = 0;
  };
  const ParallelStats& parallel_stats() const { return parallel_stats_; }

  /// True if the last Run ended with a `(halt)`.
  bool halted() const { return halted_; }

  // --- programmatic working-memory access ---
  /// Creates a WME; unmentioned attributes are nil. Returns its time tag.
  Result<TimeTag> MakeWme(
      std::string_view cls,
      const std::vector<std::pair<std::string, Value>>& values);
  Status RemoveWme(TimeTag tag);
  /// OPS5 modify semantics: remove + re-make with the given attributes
  /// changed and a fresh time tag. Returns the new tag.
  Result<TimeTag> ModifyWme(
      TimeTag tag, const std::vector<std::pair<std::string, Value>>& values);
  /// Writes the live working memory as a reloadable `(startup (make ...))`
  /// form — a poor man's checkpoint (DIPS-style persistence, §8).
  void DumpWm(std::ostream& out) const;
  /// Interned symbol value for `text` (convenience for MakeWme).
  Value Sym(std::string_view text) { return Value::Symbol(symbols_.Intern(text)); }

  /// OK after construction, or the first error binding to the rule base hit
  /// (a rule the configured matcher rejects, a failing startup action).
  /// Always OK on self-compiled engines — their loading reports through
  /// LoadString's return value.
  const Status& bind_status() const { return bind_status_; }

  // --- component access ---
  SymbolTable& symbols() { return symbols_; }
  /// The schema registry rules were compiled against: the shared base's
  /// when bound, this engine's own otherwise.
  const SchemaRegistry& schemas() const {
    return base_ != nullptr ? base_->schemas() : schemas_;
  }
  WorkingMemory& wm() { return *wm_; }
  ConflictSet& conflict_set() { return cs_; }
  Matcher& matcher() { return *matcher_; }
  /// Non-null when options.matcher == kRete.
  ReteMatcher* rete_matcher() { return rete_; }
  /// The S-node of a set-oriented rule, or nullptr (regular rule / TREAT).
  SNode* snode(std::string_view rule_name);
  const CompiledRule* FindRule(std::string_view name) const;
  /// The loaded rules in load order. Borrowed pointers: owned by this
  /// engine (LoadString) or by the bound shared rule base.
  const std::vector<const CompiledRule*>& rules() const {
    return active_rules_;
  }
  /// The shared rule base this engine is bound to, or null (self-compiled).
  const RuleBasePtr& rule_base() const { return base_; }

  /// Redirects `write` output and traces (default: std::cout).
  void set_output(std::ostream* out);
  /// Toggles firing traces at run time (OPS5 `watch`-style).
  void set_trace_firings(bool on) { options_.trace_firings = on; }
  /// Toggles working-memory change traces at run time.
  void set_trace_wm(bool on);
  const RunStats& run_stats() const { return run_stats_; }
  const RhsExecutor::Stats& rhs_stats() const { return rhs_.stats(); }
  /// Live matcher + conflict-set counters (see MatchStats), assembled from
  /// a registry snapshot: every field is the sum of the registry views
  /// registered under its metric name (so per-S-node counters aggregate),
  /// and sources a configuration lacks read as zero.
  MatchStats match_stats() const;
  /// Zeroes every counter a benchmark can read by fanning out to every
  /// reset hook in the metric registry (matcher, conflict set, S-nodes,
  /// WM, worker pool, RHS, run/parallel stats) and clearing all timers.
  /// Components register their own hooks, so no hand-kept field list can
  /// drift out of sync.
  void ResetMatchStats();

  // --- observability ---
  /// The engine-wide metric registry: every component's counters are
  /// registered here as named views (see obs/metrics.h); benchmarks and
  /// tests can snapshot or extend it.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }
  /// Swaps the structured trace sink at run time (null disables).
  void set_trace_sink(obs::TraceSink* sink) { trace_.set_sink(sink); }
  /// Writes a wall-time breakdown of the run: per-phase (match / select /
  /// act) and per-rule firing timers, with sample counts, totals, means,
  /// and a coarse p99. Requires EngineOptions::enable_timers; otherwise
  /// prints a pointer to that flag.
  void Profile(std::ostream& out) const;

 private:
  /// First error a match-network callback swallowed (S-node `:test`
  /// evaluation, DIPS COND-table maintenance), or OK. Run checks this
  /// every cycle so match-time failures surface instead of silently
  /// freezing the affected instantiations.
  Status MatchError() const;

  EngineOptions options_;
  /// The shared compiled artifact when bound (null otherwise). Declared
  /// first among the components so it is destroyed last: the matcher, WM,
  /// and sinks all hold pointers into the base's rules, schemas, and
  /// topology during teardown.
  RuleBasePtr base_;
  SymbolTable symbols_;
  SchemaRegistry schemas_;
  // The registry and tracer are declared before every component that
  // registers with them (and destroyed after — components Unregister in
  // their destructors).
  obs::MetricRegistry metrics_;
  obs::Tracer trace_;
  std::unique_ptr<WorkingMemory> wm_;
  ConflictSet cs_;
  std::ostream* out_ = &std::cout;
  std::map<std::string, SNode*, std::less<>> snodes_;
  // Rules are declared before the matcher: beta nodes and S-nodes hold
  // pointers into them, and the matcher's teardown still dereferences them.
  // Self-compiled engines own their rules here; bound engines leave this
  // empty (the base owns the rules) — either way `active_rules_` is the
  // load-ordered view the matcher and the public API work from.
  std::vector<CompiledRulePtr> rules_;
  std::vector<const CompiledRule*> active_rules_;
  // The pool outlives the matcher (declared first): the matcher holds a
  // borrowed ThreadPool* and may still reference it during teardown.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Matcher> matcher_;
  ReteMatcher* rete_ = nullptr;  // borrowed view of matcher_ when Rete
  TreatMatcher* treat_ = nullptr;  // borrowed view when TREAT
  dips::DipsMatcher* dips_ = nullptr;  // borrowed view when DIPS
  PlanMatcher* plan_ = nullptr;  // borrowed view when plan
  RuleCompiler compiler_;
  RhsExecutor rhs_;
  RunStats run_stats_;
  ParallelStats parallel_stats_;
  // Cached registry timers; non-null only with options.enable_timers.
  obs::Timer* select_timer_ = nullptr;
  obs::Timer* act_timer_ = nullptr;
  bool halted_ = false;
  /// First error binding to the shared rule base (see bind_status()).
  Status bind_status_;
  /// Empty rule context for startup-action execution.
  CompiledRule startup_context_;
  /// Listener printing WM changes when options.trace_wm is set.
  class WmTracer;
  std::unique_ptr<WorkingMemory::Listener> tracer_;
};

}  // namespace sorel

#endif  // SOREL_ENGINE_ENGINE_H_
