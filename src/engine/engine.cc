#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_set>
#include <sstream>
#include <utility>

#include "dips/dips.h"
#include "lang/parser.h"
#include "treat/treat.h"

namespace sorel {

/// Prints working-memory changes (OPS5's `watch 1`-style tracing).
class Engine::WmTracer : public WorkingMemory::Listener {
 public:
  explicit WmTracer(Engine* engine) : engine_(engine) {}
  void OnAdd(const WmePtr& wme) override { Print("==>", wme); }
  void OnRemove(const WmePtr& wme) override { Print("<==", wme); }

 private:
  void Print(const char* arrow, const WmePtr& wme) {
    const ClassSchema* schema = engine_->schemas().Find(wme->cls());
    *engine_->out_ << arrow << " "
                   << wme->ToString(engine_->symbols_, *schema) << "\n";
  }
  Engine* engine_;
};

Engine::Engine(EngineOptions options)
    : Engine(std::move(options), nullptr) {}

Engine::Engine(EngineOptions options, RuleBasePtr base)
    : options_(std::move(options)),
      base_(std::move(base)),
      wm_(std::make_unique<WorkingMemory>(
          base_ != nullptr ? &base_->schemas() : &schemas_, &symbols_,
          &metrics_, &trace_)),
      cs_(options_.indexed_conflict_set, &metrics_),
      compiler_(&symbols_, &schemas_),
      rhs_(wm_.get(), &symbols_, &std::cout, &metrics_, &trace_) {
  if (base_ != nullptr) {
    // Adopt the base's interning before anything can intern: the shared
    // rules, schemas, and startup actions all hold the base's SymbolIds by
    // value, and CopyFrom preserves ids exactly.
    symbols_.CopyFrom(base_->symbols());
  }
  // Before any matcher is built: they consult timing_enabled() at
  // construction to decide whether to install hot-path scope timers.
  metrics_.set_timing_enabled(options_.enable_timers);
  trace_.set_sink(options_.trace_sink);
  if (options_.enable_timers) {
    select_timer_ = metrics_.GetOrCreateTimer("phase.select");
    act_timer_ = metrics_.GetOrCreateTimer("phase.act");
  }
  rhs_.set_output(out_);
  if (options_.match_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.match_threads);
  }
  // Bound engines hand the matcher the shared topology so its alpha
  // structures borrow the base's immutable patterns (pointer-identity
  // dedup) instead of deriving private copies.
  const NetworkTopology* topology =
      base_ != nullptr ? &base_->topology() : nullptr;
  if (options_.matcher == MatcherKind::kRete) {
    SinkFactory factory = [this](const CompiledRule& rule)
        -> std::unique_ptr<ReteSink> {
      if (!rule.has_set) return std::make_unique<PNode>(&rule, &cs_);
      auto snode = std::make_unique<SNode>(&rule, &cs_, options_.snode,
                                           &metrics_);
      snodes_[rule.name] = snode.get();
      return snode;
    };
    auto rete = std::make_unique<ReteMatcher>(
        wm_.get(), &cs_, std::move(factory), options_.rete, pool_.get(),
        &metrics_, &trace_, topology);
    rete_ = rete.get();
    matcher_ = std::move(rete);
  } else if (options_.matcher == MatcherKind::kTreat) {
    auto treat = std::make_unique<TreatMatcher>(
        wm_.get(), &cs_, pool_.get(), options_.intra_rule_split_min_tokens,
        &metrics_, &trace_);
    treat_ = treat.get();
    matcher_ = std::move(treat);
  } else if (options_.matcher == MatcherKind::kPlan) {
    auto plan = std::make_unique<PlanMatcher>(
        wm_.get(), &cs_, options_.join_order, pool_.get(), &metrics_, &trace_,
        topology);
    plan_ = plan.get();
    matcher_ = std::move(plan);
  } else {
    auto dips = std::make_unique<dips::DipsMatcher>(
        wm_.get(), &cs_, pool_.get(), &metrics_, &trace_);
    dips_ = dips.get();
    matcher_ = std::move(dips);
  }
  // The pool lives in sorel_base (below the obs layer), so the engine
  // registers its counters; run/parallel stats are the engine's own.
  if (pool_ != nullptr) {
    ThreadPool* pool = pool_.get();
    metrics_.RegisterCounter(this, "pool.threads",
                             [pool] { return pool->stats().threads; });
    metrics_.RegisterCounter(this, "pool.tasks",
                             [pool] { return pool->stats().tasks; });
    metrics_.RegisterCounter(this, "pool.batches",
                             [pool] { return pool->stats().batches; });
    metrics_.RegisterCounter(this, "pool.nested_batches",
                             [pool] { return pool->stats().nested_batches; });
    metrics_.RegisterCounter(this, "pool.max_task_depth",
                             [pool] { return pool->stats().max_task_depth; });
  }
  metrics_.RegisterCounter(this, "run.firings",
                           [this] { return run_stats_.firings; });
  metrics_.RegisterCounter(this, "run.actions",
                           [this] { return run_stats_.actions; });
  metrics_.RegisterCounter(this, "parallel.cycles",
                           [this] { return parallel_stats_.cycles; });
  metrics_.RegisterCounter(this, "parallel.firings",
                           [this] { return parallel_stats_.firings; });
  metrics_.RegisterCounter(this, "parallel.largest_batch",
                           [this] { return parallel_stats_.largest_batch; });
  metrics_.RegisterCounter(this, "parallel.conflicts",
                           [this] { return parallel_stats_.conflicts; });
  metrics_.RegisterReset(this, [this] {
    if (pool_ != nullptr) pool_->ResetStats();
    run_stats_ = {};
    parallel_stats_ = {};
  });
  rhs_.set_transactional(options_.batched_wm);
  startup_context_.name = "startup";
  if (options_.trace_wm) {
    tracer_ = std::make_unique<WmTracer>(this);
    wm_->AddListener(tracer_.get());
  }
  if (base_ != nullptr) {
    // Bind: load every base rule into the fresh matcher, then run the
    // base's startup actions — the same order LoadString performs them in,
    // so network shape, time tags, and traces are bit-identical to a
    // private compile of base->source().
    for (const CompiledRulePtr& rule : base_->rules()) {
      bind_status_ = matcher_->AddRule(rule.get());
      if (!bind_status_.ok()) return;
      active_rules_.push_back(rule.get());
    }
    if (!base_->startup().empty()) {
      Result<RhsExecutor::FireResult> result =
          rhs_.ExecuteStandalone(startup_context_, base_->startup());
      if (!result.ok()) bind_status_ = result.status();
    }
    const CompiledRuleBase* b = base_.get();
    metrics_.RegisterGauge(this, "engine.rule_base_bytes", [b] {
      return static_cast<double>(b->MemoryBytes());
    });
  }
}

Engine::~Engine() {
  metrics_.Unregister(this);
  if (tracer_ != nullptr) wm_->RemoveListener(tracer_.get());
}

void Engine::set_output(std::ostream* out) {
  out_ = out;
  rhs_.set_output(out);
}

void Engine::set_trace_wm(bool on) {
  options_.trace_wm = on;
  if (on && tracer_ == nullptr) {
    tracer_ = std::make_unique<WmTracer>(this);
    wm_->AddListener(tracer_.get());
  } else if (!on && tracer_ != nullptr) {
    wm_->RemoveListener(tracer_.get());
    tracer_.reset();
  }
}

Status Engine::LoadString(std::string_view source) {
  if (base_ != nullptr) {
    return Status::InvalidArgument(
        "engine is bound to a shared rule base; the compiled artifact is "
        "immutable — open a session on a base compiled from the new source");
  }
  SOREL_ASSIGN_OR_RETURN(ProgramAst program, Parse(source));
  for (const LiteralizeAst& lit : program.literalizes) {
    SOREL_RETURN_IF_ERROR(compiler_.DeclareLiteralize(lit));
  }
  for (RuleAst& rule_ast : program.rules) {
    if (FindRule(rule_ast.name) != nullptr) {
      return Status::CompileError("duplicate rule name '" + rule_ast.name +
                                  "'");
    }
    SOREL_ASSIGN_OR_RETURN(CompiledRulePtr rule,
                           compiler_.Compile(std::move(rule_ast)));
    // Load-time CE pre-reordering: Rete and TREAT execute the textual CE
    // chain, so the optimized order is applied by rewriting the rule once
    // before network construction. The plan matcher re-derives its order
    // at run time and leaves the rule untouched; DIPS refreshes whole
    // relations and is order-insensitive. Set-oriented rules keep their
    // chain (the S-node's element CE anchors it).
    if (options_.join_order == JoinOrder::kOptimized && !rule->has_set &&
        (options_.matcher == MatcherKind::kRete ||
         options_.matcher == MatcherKind::kTreat)) {
      JoinOrderResult r =
          OptimizeJoinOrder(*rule, EstimateCards(*rule, wm_->Snapshot()));
      if (r.reordered) ReorderRuleInPlace(rule.get(), r.order);
    }
    SOREL_RETURN_IF_ERROR(matcher_->AddRule(rule.get()));
    active_rules_.push_back(rule.get());
    rules_.push_back(std::move(rule));
  }
  if (!program.startup.empty()) {
    SOREL_RETURN_IF_ERROR(compiler_.CompileStartup(&program.startup));
    SOREL_ASSIGN_OR_RETURN(
        RhsExecutor::FireResult result,
        rhs_.ExecuteStandalone(startup_context_, program.startup));
    (void)result;
  }
  return Status::Ok();
}

Status Engine::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::InvalidArgument("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadString(buf.str());
}

Result<TimeTag> Engine::MakeWme(
    std::string_view cls,
    const std::vector<std::pair<std::string, Value>>& values) {
  std::vector<std::pair<SymbolId, Value>> resolved;
  resolved.reserve(values.size());
  for (const auto& [attr, value] : values) {
    resolved.emplace_back(symbols_.Intern(attr), value);
  }
  SOREL_ASSIGN_OR_RETURN(WmePtr wme,
                         wm_->Make(symbols_.Intern(cls), resolved));
  return wme->time_tag();
}

Status Engine::RemoveWme(TimeTag tag) { return wm_->Remove(tag); }

Result<TimeTag> Engine::ModifyWme(
    TimeTag tag, const std::vector<std::pair<std::string, Value>>& values) {
  WmePtr old = wm_->Find(tag);
  if (old == nullptr) {
    return Status::NotFound("modify: no live WME with time tag " +
                            std::to_string(tag));
  }
  const ClassSchema* schema = schemas().Find(old->cls());
  std::vector<Value> fields = old->fields();
  for (const auto& [attr, value] : values) {
    int field = schema->FieldOf(symbols_.Intern(attr));
    if (field < 0) {
      return Status::InvalidArgument("modify: class '" +
                                     std::string(symbols_.Name(old->cls())) +
                                     "' has no attribute '" + attr + "'");
    }
    fields[static_cast<size_t>(field)] = value;
  }
  // One transaction when batching: the matchers see the modify as a single
  // delta-pair batch instead of a free-standing remove + add.
  if (options_.batched_wm) wm_->Begin();
  Result<WmePtr> wme = wm_->Replace(tag, std::move(fields));
  if (options_.batched_wm) {
    if (wme.ok()) {
      SOREL_RETURN_IF_ERROR(wm_->Commit());
    } else {
      wm_->Rollback();
    }
  }
  SOREL_RETURN_IF_ERROR(wme.status());
  return (*wme)->time_tag();
}

namespace {

// Quotes a symbol if it contains delimiter characters or looks numeric.
// The lexer accepts both |...| and "..." quoted atoms (no escapes), so a
// symbol containing '|' is emitted in double quotes and vice versa. A
// symbol containing both delimiters is unrepresentable in the source
// syntax and cannot round-trip.
std::string QuoteAtom(std::string_view text) {
  bool needs_quote = text.empty();
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0 ||
        std::string_view("()[]{};^<>=|\"").find(c) != std::string_view::npos) {
      needs_quote = true;
    }
  }
  if (!text.empty() &&
      (std::isdigit(static_cast<unsigned char>(text.front())) != 0 ||
       text.front() == '-' || text.front() == '+')) {
    needs_quote = true;
  }
  if (!needs_quote) return std::string(text);
  char delim = text.find('|') != std::string_view::npos ? '"' : '|';
  return delim + std::string(text) + delim;
}

}  // namespace

void Engine::DumpWm(std::ostream& out) const {
  out << "(startup\n";
  for (const WmePtr& wme : wm_->Snapshot()) {
    const ClassSchema* schema = schemas().Find(wme->cls());
    out << "  (make " << symbols_.Name(wme->cls());
    for (int i = 0; i < wme->num_fields(); ++i) {
      const Value& v = wme->field(i);
      if (v.is_nil()) continue;
      out << " ^" << symbols_.Name(schema->attrs()[static_cast<size_t>(i)])
          << " ";
      if (v.is_symbol()) {
        out << QuoteAtom(symbols_.Name(v.as_symbol()));
      } else {
        out << v.ToString(symbols_);
      }
    }
    out << ")\n";
  }
  out << ")\n";
}

Status Engine::ExciseRule(std::string_view name) {
  const CompiledRule* rule = FindRule(name);
  if (rule == nullptr) {
    return Status::NotFound("no rule named '" + std::string(name) + "'");
  }
  SOREL_RETURN_IF_ERROR(matcher_->RemoveRule(rule));
  snodes_.erase(std::string(name));
  std::erase(active_rules_, rule);
  // Bound engines leave rules_ empty — the base keeps the rule alive for
  // the other sessions (and for a later re-bind); only this session's
  // match state is pruned.
  std::erase_if(rules_, [rule](const CompiledRulePtr& r) {
    return r.get() == rule;
  });
  return Status::Ok();
}

SNode* Engine::snode(std::string_view rule_name) {
  auto it = snodes_.find(rule_name);
  return it == snodes_.end() ? nullptr : it->second;
}

const CompiledRule* Engine::FindRule(std::string_view name) const {
  for (const CompiledRule* rule : active_rules_) {
    if (rule->name == name) return rule;
  }
  return nullptr;
}

Status Engine::MatchError() const {
  for (const auto& [name, snode] : snodes_) {
    if (!snode->last_error().ok()) return snode->last_error();
  }
  if (dips_ != nullptr && !dips_->last_error().ok()) {
    return dips_->last_error();
  }
  return Status::Ok();
}

Engine::MatchStats Engine::match_stats() const {
  // A registry snapshot: each field reads the sum of the views registered
  // under its metric name (names a configuration lacks read as zero), so
  // the values are bit-identical to polling the components directly.
  std::map<std::string, uint64_t> c = metrics_.SnapshotCounters();
  auto get = [&c](const char* name) -> uint64_t {
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
  };
  MatchStats stats;
  stats.rete.join_attempts = get("rete.join_attempts");
  stats.rete.index_probes = get("rete.index_probes");
  stats.rete.tokens_created = get("rete.tokens_created");
  stats.rete.tokens_deleted = get("rete.tokens_deleted");
  stats.rete.right_activations = get("rete.right_activations");
  stats.rete.batches = get("rete.batches");
  stats.rete.grouped_removals = get("rete.grouped_removals");
  stats.rete.token_pool_hits = get("rete.token_pool_hits");
  stats.rete.parallel_batches = get("rete.parallel_batches");
  stats.rete.replay_tasks = get("rete.replay_tasks");
  stats.rete.bulk_deletes = get("rete.bulk_deletes");
  stats.rete.arena_slabs = get("rete.arena_slabs");
  stats.select.selects = get("select.selects");
  stats.select.comparisons = get("select.comparisons");
  stats.snode.tokens = get("snode.tokens");
  stats.snode.sends_plus = get("snode.sends_plus");
  stats.snode.sends_minus = get("snode.sends_minus");
  stats.snode.sends_time = get("snode.sends_time");
  stats.snode.sois_created = get("snode.sois_created");
  stats.snode.sois_deleted = get("snode.sois_deleted");
  stats.snode.test_evals = get("snode.test_evals");
  stats.snode.batch_flushes = get("snode.batch_flushes");
  stats.treat.seeded_searches = get("treat.seeded_searches");
  stats.treat.full_searches = get("treat.full_searches");
  stats.treat.batches = get("treat.batches");
  stats.treat.coalesced_researches = get("treat.coalesced_researches");
  stats.treat.grouped_removals = get("treat.grouped_removals");
  stats.treat.intra_splits = get("treat.intra_splits");
  stats.treat.intra_slice_tasks = get("treat.intra_slice_tasks");
  stats.dips.refreshes = get("dips.refreshes");
  stats.dips.batches = get("dips.batches");
  stats.plan.join_attempts = get("plan.join_attempts");
  stats.plan.reorders = get("plan.reorders");
  stats.plan.est_cardinality_error = get("plan.est_cardinality_error");
  stats.plan.index_builds = get("plan.index_builds");
  stats.plan.seeded_searches = get("plan.seeded_searches");
  stats.plan.full_searches = get("plan.full_searches");
  stats.plan.batches = get("plan.batches");
  stats.wm.adds = get("wm.adds");
  stats.wm.removes = get("wm.removes");
  stats.wm.direct_events = get("wm.direct_events");
  stats.wm.batches = get("wm.batches");
  stats.wm.batched_changes = get("wm.batched_changes");
  stats.wm.rollbacks = get("wm.rollbacks");
  stats.wm.changes_rolled_back = get("wm.changes_rolled_back");
  stats.wm.wme_pool_hits = get("wm.wme_pool_hits");
  stats.wm.wme_slabs = get("wm.wme_slabs");
  stats.pool.threads = get("pool.threads");
  stats.pool.tasks = get("pool.tasks");
  stats.pool.batches = get("pool.batches");
  stats.pool.nested_batches = get("pool.nested_batches");
  stats.pool.max_task_depth = get("pool.max_task_depth");
  return stats;
}

void Engine::ResetMatchStats() { metrics_.ResetAll(); }

namespace {

void ProfileSection(std::ostream& out, const char* title,
                    const std::vector<std::pair<std::string,
                                                obs::TimerSnapshot>>& rows) {
  if (rows.empty()) return;
  out << title << "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %10s %12s %10s %10s\n", "name",
                "count", "total_ms", "mean_us", "~p99_us");
  out << line;
  for (const auto& [name, snap] : rows) {
    std::snprintf(line, sizeof(line),
                  "  %-28s %10llu %12.3f %10.2f %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(snap.count), snap.TotalMs(),
                  snap.MeanUs(), snap.ApproxP99Us());
    out << line;
  }
}

}  // namespace

void Engine::Profile(std::ostream& out) const {
  std::map<std::string, obs::TimerSnapshot> timers = metrics_.SnapshotTimers();
  out << "--- profile ---\n";
  // Arena / memory-layout gauges are cheap point-in-time reads, so they
  // print even when timing is disabled.
  std::map<std::string, double> gauges = metrics_.SnapshotGauges();
  bool any_bytes = false;
  for (const auto& [name, value] : gauges) {
    if (name.size() < 6 || name.rfind("_bytes") != name.size() - 6) continue;
    if (!any_bytes) {
      out << "memory\n";
      any_bytes = true;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %12.1f KiB\n", name.c_str(),
                  value / 1024.0);
    out << line;
  }
  if (!options_.enable_timers) {
    out << "(timers disabled; construct with EngineOptions::enable_timers)\n";
    return;
  }
  // Phase rows first (match / select / act), then per-rule firing time.
  std::vector<std::pair<std::string, obs::TimerSnapshot>> phases;
  std::vector<std::pair<std::string, obs::TimerSnapshot>> rules;
  for (const auto& [name, snap] : timers) {
    if (name.rfind("phase.", 0) == 0) {
      phases.emplace_back(name, snap);
    } else if (name.rfind("rule.", 0) == 0 && snap.count > 0) {
      rules.emplace_back(name, snap);
    }
  }
  // Largest total first: the rule the run actually spent its time in.
  std::sort(rules.begin(), rules.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  ProfileSection(out, "phases", phases);
  ProfileSection(out, "rules (by total act time)", rules);
}

Result<int> Engine::Run(int max_firings) {
  halted_ = false;
  int fired = 0;
  while (max_firings < 0 || fired < max_firings) {
    // Surface errors the match network had to swallow inside WM-change
    // callbacks (the affected instantiations are unreliable from here on).
    SOREL_RETURN_IF_ERROR(MatchError());
    InstantiationRef* inst;
    {
      obs::ScopedTimer select_scope(select_timer_);
      inst = cs_.Select(options_.strategy);
    }
    if (inst == nullptr) break;
    const CompiledRule& rule = inst->rule();
    // Snapshot before firing: RHS actions may retract (or even delete) the
    // instantiation itself.
    std::vector<Row> rows;
    inst->CollectRows(&rows);
    if (trace_.enabled()) {
      trace_.Emit(obs::TraceEvent("cycle_begin")
                      .Num("cycle", static_cast<uint64_t>(fired)));
      std::string tags;
      for (TimeTag t : inst->RecencyTags()) {
        if (!tags.empty()) tags += ' ';
        tags += std::to_string(t);
      }
      trace_.Emit(obs::TraceEvent("select")
                      .Str("rule", rule.name)
                      .Num("rows", rows.size())
                      .Str("tags", std::move(tags)));
    }
    if (options_.trace_firings) {
      *out_ << "FIRE " << rule.name;
      for (TimeTag t : inst->RecencyTags()) *out_ << " " << t;
      *out_ << " (" << rows.size() << (rows.size() == 1 ? " row)" : " rows)")
            << "\n";
    }
    // Regular instantiations obey classic refraction (drop the entry); SOIs
    // stay, ineligible until the γ-memory changes again (§6).
    cs_.MarkFired(inst, /*remove_entry=*/!rule.has_set);
    if (trace_.enabled()) {
      trace_.Emit(obs::TraceEvent("fire")
                      .Str("rule", rule.name)
                      .Num("rows", rows.size()));
    }
    std::chrono::steady_clock::time_point act_start;
    if (act_timer_ != nullptr) act_start = std::chrono::steady_clock::now();
    SOREL_ASSIGN_OR_RETURN(RhsExecutor::FireResult result,
                           rhs_.Fire(rule, std::move(rows)));
    if (act_timer_ != nullptr) {
      auto ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - act_start)
              .count());
      act_timer_->Record(ns);
      metrics_.GetOrCreateTimer("rule." + rule.name)->Record(ns);
    }
    ++fired;
    ++run_stats_.firings;
    run_stats_.actions += result.actions;
    ++run_stats_.firings_by_rule[rule.name];
    if (trace_.enabled()) {
      trace_.Emit(obs::TraceEvent("cycle_end")
                      .Num("cycle", static_cast<uint64_t>(fired - 1)));
    }
    if (result.halted) {
      halted_ = true;
      break;
    }
  }
  run_stats_.match = match_stats();
  // The final firing (or pre-Run WM changes, when nothing fired) may have
  // corrupted a γ-memory too.
  SOREL_RETURN_IF_ERROR(MatchError());
  return fired;
}

Result<int> Engine::RunParallel(int max_cycles) {
  halted_ = false;
  int cycles = 0;
  while (max_cycles < 0 || cycles < max_cycles) {
    SOREL_RETURN_IF_ERROR(MatchError());
    std::vector<InstantiationRef*> eligible;
    {
      obs::ScopedTimer select_scope(select_timer_);
      eligible = cs_.SortedEligible(options_.strategy);
    }
    if (eligible.empty()) break;
    if (trace_.enabled()) {
      trace_.Emit(obs::TraceEvent("cycle_begin")
                      .Num("cycle", static_cast<uint64_t>(cycles))
                      .Num("eligible", eligible.size()));
    }
    // Greedy batch: support sets must be pairwise disjoint.
    struct Pending {
      const CompiledRule* rule;
      std::vector<Row> rows;
    };
    std::vector<Pending> batch;
    std::unordered_set<TimeTag> claimed;
    for (InstantiationRef* inst : eligible) {
      std::vector<Row> rows;
      inst->CollectRows(&rows);
      bool overlaps = false;
      std::vector<TimeTag> tags;
      for (const Row& row : rows) {
        for (const WmePtr& w : row) {
          if (claimed.count(w->time_tag()) != 0) overlaps = true;
          tags.push_back(w->time_tag());
        }
      }
      if (overlaps) {
        ++parallel_stats_.conflicts;
        continue;
      }
      for (TimeTag t : tags) claimed.insert(t);
      cs_.MarkFired(inst, /*remove_entry=*/!inst->rule().has_set);
      batch.push_back({&inst->rule(), std::move(rows)});
    }
    // Execute the batch inside one cycle-level transaction: all members
    // were snapshotted against the same WM state, disjoint support keeps
    // their effects independent, and the matchers see the cycle's combined
    // effect as a single ChangeBatch at commit. An error aborts the whole
    // cycle (§8.1's transaction semantics).
    if (options_.batched_wm) wm_->Begin();
    for (Pending& pending : batch) {
      size_t num_rows = pending.rows.size();
      if (trace_.enabled()) {
        trace_.Emit(obs::TraceEvent("fire")
                        .Str("rule", pending.rule->name)
                        .Num("rows", num_rows));
      }
      std::chrono::steady_clock::time_point act_start;
      if (act_timer_ != nullptr) act_start = std::chrono::steady_clock::now();
      Result<RhsExecutor::FireResult> result =
          rhs_.Fire(*pending.rule, std::move(pending.rows));
      if (act_timer_ != nullptr) {
        auto ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - act_start)
                .count());
        act_timer_->Record(ns);
        metrics_.GetOrCreateTimer("rule." + pending.rule->name)->Record(ns);
      }
      if (!result.ok()) {
        if (options_.batched_wm) wm_->Rollback();
        return result.status();
      }
      ++run_stats_.firings;
      ++parallel_stats_.firings;
      run_stats_.actions += result->actions;
      ++run_stats_.firings_by_rule[pending.rule->name];
      if (result->halted) halted_ = true;
    }
    if (options_.batched_wm) SOREL_RETURN_IF_ERROR(wm_->Commit());
    if (trace_.enabled()) {
      trace_.Emit(obs::TraceEvent("cycle_end")
                      .Num("cycle", static_cast<uint64_t>(cycles))
                      .Num("batch", batch.size()));
    }
    ++cycles;
    ++parallel_stats_.cycles;
    parallel_stats_.largest_batch =
        std::max(parallel_stats_.largest_batch,
                 static_cast<uint64_t>(batch.size()));
    if (halted_) break;
  }
  run_stats_.match = match_stats();
  SOREL_RETURN_IF_ERROR(MatchError());
  return cycles;
}

}  // namespace sorel
