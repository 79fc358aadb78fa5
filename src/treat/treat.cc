#include "treat/treat.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>

#include "base/thread_pool.h"
#include "rete/instantiation.h"

namespace sorel {

namespace {

struct TagVecHash {
  size_t operator()(const std::vector<TimeTag>& tags) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (TimeTag t : tags) {
      h ^= std::hash<TimeTag>()(t) + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

std::vector<TimeTag> RowSignature(const Row& row) {
  std::vector<TimeTag> sig;
  sig.reserve(row.size());
  for (const WmePtr& w : row) sig.push_back(w->time_tag());
  return sig;
}

}  // namespace

/// A TREAT instantiation: one complete row, owned by the matcher.
class TreatMatcher::TreatInst : public InstantiationRef {
 public:
  TreatInst(const CompiledRule* rule, Row row)
      : rule_(rule), row_(std::move(row)) {}

  const CompiledRule& rule() const override { return *rule_; }
  void CollectRows(std::vector<Row>* out) const override {
    out->push_back(row_);
  }
  std::vector<TimeTag> RecencyTags() const override {
    std::vector<TimeTag> tags = RowSignature(row_);
    std::sort(tags.rbegin(), tags.rend());
    return tags;
  }
  TimeTag FirstCeTag() const override {
    return row_.empty() ? 0 : row_.front()->time_tag();
  }
  const Row& row() const { return row_; }

 private:
  const CompiledRule* rule_;
  Row row_;
};

/// One per-rule, per-CE alpha memory: the WME column plus a parallel
/// time-tag column, so the removal passes scan contiguous integers instead
/// of dereferencing a WME per item. Erasures compact eagerly (no
/// tombstones), so sizes, iteration order, and first-CE slice bounds follow
/// insertion order.
class TreatMatcher::TreatAlpha {
 public:
  size_t size() const { return wmes_.size(); }
  const WmePtr& operator[](size_t i) const { return wmes_[i]; }
  std::vector<WmePtr>::const_iterator begin() const { return wmes_.begin(); }
  std::vector<WmePtr>::const_iterator end() const { return wmes_.end(); }

  void Append(const WmePtr& w) {
    tags_.push_back(w->time_tag());
    wmes_.push_back(w);
  }

  /// Erases the item holding `w` (found by its time tag, unique per WME);
  /// returns false if absent.
  bool Remove(const Wme& w) {
    auto it = std::find(tags_.begin(), tags_.end(), w.time_tag());
    if (it == tags_.end()) return false;
    wmes_.erase(wmes_.begin() + (it - tags_.begin()));
    tags_.erase(it);
    return true;
  }

  /// Erases every item whose tag is in `victims` in one stable two-pointer
  /// pass, invoking `hit(tag)` per erased item in position order. Returns
  /// the number erased.
  template <typename Fn>
  size_t RemoveTags(const std::unordered_set<TimeTag>& victims, Fn&& hit) {
    const size_t n = wmes_.size();
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      const TimeTag tag = tags_[i];
      if (victims.count(tag) != 0) {
        hit(tag);
        continue;
      }
      if (out != i) {
        tags_[out] = tag;
        wmes_[out] = std::move(wmes_[i]);
      }
      ++out;
    }
    tags_.resize(out);
    wmes_.resize(out);
    ShrinkIfSlack();
    return n - out;
  }

  size_t MemoryBytes() const {
    return wmes_.capacity() * sizeof(WmePtr) +
           tags_.capacity() * sizeof(TimeTag);
  }

 private:
  /// Caps peak RSS after a bulk erase drained a memory far below its
  /// high-water mark; small or mostly-full memories keep their capacity.
  void ShrinkIfSlack() {
    if (wmes_.capacity() > 64 && wmes_.size() * 4 < wmes_.capacity()) {
      wmes_.shrink_to_fit();
      tags_.shrink_to_fit();
    }
  }

  std::vector<WmePtr> wmes_;
  std::vector<TimeTag> tags_;  // parallel to wmes_
};

struct TreatMatcher::RuleState {
  const CompiledRule* rule = nullptr;
  /// Alpha memory per CE (original index).
  std::vector<TreatAlpha> alpha;
  /// Current instantiations keyed by their time-tag signature.
  std::unordered_map<std::vector<TimeTag>, std::unique_ptr<TreatInst>,
                     TagVecHash>
      insts;
  /// A negated-CE removal occurred this batch; run one SearchAll at end.
  bool needs_research = false;
};

TreatMatcher::TreatMatcher(WorkingMemory* wm, ConflictSet* cs,
                           ThreadPool* pool, int split_min_rows,
                           obs::MetricRegistry* metrics, obs::Tracer* tracer)
    : wm_(wm), cs_(cs), pool_(pool), split_min_rows_(split_min_rows),
      metrics_(metrics), tracer_(tracer) {
  wm_->AddListener(this);
  if (metrics_ != nullptr) {
    metrics_->RegisterGauge(this, "treat.alpha_bytes", [this] {
      return static_cast<double>(AlphaMemoryBytes());
    });
    metrics_->RegisterCounter(this, "treat.seeded_searches",
                              [this] { return stats_.seeded_searches; });
    metrics_->RegisterCounter(this, "treat.full_searches",
                              [this] { return stats_.full_searches; });
    metrics_->RegisterCounter(this, "treat.batches",
                              [this] { return stats_.batches; });
    metrics_->RegisterCounter(this, "treat.coalesced_researches",
                              [this] { return stats_.coalesced_researches; });
    metrics_->RegisterCounter(this, "treat.grouped_removals",
                              [this] { return stats_.grouped_removals; });
    metrics_->RegisterCounter(this, "treat.intra_splits",
                              [this] { return stats_.intra_splits; });
    metrics_->RegisterCounter(this, "treat.intra_slice_tasks",
                              [this] { return stats_.intra_slice_tasks; });
    metrics_->RegisterReset(this, [this] { ResetStats(); });
    if (metrics_->timing_enabled()) {
      match_timer_ = metrics_->GetOrCreateTimer("phase.match");
    }
  }
}

TreatMatcher::~TreatMatcher() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
  wm_->RemoveListener(this);
  for (const auto& rs : rules_) {
    for (const auto& [sig, inst] : rs->insts) cs_->Remove(inst.get());
  }
}

Status TreatMatcher::AddRule(const CompiledRule* rule) {
  if (rule->has_set) {
    return Status::Unimplemented(
        "rule '" + rule->name +
        "': TREAT is the tuple-oriented baseline and does not support "
        "set-oriented constructs");
  }
  auto rs = std::make_unique<RuleState>();
  rs->rule = rule;
  rs->alpha.resize(rule->conditions.size());
  for (const WmePtr& w : wm_->Snapshot()) {
    for (size_t ce = 0; ce < rule->conditions.size(); ++ce) {
      const CompiledCondition& cond = rule->conditions[ce];
      if (w->cls() == cond.cls && PassesAlphaTests(cond, *w)) {
        rs->alpha[ce].Append(w);
      }
    }
  }
  SearchAll(rs.get(), &stats_);
  rules_.push_back(std::move(rs));
  return Status::Ok();
}

Status TreatMatcher::RemoveRule(const CompiledRule* rule) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if ((*it)->rule != rule) continue;
    for (const auto& [sig, inst] : (*it)->insts) cs_->Remove(inst.get());
    rules_.erase(it);
    return Status::Ok();
  }
  return Status::NotFound("rule not loaded: " + rule->name);
}

void TreatMatcher::ExtendRow(RuleState* rs, size_t ce_index, Row* row,
                             const SearchCtx& ctx) {
  const auto& conditions = rs->rule->conditions;
  if (ce_index == conditions.size()) {
    if (BlockedByNegated(*rs, *row)) return;
    if (ctx.out != nullptr) {
      ctx.out->push_back(*row);  // slice task: defer emission
    } else {
      EmitInst(rs, *row);
    }
    return;
  }
  const CompiledCondition& cond = conditions[ce_index];
  if (cond.negated) {
    ExtendRow(rs, ce_index + 1, row, ctx);
    return;
  }
  if (static_cast<int>(ce_index) == ctx.seed_ce) {
    if (PassesJoinTests(cond, *row, *ctx.seed)) {
      (*row)[static_cast<size_t>(cond.token_pos)] = ctx.seed;
      ExtendRow(rs, ce_index + 1, row, ctx);
      (*row)[static_cast<size_t>(cond.token_pos)] = nullptr;
    }
    return;
  }
  const auto& items = rs->alpha[ce_index];
  size_t lo = 0, hi = items.size();
  if (static_cast<int>(ce_index) == ctx.slice_ce) {
    lo = ctx.slice_lo;
    hi = ctx.slice_hi;
  }
  for (size_t i = lo; i < hi; ++i) {
    const WmePtr& w = items[i];
    if (PassesJoinTests(cond, *row, *w)) {
      (*row)[static_cast<size_t>(cond.token_pos)] = w;
      ExtendRow(rs, ce_index + 1, row, ctx);
      (*row)[static_cast<size_t>(cond.token_pos)] = nullptr;
    }
  }
}

bool TreatMatcher::BlockedByNegated(const RuleState& rs,
                                    const Row& row) const {
  const auto& conditions = rs.rule->conditions;
  for (size_t ce = 0; ce < conditions.size(); ++ce) {
    const CompiledCondition& cond = conditions[ce];
    if (!cond.negated) continue;
    for (const WmePtr& w : rs.alpha[ce]) {
      if (PassesJoinTests(cond, row, *w)) return true;
    }
  }
  return false;
}

void TreatMatcher::EmitInst(RuleState* rs, const Row& row) {
  std::vector<TimeTag> sig = RowSignature(row);
  if (rs->insts.count(sig) != 0) return;
  auto inst = std::make_unique<TreatInst>(rs->rule, row);
  cs_->Add(inst.get());
  rs->insts.emplace(std::move(sig), std::move(inst));
}

void TreatMatcher::SearchFromSeed(RuleState* rs, int seed_ce,
                                  const WmePtr& seed, Stats* stats) {
  ++stats->seeded_searches;
  SearchCtx ctx;
  ctx.seed_ce = seed_ce;
  ctx.seed = seed;
  Row row(static_cast<size_t>(rs->rule->num_positive));
  ExtendRow(rs, 0, &row, ctx);
}

void TreatMatcher::SearchAll(RuleState* rs, Stats* stats) {
  ++stats->full_searches;
  const auto& conditions = rs->rule->conditions;
  int first_pos = -1;
  for (size_t ce = 0; ce < conditions.size(); ++ce) {
    if (!conditions[ce].negated) {
      first_pos = static_cast<int>(ce);
      break;
    }
  }
  size_t n =
      first_pos < 0 ? 0 : rs->alpha[static_cast<size_t>(first_pos)].size();
  if (pool_ != nullptr && split_min_rows_ > 0 &&
      n >= static_cast<size_t>(split_min_rows_)) {
    // Intra-rule split: fork the first-CE scan into slices that run the
    // pure join search into private row buffers (alpha memories and the
    // rule are frozen for the duration — slices touch no shared state).
    // Emission then runs serially in slice-concatenation order, which is
    // the sequential scan order, so dedup decisions and conflict-set sends
    // are bit-identical to the unsplit search.
    size_t max_slices = static_cast<size_t>(pool_->num_threads()) + 1;
    size_t min_per_slice =
        std::max<size_t>(1, static_cast<size_t>(split_min_rows_) / 2);
    size_t slices = std::max<size_t>(
        2, std::min(max_slices, (n + min_per_slice - 1) / min_per_slice));
    size_t chunk = (n + slices - 1) / slices;
    std::vector<std::vector<Row>> slice_rows(slices);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(slices);
    for (size_t s = 0; s < slices; ++s) {
      size_t lo = s * chunk;
      size_t hi = std::min(n, lo + chunk);
      if (lo >= hi) break;
      tasks.push_back([this, rs, first_pos, lo, hi, &slice_rows, s] {
        SearchCtx ctx;
        ctx.slice_ce = first_pos;
        ctx.slice_lo = lo;
        ctx.slice_hi = hi;
        ctx.out = &slice_rows[s];
        Row row(static_cast<size_t>(rs->rule->num_positive));
        ExtendRow(rs, 0, &row, ctx);
      });
    }
    ++stats->intra_splits;
    stats->intra_slice_tasks += tasks.size();
    pool_->RunAll(std::move(tasks));
    for (std::vector<Row>& rows : slice_rows) {
      for (const Row& r : rows) EmitInst(rs, r);
    }
    return;
  }
  SearchCtx ctx;
  Row row(static_cast<size_t>(rs->rule->num_positive));
  ExtendRow(rs, 0, &row, ctx);
}

void TreatMatcher::DropInstsContaining(RuleState* rs, const Wme& wme) {
  for (auto it = rs->insts.begin(); it != rs->insts.end();) {
    bool contains = false;
    for (const WmePtr& w : it->second->row()) {
      if (w->time_tag() == wme.time_tag()) {
        contains = true;
        break;
      }
    }
    if (contains) {
      cs_->Remove(it->second.get());
      // Keep the instantiation alive until any buffered conflict-set ops
      // have been applied (a reused address would alias in the entry map).
      cs_->Release(std::move(it->second));
      it = rs->insts.erase(it);
    } else {
      ++it;
    }
  }
}

void TreatMatcher::ApplyAddToRule(RuleState* rs, const WmePtr& wme,
                                  Stats* stats) {
  const auto& conditions = rs->rule->conditions;
  std::vector<size_t> matched_pos, matched_neg;
  for (size_t ce = 0; ce < conditions.size(); ++ce) {
    const CompiledCondition& cond = conditions[ce];
    if (wme->cls() != cond.cls || !PassesAlphaTests(cond, *wme)) continue;
    rs->alpha[ce].Append(wme);
    (cond.negated ? matched_neg : matched_pos).push_back(ce);
  }
  // New blockers delete the instantiations they now block.
  for (size_t ce : matched_neg) {
    const CompiledCondition& cond = conditions[ce];
    for (auto it = rs->insts.begin(); it != rs->insts.end();) {
      if (PassesJoinTests(cond, it->second->row(), *wme)) {
        cs_->Remove(it->second.get());
        cs_->Release(std::move(it->second));
        it = rs->insts.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Seeded search for new instantiations through each matched positive CE.
  for (size_t ce : matched_pos) {
    SearchFromSeed(rs, static_cast<int>(ce), wme, stats);
  }
}

void TreatMatcher::ApplyAdd(const WmePtr& wme) {
  for (const auto& rs : rules_) ApplyAddToRule(rs.get(), wme, &stats_);
}

void TreatMatcher::ApplyRemoveFromRule(RuleState* rs, const WmePtr& wme,
                                       bool defer_unblock, Stats* stats) {
  bool touched_pos = false, touched_neg = false;
  for (size_t ce = 0; ce < rs->alpha.size(); ++ce) {
    if (!rs->alpha[ce].Remove(*wme)) continue;
    (rs->rule->conditions[ce].negated ? touched_neg : touched_pos) = true;
  }
  if (touched_pos) DropInstsContaining(rs, *wme);
  if (touched_neg) {
    if (defer_unblock) {
      if (rs->needs_research) ++stats->coalesced_researches;
      rs->needs_research = true;
    } else {
      SearchAll(rs, stats);  // unblocking re-search
    }
  }
}

void TreatMatcher::ApplyRemove(const WmePtr& wme, bool defer_unblock) {
  for (const auto& rs : rules_) {
    ApplyRemoveFromRule(rs.get(), wme, defer_unblock, &stats_);
  }
}

void TreatMatcher::DropInstsContainingAny(
    RuleState* rs, const std::unordered_set<TimeTag>& victims) {
  for (auto it = rs->insts.begin(); it != rs->insts.end();) {
    bool contains = false;
    for (const WmePtr& w : it->second->row()) {
      if (victims.count(w->time_tag()) != 0) {
        contains = true;
        break;
      }
    }
    if (contains) {
      cs_->Remove(it->second.get());
      cs_->Release(std::move(it->second));
      it = rs->insts.erase(it);
    } else {
      ++it;
    }
  }
}

void TreatMatcher::ApplyRemoveRun(const std::vector<WmChange>& changes,
                                  size_t begin, size_t end) {
  if (end - begin == 1) {
    ApplyRemove(changes[begin].wme, /*defer_unblock=*/true);
    return;
  }
  ++stats_.grouped_removals;
  std::unordered_set<TimeTag> victims;
  for (size_t i = begin; i < end; ++i) {
    victims.insert(changes[i].wme->time_tag());
  }
  for (const auto& rs : rules_) {
    // One stable compaction per alpha memory; the survivors keep exactly
    // the order per-WME find+erase would have left. Removals in a run
    // cannot re-enable each other, so dropping/unblocking once at run
    // granularity reaches the same final state.
    bool touched_pos = false;
    std::unordered_set<TimeTag> neg_touched;
    for (size_t ce = 0; ce < rs->alpha.size(); ++ce) {
      const bool negated = rs->rule->conditions[ce].negated;
      const size_t erased = rs->alpha[ce].RemoveTags(victims, [&](TimeTag t) {
        if (negated) neg_touched.insert(t);
      });
      if (!negated && erased != 0) touched_pos = true;
    }
    if (touched_pos) DropInstsContainingAny(rs.get(), victims);
    if (!neg_touched.empty()) {
      // Per-WME accounting: every negated-CE-touching victim past the
      // first (or all of them, if a re-search was already pending) would
      // have found needs_research set.
      stats_.coalesced_researches +=
          neg_touched.size() - (rs->needs_research ? 0 : 1);
      rs->needs_research = true;
    }
  }
}

void TreatMatcher::OnAdd(const WmePtr& wme) {
  obs::ScopedTimer timer(match_timer_);
  ApplyAdd(wme);
}

void TreatMatcher::OnRemove(const WmePtr& wme) {
  obs::ScopedTimer timer(match_timer_);
  ApplyRemove(wme, /*defer_unblock=*/false);
}

void TreatMatcher::ReplayRule(RuleState* rs, const ChangeBatch& batch,
                              ConflictSet::Delta* delta, Stats* stats) {
  // Scoped: while this task waits on a slice fork it help-drains the pool
  // queue and can execute another replay task, whose exit must restore this
  // frame's redirection rather than clear it.
  ConflictSet::ScopedThreadDelta scoped_delta(cs_, delta);
  for (size_t e = 0; e < batch.changes.size(); ++e) {
    const WmChange& c = batch.changes[e];
    delta->SetStamp({static_cast<uint32_t>(e), 0, 0, 0});
    if (c.added) {
      ApplyAddToRule(rs, c.wme, stats);
    } else {
      ApplyRemoveFromRule(rs, c.wme, /*defer_unblock=*/true, stats);
    }
  }
  if (rs->needs_research) {
    rs->needs_research = false;
    delta->SetStamp({static_cast<uint32_t>(batch.changes.size()), 0, 0, 0});
    SearchAll(rs, stats);
  }
}

void TreatMatcher::OnBatch(const ChangeBatch& batch) {
  obs::ScopedTimer timer(match_timer_);
  ++stats_.batches;
  if (pool_ != nullptr && rules_.size() > 1) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      for (const auto& rs : rules_) {
        tracer_->Emit(obs::TraceEvent("rule_replay")
                          .Str("rule", rs->rule->name)
                          .Num("changes", batch.changes.size()));
      }
    }
    // Rule states are disjoint, so each rule replays the whole batch as one
    // task. Stamping ops with the change index and merging deltas in rule
    // order reproduces the sequential (change-major) op stream exactly.
    std::vector<ConflictSet::Delta> deltas(rules_.size());
    std::vector<Stats> stats(rules_.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(rules_.size());
    for (size_t i = 0; i < rules_.size(); ++i) {
      tasks.push_back([this, &batch, &deltas, &stats, i] {
        ReplayRule(rules_[i].get(), batch, &deltas[i], &stats[i]);
      });
    }
    pool_->RunAll(std::move(tasks));
    for (const Stats& s : stats) {
      stats_.seeded_searches += s.seeded_searches;
      stats_.full_searches += s.full_searches;
      stats_.coalesced_researches += s.coalesced_researches;
      stats_.grouped_removals += s.grouped_removals;
      stats_.intra_splits += s.intra_splits;
      stats_.intra_slice_tasks += s.intra_slice_tasks;
    }
    cs_->ApplyDeltas(&deltas);
    return;
  }
  // Consecutive removals apply as one grouped run (mirrors the Rete
  // matcher's removal run-grouping): same final state, far fewer passes.
  const std::vector<WmChange>& changes = batch.changes;
  for (size_t i = 0; i < changes.size();) {
    if (changes[i].added) {
      ApplyAdd(changes[i].wme);
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < changes.size() && !changes[j].added) ++j;
    ApplyRemoveRun(changes, i, j);
    i = j;
  }
  for (const auto& rs : rules_) {
    if (!rs->needs_research) continue;
    rs->needs_research = false;
    SearchAll(rs.get(), &stats_);
  }
}

size_t TreatMatcher::AlphaMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& rs : rules_) {
    for (const TreatAlpha& a : rs->alpha) bytes += a.MemoryBytes();
  }
  return bytes;
}

size_t TreatMatcher::num_instantiations() const {
  size_t n = 0;
  for (const auto& rs : rules_) n += rs->insts.size();
  return n;
}

}  // namespace sorel
