#include "rete/network.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "base/thread_pool.h"
#include "lang/ast.h"

namespace sorel {

thread_local ReteMatcher::ReplayCtx* ReteMatcher::tls_replay_ = nullptr;

// ---------------------------------------------------------------- alpha ---

const std::vector<uint32_t>* AlphaMemory::Index::FindRows(
    const JoinKey& key) const {
  auto it = row_buckets_.find(key);
  return it == row_buckets_.end() ? nullptr : &it->second;
}

void AlphaMemory::Index::InsertRow(const Wme* wme, uint32_t row, bool live) {
  // Rows arrive in append order, so the key columns stay row-aligned with
  // the owning memory's columns by construction.
  assert(key_cols_.empty() || key_cols_[0].size() == row);
  if (!live) {
    // Nil padding for a tombstoned row (late index creation only); the
    // buckets never reference it and compaction drops it.
    for (auto& col : key_cols_) col.emplace_back();
    return;
  }
  JoinKey key;
  key.values.reserve(fields_.size());
  for (size_t f = 0; f < fields_.size(); ++f) {
    Value v = wme->field(fields_[f]);
    key_cols_[f].push_back(v);
    key.values.push_back(std::move(v));
  }
  row_buckets_[key].push_back(row);
}

void AlphaMemory::Index::Rekey(const std::vector<uint32_t>& remap,
                               size_t new_rows) {
  // Compact the key columns in place — a contiguous Value scan, no WME
  // dereferences — then rebuild the buckets by ascending new row id, which
  // is insertion order (compaction is stable).
  for (auto& col : key_cols_) {
    for (uint32_t old_row = 0; old_row < remap.size(); ++old_row) {
      uint32_t new_row = remap[old_row];
      if (new_row == AlphaColumns::kNoRow) continue;
      if (new_row != old_row) col[new_row] = std::move(col[old_row]);
    }
    col.resize(new_rows);
    if (col.capacity() >= 1024 && col.size() * 4 <= col.capacity()) {
      col.shrink_to_fit();
    }
  }
  row_buckets_.clear();
  JoinKey key;
  for (uint32_t row = 0; row < new_rows; ++row) {
    key.values.clear();
    for (const auto& col : key_cols_) key.values.push_back(col[row]);
    row_buckets_[key].push_back(row);
  }
}

AlphaMemory::Index* AlphaMemory::GetOrCreateIndex(
    const std::vector<int>& fields) {
  for (const auto& idx : indexes_) {
    if (idx->fields() == fields) return idx.get();
  }
  auto idx = std::make_unique<Index>(fields);
  for (uint32_t row = 0; row < cols_.rows(); ++row) {
    idx->InsertRow(cols_.Ptr(row).get(), row, cols_.IsLive(row));
  }
  indexes_.push_back(std::move(idx));
  return indexes_.back().get();
}

AlphaSpan AlphaMemory::Probe(const Index* index, const JoinKey& key) const {
  const std::vector<uint32_t>* rows = index->FindRows(key);
  return rows == nullptr ? AlphaSpan() : AlphaSpan(&cols_, rows);
}

void AlphaMemory::SnapshotItems(std::vector<WmePtr>* out) const {
  out->clear();
  out->reserve(cols_.live());
  for (uint32_t row = 0; row < cols_.rows(); ++row) {
    if (cols_.IsLive(row)) out->push_back(cols_.Ptr(row));
  }
}

void AlphaMemory::AddItem(const WmePtr& wme) {
  uint32_t row = cols_.Append(wme);
  for (const auto& idx : indexes_) idx->InsertRow(wme.get(), row, true);
}

bool AlphaMemory::RemoveItem(const WmePtr& wme) {
  // Tombstone only; buckets keep the dead row until the next compaction
  // (probe loops filter with IsLive). The WME reference drops here.
  bool found = cols_.Kill(wme->time_tag()) != AlphaColumns::kNoRow;
  if (found) MaybeCompact();
  return found;
}

size_t AlphaMemory::RemoveItems(const std::vector<WmePtr>& wmes) {
  size_t found = 0;
  for (const WmePtr& w : wmes) {
    if (cols_.Kill(w->time_tag()) != AlphaColumns::kNoRow) ++found;
  }
  if (found != 0) MaybeCompact();
  return found;
}

void AlphaMemory::MaybeCompact() {
  if (!cols_.NeedsCompaction()) return;
  cols_.Compact(&remap_scratch_);
  for (const auto& idx : indexes_) {
    idx->Rekey(remap_scratch_, cols_.rows());
  }
}

size_t AlphaMemory::MemoryBytes() const {
  size_t bytes = cols_.MemoryBytes();
  for (const auto& idx : indexes_) {
    for (const auto& [key, bucket] : idx->row_buckets_) {
      bytes += key.values.size() * sizeof(Value) +
               bucket.capacity() * sizeof(uint32_t);
    }
    for (const auto& col : idx->key_cols_) {
      bytes += col.capacity() * sizeof(Value);
    }
  }
  return bytes;
}

// ----------------------------------------------------------------- beta ---

BetaNode::BetaNode(ReteMatcher* net, AlphaMemory* amem, BetaNode* parent,
                   const CompiledCondition* cond)
    : net_(net), amem_(amem), parent_(parent), cond_(cond) {
  // A condition with equality join tests always references an earlier
  // positive CE, so an indexed node necessarily has a parent.
  if (net_->options().use_indexed_joins && !cond_->eq_join_tests.empty()) {
    indexed_ = true;
    std::vector<int> fields;
    fields.reserve(cond_->eq_join_tests.size());
    for (const JoinTest& jt : cond_->eq_join_tests) fields.push_back(jt.field);
    aindex_ = amem_->GetOrCreateIndex(fields);
  }
}

bool BetaNode::Matches(const Token* t, const Wme& wme) const {
  for (const JoinTest& jt : cond_->join_tests) {
    const Wme* other = WmeAt(t, jt.other_token_pos);
    if (other == nullptr) return false;
    if (!EvalTestPred(jt.pred, wme.field(jt.field),
                      other->field(jt.other_field))) {
      return false;
    }
  }
  return true;
}

bool BetaNode::MatchesResidual(const Token* t, const Wme& wme) const {
  for (const JoinTest& jt : cond_->residual_join_tests) {
    const Wme* other = WmeAt(t, jt.other_token_pos);
    if (other == nullptr) return false;
    if (!EvalTestPred(jt.pred, wme.field(jt.field),
                      other->field(jt.other_field))) {
      return false;
    }
  }
  return true;
}

JoinKey BetaNode::WmeKey(const Wme& wme) const {
  JoinKey key;
  key.values.reserve(cond_->eq_join_tests.size());
  for (const JoinTest& jt : cond_->eq_join_tests) {
    key.values.push_back(wme.field(jt.field));
  }
  return key;
}

bool BetaNode::TokenKey(const Token* t, JoinKey* out) const {
  out->values.clear();
  out->values.reserve(cond_->eq_join_tests.size());
  for (const JoinTest& jt : cond_->eq_join_tests) {
    const Wme* other = WmeAt(t, jt.other_token_pos);
    if (other == nullptr) return false;
    out->values.push_back(other->field(jt.other_field));
  }
  return true;
}

void BetaNode::OnTokenRegistered(Token* t) {
  if (child_ != nullptr) child_->IndexLeftToken(t);
}

bool BetaNode::IsOutputActive(const Token*) const { return true; }

void BetaNode::IndexLeftToken(Token* t) {
  if (!indexed_) return;
  JoinKey key;
  if (TokenKey(t, &key)) left_index_.Insert(key, t->self);
}

void BetaNode::UnindexLeftToken(Token* t) {
  if (!indexed_) return;
  JoinKey key;
  if (TokenKey(t, &key)) left_index_.Remove(key, t->self);
}

void BetaNode::UnindexFromChild(Token* t) {
  if (child_ != nullptr) child_->UnindexLeftToken(t);
}

void BetaNode::PropagateDown(Token* t) {
  if (child_ != nullptr) child_->OnParentToken(t);
  if (sink_ != nullptr) sink_->OnToken(t, /*added=*/true);
}

// ----------------------------------------------------------------- join ---

void JoinNode::OnParentToken(Token* t) {
  AlphaSpan span;
  bool residual;
  if (indexed_) {
    ++net_->stats_sink().index_probes;
    JoinKey key;
    if (!TokenKey(t, &key)) return;
    span = amem_->Probe(aindex_, key);
    if (span.empty()) return;
    residual = true;  // the bucket guarantees the equality tests
  } else {
    span = amem_->Items();
    residual = false;
  }
  const ReteMatcher::ReplayCtx* rctx = net_->CurrentReplayCtx();
  // Propagation never mutates this alpha memory. Tombstoned rows are
  // skipped before any counter bump, so they cost no join attempt.
  for (size_t i = 0; i < span.size(); ++i) {
    if (!span.Live(i)) continue;
    if (rctx != nullptr && !net_->ReplayVisibleTag(span.Tag(i), amem_, rctx)) {
      continue;
    }
    ++net_->stats_sink().join_attempts;
    const WmePtr& w = span.Ptr(i);
    bool ok = residual ? MatchesResidual(t, *w) : Matches(t, *w);
    if (ok) {
      Token* out = net_->NewToken(this, t, w);
      PropagateDown(out);
    }
  }
}

void JoinNode::RightActivate(const WmePtr& wme, bool added) {
  if (!added) return;  // removals are handled by token-tree deletion
  if (parent_ == nullptr) {
    Token* root = &shard_->root;
    ++net_->stats_sink().join_attempts;
    if (Matches(root, *wme)) {
      Token* out = net_->NewToken(this, root, wme);
      PropagateDown(out);
    }
    return;
  }
  const std::vector<TokenId>* candidates;
  bool residual;
  if (indexed_) {
    ++net_->stats_sink().index_probes;
    candidates = left_index_.Find(WmeKey(*wme));
    if (candidates == nullptr) return;
    residual = true;
  } else {
    candidates = &ParentOutputs();
    residual = false;
  }
  for (size_t i = 0; i < candidates->size(); ++i) {
    Token* t = TokenAt((*candidates)[i]);
    if (!parent_->IsOutputActive(t)) continue;
    ++net_->stats_sink().join_attempts;
    bool ok = residual ? MatchesResidual(t, *wme) : Matches(t, *wme);
    if (ok) {
      Token* out = net_->NewToken(this, t, wme);
      PropagateDown(out);
    }
  }
}

void JoinNode::DetachToken(Token* t) {
  UnindexFromChild(t);
  if (sink_ != nullptr) sink_->OnToken(t, /*added=*/false);
}

// ------------------------------------------------------------- negative ---

int NegativeNode::CountBlockers(const Token* t) const {
  AlphaSpan span;
  bool residual;
  if (indexed_) {
    ++net_->stats_sink().index_probes;
    JoinKey key;
    if (!TokenKey(t, &key)) return 0;
    span = amem_->Probe(aindex_, key);
    if (span.empty()) return 0;
    residual = true;
  } else {
    span = amem_->Items();
    residual = false;
  }
  const ReteMatcher::ReplayCtx* rctx = net_->CurrentReplayCtx();
  int n = 0;
  for (size_t i = 0; i < span.size(); ++i) {
    if (!span.Live(i)) continue;
    if (rctx != nullptr && !net_->ReplayVisibleTag(span.Tag(i), amem_, rctx)) {
      continue;
    }
    ++net_->stats_sink().join_attempts;
    bool ok = residual ? MatchesResidual(t, *span.Ptr(i))
                       : Matches(t, *span.Ptr(i));
    if (ok) ++n;
  }
  return n;
}

void NegativeNode::OnParentToken(Token* up) {
  Token* t = net_->NewToken(this, up, nullptr);
  t->blockers = CountBlockers(t);
  if (t->blockers == 0) Propagate(t);
}

void NegativeNode::OnTokenRegistered(Token* t) {
  BetaNode::OnTokenRegistered(t);
  if (!indexed_) return;
  JoinKey key;
  if (TokenKey(t, &key)) own_index_.Insert(key, t->self);
}

void NegativeNode::RightActivate(const WmePtr& wme, bool added) {
  // A WME removal must never drive a blocker count below zero: the count
  // was established by CountBlockers and every removal is paired with an
  // addition seen by this node. Underflow would wrap the token into a
  // permanently-blocked state, so clamp at zero (and trip in debug builds,
  // where it signals index/memory desynchronization).
  auto update = [&](Token* t) {
    if (added) {
      if (t->blockers++ == 0) Retract(t);
    } else {
      // A token born during this very removal's unblock cascade counted
      // its blockers after the WME had already left the alpha memories, so
      // the count never included it — decrementing would double-apply the
      // removal and could propagate a token other WMEs still block.
      if (t->born_of_removal == wme->time_tag()) return;
      assert(t->blockers > 0 && "negative-node blocker count underflow");
      if (t->blockers > 0 && --t->blockers == 0) Propagate(t);
    }
  };
  const std::vector<TokenId>* candidates;
  bool residual;
  if (indexed_) {
    ++net_->stats_sink().index_probes;
    // Retract/Propagate cascade strictly downstream, so this node's own
    // outputs — and therefore this bucket — stay stable while iterating.
    candidates = own_index_.Find(WmeKey(*wme));
    if (candidates == nullptr) return;
    residual = true;
  } else {
    // Snapshot: Retract/Propagate can cascade but never changes outputs_ of
    // this node (children live downstream).
    candidates = &outputs_;
    residual = false;
  }
  for (size_t i = 0; i < candidates->size(); ++i) {
    Token* t = TokenAt((*candidates)[i]);
    ++net_->stats_sink().join_attempts;
    bool ok = residual ? MatchesResidual(t, *wme) : Matches(t, *wme);
    if (!ok) continue;
    update(t);
  }
}

void NegativeNode::Propagate(Token* t) {
  t->propagated = true;
  if (child_ != nullptr) child_->OnParentToken(t);
  if (sink_ != nullptr) sink_->OnToken(t, /*added=*/true);
}

void NegativeNode::Retract(Token* t) {
  net_->DeleteChildren(t);
  if (sink_ != nullptr && t->propagated) sink_->OnToken(t, /*added=*/false);
  t->propagated = false;
}

void NegativeNode::DetachToken(Token* t) {
  if (indexed_) {
    JoinKey key;
    if (TokenKey(t, &key)) own_index_.Remove(key, t->self);
  }
  UnindexFromChild(t);
  if (sink_ != nullptr && t->propagated) sink_->OnToken(t, /*added=*/false);
}

// ---------------------------------------------------------------- pnode ---

/// Conflict-set entry for a regular instantiation: one complete token.
class PNode::RegularInst : public InstantiationRef {
 public:
  RegularInst(const CompiledRule* rule, Token* token)
      : rule_(rule), token_(token) {}

  const CompiledRule& rule() const override { return *rule_; }

  void CollectRows(std::vector<Row>* out) const override {
    Row row;
    TokenRow(token_, &row);
    out->push_back(std::move(row));
  }

  std::vector<TimeTag> RecencyTags() const override {
    std::vector<TimeTag> tags;
    for (const Token* t = token_; t != nullptr; t = t->parent) {
      if (t->wme != nullptr) tags.push_back(t->wme->time_tag());
    }
    std::sort(tags.rbegin(), tags.rend());
    return tags;
  }

  TimeTag FirstCeTag() const override {
    const Wme* w = WmeAt(token_, 0);
    return w == nullptr ? 0 : w->time_tag();
  }

 private:
  const CompiledRule* rule_;
  Token* token_;
};

PNode::~PNode() {
  for (auto& [token, inst] : insts_) cs_->Remove(inst.get());
}

void PNode::OnToken(Token* token, bool added) {
  if (added) {
    auto inst = std::make_unique<RegularInst>(rule_, token);
    cs_->Add(inst.get());
    insts_.emplace(token, std::move(inst));
    return;
  }
  auto it = insts_.find(token);
  if (it == insts_.end()) return;
  cs_->Remove(it->second.get());
  // Keep the instantiation alive until any buffered conflict-set ops have
  // been applied: a freed address could be reused by a same-batch Add and
  // alias it in the conflict set's entry map.
  cs_->Release(std::move(it->second));
  insts_.erase(it);
}

// -------------------------------------------------------------- matcher ---

ReteMatcher::ReteMatcher(WorkingMemory* wm, ConflictSet* cs,
                         SinkFactory sink_factory, ReteOptions options,
                         ThreadPool* pool, obs::MetricRegistry* metrics,
                         obs::Tracer* tracer, const NetworkTopology* topology)
    : wm_(wm),
      cs_(cs),
      sink_factory_(std::move(sink_factory)),
      options_(options),
      pool_(pool),
      metrics_(metrics),
      tracer_(tracer),
      topology_(topology) {
  wm_->AddListener(this);
  if (obs::MetricRegistry* m = metrics_; m != nullptr) {
    m->RegisterCounter(this, "rete.join_attempts",
                       [this] { return stats_.join_attempts; });
    m->RegisterCounter(this, "rete.index_probes",
                       [this] { return stats_.index_probes; });
    m->RegisterCounter(this, "rete.tokens_created",
                       [this] { return stats_.tokens_created; });
    m->RegisterCounter(this, "rete.tokens_deleted",
                       [this] { return stats_.tokens_deleted; });
    m->RegisterCounter(this, "rete.right_activations",
                       [this] { return stats_.right_activations; });
    m->RegisterCounter(this, "rete.batches",
                       [this] { return stats_.batches; });
    m->RegisterCounter(this, "rete.grouped_removals",
                       [this] { return stats_.grouped_removals; });
    m->RegisterCounter(this, "rete.token_pool_hits",
                       [this] { return stats_.token_pool_hits; });
    m->RegisterCounter(this, "rete.parallel_batches",
                       [this] { return stats_.parallel_batches; });
    m->RegisterCounter(this, "rete.replay_tasks",
                       [this] { return stats_.replay_tasks; });
    m->RegisterCounter(this, "rete.bulk_deletes",
                       [this] { return stats_.bulk_deletes; });
    m->RegisterCounter(this, "rete.arena_slabs",
                       [this] { return stats_.arena_slabs; });
    m->RegisterGauge(this, "rete.live_tokens", [this] {
      return static_cast<double>(live_tokens_);
    });
    m->RegisterGauge(this, "rete.token_arena_bytes", [this] {
      size_t bytes = 0;
      for (const RuleShard* s : shards_) bytes += s->arena.MemoryBytes();
      return static_cast<double>(bytes);
    });
    m->RegisterGauge(this, "rete.alpha_bytes", [this] {
      size_t bytes = 0;
      for (const auto& [cls, mems] : alphas_by_class_) {
        for (const auto& am : mems) bytes += am->MemoryBytes();
      }
      return static_cast<double>(bytes);
    });
    m->RegisterReset(this, [this] { ResetStats(); });
    if (m->timing_enabled()) {
      match_timer_ = m->GetOrCreateTimer("phase.match");
    }
  }
}

ReteMatcher::~ReteMatcher() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
  wm_->RemoveListener(this);
  // Token teardown is structural: every token — live or recycled — sits in
  // its shard's arena, and the arenas die with rule_shards_. (The PR 4
  // bulk-delete walk over outputs_ is no longer needed.)
}

size_t ReteMatcher::free_tokens() const {
  size_t n = 0;
  for (const RuleShard* shard : shards_) n += shard->arena.free_size();
  return n;
}

Token* ReteMatcher::NewToken(BetaNode* owner, Token* parent, WmePtr wme) {
  RuleShard* shard = owner->shard_;
  ReteStats& stats = stats_sink();
  bool pool_hit = false;
  bool new_slab = false;
  Token* t = shard->arena.Alloc(&pool_hit, &new_slab);
  if (pool_hit) ++stats.token_pool_hits;
  if (new_slab) ++stats.arena_slabs;
  t->owner = owner;
  t->parent = parent;
  t->wme = std::move(wme);
  if (parent != nullptr) parent->children.push_back(t->self);
  if (t->wme != nullptr) {
    shard->tokens_by_wme[t->wme->time_tag()].tokens.push_back(t->self);
  }
  // Register in the owner's output memory.
  // (BetaNode::outputs_ is protected; ReteMatcher is a friend.)
  owner->outputs_.push_back(t->self);
  owner->OnTokenRegistered(t);
  ReplayCtx* ctx = CurrentReplayCtx();
  t->born_of_removal = (ctx != nullptr) ? ctx->removing_tag : removing_tag_;
  if (ctx != nullptr) {
    ++ctx->live_token_delta;
  } else {
    ++live_tokens_;
  }
  ++stats.tokens_created;
  return t;
}

namespace {

/// Resets a detached token's fields for its next incarnation. `children`
/// keeps its capacity (the caller guarantees it holds no live entries) and
/// `self` keeps its arena id — it names the slot, not the incarnation.
void ResetToken(Token* t) {
  t->wme.reset();
  t->parent = nullptr;
  t->owner = nullptr;
  t->children.clear();
  t->blockers = 0;
  t->born_of_removal = 0;
  t->propagated = false;
  t->dead = false;
  t->children_dirty = false;
}

}  // namespace

void ReteMatcher::DeleteChildren(Token* t) {
  ReplayCtx* ctx = CurrentReplayCtx();
  DeletionScratch* s = ctx != nullptr ? &ctx->scratch : &scratch_;
  // Newest child first, the order BulkDeleteTree walks children in.
  const TokenArena& arena = t->owner->shard_->arena;
  for (size_t i = t->children.size(); i-- > 0;) {
    Token* c = arena.At(t->children[i]);
    if (!c->dead) BulkDeleteTree(c, s);
  }
  FlushDeletions(s);
}

void ReteMatcher::BulkDeleteTree(Token* t, DeletionScratch* s) {
  BetaNode* owner = t->owner;
  RuleShard* shard = owner->shard_;
  // Children back-to-front (newest first), skipping ones an earlier tree
  // already took (deletion only dead-marks entries, never reorders them,
  // and nothing can be appended mid-teardown).
  for (size_t i = t->children.size(); i-- > 0;) {
    Token* c = shard->arena.At(t->children[i]);
    if (!c->dead) BulkDeleteTree(c, s);
  }
  owner->DetachToken(t);
  t->dead = true;
  if (!owner->compact_pending_) {
    owner->compact_pending_ = true;
    s->dirty_nodes.push_back(owner);
  }
  if (t->parent != nullptr && !t->parent->children_dirty) {
    t->parent->children_dirty = true;
    // The parent may be the arena-less shard root; pair it with the arena
    // its (dead) child ids resolve against.
    s->dirty_parents.emplace_back(&shard->arena, t->parent);
  }
  if (t->wme != nullptr) {
    auto it = shard->tokens_by_wme.find(t->wme->time_tag());
    if (it != shard->tokens_by_wme.end() && !it->second.dirty) {
      it->second.dirty = true;
      s->dirty_anchors.emplace_back(shard, t->wme->time_tag());
    }
  }
  s->dead.push_back(t);
  ReplayCtx* ctx = CurrentReplayCtx();
  if (ctx != nullptr) {
    --ctx->live_token_delta;
    ++ctx->stats.tokens_deleted;
  } else {
    --live_tokens_;
    ++stats_.tokens_deleted;
  }
}

void ReteMatcher::BulkDeleteAnchored(RuleShard* shard, TimeTag tag,
                                     DeletionScratch* s) {
  auto it = shard->tokens_by_wme.find(tag);
  if (it == shard->tokens_by_wme.end()) return;
  // Highest-index-first (newest first) over the anchored roots, skipping
  // tokens an earlier tree's cascade already killed. The vector itself
  // stays untouched until the entry is dropped whole below.
  auto& anchored = it->second.tokens;
  for (size_t i = anchored.size(); i-- > 0;) {
    Token* t = shard->arena.At(anchored[i]);
    if (!t->dead) BulkDeleteTree(t, s);
  }
  shard->tokens_by_wme.erase(it);
}

void ReteMatcher::FlushDeletions(DeletionScratch* s) {
  if (s->dead.empty()) return;
  for (BetaNode* node : s->dirty_nodes) {
    const TokenArena& arena = node->shard_->arena;
    std::erase_if(node->outputs_,
                  [&arena](TokenId id) { return arena.At(id)->dead; });
    node->compact_pending_ = false;
  }
  s->dirty_nodes.clear();
  for (const auto& [arena, parent] : s->dirty_parents) {
    parent->children_dirty = false;
    // A parent that died itself gets its children vector cleared wholesale
    // at recycle time below.
    if (!parent->dead) {
      const TokenArena* a = arena;
      std::erase_if(parent->children,
                    [a](TokenId id) { return a->At(id)->dead; });
    }
  }
  s->dirty_parents.clear();
  for (const auto& [shard, tag] : s->dirty_anchors) {
    auto it = shard->tokens_by_wme.find(tag);
    if (it == shard->tokens_by_wme.end()) continue;  // drained wholesale
    it->second.dirty = false;
    const TokenArena& arena = shard->arena;
    std::erase_if(it->second.tokens,
                  [&arena](TokenId id) { return arena.At(id)->dead; });
    if (it->second.tokens.empty()) shard->tokens_by_wme.erase(it);
  }
  s->dirty_anchors.clear();
  for (Token* t : s->dead) {
    TokenArena& arena = t->owner->shard_->arena;
    ResetToken(t);
    arena.Recycle(t);
  }
  s->dead.clear();
  ++stats_sink().bulk_deletes;
}

void ReteMatcher::CheckAnchorInvariants() const {
#ifndef NDEBUG
  for (const RuleShard* shard : shards_) {
    for (const auto& [tag, anchor] : shard->tokens_by_wme) {
      assert(!anchor.tokens.empty() && "stale empty tokens_by_wme entry");
      assert(!anchor.dirty && "anchor left dirty after a batch");
      for (TokenId id : anchor.tokens) {
        assert(!shard->arena.At(id)->dead &&
               "dead token anchored after a batch");
      }
    }
  }
#endif
}

AlphaMemory* ReteMatcher::GetOrCreateAlpha(const CompiledCondition& cond,
                                           const AlphaPattern* pattern) {
  auto& memories = alphas_by_class_[cond.cls];
  for (const auto& am : memories) {
    // Bound rules resolve by pattern identity (the topology already ran the
    // structural dedup); self-contained rules compare structurally. Both
    // scans visit memories in creation order, so sharing decisions — and
    // hence network shape — are identical across the two modes.
    if (pattern != nullptr ? am->pattern() == pattern : am->SameTests(cond)) {
      return am.get();
    }
  }
  if (pattern == nullptr) {
    owned_patterns_.push_back(AlphaPattern::FromCondition(cond));
    pattern = owned_patterns_.back().get();
  }
  auto am = std::make_unique<AlphaMemory>(pattern);
  // Seed with the current working memory.
  for (const WmePtr& w : wm_->Snapshot()) {
    if (w->cls() == cond.cls && am->Accepts(*w)) {
      am->AddItem(w);
      wme_amems_[w->time_tag()].push_back(am.get());
    }
  }
  memories.push_back(std::move(am));
  return memories.back().get();
}

void ReteMatcher::RenumberSuccessors(AlphaMemory* am) {
  for (size_t i = 0; i < am->successors_.size(); ++i) {
    am->successors_[i]->succ_ordinal_ = static_cast<int>(i);
  }
}

Status ReteMatcher::AddRule(const CompiledRule* rule) {
  if (rule->has_set && sink_factory_ == nullptr) {
    return Status::Unimplemented(
        "rule '" + rule->name +
        "': this matcher was built without set-oriented (S-node) support");
  }
  auto shard = std::make_unique<RuleShard>();
  shard->rule = rule;
  shard->ordinal = shards_.size();
  // Build the linear beta chain.
  const std::vector<const AlphaPattern*>* bound =
      topology_ != nullptr ? topology_->PatternsFor(rule) : nullptr;
  std::vector<BetaNode*> chain;
  BetaNode* prev = nullptr;
  for (const CompiledCondition& cond : rule->conditions) {
    size_t ce = static_cast<size_t>(&cond - rule->conditions.data());
    AlphaMemory* am =
        GetOrCreateAlpha(cond, bound != nullptr ? (*bound)[ce] : nullptr);
    std::unique_ptr<BetaNode> node;
    if (cond.negated) {
      shard->has_negative = true;
      node = std::make_unique<NegativeNode>(this, am, prev, &cond);
    } else {
      node = std::make_unique<JoinNode>(this, am, prev, &cond);
    }
    node->shard_ = shard.get();
    // Newest successors first (duplicate-token avoidance).
    am->successors_.insert(am->successors_.begin(), node.get());
    RenumberSuccessors(am);
    if (prev != nullptr) prev->set_child(node.get());
    prev = node.get();
    chain.push_back(node.get());
    nodes_.push_back(std::move(node));
  }
  std::unique_ptr<ReteSink> sink;
  if (sink_factory_ != nullptr) {
    sink = sink_factory_(*rule);
  } else {
    sink = std::make_unique<PNode>(rule, cs_);
  }
  prev->set_sink(sink.get());
  shard->chain = chain;
  shard->sink = sink.get();
  // Group this rule's nodes by alpha memory in successor order: within one
  // memory a rule's later-chain nodes sit earlier (each insert above
  // prepends), so walking the chain backwards yields successor order.
  for (auto cit = chain.rbegin(); cit != chain.rend(); ++cit) {
    BetaNode* node = *cit;
    std::vector<BetaNode*>* group = nullptr;
    for (auto& [mem, nodes] : shard->amem_nodes) {
      if (mem == node->amem_) {
        group = &nodes;
        break;
      }
    }
    if (group == nullptr) {
      shard->amem_nodes.emplace_back(node->amem_, std::vector<BetaNode*>());
      group = &shard->amem_nodes.back().second;
    }
    group->push_back(node);
  }
  shards_.push_back(shard.get());
  rule_shards_.emplace(rule, std::move(shard));
  sinks_.push_back(std::move(sink));

  // Populate from existing WM: right-activating the first node cascades
  // left-activations through the whole (already wired) chain.
  BetaNode* first = chain.front();
  std::vector<WmePtr> seed;
  first->amem()->SnapshotItems(&seed);
  for (const WmePtr& w : seed) first->RightActivate(w, /*added=*/true);
  return Status::Ok();
}

Status ReteMatcher::RemoveRule(const CompiledRule* rule) {
  auto it = rule_shards_.find(rule);
  if (it == rule_shards_.end()) {
    return Status::NotFound("rule not loaded: " + rule->name);
  }
  std::unique_ptr<RuleShard> shard = std::move(it->second);
  rule_shards_.erase(it);
  // 1. Delete the chain's tokens. Every downstream token descends from a
  //    first-node output, so deleting those roots (newest first; their
  //    trees are disjoint) cascades through the whole chain and notifies
  //    the sink for retracted instantiations.
  BetaNode* first = shard->chain.front();
  for (size_t i = first->outputs_.size(); i-- > 0;) {
    BulkDeleteTree(shard->arena.At(first->outputs_[i]), &scratch_);
  }
  FlushDeletions(&scratch_);
  // 2. Unhook from the shared alpha memories.
  for (BetaNode* node : shard->chain) {
    auto& succs = node->amem_->successors_;
    succs.erase(std::remove(succs.begin(), succs.end(), node), succs.end());
    RenumberSuccessors(node->amem_);
  }
  // 3. Destroy the sink (removes any remaining conflict-set entries, e.g.
  //    inactive SOIs are dropped with it) and the nodes.
  std::erase_if(sinks_, [&](const std::unique_ptr<ReteSink>& s) {
    return s.get() == shard->sink;
  });
  for (BetaNode* node : shard->chain) {
    std::erase_if(nodes_, [&](const std::unique_ptr<BetaNode>& n) {
      return n.get() == node;
    });
  }
  shards_.erase(std::remove(shards_.begin(), shards_.end(), shard.get()),
                shards_.end());
  for (size_t i = 0; i < shards_.size(); ++i) shards_[i]->ordinal = i;
  return Status::Ok();
}

void ReteMatcher::ApplyAdd(const WmePtr& wme) {
  auto it = alphas_by_class_.find(wme->cls());
  if (it == alphas_by_class_.end()) return;
  for (const auto& am : it->second) {
    if (!am->Accepts(*wme)) continue;
    am->AddItem(wme);
    wme_amems_[wme->time_tag()].push_back(am.get());
    // Immediate per-memory activation, successors newest-first: this is the
    // ordering that makes one WME matching several CEs of a rule produce
    // each combined token exactly once.
    for (size_t i = 0; i < am->successors_.size(); ++i) {
      ++stats_.right_activations;
      am->successors_[i]->RightActivate(wme, /*added=*/true);
    }
  }
}

void ReteMatcher::ApplyRemove(const WmePtr& wme) {
  auto it = wme_amems_.find(wme->time_tag());
  if (it == wme_amems_.end()) return;
  // 1. Remove from alpha memories so joins no longer see it. wme_amems_ is
  // the single source of truth for which memories hold the WME, so each
  // exit must find its item (exactly-once-per-batch discipline; the
  // grouped and per-WME paths never overlap on a WME).
  for (AlphaMemory* am : it->second) {
    bool removed = am->RemoveItem(wme);
    assert(removed && "WME missing from an alpha memory it was filed under");
    (void)removed;
  }
  // 2. Unblock negative nodes (may propagate new tokens — those are
  // stamped with this removal's tag so its remaining right-activations
  // skip them; see Token::born_of_removal).
  removing_tag_ = wme->time_tag();
  for (AlphaMemory* am : it->second) {
    for (size_t i = 0; i < am->successors_.size(); ++i) {
      ++stats_.right_activations;
      am->successors_[i]->RightActivate(wme, /*added=*/false);
    }
  }
  // 3. Tree-delete every token anchored on this WME, shard by shard in
  // registration order — the same order the parallel merge applies
  // per-rule deletion ops in. Flush before returning: on the per-WME path
  // (negative successors present) the next WME's unblock cascade scans
  // output memories.
  for (RuleShard* shard : shards_) {
    BulkDeleteAnchored(shard, wme->time_tag(), &scratch_);
  }
  FlushDeletions(&scratch_);
  removing_tag_ = 0;
  wme_amems_.erase(wme->time_tag());
}

void ReteMatcher::OnAdd(const WmePtr& wme) {
  obs::ScopedTimer timer(match_timer_);
  ApplyAdd(wme);
}

void ReteMatcher::OnRemove(const WmePtr& wme) {
  obs::ScopedTimer timer(match_timer_);
  ApplyRemove(wme);
}

void ReteMatcher::ApplyRemoveRun(const std::vector<WmChange>& changes,
                                 size_t begin, size_t end) {
  if (end - begin == 1) {
    ApplyRemove(changes[begin].wme);
    return;
  }
  // A grouped run pulls every WME out of its alpha memories before any
  // token deletion, so joins re-seeded later in the batch never see a
  // half-removed set. Safe only when no touched alpha feeds a negative
  // node: negative successors react to removals (blocker counts) and the
  // per-WME interleaving of unblocking vs. token deletion is observable
  // in the sink's Touch sequence.
  for (size_t i = begin; i < end; ++i) {
    auto it = wme_amems_.find(changes[i].wme->time_tag());
    if (it == wme_amems_.end()) continue;
    for (AlphaMemory* am : it->second) {
      for (BetaNode* succ : am->successors_) {
        if (succ->cond().negated) {
          // The scan mutates nothing, so the fallback is a clean per-WME
          // replay of the whole run.
          for (size_t j = begin; j < end; ++j) ApplyRemove(changes[j].wme);
          return;
        }
      }
    }
  }
  // Phase 1: all alpha exits, grouped per memory — one compaction pass per
  // touched memory for the whole run instead of one scan per (WME, memory)
  // pair.
  AlphaExitBatch exits;
  for (size_t i = begin; i < end; ++i) {
    const WmePtr& wme = changes[i].wme;
    auto it = wme_amems_.find(wme->time_tag());
    if (it == wme_amems_.end()) continue;
    for (AlphaMemory* am : it->second) exits.Add(am, wme);
  }
  exits.Commit();
  // Phase 2: per-WME token-tree deletion, batch order. (No negative
  // successors anywhere in the run, and JoinNode::RightActivate ignores
  // removals, so the skipped right-activations are provably no-ops.) The
  // container compaction is deferred across the whole run: nothing between
  // these deletions scans an output memory (no right-activations happen in
  // this phase, and the tree walks themselves skip dead tokens), so one
  // flush at the end suffices.
  for (size_t i = begin; i < end; ++i) {
    TimeTag tag = changes[i].wme->time_tag();
    for (RuleShard* shard : shards_) BulkDeleteAnchored(shard, tag, &scratch_);
    wme_amems_.erase(tag);
  }
  FlushDeletions(&scratch_);
  ++stats_.grouped_removals;
}

void ReteMatcher::AlphaExitBatch::Add(AlphaMemory* am, const WmePtr& wme) {
  auto [it, fresh] = exits_.try_emplace(am);
  if (fresh) order_.push_back(am);
  it->second.push_back(wme);
}

void ReteMatcher::AlphaExitBatch::Commit() {
  for (AlphaMemory* am : order_) {
    const std::vector<WmePtr>& wmes = exits_[am];
    size_t removed = am->RemoveItems(wmes);
    assert(removed == wmes.size() &&
           "a WME must leave each alpha memory exactly once per batch");
    (void)removed;
  }
  exits_.clear();
  order_.clear();
}

void ReteMatcher::OnBatch(const ChangeBatch& batch) {
  obs::ScopedTimer timer(match_timer_);
  if (pool_ != nullptr) {
    OnBatchParallel(batch);
    return;
  }
  OnBatchSequential(batch);
}

void ReteMatcher::OnBatchSequential(const ChangeBatch& batch) {
  ++stats_.batches;
  for (const auto& s : sinks_) s->OnBatchBegin();
  const std::vector<WmChange>& changes = batch.changes;
  size_t i = 0;
  while (i < changes.size()) {
    if (changes[i].added) {
      ApplyAdd(changes[i].wme);
      ++i;
      continue;
    }
    size_t j = i;
    while (j < changes.size() && !changes[j].added) ++j;
    ApplyRemoveRun(changes, i, j);
    i = j;
  }
  for (const auto& s : sinks_) s->OnBatchEnd();
#ifndef NDEBUG
  CheckAnchorInvariants();
#endif
}

void ReteMatcher::OnBatchParallel(const ChangeBatch& batch) {
  ++stats_.batches;
  ++stats_.parallel_batches;
  for (const auto& s : sinks_) s->OnBatchBegin();
  const std::vector<WmChange>& changes = batch.changes;

  // --- Phase A (coordinator): alpha entries + the replay plan. ---
  //
  // Adds go into their alpha memories right away (all replay tasks read the
  // same physical memories); removals are only *marked* — they leave in
  // phase C, after every task is done reading. ReplayVisibleTag gives each
  // task the exact per-change view the sequential interleaving had.
  replay_removed_.clear();
  std::vector<ChangeRec> plan;
  plan.reserve(changes.size());
  // Staged adds carry strictly increasing time tags, all larger than any
  // pre-batch WME's, so "visible as of change e" is just a tag ceiling.
  TimeTag ceiling = std::numeric_limits<TimeTag>::max();
  for (const WmChange& c : changes) {
    if (c.added) {
      ceiling = c.wme->time_tag() - 1;
      break;
    }
  }
  std::vector<char> touched(shards_.size(), 0);
  for (size_t e = 0; e < changes.size(); ++e) {
    const WmChange& c = changes[e];
    ChangeRec rec;
    rec.prev_ceiling = ceiling;
    if (c.added) {
      auto it = alphas_by_class_.find(c.wme->cls());
      if (it != alphas_by_class_.end()) {
        for (const auto& am : it->second) {
          if (!am->Accepts(*c.wme)) continue;
          am->AddItem(c.wme);
          wme_amems_[c.wme->time_tag()].push_back(am.get());
          rec.amems.push_back(am.get());
        }
      }
      ceiling = c.wme->time_tag();
    } else {
      auto it = wme_amems_.find(c.wme->time_tag());
      if (it != wme_amems_.end()) rec.amems = it->second;
      replay_removed_.emplace(c.wme->time_tag(), e);
      for (RuleShard* shard : shards_) {
        if (shard->tokens_by_wme.count(c.wme->time_tag()) != 0) {
          touched[shard->ordinal] = 1;
        }
      }
    }
    rec.ceiling = ceiling;
    for (AlphaMemory* am : rec.amems) {
      for (BetaNode* succ : am->successors_) {
        touched[succ->shard_->ordinal] = 1;
      }
    }
    plan.push_back(std::move(rec));
  }

  // --- Phase B: one replay task per touched rule shard. ---
  std::vector<RuleShard*> targets;
  for (RuleShard* s : shards_) {
    if (touched[s->ordinal] != 0) targets.push_back(s);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    for (RuleShard* s : targets) {
      tracer_->Emit(obs::TraceEvent("rule_replay")
                        .Str("rule", s->rule->name)
                        .Num("changes", changes.size()));
    }
  }
  if (!targets.empty()) {
    std::vector<ConflictSet::Delta> deltas(targets.size());
    std::vector<ReplayCtx> ctxs(targets.size());
    stats_.replay_tasks += targets.size();
    if (targets.size() == 1) {
      // One touched rule: replay inline, dispatch would only add latency.
      ReplayShard(targets[0], changes, plan, &deltas[0], &ctxs[0]);
    } else {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(targets.size());
      for (size_t i = 0; i < targets.size(); ++i) {
        tasks.push_back([this, &changes, &plan, &deltas, &ctxs, &targets, i] {
          ReplayShard(targets[i], changes, plan, &deltas[i], &ctxs[i]);
        });
      }
      pool_->RunAll(std::move(tasks));
    }
    // --- Phase C: deterministic merge, registration order. ---
    for (ReplayCtx& ctx : ctxs) MergeCtx(&ctx);
    cs_->ApplyDeltas(&deltas);
  }
  // Physical alpha exits for the batch's removals (the marks kept them in
  // place during phase B), grouped per memory so each is compacted once.
  AlphaExitBatch exits;
  for (size_t e = 0; e < changes.size(); ++e) {
    if (changes[e].added) continue;
    const WmePtr& wme = changes[e].wme;
    for (AlphaMemory* am : plan[e].amems) exits.Add(am, wme);
    wme_amems_.erase(wme->time_tag());
  }
  exits.Commit();
  replay_removed_.clear();
  for (const auto& s : sinks_) s->OnBatchEnd();
#ifndef NDEBUG
  CheckAnchorInvariants();
#endif
}

void ReteMatcher::ReplayShard(RuleShard* shard,
                              const std::vector<WmChange>& changes,
                              const std::vector<ChangeRec>& plan,
                              ConflictSet::Delta* delta, ReplayCtx* ctx) {
  ctx->net = this;
  ctx->shard = shard;
  // Save/restore rather than set/null, so a task run on a thread that
  // already carries a context puts that context back on exit.
  ReplayCtx* prev_replay = tls_replay_;
  tls_replay_ = ctx;
  ConflictSet::ScopedThreadDelta scoped_delta(cs_, delta);
  // Token deletion defers container compaction across consecutive removal
  // changes — but only while no scan can observe a dead token: an add's
  // right-activations probe output memories, and a negative node's unblock
  // cascade does too, so those flush first. Shards with a negative node
  // flush per change (the per-WME interleaving ApplyRemove preserves).
  DeletionScratch& scratch = ctx->scratch;
  const bool defer = !shard->has_negative;
  for (size_t e = 0; e < changes.size(); ++e) {
    const WmChange& c = changes[e];
    const ChangeRec& rec = plan[e];
    if (c.added && !scratch.empty()) FlushDeletions(&scratch);
    ctx->epoch = e;
    ctx->prev_ceiling = rec.prev_ceiling;
    ctx->add_ceiling = rec.ceiling;
    ctx->removing_tag = c.added ? 0 : c.wme->time_tag();
    ctx->cur_amems = &rec.amems;
    for (size_t a = 0; a < rec.amems.size(); ++a) {
      ctx->cur_amem_ord = a;
      const std::vector<BetaNode*>* nodes = shard->SuccessorsOf(rec.amems[a]);
      if (nodes == nullptr) continue;
      for (BetaNode* node : *nodes) {
        delta->SetStamp({static_cast<uint32_t>(e), 0, static_cast<uint32_t>(a),
                         static_cast<uint32_t>(node->succ_ordinal_)});
        ++ctx->stats.right_activations;
        node->RightActivate(c.wme, c.added);
      }
    }
    if (!c.added) {
      // Token-tree deletion for this removal, after its unblock cascade —
      // the same per-change interleaving as the sequential ApplyRemove.
      delta->SetStamp({static_cast<uint32_t>(e), 1, 0, 0});
      BulkDeleteAnchored(shard, c.wme->time_tag(), &scratch);
      if (!defer) FlushDeletions(&scratch);
    }
  }
  if (!scratch.empty()) FlushDeletions(&scratch);
  tls_replay_ = prev_replay;
}

void ReteMatcher::MergeCtx(ReplayCtx* ctx) {
  const ReteStats& s = ctx->stats;
  stats_.join_attempts += s.join_attempts;
  stats_.index_probes += s.index_probes;
  stats_.tokens_created += s.tokens_created;
  stats_.tokens_deleted += s.tokens_deleted;
  stats_.right_activations += s.right_activations;
  stats_.token_pool_hits += s.token_pool_hits;
  stats_.bulk_deletes += s.bulk_deletes;
  stats_.arena_slabs += s.arena_slabs;
  live_tokens_ = static_cast<size_t>(static_cast<int64_t>(live_tokens_) +
                                     ctx->live_token_delta);
}

void ReteMatcher::DumpNetwork(std::ostream& out,
                              const SymbolTable& symbols) const {
  out << "alpha network:\n";
  for (const auto& [cls, memories] : alphas_by_class_) {
    for (const auto& am : memories) {
      const AlphaPattern& p = *am->pattern();
      out << "  (" << symbols.Name(cls) << ") tests="
          << p.const_tests.size() + p.member_tests.size() +
                 p.intra_tests.size()
          << " items=" << am->num_items()
          << " indexes=" << am->indexes_.size()
          << " successors=" << am->successors_.size() << "\n";
    }
  }
  out << "beta network:\n";
  for (const RuleShard* shard : shards_) {
    out << "  rule " << shard->rule->name << ":";
    for (BetaNode* node : shard->chain) {
      bool negative = node->cond().negated;
      out << " " << (negative ? "neg" : "join")
          << (node->indexed() ? "*" : "") << "(" << node->outputs_.size()
          << ")";
    }
    out << " -> " << (shard->rule->has_set ? "S-node" : "P-node") << "\n";
  }
}

size_t ReteMatcher::num_alpha_memories() const {
  size_t n = 0;
  for (const auto& [cls, memories] : alphas_by_class_) n += memories.size();
  return n;
}

}  // namespace sorel
