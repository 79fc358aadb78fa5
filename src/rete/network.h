#ifndef SOREL_RETE_NETWORK_H_
#define SOREL_RETE_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "lang/compiled_rule.h"
#include "lang/rule_base.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rete/columnar.h"
#include "rete/conflict_set.h"
#include "rete/matcher.h"
#include "rete/token.h"
#include "wm/working_memory.h"

namespace sorel {

class ReteMatcher;
class ThreadPool;

/// Construction-time options for the Rete matcher.
struct ReteOptions {
  /// Hash-index alpha memories and beta output memories on their equality
  /// join tests (Doorenbos-style), so joins probe one bucket instead of
  /// scanning the whole memory. Off restores the seed's linear scans —
  /// kept as the ablation baseline for bench_fig3_snode and
  /// bench_workload_seating.
  bool use_indexed_joins = true;
};

/// Hot-path counters for the match network (see docs/INTERNALS.md,
/// "Indexed memories & match statistics").
struct ReteStats {
  /// Candidate (token, WME) pairs whose join tests were evaluated.
  uint64_t join_attempts = 0;
  /// Hash-bucket lookups on the indexed paths.
  uint64_t index_probes = 0;
  uint64_t tokens_created = 0;
  uint64_t tokens_deleted = 0;
  /// Right-activation calls into beta nodes (one per alpha successor per
  /// propagated change — the per-change propagation cost).
  uint64_t right_activations = 0;
  /// ChangeBatch deliveries handled natively (batched_wm on).
  uint64_t batches = 0;
  /// Removal runs whose alpha exits were grouped (no negative successors;
  /// sequential path only — the parallel replay subsumes the grouping).
  uint64_t grouped_removals = 0;
  /// NewToken requests served from the token free list instead of the heap.
  uint64_t token_pool_hits = 0;
  /// Batches propagated through the worker pool.
  uint64_t parallel_batches = 0;
  /// Per-rule replay tasks dispatched across those batches.
  uint64_t replay_tasks = 0;
  /// Deferred-compaction flushes of the token-deletion routine (one per
  /// removal run, per-WME removal, shard-replay flush point, negative-node
  /// retract, or rule excise that deleted tokens).
  uint64_t bulk_deletes = 0;
  /// Fresh token slabs allocated across the per-shard arenas.
  uint64_t arena_slabs = 0;
};

/// Terminal consumer of a rule's tokens: a P-node for regular rules or an
/// S-node (src/core) for set-oriented rules.
class ReteSink {
 public:
  virtual ~ReteSink() = default;
  /// `added` follows the sign of the token (+/- in the paper's Figure 3).
  virtual void OnToken(Token* token, bool added) = 0;
  /// Bracket a ChangeBatch: between Begin and End the sink may defer its
  /// conflict-set decisions (the S-node defers γ-memory sends and `:test`
  /// evaluation to End — one re-eval per touched SOI instead of one per
  /// member token). Defaults are no-ops (P-nodes stay eager).
  virtual void OnBatchBegin() {}
  virtual void OnBatchEnd() {}
};

class AlphaMemory;
class BetaNode;

/// One rule's private slice of the match state: its beta chain, sink, and
/// token anchoring. Everything a shard owns is touched by exactly one
/// replay task during parallel propagation, so workers need no locks.
struct RuleShard {
  const CompiledRule* rule = nullptr;
  std::vector<BetaNode*> chain;
  ReteSink* sink = nullptr;
  /// Position in rule-registration order (index into ReteMatcher::shards_);
  /// the deterministic-merge tie-break across rules.
  size_t ordinal = 0;
  /// One tokens_by_wme entry: the tokens anchored on a WME plus the dirty
  /// flag (dead entries pending compaction). An entry exists
  /// iff it holds tokens — eager erasure, checked by
  /// ReteMatcher::CheckAnchorInvariants in debug builds.
  struct AnchorList {
    std::vector<TokenId> tokens;  // ids into this shard's arena
    bool dirty = false;
  };
  /// Tokens whose own WME is the keyed one, this rule's chain only — the
  /// per-rule half of tree-based removal.
  std::unordered_map<TimeTag, AnchorList> tokens_by_wme;
  /// Slab storage and free list for every token of this rule's chain.
  /// Shard-owned so replay tasks recycle without locks and in the same
  /// order as the sequential path.
  TokenArena arena;
  /// Whether the chain contains a negative node (set by AddRule); removal
  /// replays must flush deletions per WME in that case to preserve the
  /// per-WME unblocking interleaving.
  bool has_negative = false;
  /// This rule's beta nodes grouped by alpha memory, each group in
  /// successor (newest-first) order — the replay's right-activation
  /// schedule. Relative order within one rule never changes (other rules
  /// only prepend to the shared successor lists), so this is computed once
  /// at AddRule.
  std::vector<std::pair<AlphaMemory*, std::vector<BetaNode*>>> amem_nodes;
  /// Dummy parent of this rule's level-1 tokens. Per-shard (not per
  /// matcher) so concurrent replays never push into a shared `children`
  /// vector.
  Token root;

  const std::vector<BetaNode*>* SuccessorsOf(const AlphaMemory* am) const {
    for (const auto& [mem, nodes] : amem_nodes) {
      if (mem == am) return &nodes;
    }
    return nullptr;
  }
};

/// An alpha memory: the WMEs of one class passing one set of intra-WME
/// tests (constants, disjunctions, and same-WME variable consistency).
/// Shared across rules/CEs with identical tests (the Rete "shared tests"
/// property the paper preserves, §5). The tests themselves live in an
/// immutable `AlphaPattern` (borrowed — owned by the bound
/// CompiledRuleBase's topology, or by the matcher when self-contained);
/// the memory owns only the mutable per-session item storage.
///
/// Items live in `cols_`, parallel tag/WME/liveness columns with tombstoned
/// removal and threshold-triggered stable compaction. Index buckets map
/// join keys to row-id lists over those columns, and each index keeps the
/// join-key values it extracted per row as contiguous `Value` columns, so
/// compaction rebuilds buckets without dereferencing WMEs. Scans go
/// through `Items()`/`Probe()`, which return AlphaSpans; live rows keep
/// insertion order.
class AlphaMemory {
 public:
  /// Hash index over the memory's items keyed by a field-value tuple;
  /// shared by every successor whose equality join tests name the same
  /// WME-side fields. Buckets preserve item insertion order, matching a
  /// linear scan of the memory.
  class Index {
   public:
    explicit Index(std::vector<int> fields)
        : fields_(std::move(fields)), key_cols_(fields_.size()) {}

    const std::vector<int>& fields() const { return fields_; }

   private:
    friend class AlphaMemory;

    /// The row-id bucket for `key`, or nullptr; may contain dead rows
    /// (callers filter with AlphaColumns::IsLive).
    const std::vector<uint32_t>* FindRows(const JoinKey& key) const;
    /// Registers row `row` (just appended to the columns): extracts the
    /// key fields into the per-field value columns and buckets the row id.
    /// `live` is false only when seeding a late-created index over a
    /// tombstoned row — the key columns get nil padding and no bucket
    /// entry.
    void InsertRow(const Wme* wme, uint32_t row, bool live);
    /// Follows an AlphaColumns::Compact: compacts the key-value columns by
    /// `remap` (a contiguous scan — no WME derefs) and rebuilds the row
    /// buckets, preserving ascending-row (= insertion) order per bucket.
    void Rekey(const std::vector<uint32_t>& remap, size_t new_rows);

    std::vector<int> fields_;
    std::unordered_map<JoinKey, std::vector<uint32_t>, JoinKeyHash>
        row_buckets_;
    /// One pre-extracted `Value` column per indexed field, row-aligned
    /// with the owning memory's columns (nil for dead rows).
    std::vector<std::vector<Value>> key_cols_;
  };

  explicit AlphaMemory(const AlphaPattern* pattern) : pattern_(pattern) {}

  /// True if `wme` (already of the right class) passes all tests.
  bool Accepts(const Wme& wme) const { return pattern_->Accepts(wme); }

  /// True if this memory can be shared with `cond`'s alpha tests.
  bool SameTests(const CompiledCondition& cond) const {
    return pattern_->Matches(cond);
  }

  /// The immutable test signature this memory instantiates.
  const AlphaPattern* pattern() const { return pattern_; }

  /// The index keyed on `fields`, creating (and seeding from the current
  /// items) if absent.
  Index* GetOrCreateIndex(const std::vector<int>& fields);

  /// View of every row, tombstoned ones included (scan loops filter with
  /// AlphaSpan::Live).
  AlphaSpan Items() const { return AlphaSpan(&cols_, nullptr); }
  /// View of `index`'s bucket for `key` (empty span if the bucket does not
  /// exist).
  AlphaSpan Probe(const Index* index, const JoinKey& key) const;
  /// Live item count.
  size_t num_items() const { return cols_.live(); }
  /// Copies the live items, in insertion order, into `out`.
  void SnapshotItems(std::vector<WmePtr>* out) const;

  SymbolId cls() const { return pattern_->cls; }
  size_t num_indexes() const { return indexes_.size(); }
  /// Bytes held by the columns, row buckets and key columns (the
  /// `rete.alpha_bytes` gauge).
  size_t MemoryBytes() const;

 private:
  friend class ReteMatcher;

  /// Appends an item, keeping every index in sync.
  void AddItem(const WmePtr& wme);
  /// Tombstones an item, returning whether it was present — callers assert
  /// presence, the exactly-once-per-batch discipline.
  bool RemoveItem(const WmePtr& wme);
  /// Tombstones every WME in `wmes`, returning how many were found.
  size_t RemoveItems(const std::vector<WmePtr>& wmes);
  /// Runs a compaction pass (columns + every index) once enough tombstones
  /// accumulate. Callers must not hold row ids across it.
  void MaybeCompact();

  /// Borrowed immutable test signature; outlives the memory (owned by the
  /// shared rule base's topology or by the matcher's owned_patterns_).
  const AlphaPattern* pattern_;
  AlphaColumns cols_;
  std::vector<uint32_t> remap_scratch_;
  std::vector<std::unique_ptr<Index>> indexes_;
  /// Right-activation targets, newest-first (Doorenbos's ordering, which
  /// avoids duplicate tokens when one WME feeds several CEs of a rule).
  std::vector<class BetaNode*> successors_;
};

/// A node of the beta network: a join node or a negative node. Each rule
/// compiles to a linear chain of beta nodes ending in a sink.
class BetaNode {
 public:
  BetaNode(ReteMatcher* net, AlphaMemory* amem, BetaNode* parent,
           const CompiledCondition* cond);
  virtual ~BetaNode() = default;

  /// A new token arrived from the upstream node.
  virtual void OnParentToken(Token* t) = 0;
  /// `wme` was added to / removed from this node's alpha memory.
  virtual void RightActivate(const WmePtr& wme, bool added) = 0;
  /// The detach half of token deletion: unindexes `t`, updates node-local
  /// state, and notifies the sink if `t` had reached it — without touching
  /// `outputs_`, whose compaction token deletion defers to one stable pass
  /// per flush (ReteMatcher::FlushDeletions).
  virtual void DetachToken(Token* t) = 0;
  /// Called by the matcher right after `t` entered this node's output
  /// memory; maintains the node-specific token indexes.
  virtual void OnTokenRegistered(Token* t);
  /// Whether `t` (one of this node's outputs) is visible downstream. Left
  /// indexes hold *all* of a parent's outputs in creation order — the same
  /// relative order a linear scan of the parent's memory sees — and filter
  /// with this at probe time, so indexed and linear joins produce tokens
  /// in the same sequence.
  virtual bool IsOutputActive(const Token* t) const;

  void set_child(BetaNode* child) { child_ = child; }
  void set_sink(ReteSink* sink) { sink_ = sink; }
  AlphaMemory* amem() const { return amem_; }
  const CompiledCondition& cond() const { return *cond_; }
  /// True when this node joins through hash indexes (equality tests exist
  /// and the matcher runs with ReteOptions::use_indexed_joins).
  bool indexed() const { return indexed_; }

 protected:
  friend class ReteMatcher;  // token registration touches outputs_

  /// Evaluates this node's join tests for `wme` against the token chain.
  bool Matches(const Token* t, const Wme& wme) const;
  /// Evaluates only the non-equality join tests (the equality ones are
  /// guaranteed by the index bucket).
  bool MatchesResidual(const Token* t, const Wme& wme) const;
  /// The WME-side key of this node's equality join tests.
  JoinKey WmeKey(const Wme& wme) const;
  /// The token-side key; false if a referenced WME is missing from the
  /// chain (such a token can never satisfy the equality tests).
  bool TokenKey(const Token* t, JoinKey* out) const;
  /// Adds/removes an upstream token to this node's left index (called by
  /// the parent when its active output set changes). No-ops when the node
  /// is not indexed.
  void IndexLeftToken(Token* t);
  void UnindexLeftToken(Token* t);
  /// Drops `t` from the child's left index; DetachToken overrides call
  /// this (they cannot touch the child's protected members directly) while
  /// the token chain is still intact.
  void UnindexFromChild(Token* t);
  /// Hands a token to the downstream node / sink.
  void PropagateDown(Token* t);

  /// The parent's output memory — the candidate list of an unindexed
  /// left-side scan. Defined here (not in the derived nodes) so it is the
  /// base class accessing its own protected member on another instance,
  /// which C++ permits where `parent_->outputs_` from a derived class
  /// would not be.
  const std::vector<TokenId>& ParentOutputs() const {
    return parent_->outputs_;
  }

  /// Resolves an output/child/anchor id against this node's shard arena.
  Token* TokenAt(TokenId id) const { return shard_->arena.At(id); }

  ReteMatcher* net_;
  AlphaMemory* amem_;
  BetaNode* parent_;  // null for the first node (root token upstream)
  const CompiledCondition* cond_;
  BetaNode* child_ = nullptr;
  ReteSink* sink_ = nullptr;
  /// This node's token memory as 32-bit ids into the shard arena (half the
  /// entry size of Token*; FlushDeletions compacts a vector of ints).
  std::vector<TokenId> outputs_;
  /// The rule shard this node belongs to (set by AddRule).
  RuleShard* shard_ = nullptr;
  /// Current position in amem_->successors_ (maintained by the matcher on
  /// rule add/remove); the within-alpha-memory merge tie-break.
  int succ_ordinal_ = 0;
  /// `outputs_` holds dead tokens pending compaction (the node is already
  /// queued in the current DeletionScratch).
  bool compact_pending_ = false;

  // --- indexed-join state (unused when !indexed_) ---
  bool indexed_ = false;
  /// This node's amem items bucketed by the equality WME-side fields.
  AlphaMemory::Index* aindex_ = nullptr;
  /// The parent's active outputs bucketed by this node's token-side
  /// equality values (empty for the first node — the root token is the
  /// only upstream).
  TokenIndex left_index_;
};

/// Positive CE: joins upstream tokens with alpha memory WMEs.
class JoinNode : public BetaNode {
 public:
  using BetaNode::BetaNode;
  void OnParentToken(Token* t) override;
  void RightActivate(const WmePtr& wme, bool added) override;
  void DetachToken(Token* t) override;
};

/// Negated CE: propagates upstream tokens that have *no* match in the alpha
/// memory; maintains a blocker count per token.
class NegativeNode : public BetaNode {
 public:
  using BetaNode::BetaNode;
  void OnParentToken(Token* t) override;
  void RightActivate(const WmePtr& wme, bool added) override;
  void DetachToken(Token* t) override;
  void OnTokenRegistered(Token* t) override;
  bool IsOutputActive(const Token* t) const override {
    return t->propagated;
  }

 private:
  int CountBlockers(const Token* t) const;
  void Propagate(Token* t);
  void Retract(Token* t);

  /// All of this node's own output tokens (propagated or not) bucketed by
  /// the token-side equality values, so RightActivate touches only the
  /// tokens whose blocker count the WME can change.
  TokenIndex own_index_;
};

/// P-node: terminal for regular (non-set-oriented) rules; owns one
/// conflict-set instantiation per complete token.
class PNode : public ReteSink {
 public:
  PNode(const CompiledRule* rule, ConflictSet* cs) : rule_(rule), cs_(cs) {}
  ~PNode() override;

  void OnToken(Token* token, bool added) override;

  size_t size() const { return insts_.size(); }

 private:
  class RegularInst;
  const CompiledRule* rule_;
  ConflictSet* cs_;
  std::unordered_map<Token*, std::unique_ptr<InstantiationRef>> insts_;
};

/// Builds the terminal node for a rule. The engine supplies a factory that
/// creates a PNode for regular rules and an S-node for set-oriented ones
/// (keeping this library independent of src/core).
using SinkFactory =
    std::function<std::unique_ptr<ReteSink>(const CompiledRule&)>;

/// The extended Rete network of §5: shared alpha memories, per-rule join
/// chains, negative nodes, and pluggable terminals.
///
/// Threading model (with a worker pool): OnBatch splits into three
/// phases. Phase A (coordinator) walks the batch once, inserting every add
/// into its alpha memories and recording a per-change replay plan; removed
/// WMEs stay physically present but are marked in `replay_removed_`. Phase
/// B fans one task per touched rule shard out to the pool; each task
/// replays the change sequence against its own beta chain, with all alpha
/// reads filtered through `ReplayVisibleTag` so every scan sees exactly the
/// memory contents the sequential interleaving would have seen at that
/// change. Conflict-set sends are buffered per shard with deterministic
/// stamps. Phase C (coordinator) merges stats, applies the conflict-set
/// deltas in the sequential order, performs the physical alpha exits, and
/// runs the sinks' batch-end flushes — bit-identical to `pool == nullptr`.
class ReteMatcher : public Matcher {
 public:
  /// `sink_factory` may be null, in which case every rule gets a plain
  /// PNode (set-oriented rules are then rejected by AddRule).
  ///
  /// The remaining parameters are borrowed and may be null:
  /// - `pool`: worker pool for parallel ChangeBatch propagation (see the
  ///   class comment); null keeps the sequential path.
  /// - `metrics` gets the rete.* counters as views (plus the matcher's
  ///   reset hook); `tracer` receives rule_replay events on the parallel
  ///   batch path.
  /// - `topology`: the shared compiled topology of an Engine bound to a
  ///   CompiledRuleBase. AddRule then resolves each CE's alpha pattern by
  ///   pointer out of the topology instead of copying tests into the
  ///   memory, so N sessions share one immutable pattern set and each
  ///   AlphaMemory holds only its private item storage. Null keeps the
  ///   self-contained path: the matcher derives (and owns) patterns from
  ///   the conditions it sees. Both paths dedup structurally in first-use
  ///   order, so network shape and traces are bit-identical.
  ReteMatcher(WorkingMemory* wm, ConflictSet* cs, SinkFactory sink_factory,
              ReteOptions options = {}, ThreadPool* pool = nullptr,
              obs::MetricRegistry* metrics = nullptr,
              obs::Tracer* tracer = nullptr,
              const NetworkTopology* topology = nullptr);
  ~ReteMatcher() override;

  ReteMatcher(const ReteMatcher&) = delete;
  ReteMatcher& operator=(const ReteMatcher&) = delete;

  Status AddRule(const CompiledRule* rule) override;
  Status RemoveRule(const CompiledRule* rule) override;
  ConflictSet& conflict_set() override { return *cs_; }

  void OnAdd(const WmePtr& wme) override;
  void OnRemove(const WmePtr& wme) override;
  /// Native batched propagation: brackets every sink with
  /// OnBatchBegin/OnBatchEnd, replays the changes in staging order (the
  /// ordering per-WME listeners would see), and groups consecutive removals'
  /// alpha-memory exits when no negative node is watching (a negative
  /// successor needs the per-WME unblocking order to stay bit-identical).
  /// With a worker pool configured, the per-rule replays run concurrently
  /// (see the class comment).
  void OnBatch(const ChangeBatch& batch) override;

  // --- token management (used by beta nodes) ---
  Token* NewToken(BetaNode* owner, Token* parent, WmePtr wme);
  /// Deletes every child subtree of `t` and flushes — a negative node's
  /// retract when its token gains a blocker.
  void DeleteChildren(Token* t);

  // --- introspection for tests and benches ---
  /// Prints the network topology: alpha memories (class, tests, items,
  /// successors) and each rule's beta chain with memory sizes.
  void DumpNetwork(std::ostream& out, const SymbolTable& symbols) const;
  size_t num_alpha_memories() const;
  size_t live_tokens() const { return live_tokens_; }
  size_t num_beta_nodes() const { return nodes_.size(); }
  /// Recyclable tokens currently parked across the per-shard arenas.
  size_t free_tokens() const;

  const ReteOptions& options() const { return options_; }
  const ReteStats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  friend class BetaNode;  // nodes bump stats through net_
  friend class JoinNode;
  friend class NegativeNode;

  /// One in-progress token deletion: the dead tokens awaiting recycle plus
  /// every container that needs exactly one stable compaction pass.
  /// Sequential paths reuse the matcher's `scratch_`; each replay task keeps
  /// its own in its ReplayCtx (it only ever names per-shard state, so no
  /// synchronization).
  struct DeletionScratch {
    std::vector<Token*> dead;
    /// Nodes whose outputs_ hold dead entries (compact_pending_ set).
    std::vector<BetaNode*> dirty_nodes;
    /// Live parents whose children vector holds dead entries, paired with
    /// the arena those child ids resolve against (the dead children's
    /// shard; the parent itself may be the arena-less shard root).
    std::vector<std::pair<TokenArena*, Token*>> dirty_parents;
    /// tokens_by_wme entries holding dead entries (AnchorList::dirty set).
    std::vector<std::pair<RuleShard*, TimeTag>> dirty_anchors;
    bool empty() const { return dead.empty(); }
  };

  /// Per-task replay state, installed in `tls_replay_` while a shard task
  /// runs. Everything a worker would otherwise write to shared matcher
  /// state (counters, live-token accounting) accumulates here and is
  /// merged by the coordinator after the join; token recycling goes
  /// straight to the shard's own arena, which no other task touches.
  struct ReplayCtx {
    ReteMatcher* net = nullptr;
    RuleShard* shard = nullptr;
    ReteStats stats;
    int64_t live_token_delta = 0;
    // Visibility state for the change currently being replayed.
    size_t epoch = 0;
    TimeTag prev_ceiling = 0;
    TimeTag add_ceiling = 0;
    const std::vector<AlphaMemory*>* cur_amems = nullptr;
    size_t cur_amem_ord = 0;
    /// Time tag of the removal change being replayed (0 for adds) — the
    /// replay-task counterpart of ReteMatcher::removing_tag_.
    TimeTag removing_tag = 0;
    /// The task's token-deletion scratch (the counterpart of scratch_).
    DeletionScratch scratch;
  };

  /// One batch change's replay plan (phase A output).
  struct ChangeRec {
    /// Alpha memories the change's WME entered (adds, in activation order)
    /// or occupied (removals, in the order ApplyAdd filed them).
    std::vector<AlphaMemory*> amems;
    /// Highest time tag visible before / after this change's add (adds are
    /// tag-monotone within a batch, so a ceiling encodes add visibility).
    TimeTag prev_ceiling = 0;
    TimeTag ceiling = 0;
  };

  /// One removal batch's grouped alpha exits: victims collected per
  /// memory, then each memory compacted once by Commit(). Commit asserts
  /// every victim was present — ApplyRemove and the grouped run previously
  /// both exited overlapping ranges, masked only because linear RemoveItem
  /// of an absent item was a silent no-op.
  class AlphaExitBatch {
   public:
    void Add(AlphaMemory* am, const WmePtr& wme);
    void Commit();

   private:
    std::unordered_map<AlphaMemory*, std::vector<WmePtr>> exits_;
    std::vector<AlphaMemory*> order_;  // first-touch order, deterministic
  };

  /// The stats sink for the current thread: the replay-task accumulator
  /// during phase B, the matcher's own counters otherwise.
  ReteStats& stats_sink() {
    ReplayCtx* ctx = tls_replay_;
    return (ctx != nullptr && ctx->net == this) ? ctx->stats : stats_;
  }

  /// The replay context installed on this thread for *this* matcher, or
  /// nullptr (sequential paths).
  ReplayCtx* CurrentReplayCtx() const {
    ReplayCtx* ctx = tls_replay_;
    return (ctx != nullptr && ctx->net == this) ? ctx : nullptr;
  }

  /// Whether the item with time tag `tag` — found in `amem`'s physical
  /// storage — is visible to the replay `ctx` at its current change.
  /// Callers outside a replay (ctx == nullptr) skip the call entirely:
  /// everything physically live is visible. Pure: reads only the context
  /// and `replay_removed_`, which is frozen during phase B. Keyed by tag
  /// (unique per WME) so scans check visibility from the contiguous tag
  /// column without touching the WME.
  bool ReplayVisibleTag(TimeTag tag, const AlphaMemory* amem,
                        const ReplayCtx* ctx) const {
    if (tag > ctx->add_ceiling) return false;  // added later in the batch
    if (tag > ctx->prev_ceiling) {
      // The tag belongs to the WME of the change being replayed.
      // Sequential ApplyAdd inserts it into one alpha memory at a time,
      // activating that memory's successors before inserting into the
      // next — so mid-change it is visible only in the memories already
      // entered.
      const std::vector<AlphaMemory*>& amems = *ctx->cur_amems;
      for (size_t i = 0; i <= ctx->cur_amem_ord && i < amems.size(); ++i) {
        if (amems[i] == amem) return true;
      }
      return false;
    }
    if (!replay_removed_.empty()) {
      auto it = replay_removed_.find(tag);
      if (it != replay_removed_.end() && it->second <= ctx->epoch) {
        return false;  // removed at or before the current change
      }
    }
    return true;
  }

  /// The alpha memory for `cond`, creating it if absent. `pattern` is the
  /// shared topology's assignment for this CE (pointer-identity lookup) or
  /// null for self-contained matchers, which dedup structurally and own the
  /// pattern they derive.
  AlphaMemory* GetOrCreateAlpha(const CompiledCondition& cond,
                                const AlphaPattern* pattern);

  /// Shared bodies of OnAdd/OnRemove (also used by the batched path).
  void ApplyAdd(const WmePtr& wme);
  void ApplyRemove(const WmePtr& wme);
  /// Processes `changes[begin, end)` — a run of consecutive removals — with
  /// the alpha-memory exits hoisted ahead of token deletion. Falls back to
  /// per-WME ApplyRemove when a touched alpha has a negative successor.
  void ApplyRemoveRun(const std::vector<WmChange>& changes, size_t begin,
                      size_t end);

  // --- token deletion ---
  /// Recursively detaches `t`'s subtree, children newest first (sinks hear
  /// the retractions in that order), dead-marks its tokens, and queues
  /// every touched container in `s` for one deferred compaction pass.
  void BulkDeleteTree(Token* t, DeletionScratch* s);
  /// BulkDeleteTree over every tree anchored on `tag` in `shard`, erasing
  /// the anchor entry.
  void BulkDeleteAnchored(RuleShard* shard, TimeTag tag, DeletionScratch* s);
  /// Compacts every queued container (stable order) and recycles the dead
  /// tokens into their shards' arenas. Scans must never observe a dead
  /// token: callers flush before any join scan can reach a queued
  /// container (per WME when negative nodes watch the memories, per
  /// removal run / before the next add otherwise).
  void FlushDeletions(DeletionScratch* s);
  /// Debug invariant sweep: no anchor entry is empty, dirty, or holding a
  /// dead token once a batch completes. No-op in release builds.
  void CheckAnchorInvariants() const;

  /// The sequential OnBatch body.
  void OnBatchSequential(const ChangeBatch& batch);
  /// The three-phase parallel OnBatch body (requires pool_).
  void OnBatchParallel(const ChangeBatch& batch);
  /// Phase B task: replays the whole change sequence against one shard.
  void ReplayShard(RuleShard* shard, const std::vector<WmChange>& changes,
                   const std::vector<ChangeRec>& plan,
                   ConflictSet::Delta* delta, ReplayCtx* ctx);
  /// Folds a finished task's accumulators into the matcher state.
  void MergeCtx(ReplayCtx* ctx);

  /// Reassigns succ_ordinal_ for every successor of `am` (after an insert
  /// or erase shifted positions).
  static void RenumberSuccessors(AlphaMemory* am);

  WorkingMemory* wm_;
  ConflictSet* cs_;
  SinkFactory sink_factory_;
  std::unordered_map<SymbolId, std::vector<std::unique_ptr<AlphaMemory>>>
      alphas_by_class_;
  /// Patterns this matcher derived itself (topology_ unset); a
  /// bound matcher borrows the shared topology's patterns instead and
  /// leaves this empty.
  std::vector<std::unique_ptr<AlphaPattern>> owned_patterns_;
  std::vector<std::unique_ptr<BetaNode>> nodes_;
  std::vector<std::unique_ptr<ReteSink>> sinks_;
  /// Per-rule shards, by rule and in registration order.
  std::unordered_map<const CompiledRule*, std::unique_ptr<RuleShard>>
      rule_shards_;
  std::vector<RuleShard*> shards_;
  /// Alpha memories each live WME passed (the shared half of removal).
  std::unordered_map<TimeTag, std::vector<AlphaMemory*>> wme_amems_;
  /// WMEs removed by the in-flight batch (parallel path only): time tag ->
  /// index of its removal change. Physically still in the alpha memories
  /// until phase C; ReplayVisibleTag hides them from later epochs.
  std::unordered_map<TimeTag, size_t> replay_removed_;
  size_t live_tokens_ = 0;
  /// Token-deletion scratch of the sequential paths (reused across flushes
  /// to keep its vectors' capacity warm).
  DeletionScratch scratch_;
  /// Time tag of the removal the sequential path is currently applying
  /// (ApplyRemove steps 2–3), stamped onto tokens its unblock cascade
  /// creates (Token::born_of_removal); 0 outside a removal. Replay tasks
  /// carry their own copy in ReplayCtx::removing_tag.
  TimeTag removing_tag_ = 0;
  ReteOptions options_;
  ThreadPool* pool_;                 // borrowed; may be null
  obs::MetricRegistry* metrics_;     // borrowed; may be null
  obs::Tracer* tracer_;              // borrowed; may be null
  const NetworkTopology* topology_;  // borrowed; may be null
  ReteStats stats_;
  /// "phase.match" scope timer, non-null only when the registry has timing
  /// enabled (EngineOptions::enable_timers).
  obs::Timer* match_timer_ = nullptr;
  /// The replay context of the task running on this thread, if any.
  static thread_local ReplayCtx* tls_replay_;
};

}  // namespace sorel

#endif  // SOREL_RETE_NETWORK_H_
