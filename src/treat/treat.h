#ifndef SOREL_TREAT_TREAT_H_
#define SOREL_TREAT_TREAT_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "lang/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rete/conflict_set.h"
#include "rete/matcher.h"
#include "wm/working_memory.h"

namespace sorel {

class ThreadPool;

/// TREAT (Miranker 1986): the tuple-oriented baseline matcher the paper
/// cites. Keeps only alpha memories (no beta memories); on each WM change it
/// searches for new instantiations seeded at the changed WME, and deletes
/// conflict-set instantiations that contain a removed WME. Negated CEs are
/// handled by blocking (additions delete blocked instantiations; removals
/// trigger a constrained re-search).
///
/// Set-oriented rules are rejected — that tuple orientation is precisely
/// what the paper's S-node extension addresses.
class TreatMatcher : public Matcher {
 public:
  struct Stats {
    uint64_t seeded_searches = 0;
    uint64_t full_searches = 0;
    /// ChangeBatch deliveries handled natively.
    uint64_t batches = 0;
    /// Unblocking re-searches coalesced by batching (per-WME delivery would
    /// have run one SearchAll per negated-CE removal; the batch runs one
    /// per touched rule).
    uint64_t coalesced_researches = 0;
    /// Multi-removal runs in a batch handled as one grouped pass (one alpha
    /// compaction + one instantiation sweep per rule instead of one of each
    /// per removed WME). Sequential batch path only; the parallel replay
    /// path already amortizes per-rule.
    uint64_t grouped_removals = 0;
    /// Full searches whose first-CE scan was forked into parallel slices
    /// (intra-rule parallelism), and the slice tasks dispatched.
    uint64_t intra_splits = 0;
    uint64_t intra_slice_tasks = 0;
  };

  /// `pool` (borrowed, may be null) enables parallel batch propagation:
  /// every rule's state (alpha memories, instantiations) is private to it,
  /// so each touched rule replays the whole batch as one worker task, with
  /// conflict-set sends buffered and merged in the sequential order.
  /// `split_min_rows` (0 disables) additionally forks a full search's
  /// first-CE scan into parallel slices when that alpha memory holds at
  /// least this many WMEs: slices run the pure join search into private row
  /// buffers, and emission (dedup + conflict-set sends) happens serially in
  /// slice-concatenation order — the sequential scan order — so observable
  /// behavior is unchanged.
  /// `metrics` / `tracer` (borrowed, may be null) hook the matcher into
  /// the observability layer: treat.* counters register as registry views
  /// and the parallel batch path emits per-rule rule_replay events.
  TreatMatcher(WorkingMemory* wm, ConflictSet* cs, ThreadPool* pool = nullptr,
               int split_min_rows = 0,
               obs::MetricRegistry* metrics = nullptr,
               obs::Tracer* tracer = nullptr);
  ~TreatMatcher() override;

  TreatMatcher(const TreatMatcher&) = delete;
  TreatMatcher& operator=(const TreatMatcher&) = delete;

  Status AddRule(const CompiledRule* rule) override;
  Status RemoveRule(const CompiledRule* rule) override;
  ConflictSet& conflict_set() override { return *cs_; }

  void OnAdd(const WmePtr& wme) override;
  void OnRemove(const WmePtr& wme) override;
  /// Native batched propagation: replays the changes in staging order so
  /// seeded searches see exactly the per-WME alpha states, but defers the
  /// negated-CE unblocking re-search to one SearchAll per touched rule at
  /// batch end (final instantiation set is order-insensitive: every row the
  /// intermediate re-searches could emit is either found by the final one
  /// or was deleted by a later change anyway).
  void OnBatch(const ChangeBatch& batch) override;

  size_t num_instantiations() const;
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  class TreatInst;
  class TreatAlpha;
  struct RuleState;

  /// Parameters of one recursive search: the optional seed constraint, the
  /// optional first-CE slice restriction, and the optional row buffer that
  /// defers emission (slice tasks buffer; the coordinator emits).
  struct SearchCtx {
    int seed_ce = -1;
    WmePtr seed;
    int slice_ce = -1;
    size_t slice_lo = 0;
    size_t slice_hi = 0;
    std::vector<Row>* out = nullptr;
  };

  void ApplyAdd(const WmePtr& wme);
  /// `defer_unblock`: flag the rule for a batch-end SearchAll instead of
  /// re-searching immediately on a negated-CE removal.
  void ApplyRemove(const WmePtr& wme, bool defer_unblock);
  /// Grouped form of ApplyRemove for a run of consecutive removals
  /// `[begin, end)` in a batch: one stable alpha compaction and one
  /// instantiation sweep per rule for the whole run. Final rule state,
  /// surviving alpha order, and the coalesced_researches count are
  /// identical to removing the WMEs one at a time with defer_unblock.
  void ApplyRemoveRun(const std::vector<WmChange>& changes, size_t begin,
                      size_t end);
  /// Single-rule bodies of ApplyAdd/ApplyRemove. Counters go through
  /// `stats` so concurrent per-rule replays can accumulate privately.
  void ApplyAddToRule(RuleState* rs, const WmePtr& wme, Stats* stats);
  void ApplyRemoveFromRule(RuleState* rs, const WmePtr& wme,
                           bool defer_unblock, Stats* stats);
  /// One task of the parallel batch path: replays every change against one
  /// rule, buffering conflict-set ops into `delta` with per-change stamps.
  void ReplayRule(RuleState* rs, const ChangeBatch& batch,
                  ConflictSet::Delta* delta, Stats* stats);
  void SearchFromSeed(RuleState* rs, int seed_ce, const WmePtr& seed,
                      Stats* stats);
  void SearchAll(RuleState* rs, Stats* stats);
  void ExtendRow(RuleState* rs, size_t ce_index, Row* row,
                 const SearchCtx& ctx);
  bool BlockedByNegated(const RuleState& rs, const Row& row) const;
  void EmitInst(RuleState* rs, const Row& row);
  void DropInstsContaining(RuleState* rs, const Wme& wme);
  void DropInstsContainingAny(RuleState* rs,
                              const std::unordered_set<TimeTag>& victims);

  size_t AlphaMemoryBytes() const;

  WorkingMemory* wm_;
  ConflictSet* cs_;
  ThreadPool* pool_;
  int split_min_rows_;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  obs::Tracer* tracer_ = nullptr;           // borrowed; may be null
  obs::Timer* match_timer_ = nullptr;       // non-null when timing enabled
  std::vector<std::unique_ptr<RuleState>> rules_;
  Stats stats_;
};

}  // namespace sorel

#endif  // SOREL_TREAT_TREAT_H_
