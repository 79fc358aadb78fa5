#ifndef SOREL_WM_WORKING_MEMORY_H_
#define SOREL_WM_WORKING_MEMORY_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/symbol_table.h"
#include "base/value.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wm/change_batch.h"
#include "wm/schema.h"
#include "wm/wme.h"

namespace sorel {

/// One change of a recovered ChangeBatch, as read back from a server WAL
/// record (src/server/wal.h). Unlike a live `WmChange` it carries the
/// original time tag explicitly: commit-time netting can leave gaps in a
/// batch's tag sequence, so replay must not let the counter re-derive them.
struct ReplayChange {
  bool added = true;
  TimeTag tag = 0;
  SymbolId cls = kInvalidSymbol;     // adds only
  std::vector<Value> fields;         // adds only
  TimeTag modify_pair = 0;
};

/// The working memory: the set of live WMEs, indexed by time tag.
///
/// Matchers (Rete, TREAT, DIPS) subscribe as `Listener`s. Outside a
/// transaction every add/remove is delivered synchronously through
/// `OnAdd`/`OnRemove`, which is what drives incremental matching. Inside a
/// `Begin`/`Commit` transaction, changes apply to the live set immediately
/// (reads see them) but listener delivery is deferred: the whole staged
/// sequence arrives as one `OnBatch` at top-level commit, and `Rollback`
/// undoes the staged changes without listeners ever observing them — the
/// all-or-nothing semantics §8.1's DIPS transactions call for.
class WorkingMemory {
 public:
  /// Receives WM change notifications. Listeners must not mutate WM from
  /// inside a callback (the engine serializes all mutations).
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void OnAdd(const WmePtr& wme) = 0;
    virtual void OnRemove(const WmePtr& wme) = 0;
    /// A committed transaction's changes, in staging order. The default
    /// adapter replays them through the per-WME callbacks, so listeners
    /// that never heard of batches keep working; matchers override this
    /// with a native batched path.
    virtual void OnBatch(const ChangeBatch& batch) {
      for (const WmChange& c : batch.changes) {
        if (c.added) {
          OnAdd(c.wme);
        } else {
          OnRemove(c.wme);
        }
      }
    }
  };

  /// Counters for the propagation boundary (see Engine::match_stats()).
  struct Stats {
    uint64_t adds = 0;
    uint64_t removes = 0;
    /// Per-WME notifications delivered outside transactions (each one is a
    /// full propagation wave through every listener).
    uint64_t direct_events = 0;
    /// OnBatch deliveries (one propagation wave per committed transaction).
    uint64_t batches = 0;
    /// Changes delivered inside those batches.
    uint64_t batched_changes = 0;
    uint64_t rollbacks = 0;
    uint64_t changes_rolled_back = 0;
    /// WME slab-pool recycling. Only populated in Engine::match_stats()
    /// snapshots — the live numbers belong to the pool, not this struct.
    uint64_t wme_pool_hits = 0;
    uint64_t wme_slabs = 0;
  };

  /// `metrics` / `tracer` (borrowed, may be null) hook this WM into the
  /// observability layer: the wm.* counters register as registry views and
  /// top-level commits / rollbacks emit batch_commit / rollback events.
  /// WMEs and their shared_ptr control blocks are allocated from a
  /// block-recycling slab pool.
  WorkingMemory(const SchemaRegistry* schemas, const SymbolTable* symbols,
                obs::MetricRegistry* metrics = nullptr,
                obs::Tracer* tracer = nullptr);
  ~WorkingMemory();

  WorkingMemory(const WorkingMemory&) = delete;
  WorkingMemory& operator=(const WorkingMemory&) = delete;

  void AddListener(Listener* listener) { listeners_.push_back(listener); }
  void RemoveListener(Listener* listener);

  /// Creates a WME of class `cls` with the given attribute values
  /// (unmentioned attributes are nil). Errors on unknown class/attribute.
  Result<WmePtr> Make(SymbolId cls,
                      const std::vector<std::pair<SymbolId, Value>>& values);

  /// Creates a WME with a full field vector (sized to the class schema).
  Result<WmePtr> MakeFromFields(SymbolId cls, std::vector<Value> fields);

  /// Removes the WME with `tag`. Errors if no such live WME.
  Status Remove(TimeTag tag);

  /// OPS5 modify: removes `tag` and re-makes its class with `fields` under a
  /// fresh time tag, staging the two halves as a linked delta pair when
  /// inside a transaction. Returns the new WME.
  Result<WmePtr> Replace(TimeTag tag, std::vector<Value> fields);

  // --- transactions ---
  /// Opens a (possibly nested) transaction. Changes staged inside are
  /// visible to reads immediately but withheld from listeners until the
  /// outermost Commit.
  void Begin();
  /// Closes the innermost transaction. At top level, delivers all staged
  /// changes to every listener as one ChangeBatch. Errors if no transaction
  /// is open.
  Status Commit();
  /// Aborts the innermost transaction: undoes its staged changes (live set
  /// and time-tag counter restored) and discards them. Listeners never
  /// observe them.
  void Rollback();
  bool InTransaction() const { return !savepoints_.empty(); }
  size_t transaction_depth() const { return savepoints_.size(); }

  // --- WAL recovery (src/server) ---
  /// Re-applies a recovered change sequence exactly as recorded: adds
  /// re-make their WMEs under the original time tags, removes retract by
  /// tag, and every change keeps its recorded modify pairing. With
  /// `transactional`, the whole sequence is wrapped in Begin/Commit and
  /// reaches listeners as one ChangeBatch — the normal batch path — and
  /// otherwise each change is delivered as a direct per-WME event, exactly
  /// as the live run delivered it. `next_tag_after` restores the tag
  /// counter to its recorded post-commit value (netting can make it run
  /// ahead of the last add in the batch). Errors if `transactional` is
  /// requested inside an open transaction, on a tag collision with a live
  /// WME, or on a schema mismatch; a failed transactional replay rolls
  /// back.
  Status ApplyReplay(const std::vector<ReplayChange>& changes,
                     TimeTag next_tag_after, bool transactional);

  /// Live WME with `tag`, or nullptr.
  WmePtr Find(TimeTag tag) const;

  /// Live WMEs in time-tag order.
  std::vector<WmePtr> Snapshot() const;

  size_t size() const { return live_.size(); }
  /// Next time tag that will be assigned (monotone counter, never reused).
  TimeTag next_time_tag() const { return next_tag_; }

  const SchemaRegistry& schemas() const { return *schemas_; }
  const SymbolTable& symbols() const { return *symbols_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  void NotifyAdd(const WmePtr& wme, TimeTag modify_pair);
  void NotifyRemove(const WmePtr& wme, TimeTag modify_pair);
  /// WME construction through the slab pool.
  WmePtr AllocateWme(SymbolId cls, std::vector<Value> fields, TimeTag tag);

  const SchemaRegistry* schemas_;
  const SymbolTable* symbols_;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  obs::Tracer* tracer_ = nullptr;           // borrowed; may be null
  std::map<TimeTag, WmePtr> live_;
  std::vector<Listener*> listeners_;
  TimeTag next_tag_ = 1;
  /// Staged changes of the open transaction stack (all depths, in order);
  /// doubles as the rollback undo log.
  std::vector<WmChange> staged_;
  struct Savepoint {
    size_t mark;       // staged_ size at Begin
    TimeTag next_tag;  // tag counter at Begin, restored on Rollback
  };
  /// One entry per open transaction.
  std::vector<Savepoint> savepoints_;
  Stats stats_;
  /// Slab pool for WME blocks. shared_ptr: every WME's control block
  /// co-owns the pool, so WMEs that outlive this WorkingMemory still free
  /// into live storage.
  std::shared_ptr<class WmeBlockPool> wme_pool_;
};

}  // namespace sorel

#endif  // SOREL_WM_WORKING_MEMORY_H_
