#include "wm/working_memory.h"

#include <algorithm>
#include <string>

#include "wm/wme.h"
#include "wm/wme_pool.h"

namespace sorel {

std::string Wme::ToString(const SymbolTable& symbols,
                          const ClassSchema& schema) const {
  std::string out = std::to_string(time_tag_) + ": (";
  out += symbols.Name(cls_);
  for (int i = 0; i < num_fields(); ++i) {
    if (field(i).is_nil()) continue;
    out += " ^";
    out += symbols.Name(schema.attrs()[static_cast<size_t>(i)]);
    out += " ";
    out += field(i).ToString(symbols);
  }
  out += ")";
  return out;
}

WorkingMemory::WorkingMemory(const SchemaRegistry* schemas,
                             const SymbolTable* symbols,
                             obs::MetricRegistry* metrics, obs::Tracer* tracer)
    : schemas_(schemas), symbols_(symbols), metrics_(metrics),
      tracer_(tracer), wme_pool_(std::make_shared<WmeBlockPool>()) {
  if (metrics_ == nullptr) return;
  metrics_->RegisterCounter(this, "wm.wme_pool_hits", [this] {
    return wme_pool_->stats().pool_hits;
  });
  metrics_->RegisterCounter(
      this, "wm.wme_slabs", [this] { return wme_pool_->stats().slabs; });
  metrics_->RegisterGauge(this, "wm.arena_bytes", [this] {
    return static_cast<double>(wme_pool_->bytes_held());
  });
  metrics_->RegisterCounter(this, "wm.adds", [this] { return stats_.adds; });
  metrics_->RegisterCounter(this, "wm.removes",
                            [this] { return stats_.removes; });
  metrics_->RegisterCounter(this, "wm.direct_events",
                            [this] { return stats_.direct_events; });
  metrics_->RegisterCounter(this, "wm.batches",
                            [this] { return stats_.batches; });
  metrics_->RegisterCounter(this, "wm.batched_changes",
                            [this] { return stats_.batched_changes; });
  metrics_->RegisterCounter(this, "wm.rollbacks",
                            [this] { return stats_.rollbacks; });
  metrics_->RegisterCounter(this, "wm.changes_rolled_back",
                            [this] { return stats_.changes_rolled_back; });
  metrics_->RegisterGauge(this, "wm.size",
                          [this] { return static_cast<double>(live_.size()); });
  metrics_->RegisterReset(this, [this] {
    ResetStats();
    wme_pool_->ResetStats();
  });
}

WmePtr WorkingMemory::AllocateWme(SymbolId cls, std::vector<Value> fields,
                                  TimeTag tag) {
  // allocate_shared puts the Wme and its control block in one pool block;
  // the stored allocator copy keeps the pool alive until the block frees
  // itself back (possibly from a match worker thread — the pool's free
  // list is lock-free for exactly that push).
  return std::allocate_shared<Wme>(WmeSlabAllocator<Wme>(wme_pool_), cls,
                                   std::move(fields), tag);
}

WorkingMemory::~WorkingMemory() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
}

void WorkingMemory::RemoveListener(Listener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

Result<WmePtr> WorkingMemory::Make(
    SymbolId cls, const std::vector<std::pair<SymbolId, Value>>& values) {
  const ClassSchema* schema = schemas_->Find(cls);
  if (schema == nullptr) {
    return Status::InvalidArgument("make: class '" +
                                   std::string(symbols_->Name(cls)) +
                                   "' was never literalized");
  }
  std::vector<Value> fields(static_cast<size_t>(schema->num_fields()));
  for (const auto& [attr, value] : values) {
    int field = schema->FieldOf(attr);
    if (field < 0) {
      return Status::InvalidArgument(
          "make: class '" + std::string(symbols_->Name(cls)) +
          "' has no attribute '" + std::string(symbols_->Name(attr)) + "'");
    }
    fields[static_cast<size_t>(field)] = value;
  }
  return MakeFromFields(cls, std::move(fields));
}

Result<WmePtr> WorkingMemory::MakeFromFields(SymbolId cls,
                                             std::vector<Value> fields) {
  const ClassSchema* schema = schemas_->Find(cls);
  if (schema == nullptr) {
    return Status::InvalidArgument("make: class '" +
                                   std::string(symbols_->Name(cls)) +
                                   "' was never literalized");
  }
  if (static_cast<int>(fields.size()) != schema->num_fields()) {
    return Status::InvalidArgument("make: wrong field count for class '" +
                                   std::string(symbols_->Name(cls)) + "'");
  }
  WmePtr wme = AllocateWme(cls, std::move(fields), next_tag_++);
  live_.emplace(wme->time_tag(), wme);
  NotifyAdd(wme, /*modify_pair=*/0);
  return wme;
}

Status WorkingMemory::Remove(TimeTag tag) {
  auto it = live_.find(tag);
  if (it == live_.end()) {
    return Status::NotFound("remove: no live WME with time tag " +
                            std::to_string(tag));
  }
  WmePtr wme = it->second;
  live_.erase(it);
  NotifyRemove(wme, /*modify_pair=*/0);
  return Status::Ok();
}

Result<WmePtr> WorkingMemory::Replace(TimeTag tag, std::vector<Value> fields) {
  auto it = live_.find(tag);
  if (it == live_.end()) {
    return Status::NotFound("modify: no live WME with time tag " +
                            std::to_string(tag));
  }
  WmePtr old = it->second;
  const ClassSchema* schema = schemas_->Find(old->cls());
  if (static_cast<int>(fields.size()) != schema->num_fields()) {
    return Status::InvalidArgument("modify: wrong field count for class '" +
                                   std::string(symbols_->Name(old->cls())) +
                                   "'");
  }
  WmePtr wme = AllocateWme(old->cls(), std::move(fields), next_tag_++);
  live_.erase(it);
  NotifyRemove(old, /*modify_pair=*/wme->time_tag());
  live_.emplace(wme->time_tag(), wme);
  NotifyAdd(wme, /*modify_pair=*/tag);
  return wme;
}

void WorkingMemory::NotifyAdd(const WmePtr& wme, TimeTag modify_pair) {
  ++stats_.adds;
  if (InTransaction()) {
    staged_.push_back({wme, /*added=*/true, modify_pair});
    return;
  }
  ++stats_.direct_events;
  for (Listener* l : listeners_) l->OnAdd(wme);
}

void WorkingMemory::NotifyRemove(const WmePtr& wme, TimeTag modify_pair) {
  ++stats_.removes;
  if (InTransaction()) {
    // Staged even when the add is in the same transaction: the staged
    // sequence doubles as the undo log, and a rollback to a savepoint
    // between the add and this remove must restore the WME. Never-
    // observable pairs are netted out at top-level commit instead.
    staged_.push_back({wme, /*added=*/false, modify_pair});
    return;
  }
  ++stats_.direct_events;
  for (Listener* l : listeners_) l->OnRemove(wme);
}

void WorkingMemory::Begin() { savepoints_.push_back({staged_.size(), next_tag_}); }

Status WorkingMemory::Commit() {
  if (savepoints_.empty()) {
    return Status::InvalidArgument("commit: no open transaction");
  }
  savepoints_.pop_back();
  if (!savepoints_.empty()) return Status::Ok();  // nested: defer delivery
  if (staged_.empty()) return Status::Ok();
  ChangeBatch batch;
  batch.changes.reserve(staged_.size());
  // A WME both made and removed inside the transaction was never
  // observable: net the pair out of the delivered batch.
  std::vector<TimeTag> netted;
  for (WmChange& c : staged_) {
    if (!c.added) {
      bool cancelled = false;
      for (size_t i = batch.changes.size(); i-- > 0;) {
        WmChange& add = batch.changes[i];
        if (add.added && add.wme->time_tag() == c.wme->time_tag()) {
          netted.push_back(add.wme->time_tag());
          batch.changes.erase(batch.changes.begin() +
                              static_cast<ptrdiff_t>(i));
          cancelled = true;
          break;
        }
      }
      if (cancelled) continue;
    }
    batch.changes.push_back(std::move(c));
  }
  staged_.clear();
  if (batch.changes.empty()) return Status::Ok();
  // A netted WME's modify partner survives as a plain add/remove.
  for (WmChange& c : batch.changes) {
    for (TimeTag dead : netted) {
      if (c.modify_pair == dead) c.modify_pair = 0;
    }
  }
  ++stats_.batches;
  stats_.batched_changes += batch.changes.size();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Emit(obs::TraceEvent("batch_commit")
                      .Num("changes", batch.changes.size()));
  }
  for (Listener* l : listeners_) l->OnBatch(batch);
  return Status::Ok();
}

void WorkingMemory::Rollback() {
  if (savepoints_.empty()) return;
  Savepoint sp = savepoints_.back();
  savepoints_.pop_back();
  ++stats_.rollbacks;
  stats_.changes_rolled_back += staged_.size() - sp.mark;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Emit(
        obs::TraceEvent("rollback").Num("changes", staged_.size() - sp.mark));
  }
  // Undo newest-first so interleaved modify pairs restore cleanly.
  while (staged_.size() > sp.mark) {
    const WmChange& c = staged_.back();
    if (c.added) {
      live_.erase(c.wme->time_tag());
    } else {
      live_.emplace(c.wme->time_tag(), c.wme);
    }
    staged_.pop_back();
  }
  // Every tag handed out since Begin belonged to a now-undone add, so the
  // counter can rewind: the aborted transaction leaves no trace at all.
  next_tag_ = sp.next_tag;
}

Status WorkingMemory::ApplyReplay(const std::vector<ReplayChange>& changes,
                                  TimeTag next_tag_after, bool transactional) {
  if (transactional && InTransaction()) {
    return Status::InvalidArgument(
        "replay: transactional replay inside an open transaction");
  }
  if (transactional) Begin();
  auto fail = [this, transactional](Status status) {
    if (transactional) Rollback();
    return status;
  };
  for (const ReplayChange& c : changes) {
    if (c.added) {
      const ClassSchema* schema = schemas_->Find(c.cls);
      if (schema == nullptr) {
        return fail(Status::InvalidArgument(
            "replay: class '" + std::string(symbols_->Name(c.cls)) +
            "' was never literalized"));
      }
      if (static_cast<int>(c.fields.size()) != schema->num_fields()) {
        return fail(Status::InvalidArgument(
            "replay: wrong field count for class '" +
            std::string(symbols_->Name(c.cls)) + "'"));
      }
      if (live_.count(c.tag) != 0) {
        return fail(Status::InvalidArgument(
            "replay: time tag " + std::to_string(c.tag) +
            " is already live"));
      }
      // Route through the counter so the allocation and stats paths are
      // the live Make path exactly; the recorded tag overrides whatever
      // the counter would have said (netting gaps, see header comment).
      next_tag_ = c.tag;
      WmePtr wme = AllocateWme(c.cls, c.fields, next_tag_++);
      live_.emplace(wme->time_tag(), wme);
      NotifyAdd(wme, c.modify_pair);
    } else {
      auto it = live_.find(c.tag);
      if (it == live_.end()) {
        return fail(Status::NotFound(
            "replay: no live WME with time tag " + std::to_string(c.tag)));
      }
      WmePtr wme = it->second;
      live_.erase(it);
      NotifyRemove(wme, c.modify_pair);
    }
  }
  next_tag_ = next_tag_after;
  if (transactional) return Commit();
  return Status::Ok();
}

WmePtr WorkingMemory::Find(TimeTag tag) const {
  auto it = live_.find(tag);
  return it == live_.end() ? nullptr : it->second;
}

std::vector<WmePtr> WorkingMemory::Snapshot() const {
  std::vector<WmePtr> out;
  out.reserve(live_.size());
  for (const auto& [tag, wme] : live_) out.push_back(wme);
  return out;
}

}  // namespace sorel
