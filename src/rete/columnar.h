#ifndef SOREL_RETE_COLUMNAR_H_
#define SOREL_RETE_COLUMNAR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "wm/wme.h"

namespace sorel {

/// Columnar (struct-of-arrays) backing store for an alpha memory: parallel
/// arrays indexed by row id. Rows are appended at the end and killed in
/// place (tombstoned); `Compact` squeezes the dead rows out once enough
/// accumulate and reports the old->new row mapping so hash indexes over row
/// ids can follow.
///
/// Invariants:
///  - live rows keep their relative (insertion) order forever — appends go
///    at the end and Compact is stable — so a scan over live rows visits
///    WMEs in insertion order;
///  - `wmes_[row]` is reset at Kill time, so a removed WME's block goes back
///    to the WME pool when the removal happens, not at the next compaction;
///  - `tags_[row]` survives the kill until compaction: removal runs and
///    replay-visibility checks identify rows by time tag alone.
class AlphaColumns {
 public:
  static constexpr uint32_t kNoRow = 0xffffffffu;

  /// Appends a live row; returns its row id.
  uint32_t Append(const WmePtr& w) {
    uint32_t row = static_cast<uint32_t>(tags_.size());
    row_of_.emplace(w->time_tag(), row);
    tags_.push_back(w->time_tag());
    wmes_.push_back(w);
    alive_.push_back(1);
    ++live_;
    return row;
  }

  /// Tombstones the row holding `tag` and drops its WME reference.
  /// Returns the row id, or kNoRow if the tag is not (or no longer) live.
  uint32_t Kill(TimeTag tag) {
    auto it = row_of_.find(tag);
    if (it == row_of_.end()) return kNoRow;
    uint32_t row = it->second;
    row_of_.erase(it);
    assert(alive_[row] != 0);
    alive_[row] = 0;
    wmes_[row].reset();
    --live_;
    return row;
  }

  /// Total rows including tombstones (the physical column length).
  size_t rows() const { return tags_.size(); }
  size_t live() const { return live_; }
  size_t dead() const { return tags_.size() - live_; }

  bool IsLive(uint32_t row) const { return alive_[row] != 0; }
  TimeTag Tag(uint32_t row) const { return tags_[row]; }
  const WmePtr& Ptr(uint32_t row) const { return wmes_[row]; }

  /// Whether enough tombstones have piled up to be worth a compaction
  /// pass: at least a slab's worth dead and at least half the rows.
  bool NeedsCompaction() const {
    size_t d = dead();
    return d >= 64 && d * 2 >= rows();
  }

  /// Squeezes out dead rows (stable). Fills `remap` with old-row -> new-row
  /// (kNoRow for dead rows) so the caller can rewrite its indexes. Must not
  /// run while any scan holds row ids.
  void Compact(std::vector<uint32_t>* remap);

  size_t MemoryBytes() const {
    return tags_.capacity() * sizeof(TimeTag) +
           wmes_.capacity() * sizeof(WmePtr) +
           alive_.capacity() * sizeof(uint8_t) +
           row_of_.size() * (sizeof(TimeTag) + sizeof(uint32_t));
  }

 private:
  std::vector<WmePtr> wmes_;    // null for dead rows
  std::vector<TimeTag> tags_;   // valid for dead rows until compaction
  std::vector<uint8_t> alive_;  // 1 = live, 0 = tombstone
  std::unordered_map<TimeTag, uint32_t> row_of_;  // live rows only
  size_t live_ = 0;
};

/// A read-only view over one alpha scan's worth of rows in an AlphaColumns
/// store: all rows, or an index bucket's row-id list. Join loops iterate
/// positions [0, size()) and use Live/Tag/Ptr.
class AlphaSpan {
 public:
  AlphaSpan() = default;
  AlphaSpan(const AlphaColumns* cols, const std::vector<uint32_t>* rows)
      : cols_(cols), rows_(rows) {}

  size_t size() const {
    if (cols_ == nullptr) return 0;
    return rows_ != nullptr ? rows_->size() : cols_->rows();
  }
  bool empty() const { return size() == 0; }

  bool Live(size_t i) const { return cols_->IsLive(Row(i)); }
  TimeTag Tag(size_t i) const { return cols_->Tag(Row(i)); }
  const WmePtr& Ptr(size_t i) const { return cols_->Ptr(Row(i)); }

 private:
  uint32_t Row(size_t i) const {
    return rows_ != nullptr ? (*rows_)[i] : static_cast<uint32_t>(i);
  }

  const AlphaColumns* cols_ = nullptr;
  const std::vector<uint32_t>* rows_ = nullptr;  // null = all rows
};

}  // namespace sorel

#endif  // SOREL_RETE_COLUMNAR_H_
