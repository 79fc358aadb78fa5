#ifndef SOREL_WM_WME_POOL_H_
#define SOREL_WM_WME_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace sorel {

/// Fixed-size-block slab pool backing WME storage. WMEs are created with
/// `std::allocate_shared`, so every block is one combined shared_ptr
/// control block + `Wme` payload; the first allocation's size bootstraps
/// the pool's block size and anything else falls through to plain
/// operator new.
///
/// Threading: allocation happens only on the WM mutation thread, but the
/// *last* reference to a removed WME is often dropped inside a parallel
/// match replay, so deallocation can race in from worker threads. The
/// free list is therefore a Treiber stack — lock-free pushes from any
/// thread, pops from the single allocating thread (single-popper, so the
/// classic ABA hazard cannot arise: a node this thread is mid-pop on
/// cannot be re-allocated and re-pushed by anyone else).
///
/// Lifetime: WorkingMemory holds the pool through a shared_ptr, and every
/// control block stores a `WmeSlabAllocator` copy holding another
/// reference — so the pool outlives every WME it carved, even WMEs that
/// outlive the WorkingMemory itself (snapshots, instantiation rows).
class WmeBlockPool {
 public:
  struct Stats {
    uint64_t pool_hits = 0;  // allocations served from the free list
    uint64_t slabs = 0;      // slabs carved since the last reset
  };

  explicit WmeBlockPool(size_t blocks_per_slab = 512)
      : blocks_per_slab_(blocks_per_slab) {}

  WmeBlockPool(const WmeBlockPool&) = delete;
  WmeBlockPool& operator=(const WmeBlockPool&) = delete;

  void* Alloc(size_t size) {
    if (block_size_ == 0) {
      block_size_ = RoundUp(size);
    } else if (RoundUp(size) != block_size_) {
      return ::operator new(size);
    }
    FreeNode* head = free_head_.load(std::memory_order_acquire);
    while (head != nullptr &&
           !free_head_.compare_exchange_weak(head, head->next,
                                             std::memory_order_acquire,
                                             std::memory_order_acquire)) {
    }
    if (head != nullptr) {
      ++stats_.pool_hits;
      return head;
    }
    if (slabs_.empty() || used_in_last_ == blocks_per_slab_) {
      slabs_.push_back(std::make_unique<char[]>(block_size_ *
                                                blocks_per_slab_));
      used_in_last_ = 0;
      ++stats_.slabs;
    }
    return slabs_.back().get() + block_size_ * used_in_last_++;
  }

  void Free(void* p, size_t size) {
    if (RoundUp(size) != block_size_) {
      ::operator delete(p);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    FreeNode* head = free_head_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!free_head_.compare_exchange_weak(head, node,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
  }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

  /// Bytes held by the carved slabs (free-listed blocks included — they
  /// belong to a slab). Read from the allocating thread.
  size_t bytes_held() const {
    return slabs_.size() * block_size_ * blocks_per_slab_;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  /// Blocks must hold a FreeNode when recycled and keep every payload
  /// suitably aligned within a max_align_t-aligned slab.
  static size_t RoundUp(size_t size) {
    size_t a = alignof(std::max_align_t);
    size_t n = size < sizeof(FreeNode) ? sizeof(FreeNode) : size;
    return (n + a - 1) / a * a;
  }

  const size_t blocks_per_slab_;
  size_t block_size_ = 0;  // set by the first allocation
  std::vector<std::unique_ptr<char[]>> slabs_;
  size_t used_in_last_ = 0;
  std::atomic<FreeNode*> free_head_{nullptr};
  Stats stats_;  // mutated on the allocating thread only
};

/// std allocator adapter handing allocate_shared's single-object blocks to
/// a WmeBlockPool. Copies (including the one stored in each control block)
/// share the pool and keep it alive.
template <typename T>
class WmeSlabAllocator {
 public:
  using value_type = T;

  explicit WmeSlabAllocator(std::shared_ptr<WmeBlockPool> pool)
      : pool_(std::move(pool)) {}

  template <typename U>
  WmeSlabAllocator(const WmeSlabAllocator<U>& other) : pool_(other.pool_) {}

  T* allocate(size_t n) {
    if (n == 1) return static_cast<T*>(pool_->Alloc(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    if (n == 1) {
      pool_->Free(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const WmeSlabAllocator<U>& other) const {
    return pool_ == other.pool_;
  }

  // Public so the converting constructor can read across instantiations.
  std::shared_ptr<WmeBlockPool> pool_;
};

}  // namespace sorel

#endif  // SOREL_WM_WME_POOL_H_
