#ifndef SOREL_RETE_TOKEN_H_
#define SOREL_RETE_TOKEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/value.h"
#include "rete/instantiation.h"
#include "wm/wme.h"

namespace sorel {

class BetaNode;

/// Index of a token within its shard's TokenArena. Output/child/anchor
/// containers store these 32-bit ids instead of `Token*` — half the entry
/// size, and compaction of those containers moves ints, not pointers. The
/// id is stable for the token's whole arena lifetime (free-list recycling
/// hands the same id back out).
using TokenId = uint32_t;
inline constexpr TokenId kNilToken = 0xffffffffu;

/// A partial match: a path of WMEs through the beta network. Join-node
/// tokens carry the WME matched at their level; negative-node tokens carry
/// none (`wme == nullptr`). Tokens form a tree via parent/children links so
/// that WME removal deletes whole subtrees (tree-based removal).
struct Token {
  Token* parent = nullptr;
  WmePtr wme;  // null for the root and for negative-node tokens
  BetaNode* owner = nullptr;
  /// This token's arena index, assigned once when the arena carves the
  /// token and preserved across free-list recycling. kNilToken only for
  /// tokens that live outside an arena (shard roots).
  TokenId self = kNilToken;
  std::vector<TokenId> children;
  /// Negative-node tokens: number of WMEs currently matching the negated CE.
  int blockers = 0;
  /// Time tag of the removal whose unblock cascade created this token, or 0.
  /// Such a token counted its blockers *after* that WME left the alpha
  /// memories, so the WME's own still-pending right-activations must skip
  /// it — decrementing a count that never included the WME would double-apply
  /// the removal (NegativeNode::RightActivate).
  TimeTag born_of_removal = 0;
  /// Negative-node tokens: whether currently propagated downstream.
  bool propagated = false;
  /// Set between the detach/notify step and the deferred container
  /// compaction (ReteMatcher::FlushDeletions); never set outside an
  /// in-progress deletion.
  bool dead = false;
  /// `children` holds dead entries pending compaction.
  bool children_dirty = false;
};

/// Slab allocator and free list for tokens. Each rule shard owns one arena:
/// tokens never migrate across shards and a shard is replayed by exactly
/// one task, so arenas need no locks — and recycling happens in the same
/// per-shard order under sequential and parallel propagation, which keeps
/// the `rete.token_pool_hits` counter bit-identical across thread counts.
/// Slabs are never returned individually: destroying the arena frees every
/// token it ever produced in one sweep (the structural form of the
/// `~ReteMatcher` bulk teardown).
class TokenArena {
 public:
  static constexpr size_t kSlabSize = 256;

  TokenArena() = default;
  TokenArena(const TokenArena&) = delete;
  TokenArena& operator=(const TokenArena&) = delete;

  /// Returns a default-initialized token. `*pool_hit` reports a free-list
  /// reuse, `*new_slab` that a fresh slab had to be allocated.
  Token* Alloc(bool* pool_hit, bool* new_slab);

  /// Returns a token to the free list. The caller must have reset its
  /// fields (in particular released `wme`); the memory stays owned by the
  /// arena either way. `self` survives recycling.
  void Recycle(Token* t) { free_.push_back(t); }

  /// Resolves an arena index back to its token.
  Token* At(TokenId id) const {
    return slabs_[id / kSlabSize].get() + (id % kSlabSize);
  }

  size_t free_size() const { return free_.size(); }
  size_t num_slabs() const { return slabs_.size(); }

  /// Bytes held by the slabs and the free list — the
  /// `rete.token_arena_bytes` gauge. Counts whole slabs (allocated
  /// capacity, not just carved tokens).
  size_t MemoryBytes() const {
    return free_.capacity() * sizeof(Token*) +
           slabs_.size() * kSlabSize * sizeof(Token);
  }

 private:
  std::vector<std::unique_ptr<Token[]>> slabs_;
  size_t used_in_last_ = 0;  // tokens handed out of slabs_.back()
  std::vector<Token*> free_;
};

/// WME matched at token position `pos` along the chain ending in `t`
/// (positions count positive CEs, 0-based). Returns nullptr if out of range.
const Wme* WmeAt(const Token* t, int pos);

/// Fills `out` with the chain's WMEs indexed by token position.
void TokenRow(const Token* t, Row* out);

/// Composite key of an indexed equality join: the values (in join-test
/// order) both sides must agree on. Equality and hashing follow `Value`
/// semantics — numerically equal int/float compare and hash alike — which
/// is exactly `EvalTestPred(kEq)`, so a bucket probe sees the same matches
/// a linear scan would.
struct JoinKey {
  std::vector<Value> values;

  friend bool operator==(const JoinKey& a, const JoinKey& b) {
    if (a.values.size() != b.values.size()) return false;
    for (size_t i = 0; i < a.values.size(); ++i) {
      if (!(a.values[i] == b.values[i])) return false;
    }
    return true;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& key) const;
};

/// Hash index over tokens keyed by `JoinKey`; buckets hold arena ids.
/// Buckets preserve insertion order (and removal keeps the remaining
/// order), so iterating one bucket visits tokens in the same relative
/// order a linear scan of the owning memory would — firing sequences stay
/// identical to the unindexed path.
class TokenIndex {
 public:
  void Insert(const JoinKey& key, TokenId t);
  void Remove(const JoinKey& key, TokenId t);
  /// The bucket for `key`, or nullptr if empty.
  const std::vector<TokenId>* Find(const JoinKey& key) const;
  size_t num_buckets() const { return buckets_.size(); }

 private:
  std::unordered_map<JoinKey, std::vector<TokenId>, JoinKeyHash> buckets_;
};

}  // namespace sorel

#endif  // SOREL_RETE_TOKEN_H_
