#include "rete/token.h"

#include <algorithm>

namespace sorel {

const Wme* WmeAt(const Token* t, int pos) {
  // Count the wme-bearing depth of the chain, then walk to `pos`.
  int depth = 0;
  for (const Token* cur = t; cur != nullptr; cur = cur->parent) {
    if (cur->wme != nullptr) ++depth;
  }
  if (pos < 0 || pos >= depth) return nullptr;
  int remaining = depth - 1 - pos;  // wme-bearing ancestors to skip
  for (const Token* cur = t; cur != nullptr; cur = cur->parent) {
    if (cur->wme == nullptr) continue;
    if (remaining == 0) return cur->wme.get();
    --remaining;
  }
  return nullptr;
}

void TokenRow(const Token* t, Row* out) {
  int depth = 0;
  for (const Token* cur = t; cur != nullptr; cur = cur->parent) {
    if (cur->wme != nullptr) ++depth;
  }
  out->assign(static_cast<size_t>(depth), nullptr);
  int i = depth - 1;
  for (const Token* cur = t; cur != nullptr; cur = cur->parent) {
    if (cur->wme == nullptr) continue;
    (*out)[static_cast<size_t>(i--)] = cur->wme;
  }
}

Token* TokenArena::Alloc(bool* pool_hit, bool* new_slab) {
  *new_slab = false;
  if (!free_.empty()) {
    Token* t = free_.back();
    free_.pop_back();
    *pool_hit = true;
    return t;
  }
  *pool_hit = false;
  if (slabs_.empty() || used_in_last_ == kSlabSize) {
    slabs_.push_back(std::make_unique<Token[]>(kSlabSize));
    used_in_last_ = 0;
    *new_slab = true;
  }
  Token* t = &slabs_.back()[used_in_last_];
  t->self = static_cast<TokenId>((slabs_.size() - 1) * kSlabSize +
                                 used_in_last_);
  ++used_in_last_;
  return t;
}

size_t JoinKeyHash::operator()(const JoinKey& key) const {
  size_t h = 0x9e3779b97f4a7c15ull;
  for (const Value& v : key.values) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

void TokenIndex::Insert(const JoinKey& key, TokenId t) {
  buckets_[key].push_back(t);
}

void TokenIndex::Remove(const JoinKey& key, TokenId t) {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  auto& bucket = it->second;
  bucket.erase(std::remove(bucket.begin(), bucket.end(), t), bucket.end());
  if (bucket.empty()) buckets_.erase(it);
}

const std::vector<TokenId>* TokenIndex::Find(const JoinKey& key) const {
  auto it = buckets_.find(key);
  return it == buckets_.end() ? nullptr : &it->second;
}

}  // namespace sorel
