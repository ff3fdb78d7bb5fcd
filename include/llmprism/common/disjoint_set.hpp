// Disjoint-set (union-find) data structure.
//
// This is the core of Alg. 1 (LLM training-job recognition): every network
// flow merges the sets containing its source and destination GPU, so after a
// pass over the trace each set is one cross-machine communication cluster.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace llmprism {

/// Union-find over dense indices [0, size) with union-by-size and path
/// compression (amortized near-O(1) per operation).
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t size)
      : parent_(size), size_(size, 1), num_sets_(size) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  [[nodiscard]] std::size_t size() const { return parent_.size(); }
  [[nodiscard]] std::size_t num_sets() const { return num_sets_; }

  /// Append a new singleton element; returns its index (the old size()).
  std::size_t add() {
    const std::size_t x = parent_.size();
    parent_.push_back(x);
    size_.push_back(1);
    ++num_sets_;
    return x;
  }

  /// Representative of the set containing `x` (with path compression).
  [[nodiscard]] std::size_t find(std::size_t x) {
    check(x);
    std::size_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      const std::size_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  /// Merge the sets containing `a` and `b`; returns true if they were
  /// previously distinct.
  bool unite(std::size_t a, std::size_t b) {
    std::size_t ra = find(a);
    std::size_t rb = find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --num_sets_;
    return true;
  }

  [[nodiscard]] bool same_set(std::size_t a, std::size_t b) {
    return find(a) == find(b);
  }

  /// Number of elements in the set containing `x`.
  [[nodiscard]] std::size_t set_size(std::size_t x) { return size_[find(x)]; }

  /// All sets as vectors of member indices. Singleton sets are included iff
  /// `include_singletons`. Members within each set are in ascending order.
  [[nodiscard]] std::vector<std::vector<std::size_t>> groups(
      bool include_singletons = false) {
    std::vector<std::vector<std::size_t>> by_root(parent_.size());
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      by_root[find(i)].push_back(i);
    }
    std::vector<std::vector<std::size_t>> out;
    for (auto& g : by_root) {
      if (g.size() > 1 || (include_singletons && g.size() == 1)) {
        out.push_back(std::move(g));
      }
    }
    return out;
  }

 private:
  void check(std::size_t x) const {
    if (x >= parent_.size()) {
      throw std::out_of_range("DisjointSet: index out of range");
    }
  }

  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t num_sets_;
};

}  // namespace llmprism
