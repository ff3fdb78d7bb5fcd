#include "spans.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

using llmprism::obs::SpanRecord;

std::int64_t covered_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, cursor);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered;
}

std::vector<SpanNode> build_span_tree(std::vector<SpanRecord> spans,
                                      const std::vector<FanOutPoint>& fan_out) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  std::vector<SpanNode> tree(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) tree[i].record = spans[i];

  auto encloses = [](const SpanNode& outer, const SpanNode& inner) {
    return outer.start() <= inner.start() && outer.end() >= inner.end();
  };

  // Same-thread nesting: one stack of open spans per thread. Each thread
  // also keeps its spans in start order for the cross-thread lookup.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> stacks;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    std::vector<std::size_t>& stack = stacks[tree[i].record.tid];
    while (!stack.empty() && !encloses(tree[stack.back()], tree[i])) {
      stack.pop_back();
    }
    if (!stack.empty()) tree[i].parent = static_cast<std::ptrdiff_t>(stack.back());
    stack.push_back(i);
    by_thread[tree[i].record.tid].push_back(i);
  }

  auto adopts = [&](const SpanNode& parent, const SpanNode& task) {
    return std::find(fan_out.begin(), fan_out.end(),
                     FanOutPoint(parent.record.name, task.record.name)) !=
           fan_out.end();
  };
  // Cross-thread adoption of thread roots: on every other thread, take the
  // last span that starts no later than the root and walk up its ancestors
  // to the first fan-out span enclosing the root; keep the innermost.
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (tree[i].parent >= 0) continue;
    std::ptrdiff_t best = -1;
    for (const auto& [tid, order] : by_thread) {
      if (tid == tree[i].record.tid) continue;
      const auto it = std::upper_bound(
          order.begin(), order.end(), tree[i].start(),
          [&](std::int64_t t, std::size_t k) { return t < tree[k].start(); });
      if (it == order.begin()) continue;
      std::ptrdiff_t k = static_cast<std::ptrdiff_t>(*(it - 1));
      while (k >= 0 && !(adopts(tree[static_cast<std::size_t>(k)], tree[i]) &&
                         encloses(tree[static_cast<std::size_t>(k)], tree[i]))) {
        k = tree[static_cast<std::size_t>(k)].parent;
      }
      if (k >= 0 && (best < 0 || tree[static_cast<std::size_t>(k)].record.dur_us <
                                     tree[static_cast<std::size_t>(best)].record.dur_us)) {
        best = k;
      }
    }
    tree[i].parent = best;
  }

  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (tree[i].parent >= 0) {
      tree[static_cast<std::size_t>(tree[i].parent)].children.push_back(i);
    }
  }
  for (SpanNode& node : tree) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    covered.reserve(node.children.size());
    for (const std::size_t c : node.children) {
      covered.emplace_back(tree[c].start(), tree[c].end());
    }
    node.self_us = std::max<std::int64_t>(
        0, node.record.dur_us - covered_length(std::move(covered), node.start(),
                                               node.end()));
  }
  return tree;
}

std::map<std::string, std::int64_t> subtree_self_by_name(
    const std::vector<SpanNode>& tree, std::size_t root) {
  std::map<std::string, std::int64_t> totals;
  std::vector<std::size_t> pending = {root};
  while (!pending.empty()) {
    const std::size_t k = pending.back();
    pending.pop_back();
    totals[tree[k].record.name] += tree[k].self_us;
    pending.insert(pending.end(), tree[k].children.begin(),
                   tree[k].children.end());
  }
  return totals;
}

}  // namespace perfbench
