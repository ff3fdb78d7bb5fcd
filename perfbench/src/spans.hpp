// Span trees and self time.
//
// The traced pass collects the library's own spans and the benchmark's
// spans around each public call into one in-memory list. This file turns
// that flat list into a causal tree and computes each span's self time:
// its duration minus the part of its interval that its child spans cover.
//
// Parent rule: a span's parent is the innermost span of the SAME thread
// that encloses it (start and end are readings of one steady clock, so RAII
// nesting is exact). A task span that a thread pool ran for someone — a
// root on its own thread — is adopted by the innermost enclosing span of
// another thread that is its fan-out point, as named by (fan-out span,
// task span) pairs. Other threads' spans that merely overlap in time (a
// query blocked beside an analysis) are never adopted.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "llmprism/obs/trace_span.hpp"

namespace perfbench {

struct SpanNode {
  llmprism::obs::SpanRecord record;
  std::ptrdiff_t parent = -1;          ///< index into the tree, -1 = root
  std::vector<std::size_t> children;
  std::int64_t self_us = 0;

  [[nodiscard]] std::int64_t start() const { return record.start_us; }
  [[nodiscard]] std::int64_t end() const {
    return record.start_us + record.dur_us;
  }
};

/// (fan-out span name, task span name).
using FanOutPoint = std::pair<std::string_view, std::string_view>;

/// Build the tree (nodes sorted by start, longer first on ties) and fill
/// every node's self time.
[[nodiscard]] std::vector<SpanNode> build_span_tree(
    std::vector<llmprism::obs::SpanRecord> spans,
    const std::vector<FanOutPoint>& fan_out);

/// Length of the union of [begin, end) intervals, clipped to [lo, hi).
[[nodiscard]] std::int64_t covered_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi);

/// Self time in microseconds summed per span name over the subtree rooted
/// at `root` (the root included).
[[nodiscard]] std::map<std::string, std::int64_t> subtree_self_by_name(
    const std::vector<SpanNode>& tree, std::size_t root);

}  // namespace perfbench
