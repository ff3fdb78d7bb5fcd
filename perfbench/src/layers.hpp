// Per-layer accounting of the traced pass: which module each span belongs
// to, the catalogue of per-layer metrics, and registry counter deltas.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// The per-layer time metric a span's self time counts toward, named after
/// the module it runs in ("core.comm_type.self_ms", "flow.decode_ms", ...).
/// Spans the benchmark adds around public calls count toward the layer
/// they call; `bench.op` (the benchmark's own glue) toward "bench.self_ms".
[[nodiscard]] std::string_view self_time_metric(std::string_view span_name);

/// Every per-layer metric as (name, unit), in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalogue();

/// Set every catalogue metric the run did not produce to 0 (its layer
/// does not run on this workload) so a traced run always reports the
/// whole catalogue.
void fill_missing_layers(RunResult& result);

/// Values of the library's registry counters, for before/after deltas.
class CounterSnapshot {
 public:
  static CounterSnapshot take();
  [[nodiscard]] double delta(const CounterSnapshot& before,
                             const std::string& counter) const;

 private:
  std::map<std::string, std::uint64_t> values_;
};

/// Self time in ms per self_time_metric() over the subtree rooted at
/// `root`.
[[nodiscard]] std::map<std::string, double> layer_self_ms(
    const std::vector<SpanNode>& tree, std::size_t root);

/// Fan-out shape of one Prism::analyze span: the wall time its per-job
/// tasks cover, the rest of its wall, and job busy / (threads x fan-out).
struct FanOut {
  double fanout_ms = 0;
  double serial_ms = 0;
  double efficiency = 0;
};
[[nodiscard]] FanOut fan_out_of(const std::vector<SpanNode>& tree,
                                std::size_t analyze, std::size_t threads);

/// Registry-counter layer metrics over one delta: counts and ratios of
/// recognition, routing, comm-type, BOCD, diagnosis, attribution, flow.
void add_counter_layers(std::map<std::string, double>& out,
                        const CounterSnapshot& before,
                        const CounterSnapshot& after);

}  // namespace perfbench
