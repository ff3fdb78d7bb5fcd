// Open-loop accounting for the streaming workload.
//
// Frames are due on a fixed schedule set by a nominal flow rate, whatever
// the daemon is doing, and every latency is timed from the due time — so a
// stall also charges the wait it imposes on every frame queued behind it.
// The generator itself must keep to the schedule: its own lateness (time
// past due that is NOT explained by waiting for the daemon's reply to the
// previous frame) is reported, and a run whose generator fell behind is
// invalid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Due offsets in seconds from the schedule start: item k is due once the
/// flows of items 0..k-1 have gone out at `flows_per_s`.
[[nodiscard]] std::vector<double> due_offsets(
    const std::vector<std::uint64_t>& flows, double flows_per_s);

/// One sent item, all on one clock (seconds): when it was due, when the
/// send started, and when its reply arrived.
struct SendTiming {
  double due = 0;
  double start = 0;
  double reply = 0;
};

/// The generator's own lateness on an item: start - due, less the part of
/// it spent waiting for the previous item's reply (`prev_reply`; pass
/// -infinity for the first item). Never negative.
[[nodiscard]] double generator_lag(double due, double start,
                                   double prev_reply);

struct GeneratorReport {
  double lag_p99_ms = 0;      ///< p99 of generator_lag, milliseconds
  std::size_t late_sends = 0; ///< items whose generator lag > late_after_s
  bool fell_behind = false;   ///< late_sends above the allowed fraction
};

/// Summarize one sender's items (in send order). `late_after_s` marks a
/// send late; more than `max_late_fraction` late sends invalidates the run.
[[nodiscard]] GeneratorReport summarize_generator(
    const std::vector<SendTiming>& sends, double late_after_s,
    double max_late_fraction);

/// Detection latency per window. `window_due` holds, in visibility order,
/// the due time of the frame that closes each window; `observations` are
/// (time, visible-window count) readings in time order. A window counts as
/// visible at the first reading whose count covers it. Windows never seen
/// are left out (the caller counts them as failed).
[[nodiscard]] std::vector<double> detection_latencies(
    const std::vector<double>& window_due,
    const std::vector<std::pair<double, std::uint64_t>>& observations);

}  // namespace perfbench
