// Metric arithmetic shared by every workload, kept free of I/O and clocks so
// the self-test (`perfbench --self-test`) can check it on synthetic inputs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (the ceil(p% * n)-th smallest value); 0 for an
/// empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// The highest percentile, at most `wanted`, that leaves at least
/// `min_beyond` samples above it: min(wanted, 100 * (n - min_beyond) / n).
/// Returns 0 when n <= min_beyond (no tail percentile is supported).
[[nodiscard]] double supported_percentile(std::size_t n, double wanted,
                                          std::size_t min_beyond = 10);

/// One open-loop request, in microseconds on a common clock: when it was
/// due, when the sender actually started submitting it, and when its answer
/// arrived (negative = never answered).
struct RequestTimes {
  double due_us = 0.0;
  double sent_us = 0.0;
  double done_us = -1.0;
};

/// Latency is measured from the due time, so a late sender or a stall
/// charges every request queued behind it; send lag is sent - due.
struct LatencySummary {
  std::size_t answered = 0;
  std::size_t unanswered = 0;
  double p50_us = 0.0;
  /// Value at `tail_pct` (the requested tail percentile, lowered by
  /// supported_percentile when the sample is small).
  double tail_us = 0.0;
  double tail_pct = 0.0;
  double lag_tail_us = 0.0;
  /// summarize_windows only: the lowest slice p50 — the median latency of
  /// the quietest slice, which co-tenant interference moves least.
  double p50_floor_us = 0.0;
};

[[nodiscard]] LatencySummary summarize(std::span<const RequestTimes> requests,
                                       double wanted_pct = 99.0);

/// A phase cut into `windows` equal slices by due time (requests due before
/// `start_us` fall in the first slice, after the end in the last): the
/// median over slices of each slice's p50, tail percentile and send-lag
/// tail, plus the lowest slice p50. One host stall inflates the slices it
/// lands in, not the median.
[[nodiscard]] LatencySummary summarize_windows(
    std::span<const RequestTimes> requests, double start_us, double window_us,
    int windows, double wanted_pct = 99.0);

/// Capacity-ladder backlog rule. The backlog at time t is the number of
/// requests due by t minus the number answered by t. Over a step of
/// `window_us` starting at `start_us`, the backlog is growing when its mean
/// over the last quarter of the window exceeds its mean over the second
/// quarter by more than max(min_growth, growth_share * requests). Unanswered
/// requests count as never completing.
[[nodiscard]] bool backlog_growing(std::span<const RequestTimes> requests,
                                   double start_us, double window_us,
                                   double min_growth = 64.0,
                                   double growth_share = 0.01);

/// Runs the arithmetic above on synthetic inputs; prints each check and
/// returns false on the first mismatch.
[[nodiscard]] bool self_test();

}  // namespace perfbench
