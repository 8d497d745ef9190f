#include "arith.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(xs.size()))) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(index),
                   xs.end());
  return xs[index];
}

double supported_percentile(std::size_t n, double wanted,
                            std::size_t min_beyond) {
  if (n <= min_beyond) return 0.0;
  const double supported = 100.0 * static_cast<double>(n - min_beyond) /
                           static_cast<double>(n);
  return std::min(wanted, supported);
}

LatencySummary summarize(std::span<const RequestTimes> requests,
                         double wanted_pct) {
  LatencySummary out;
  std::vector<double> latency;
  std::vector<double> lag;
  latency.reserve(requests.size());
  lag.reserve(requests.size());
  for (const RequestTimes& r : requests) {
    lag.push_back(r.sent_us - r.due_us);
    if (r.done_us < 0.0) {
      ++out.unanswered;
      continue;
    }
    latency.push_back(r.done_us - r.due_us);
  }
  out.answered = latency.size();
  out.tail_pct = supported_percentile(latency.size(), wanted_pct);
  out.p50_us = percentile(latency, 50.0);
  out.tail_us = percentile(latency, out.tail_pct);
  out.lag_tail_us =
      percentile(lag, supported_percentile(lag.size(), wanted_pct));
  return out;
}

LatencySummary summarize_windows(std::span<const RequestTimes> requests,
                                 double start_us, double window_us, int windows,
                                 double wanted_pct) {
  std::vector<std::vector<RequestTimes>> slices(
      static_cast<std::size_t>(std::max(windows, 1)));
  for (const RequestTimes& r : requests) {
    const double at = (r.due_us - start_us) / window_us * slices.size();
    const auto index = static_cast<std::size_t>(
        std::clamp(at, 0.0, static_cast<double>(slices.size() - 1)));
    slices[index].push_back(r);
  }
  std::vector<double> p50, tail, pct, lag;
  LatencySummary out;
  for (const std::vector<RequestTimes>& slice : slices) {
    const LatencySummary s = summarize(slice, wanted_pct);
    out.answered += s.answered;
    out.unanswered += s.unanswered;
    p50.push_back(s.p50_us);
    tail.push_back(s.tail_us);
    pct.push_back(s.tail_pct);
    lag.push_back(s.lag_tail_us);
  }
  out.p50_us = percentile(p50, 50.0);
  out.p50_floor_us = percentile(p50, 0.0);
  out.tail_us = percentile(tail, 50.0);
  out.tail_pct = percentile(pct, 50.0);
  out.lag_tail_us = percentile(lag, 50.0);
  return out;
}

bool backlog_growing(std::span<const RequestTimes> requests, double start_us,
                     double window_us, double min_growth,
                     double growth_share) {
  std::vector<double> due;
  std::vector<double> done;
  due.reserve(requests.size());
  done.reserve(requests.size());
  for (const RequestTimes& r : requests) {
    due.push_back(r.due_us);
    if (r.done_us >= 0.0) done.push_back(r.done_us);
  }
  std::sort(due.begin(), due.end());
  std::sort(done.begin(), done.end());
  const auto backlog_at = [&](double t) {
    const auto d = std::upper_bound(due.begin(), due.end(), t) - due.begin();
    const auto c = std::upper_bound(done.begin(), done.end(), t) - done.begin();
    return static_cast<double>(d - c);
  };
  constexpr int kSamples = 16;
  const auto mean_backlog = [&](double from, double to) {
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      sum += backlog_at(from + (to - from) * (i + 0.5) / kSamples);
    }
    return sum / kSamples;
  };
  const double early =
      mean_backlog(start_us + 0.25 * window_us, start_us + 0.5 * window_us);
  const double late =
      mean_backlog(start_us + 0.75 * window_us, start_us + window_us);
  const double tolerance = std::max(
      min_growth, growth_share * static_cast<double>(requests.size()));
  return late - early > tolerance;
}

namespace {

bool check(bool ok, const char* what) {
  std::printf("self-test %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

bool self_test() {
  bool ok = true;

  // Percentile selection: p99 needs n >= 1000 to keep ten samples beyond it.
  ok &= check(near(supported_percentile(2000, 99.0), 99.0),
              "p99 kept at n=2000");
  ok &= check(near(supported_percentile(1000, 99.0), 99.0),
              "p99 kept at n=1000 (exactly ten beyond)");
  ok &= check(near(supported_percentile(500, 99.0), 98.0),
              "p99 lowered to p98 at n=500");
  ok &= check(near(supported_percentile(100, 99.0), 90.0),
              "p99 lowered to p90 at n=100");
  ok &= check(supported_percentile(10, 99.0) == 0.0,
              "no tail percentile at n=10");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  ok &= check(near(percentile(ramp, 50.0), 500.0) &&
                  near(percentile(ramp, 99.0), 990.0),
              "nearest-rank p50/p99 of 1..1000");

  // Due-time accounting: a sender that runs late charges every request,
  // and the lag is reported separately.
  std::vector<RequestTimes> timed;
  for (int i = 0; i < 1000; ++i) {
    const double due = 100.0 * i;
    const double lag = (i % 100 == 99) ? 500.0 : 5.0;  // 1% stalls
    timed.push_back({due, due + lag, due + lag + 40.0});
  }
  const LatencySummary s = summarize(timed);
  ok &= check(s.answered == 1000 && s.unanswered == 0,
              "all synthetic requests answered");
  ok &= check(near(s.p50_us, 45.0), "p50 from due = lag + service (45us)");
  ok &= check(near(s.tail_us, 45.0) && near(s.tail_pct, 99.0),
              "p99 stays on the 99% fast path (10 stalls beyond)");
  timed[0].sent_us = timed[0].due_us + 900.0;
  timed[0].done_us = timed[0].sent_us + 40.0;
  timed[1].done_us = -1.0;
  const LatencySummary s2 = summarize(timed);
  ok &= check(s2.unanswered == 1 && s2.answered == 999,
              "unanswered request excluded from latency, counted");
  ok &= check(near(s2.lag_tail_us, 500.0),
              "lag p99 with 11 stalls of 1000 reaches the stalls");
  std::vector<RequestTimes> late_sender;
  for (int i = 0; i < 1000; ++i) {
    const double due = 100.0 * i;
    late_sender.push_back({due, due + 2.0 * i, due + 2.0 * i + 40.0});
  }
  const LatencySummary s3 = summarize(late_sender);
  ok &= check(near(s3.p50_us, 2.0 * 499 + 40.0),
              "a falling-behind sender shows in due-time latency");

  // Windowed summary: a stall confined to one of five slices moves the
  // whole-phase p99 but not the median over slices.
  std::vector<RequestTimes> stalled;
  for (int i = 0; i < 5000; ++i) {
    const double due = 100.0 * i;
    const double lag = (i >= 1000 && i < 1100) ? 5000.0 : 5.0;
    stalled.push_back({due, due + lag, due + lag + 40.0});
  }
  const LatencySummary whole = summarize(stalled);
  const LatencySummary sliced = summarize_windows(stalled, 0.0, 500000.0, 5);
  ok &= check(near(whole.tail_us, 5040.0) && near(sliced.tail_us, 45.0),
              "windowed p99 is the median of slice p99s");
  ok &= check(sliced.answered == 5000 && near(sliced.tail_pct, 99.0),
              "windowed summary keeps every sample and the p99 rank");
  std::vector<RequestTimes> drifting;
  for (int i = 0; i < 5000; ++i) {
    const double due = 100.0 * i;
    const double service = 40.0 + 10.0 * (i / 1000);  // 40, 50, ..., 80 us
    drifting.push_back({due, due, due + service});
  }
  const LatencySummary drift = summarize_windows(drifting, 0.0, 500000.0, 5);
  ok &= check(near(drift.p50_floor_us, 40.0) && near(drift.p50_us, 60.0),
              "p50 floor is the quietest slice, p50 the median slice");

  // Backlog rule: service faster than arrivals keeps a flat backlog;
  // service 20% slower than arrivals grows it linearly.
  std::vector<RequestTimes> steady;
  std::vector<RequestTimes> overloaded;
  for (int i = 0; i < 10000; ++i) {
    const double due = 100.0 * i;
    steady.push_back({due, due, due + 250.0});
    overloaded.push_back({due, due, 120.0 * (i + 1)});
  }
  ok &= check(!backlog_growing(steady, 0.0, 1e6),
              "backlog rule: steady service is not growing");
  ok &= check(backlog_growing(overloaded, 0.0, 1e6),
              "backlog rule: 1.2x overload is growing");
  std::vector<RequestTimes> burst = steady;
  for (int i = 2500; i < 2600; ++i) burst[i].done_us = 100.0 * 2600 + 10.0;
  ok &= check(!backlog_growing(burst, 0.0, 1e6),
              "backlog rule: a drained early burst is not growing");
  std::vector<RequestTimes> lost = steady;
  for (int i = 6000; i < 10000; ++i) lost[i].done_us = -1.0;
  ok &= check(backlog_growing(lost, 0.0, 1e6),
              "backlog rule: unanswered requests count as backlog");
  return ok;
}

}  // namespace perfbench
