// The serving phase every workload runs against one of three fleets: an idle
// probe with one query in flight, open-loop replay of TrafficGenerator's
// Poisson stream at fixed rates, saturation bursts for capacity, and a
// per-query correctness check against a SyncBackend reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arith.h"
#include "spans.h"
#include "src/serve/model_store.h"

namespace perfbench {

enum class FleetKind {
  /// 2 in-process QueryEngine shards (1 worker each), hash router.
  kLocal,
  /// kLocal plus a PoisonGate (flag mode); 20% of queries poisoned.
  kGated,
  /// 2 shard_server child processes on unix sockets behind pipelined
  /// RemoteBackends (pool 2, window 32, batch 16), partition router with
  /// one building per shard.
  kRemote,
};

struct ServeConfig {
  FleetKind kind = FleetKind::kLocal;
  std::uint64_t seed = 1;
  /// Fixed offered rates of the lo and hi phases.
  double lo_qps = 0.0;
  double hi_qps = 0.0;
  /// Capacity: bursts of `burst_s` offered at `saturate_qps`, a rate above
  /// what the fleet sustains; capacity_qps is the median of the bursts'
  /// completion rates.
  double saturate_qps = 0.0;
  double burst_s = 0.5;
  /// Length of the lo and hi phases.
  double phase_s = 2.5;
  /// Length of the idle probe (one query in flight at a time).
  double idle_s = 1.0;
  /// Directory for sockets, partition map and shard logs (remote fleet).
  std::string run_dir;
  /// The shard_server executable (remote fleet).
  std::string shard_exe;
};

struct ServeOutcome {
  /// Median over the set-ups (stream synthesis and fleet bring-up with
  /// publish) of their CPU time, this process plus its shard children's
  /// whole life, rescaled to the reference host speed measured on every
  /// core right before and after the set-ups (hostspeed.h).
  double setup_s = 0.0;
  /// The same as measured, that speed, and the set-ups' median wall time.
  double measured_setup_s = 0.0;
  double setup_speed = 0.0;
  double setup_wall_s = 0.0;
  /// Send-to-answer latency with one query in flight (the idle probe).
  LatencySummary idle;
  LatencySummary lo;
  LatencySummary hi;
  double capacity_qps = 0.0;
  /// Median over the bursts of CPU time (this process plus shard children)
  /// per answered query at saturation, rescaled to the reference host speed
  /// measured on every core right before and after each burst
  /// (hostspeed.h).
  double cpu_us_per_query = 0.0;
  /// The same as measured, and the median over the bursts of that speed.
  double measured_cpu_us_per_query = 0.0;
  double cpu_speed = 0.0;
  /// Bursts whose backlog did not grow (offered rate below capacity).
  int unsaturated_bursts = 0;
  /// Fixed-rate phases whose backlog grew (offered rate above what the
  /// host sustained during the phase).
  int backlogged_phases = 0;
  /// Peak resident set over the idle probe and the fixed-rate phases: this
  /// process (its peak mark reset just before the probe) plus any
  /// shard_server children (their whole life). The saturation bursts are
  /// left out: how much they queue varies with the host.
  double peak_rss_mb = 0.0;
  std::size_t attempted = 0;
  /// Refused, failed, unanswered or wrong answers.
  std::size_t failed = 0;
  std::size_t wrong = 0;
  /// PoisonGate verdicts against TimedQuery::poisoned (gated fleet only).
  double poison_recall = 0.0;
  double benign_flag_frac = 0.0;
};

/// Untraced run: set-up (median of several), idle probe, lo and hi phases,
/// capacity.
[[nodiscard]] ServeOutcome run_serving(const ServeConfig& config,
                                 const std::vector<safeloc::serve::ModelRecord>&
                                     records);

/// Per-layer view of the hi phase, measured through forwarding decorators
/// (AdmissionPolicy, QueryBackend) on a fleet built for the traced run.
struct ServeLayers {
  ServeOutcome outcome;
  double untraced_hi_p50_us = 0.0;
  double admission_p50_us = 0.0;
  double admission_p99_us = 0.0;
  double admission_calls = 0.0;
  double submit_p50_us = 0.0;
  double submit_p99_us = 0.0;
  double backend_enqueue_p99_us = 0.0;
  double backend_p50_us = 0.0;
  double backend_p99_us = 0.0;
  /// Due-to-answer latency minus send lag, admission and backend time.
  double unattributed_p50_us = 0.0;
  double batch_fill_mean = 0.0;
  double route_imbalance = 0.0;
  double queries_per_frame = 0.0;
  double rpc_failures = 0.0;
  double connect_retries = 0.0;
};

/// Traced run: an untraced hi phase (for the overhead figure), then the hi
/// phase again on a decorated fleet. Spans of a sample of requests go to
/// `spans`.
[[nodiscard]] ServeLayers serve_traced(
    const ServeConfig& config,
    const std::vector<safeloc::serve::ModelRecord>& records, SpanLog& spans);

}  // namespace perfbench
