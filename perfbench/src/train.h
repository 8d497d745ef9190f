// The training phase every workload runs: the paper's SAFELOC pipeline
// through engine::ScenarioEngine, with budgets pinned here (today's fast
// profile) instead of read from SAFELOC_* variables.
//
// The training job is pinned, seed included (the engine's default dataset
// seed): model error moves by +-20% between training seeds, which would
// swamp any regression bound, while a pinned job makes err_mean_m.* a
// bit-exact signal that only a change to the training arithmetic can move.
// The workload seed drives the serving traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "hostspeed.h"
#include "spans.h"
#include "src/engine/engine.h"

namespace perfbench {

/// Grid cells, in order: building 1 clean, building 1 with the HTC U11
/// client mounting FGSM at eps = 0.5 (these two share one pretrain group),
/// and building 2 clean (the second building the serving fleet needs).
inline constexpr std::size_t kCellClean = 0;
inline constexpr std::size_t kCellFgsm = 1;
inline constexpr std::size_t kCellB2 = 2;

[[nodiscard]] std::vector<safeloc::engine::ScenarioSpec> training_grid();

struct TrainResult {
  /// Wall time of the training phase rescaled to the reference host speed
  /// (hostspeed.h); wall_s is the raw wall time, sampler bursts included.
  double train_s = 0.0;
  double wall_s = 0.0;
  SpeedSummary speed;
  safeloc::engine::RunReport report;
};

/// Untraced: one ScenarioEngine::run, n_threads = 1, final models captured
/// (with serving calibration) for publishing.
[[nodiscard]] TrainResult train();

/// Per-phase time of the traced replay, seconds unless named otherwise.
struct TrainPhases {
  double wall_s = 0.0;
  double rss_setup_s = 0.0;
  double pretrain_s = 0.0;
  double rounds_s = 0.0;
  double self_label_s = 0.0;
  double oracle_s = 0.0;
  double sanitize_s = 0.0;
  double local_update_s = 0.0;
  double aggregate_s = 0.0;
  double recalibrate_s = 0.0;
  /// rounds_s minus the phases above that run inside the round loop.
  double unattributed_s = 0.0;
  double evaluate_s = 0.0;
  /// The engine's capture step after each cell: decoder refresh, model
  /// snapshot and serving calibration.
  double capture_s = 0.0;
  std::uint64_t sanitize_flagged = 0;
  /// Mean test error of every cell, in grid order.
  std::vector<double> err_mean_m;
};

/// Traced replay of the same grid: the engine's group loop re-driven from
/// the benchmark with a forwarding FederatedFramework decorator handed to
/// fl::run_federated, so every framework call is timed from outside.
[[nodiscard]] TrainPhases train_traced(SpanLog& spans);

}  // namespace perfbench
