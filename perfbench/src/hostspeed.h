// Host-speed measurement for timings taken on a shared host.
//
// On a VM whose cores are shared with other tenants, a fixed single-threaded
// job runs up to 1.8x slower for stretches of seconds to minutes, while the
// guest sees almost no steal time and its CPU time tracks its wall time. The
// slowdowns differ from core to core, so they cannot be read off another
// core. The benchmark therefore times a short, fixed burst of its own code
// (not the program's, so no change to the program moves it) where the work
// runs; the ratio of the burst's reference time to its measured time is the
// host speed. A time multiplied by the mean speed is what it would have been
// on a host running at the reference speed.
//
// - Training runs on one core: CorePin holds it there, and a SpeedSampler
//   on the same core wakes every few milliseconds and times one burst, so
//   it samples the speed the job itself sees, all through the job.
// - Serving spreads over every core: measure_host_speed() times bursts on
//   all of them right before and after the work.
#pragma once

#include <sched.h>

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

/// Microseconds one burst of the calibration kernel takes at the reference
/// speed. A sample's speed is kReferenceBurstUs / its measured time.
inline constexpr double kReferenceBurstUs = 100.0;

/// Times one burst of the calibration kernel, in microseconds.
[[nodiscard]] double time_burst_us();

struct SpeedSummary {
  std::size_t samples = 0;
  /// Mean over the samples of kReferenceBurstUs / burst time.
  double mean_speed = 0.0;
  /// Wall time the bursts themselves took, in seconds; it is taken from the
  /// watched job while the sampler runs on its core.
  double busy_s = 0.0;
};

/// Pins the calling thread to the core it is running on until destroyed,
/// then restores its previous affinity. Threads it starts in between inherit
/// the pin.
class CorePin {
 public:
  CorePin();
  ~CorePin();
  CorePin(const CorePin&) = delete;
  CorePin& operator=(const CorePin&) = delete;

  /// The pinned core, or -1 when pinning failed.
  [[nodiscard]] int cpu() const noexcept { return pinned_ ? cpu_ : -1; }

 private:
  int cpu_ = -1;
  bool pinned_ = false;
  cpu_set_t saved_mask_{};
};

/// A thread pinned to `cpu` (left unpinned for cpu < 0) that wakes every
/// 5 ms and times one burst, until stop() joins it. At about 100 us a burst,
/// it takes about 2% of the core.
class SpeedSampler {
 public:
  explicit SpeedSampler(int cpu);
  ~SpeedSampler();
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  SpeedSummary stop();

 private:
  void loop();

  int cpu_;
  std::atomic<bool> stop_{false};
  std::vector<double> bursts_us_;
  std::thread thread_;
};

/// Host speed on every core the process may run on, for work spread over
/// all of them: one thread pinned to each core times bursts back to back for
/// 20 ms; returns the mean speed over all their bursts. Run it right before
/// and after the work, not during it, which it would perturb.
[[nodiscard]] double measure_host_speed();

/// Wall time of a job on a sampled core, rescaled to the reference speed:
/// (wall_s - speed.busy_s) * speed.mean_speed.
[[nodiscard]] double reference_seconds(double wall_s, const SpeedSummary& speed);

}  // namespace perfbench
