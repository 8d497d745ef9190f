#include "hostspeed.h"

#include <immintrin.h>
#include <pthread.h>
#include <time.h>

#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

// One burst is two parts of similar length, because the slowdowns hit
// cache-resident arithmetic and cache traffic differently and the training
// and serving loops do both: kPasses products of a 16x64 by 64x64
// single-precision matrix pair held in L1 (the shape of a small dense
// layer), then a multiply-accumulate pass over kStreamRows rows of a 1 MiB
// ring that lives in L2, starting where the previous burst stopped.
constexpr int kRows = 16;
constexpr int kInner = 64;
constexpr int kCols = 64;
constexpr int kPasses = 24;
constexpr std::size_t kRingRows = 4096;
constexpr std::size_t kRingCols = 64;
constexpr std::size_t kStreamRows = 1024;

constexpr double kSamplePeriodUs = 5000.0;
constexpr double kMeasureWindowUs = 20000.0;

struct alignas(32) Operands {
  float a[kRows * kInner];
  float b[kInner * kCols];
  float c[kRows * kCols];
};

__attribute__((target("avx2,fma"))) void product_avx2(Operands& m) {
  for (int i = 0; i < kRows; ++i) {
    __m256 acc[kCols / 8];
    for (int j = 0; j < kCols / 8; ++j) acc[j] = _mm256_load_ps(&m.c[i * kCols + 8 * j]);
    for (int k = 0; k < kInner; ++k) {
      const __m256 a = _mm256_broadcast_ss(&m.a[i * kInner + k]);
      for (int j = 0; j < kCols / 8; ++j) {
        acc[j] = _mm256_fmadd_ps(a, _mm256_load_ps(&m.b[k * kCols + 8 * j]), acc[j]);
      }
    }
    for (int j = 0; j < kCols / 8; ++j) _mm256_store_ps(&m.c[i * kCols + 8 * j], acc[j]);
  }
}

void product_scalar(Operands& m) {
  for (int i = 0; i < kRows; ++i) {
    for (int k = 0; k < kInner; ++k) {
      const float a = m.a[i * kInner + k];
      for (int j = 0; j < kCols; ++j) m.c[i * kCols + j] += a * m.b[k * kCols + j];
    }
  }
}

__attribute__((target("avx2,fma"))) float stream_avx2(const float* ring, std::size_t first) {
  const __m256 scale = _mm256_set1_ps(0.5F);
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  for (std::size_t r = 0; r < kStreamRows; ++r) {
    const float* row = ring + ((first + r) % kRingRows) * kRingCols;
    for (std::size_t j = 0; j < kRingCols; j += 16) {
      acc0 = _mm256_fmadd_ps(scale, _mm256_loadu_ps(row + j), acc0);
      acc1 = _mm256_fmadd_ps(scale, _mm256_loadu_ps(row + j + 8), acc1);
    }
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, _mm256_add_ps(acc0, acc1));
  return lanes[0] + lanes[7];
}

float stream_scalar(const float* ring, std::size_t first) {
  float acc = 0.0F;
  for (std::size_t r = 0; r < kStreamRows; ++r) {
    const float* row = ring + ((first + r) % kRingRows) * kRingCols;
    for (std::size_t j = 0; j < kRingCols; ++j) acc += 0.5F * row[j];
  }
  return acc;
}

struct Ring {
  std::vector<float> rows = std::vector<float>(kRingRows * kRingCols);
  std::size_t next = 0;
  float sink = 0.0F;
  Ring() {
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = 1e-3F * static_cast<float>(i % 11);
  }
};

Operands& operands() {
  thread_local Operands m = [] {
    Operands init{};
    for (int i = 0; i < kRows * kInner; ++i) init.a[i] = 1e-3F * static_cast<float>(i % 7);
    for (int i = 0; i < kInner * kCols; ++i) init.b[i] = 1e-3F * static_cast<float>(i % 5);
    return init;
  }();
  return m;
}

void sleep_until_us(double t_us) {
  // now_us() is steady_clock, which is CLOCK_MONOTONIC on Linux.
  const double wait_us = t_us - now_us();
  if (wait_us <= 0.0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait_us * 1e-6);
  ts.tv_nsec = static_cast<long>((wait_us - 1e6 * static_cast<double>(ts.tv_sec)) * 1e3);
  ::nanosleep(&ts, nullptr);
}

SpeedSummary summarize_bursts(const std::vector<double>& bursts_us) {
  SpeedSummary out;
  out.samples = bursts_us.size();
  double speed_sum = 0.0;
  double busy_us = 0.0;
  for (const double us : bursts_us) {
    speed_sum += kReferenceBurstUs / us;
    busy_us += us;
  }
  if (out.samples > 0) out.mean_speed = speed_sum / static_cast<double>(out.samples);
  out.busy_s = busy_us * 1e-6;
  return out;
}

}  // namespace

double time_burst_us() {
  static const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  Operands& m = operands();
  thread_local Ring ring;
  const double t0 = now_us();
  for (int pass = 0; pass < kPasses; ++pass) {
    if (avx2) {
      product_avx2(m);
    } else {
      product_scalar(m);
    }
    // Keep the accumulators bounded and the passes dependent.
    m.c[pass % (kRows * kCols)] *= 0.5F;
  }
  ring.sink += avx2 ? stream_avx2(ring.rows.data(), ring.next)
                    : stream_scalar(ring.rows.data(), ring.next);
  ring.next = (ring.next + kStreamRows) % kRingRows;
  return now_us() - t0;
}

CorePin::CorePin() {
  cpu_ = ::sched_getcpu();
  if (cpu_ < 0 ||
      ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_mask_), &saved_mask_) != 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu_, &one);
  pinned_ = ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one) == 0;
}

CorePin::~CorePin() {
  if (pinned_) {
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(saved_mask_), &saved_mask_);
  }
}

SpeedSampler::SpeedSampler(int cpu) : cpu_(cpu) {
  bursts_us_.reserve(1 << 16);
  thread_ = std::thread([this] { loop(); });
}

SpeedSampler::~SpeedSampler() {
  if (thread_.joinable()) (void)stop();
}

void SpeedSampler::loop() {
  if (cpu_ >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
  }
  (void)time_burst_us();  // warm the operands and the vector unit
  double next = now_us() + kSamplePeriodUs;
  while (!stop_.load(std::memory_order_relaxed)) {
    sleep_until_us(next);
    bursts_us_.push_back(time_burst_us());
    next += kSamplePeriodUs;
    const double now = now_us();
    if (next < now) next = now + kSamplePeriodUs;
  }
}

SpeedSummary SpeedSampler::stop() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  return summarize_bursts(bursts_us_);
}

double measure_host_speed() {
  cpu_set_t mask;
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return 0.0;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  std::vector<std::vector<double>> bursts(cpus.size());
  std::vector<std::thread> threads;
  const double start = now_us() + 1000.0;  // let every thread reach its core
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      (void)::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
      (void)time_burst_us();  // warm the operands and the vector unit
      sleep_until_us(start);
      while (now_us() < start + kMeasureWindowUs) bursts[i].push_back(time_burst_us());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<double> all;
  for (const std::vector<double>& one : bursts) all.insert(all.end(), one.begin(), one.end());
  return summarize_bursts(all).mean_speed;
}

double reference_seconds(double wall_s, const SpeedSummary& speed) {
  return (wall_s - speed.busy_s) * speed.mean_speed;
}

}  // namespace perfbench
