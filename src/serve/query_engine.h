// QueryEngine — the serving hot path: accepts single-fingerprint location
// queries, micro-batches them into one batched forward pass per tick, and
// answers with the predicted reference point, its floorplan coordinates,
// and top-k confidences.
//
// Execution model:
//   * Producers submit(building, fingerprint, callback). Submission is
//     cheap (one queue push); a bounded queue applies backpressure by
//     blocking producers when `queue_capacity` is reached.
//   * N worker threads each run a tick loop: pop the first waiting query,
//     keep filling the batch until `max_batch` queries are in hand or
//     `batch_window` has elapsed, then run ONE ServingNet forward per
//     building present in the batch and complete the callbacks.
//   * Results are batching-invariant: the forward kernel computes each row
//     independently, so a query's answer does not depend on which queries
//     it shared a tick with.
//
// Hot model replacement: deployed models live in an immutable snapshot
// table behind a shared_ptr (read-mostly copy-on-write). deploy() builds
// the new table aside and swaps the pointer; in-flight batches finish on
// the snapshot they started with and later ticks pick up the new version —
// serving never pauses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/backend.h"
#include "src/util/sync.h"

namespace safeloc::serve {

struct QueryEngineConfig {
  /// Worker threads running batched forward passes.
  int workers = 2;
  /// Micro-batch cap per tick.
  std::size_t max_batch = 64;
  /// How long a tick waits for the batch to fill once its first query is in
  /// hand. 0 serves whatever is queued immediately.
  std::chrono::microseconds batch_window{200};
  /// Ranked classes returned per query.
  std::size_t top_k = 3;
  /// Bounded-queue backpressure: submit() blocks above this depth.
  std::size_t queue_capacity = 1 << 16;
};

class QueryEngine final : public QueryBackend {
 public:
  explicit QueryEngine(QueryEngineConfig config = {});
  ~QueryEngine() override;

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Two-phase deploy: stage() validates and builds the snapshot aside;
  /// commit_staged() swaps it into the copy-on-write table (in-flight
  /// batches finish on the snapshot they started with). deploy() (base
  /// class) chains both for single-shard callers.
  void stage(const ModelRecord& record) override;
  void commit_staged(int building) override;
  void abort_staged(int building) noexcept override;

  /// Version currently serving `building`; 0 when none deployed.
  [[nodiscard]] std::uint32_t deployed_version(int building) const override;

  /// Models resident in the snapshot table.
  [[nodiscard]] std::size_t deployed_model_count() const override;

  /// Enqueues one query; `done` runs on a worker thread after the batched
  /// forward pass. Blocks briefly when the queue is full. Never throws for
  /// the query: an undeployed building or a wrong-width fingerprint
  /// completes kRefused, a submit after stop() kUnavailable, both on the
  /// calling thread before submit() returns.
  void submit(int building, std::vector<float> fingerprint,
              Callback done) override;

  /// Future-returning convenience wrapper.
  [[nodiscard]] std::future<QueryResult> submit(int building,
                                                std::vector<float> fingerprint);

  /// Blocks until every submitted query has completed.
  void drain() override;

  /// Queries accepted but not yet answered (queued + in a worker's hands).
  [[nodiscard]] std::size_t queue_depth() const override;

  /// Shuts the engine down: rejects new submissions, flushes every pending
  /// query — including a partially filled micro-batch a worker is still
  /// holding open for its batch window — and joins the workers. Every
  /// callback submitted before stop() runs before it returns. Idempotent;
  /// the destructor calls it.
  void stop();

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t batches = 0;
    [[nodiscard]] double mean_batch_fill() const noexcept {
      return batches == 0 ? 0.0
                          : static_cast<double>(queries) /
                                static_cast<double>(batches);
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Per-stage histograms (stage.queue_wait_us / batch_form_us /
  /// inference_us) plus engine.queue_depth (recorded at every submit) and
  /// engine.batch_fill (recorded per tick).
  [[nodiscard]] telemetry::RegistrySnapshot telemetry_snapshot()
      const override;

 private:
  /// building id -> immutable snapshot. The table itself is immutable;
  /// deploy() swaps the pointer.
  using SnapshotTable = std::map<int, std::shared_ptr<const DeployedModel>>;

  struct Pending {
    int building = 0;
    std::vector<float> x;
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Per-worker scratch reused across ticks (keeps the hot path free of
  /// steady-state allocation).
  struct TickScratch {
    InferenceWorkspace ws;
    nn::Matrix x;
    std::vector<int> buildings;
    std::vector<std::size_t> indices;
  };

  void worker_loop();
  /// `opened`/`closed` bracket the micro-batch: first query popped /
  /// fill loop ended — they split each query's wait into queue_wait
  /// (before the batch opened) and batch_form (held while filling).
  void process_batch(std::vector<Pending>& batch,
                     const SnapshotTable& snapshots, TickScratch& scratch,
                     std::chrono::steady_clock::time_point opened,
                     std::chrono::steady_clock::time_point closed) const;
  [[nodiscard]] std::shared_ptr<const SnapshotTable> table() const;

  QueryEngineConfig config_;

  telemetry::MetricsRegistry metrics_;
  telemetry::LatencyHistogram* queue_wait_hist_;
  telemetry::LatencyHistogram* batch_form_hist_;
  telemetry::LatencyHistogram* infer_hist_;
  telemetry::LatencyHistogram* queue_depth_hist_;
  telemetry::LatencyHistogram* batch_fill_hist_;

  /// Guards the COW table pointer and the staged set; ticks clone the
  /// shared_ptr and run the batch against the immutable table off-lock.
  mutable sync::Mutex table_mutex_;
  std::shared_ptr<const SnapshotTable> table_
      SAFELOC_GUARDED_BY(table_mutex_);
  /// Snapshots validated by stage() awaiting commit_staged().
  std::map<int, std::shared_ptr<const DeployedModel>> staged_
      SAFELOC_GUARDED_BY(table_mutex_);

  mutable sync::Mutex queue_mutex_;
  sync::CondVar queue_cv_;  // workers: work available / stop
  sync::CondVar space_cv_;  // producers: capacity available
  sync::CondVar idle_cv_;   // drain(): all work completed
  std::deque<Pending> queue_ SAFELOC_GUARDED_BY(queue_mutex_);
  std::size_t in_flight_ SAFELOC_GUARDED_BY(queue_mutex_) = 0;
  bool stop_ SAFELOC_GUARDED_BY(queue_mutex_) = false;
  // Monotonic stats counters, bumped by every worker after its batch
  // completes. Atomics (not queue_mutex_) so the increment stays off the
  // producer-contended lock; relaxed ordering is enough for counters that
  // only feed stats().
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> batches_{0};

  std::vector<std::thread> workers_;
};

}  // namespace safeloc::serve
