#include "src/serve/query_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace safeloc::serve {

QueryEngine::QueryEngine(QueryEngineConfig config)
    : config_(config),
      queue_wait_hist_(&metrics_.histogram("stage.queue_wait_us")),
      batch_form_hist_(&metrics_.histogram("stage.batch_form_us")),
      infer_hist_(&metrics_.histogram("stage.inference_us")),
      queue_depth_hist_(&metrics_.histogram("engine.queue_depth")),
      batch_fill_hist_(&metrics_.histogram("engine.batch_fill")),
      table_(std::make_shared<SnapshotTable>()) {
  // Resolve the kernel dispatch eagerly: an invalid SAFELOC_KERNEL must
  // fail construction, not throw out of a worker thread mid-batch (which
  // would std::terminate the process).
  (void)nn::simd::active_variant();
  if (config_.workers < 1) config_.workers = 1;
  if (config_.max_batch < 1) config_.max_batch = 1;
  if (config_.top_k < 1) config_.top_k = 1;
  if (config_.queue_capacity < config_.max_batch) {
    config_.queue_capacity = config_.max_batch;
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryEngine::~QueryEngine() { stop(); }

void QueryEngine::stop() {
  {
    const sync::MutexLock lock(queue_mutex_);
    stop_ = true;
  }
  // Workers wake, flush whatever is queued — a worker mid-fill breaks out
  // of its batch-window wait and serves the partial batch — and exit once
  // the queue is empty. join() therefore implies every accepted query's
  // callback has run.
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void QueryEngine::stage(const ModelRecord& record) {
  auto snapshot = std::make_shared<const DeployedModel>(
      make_deployed_model(record, "QueryEngine::stage"));

  const sync::MutexLock lock(table_mutex_);
  staged_[record.provenance.building] = std::move(snapshot);
}

void QueryEngine::commit_staged(int building) {
  const sync::MutexLock lock(table_mutex_);
  const auto it = staged_.find(building);
  if (it == staged_.end()) {
    throw std::logic_error(
        "QueryEngine::commit_staged: nothing staged for building " +
        std::to_string(building));
  }
  auto next = std::make_shared<SnapshotTable>(*table_);
  (*next)[building] = std::move(it->second);
  staged_.erase(it);
  table_ = std::move(next);
}

void QueryEngine::abort_staged(int building) noexcept {
  const sync::MutexLock lock(table_mutex_);
  staged_.erase(building);
}

std::uint32_t QueryEngine::deployed_version(int building) const {
  const auto snapshots = table();
  const auto it = snapshots->find(building);
  return it == snapshots->end() ? 0 : it->second->version;
}

std::size_t QueryEngine::deployed_model_count() const {
  return table()->size();
}

std::shared_ptr<const QueryEngine::SnapshotTable> QueryEngine::table() const {
  const sync::MutexLock lock(table_mutex_);
  return table_;
}

void QueryEngine::submit(int building, std::vector<float> fingerprint,
                         Callback done) {
  {
    const auto snapshots = table();
    const auto it = snapshots->find(building);
    if (refuse_query("QueryEngine::submit",
                     it == snapshots->end() ? nullptr : it->second.get(),
                     building, fingerprint.size(), done)) {
      return;
    }
  }
  const auto enqueued = std::chrono::steady_clock::now();
  std::size_t depth = 0;
  bool stopped = false;
  {
    const sync::MutexLock lock(queue_mutex_);
    space_cv_.wait(queue_mutex_, [this] {
      queue_mutex_.assert_held();  // lambda body: capability not propagated
      return stop_ || queue_.size() < config_.queue_capacity;
    });
    stopped = stop_;
    if (!stopped) {
      queue_.push_back({building, std::move(fingerprint), std::move(done),
                        enqueued});
      depth = queue_.size() + in_flight_;
    }
  }
  if (stopped) {
    // Completed outside the lock: the callback may submit again.
    if (done) {
      done(failed_result(QueryOutcome::kUnavailable,
                         "QueryEngine::submit: engine is shut down"));
    }
    return;
  }
  queue_cv_.notify_one();
  // Depth as this query saw it — the buildup signal the histogram's tail
  // exposes (a saturated engine records deep queues at every arrival).
  queue_depth_hist_->record(static_cast<double>(depth));
}

std::future<QueryResult> QueryEngine::submit(int building,
                                             std::vector<float> fingerprint) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  submit(building, std::move(fingerprint),
         [promise](QueryResult result) { promise->set_value(std::move(result)); });
  return future;
}

void QueryEngine::drain() {
  const sync::MutexLock lock(queue_mutex_);
  idle_cv_.wait(queue_mutex_, [this] {
    queue_mutex_.assert_held();  // lambda body: capability not propagated
    return queue_.empty() && in_flight_ == 0;
  });
}

QueryEngine::Stats QueryEngine::stats() const {
  Stats stats;
  stats.queries = served_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  return stats;
}

telemetry::RegistrySnapshot QueryEngine::telemetry_snapshot() const {
  return metrics_.snapshot();
}

std::size_t QueryEngine::queue_depth() const {
  const sync::MutexLock lock(queue_mutex_);
  return queue_.size() + in_flight_;
}

void QueryEngine::worker_loop() {
  TickScratch scratch;
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    std::chrono::steady_clock::time_point opened;
    {
      const sync::MutexLock lock(queue_mutex_);
      queue_cv_.wait(queue_mutex_, [this] {
        queue_mutex_.assert_held();  // lambda body: capability not propagated
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_ set and nothing left to serve
      // Popped queries count as in-flight immediately: the fill wait below
      // releases the lock, and drain() must not see them in neither place.
      opened = std::chrono::steady_clock::now();
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++in_flight_;
      // Fill the micro-batch: take what is queued; wait out the batch
      // window for stragglers only while the batch is short.
      const auto deadline = opened + config_.batch_window;
      while (batch.size() < config_.max_batch) {
        if (!queue_.empty()) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
          ++in_flight_;
          continue;
        }
        if (stop_ || config_.batch_window.count() == 0) break;
        // Predicate wait (rule R8): wake on new work or stop; a false
        // return means the batch window elapsed with the queue still
        // empty, so the tick serves the partial batch it holds.
        if (!queue_cv_.wait_until(queue_mutex_, deadline, [this] {
              queue_mutex_.assert_held();  // lambda: capability not propagated
              return stop_ || !queue_.empty();
            })) {
          break;
        }
      }
    }
    space_cv_.notify_all();
    const auto closed = std::chrono::steady_clock::now();
    batch_fill_hist_->record(static_cast<double>(batch.size()));

    // One immutable snapshot table per tick; deploys land on later ticks.
    const auto snapshots = table();
    process_batch(batch, *snapshots, scratch, opened, closed);

    // batches_ first / served_ second, mirrored by stats()' read order, so
    // a concurrent snapshot can only under-count a batch's fill, never pair
    // a batch's queries with a batches count that excludes it.
    batches_.fetch_add(1, std::memory_order_relaxed);
    served_.fetch_add(batch.size(), std::memory_order_relaxed);
    {
      const sync::MutexLock lock(queue_mutex_);
      in_flight_ -= batch.size();
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void QueryEngine::process_batch(
    std::vector<Pending>& batch, const SnapshotTable& snapshots,
    TickScratch& scratch, std::chrono::steady_clock::time_point opened,
    std::chrono::steady_clock::time_point closed) const {
  const auto us = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  // Partition by building (batches are usually single-building; the scan is
  // over at most max_batch entries).
  std::vector<int>& buildings = scratch.buildings;
  buildings.clear();
  for (const Pending& pending : batch) {
    if (std::find(buildings.begin(), buildings.end(), pending.building) ==
        buildings.end()) {
      buildings.push_back(pending.building);
    }
  }

  std::vector<std::size_t>& indices = scratch.indices;
  nn::Matrix& x = scratch.x;
  InferenceWorkspace& ws = scratch.ws;
  for (const int building : buildings) {
    indices.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].building == building) indices.push_back(i);
    }
    const auto it = snapshots.find(building);
    if (it == snapshots.end()) {
      // The building was validated at submit() and models are never
      // undeployed, so this cannot happen; answer defensively rather than
      // losing the callbacks.
      for (const std::size_t i : indices) {
        QueryResult result;
        result.building = building;
        if (batch[i].done) batch[i].done(std::move(result));
      }
      continue;
    }
    const DeployedModel& snapshot = *it->second;

    // Re-check widths against the snapshot this tick actually serves:
    // submit() validated against the table of its time, and a hot swap in
    // between may have changed the model's input width. Mismatched queries
    // get a defensive empty answer instead of corrupting the batch matrix.
    const std::size_t dim = snapshot.net.input_dim();
    std::erase_if(indices, [&](std::size_t i) {
      if (batch[i].x.size() == dim) return false;
      QueryResult result;
      result.building = building;
      result.model_version = snapshot.version;
      if (batch[i].done) batch[i].done(std::move(result));
      return true;
    });
    if (indices.empty()) continue;

    if (x.rows() != indices.size() || x.cols() != dim) {
      x.reshape_discard(indices.size(), dim);
    }
    for (std::size_t row = 0; row < indices.size(); ++row) {
      const std::vector<float>& src = batch[indices[row]].x;
      std::copy(src.begin(), src.end(), x.data() + row * dim);
    }

    // One batched forward pass; softmax in place on the workspace logits.
    nn::Matrix& probs = snapshot.net.logits(x, ws);
    softmax_rows_inplace(probs);

    const auto completed = std::chrono::steady_clock::now();
    for (std::size_t row = 0; row < indices.size(); ++row) {
      Pending& pending = batch[indices[row]];
      QueryResult result;
      result.building = building;
      result.top_k = top_k_classes(probs.row(row), config_.top_k);
      result.rp = result.top_k.empty() ? -1 : result.top_k.front().label;
      if (result.rp >= 0) {
        result.position =
            snapshot.rp_positions[static_cast<std::size_t>(result.rp)];
      }
      result.model_version = snapshot.version;
      result.latency_us = us(completed - pending.enqueued);
      // Stage split: time queued before this batch opened, time held while
      // the batch filled, time in the forward pass. A query that arrived
      // mid-fill has zero queue wait and a shorter batch_form.
      result.stages.queue_wait_us =
          pending.enqueued < opened ? us(opened - pending.enqueued) : 0.0;
      result.stages.batch_form_us =
          us(closed - std::max(opened, pending.enqueued));
      result.stages.infer_us = us(completed - closed);
      queue_wait_hist_->record(result.stages.queue_wait_us);
      batch_form_hist_->record(result.stages.batch_form_us);
      infer_hist_->record(result.stages.infer_us);
      if (pending.done) pending.done(std::move(result));
    }
  }
}

}  // namespace safeloc::serve
