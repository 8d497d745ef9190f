#include "src/serve/backend.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace safeloc::serve {

DeployedModel make_deployed_model(const ModelRecord& record,
                                  const char* context) {
  DeployedModel deployed;
  deployed.net = ServingNet::from_state(record.state);
  deployed.version = record.version;

  const rss::Building building(rss::paper_building(record.provenance.building));
  if (deployed.net.num_classes() != building.num_rps()) {
    throw std::invalid_argument(
        std::string(context) + ": model \"" + record.name + "\" classifies " +
        std::to_string(deployed.net.num_classes()) + " RPs but building " +
        std::to_string(record.provenance.building) + " has " +
        std::to_string(building.num_rps()));
  }
  deployed.rp_positions.reserve(building.num_rps());
  for (std::size_t rp = 0; rp < building.num_rps(); ++rp) {
    deployed.rp_positions.push_back(building.rp_position(rp));
  }
  return deployed;
}

QueryResult failed_result(QueryOutcome outcome, std::string error) {
  QueryResult result;
  result.outcome = outcome;
  result.error = std::move(error);
  return result;
}

bool refuse_query(const char* context, const DeployedModel* model,
                  int building, std::size_t width,
                  const QueryBackend::Callback& done) {
  std::string refusal;
  if (model == nullptr) {
    refusal = "no model deployed for building " + std::to_string(building);
  } else if (width != model->net.input_dim()) {
    refusal = "expected " + std::to_string(model->net.input_dim()) +
              "-dim fingerprint, got " + std::to_string(width);
  } else {
    return false;
  }
  if (done) {
    done(failed_result(QueryOutcome::kRefused,
                       std::string(context) + ": " + refusal));
  }
  return true;
}

void QueryBackend::deploy(const ModelRecord& record) {
  stage(record);
  commit_staged(record.provenance.building);
}

SyncBackend::SyncBackend(std::size_t top_k)
    : top_k_(top_k < 1 ? 1 : top_k),
      queue_wait_hist_(&metrics_.histogram("stage.queue_wait_us")),
      infer_hist_(&metrics_.histogram("stage.inference_us")) {}

telemetry::RegistrySnapshot SyncBackend::telemetry_snapshot() const {
  return metrics_.snapshot();
}

void SyncBackend::stage(const ModelRecord& record) {
  auto deployed = std::make_shared<const DeployedModel>(
      make_deployed_model(record, "SyncBackend::stage"));
  const sync::MutexLock lock(mutex_);
  staged_[record.provenance.building] = std::move(deployed);
}

void SyncBackend::commit_staged(int building) {
  const sync::MutexLock lock(mutex_);
  const auto it = staged_.find(building);
  if (it == staged_.end()) {
    throw std::logic_error(
        "SyncBackend::commit_staged: nothing staged for building " +
        std::to_string(building));
  }
  snapshots_[building] = std::move(it->second);
  staged_.erase(it);
}

void SyncBackend::abort_staged(int building) noexcept {
  const sync::MutexLock lock(mutex_);
  staged_.erase(building);
}

std::uint32_t SyncBackend::deployed_version(int building) const {
  const sync::MutexLock lock(mutex_);
  const auto it = snapshots_.find(building);
  return it == snapshots_.end() ? 0 : it->second->version;
}

std::size_t SyncBackend::deployed_model_count() const {
  const sync::MutexLock lock(mutex_);
  return snapshots_.size();
}

void SyncBackend::submit(int building, std::vector<float> fingerprint,
                         Callback done) {
  const auto enqueued = std::chrono::steady_clock::now();
  std::shared_ptr<const DeployedModel> snapshot;
  {
    const sync::MutexLock lock(mutex_);
    const auto it = snapshots_.find(building);
    if (it != snapshots_.end()) snapshot = it->second;
  }
  if (refuse_query("SyncBackend::submit", snapshot.get(), building,
                   fingerprint.size(), done)) {
    return;
  }

  QueryResult result;
  result.building = building;
  result.model_version = snapshot->version;
  {
    // The wait for this lock is the backend's queue: concurrent submitters
    // serialize here, and under saturation that wait dominates latency —
    // exactly what stage.queue_wait_us must show.
    const sync::MutexLock lock(mutex_);
    const auto acquired = std::chrono::steady_clock::now();
    result.stages.queue_wait_us =
        std::chrono::duration<double, std::micro>(acquired - enqueued)
            .count();
    if (x_.rows() != 1 || x_.cols() != fingerprint.size()) {
      x_.reshape_discard(1, fingerprint.size());
    }
    std::copy(fingerprint.begin(), fingerprint.end(), x_.data());
    nn::Matrix& probs = snapshot->net.logits(x_, ws_);
    softmax_rows_inplace(probs);
    result.top_k = top_k_classes(probs.row(0), top_k_);
    result.stages.infer_us = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - acquired)
                                 .count();
  }
  queue_wait_hist_->record(result.stages.queue_wait_us);
  infer_hist_->record(result.stages.infer_us);
  result.rp = result.top_k.empty() ? -1 : result.top_k.front().label;
  if (result.rp >= 0) {
    result.position =
        snapshot->rp_positions[static_cast<std::size_t>(result.rp)];
  }
  result.latency_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - enqueued)
                          .count();
  if (done) done(std::move(result));
}

}  // namespace safeloc::serve
