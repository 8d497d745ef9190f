#include "src/serve/service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace safeloc::serve {

LocalizationService::LocalizationService(ServiceConfig config) {
  const int shards = config.shards < 1 ? 1 : config.shards;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<QueryEngine>(config.engine));
  }
  router_ = std::make_unique<HashRouter>();
  routed_ = std::make_unique<std::atomic<std::uint64_t>[]>(shards_.size());
  shard_errors_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(shards_.size());
  init_metrics();
}

LocalizationService::LocalizationService(
    std::vector<std::unique_ptr<QueryBackend>> shards)
    : shards_(std::move(shards)) {
  if (shards_.empty()) {
    throw std::invalid_argument("LocalizationService: no shards");
  }
  for (const auto& shard : shards_) {
    if (shard == nullptr) {
      throw std::invalid_argument("LocalizationService: null shard");
    }
  }
  router_ = std::make_unique<HashRouter>();
  routed_ = std::make_unique<std::atomic<std::uint64_t>[]>(shards_.size());
  shard_errors_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(shards_.size());
  init_metrics();
}

void LocalizationService::init_metrics() {
  admission_hist_ = &metrics_.histogram("stage.admission_us");
  routing_hist_ = &metrics_.histogram("stage.routing_us");
  e2e_hist_ = &metrics_.histogram("stage.e2e_us");
}

LocalizationService::~LocalizationService() = default;

void LocalizationService::set_router(std::unique_ptr<Router> router) {
  if (router == nullptr) {
    throw std::invalid_argument("LocalizationService: null router");
  }
  router_ = std::move(router);
}

void LocalizationService::add_admission(
    std::unique_ptr<AdmissionPolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("LocalizationService: null admission policy");
  }
  admission_.push_back(std::move(policy));
}

void LocalizationService::set_partition(PartitionMap partition) {
  if (partition.shards != shards_.size()) {
    throw std::invalid_argument(
        "LocalizationService::set_partition: map built for " +
        std::to_string(partition.shards) + " shard(s), fleet has " +
        std::to_string(shards_.size()));
  }
  const sync::MutexLock publish_lock(publish_mutex_);
  partition_ = std::move(partition);
}

void LocalizationService::publish(const ModelRecord& record) {
  // One publisher at a time: two concurrent publishes for the same
  // building must not interleave their per-shard phases, or the fleet
  // could settle with shards on different versions.
  const sync::MutexLock publish_lock(publish_mutex_);
  const int building = record.provenance.building;
  // Validate the record before anything observes it: a record no shard
  // would accept must not calibrate the admission chain either.
  (void)make_deployed_model(record, "LocalizationService::publish");

  // Partitioned fleets deploy each building only to its owning shard;
  // replicated fleets (no partition) deploy everywhere.
  std::vector<QueryBackend*> targets;
  if (partition_) {
    targets.push_back(
        shards_[std::min<std::size_t>(partition_->owner_of(building),
                                      shards_.size() - 1)]
            .get());
  } else {
    targets.reserve(shards_.size());
    for (const auto& shard : shards_) targets.push_back(shard.get());
  }

  // Phase 1 — stage on every target. All the fallible work (snapshot
  // extraction, width validation, remote transfer) happens here, before
  // ANY shard serves the new version; one refusal aborts the staged
  // snapshots everywhere and the fleet keeps its previous versions intact.
  std::size_t staged = 0;
  try {
    for (; staged < targets.size(); ++staged) targets[staged]->stage(record);
    // Admission calibrates BEFORE the shards swap. Queries racing the swap
    // may briefly be judged by the new model's calibration while still
    // answered by the old snapshot — the availability-safe direction: a
    // looser new threshold (e.g. the post-rounds RCE drift) can only
    // under-flag for an instant, never burst-reject benign traffic. The
    // reverse order would score the new model against the old calibration.
    for (const auto& policy : admission_) policy->on_publish(record);
  } catch (...) {
    for (std::size_t s = 0; s < staged; ++s) {
      targets[s]->abort_staged(building);
    }
    throw;
  }

  // Phase 2 — commit everywhere. Local backends cannot fail here (the swap
  // is a pointer exchange); a remote commit that dies mid-phase leaves the
  // already-committed shards serving the new version and surfaces the
  // error — the same exposure any non-consensus 2PC has, and why stage()
  // carries all the validation.
  for (QueryBackend* target : targets) target->commit_staged(building);
  const sync::MutexLock lock(published_mutex_);
  published_versions_[building] = record.version;
}

std::size_t LocalizationService::publish_latest(const ModelStore& store) {
  std::size_t published = 0;
  for (const std::string& name : store.names()) {
    publish(store.latest(name));
    ++published;
  }
  return published;
}

std::uint32_t LocalizationService::published_version(int building) const {
  const sync::MutexLock lock(published_mutex_);
  const auto it = published_versions_.find(building);
  return it == published_versions_.end() ? 0 : it->second;
}

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point until) {
  return std::chrono::duration<double, std::micro>(until - since).count();
}

/// Builds the span list for one sampled request: admission and routing
/// from the service's own clocks, then the backend's StageTimings laid out
/// back-to-back after routing (the measurement gaps between stages are
/// real — spans are not forced to tile the e2e window).
std::vector<telemetry::SpanRecord> build_spans(double admission_us,
                                               double routing_us,
                                               const StageTimings& stages,
                                               double e2e_us) {
  std::vector<telemetry::SpanRecord> spans;
  spans.push_back({telemetry::Stage::kE2E, 0.0, e2e_us});
  spans.push_back({telemetry::Stage::kAdmission, 0.0, admission_us});
  double cursor = admission_us;
  const auto push = [&spans, &cursor](telemetry::Stage stage, double us) {
    if (us <= 0.0) return;
    spans.push_back({stage, cursor, us});
    cursor += us;
  };
  push(telemetry::Stage::kRouting, routing_us);
  push(telemetry::Stage::kWireSerialize, stages.wire_serialize_us);
  push(telemetry::Stage::kQueueWait, stages.queue_wait_us);
  push(telemetry::Stage::kBatchForm, stages.batch_form_us);
  push(telemetry::Stage::kInference, stages.infer_us);
  push(telemetry::Stage::kWireRpc, stages.wire_rpc_us);
  push(telemetry::Stage::kWireDeserialize, stages.wire_deserialize_us);
  return spans;
}

}  // namespace

void LocalizationService::submit(Request request,
                                 std::function<void(Response)> done) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t seq =
      request_seq_.fetch_add(1, std::memory_order_relaxed);
  const bool sampled = trace_.should_sample();

  Response response;
  for (const auto& policy : admission_) {
    AdmissionVerdict verdict =
        policy->inspect(request.building, request.fingerprint);
    if (verdict.action == AdmissionVerdict::Action::kAdmit) continue;
    if (verdict.action == AdmissionVerdict::Action::kReject) {
      submitted_.fetch_add(1, std::memory_order_relaxed);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      response.status = Response::Status::kRejected;
      response.flagged = true;
      response.admission_score = verdict.score;
      response.admission_policy = policy->name();
      response.admission_test = std::move(verdict.test);
      response.admission_reason = std::move(verdict.reason);
      if (response.admission_test == "rce") {
        flagged_rce_.fetch_add(1, std::memory_order_relaxed);
      } else if (response.admission_test == "envelope") {
        flagged_envelope_.fetch_add(1, std::memory_order_relaxed);
      }
      const double admission_us =
          elapsed_us(t0, std::chrono::steady_clock::now());
      admission_hist_->record(admission_us);
      if (sampled) {
        telemetry::TraceRecord trace;
        trace.request_seq = seq;
        trace.building = request.building;
        trace.shard = -1;
        trace.admission = "reject:" + response.admission_test;
        trace.spans =
            build_spans(admission_us, 0.0, StageTimings{}, admission_us);
        trace_.record(std::move(trace));
      }
      if (done) done(std::move(response));
      return;
    }
    // kFlag: the first flagging policy wins the annotation; the request
    // still runs the rest of the chain and is served.
    if (!response.flagged) {
      response.flagged = true;
      response.admission_score = verdict.score;
      response.admission_policy = policy->name();
      response.admission_test = std::move(verdict.test);
      response.admission_reason = std::move(verdict.reason);
    }
  }
  const auto admitted = std::chrono::steady_clock::now();
  const double admission_us = elapsed_us(t0, admitted);
  admission_hist_->record(admission_us);

  ShardView view;
  view.shards = shards_.size();
  if (router_->needs_load()) {
    // Per-thread reusable buffer: load-aware routing costs no allocation
    // on the submit hot path after a thread's first call.
    static thread_local std::vector<std::size_t> depths;
    depths.clear();
    for (const auto& shard : shards_) depths.push_back(shard->queue_depth());
    view.queue_depths = depths;
  }
  std::size_t shard = router_->route(request.building, request.fingerprint, view);
  if (shard >= shards_.size()) shard = shards_.size() - 1;
  response.shard = static_cast<int>(shard);
  const double routing_us =
      elapsed_us(admitted, std::chrono::steady_clock::now());
  routing_hist_->record(routing_us);

  // Counted before the shard sees the query: the backend may complete it
  // (answered or failed) on this thread before submit() returns, and a
  // caller that got its response must find it in stats().
  submitted_.fetch_add(1, std::memory_order_relaxed);
  routed_[shard].fetch_add(1, std::memory_order_relaxed);
  if (response.flagged) {
    flagged_.fetch_add(1, std::memory_order_relaxed);
    if (response.admission_test == "rce") {
      flagged_rce_.fetch_add(1, std::memory_order_relaxed);
    } else if (response.admission_test == "envelope") {
      flagged_envelope_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const int building = request.building;
  shards_[shard]->submit(
      building, std::move(request.fingerprint),
      [this, response = std::move(response), done = std::move(done), t0, seq,
       sampled, admission_us, routing_us, building,
       shard](QueryResult result) mutable {
        const double e2e_us = elapsed_us(t0, std::chrono::steady_clock::now());
        e2e_hist_->record(e2e_us);
        if (sampled) {
          telemetry::TraceRecord trace;
          trace.request_seq = seq;
          trace.building = building;
          trace.shard = static_cast<int>(shard);
          trace.admission =
              response.flagged ? "flag:" + response.admission_test : "ok";
          trace.spans =
              build_spans(admission_us, routing_us, result.stages, e2e_us);
          trace_.record(std::move(trace));
        }
        if (result.outcome != QueryOutcome::kOk) {
          // A refused or unreachable query degrades the service instead of
          // taking it down: the request completes kFailed, keeps its
          // admission verdict, and the error is attributed to the shard.
          failed_.fetch_add(1, std::memory_order_relaxed);
          shard_errors_[shard].fetch_add(1, std::memory_order_relaxed);
          response.status = Response::Status::kFailed;
          response.error = std::move(result.error);
        } else {
          response.query = std::move(result);
        }
        if (done) done(std::move(response));
      });
}

std::future<Response> LocalizationService::submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit(std::move(request), [promise](Response response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void LocalizationService::drain() {
  for (const auto& shard : shards_) shard->drain();
}

LocalizationService::Stats LocalizationService::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.flagged = flagged_.load(std::memory_order_relaxed);
  stats.flagged_rce = flagged_rce_.load(std::memory_order_relaxed);
  stats.flagged_envelope = flagged_envelope_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.routed.reserve(shards_.size());
  stats.shard_errors.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    stats.routed.push_back(routed_[s].load(std::memory_order_relaxed));
    stats.shard_errors.push_back(
        shard_errors_[s].load(std::memory_order_relaxed));
  }
  // Fleet metrics view: the front door's own stage histograms merged with
  // every shard's. Histogram merges are pure integer accumulation, so the
  // result is bit-consistent regardless of shard order — and a remote
  // shard's snapshot (shipped over SFRP) merges exactly like a local one.
  stats.metrics = metrics_.snapshot();
  for (const auto& shard : shards_) {
    stats.metrics.merge(shard->telemetry_snapshot());
  }
  return stats;
}

}  // namespace safeloc::serve
