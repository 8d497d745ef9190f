// QueryBackend — the narrow contract between the LocalizationService front
// door and whatever executes localization queries.
//
// The production backend is QueryEngine (micro-batching worker pool); the
// service shards requests across N of them. SyncBackend is the second
// implementation: it answers every query inline on the calling thread —
// deterministic, no queues — which makes service-level behaviour (routing,
// admission, publish atomicity) testable without timing sensitivity.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/rss/building.h"
#include "src/serve/model_store.h"
#include "src/serve/serving_net.h"
#include "src/serve/telemetry/registry.h"
#include "src/util/sync.h"

namespace safeloc::serve {

/// Per-query span breakdown of latency_us, filled by whichever backend
/// answered: QueryEngine reports queue_wait/batch_form/infer, SyncBackend
/// queue_wait (lock acquisition) + infer, RemoteBackend adds the wire legs
/// around the remote engine's stages. Unused stages stay 0. These feed the
/// sampled trace dump (telemetry/trace.h); the aggregate per-stage
/// histograms are recorded where the work happens, not from this struct.
struct StageTimings {
  double queue_wait_us = 0.0;
  double batch_form_us = 0.0;
  double infer_us = 0.0;
  double wire_serialize_us = 0.0;
  double wire_rpc_us = 0.0;
  double wire_deserialize_us = 0.0;
};

/// How a query ended — the one way any backend reports a per-query
/// failure: submit() never throws for one, it completes the callback with
/// a non-kOk outcome and `error` set. Client-side only, never serialized
/// (batch replies carry a per-entry ok/error pair on the wire instead).
enum class QueryOutcome : std::uint8_t {
  kOk = 0,
  /// The backend examined the query and refused it: no model deployed for
  /// the building, or a fingerprint of the wrong width.
  kRefused = 1,
  /// The backend could not run the query: engine stopped, or shard
  /// unreachable / connection lost with the query in flight.
  kUnavailable = 2,
};

struct QueryResult {
  int building = 0;
  /// Predicted reference point (argmax class).
  int rp = -1;
  /// Floorplan coordinates of the predicted RP, metres.
  rss::Point position{};
  /// Top-k RPs by softmax confidence, descending.
  std::vector<RankedClass> top_k;
  /// Version of the model snapshot that answered.
  std::uint32_t model_version = 0;
  /// Submit-to-completion latency.
  double latency_us = 0.0;
  /// Where latency_us went, stage by stage.
  StageTimings stages;
  /// kOk unless the backend refused or could not run the query;
  /// LocalizationService maps non-kOk to Response::kFailed.
  QueryOutcome outcome = QueryOutcome::kOk;
  /// Failure detail when outcome != kOk.
  std::string error;
};

/// An immutable deployed snapshot: the extracted classification net plus
/// the building's floorplan positions, shared by every backend.
struct DeployedModel {
  ServingNet net;
  std::vector<rss::Point> rp_positions;
  std::uint32_t version = 0;
};

/// Extracts a record into a DeployedModel, validating the classifier width
/// against the record's building RP count. `context` names the caller in
/// the error ("QueryEngine::deploy", ...).
[[nodiscard]] DeployedModel make_deployed_model(const ModelRecord& record,
                                                const char* context);

/// A failed query's result: `outcome` (never kOk) and `error`, nothing else.
[[nodiscard]] QueryResult failed_result(QueryOutcome outcome,
                                        std::string error);

/// Thrown by a control operation (stage, commit, stats, health, rpc) whose
/// executor is unreachable — remote shard process down, connection lost —
/// as opposed to std::invalid_argument for a request the backend examined
/// and refused. Queries never throw it; they complete kUnavailable.
class BackendUnavailable : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class QueryBackend {
 public:
  using Callback = std::function<void(QueryResult)>;

  virtual ~QueryBackend() = default;

  // --- two-phase deploy ----------------------------------------------------
  // stage() validates the record and prepares the snapshot aside (all the
  // fallible work: extraction, width checks, remote transfer); commit_staged()
  // atomically swaps the staged snapshot into serving; abort_staged() discards
  // it. LocalizationService publishes all-or-nothing across a fleet by
  // staging on every target shard before committing on any.

  /// Validates `record` and prepares its snapshot without serving it.
  /// Throws std::invalid_argument when the record's classifier width does
  /// not match the building's RP count (BackendUnavailable when the backend
  /// is unreachable). Re-staging a building replaces its staged snapshot.
  virtual void stage(const ModelRecord& record) = 0;

  /// Swaps `building`'s staged snapshot into serving. Throws
  /// std::logic_error when nothing is staged for `building`; local backends
  /// cannot otherwise fail (the fallible work happened in stage()).
  virtual void commit_staged(int building) = 0;

  /// Discards `building`'s staged snapshot, if any. Must not throw — it
  /// runs on the unwind path of a failed fleet-wide publish.
  virtual void abort_staged(int building) noexcept = 0;

  /// Single-shard convenience: stage + commit.
  void deploy(const ModelRecord& record);

  /// Version currently serving `building`; 0 when none deployed.
  [[nodiscard]] virtual std::uint32_t deployed_version(int building) const = 0;

  /// Models resident in this backend — the per-shard memory footprint
  /// signal (a partitioned shard holds O(owned buildings), not O(all)).
  [[nodiscard]] virtual std::size_t deployed_model_count() const = 0;

  /// Enqueues one query. `done` runs exactly once: with kOk after the
  /// forward pass, kRefused for an undeployed building or a wrong-width
  /// fingerprint, kUnavailable when the backend cannot run it. It may run
  /// on the calling thread before submit() returns. Never throws for a
  /// per-query failure.
  virtual void submit(int building, std::vector<float> fingerprint,
                      Callback done) = 0;

  /// Blocks until every submitted query has completed.
  virtual void drain() = 0;

  /// Queries accepted but not yet answered — the load signal
  /// LeastLoadedRouter shards by. Synchronous backends report 0.
  [[nodiscard]] virtual std::size_t queue_depth() const = 0;

  /// This backend's metrics (per-stage histograms, counters). For a remote
  /// backend this includes the remote engine's registry fetched over the
  /// wire, merged with the local wire-leg histograms; an unreachable shard
  /// degrades to the local half instead of throwing. Default: empty (a
  /// backend with no instrumentation).
  [[nodiscard]] virtual telemetry::RegistrySnapshot telemetry_snapshot()
      const {
    return {};
  }
};

/// The refusal check every local backend runs before accepting a query:
/// when `model` (null when none is deployed for `building`) cannot answer
/// a `width`-dim fingerprint, completes `done` kRefused with an error
/// prefixed by `context` and returns true.
bool refuse_query(const char* context, const DeployedModel* model,
                  int building, std::size_t width,
                  const QueryBackend::Callback& done);

/// Answers every query inline on the calling thread: one single-row forward
/// through the deployed snapshot, callback completed before submit()
/// returns. Serialized internally, so concurrent submitters are safe (they
/// just don't overlap). The time a submitter spends blocked on that
/// serialization IS this backend's queue — it is measured as the
/// stage.queue_wait_us histogram, which is what makes service-level
/// saturation observable even with a synchronous test backend.
class SyncBackend final : public QueryBackend {
 public:
  explicit SyncBackend(std::size_t top_k = 3);

  void stage(const ModelRecord& record) override;
  void commit_staged(int building) override;
  void abort_staged(int building) noexcept override;
  [[nodiscard]] std::uint32_t deployed_version(int building) const override;
  [[nodiscard]] std::size_t deployed_model_count() const override;
  void submit(int building, std::vector<float> fingerprint,
              Callback done) override;
  void drain() override {}
  [[nodiscard]] std::size_t queue_depth() const override { return 0; }
  [[nodiscard]] telemetry::RegistrySnapshot telemetry_snapshot()
      const override;

 private:
  std::size_t top_k_;
  /// Serializes both deploy bookkeeping AND inference itself — ws_/x_ are
  /// the single shared scratch this backend reuses per query, so the lock
  /// hold IS the backend's queue (measured as stage.queue_wait_us).
  mutable sync::Mutex mutex_;
  std::map<int, std::shared_ptr<const DeployedModel>> snapshots_
      SAFELOC_GUARDED_BY(mutex_);
  std::map<int, std::shared_ptr<const DeployedModel>> staged_
      SAFELOC_GUARDED_BY(mutex_);
  InferenceWorkspace ws_ SAFELOC_GUARDED_BY(mutex_);
  nn::Matrix x_ SAFELOC_GUARDED_BY(mutex_);
  telemetry::MetricsRegistry metrics_;
  telemetry::LatencyHistogram* queue_wait_hist_;
  telemetry::LatencyHistogram* infer_hist_;
};

}  // namespace safeloc::serve
