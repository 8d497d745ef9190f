// LocalizationService — the serving layer's front door.
//
// One object owns the whole serving fleet: N QueryBackend shards (QueryEngine
// worker pools in production, SyncBackend in tests), a pluggable Router that
// places every request on a shard, and an ordered AdmissionPolicy chain that
// can flag or reject requests before they reach a shard (PoisonGate carries
// SAFELOC's poison detection onto this path). Callers stop hand-wiring
// ModelStore → ServingNet → QueryEngine and instead:
//
//   serve::LocalizationService service({.shards = 4});
//   service.set_router(serve::make_router("hash"));
//   service.add_admission(std::make_unique<serve::PoisonGate>());
//   service.publish(store.latest("SAFELOC/b1"));
//   serve::Response response =
//       service.submit({.building = 1, .fingerprint = x}).get();
//
// publish() is all-or-nothing across the fleet: every target shard stages
// the record (validation, snapshot extraction, remote transfer) before any
// shard commits, and a single stage failure aborts the staged snapshots
// everywhere — the fleet never settles with shards on different versions.
// Once publish() returns, all subsequent submissions are answered by the
// new version on whichever target shard they route to (each shard's commit
// is itself atomic — in-flight batches finish on the snapshot they started
// with).
//
// Fleets can run *replicated* (default: every shard holds every model, any
// router applies) or *partitioned* (set_partition: each building lives only
// on its owning shard — per-shard memory O(owned buildings) — publish()
// targets the owner alone and routing must follow the map, i.e.
// PartitionRouter).
//
// Configuration (set_router / add_admission / set_partition) is meant for
// service bring-up, before traffic flows; publish() and submit() are safe
// from any thread at any time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/serve/admission.h"
#include "src/serve/backend.h"
#include "src/serve/partition.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/telemetry/registry.h"
#include "src/serve/telemetry/trace.h"
#include "src/util/sync.h"

namespace safeloc::serve {

struct ServiceConfig {
  /// QueryEngine shards to own (ignored by the bring-your-own-backends
  /// constructor).
  int shards = 1;
  /// Per-shard engine configuration.
  QueryEngineConfig engine{};
};

/// One localization request.
struct Request {
  int building = 0;
  /// Standardized fingerprint (rss::kFeatureDim for paper models).
  std::vector<float> fingerprint;
};

struct Response {
  enum class Status {
    kAnswered,  ///< Routed and answered; `query` is valid.
    kRejected,  ///< Stopped by an admission policy; `query` is empty.
    kFailed,    ///< Routed shard refused the query or could not run it
                ///< (QueryOutcome kRefused / kUnavailable); `query` is
                ///< empty, `error` says why, the admission fields are kept.
                ///< Other shards keep serving.
  };
  Status status = Status::kAnswered;
  /// Backend failure detail; set only for kFailed.
  std::string error;
  /// An admission policy found the request suspicious (set for rejections
  /// and for flagged-but-answered requests).
  bool flagged = false;
  double admission_score = 0.0;
  /// Policy that flagged/rejected; empty when the request passed clean.
  std::string admission_policy;
  /// Stable id of the policy-internal test that flagged (PoisonGate:
  /// "rce" / "envelope"); empty when the request passed clean.
  std::string admission_test;
  std::string admission_reason;
  /// Shard that answered; -1 for rejections.
  int shard = -1;
  QueryResult query;
};

class LocalizationService {
 public:
  /// Production constructor: owns `config.shards` QueryEngine shards.
  explicit LocalizationService(ServiceConfig config = {});
  /// Bring-your-own-backends constructor (tests, custom fleets). Throws
  /// std::invalid_argument when `shards` is empty or holds a null.
  explicit LocalizationService(
      std::vector<std::unique_ptr<QueryBackend>> shards);
  ~LocalizationService();

  LocalizationService(const LocalizationService&) = delete;
  LocalizationService& operator=(const LocalizationService&) = delete;

  /// Replaces the routing policy (default: HashRouter). Non-null.
  void set_router(std::unique_ptr<Router> router);
  [[nodiscard]] const Router& router() const { return *router_; }

  /// Appends a policy to the admission chain (inspected in append order).
  void add_admission(std::unique_ptr<AdmissionPolicy> policy);

  /// Switches the fleet to partitioned deployment: publish() targets only
  /// the owning shard of each building. Pair with a PartitionRouter built
  /// from the same map. Throws std::invalid_argument when the map's shard
  /// count does not match the fleet width.
  void set_partition(PartitionMap partition);
  /// The active partition map; nullptr for replicated fleets. The pointer
  /// stays valid until the next set_partition() — callers hold it only
  /// across code that cannot race a partition swap (bring-up, stats).
  [[nodiscard]] const PartitionMap* partition() const {
    const sync::MutexLock lock(publish_mutex_);
    return partition_ ? &*partition_ : nullptr;
  }

  /// Two-phase deploy of `record` to every target shard (the owner under a
  /// partition, the whole fleet otherwise), then calibrates the admission
  /// chain. All-or-nothing: if any shard refuses the record, every staged
  /// snapshot is aborted, the fleet keeps serving its previous versions,
  /// and the failure is rethrown. After it returns, every new submission
  /// for the record's building is answered at `record.version` on
  /// whichever target shard it routes to.
  void publish(const ModelRecord& record);

  /// Publishes the newest version of every model in the store. Returns how
  /// many records were published.
  std::size_t publish_latest(const ModelStore& store);

  /// Version publish() last installed for `building`; 0 when none.
  [[nodiscard]] std::uint32_t published_version(int building) const;

  /// Admission chain → router → shard. `done` runs exactly once: after the
  /// forward pass, or kRejected / kFailed when admission or the shard stops
  /// the request (possibly on the calling thread, before submit returns).
  /// Never throws for a per-request failure.
  void submit(Request request, std::function<void(Response)> done);

  /// Future-returning convenience wrapper.
  [[nodiscard]] std::future<Response> submit(Request request);

  /// Blocks until every routed query has completed.
  void drain();

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Direct shard access (diagnostics, tests).
  [[nodiscard]] QueryBackend& shard(std::size_t index) {
    return *shards_.at(index);
  }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    /// Flagged but still routed (then answered or failed).
    std::uint64_t flagged = 0;
    /// Flag/reject attribution by PoisonGate test id ("rce" / "envelope"):
    /// which detector fired, not just that one did. Covers both rejected
    /// and flagged-but-answered requests.
    std::uint64_t flagged_rce = 0;
    std::uint64_t flagged_envelope = 0;
    /// Routed submissions completed kFailed: the shard refused the query
    /// or could not run it. Each is also counted in `routed` and
    /// `shard_errors`.
    std::uint64_t failed = 0;
    /// Queries routed to each shard.
    std::vector<std::uint64_t> routed;
    /// Backend failures per shard — the degradation signal a fleet
    /// operator alarms on (one dead remote shard shows up here while the
    /// rest of the fleet keeps serving).
    std::vector<std::uint64_t> shard_errors;
    /// The fleet metrics view: this service's own per-stage histograms
    /// (stage.admission_us / routing_us / e2e_us) merged with every
    /// shard's telemetry_snapshot() — for remote shards that includes the
    /// histograms the shard_server shipped over the wire, so a local and a
    /// remote fleet expose the same stage set here.
    telemetry::RegistrySnapshot metrics;
  };
  [[nodiscard]] Stats stats() const;

  /// Sampled trace spans (enable with SAFELOC_TRACE_SAMPLE=N); dump via
  /// trace().write_json(path).
  [[nodiscard]] telemetry::TraceCollector& trace() noexcept { return trace_; }

 private:
  void init_metrics();

  // Declared before shards_ on purpose: QueryEngine callbacks record into
  // these histograms / the trace ring until the engines join their workers
  // during shards_'s destruction, so the telemetry must be destroyed AFTER
  // the shards (i.e. declared before them).
  telemetry::MetricsRegistry metrics_;
  telemetry::LatencyHistogram* admission_hist_ = nullptr;
  telemetry::LatencyHistogram* routing_hist_ = nullptr;
  telemetry::LatencyHistogram* e2e_hist_ = nullptr;
  telemetry::TraceCollector trace_;

  std::vector<std::unique_ptr<QueryBackend>> shards_;
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<AdmissionPolicy>> admission_;

  /// Serializes whole publish() calls (deploys + calibration + version)
  /// and guards the partition map they target.
  mutable sync::Mutex publish_mutex_;
  std::optional<PartitionMap> partition_ SAFELOC_GUARDED_BY(publish_mutex_);
  mutable sync::Mutex published_mutex_;
  std::map<int, std::uint32_t> published_versions_
      SAFELOC_GUARDED_BY(published_mutex_);

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> flagged_{0};
  std::atomic<std::uint64_t> flagged_rce_{0};
  std::atomic<std::uint64_t> flagged_envelope_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> routed_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_errors_;
  /// Monotonic request id for trace records.
  std::atomic<std::uint64_t> request_seq_{0};
};

}  // namespace safeloc::serve
