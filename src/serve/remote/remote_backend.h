// RemoteBackend — a QueryBackend whose executor lives in another process.
//
// Each instance holds a small pool of connections to one shard_server and
// speaks pipelined SFRP (wire.h): every request frame carries a correlation
// id, a dedicated reader thread per connection demultiplexes replies (which
// may arrive out of order) back to their pending completions, and a bounded
// in-flight window applies backpressure to submitters. Because it
// implements the same QueryBackend contract as QueryEngine, a
// LocalizationService can mix local and remote shards freely — routing,
// admission, two-phase publish, and stats all work unchanged; this is the
// seam backend.h promised ("a shard can live behind a wire without the
// front door noticing").
//
// One query path. submit() enqueues the query, sends it as soon as a
// window slot is free (coalescing up to max_batch queued queries into one
// kQueryBatch frame; a lone query is a batch of one), and returns; the
// reader thread completes the callback when the reply lands. With
// max_batch = 1, submit() also blocks until its own frame is on the wire,
// so a full window pushes back on the caller. Like every QueryBackend,
// submit() never throws for a query: a failure completes the callback with
// QueryResult::outcome = kRefused / kUnavailable, on whichever thread sees
// it (the reader, or the submitter itself when the shard cannot be
// reached).
//
// Control RPCs (stage/commit/abort/stats/health) always block for their
// own reply; the 2PC publish path keeps its strict ordering because each
// step completes before the next is issued.
//
// Failure semantics, mapped onto the backend contract:
//   * Transport failures fail the whole connection: every pending query
//     on it completes kUnavailable and every blocked control RPC throws
//     BackendUnavailable — never silently dropped — and the next submit
//     reconnects from scratch. A frame that was sent is NEVER re-sent: the
//     client cannot know whether the server executed it, and blind re-send
//     could double-execute a publish step. (Queries still queued
//     client-side were never on the wire, so they may be flushed to a
//     fresh connection safely.)
//   * Connect failures after the retry budget complete every queued
//     query kUnavailable (the submitting one included) and throw
//     BackendUnavailable from a control RPC; the service turns the failed
//     queries into Response::kFailed and the rest of the fleet keeps
//     serving.
//   * A query the shard refuses (undeployed building, wrong width)
//     completes kRefused.
//   * kError replies to control RPCs re-raise as the exception the
//     local backend would have thrown: std::invalid_argument (refused
//     request), std::logic_error (commit with nothing staged), WireError
//     otherwise.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/backend.h"
#include "src/serve/remote/socket.h"
#include "src/serve/remote/wire.h"
#include "src/util/sync.h"

namespace safeloc::serve::remote {

struct RemoteBackendConfig {
  /// shard_server address ("unix:<path>" | "tcp:host:port").
  std::string address;
  /// Per-attempt connect deadline.
  std::chrono::milliseconds connect_timeout{2000};
  /// Reply deadline: a reader thread with completions pending that sees no
  /// bytes for this long fails the connection. 0 disables.
  std::chrono::milliseconds io_timeout{10000};
  /// Connect attempts before an RPC gives up (>= 1).
  int connect_retries = 3;
  /// Sleep between failed connect attempts.
  std::chrono::milliseconds retry_backoff{100};
  /// Connections kept to the shard; queries round-robin across them.
  int pool_size = 1;
  /// Query frames allowed in flight per connection; queries submitted past
  /// the window wait in the client's queue.
  int max_in_flight = 1;
  /// Queued queries coalesced into one kQueryBatch frame when a window
  /// slot frees up. 1 sends one query per frame and makes submit() wait
  /// for a window slot (see header comment).
  std::size_t max_batch = 1;
};

class RemoteBackend final : public QueryBackend {
 public:
  explicit RemoteBackend(RemoteBackendConfig config);
  ~RemoteBackend() override;

  // --- QueryBackend ---------------------------------------------------------
  void stage(const ModelRecord& record) override;
  void commit_staged(int building) override;
  /// Best-effort: a transport failure during abort is swallowed (the
  /// publish unwind path must not throw; an unreachable shard's staged
  /// snapshot dies with its process anyway).
  void abort_staged(int building) noexcept override;
  /// Live answer from the shard's stats (a warm-loaded server knows models
  /// this client never published). Throws BackendUnavailable when the
  /// shard is unreachable.
  [[nodiscard]] std::uint32_t deployed_version(int building) const override;
  /// Resident models on the REMOTE shard — the partitioned-memory
  /// measurement. Throws BackendUnavailable when unreachable.
  [[nodiscard]] std::size_t deployed_model_count() const override;
  void submit(int building, std::vector<float> fingerprint,
              Callback done) override;
  /// Blocks until every accepted query has completed (answered or failed).
  void drain() override;
  /// Queries accepted but not yet completed (queued + in flight).
  [[nodiscard]] std::size_t queue_depth() const override;
  /// Local wire-leg histograms (stage.wire_serialize/rpc/deserialize_us)
  /// and net.* reliability counters, merged with the remote engine's
  /// registry fetched over a stats RPC. When the shard is unreachable the
  /// local half is returned alone — telemetry must not throw where serving
  /// degrades.
  [[nodiscard]] telemetry::RegistrySnapshot telemetry_snapshot()
      const override;

  // --- operational RPCs -----------------------------------------------------
  [[nodiscard]] ShardStats shard_stats() const;
  [[nodiscard]] HealthInfo health() const;

  [[nodiscard]] const RemoteBackendConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One completion slot in a connection's demux map, keyed by correlation
  /// id. Exactly one member is active, per `kind`.
  struct Pending {
    enum class Kind { kRpc, kBatch };
    Kind kind = Kind::kRpc;
    /// kRpc: a blocked caller waits on this future for the raw reply.
    std::shared_ptr<std::promise<Frame>> reply;
    /// kBatch: completion callbacks in request order, each with its submit
    /// timestamp (for latency_us).
    struct Completion {
      Callback done;
      std::chrono::steady_clock::time_point submitted;
    };
    std::vector<Completion> completions;
    /// When the frame hit the wire (stage.wire_rpc_us) and how long its
    /// encode took (stage.wire_serialize_us, shared by batch entries).
    std::chrono::steady_clock::time_point sent;
    double serialize_us = 0.0;
  };

  /// Every field below `socket` is guarded by the owning backend's
  /// `mutex_` — the analysis cannot express a guard that lives in the
  /// enclosing class, so the discipline here is structural: Conn objects
  /// are only ever reached through `pool_` (itself GUARDED_BY(mutex_)) or
  /// the reader thread's shared_ptr, and every reader-side access takes
  /// `mutex_` first. `socket` is internally synchronized (atomic fd) so
  /// send/recv/shutdown run off-lock by design.
  struct Conn {
    Socket socket;
    std::thread reader;
    std::uint64_t next_cid = 1;
    /// Outstanding query frames (window accounting; control RPCs are not
    /// windowed).
    std::size_t in_flight = 0;
    bool dead = false;
    std::map<std::uint64_t, Pending> pending;
  };

  /// A submitted query waiting for a window slot.
  struct Queued {
    int building = 0;
    std::vector<float> fingerprint;
    Callback done;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point submitted;
  };

  [[nodiscard]] std::size_t queue_cap() const noexcept;

  /// Reconnects every dead/missing pool slot (reaping the old reader
  /// threads first). Throws BackendUnavailable — after failing every
  /// still-queued query — when zero connections can be established within
  /// the retry budget. mutex_ must be held on entry and is held on return;
  /// it is released (sync::ReleasableLock) during connect attempts.
  void ensure_pool() const SAFELOC_REQUIRES(mutex_);
  /// Sends as many queued queries as window slots allow, coalescing up to
  /// max_batch per frame. Failed connections are drained into
  /// `failed_pending` for completion once the caller drops the lock.
  void flush_locked(std::vector<Pending>* failed_pending) const
      SAFELOC_REQUIRES(mutex_);
  /// Marks `conn` dead, wakes waiters, and moves its pending map out for
  /// the caller to complete (kUnavailable / BackendUnavailable) off-lock.
  std::vector<Pending> fail_conn_locked(Conn& conn) const
      SAFELOC_REQUIRES(mutex_);
  /// Completes failed pendings and queued queries with kUnavailable.
  /// Called without the lock held; the caller must have incremented
  /// completing_ under the lock (decremented here when done) so drain()
  /// cannot return while these callbacks are still running.
  void complete_unavailable(std::vector<Pending> pending,
                            std::vector<Queued> queued,
                            const std::string& reason) const
      SAFELOC_EXCLUDES(mutex_);
  /// Completes a kBatch Pending from its reply frame: decode, wire-leg
  /// histograms, callbacks. Called without the lock held; same
  /// completing_ contract as complete_unavailable.
  void complete_query(Pending pending, Frame frame) const
      SAFELOC_EXCLUDES(mutex_);
  [[nodiscard]] bool any_live_locked() const noexcept
      SAFELOC_REQUIRES(mutex_);
  [[nodiscard]] std::size_t live_count_locked() const noexcept
      SAFELOC_REQUIRES(mutex_);
  /// Round-robin pick among live connections; nullptr when none.
  [[nodiscard]] Conn* pick_live_locked(bool windowed) const noexcept
      SAFELOC_REQUIRES(mutex_);
  /// drain()'s wait key: the loop sleeps until any component moves (every
  /// state transition that could let drain progress changes one of them
  /// and notifies cv_).
  struct DrainState {
    std::size_t queued = 0;
    std::size_t in_flight = 0;
    std::size_t completing = 0;
    std::size_t live = 0;
    bool stopping = false;
    bool operator==(const DrainState&) const = default;
  };
  [[nodiscard]] DrainState drain_state_locked() const
      SAFELOC_REQUIRES(mutex_);
  /// Blocking control RPC through the demux machinery; reconnects when no
  /// connection is live. kError replies re-raise per the map above.
  Frame rpc(MessageType type, const std::string& payload) const
      SAFELOC_EXCLUDES(mutex_);
  /// Reader-thread body: demultiplex replies on `conn` until EOF/failure.
  void reader_loop(std::shared_ptr<Conn> conn) const;
  /// Dispatches one reply frame to its Pending. Returns false when the
  /// frame does not match any pending id (protocol skew — caller fails the
  /// connection).
  bool dispatch_reply(std::shared_ptr<Conn> conn, Frame frame) const;

  RemoteBackendConfig config_;
  mutable sync::Mutex mutex_;
  mutable sync::CondVar cv_;
  /// Fixed pool_size slots; a slot is empty until first use and may hold a
  /// dead connection awaiting reap.
  mutable std::vector<std::shared_ptr<Conn>> pool_ SAFELOC_GUARDED_BY(mutex_);
  mutable std::size_t next_conn_ SAFELOC_GUARDED_BY(mutex_) = 0;
  mutable bool connecting_ SAFELOC_GUARDED_BY(mutex_) = false;
  mutable bool stopping_ SAFELOC_GUARDED_BY(mutex_) = false;
  /// Mutable for the same reason as pool_: reader threads (spawned from
  /// const RPC paths) flush the queue when window slots free up.
  mutable std::deque<Queued> queue_ SAFELOC_GUARDED_BY(mutex_);
  mutable std::uint64_t next_seq_ SAFELOC_GUARDED_BY(mutex_) = 1;
  /// Callback deliveries in progress off-lock (one unit per pending
  /// complete_query / complete_unavailable call). drain() waits for zero:
  /// a window slot frees BEFORE its callback runs, so queue+in_flight
  /// alone would let drain() return mid-callback.
  mutable std::size_t completing_ SAFELOC_GUARDED_BY(mutex_) = 0;

  /// Wire-leg histograms are recorded for query frames only (publish and
  /// stats RPCs would pollute the serving-stage view); the net.* counters
  /// cover every RPC — they are the degradation-attribution signal.
  mutable telemetry::MetricsRegistry metrics_;
  telemetry::LatencyHistogram* wire_serialize_hist_;
  telemetry::LatencyHistogram* wire_rpc_hist_;
  telemetry::LatencyHistogram* wire_deserialize_hist_;
  telemetry::LatencyHistogram* in_flight_hist_;
  telemetry::Gauge* pool_gauge_;
  telemetry::Counter* connects_;
  telemetry::Counter* connect_retries_;
  telemetry::Counter* connect_failures_;
  telemetry::Counter* rpc_failures_;
  telemetry::Counter* pipelined_rpcs_;
  telemetry::Counter* batch_frames_;
  telemetry::Counter* batched_queries_;
};

/// Connects to `address` and asks the shard_server to exit (kShutdown,
/// awaits the ack) — the clean fleet-teardown path for benches and CI.
/// Throws BackendUnavailable when the shard cannot be reached.
void request_shutdown(const std::string& address,
                      std::chrono::milliseconds timeout);

}  // namespace safeloc::serve::remote
