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
// One query path, one writer. submit() enqueues the query, wakes the
// backend's flusher thread and returns. The flusher is the only thread that
// connects and the only one that writes to the sockets: whenever a
// connection has a window slot free it takes up to max_batch queued queries
// into one kQueryBatch frame (a lone query is a batch of one), registers
// the frame's completions, then encodes and sends it outside the backend
// lock, so the reader threads completing replies never wait on a send.
// Control RPCs are handed to the flusher too, so no two frames can
// interleave on a socket. One backpressure rule bounds the client: submit()
// blocks while queued + in-flight queries reach pool_size × max_in_flight ×
// max_batch, until a reply (or a failure) frees room. Like every
// QueryBackend, submit() never throws for a query: a failure completes the
// callback with QueryResult::outcome = kRefused / kUnavailable, on the
// reader or flusher thread (or on the submitter, when the backend is
// already stopping).
//
// Control RPCs (stage/commit/abort/stats/health) always block for their
// own reply; the 2PC publish path keeps its strict ordering because each
// step completes before the next is issued.
//
// Failure semantics, mapped onto the backend contract:
//   * Transport failures fail the whole connection: every pending query
//     on it completes kUnavailable and every blocked control RPC throws
//     BackendUnavailable — never silently dropped — and the flusher
//     reconnects when work is queued. A frame that was sent is NEVER
//     re-sent: the client cannot know whether the server executed it, and
//     blind re-send could double-execute a publish step. A query frame
//     whose write failed never reached the peer whole (the server drops a
//     torn frame unexecuted), so its queries go back to the queue.
//   * Connect failures after the retry budget complete every queued query
//     kUnavailable and fail every waiting control RPC with
//     BackendUnavailable; the service turns the failed queries into
//     Response::kFailed and the rest of the fleet keeps serving. For
//     retry_backoff after a failed budget the shard counts as unreachable:
//     queries complete kUnavailable and control RPCs throw at once, without
//     a new connect budget.
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
  /// the window wait in the client's queue for the flusher.
  int max_in_flight = 1;
  /// Most queued queries the flusher coalesces into one kQueryBatch frame.
  /// With max_in_flight and pool_size it also bounds the client: submit()
  /// blocks while queued + in-flight queries reach pool_size ×
  /// max_in_flight × max_batch (see header comment).
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
  /// Queries accepted but not yet answered or failed (queued + in flight).
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
    /// When the frame went to the wire (stage.wire_rpc_us) and how long its
    /// encode took (stage.wire_serialize_us, shared by batch entries).
    std::chrono::steady_clock::time_point sent;
    double serialize_us = 0.0;
  };

  /// Every field below `socket` is guarded by the owning backend's
  /// `mutex_` — the analysis cannot express a guard that lives in the
  /// enclosing class, so the discipline here is structural: Conn objects
  /// are only ever reached through `pool_` (itself GUARDED_BY(mutex_)), the
  /// reader thread's shared_ptr or the flusher's, and every access takes
  /// `mutex_` first. `socket` is internally synchronized (atomic fd) so
  /// send/recv/shutdown run off-lock by design; only the flusher sends.
  struct Conn {
    Socket socket;
    std::thread reader;
    std::uint64_t next_cid = 1;
    /// Query frames claimed or outstanding (window accounting; control RPCs
    /// are not windowed).
    std::size_t in_flight = 0;
    bool dead = false;
    std::map<std::uint64_t, Pending> pending;
  };

  /// A submitted query waiting for the flusher.
  struct Queued {
    QueryRequest query;
    Callback done;
    std::chrono::steady_clock::time_point submitted;
  };

  /// A control RPC waiting for the flusher; `reply` is its caller's future.
  struct Control {
    MessageType type = MessageType::kError;
    std::string payload;
    std::shared_ptr<std::promise<Frame>> reply;
  };

  [[nodiscard]] std::size_t queue_cap() const noexcept;

  /// Flusher-thread body: connects, then sends control frames and
  /// coalesced query frames until the backend stops.
  void flusher_loop() SAFELOC_EXCLUDES(mutex_);
  /// Whether the flusher can make progress: work is queued and either
  /// connect_due_locked() or a frame can go out now.
  [[nodiscard]] bool flusher_has_work_locked() const SAFELOC_REQUIRES(mutex_);
  /// Whether ensure_pool() has something to do: no connection is live, or
  /// a pool slot is empty and no connect budget failed in the last
  /// retry_backoff.
  [[nodiscard]] bool connect_due_locked() const SAFELOC_REQUIRES(mutex_);
  /// Reaps dead connections and reconnects every empty pool slot (releasing
  /// mutex_ during the attempts). Returns false — after failing every queued
  /// query and control RPC — when no connection is live, either because the
  /// retry budget ran out or because the last one ran out less than
  /// retry_backoff ago. Flusher only.
  bool ensure_pool() SAFELOC_REQUIRES(mutex_);
  /// Sends the oldest control RPC on any live connection. Flusher only.
  void send_control_locked() SAFELOC_REQUIRES(mutex_);
  /// Sends up to max_batch queued queries as one frame on a connection with
  /// a free window slot, if there is one. Flusher only.
  void send_batch_locked() SAFELOC_REQUIRES(mutex_);
  /// After send_frame refused frame `cid` before writing a byte (a frame
  /// over kMaxFrameBytes): fails only that frame's callers, a control RPC
  /// with the WireError, queries with kRefused.
  void refuse_unsent_locked(Conn& conn, std::uint64_t cid,
                            const WireError& refused) SAFELOC_REQUIRES(mutex_);
  /// After a failed write on `conn`: fails the connection (unless its
  /// reader already did) and completes its pendings off-lock.
  void fail_written_conn_locked(Conn& conn, const std::string& what)
      SAFELOC_REQUIRES(mutex_);
  /// Marks `conn` dead, wakes waiters, and moves its pending map out for
  /// the caller to complete (kUnavailable / BackendUnavailable) off-lock.
  std::vector<Pending> fail_conn_locked(Conn& conn) SAFELOC_REQUIRES(mutex_);
  /// Fails every queued query and control RPC with `reason`, off-lock.
  void fail_queued_locked(std::string reason) SAFELOC_REQUIRES(mutex_);
  /// Completes failed pendings, queued queries and control RPCs as
  /// unavailable. Called without the lock held; the caller must have
  /// incremented completing_ under the lock (decremented here when done)
  /// so drain() cannot return while these callbacks are still running.
  void complete_unavailable(std::vector<Pending> pending,
                            std::vector<Queued> queued,
                            std::vector<Control> control,
                            const std::string& reason)
      SAFELOC_EXCLUDES(mutex_);
  /// Completes a kBatch Pending from its reply frame: decode, wire-leg
  /// histograms, callbacks. Called without the lock held; same
  /// completing_ contract as complete_unavailable.
  void complete_query(Pending pending, Frame frame) SAFELOC_EXCLUDES(mutex_);
  [[nodiscard]] bool any_live_locked() const noexcept
      SAFELOC_REQUIRES(mutex_);
  [[nodiscard]] std::size_t live_count_locked() const noexcept
      SAFELOC_REQUIRES(mutex_);
  /// Round-robin pick among live connections (with a free window slot when
  /// `windowed`); nullptr when none.
  [[nodiscard]] std::shared_ptr<Conn> pick_live_locked(bool windowed)
      SAFELOC_REQUIRES(mutex_);
  /// Blocking control RPC, sent by the flusher. kError replies re-raise per
  /// the map above.
  Frame rpc(MessageType type, std::string payload) const
      SAFELOC_EXCLUDES(mutex_);
  /// Reader-thread body: demultiplex replies on `conn` until EOF/failure.
  void reader_loop(const std::shared_ptr<Conn>& conn);
  /// Dispatches one reply frame to its Pending. Returns false when the
  /// frame does not match any pending id (protocol skew — caller fails the
  /// connection).
  bool dispatch_reply(Conn& conn, Frame frame);

  RemoteBackendConfig config_;
  mutable sync::Mutex mutex_;
  /// Submitters (room under queue_cap) and drain() wait here.
  sync::CondVar cv_;
  /// The flusher waits here for work.
  mutable sync::CondVar flush_cv_;
  /// Fixed pool_size slots; a slot is empty until first use and may hold a
  /// dead connection awaiting reap.
  std::vector<std::shared_ptr<Conn>> pool_ SAFELOC_GUARDED_BY(mutex_);
  std::size_t next_conn_ SAFELOC_GUARDED_BY(mutex_) = 0;
  bool stopping_ SAFELOC_GUARDED_BY(mutex_) = false;
  std::deque<Queued> queue_ SAFELOC_GUARDED_BY(mutex_);
  /// Mutable because the const control RPCs (stats, health) enqueue here.
  mutable std::deque<Control> control_ SAFELOC_GUARDED_BY(mutex_);
  /// Queries accepted and not yet answered or failed: queued, being
  /// encoded, or in flight. The backpressure bound and queue_depth().
  std::size_t outstanding_ SAFELOC_GUARDED_BY(mutex_) = 0;
  /// Callback deliveries in progress off-lock (one unit per pending
  /// complete_query / complete_unavailable call). drain() waits for zero:
  /// outstanding_ drops BEFORE the callbacks run, so it alone would let
  /// drain() return mid-callback.
  std::size_t completing_ SAFELOC_GUARDED_BY(mutex_) = 0;
  /// retry_backoff after the last failed connect budget, and its reason.
  /// Until then no slot is reconnected, and with no connection live the
  /// shard counts as unreachable: queries and control RPCs fail at once.
  std::chrono::steady_clock::time_point reconnect_at_
      SAFELOC_GUARDED_BY(mutex_);
  std::string connect_error_ SAFELOC_GUARDED_BY(mutex_);

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
  /// Declared last: the flusher uses every member above.
  std::thread flusher_;
};

/// Connects to `address` and asks the shard_server to exit (kShutdown,
/// awaits the ack) — the clean fleet-teardown path for benches and CI.
/// Throws BackendUnavailable when the shard cannot be reached.
void request_shutdown(const std::string& address,
                      std::chrono::milliseconds timeout);

}  // namespace safeloc::serve::remote
