// ShardServer — one serving shard as a process: a QueryEngine behind the
// SFRP wire protocol.
//
// The server binds a listen address, accepts connections on a dedicated
// thread, and serves each connection with a read thread plus a writer
// thread speaking pipelined framing (wire.h): the read loop decodes
// requests and hands queries to the engine WITHOUT blocking on their
// results; each completion callback encodes a reply tagged with the
// request's correlation id and enqueues it to the connection's writer,
// which serializes replies onto the socket in COMPLETION order. A slow
// query therefore never convoys the queries behind it — replies simply
// overtake it on the wire and the client demultiplexes by correlation id.
// Control requests (publish/stats/health/shutdown) are handled inline on
// the read thread — cheap, and it preserves the strict ordering two-phase
// publish depends on (a client blocks for each control reply anyway).
// Clients are RemoteBackend instances inside a LocalizationService front
// door, plus operational callers (republish_daemon, health probes).
//
// Partition awareness: a server constructed with shard_index/shard_count
// (and optionally an explicit PartitionMap) REFUSES to stage models for
// buildings it does not own. That is the memory contract of a partitioned
// fleet — each process holds O(owned buildings) resident models, never
// O(all buildings) — enforced at the shard boundary, not trusted to the
// client. deploy_owned() warm-loads exactly the owned subset of a
// ModelStore before traffic arrives.
//
// Lifecycle: construct → start() (binds; throws on a taken address) →
// wait() blocks until either stop() is called locally or a peer sends
// kShutdown (the clean fleet-teardown path used by benches and CI).
// stop() closes the listener, half-closes every live connection so
// blocked reads wake, joins all threads, and stops the engine LAST — a
// handler waits for its outstanding engine callbacks before exiting, so
// the engine must still be live while handlers drain.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/model_store.h"
#include "src/serve/partition.h"
#include "src/serve/query_engine.h"
#include "src/serve/remote/socket.h"
#include "src/serve/remote/wire.h"
#include "src/util/sync.h"

namespace safeloc::serve::remote {

struct ShardServerConfig {
  /// Listen address ("unix:<path>" | "tcp:host:port"; tcp port 0 lets the
  /// kernel pick — read it back via local_port()).
  std::string address;
  /// This shard's position in the fleet; drives the partition filter.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Explicit ownership map; when absent, buildings are owned by FNV
  /// affinity (building_affinity(b, shard_count) == shard_index).
  std::optional<PartitionMap> partition;
  /// Embedded engine configuration.
  QueryEngineConfig engine{};
  /// Idle-connection deadline: a connection with no request for this long
  /// is dropped. 0 disables (a server mostly blocks waiting for the next
  /// request, so no deadline is the default).
  std::chrono::milliseconds io_timeout{0};
};

class ShardServer {
 public:
  explicit ShardServer(ShardServerConfig config);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds the listen address and starts accepting. Throws SocketError
  /// when the address is taken or malformed.
  void start();

  /// Kernel-assigned port after start() on "tcp:...:0".
  [[nodiscard]] std::uint16_t local_port() const;

  /// Warm-loads the newest version of every model in `store` this shard
  /// owns (partition filter applied). Returns how many were deployed.
  std::size_t deploy_owned(const ModelStore& store);

  /// Blocks until stop() is called or a peer sends kShutdown.
  void wait();

  /// Idempotent shutdown: listener closed, live connections half-closed,
  /// threads joined, engine stopped. The destructor calls it.
  void stop();

  /// True once a peer's kShutdown or a local stop() was seen.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Does this shard own `building` under its partition filter?
  [[nodiscard]] bool owns(int building) const;

  /// Local snapshot of what a kStatsRequest would report.
  [[nodiscard]] ShardStats stats() const;

  [[nodiscard]] QueryEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const ShardServerConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Per-connection shared state: the read loop produces replies (via
  /// engine callbacks or inline control handling), the writer thread
  /// consumes them. Engine callbacks hold a shared_ptr, so the state
  /// outlives the handler if a callback straggles.
  struct Connection {
    std::shared_ptr<Socket> socket;
    mutable sync::Mutex mutex;
    sync::CondVar cv;
    /// Completed replies awaiting the wire, in completion order.
    std::deque<Frame> write_queue SAFELOC_GUARDED_BY(mutex);
    /// Query frames handed to the engine whose reply is not yet enqueued.
    std::size_t outstanding SAFELOC_GUARDED_BY(mutex) = 0;
    /// Read loop done; the writer drains the queue and exits.
    bool closing SAFELOC_GUARDED_BY(mutex) = false;
    /// Writer is mid-send (queue empty does not mean flushed).
    bool sending SAFELOC_GUARDED_BY(mutex) = false;
    /// A send failed: the stream is dead, further replies are dropped.
    bool write_failed SAFELOC_GUARDED_BY(mutex) = false;
    std::thread writer;
  };

  void accept_loop();
  void serve_connection(std::shared_ptr<Socket> client);
  void writer_loop(const std::shared_ptr<Connection>& conn);
  /// Queues one reply frame for the writer (dropped after write failure).
  static void enqueue_reply(const std::shared_ptr<Connection>& conn,
                            Frame reply);
  /// Fans one kQueryBatch out to the engine; the LAST completion encodes
  /// the kQueryBatchReply (entries in request order) and enqueues it.
  void serve_query_batch(const std::shared_ptr<Connection>& conn,
                         const Frame& request);
  /// Builds the reply for one control request (publish/stats/health/
  /// shutdown; never kQueryBatch). Never throws; failures — including an
  /// unknown or retired message type — become kError replies.
  Frame handle_control(const Frame& request);

  ShardServerConfig config_;
  QueryEngine engine_;

  Socket listener_;
  std::thread accept_thread_;
  sync::Mutex threads_mutex_;
  std::vector<std::thread> connection_threads_
      SAFELOC_GUARDED_BY(threads_mutex_);
  /// Live connection sockets, half-closed by stop() to wake blocked reads.
  std::set<std::shared_ptr<Socket>> live_connections_
      SAFELOC_GUARDED_BY(threads_mutex_);

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_{false};
  /// Pairs with wait_cv_ only — wait() sleeps on the shutdown_ atomic's
  /// transition, so the mutex guards no data of its own.
  sync::Mutex wait_mutex_;
  sync::CondVar wait_cv_;

  std::atomic<std::uint64_t> queries_served_{0};
  /// Deploy bookkeeping for stats(): building → serving version, plus the
  /// buildings currently staged-but-uncommitted. The server mediates every
  /// stage/commit/abort, so this mirrors the engine's tables exactly.
  mutable sync::Mutex deploy_mutex_;
  std::map<int, std::uint32_t> deployed_ SAFELOC_GUARDED_BY(deploy_mutex_);
  std::set<int> staged_ SAFELOC_GUARDED_BY(deploy_mutex_);
};

}  // namespace safeloc::serve::remote
