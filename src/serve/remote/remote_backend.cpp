#include "src/serve/remote/remote_backend.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace safeloc::serve::remote {
namespace {

[[noreturn]] void raise_error_reply(const ErrorReply& error) {
  // Re-raise the server-side exception as the type the local backend
  // would have thrown, so call sites cannot tell the shard is remote.
  if (error.kind == "invalid_argument") {
    throw std::invalid_argument(error.message);
  }
  if (error.kind == "logic_error") {
    throw std::logic_error(error.message);
  }
  throw WireError("remote shard error: " + error.message);
}

/// A refused query completing through a callback instead of a throw: the
/// kinds a local backend would have thrown map to kRefused, anything else
/// (server-side runtime failure) to kUnavailable.
QueryOutcome outcome_for_error(const ErrorReply& error) {
  if (error.kind == "invalid_argument" || error.kind == "logic_error") {
    return QueryOutcome::kRefused;
  }
  return QueryOutcome::kUnavailable;
}

double us_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Completes one query with a failure `outcome`.
void complete_failed(const QueryBackend::Callback& done,
                     std::chrono::steady_clock::time_point submitted,
                     QueryOutcome outcome, std::string error) {
  if (!done) return;
  QueryResult result = failed_result(outcome, std::move(error));
  result.latency_us = us_since(submitted);
  done(std::move(result));
}

}  // namespace

RemoteBackend::RemoteBackend(RemoteBackendConfig config)
    : config_(std::move(config)),
      wire_serialize_hist_(&metrics_.histogram("stage.wire_serialize_us")),
      wire_rpc_hist_(&metrics_.histogram("stage.wire_rpc_us")),
      wire_deserialize_hist_(&metrics_.histogram("stage.wire_deserialize_us")),
      in_flight_hist_(&metrics_.histogram("net.in_flight_depth")),
      pool_gauge_(&metrics_.gauge("net.pool_size")),
      connects_(&metrics_.counter("net.connects")),
      connect_retries_(&metrics_.counter("net.connect_retries")),
      connect_failures_(&metrics_.counter("net.connect_failures")),
      rpc_failures_(&metrics_.counter("net.rpc_failures")),
      pipelined_rpcs_(&metrics_.counter("net.pipelined_rpcs")),
      batch_frames_(&metrics_.counter("net.batch_frames")),
      batched_queries_(&metrics_.counter("net.batched_queries")) {
  if (config_.address.empty()) {
    throw std::invalid_argument("RemoteBackend: empty shard address");
  }
  if (config_.connect_retries < 1) {
    throw std::invalid_argument("RemoteBackend: connect_retries must be >= 1");
  }
  if (config_.pool_size < 1) {
    throw std::invalid_argument("RemoteBackend: pool_size must be >= 1");
  }
  if (config_.max_in_flight < 1) {
    throw std::invalid_argument("RemoteBackend: max_in_flight must be >= 1");
  }
  if (config_.max_batch < 1 || config_.max_batch > kMaxBatchQueries) {
    throw std::invalid_argument("RemoteBackend: max_batch out of range");
  }
  pool_.resize(static_cast<std::size_t>(config_.pool_size));
}

RemoteBackend::~RemoteBackend() {
  std::vector<std::thread> readers;
  {
    const sync::MutexLock lock(mutex_);
    stopping_ = true;
    for (auto& slot : pool_) {
      if (!slot) continue;
      slot->socket.shutdown();  // wake the reader blocked in recv
      if (slot->reader.joinable()) readers.push_back(std::move(slot->reader));
    }
    cv_.notify_all();
  }
  for (std::thread& reader : readers) reader.join();
  // Readers failed their connections' pendings on the way out; anything
  // left (queued queries never flushed, pendings on a connection whose
  // reader never started) completes here.
  std::vector<Pending> leftover;
  std::vector<Queued> orphans;
  {
    const sync::MutexLock lock(mutex_);
    for (auto& slot : pool_) {
      if (!slot) continue;
      std::vector<Pending> failed = fail_conn_locked(*slot);
      std::move(failed.begin(), failed.end(), std::back_inserter(leftover));
    }
    orphans.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
    queue_.clear();
    completing_ += 1;
  }
  complete_unavailable(std::move(leftover), std::move(orphans),
                       "RemoteBackend: backend destroyed");
}

std::size_t RemoteBackend::queue_cap() const noexcept {
  return static_cast<std::size_t>(config_.pool_size) *
         static_cast<std::size_t>(config_.max_in_flight) * config_.max_batch;
}

bool RemoteBackend::any_live_locked() const noexcept {
  for (const auto& slot : pool_) {
    if (slot && !slot->dead) return true;
  }
  return false;
}

std::size_t RemoteBackend::live_count_locked() const noexcept {
  std::size_t live = 0;
  for (const auto& slot : pool_) {
    if (slot && !slot->dead) ++live;
  }
  return live;
}

RemoteBackend::Conn* RemoteBackend::pick_live_locked(
    bool windowed) const noexcept {
  const std::size_t n = pool_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (next_conn_ + i) % n;
    Conn* conn = pool_[slot].get();
    if (!conn || conn->dead) continue;
    if (windowed &&
        conn->in_flight >=
            static_cast<std::size_t>(config_.max_in_flight)) {
      continue;
    }
    next_conn_ = (slot + 1) % n;
    return conn;
  }
  return nullptr;
}

std::vector<RemoteBackend::Pending> RemoteBackend::fail_conn_locked(
    Conn& conn) const {
  conn.dead = true;
  conn.socket.shutdown();
  std::vector<Pending> failed;
  failed.reserve(conn.pending.size());
  for (auto& [cid, pending] : conn.pending) {
    failed.push_back(std::move(pending));
  }
  conn.pending.clear();
  conn.in_flight = 0;
  pool_gauge_->set(static_cast<std::int64_t>(live_count_locked()));
  cv_.notify_all();
  return failed;
}

void RemoteBackend::complete_unavailable(std::vector<Pending> pending,
                                         std::vector<Queued> queued,
                                         const std::string& reason) const {
  const auto exception =
      std::make_exception_ptr(BackendUnavailable(reason));
  for (Pending& entry : pending) {
    if (entry.kind == Pending::Kind::kRpc) {
      entry.reply->set_exception(exception);
      continue;
    }
    for (const Pending::Completion& completion : entry.completions) {
      complete_failed(completion.done, completion.submitted,
                      QueryOutcome::kUnavailable, reason);
    }
  }
  for (const Queued& entry : queued) {
    complete_failed(entry.done, entry.submitted, QueryOutcome::kUnavailable,
                    reason);
  }
  const sync::MutexLock lock(mutex_);
  completing_ -= 1;
  cv_.notify_all();
}

void RemoteBackend::ensure_pool() const {
  for (;;) {
    if (stopping_) throw BackendUnavailable("RemoteBackend: stopped");
    // Reap a dead connection's reader off-lock — it may be inside its own
    // failure path waiting for this mutex.
    std::shared_ptr<Conn> reap;
    for (auto& slot : pool_) {
      if (slot && slot->dead && slot->reader.joinable()) {
        reap = slot;
        break;
      }
    }
    if (reap) {
      std::thread dead_reader = std::move(reap->reader);
      {
        const sync::ReleasableLock unlocked(mutex_);
        dead_reader.join();
      }
      continue;  // re-scan: state may have moved while unlocked
    }
    for (auto& slot : pool_) {
      if (slot && slot->dead) slot.reset();
    }
    bool missing = false;
    for (const auto& slot : pool_) {
      if (!slot) missing = true;
    }
    if (!missing) return;
    if (!connecting_) break;  // this thread connects
    cv_.wait(mutex_, [this] {
      mutex_.assert_held();  // lambda body: capability not propagated
      return !connecting_ || stopping_;
    });
  }

  connecting_ = true;
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (!pool_[i]) want.push_back(i);
  }
  // Connect attempts run unlocked: live connections (other slots) keep
  // completing replies while this thread sleeps through the retry budget.
  std::vector<std::pair<std::size_t, std::shared_ptr<Conn>>> fresh;
  std::string last_error;
  {
    const sync::ReleasableLock unlocked(mutex_);
    for (const std::size_t slot : want) {
      std::shared_ptr<Conn> conn;
      for (int attempt = 0; attempt < config_.connect_retries; ++attempt) {
        if (attempt > 0) {
          connect_retries_->add();
          std::this_thread::sleep_for(config_.retry_backoff);
        }
        try {
          Socket socket =
              Socket::connect(config_.address, config_.connect_timeout);
          if (config_.io_timeout.count() > 0) {
            socket.set_io_timeout(config_.io_timeout);
          }
          conn = std::make_shared<Conn>();
          conn->socket = std::move(socket);
          connects_->add();
          break;
        } catch (const SocketError& refused) {
          last_error = refused.what();
        }
      }
      if (!conn) break;  // a dead shard fails every further slot the same way
      fresh.emplace_back(slot, std::move(conn));
    }
  }
  connecting_ = false;
  cv_.notify_all();
  if (stopping_) {
    // The backend was destroyed out from under the connect attempt; the
    // fresh sockets close with their shared_ptrs, no readers to clean up.
    throw BackendUnavailable("RemoteBackend: stopped");
  }
  for (auto& [slot, conn] : fresh) {
    std::shared_ptr<Conn> shared = conn;
    shared->reader = std::thread([this, shared] { reader_loop(shared); });
    pool_[slot] = std::move(conn);
  }
  pool_gauge_->set(static_cast<std::int64_t>(live_count_locked()));
  if (!any_live_locked()) {
    connect_failures_->add();
    const std::string reason =
        "RemoteBackend: shard " + config_.address + " unreachable after " +
        std::to_string(config_.connect_retries) +
        " attempt(s): " + last_error;
    // Queued queries were never on the wire, but with no connection coming
    // they must fail loudly, not sit forever.
    std::vector<Queued> orphans(std::make_move_iterator(queue_.begin()),
                                std::make_move_iterator(queue_.end()));
    queue_.clear();
    completing_ += 1;
    {
      const sync::ReleasableLock unlocked(mutex_);
      complete_unavailable({}, std::move(orphans), reason);
    }
    throw BackendUnavailable(reason);
  }
}

void RemoteBackend::flush_locked(std::vector<Pending>* failed_pending) const {
  bool progressed = false;
  while (!queue_.empty()) {
    Conn* conn = pick_live_locked(/*windowed=*/true);
    if (!conn) break;
    const std::size_t take = std::min(config_.max_batch, queue_.size());
    std::vector<Queued> taken;
    taken.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      taken.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }

    const auto encode_start = std::chrono::steady_clock::now();
    std::vector<QueryRequest> batch(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch[i].building = taken[i].building;
      batch[i].fingerprint = std::move(taken[i].fingerprint);
    }
    const std::string payload = encode_query_batch(batch);
    for (std::size_t i = 0; i < take; ++i) {
      taken[i].fingerprint = std::move(batch[i].fingerprint);
    }
    const double serialize_us = us_since(encode_start);

    const std::uint64_t cid = conn->next_cid++;
    try {
      send_frame(conn->socket, MessageType::kQueryBatch, payload, cid);
    } catch (const SocketError&) {
      // The frame never fully reached the peer (a partial write is a torn
      // frame the server drops, never executes), so these queries may be
      // re-flushed to another connection — this is NOT a re-send of a
      // sent frame. The connection itself is gone.
      rpc_failures_->add();
      std::vector<Pending> failed = fail_conn_locked(*conn);
      std::move(failed.begin(), failed.end(),
                std::back_inserter(*failed_pending));
      for (std::size_t i = take; i > 0; --i) {
        queue_.push_front(std::move(taken[i - 1]));
      }
      continue;
    }

    Pending pending;
    pending.kind = Pending::Kind::kBatch;
    pending.completions.reserve(take);
    for (Queued& entry : taken) {
      pending.completions.push_back(
          {std::move(entry.done), entry.submitted});
    }
    pending.sent = std::chrono::steady_clock::now();
    pending.serialize_us = serialize_us;
    in_flight_hist_->record(static_cast<double>(conn->in_flight));
    if (conn->in_flight > 0) pipelined_rpcs_->add();
    if (take > 1) {
      batch_frames_->add();
      batched_queries_->add(take);
    }
    conn->pending.emplace(cid, std::move(pending));
    conn->in_flight += 1;
    progressed = true;
  }
  if (progressed) cv_.notify_all();
}

void RemoteBackend::reader_loop(std::shared_ptr<Conn> conn) const {
  FrameReader reader(conn->socket);
  std::string reason;
  for (;;) {
    Frame frame;
    FrameReader::Next got;
    try {
      got = reader.next(frame);
    } catch (const std::exception& failure) {
      reason = failure.what();
      break;
    }
    if (got == FrameReader::Next::kEof) {
      reason = "connection closed by peer";
      break;
    }
    if (got == FrameReader::Next::kTimeout) {
      bool idle = false;
      {
        const sync::MutexLock lock(mutex_);
        idle = conn->pending.empty();
      }
      if (idle) continue;  // idle connection, nothing owed
      reason = "reply deadline expired with RPCs in flight";
      break;
    }
    if (!dispatch_reply(conn, std::move(frame))) {
      reason = "reply with unknown correlation id (protocol skew)";
      break;
    }
  }

  std::vector<Pending> failed;
  std::vector<Queued> orphans;
  bool deliver = false;
  {
    const sync::MutexLock lock(mutex_);
    failed = fail_conn_locked(*conn);
    if (!failed.empty()) rpc_failures_->add(failed.size());
    // With no live connection left, queued (never-sent) queries have
    // nobody to flush them until a future submit reconnects — fail them
    // now rather than let their callers hang. A sent frame is never
    // re-sent; these were never sent.
    if (!any_live_locked() && !queue_.empty()) {
      orphans.assign(std::make_move_iterator(queue_.begin()),
                     std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    deliver = !failed.empty() || !orphans.empty();
    if (deliver) completing_ += 1;
  }
  if (deliver) {
    complete_unavailable(std::move(failed), std::move(orphans),
                         "RemoteBackend: shard " + config_.address +
                             " connection lost: " + reason);
  }
}

bool RemoteBackend::dispatch_reply(std::shared_ptr<Conn> conn,
                                   Frame frame) const {
  Pending pending;
  std::vector<Pending> failed;
  {
    const sync::MutexLock lock(mutex_);
    const auto it = conn->pending.find(frame.correlation_id);
    if (it == conn->pending.end()) return false;
    pending = std::move(it->second);
    conn->pending.erase(it);
    if (pending.kind != Pending::Kind::kRpc) {
      if (conn->in_flight > 0) conn->in_flight -= 1;
      // A window slot just freed: push queued work before completing, so
      // the wire never idles while the client holds ready queries.
      flush_locked(&failed);
      completing_ += failed.empty() ? 1 : 2;
      cv_.notify_all();
    }
  }
  if (pending.kind == Pending::Kind::kRpc) {
    pending.reply->set_value(std::move(frame));
    return true;
  }
  if (!failed.empty()) {
    complete_unavailable(std::move(failed), {},
                         "RemoteBackend: shard " + config_.address +
                             " connection lost mid-flush");
  }
  complete_query(std::move(pending), std::move(frame));
  return true;
}

void RemoteBackend::complete_query(Pending pending, Frame frame) const {
  const double rpc_us = us_since(pending.sent);
  wire_serialize_hist_->record(pending.serialize_us);
  wire_rpc_hist_->record(rpc_us);

  const auto fail_all = [&](QueryOutcome outcome, const std::string& error) {
    for (const Pending::Completion& completion : pending.completions) {
      complete_failed(completion.done, completion.submitted, outcome, error);
    }
  };

  // Delivery lives in a lambda so its early returns cannot skip the
  // completing_ decrement below — drain() hangs forever if they do.
  [&] {
    try {
      if (frame.type == MessageType::kError) {
        // The server refused the whole frame (it could not decode it) —
        // every rider fails the same way.
        const ErrorReply error = decode_error(frame.payload);
        fail_all(outcome_for_error(error), error.message);
        return;
      }
      if (frame.type != MessageType::kQueryBatchReply) {
        fail_all(QueryOutcome::kUnavailable,
                 "RemoteBackend: unexpected reply type to query batch");
        return;
      }
      const auto decode_start = std::chrono::steady_clock::now();
      std::vector<BatchReplyEntry> entries =
          decode_query_batch_reply(frame.payload);
      const double deserialize_us = us_since(decode_start);
      wire_deserialize_hist_->record(deserialize_us);
      if (entries.size() != pending.completions.size()) {
        fail_all(QueryOutcome::kUnavailable,
                 "RemoteBackend: batch reply entry count mismatch");
        return;
      }
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const Pending::Completion& completion = pending.completions[i];
        if (!entries[i].ok) {
          complete_failed(completion.done, completion.submitted,
                          outcome_for_error(entries[i].error),
                          std::move(entries[i].error.message));
          continue;
        }
        QueryResult result = std::move(entries[i].result);
        result.stages.wire_serialize_us = pending.serialize_us;
        result.stages.wire_rpc_us = rpc_us;
        result.stages.wire_deserialize_us = deserialize_us;
        result.latency_us = us_since(completion.submitted);
        if (completion.done) completion.done(std::move(result));
      }
    } catch (const WireError& skew) {
      // The reply payload did not decode — the stream itself is still
      // framed correctly, so only this frame's riders fail.
      fail_all(QueryOutcome::kUnavailable, skew.what());
    }
  }();
  const sync::MutexLock lock(mutex_);
  completing_ -= 1;
  cv_.notify_all();
}

Frame RemoteBackend::rpc(MessageType type, const std::string& payload) const {
  std::future<Frame> future;
  std::vector<Pending> failed;
  std::string fail_reason;
  {
    const sync::MutexLock lock(mutex_);
    if (stopping_) throw BackendUnavailable("RemoteBackend: stopped");
    ensure_pool();
    Conn* conn = pick_live_locked(/*windowed=*/false);
    if (!conn) throw BackendUnavailable("RemoteBackend: no live connection");
    Pending pending;
    pending.kind = Pending::Kind::kRpc;
    pending.reply = std::make_shared<std::promise<Frame>>();
    future = pending.reply->get_future();
    const std::uint64_t cid = conn->next_cid++;
    try {
      send_frame(conn->socket, type, payload, cid);
    } catch (const SocketError& transport) {
      rpc_failures_->add();
      failed = fail_conn_locked(*conn);
      completing_ += 1;
      fail_reason = "RemoteBackend: shard " + config_.address +
                    " failed mid-RPC: " + transport.what();
    }
    if (fail_reason.empty()) conn->pending.emplace(cid, std::move(pending));
  }
  if (!fail_reason.empty()) {
    complete_unavailable(std::move(failed), {}, fail_reason);
    throw BackendUnavailable(fail_reason);
  }
  // The reader thread completes (or fails) the promise; a lost reply is
  // bounded by io_timeout via the reader's reply deadline.
  Frame reply = future.get();
  if (reply.type == MessageType::kError) {
    // The server handled the request and refused it — the connection
    // stays healthy; only this call fails.
    raise_error_reply(decode_error(reply.payload));
  }
  return reply;
}

void RemoteBackend::stage(const ModelRecord& record) {
  const Frame reply =
      rpc(MessageType::kPublishStage, encode_publish_stage(record));
  if (reply.type != MessageType::kPublishReply) {
    throw WireError("RemoteBackend: unexpected reply to stage");
  }
}

void RemoteBackend::commit_staged(int building) {
  PublishCommit commit;
  commit.building = building;
  // Informational only: the server records the authoritative version from
  // its own engine after the swap (it staged the record; the client may
  // not even know the version).
  commit.version = 0;
  const Frame reply =
      rpc(MessageType::kPublishCommit, encode_publish_commit(commit));
  if (reply.type != MessageType::kPublishReply) {
    throw WireError("RemoteBackend: unexpected reply to commit");
  }
}

void RemoteBackend::abort_staged(int building) noexcept {
  try {
    (void)rpc(MessageType::kPublishAbort, encode_publish_abort(building));
  } catch (...) {
    // Unwind path: an unreachable shard's staged snapshot dies with its
    // process; nothing useful to do here.
  }
}

std::uint32_t RemoteBackend::deployed_version(int building) const {
  const ShardStats stats = shard_stats();
  for (const auto& [deployed_building, version] : stats.deployed) {
    if (deployed_building == building) return version;
  }
  return 0;
}

std::size_t RemoteBackend::deployed_model_count() const {
  return static_cast<std::size_t>(shard_stats().resident_models);
}

void RemoteBackend::submit(int building, std::vector<float> fingerprint,
                           Callback done) {
  Queued entry;
  entry.building = building;
  entry.fingerprint = std::move(fingerprint);
  entry.done = std::move(done);
  entry.submitted = std::chrono::steady_clock::now();
  std::vector<Pending> failed;
  bool deliver = false;
  {
    const sync::MutexLock lock(mutex_);
    cv_.wait(mutex_, [this] {
      mutex_.assert_held();  // lambda body: capability not propagated
      return stopping_ || queue_.size() < queue_cap();
    });
    if (stopping_) {
      std::vector<Queued> stopped;
      stopped.push_back(std::move(entry));
      completing_ += 1;
      const sync::ReleasableLock unlocked(mutex_);
      complete_unavailable({}, std::move(stopped), "RemoteBackend: stopped");
      return;
    }
    const std::uint64_t seq = next_seq_++;
    entry.seq = seq;
    queue_.push_back(std::move(entry));
    try {
      ensure_pool();
    } catch (const BackendUnavailable&) {
      // The shard is unreachable: ensure_pool failed every queued query,
      // this one included, through its callback.
    }
    flush_locked(&failed);

    if (config_.max_batch <= 1) {
      // Window-full backpressure: without batching there is nothing useful
      // to coalesce, so submit blocks until its frame is on the wire (the
      // queue is FIFO — our entry is gone once the head seq passes ours)
      // or until the entry was failed (its callback already ran).
      while (!stopping_) {
        if (queue_.empty() || queue_.front().seq > seq) break;
        if (!any_live_locked()) {
          try {
            ensure_pool();
          } catch (const BackendUnavailable&) {
            break;  // ensure_pool failed our queued entry via its callback
          }
          flush_locked(&failed);
          continue;
        }
        // Predicate wait (rule R8): wake when our entry has left the queue
        // (flushed to the wire or failed), the pool has died (the reconnect
        // branch above takes over), or the backend is stopping. These are
        // exactly the loop's own recheck conditions.
        cv_.wait(mutex_, [this, seq] {
          mutex_.assert_held();  // lambda body: capability not propagated
          return stopping_ || queue_.empty() || queue_.front().seq > seq ||
                 !any_live_locked();
        });
      }
    }
    deliver = !failed.empty();
    if (deliver) completing_ += 1;
  }
  if (deliver) {
    complete_unavailable(std::move(failed), {},
                         "RemoteBackend: shard " + config_.address +
                             " connection lost mid-flush");
  }
}

RemoteBackend::DrainState RemoteBackend::drain_state_locked() const {
  DrainState state;
  state.queued = queue_.size();
  for (const auto& slot : pool_) {
    if (slot) state.in_flight += slot->in_flight;
  }
  state.completing = completing_;
  state.live = live_count_locked();
  state.stopping = stopping_;
  return state;
}

void RemoteBackend::drain() {
  const sync::MutexLock lock(mutex_);
  for (;;) {
    std::vector<Pending> failed;
    flush_locked(&failed);
    if (!failed.empty()) {
      completing_ += 1;
      {
        const sync::ReleasableLock unlocked(mutex_);
        complete_unavailable(std::move(failed), {},
                             "RemoteBackend: shard " + config_.address +
                                 " connection lost mid-flush");
      }
      continue;
    }
    const DrainState seen = drain_state_locked();
    if (seen.queued == 0 && seen.in_flight == 0 && seen.completing == 0) {
      return;
    }
    if (seen.queued > 0 && !any_live_locked()) {
      try {
        ensure_pool();
      } catch (const BackendUnavailable&) {
        continue;  // queued entries were failed; loop re-checks emptiness
      }
      continue;
    }
    // Predicate wait (rule R8): sleep until the drain-relevant state moves
    // at all — every transition that could let the loop progress (a window
    // slot freeing, a callback finishing, a connection dying or arriving,
    // new work queued) changes one DrainState component and notifies cv_.
    cv_.wait(mutex_, [this, seen] {
      mutex_.assert_held();  // lambda body: capability not propagated
      return !(drain_state_locked() == seen);
    });
  }
}

std::size_t RemoteBackend::queue_depth() const {
  const sync::MutexLock lock(mutex_);
  std::size_t depth = queue_.size();
  for (const auto& slot : pool_) {
    if (slot) depth += slot->in_flight;
  }
  return depth;
}

telemetry::RegistrySnapshot RemoteBackend::telemetry_snapshot() const {
  telemetry::RegistrySnapshot local = metrics_.snapshot();
  try {
    local.merge(shard_stats().telemetry);
  } catch (const BackendUnavailable&) {
    // Unreachable shard: the local wire-side view is still worth having.
  }
  return local;
}

ShardStats RemoteBackend::shard_stats() const {
  const Frame reply = rpc(MessageType::kStatsRequest, "");
  if (reply.type != MessageType::kStatsReply) {
    throw WireError("RemoteBackend: unexpected reply to stats request");
  }
  return decode_stats_reply(reply.payload);
}

HealthInfo RemoteBackend::health() const {
  const Frame reply = rpc(MessageType::kHealthRequest, "");
  if (reply.type != MessageType::kHealthReply) {
    throw WireError("RemoteBackend: unexpected reply to health request");
  }
  return decode_health_reply(reply.payload);
}

void request_shutdown(const std::string& address,
                      std::chrono::milliseconds timeout) {
  try {
    Socket socket = Socket::connect(address, timeout);
    socket.set_io_timeout(timeout);
    send_frame(socket, MessageType::kShutdown, "");
    Frame ack;
    if (!recv_frame(socket, ack) || ack.type != MessageType::kShutdownAck) {
      throw BackendUnavailable("request_shutdown: no ack from " + address);
    }
  } catch (const SocketError& refused) {
    throw BackendUnavailable("request_shutdown: " + address +
                             " unreachable: " + refused.what());
  }
}

}  // namespace safeloc::serve::remote
