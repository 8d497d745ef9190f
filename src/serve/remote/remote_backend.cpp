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
  flusher_ = std::thread([this] { flusher_loop(); });
}

RemoteBackend::~RemoteBackend() {
  {
    const sync::MutexLock lock(mutex_);
    stopping_ = true;
    cv_.notify_all();
    flush_cv_.notify_all();
  }
  // The flusher finishes any write it is in and exits; after the join this
  // thread is the only one left touching the pool's reader threads.
  flusher_.join();
  std::vector<std::thread> readers;
  {
    const sync::MutexLock lock(mutex_);
    for (auto& slot : pool_) {
      if (!slot) continue;
      slot->socket.shutdown();  // wake the reader blocked in recv
      if (slot->reader.joinable()) readers.push_back(std::move(slot->reader));
    }
  }
  for (std::thread& reader : readers) reader.join();
  // Each reader failed its connection's pendings on the way out; queued
  // queries and control RPCs that were never sent complete here.
  const sync::MutexLock lock(mutex_);
  fail_queued_locked("RemoteBackend: backend destroyed");
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

std::shared_ptr<RemoteBackend::Conn> RemoteBackend::pick_live_locked(
    bool windowed) {
  const std::size_t n = pool_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (next_conn_ + i) % n;
    const std::shared_ptr<Conn>& conn = pool_[slot];
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
    Conn& conn) {
  conn.dead = true;
  conn.socket.shutdown();
  std::vector<Pending> failed;
  failed.reserve(conn.pending.size());
  for (auto& [cid, pending] : conn.pending) {
    outstanding_ -= pending.completions.size();
    failed.push_back(std::move(pending));
  }
  conn.pending.clear();
  conn.in_flight = 0;
  pool_gauge_->set(static_cast<std::int64_t>(live_count_locked()));
  cv_.notify_all();
  flush_cv_.notify_one();  // queued work now needs a reconnect
  return failed;
}

void RemoteBackend::fail_queued_locked(std::string reason) {
  std::vector<Queued> queued(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(queue_.end()));
  std::vector<Control> controls(std::make_move_iterator(control_.begin()),
                                std::make_move_iterator(control_.end()));
  queue_.clear();
  control_.clear();
  outstanding_ -= queued.size();
  completing_ += 1;
  cv_.notify_all();
  const sync::ReleasableLock unlocked(mutex_);
  complete_unavailable({}, std::move(queued), std::move(controls), reason);
}

void RemoteBackend::complete_unavailable(std::vector<Pending> pending,
                                         std::vector<Queued> queued,
                                         std::vector<Control> control,
                                         const std::string& reason) {
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
  for (Control& entry : control) entry.reply->set_exception(exception);
  const sync::MutexLock lock(mutex_);
  completing_ -= 1;
  cv_.notify_all();
}

void RemoteBackend::flusher_loop() {
  const sync::MutexLock lock(mutex_);
  for (;;) {
    flush_cv_.wait(mutex_, [this] {
      mutex_.assert_held();  // lambda body: capability not propagated
      return stopping_ || flusher_has_work_locked();
    });
    if (stopping_) return;
    if (connect_due_locked() && !ensure_pool()) continue;
    if (!control_.empty()) {
      send_control_locked();
    } else {
      send_batch_locked();
    }
  }
}

bool RemoteBackend::connect_due_locked() const {
  bool live = false;
  bool empty = false;
  for (const auto& slot : pool_) {
    if (slot && !slot->dead) {
      live = true;
    } else {
      empty = true;
    }
  }
  return !live ||
         (empty && std::chrono::steady_clock::now() >= reconnect_at_);
}

bool RemoteBackend::flusher_has_work_locked() const {
  if (queue_.empty() && control_.empty()) return false;
  if (connect_due_locked() || !control_.empty()) return true;
  for (const auto& slot : pool_) {
    if (slot && !slot->dead &&
        slot->in_flight < static_cast<std::size_t>(config_.max_in_flight)) {
      return true;
    }
  }
  return false;
}

bool RemoteBackend::ensure_pool() {
  // Reap dead connections. Their readers may be inside their own failure
  // path waiting for this mutex, so the joins run off-lock.
  std::vector<std::shared_ptr<Conn>> dead;
  for (auto& slot : pool_) {
    if (slot && slot->dead) dead.push_back(std::move(slot));
  }
  if (!dead.empty()) {
    const sync::ReleasableLock unlocked(mutex_);
    for (const auto& conn : dead) {
      if (conn->reader.joinable()) conn->reader.join();
    }
  }
  if (std::chrono::steady_clock::now() < reconnect_at_) {
    // The last budget failed moments ago: keep serving on what is live, or
    // fail fast instead of spending another budget on a shard that just
    // refused every attempt.
    if (any_live_locked()) return true;
    fail_queued_locked(connect_error_);
    return false;
  }

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
          // The backoff ends early when the backend is destroyed.
          const sync::MutexLock relock(mutex_);
          if (flush_cv_.wait_for(mutex_, config_.retry_backoff, [this] {
                mutex_.assert_held();  // lambda body: not propagated
                return stopping_;
              })) {
            break;
          }
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
  // Destroyed out from under the connect attempt: the fresh sockets close
  // with their shared_ptrs, no readers to clean up.
  if (stopping_) return false;
  for (auto& [slot, conn] : fresh) {
    std::shared_ptr<Conn> shared = conn;
    shared->reader = std::thread([this, shared] { reader_loop(shared); });
    pool_[slot] = std::move(conn);
  }
  pool_gauge_->set(static_cast<std::int64_t>(live_count_locked()));
  if (fresh.size() == want.size()) return true;
  reconnect_at_ = std::chrono::steady_clock::now() + config_.retry_backoff;
  connect_error_ = "RemoteBackend: shard " + config_.address +
                   " unreachable after " +
                   std::to_string(config_.connect_retries) +
                   " attempt(s): " + last_error;
  if (any_live_locked()) return true;
  connect_failures_->add();
  // Queued queries were never on the wire, but with no connection coming
  // they must fail loudly, not sit forever.
  fail_queued_locked(connect_error_);
  return false;
}

void RemoteBackend::send_control_locked() {
  const std::shared_ptr<Conn> conn = pick_live_locked(/*windowed=*/false);
  if (!conn) return;
  Control request = std::move(control_.front());
  control_.pop_front();
  const std::uint64_t cid = conn->next_cid++;
  Pending pending;
  pending.kind = Pending::Kind::kRpc;
  pending.reply = std::move(request.reply);
  // Registered before the write: the reply can land before this thread
  // takes the lock again.
  conn->pending.emplace(cid, std::move(pending));
  try {
    const sync::ReleasableLock unlocked(mutex_);
    send_frame(conn->socket, request.type, request.payload, cid);
  } catch (const SocketError& transport) {
    // A failed control frame is never retried: the connection's failure
    // path fails its promise with the rest of the connection's pendings.
    fail_written_conn_locked(*conn, transport.what());
  } catch (const WireError& refused) {
    refuse_unsent_locked(*conn, cid, refused);
  }
}

void RemoteBackend::send_batch_locked() {
  const std::shared_ptr<Conn> conn = pick_live_locked(/*windowed=*/true);
  if (!conn || queue_.empty()) return;
  conn->in_flight += 1;  // claim the window slot before dropping the lock
  const std::size_t take = std::min(config_.max_batch, queue_.size());
  std::vector<Queued> taken;
  taken.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    taken.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  const auto requeue = [&] {
    for (std::size_t i = take; i > 0; --i) {
      queue_.push_front(std::move(taken[i - 1]));
    }
  };

  std::string payload;
  double serialize_us = 0.0;
  {
    const sync::ReleasableLock unlocked(mutex_);
    const auto encode_start = std::chrono::steady_clock::now();
    std::vector<QueryRequest> batch(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch[i] = std::move(taken[i].query);
    }
    payload = encode_query_batch(batch);
    for (std::size_t i = 0; i < take; ++i) {
      taken[i].query = std::move(batch[i]);
    }
    serialize_us = us_since(encode_start);
  }
  if (conn->dead) {
    // The connection failed while the frame was encoded (its window was
    // reset with it); nothing was sent, so the queries wait for the next.
    requeue();
    return;
  }

  const std::uint64_t cid = conn->next_cid++;
  Pending pending;
  pending.kind = Pending::Kind::kBatch;
  pending.completions.reserve(take);
  for (Queued& entry : taken) {
    pending.completions.push_back({std::move(entry.done), entry.submitted});
  }
  pending.sent = std::chrono::steady_clock::now();
  pending.serialize_us = serialize_us;
  const std::size_t depth = conn->in_flight - 1;  // frames already out
  in_flight_hist_->record(static_cast<double>(depth));
  if (depth > 0) pipelined_rpcs_->add();
  if (take > 1) {
    batch_frames_->add();
    batched_queries_->add(take);
  }
  // Registered before the write: the reply can land before this thread
  // takes the lock again.
  conn->pending.emplace(cid, std::move(pending));

  std::string failure;
  try {
    const sync::ReleasableLock unlocked(mutex_);
    send_frame(conn->socket, MessageType::kQueryBatch, payload, cid);
    return;
  } catch (const SocketError& transport) {
    failure = transport.what();
  } catch (const WireError& refused) {
    refuse_unsent_locked(*conn, cid, refused);
    return;
  }
  // The frame never fully reached the peer (a partial write is a torn frame
  // the server drops, never executes), so its queries go back to the queue
  // for the next connection — this is NOT a re-send of a sent frame. If the
  // reader already failed the connection, it completed them instead.
  const auto it = conn->pending.find(cid);
  if (it != conn->pending.end()) {
    for (std::size_t i = 0; i < take; ++i) {
      taken[i].done = std::move(it->second.completions[i].done);
    }
    conn->pending.erase(it);
    requeue();
  }
  fail_written_conn_locked(*conn, failure);
}

void RemoteBackend::refuse_unsent_locked(Conn& conn, std::uint64_t cid,
                                         const WireError& refused) {
  const auto it = conn.pending.find(cid);
  if (it == conn.pending.end()) return;  // its reader failed the connection
  Pending pending = std::move(it->second);
  conn.pending.erase(it);
  if (pending.kind == Pending::Kind::kRpc) {
    pending.reply->set_exception(std::make_exception_ptr(refused));
    return;
  }
  conn.in_flight -= 1;
  outstanding_ -= pending.completions.size();
  completing_ += 1;
  cv_.notify_all();
  {
    const sync::ReleasableLock unlocked(mutex_);
    for (const Pending::Completion& completion : pending.completions) {
      complete_failed(completion.done, completion.submitted,
                      QueryOutcome::kRefused, refused.what());
    }
  }
  completing_ -= 1;
  cv_.notify_all();
}

void RemoteBackend::fail_written_conn_locked(Conn& conn,
                                             const std::string& what) {
  rpc_failures_->add();
  if (conn.dead) return;  // its reader failed it and completed its pendings
  std::vector<Pending> failed = fail_conn_locked(conn);
  completing_ += 1;
  const sync::ReleasableLock unlocked(mutex_);
  complete_unavailable(std::move(failed), {}, {},
                       "RemoteBackend: shard " + config_.address +
                           " write failed: " + what);
}

void RemoteBackend::reader_loop(const std::shared_ptr<Conn>& conn) {
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
    if (!dispatch_reply(*conn, std::move(frame))) {
      reason = "reply with unknown correlation id (protocol skew)";
      break;
    }
  }

  // Queued (never-sent) queries stay queued: the flusher reconnects for
  // them, or fails them if the shard cannot be reached.
  std::vector<Pending> failed;
  {
    const sync::MutexLock lock(mutex_);
    failed = fail_conn_locked(*conn);
    if (failed.empty()) return;
    rpc_failures_->add(failed.size());
    completing_ += 1;
  }
  complete_unavailable(std::move(failed), {}, {},
                       "RemoteBackend: shard " + config_.address +
                           " connection lost: " + reason);
}

bool RemoteBackend::dispatch_reply(Conn& conn, Frame frame) {
  Pending pending;
  bool wake_flusher = false;
  {
    const sync::MutexLock lock(mutex_);
    const auto it = conn.pending.find(frame.correlation_id);
    if (it == conn.pending.end()) return false;
    pending = std::move(it->second);
    conn.pending.erase(it);
    if (pending.kind != Pending::Kind::kRpc) {
      if (conn.in_flight > 0) conn.in_flight -= 1;
      outstanding_ -= pending.completions.size();
      completing_ += 1;
      wake_flusher = !queue_.empty();  // a window slot just freed
    }
  }
  if (pending.kind == Pending::Kind::kRpc) {
    pending.reply->set_value(std::move(frame));
    return true;
  }
  // Notified after the unlock, so the woken threads do not block on it.
  cv_.notify_all();
  if (wake_flusher) flush_cv_.notify_one();
  complete_query(std::move(pending), std::move(frame));
  return true;
}

void RemoteBackend::complete_query(Pending pending, Frame frame) {
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

Frame RemoteBackend::rpc(MessageType type, std::string payload) const {
  Control request;
  request.type = type;
  request.payload = std::move(payload);
  request.reply = std::make_shared<std::promise<Frame>>();
  std::future<Frame> future = request.reply->get_future();
  {
    const sync::MutexLock lock(mutex_);
    if (stopping_) throw BackendUnavailable("RemoteBackend: stopped");
    if (!any_live_locked() &&
        std::chrono::steady_clock::now() < reconnect_at_) {
      throw BackendUnavailable(connect_error_);  // unreachable, fail fast
    }
    control_.push_back(std::move(request));
    flush_cv_.notify_one();
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
  entry.query.building = building;
  entry.query.fingerprint = std::move(fingerprint);
  entry.done = std::move(done);
  entry.submitted = std::chrono::steady_clock::now();
  bool stopped = false;
  {
    const sync::MutexLock lock(mutex_);
    // Backpressure: queued + in-flight queries stay below queue_cap().
    cv_.wait(mutex_, [this] {
      mutex_.assert_held();  // lambda body: capability not propagated
      return stopping_ || outstanding_ < queue_cap();
    });
    stopped = stopping_;
    if (stopped) {
      completing_ += 1;
    } else {
      queue_.push_back(std::move(entry));
      outstanding_ += 1;
    }
  }
  if (!stopped) {
    flush_cv_.notify_one();
    return;
  }
  std::vector<Queued> refused;
  refused.push_back(std::move(entry));
  complete_unavailable({}, std::move(refused), {}, "RemoteBackend: stopped");
}

void RemoteBackend::drain() {
  const sync::MutexLock lock(mutex_);
  cv_.wait(mutex_, [this] {
    mutex_.assert_held();  // lambda body: capability not propagated
    return outstanding_ == 0 && completing_ == 0;
  });
}

std::size_t RemoteBackend::queue_depth() const {
  const sync::MutexLock lock(mutex_);
  return outstanding_;
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
