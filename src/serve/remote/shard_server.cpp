#include "src/serve/remote/shard_server.h"

#include <atomic>
#include <stdexcept>
#include <utility>


namespace safeloc::serve::remote {

ShardServer::ShardServer(ShardServerConfig config)
    : config_(std::move(config)), engine_(config_.engine) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("ShardServer: shard_count must be >= 1");
  }
  if (config_.shard_index >= config_.shard_count) {
    throw std::invalid_argument(
        "ShardServer: shard_index " + std::to_string(config_.shard_index) +
        " out of range for " + std::to_string(config_.shard_count) +
        " shard(s)");
  }
  if (config_.partition && config_.partition->shards != config_.shard_count) {
    throw std::invalid_argument(
        "ShardServer: partition map built for " +
        std::to_string(config_.partition->shards) +
        " shard(s), server configured for " +
        std::to_string(config_.shard_count));
  }
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::start() {
  listener_ = Socket::listen(config_.address);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t ShardServer::local_port() const { return listener_.local_port(); }

bool ShardServer::owns(int building) const {
  if (config_.shard_count <= 1) return true;
  if (config_.partition) return config_.partition->owns(config_.shard_index, building);
  return building_affinity(building, config_.shard_count) ==
         config_.shard_index;
}

std::size_t ShardServer::deploy_owned(const ModelStore& store) {
  std::size_t deployed = 0;
  for (const std::string& name : store.names()) {
    const ModelRecord& record = store.latest(name);
    if (!owns(record.provenance.building)) continue;
    engine_.deploy(record);
    {
      const sync::MutexLock lock(deploy_mutex_);
      deployed_[record.provenance.building] = record.version;
    }
    ++deployed;
  }
  return deployed;
}

void ShardServer::wait() {
  const sync::MutexLock lock(wait_mutex_);
  wait_cv_.wait(wait_mutex_, [this] {
    return shutdown_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
}

void ShardServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  shutdown_.store(true, std::memory_order_release);
  wait_cv_.notify_all();
  // shutdown() — not just close() — wakes a thread blocked in accept():
  // on Linux, closing an fd does not interrupt syscalls already sleeping
  // on it, but shutting the listener down makes accept return EINVAL.
  // close() waits until the accept thread has joined so the descriptor
  // can never be recycled while that thread still refers to it.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // With the accept loop gone no new connections can appear; wake every
  // live connection's blocked read and join the handlers. Each handler
  // waits for its outstanding engine callbacks and joins its writer, so
  // the engine must stop AFTER this join, never before.
  std::vector<std::thread> handlers;
  {
    const sync::MutexLock lock(threads_mutex_);
    for (const auto& client : live_connections_) client->shutdown();
    handlers = std::move(connection_threads_);
    connection_threads_.clear();
  }
  for (std::thread& handler : handlers) {
    if (handler.joinable()) handler.join();
  }
  engine_.stop();
}

ShardStats ShardServer::stats() const {
  ShardStats stats;
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.resident_models =
      static_cast<std::uint64_t>(engine_.deployed_model_count());
  stats.queue_depth = static_cast<std::uint64_t>(engine_.queue_depth());
  // The engine's per-stage histograms ride the stats reply: this is how a
  // remote shard's queue-wait/batch/inference tail reaches the client-side
  // fleet merge in LocalizationService::stats().
  stats.telemetry = engine_.telemetry_snapshot();
  const sync::MutexLock lock(deploy_mutex_);
  stats.staged_models = static_cast<std::uint64_t>(staged_.size());
  stats.deployed.reserve(deployed_.size());
  for (const auto& [building, version] : deployed_) {
    stats.deployed.emplace_back(building, version);
  }
  return stats;
}

void ShardServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket client;
    try {
      client = listener_.accept();
    } catch (const SocketError&) {
      // stop() closed the listener (the expected wake-up), or accept hit a
      // transient error; either way this loop cannot continue safely.
      return;
    }
    if (config_.io_timeout.count() > 0) {
      try {
        client.set_io_timeout(config_.io_timeout);
      } catch (const SocketError&) {
        continue;  // connection already dead; next accept
      }
    }
    auto shared = std::make_shared<Socket>(std::move(client));
    const sync::MutexLock lock(threads_mutex_);
    if (stopping_.load(std::memory_order_acquire)) return;
    live_connections_.insert(shared);
    connection_threads_.emplace_back(
        [this, shared] { serve_connection(shared); });
  }
}

void ShardServer::enqueue_reply(const std::shared_ptr<Connection>& conn,
                                Frame reply) {
  const sync::MutexLock lock(conn->mutex);
  if (!conn->write_failed) conn->write_queue.push_back(std::move(reply));
  conn->cv.notify_all();
}

void ShardServer::writer_loop(const std::shared_ptr<Connection>& conn) {
  const sync::MutexLock lock(conn->mutex);
  for (;;) {
    conn->cv.wait(conn->mutex, [&conn] {
      conn->mutex.assert_held();  // lambda body: capability not propagated
      return !conn->write_queue.empty() || conn->closing;
    });
    if (conn->write_queue.empty()) return;  // closing and drained
    if (conn->write_failed) {
      conn->write_queue.clear();
      conn->cv.notify_all();
      continue;
    }
    Frame reply = std::move(conn->write_queue.front());
    conn->write_queue.pop_front();
    conn->sending = true;
    bool ok = true;
    {
      const sync::ReleasableLock unlocked(conn->mutex);
      try {
        send_frame(*conn->socket, reply.type, reply.payload,
                   reply.correlation_id);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    conn->sending = false;
    if (!ok) {
      // The peer went away mid-reply. Drop everything still queued (it
      // has nowhere to go) and wake the read loop out of its blocked
      // recv so the handler can wind the connection down.
      conn->write_failed = true;
      conn->write_queue.clear();
      conn->socket->shutdown();
    }
    conn->cv.notify_all();  // flush waiters (kShutdown) and queue watchers
  }
}

void ShardServer::serve_query_batch(const std::shared_ptr<Connection>& conn,
                                    const Frame& request) {
  const std::uint64_t cid = request.correlation_id;
  std::vector<QueryRequest> batch;
  try {
    batch = decode_query_batch(request.payload);
  } catch (const std::exception& skew) {
    Frame reply;
    reply.type = MessageType::kError;
    reply.correlation_id = cid;
    reply.payload = encode_error({"runtime_error", skew.what()});
    enqueue_reply(conn, std::move(reply));
    return;
  }
  if (batch.empty()) {
    Frame reply;
    reply.type = MessageType::kQueryBatchReply;
    reply.correlation_id = cid;
    reply.payload = encode_query_batch_reply({});
    enqueue_reply(conn, std::move(reply));
    return;
  }

  // Queries inside a batch fan out to the engine independently and may
  // complete on different worker threads; the LAST completion (remaining
  // hits zero) owns the entries vector, encodes the reply in request
  // order, and enqueues it. One batch counts as one `outstanding` unit.
  struct BatchState {
    std::vector<BatchReplyEntry> entries;
    std::atomic<std::size_t> remaining;
    std::uint64_t cid = 0;
  };
  auto state = std::make_shared<BatchState>();
  state->entries.resize(batch.size());
  state->remaining.store(batch.size(), std::memory_order_relaxed);
  state->cid = cid;
  {
    const sync::MutexLock lock(conn->mutex);
    conn->outstanding += 1;
  }

  const auto finish_one = [this, conn, state] {
    if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    Frame reply;
    reply.type = MessageType::kQueryBatchReply;
    reply.correlation_id = state->cid;
    reply.payload = encode_query_batch_reply(state->entries);
    {
      const sync::MutexLock lock(conn->mutex);
      if (!conn->write_failed) conn->write_queue.push_back(std::move(reply));
      conn->outstanding -= 1;
      conn->cv.notify_all();
    }
  };

  for (std::size_t i = 0; i < batch.size(); ++i) {
    BatchReplyEntry* entry = &state->entries[i];
    engine_.submit(
        batch[i].building, std::move(batch[i].fingerprint),
        [this, entry, finish_one](QueryResult result) {
          entry->ok = result.outcome == QueryOutcome::kOk;
          if (entry->ok) {
            queries_served_.fetch_add(1, std::memory_order_relaxed);
            entry->result = std::move(result);
          } else {
            // The error kinds the client maps back to kRefused and
            // kUnavailable (remote_backend.cpp outcome_for_error).
            entry->error.kind = result.outcome == QueryOutcome::kRefused
                                    ? "invalid_argument"
                                    : "runtime_error";
            entry->error.message = std::move(result.error);
          }
          finish_one();
        });
  }
}

void ShardServer::serve_connection(std::shared_ptr<Socket> client) {
  auto conn = std::make_shared<Connection>();
  conn->socket = client;
  conn->writer = std::thread([this, conn] { writer_loop(conn); });

  FrameReader reader(*client);
  Frame request;
  for (;;) {
    FrameReader::Next got;
    try {
      got = reader.next(request);
    } catch (const std::exception&) {
      // Torn frame, bad magic, version skew, or stop() half-closing us:
      // the stream cannot be trusted past this point — drop the
      // connection. (Other connections and the engine are unaffected.)
      break;
    }
    if (got == FrameReader::Next::kEof) break;  // clean disconnect
    if (got == FrameReader::Next::kTimeout) break;  // idle past io_timeout
    if (request.type == MessageType::kQueryBatch) {
      serve_query_batch(conn, request);
      continue;
    }
    Frame reply = handle_control(request);
    reply.correlation_id = request.correlation_id;
    if (request.type == MessageType::kShutdown) {
      // Drain before the ack: every outstanding query reply is enqueued,
      // then the ack, then wait for the writer to flush the lot — the
      // peer must hold the acked contract "no reply is lost".
      {
        const sync::MutexLock lock(conn->mutex);
        conn->cv.wait(conn->mutex, [&conn] {
          conn->mutex.assert_held();  // lambda: capability not propagated
          return conn->outstanding == 0;
        });
        if (!conn->write_failed) {
          conn->write_queue.push_back(std::move(reply));
        }
        conn->cv.notify_all();
        conn->cv.wait(conn->mutex, [&conn] {
          conn->mutex.assert_held();  // lambda: capability not propagated
          return (conn->write_queue.empty() && !conn->sending) ||
                 conn->write_failed;
        });
      }
      // Ack flushed; now bring the whole server down. stop() runs on the
      // wait()er's thread — this handler only signals.
      shutdown_.store(true, std::memory_order_release);
      wait_cv_.notify_all();
      break;
    }
    enqueue_reply(conn, std::move(reply));
  }

  // Engine callbacks capture `conn` and may still be in flight: wait for
  // them so no reply is enqueued after the writer drains out.
  {
    const sync::MutexLock lock(conn->mutex);
    conn->cv.wait(conn->mutex, [&conn] {
      conn->mutex.assert_held();  // lambda: capability not propagated
      return conn->outstanding == 0;
    });
    conn->closing = true;
    conn->cv.notify_all();
  }
  conn->writer.join();
  // Half-close only: stop() may be shutdown()ing this socket concurrently,
  // and closing here could recycle the descriptor under it. The last
  // shared_ptr owner (set erasure below + our local copy) closes it — and
  // while stop() holds threads_mutex_ the set still owns a reference, so
  // the destructor cannot run under stop()'s hands.
  client->shutdown();
  const sync::MutexLock lock(threads_mutex_);
  live_connections_.erase(client);
}

Frame ShardServer::handle_control(const Frame& request) {
  Frame reply;
  try {
    switch (request.type) {
      case MessageType::kPublishStage: {
        const ModelRecord record = decode_publish_stage(request.payload);
        const int building = record.provenance.building;
        if (!owns(building)) {
          // The partition memory contract is enforced HERE, at the shard
          // boundary: an unowned stage is refused before any snapshot is
          // built, so a partitioned shard can never grow past its slice.
          throw std::invalid_argument(
              "shard " + std::to_string(config_.shard_index) + "/" +
              std::to_string(config_.shard_count) +
              " does not own building " + std::to_string(building) +
              " (partition filter)");
        }
        engine_.stage(record);
        {
          const sync::MutexLock lock(deploy_mutex_);
          staged_.insert(building);
        }
        reply.type = MessageType::kPublishReply;
        return reply;
      }
      case MessageType::kPublishCommit: {
        const PublishCommit commit = decode_publish_commit(request.payload);
        engine_.commit_staged(commit.building);
        {
          // Ledger takes the engine's post-swap truth, not the client's
          // (informational) version field.
          const sync::MutexLock lock(deploy_mutex_);
          staged_.erase(commit.building);
          deployed_[commit.building] =
              engine_.deployed_version(commit.building);
        }
        reply.type = MessageType::kPublishReply;
        return reply;
      }
      case MessageType::kPublishAbort: {
        const int building = decode_publish_abort(request.payload);
        engine_.abort_staged(building);
        {
          const sync::MutexLock lock(deploy_mutex_);
          staged_.erase(building);
        }
        reply.type = MessageType::kPublishReply;
        return reply;
      }
      case MessageType::kStatsRequest: {
        reply.type = MessageType::kStatsReply;
        reply.payload = encode_stats_reply(stats());
        return reply;
      }
      case MessageType::kHealthRequest: {
        HealthInfo health;
        health.shard_index = config_.shard_index;
        health.shard_count = config_.shard_count;
        reply.type = MessageType::kHealthReply;
        reply.payload = encode_health_reply(health);
        return reply;
      }
      case MessageType::kShutdown: {
        reply.type = MessageType::kShutdownAck;
        return reply;
      }
      default: {
        throw WireError("wire: unexpected message type " +
                        std::to_string(static_cast<int>(request.type)));
      }
    }
  } catch (const std::invalid_argument& refused) {
    reply.type = MessageType::kError;
    reply.payload = encode_error({"invalid_argument", refused.what()});
  } catch (const std::logic_error& misuse) {
    reply.type = MessageType::kError;
    reply.payload = encode_error({"logic_error", misuse.what()});
  } catch (const std::exception& failure) {
    reply.type = MessageType::kError;
    reply.payload = encode_error({"runtime_error", failure.what()});
  }
  return reply;
}

}  // namespace safeloc::serve::remote
