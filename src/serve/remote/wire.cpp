#include "src/serve/remote/wire.h"

#include <cstring>
#include <sstream>

#include "src/rss/dataset.h"
#include "src/util/binary_io.h"

namespace safeloc::serve::remote {
namespace {

constexpr const char* kContext = "wire";

/// Frame header, exactly 24 bytes with natural alignment — transmitted as
/// raw little-endian memory, matching binary_io's fixed-width convention.
struct FrameHeader {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t type = 0;
  std::uint64_t correlation_id = 0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(FrameHeader) == 24, "wire header must be 24 bytes");

/// Shared header validation for recv_frame and FrameReader.
void check_header(const FrameHeader& header) {
  if (header.magic != kWireMagic) {
    throw WireError("wire: bad frame magic (not an SFRP peer?)");
  }
  if (header.version != kWireVersion) {
    throw WireError("wire: protocol version mismatch (peer v" +
                    std::to_string(header.version) + ", this build v" +
                    std::to_string(kWireVersion) + ")");
  }
  if (header.payload_bytes > kMaxFrameBytes) {
    throw WireError("wire: frame payload of " +
                    std::to_string(header.payload_bytes) +
                    " bytes exceeds cap (corrupt header?)");
  }
}

using util::read_pod;
using util::read_string;
using util::write_pod;
using util::write_string;

/// Element-count sanity bounds: a count above these means a corrupt or
/// hostile payload, and resize()ing to it would be an allocation bomb.
constexpr std::uint64_t kMaxFingerprintDim = rss::kFeatureDim * 64;
constexpr std::uint64_t kMaxTopK = 1 << 16;
constexpr std::uint64_t kMaxDeployedEntries = 1 << 20;
constexpr std::uint64_t kMaxMetricEntries = 1 << 12;
constexpr std::uint64_t kMaxHistogramBuckets = 1 << 16;
constexpr std::uint64_t kMaxMetricNameBytes = 256;

void check_count(std::uint64_t count, std::uint64_t bound, const char* what) {
  if (count > bound) {
    throw WireError(std::string("wire: implausible ") + what + " count " +
                    std::to_string(count));
  }
}

std::string read_metric_name(std::istream& in) {
  std::string name = read_string(in, kContext);
  check_count(name.size(), kMaxMetricNameBytes, "metric-name byte");
  return name;
}

/// RegistrySnapshot wire layout (stats replies): counters, gauges, then
/// histograms — every histogram as its grid (min/max doubles) + integer
/// count/sum/max + bucket counts, so the client-side merge reproduces the
/// shard's histogram bit-for-bit.
void write_registry(std::ostream& out,
                    const telemetry::RegistrySnapshot& registry) {
  write_pod(out, static_cast<std::uint64_t>(registry.counters.size()));
  for (const auto& [name, value] : registry.counters) {
    write_string(out, name);
    write_pod(out, value);
  }
  write_pod(out, static_cast<std::uint64_t>(registry.gauges.size()));
  for (const auto& [name, value] : registry.gauges) {
    write_string(out, name);
    write_pod(out, value);
  }
  write_pod(out, static_cast<std::uint64_t>(registry.histograms.size()));
  for (const auto& [name, hist] : registry.histograms) {
    write_string(out, name);
    write_pod(out, hist.config.min_value);
    write_pod(out, hist.config.max_value);
    write_pod(out, hist.count);
    write_pod(out, hist.sum_milli);
    write_pod(out, hist.max_milli);
    write_pod(out, static_cast<std::uint64_t>(hist.buckets.size()));
    for (const std::uint64_t bucket : hist.buckets) write_pod(out, bucket);
  }
}

telemetry::RegistrySnapshot read_registry(std::istream& in) {
  telemetry::RegistrySnapshot registry;
  const auto counters = read_pod<std::uint64_t>(in, kContext);
  check_count(counters, kMaxMetricEntries, "counter");
  for (std::uint64_t i = 0; i < counters; ++i) {
    std::string name = read_metric_name(in);
    registry.counters[std::move(name)] = read_pod<std::uint64_t>(in, kContext);
  }
  const auto gauges = read_pod<std::uint64_t>(in, kContext);
  check_count(gauges, kMaxMetricEntries, "gauge");
  for (std::uint64_t i = 0; i < gauges; ++i) {
    std::string name = read_metric_name(in);
    registry.gauges[std::move(name)] = read_pod<std::int64_t>(in, kContext);
  }
  const auto histograms = read_pod<std::uint64_t>(in, kContext);
  check_count(histograms, kMaxMetricEntries, "histogram");
  for (std::uint64_t i = 0; i < histograms; ++i) {
    std::string name = read_metric_name(in);
    telemetry::HistogramSnapshot hist;
    hist.config.min_value = read_pod<double>(in, kContext);
    hist.config.max_value = read_pod<double>(in, kContext);
    hist.count = read_pod<std::uint64_t>(in, kContext);
    hist.sum_milli = read_pod<std::uint64_t>(in, kContext);
    hist.max_milli = read_pod<std::uint64_t>(in, kContext);
    const auto buckets = read_pod<std::uint64_t>(in, kContext);
    check_count(buckets, kMaxHistogramBuckets, "histogram-bucket");
    hist.buckets.resize(static_cast<std::size_t>(buckets));
    for (std::uint64_t b = 0; b < buckets; ++b) {
      hist.buckets[static_cast<std::size_t>(b)] =
          read_pod<std::uint64_t>(in, kContext);
    }
    registry.histograms[std::move(name)] = std::move(hist);
  }
  return registry;
}

}  // namespace

void send_frame(Socket& socket, MessageType type, const std::string& payload,
                std::uint64_t correlation_id) {
  if (payload.size() > kMaxFrameBytes) {
    throw WireError("wire: frame payload of " +
                    std::to_string(payload.size()) + " bytes exceeds cap");
  }
  FrameHeader header;
  header.type = static_cast<std::uint16_t>(type);
  header.correlation_id = correlation_id;
  header.payload_bytes = payload.size();
  // One header+payload buffer per frame: a single write keeps small
  // request/reply frames in one TCP segment.
  std::string buffer(sizeof(header) + payload.size(), '\0');
  std::memcpy(buffer.data(), &header, sizeof(header));
  std::memcpy(buffer.data() + sizeof(header), payload.data(), payload.size());
  socket.write_all(buffer.data(), buffer.size());
}

bool recv_frame(Socket& socket, Frame& frame) {
  FrameHeader header;
  if (!socket.read_exact_or_eof(&header, sizeof(header))) return false;
  check_header(header);
  frame.type = static_cast<MessageType>(header.type);
  frame.correlation_id = header.correlation_id;
  frame.payload.resize(static_cast<std::size_t>(header.payload_bytes));
  if (!frame.payload.empty()) {
    // A clean EOF here is NOT ok — the header promised a payload.
    socket.read_exact(frame.payload.data(), frame.payload.size());
  }
  return true;
}

FrameReader::FrameReader(Socket& socket, std::size_t buffer_bytes)
    : socket_(&socket), buffer_(buffer_bytes < sizeof(FrameHeader)
                                    ? sizeof(FrameHeader)
                                    : buffer_bytes) {}

FrameReader::Next FrameReader::fill(std::size_t bytes) {
  while (end_ - begin_ < bytes) {
    // Compact before the tail runs out of room; `bytes` always fits the
    // buffer (callers cap it at the buffer size).
    if (begin_ + bytes > buffer_.size()) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    const std::ptrdiff_t n =
        socket_->read_some(buffer_.data() + end_, buffer_.size() - end_);
    if (n > 0) {
      end_ += static_cast<std::size_t>(n);
      continue;
    }
    if (end_ - begin_ == 0) return n == 0 ? Next::kEof : Next::kTimeout;
    if (n == 0) {
      throw SocketError("Socket: peer closed mid-frame after " +
                        std::to_string(end_ - begin_) + " of " +
                        std::to_string(bytes) + " bytes (" +
                        socket_->address() + ") — torn frame");
    }
    throw SocketError("Socket: read timed out mid-frame (" +
                      socket_->address() + ")");
  }
  return Next::kFrame;
}

FrameReader::Next FrameReader::next(Frame& frame) {
  const Next got = fill(sizeof(FrameHeader));
  if (got != Next::kFrame) return got;
  FrameHeader header;
  std::memcpy(&header, buffer_.data() + begin_, sizeof(header));
  check_header(header);
  begin_ += sizeof(header);
  frame.type = static_cast<MessageType>(header.type);
  frame.correlation_id = header.correlation_id;
  frame.payload.resize(static_cast<std::size_t>(header.payload_bytes));
  std::size_t copied = end_ - begin_;
  if (copied > frame.payload.size()) copied = frame.payload.size();
  std::memcpy(frame.payload.data(), buffer_.data() + begin_, copied);
  begin_ += copied;
  if (copied < frame.payload.size()) {
    // Oversized payload (a staged ModelRecord): read the remainder
    // directly, bypassing the buffer. The header promised these bytes, so
    // a clean EOF here is a torn frame — read_exact throws for us.
    socket_->read_exact(frame.payload.data() + copied,
                        frame.payload.size() - copied);
  }
  if (begin_ == end_) begin_ = end_ = 0;
  return Next::kFrame;
}

namespace {

// Stream-level layouts of one query and one result inside the batch
// codecs.

void write_query(std::ostream& out, const QueryRequest& query) {
  write_pod(out, static_cast<std::int32_t>(query.building));
  write_pod(out, static_cast<std::uint64_t>(query.fingerprint.size()));
  for (const float v : query.fingerprint) write_pod(out, v);
}

QueryRequest read_query(std::istream& in) {
  QueryRequest query;
  query.building = read_pod<std::int32_t>(in, kContext);
  const auto dim = read_pod<std::uint64_t>(in, kContext);
  check_count(dim, kMaxFingerprintDim, "fingerprint");
  query.fingerprint.resize(static_cast<std::size_t>(dim));
  for (float& v : query.fingerprint) v = read_pod<float>(in, kContext);
  return query;
}

void write_query_result(std::ostream& out, const QueryResult& result) {
  write_pod(out, static_cast<std::int32_t>(result.building));
  write_pod(out, static_cast<std::int32_t>(result.rp));
  write_pod(out, result.position.x);
  write_pod(out, result.position.y);
  write_pod(out, static_cast<std::uint64_t>(result.top_k.size()));
  for (const RankedClass& ranked : result.top_k) {
    write_pod(out, static_cast<std::int32_t>(ranked.label));
    write_pod(out, ranked.confidence);
  }
  write_pod(out, result.model_version);
  write_pod(out, result.latency_us);
  write_pod(out, result.stages.queue_wait_us);
  write_pod(out, result.stages.batch_form_us);
  write_pod(out, result.stages.infer_us);
  write_pod(out, result.stages.wire_serialize_us);
  write_pod(out, result.stages.wire_rpc_us);
  write_pod(out, result.stages.wire_deserialize_us);
}

QueryResult read_query_result(std::istream& in) {
  QueryResult result;
  result.building = read_pod<std::int32_t>(in, kContext);
  result.rp = read_pod<std::int32_t>(in, kContext);
  result.position.x = read_pod<double>(in, kContext);
  result.position.y = read_pod<double>(in, kContext);
  const auto ranked = read_pod<std::uint64_t>(in, kContext);
  check_count(ranked, kMaxTopK, "top_k");
  result.top_k.resize(static_cast<std::size_t>(ranked));
  for (RankedClass& entry : result.top_k) {
    entry.label = read_pod<std::int32_t>(in, kContext);
    entry.confidence = read_pod<float>(in, kContext);
  }
  result.model_version = read_pod<std::uint32_t>(in, kContext);
  result.latency_us = read_pod<double>(in, kContext);
  result.stages.queue_wait_us = read_pod<double>(in, kContext);
  result.stages.batch_form_us = read_pod<double>(in, kContext);
  result.stages.infer_us = read_pod<double>(in, kContext);
  result.stages.wire_serialize_us = read_pod<double>(in, kContext);
  result.stages.wire_rpc_us = read_pod<double>(in, kContext);
  result.stages.wire_deserialize_us = read_pod<double>(in, kContext);
  return result;
}

void write_error(std::ostream& out, const ErrorReply& error) {
  write_string(out, error.kind);
  write_string(out, error.message);
}

ErrorReply read_error(std::istream& in) {
  ErrorReply error;
  error.kind = read_string(in, kContext);
  error.message = read_string(in, kContext);
  return error;
}

}  // namespace

std::string encode_query_batch(const std::vector<QueryRequest>& batch) {
  if (batch.size() > kMaxBatchQueries) {
    throw WireError("wire: query batch of " + std::to_string(batch.size()) +
                    " exceeds cap");
  }
  std::ostringstream out(std::ios::binary);
  write_pod(out, static_cast<std::uint64_t>(batch.size()));
  for (const QueryRequest& query : batch) write_query(out, query);
  return std::move(out).str();
}

std::vector<QueryRequest> decode_query_batch(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  const auto count = read_pod<std::uint64_t>(in, kContext);
  check_count(count, kMaxBatchQueries, "batch-query");
  std::vector<QueryRequest> batch;
  batch.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) batch.push_back(read_query(in));
  util::expect_exhausted(in, kContext);
  return batch;
}

std::string encode_query_batch_reply(
    const std::vector<BatchReplyEntry>& entries) {
  if (entries.size() > kMaxBatchQueries) {
    throw WireError("wire: batch reply of " + std::to_string(entries.size()) +
                    " exceeds cap");
  }
  std::ostringstream out(std::ios::binary);
  write_pod(out, static_cast<std::uint64_t>(entries.size()));
  for (const BatchReplyEntry& entry : entries) {
    write_pod(out, static_cast<std::uint8_t>(entry.ok ? 1 : 0));
    if (entry.ok) {
      write_query_result(out, entry.result);
    } else {
      write_error(out, entry.error);
    }
  }
  return std::move(out).str();
}

std::vector<BatchReplyEntry> decode_query_batch_reply(
    const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  const auto count = read_pod<std::uint64_t>(in, kContext);
  check_count(count, kMaxBatchQueries, "batch-reply");
  std::vector<BatchReplyEntry> entries(static_cast<std::size_t>(count));
  for (BatchReplyEntry& entry : entries) {
    const auto ok = read_pod<std::uint8_t>(in, kContext);
    if (ok > 1) throw WireError("wire: batch reply ok-flag out of range");
    entry.ok = ok == 1;
    if (entry.ok) {
      entry.result = read_query_result(in);
    } else {
      entry.error = read_error(in);
    }
  }
  util::expect_exhausted(in, kContext);
  return entries;
}

std::string encode_publish_stage(const ModelRecord& record) {
  std::ostringstream out(std::ios::binary);
  // Tag with the SFST format so a future v3 record layout can coexist with
  // v2 peers the same way ModelStore::load handles old files.
  write_pod(out, kStoreFormatVersion);
  write_model_record(out, record);
  return std::move(out).str();
}

ModelRecord decode_publish_stage(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  const auto format = read_pod<std::uint32_t>(in, kContext);
  if (format < 1 || format > kStoreFormatVersion) {
    throw WireError("wire: unsupported record format v" +
                    std::to_string(format) + " in publish stage");
  }
  ModelRecord record = read_model_record(in, format, kContext);
  util::expect_exhausted(in, kContext);
  return record;
}

std::string encode_publish_commit(const PublishCommit& commit) {
  std::ostringstream out(std::ios::binary);
  write_pod(out, static_cast<std::int32_t>(commit.building));
  write_pod(out, commit.version);
  return std::move(out).str();
}

PublishCommit decode_publish_commit(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  PublishCommit commit;
  commit.building = read_pod<std::int32_t>(in, kContext);
  commit.version = read_pod<std::uint32_t>(in, kContext);
  util::expect_exhausted(in, kContext);
  return commit;
}

std::string encode_publish_abort(int building) {
  std::ostringstream out(std::ios::binary);
  write_pod(out, static_cast<std::int32_t>(building));
  return std::move(out).str();
}

int decode_publish_abort(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  const auto building = read_pod<std::int32_t>(in, kContext);
  util::expect_exhausted(in, kContext);
  return building;
}

std::string encode_stats_reply(const ShardStats& stats) {
  std::ostringstream out(std::ios::binary);
  write_pod(out, stats.queries_served);
  write_pod(out, stats.resident_models);
  write_pod(out, stats.staged_models);
  write_pod(out, stats.queue_depth);
  write_pod(out, static_cast<std::uint64_t>(stats.deployed.size()));
  for (const auto& [building, version] : stats.deployed) {
    write_pod(out, building);
    write_pod(out, version);
  }
  write_registry(out, stats.telemetry);
  return std::move(out).str();
}

ShardStats decode_stats_reply(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  ShardStats stats;
  stats.queries_served = read_pod<std::uint64_t>(in, kContext);
  stats.resident_models = read_pod<std::uint64_t>(in, kContext);
  stats.staged_models = read_pod<std::uint64_t>(in, kContext);
  stats.queue_depth = read_pod<std::uint64_t>(in, kContext);
  const auto entries = read_pod<std::uint64_t>(in, kContext);
  check_count(entries, kMaxDeployedEntries, "deployed-model");
  stats.deployed.resize(static_cast<std::size_t>(entries));
  for (auto& [building, version] : stats.deployed) {
    building = read_pod<std::int32_t>(in, kContext);
    version = read_pod<std::uint32_t>(in, kContext);
  }
  stats.telemetry = read_registry(in);
  util::expect_exhausted(in, kContext);
  return stats;
}

std::string encode_health_reply(const HealthInfo& health) {
  std::ostringstream out(std::ios::binary);
  write_pod(out, health.shard_index);
  write_pod(out, health.shard_count);
  return std::move(out).str();
}

HealthInfo decode_health_reply(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  HealthInfo health;
  health.shard_index = read_pod<std::uint32_t>(in, kContext);
  health.shard_count = read_pod<std::uint32_t>(in, kContext);
  util::expect_exhausted(in, kContext);
  return health;
}

std::string encode_error(const ErrorReply& error) {
  std::ostringstream out(std::ios::binary);
  write_error(out, error);
  return std::move(out).str();
}

ErrorReply decode_error(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  ErrorReply error = read_error(in);
  util::expect_exhausted(in, kContext);
  return error;
}

}  // namespace safeloc::serve::remote
