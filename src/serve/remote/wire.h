// Fleet wire protocol ("SFRP") — length-prefixed binary frames carrying the
// QueryBackend contract between LocalizationService (RemoteBackend client)
// and shard_server processes.
//
// Every frame is a fixed 24-byte header followed by `payload_bytes` of
// payload:
//
//   offset  size  field
//   0       4     magic           0x53465250 "SFRP"
//   4       2     version         kWireVersion; mismatch rejects the frame
//   6       2     type            MessageType
//   8       8     correlation_id  echoed verbatim in the reply frame
//   16      8     payload_bytes   bounded by kMaxFrameBytes
//
// Payloads reuse util/binary_io.h primitives (fixed-width little-endian
// PODs, u32-length-prefixed strings) — the same conventions as the SFST
// model store on disk — and a published ModelRecord crosses the wire via
// write_model_record/read_model_record, byte-identical to how it rests in
// an SFST file.
//
// Message flow (pipelined request/reply per connection): a client may have
// any number of request frames outstanding; the server echoes each
// request's correlation_id in its reply frame and MAY reply out of order
// (replies are written in completion order). Clients demultiplex replies
// by correlation id — never by arrival order.
//
//   request          reply             payload (request / reply)
//   kQueryBatch      kQueryBatchReply  N >= 1 queries / N ok-or-error
//                                      entries, request order preserved
//   kPublishStage    kPublishReply     format tag + ModelRecord / empty
//   kPublishCommit   kPublishReply     building + version / empty
//   kPublishAbort    kPublishReply     building / empty
//   kStatsRequest    kStatsReply       empty / ShardStats
//   kHealthRequest   kHealthReply      empty / HealthInfo
//   kShutdown        kShutdownAck      empty / empty (server exits after)
//
// Any request the server cannot honour is answered with kError (a refused
// query: an error entry in its batch reply) carrying an error kind and a
// human-readable reason. The client maps a control error back to the
// exception the local backend would have thrown (std::invalid_argument for
// refused requests, WireError for protocol skew) and a query error to
// QueryOutcome kRefused / kUnavailable. Transport failures (refused
// connection, timeout, torn frame) surface as SocketError and become
// kUnavailable queries / BackendUnavailable control calls in RemoteBackend.
//
// Hardening: recv_frame validates magic, version, and payload bound before
// reading the payload; decoders run expect_exhausted so trailing bytes
// (format skew between peers) fail loudly instead of desynchronizing the
// stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/backend.h"
#include "src/serve/model_store.h"
#include "src/serve/remote/socket.h"
#include "src/serve/telemetry/registry.h"

namespace safeloc::serve::remote {

inline constexpr std::uint32_t kWireMagic = 0x53465250;  // "SFRP"
/// v4: the single-query request and reply messages (types 1 and 2) are
/// gone — every query travels in a kQueryBatch, a lone one as a batch of
/// one; a server answers type 1 or 2 with kError. v3: the header grew a
/// correlation id (replies may arrive out of order) and
/// kQueryBatch/kQueryBatchReply coalesce pipelined queries into one frame.
/// v2 added StageTimings on query replies and the telemetry
/// RegistrySnapshot on stats replies. Strict equality check — SFRP has no
/// negotiation, a fleet upgrades atomically.
inline constexpr std::uint16_t kWireVersion = 4;
/// Upper bound on one frame's payload. Generous for paper-scale model
/// records (a few MiB); a length above it means a corrupt or hostile
/// header, and reading it would be an allocation bomb.
inline constexpr std::uint64_t kMaxFrameBytes = 256ull << 20;

/// Malformed or version-skewed traffic (bad magic, oversized frame,
/// trailing payload bytes, kError reply to a protocol step). Distinct from
/// SocketError: the transport worked, the bytes were wrong.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Numbers are never reused: 1 and 2 were the v3 single-query messages.
enum class MessageType : std::uint16_t {
  kPublishStage = 3,
  kPublishCommit = 4,
  kPublishAbort = 5,
  kPublishReply = 6,
  kStatsRequest = 7,
  kStatsReply = 8,
  kHealthRequest = 9,
  kHealthReply = 10,
  kError = 11,
  kShutdown = 12,
  kShutdownAck = 13,
  kQueryBatch = 14,
  kQueryBatchReply = 15,
};

struct Frame {
  MessageType type = MessageType::kError;
  /// Request frames choose any id; the reply echoes it verbatim. A peer
  /// that pipelines must keep ids unique among its in-flight requests on
  /// one connection (strict request/reply callers may leave it 0).
  std::uint64_t correlation_id = 0;
  std::string payload;
};

/// Writes one frame (header + payload). Throws SocketError on transport
/// failure, WireError when `payload` exceeds kMaxFrameBytes.
void send_frame(Socket& socket, MessageType type, const std::string& payload,
                std::uint64_t correlation_id = 0);

/// Reads one frame. Returns false on a clean peer close before the header
/// (normal disconnect). Throws WireError on bad magic / version mismatch /
/// oversized payload, SocketError on transport failure or a torn frame.
[[nodiscard]] bool recv_frame(Socket& socket, Frame& frame);

/// Buffered frame reader for hot read loops (the client's reply-demux
/// reader thread, the server's per-connection request loop): one recv()
/// typically delivers many small pipelined frames, instead of the two
/// syscalls per frame recv_frame costs. Frame semantics and hardening are
/// identical to recv_frame; the only new outcome is kTimeout, returned when
/// the socket's receive deadline (Socket::set_io_timeout) expires while the
/// stream is idle *between* frames — the caller decides whether idleness is
/// an error (replies overdue) or normal (nothing in flight). A deadline
/// expiring mid-frame still throws SocketError: the peer stalled inside a
/// frame it promised.
///
/// Not thread-safe; exactly one reader per socket (bytes buffered here are
/// gone from the socket).
class FrameReader {
 public:
  enum class Next { kFrame, kEof, kTimeout };

  explicit FrameReader(Socket& socket, std::size_t buffer_bytes = 1 << 16);

  [[nodiscard]] Next next(Frame& frame);

 private:
  /// Buffers at least `bytes` (reading opportunistically up to the buffer
  /// capacity). Returns kFrame when satisfied; kEof/kTimeout only at a
  /// frame boundary (nothing buffered), else throws SocketError.
  Next fill(std::size_t bytes);

  Socket* socket_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

// --- payload codecs --------------------------------------------------------
// Encoders return the payload string for send_frame; decoders parse a
// received payload and throw WireError (via truncation/trailing-byte
// checks) when the bytes do not decode cleanly.

struct QueryRequest {
  int building = 0;
  std::vector<float> fingerprint;
};

/// kError payload: `kind` selects the client-side exception
/// ("invalid_argument" | "logic_error" | anything else → WireError),
/// `message` is the server-side what().
struct ErrorReply {
  std::string kind;
  std::string message;
};

/// Upper bound on queries coalesced into one kQueryBatch frame.
inline constexpr std::uint64_t kMaxBatchQueries = 4096;

/// kQueryBatch payload: u64 count, then each query in QueryRequest layout.
/// Order is significant — the reply answers entry i with entry i.
[[nodiscard]] std::string encode_query_batch(
    const std::vector<QueryRequest>& batch);
[[nodiscard]] std::vector<QueryRequest> decode_query_batch(
    const std::string& payload);

/// One entry of a kQueryBatchReply: queries inside a batch fail
/// independently (undeployed building, wrong width), so each entry carries
/// either a result or an ErrorReply naming the refusal.
struct BatchReplyEntry {
  bool ok = false;
  QueryResult result;  // valid when ok
  ErrorReply error;    // valid when !ok
};

[[nodiscard]] std::string encode_query_batch_reply(
    const std::vector<BatchReplyEntry>& entries);
[[nodiscard]] std::vector<BatchReplyEntry> decode_query_batch_reply(
    const std::string& payload);

/// Stage payload = SFST format tag + the record in SFST record layout.
[[nodiscard]] std::string encode_publish_stage(const ModelRecord& record);
[[nodiscard]] ModelRecord decode_publish_stage(const std::string& payload);

struct PublishCommit {
  int building = 0;
  std::uint32_t version = 0;
};

[[nodiscard]] std::string encode_publish_commit(const PublishCommit& commit);
[[nodiscard]] PublishCommit decode_publish_commit(const std::string& payload);

[[nodiscard]] std::string encode_publish_abort(int building);
[[nodiscard]] int decode_publish_abort(const std::string& payload);

/// One shard's self-report — the per-shard memory-footprint evidence
/// (resident_models is O(owned buildings) under a partition, O(all
/// buildings) replicated).
struct ShardStats {
  std::uint64_t queries_served = 0;
  std::uint64_t resident_models = 0;
  std::uint64_t staged_models = 0;
  std::uint64_t queue_depth = 0;
  /// (building, serving version) per resident model, building ascending.
  std::vector<std::pair<std::int32_t, std::uint32_t>> deployed;
  /// The shard engine's metrics registry — per-stage histograms shipped as
  /// integer bucket counts, so the client-side fleet merge is bit-exact.
  telemetry::RegistrySnapshot telemetry;
};

[[nodiscard]] std::string encode_stats_reply(const ShardStats& stats);
[[nodiscard]] ShardStats decode_stats_reply(const std::string& payload);

struct HealthInfo {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
};

[[nodiscard]] std::string encode_health_reply(const HealthInfo& health);
[[nodiscard]] HealthInfo decode_health_reply(const std::string& payload);

[[nodiscard]] std::string encode_error(const ErrorReply& error);
[[nodiscard]] ErrorReply decode_error(const std::string& payload);

}  // namespace safeloc::serve::remote
