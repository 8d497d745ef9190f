// Remote shard fleet: SFRP wire protocol framing and codecs, partition-map
// persistence, shard_server + RemoteBackend end-to-end serving (bit-identical
// to local), cross-shard publish atomicity over the wire, partition memory
// enforcement, and kill-a-shard-mid-traffic degradation.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/serve/backend.h"
#include "src/serve/model_store.h"
#include "src/serve/partition.h"
#include "src/serve/remote/remote_backend.h"
#include "src/serve/remote/shard_server.h"
#include "src/serve/remote/socket.h"
#include "src/serve/remote/wire.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/traffic.h"
#include "src/util/sync.h"

namespace safeloc {
namespace {

using namespace std::chrono_literals;
namespace remote = serve::remote;

/// Unique unix-socket path per test (paths must stay under the ~107-byte
/// sockaddr_un limit, so these live in /tmp directly, keyed by pid).
std::string unique_address(const std::string& tag) {
  static int counter = 0;
  return "unix:/tmp/safeloc-test-" + std::to_string(::getpid()) + "-" + tag +
         "-" + std::to_string(counter++) + ".sock";
}

/// Client config tuned for tests: fail fast instead of burning the full
/// production retry budget against servers we killed on purpose.
remote::RemoteBackendConfig fast_client(const std::string& address) {
  remote::RemoteBackendConfig config;
  config.address = address;
  config.connect_timeout = 500ms;
  config.io_timeout = 5000ms;
  config.connect_retries = 2;
  config.retry_backoff = 20ms;
  return config;
}

/// In-process listener/client pair over a unix socket — the transport
/// fixture for frame-level tests.
struct LocalPair {
  remote::Socket listener;
  remote::Socket client;
  remote::Socket server;

  LocalPair() {
    const std::string address = unique_address("pair");
    listener = remote::Socket::listen(address);
    client = remote::Socket::connect(address, 1000ms);
    server = listener.accept();
    client.set_io_timeout(5000ms);
    server.set_io_timeout(5000ms);
  }
};

/// A raw kHealthRequest header at the current kWireVersion promising
/// `payload_bytes` — the frame the framing tests tear or oversize. The
/// version tracks the codec, so these tests reach the check they target
/// instead of stopping at a stale-version rejection.
std::array<unsigned char, 24> raw_header(std::uint64_t payload_bytes) {
  std::array<unsigned char, 24> header{0x50, 0x52, 0x46, 0x53};  // "SFRP"
  header[4] = static_cast<unsigned char>(remote::kWireVersion & 0xFF);
  header[5] = static_cast<unsigned char>(remote::kWireVersion >> 8);
  header[6] = 0x09;  // kHealthRequest
  std::memcpy(header.data() + 16, &payload_bytes, sizeof(payload_bytes));
  return header;
}

/// One engine-trained record on building 2 (same regime as the service
/// suite), shared across the remote tests.
class RemoteFixture : public ::testing::Test {
 protected:
  static const serve::ModelStore& store() {
    static const serve::ModelStore instance = [] {
      engine::ScenarioSpec spec;
      spec.framework = "SAFELOC";
      spec.building = 2;
      spec.rounds = 2;
      spec.server_epochs = 6;
      const engine::RunReport report =
          engine::ScenarioEngine{}.run(std::vector<engine::ScenarioSpec>{spec},
                                       1, /*capture_final_gm=*/true);
      serve::ModelStore built;
      built.publish_run(report);
      return built;
    }();
    return instance;
  }

  static const serve::ModelRecord& record() {
    return store().latest("SAFELOC/b2");
  }

  static serve::TrafficGenerator traffic() {
    serve::TrafficConfig config;
    config.buildings = {2};
    config.fingerprints_per_rp = 1;
    config.seed = 4096;
    return serve::TrafficGenerator(config);
  }

  /// Serves through two remote shards with the given client window, kills
  /// one mid-traffic and checks that the service degrades instead of
  /// failing over or hanging.
  static void kill_shard_mid_traffic(int max_in_flight, std::size_t max_batch);
};

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Wire, FrameHeaderGoldenBytes) {
  // Pin the on-wire layout: 24-byte header, little-endian, magic "SFRP"
  // (reads as "PRFS" in byte order), version 4 (correlation id at offset
  // 8, payload length at offset 16). A layout change breaks cross-version
  // fleets and MUST show up as this golden failing.
  LocalPair pair;
  remote::send_frame(pair.client, remote::MessageType::kHealthRequest, "ab",
                     0x1122334455667788ull);
  unsigned char raw[26];
  pair.server.read_exact(raw, sizeof(raw));
  const unsigned char expected[26] = {
      0x50, 0x52, 0x46, 0x53,  // magic 0x53465250 LE
      0x04, 0x00,              // version 4
      0x09, 0x00,              // type kHealthRequest = 9
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // correlation id LE
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload_bytes = 2
      'a',  'b'};
  EXPECT_EQ(std::memcmp(raw, expected, sizeof(expected)), 0);
}

TEST(Wire, CorrelationIdEchoesThroughRecvAndFrameReader) {
  LocalPair pair;
  remote::send_frame(pair.client, remote::MessageType::kHealthRequest, "x",
                     42);
  remote::send_frame(pair.client, remote::MessageType::kHealthRequest, "y",
                     7);
  remote::Frame frame;
  ASSERT_TRUE(remote::recv_frame(pair.server, frame));
  EXPECT_EQ(frame.correlation_id, 42u);
  EXPECT_EQ(frame.payload, "x");
  remote::FrameReader reader(pair.server);
  ASSERT_EQ(reader.next(frame), remote::FrameReader::Next::kFrame);
  EXPECT_EQ(frame.correlation_id, 7u);
  EXPECT_EQ(frame.payload, "y");
  // A strict request/reply caller that never sets the id sends 0.
  remote::send_frame(pair.client, remote::MessageType::kHealthRequest, "z");
  ASSERT_TRUE(remote::recv_frame(pair.server, frame));
  EXPECT_EQ(frame.correlation_id, 0u);
}

TEST(Wire, FrameRoundTripAndCleanEof) {
  LocalPair pair;
  remote::send_frame(pair.client, remote::MessageType::kHealthRequest,
                     "payload");
  remote::Frame frame;
  ASSERT_TRUE(remote::recv_frame(pair.server, frame));
  EXPECT_EQ(frame.type, remote::MessageType::kHealthRequest);
  EXPECT_EQ(frame.payload, "payload");

  // Peer closing between frames is a clean disconnect, not an error.
  pair.client.close();
  EXPECT_FALSE(remote::recv_frame(pair.server, frame));
}

TEST(Wire, RejectsBadMagicAndVersionMismatch) {
  {
    LocalPair pair;
    const unsigned char not_sfrp[24] = {0xDE, 0xAD, 0xBE, 0xEF};
    pair.client.write_all(not_sfrp, sizeof(not_sfrp));
    remote::Frame frame;
    EXPECT_THROW((void)remote::recv_frame(pair.server, frame),
                 remote::WireError);
  }
  {
    // Valid magic, future version: must be rejected loudly (a v3 peer
    // cannot be half-understood), and the error must name both versions.
    LocalPair pair;
    unsigned char header[24] = {0x50, 0x52, 0x46, 0x53, 0x63, 0x00};  // v99
    pair.client.write_all(header, sizeof(header));
    remote::Frame frame;
    try {
      (void)remote::recv_frame(pair.server, frame);
      FAIL() << "expected WireError";
    } catch (const remote::WireError& error) {
      EXPECT_NE(std::string(error.what()).find("v99"), std::string::npos);
      EXPECT_NE(std::string(error.what()).find("mismatch"), std::string::npos);
    }
  }
}

TEST(Wire, RejectsOversizedPayloadHeader) {
  LocalPair pair;
  const auto header = raw_header(remote::kMaxFrameBytes + 1);
  pair.client.write_all(header.data(), header.size());
  remote::Frame frame;
  try {
    (void)remote::recv_frame(pair.server, frame);
    FAIL() << "expected WireError";
  } catch (const remote::WireError& error) {
    EXPECT_NE(std::string(error.what()).find("exceeds cap"),
              std::string::npos)
        << error.what();
  }
}

TEST(Wire, TornFrameIsATransportErrorNotSilence) {
  // Header promises 100 payload bytes; the peer dies after 10. The reader
  // must throw (SocketError: torn frame), never hang or return a partial
  // frame as complete.
  LocalPair pair;
  const auto header = raw_header(100);
  pair.client.write_all(header.data(), header.size());
  pair.client.write_all("tenletters", 10);
  pair.client.close();
  remote::Frame frame;
  EXPECT_THROW((void)remote::recv_frame(pair.server, frame),
               remote::SocketError);
}

TEST(Wire, FrameReaderCoalescesFramesAndTellsIdleFromEof) {
  LocalPair pair;
  // Five frames land in the kernel buffer before the reader starts: the
  // buffered reader must hand them back one by one from a single fill.
  for (int i = 0; i < 5; ++i) {
    remote::send_frame(pair.client, remote::MessageType::kHealthRequest,
                       "payload" + std::to_string(i),
                       static_cast<std::uint64_t>(100 + i));
  }
  remote::FrameReader reader(pair.server);
  remote::Frame frame;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(reader.next(frame), remote::FrameReader::Next::kFrame);
    EXPECT_EQ(frame.correlation_id, static_cast<std::uint64_t>(100 + i));
    EXPECT_EQ(frame.payload, "payload" + std::to_string(i));
  }
  // Idle stream at a frame boundary: deadline expiry is kTimeout (the
  // caller decides whether idleness is an error), not an exception.
  pair.server.set_io_timeout(100ms);
  EXPECT_EQ(reader.next(frame), remote::FrameReader::Next::kTimeout);
  // Clean close between frames is kEof, the normal-disconnect signal.
  pair.client.close();
  EXPECT_EQ(reader.next(frame), remote::FrameReader::Next::kEof);
}

TEST(Wire, FrameReaderThrowsOnTornOrStalledFrame) {
  {
    // EOF mid-frame: the peer promised 100 bytes and died after 10.
    LocalPair pair;
    const auto header = raw_header(100);
    pair.client.write_all(header.data(), header.size());
    pair.client.write_all("tenletters", 10);
    pair.client.close();
    remote::FrameReader reader(pair.server);
    remote::Frame frame;
    EXPECT_THROW((void)reader.next(frame), remote::SocketError);
  }
  {
    // Deadline expiry mid-frame: a stall inside a promised frame is a
    // transport error, never kTimeout (that would silently desync).
    LocalPair pair;
    const auto header = raw_header(100);
    pair.client.write_all(header.data(), header.size());
    pair.server.set_io_timeout(100ms);
    remote::FrameReader reader(pair.server);
    remote::Frame frame;
    EXPECT_THROW((void)reader.next(frame), remote::SocketError);
  }
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

TEST(Wire, QueryAndReplyCodecsRoundTrip) {
  // A lone query travels as a batch of one: every field of the request
  // and of the reply entry crosses the wire losslessly.
  remote::QueryRequest query;
  query.building = 2;
  query.fingerprint = {0.25f, -1.0f, 0.0f, 3.5f};
  const std::vector<remote::QueryRequest> decoded_batch =
      remote::decode_query_batch(remote::encode_query_batch({query}));
  ASSERT_EQ(decoded_batch.size(), 1u);
  const remote::QueryRequest& decoded_query = decoded_batch[0];
  EXPECT_EQ(decoded_query.building, 2);
  EXPECT_EQ(decoded_query.fingerprint, query.fingerprint);

  serve::QueryResult result;
  result.building = 2;
  result.rp = 17;
  result.position = {3.25, -8.5};
  result.top_k = {{17, 0.9f}, {4, 0.05f}};
  result.model_version = 3;
  result.latency_us = 123.5;
  result.stages.queue_wait_us = 10.25;
  result.stages.batch_form_us = 20.5;
  result.stages.infer_us = 30.75;
  result.stages.wire_serialize_us = 1.5;
  result.stages.wire_rpc_us = 90.0;
  result.stages.wire_deserialize_us = 2.25;
  remote::BatchReplyEntry entry;
  entry.ok = true;
  entry.result = result;
  const std::vector<remote::BatchReplyEntry> round =
      remote::decode_query_batch_reply(
          remote::encode_query_batch_reply({entry}));
  ASSERT_EQ(round.size(), 1u);
  ASSERT_TRUE(round[0].ok);
  const serve::QueryResult& decoded = round[0].result;
  EXPECT_EQ(decoded.rp, 17);
  EXPECT_DOUBLE_EQ(decoded.position.x, 3.25);
  EXPECT_DOUBLE_EQ(decoded.position.y, -8.5);
  ASSERT_EQ(decoded.top_k.size(), 2u);
  EXPECT_EQ(decoded.top_k[0].label, 17);
  EXPECT_EQ(decoded.top_k[0].confidence, 0.9f);
  EXPECT_EQ(decoded.model_version, 3u);
  EXPECT_DOUBLE_EQ(decoded.latency_us, 123.5);
  // v2: the per-stage breakdown crosses the wire losslessly.
  EXPECT_DOUBLE_EQ(decoded.stages.queue_wait_us, 10.25);
  EXPECT_DOUBLE_EQ(decoded.stages.batch_form_us, 20.5);
  EXPECT_DOUBLE_EQ(decoded.stages.infer_us, 30.75);
  EXPECT_DOUBLE_EQ(decoded.stages.wire_serialize_us, 1.5);
  EXPECT_DOUBLE_EQ(decoded.stages.wire_rpc_us, 90.0);
  EXPECT_DOUBLE_EQ(decoded.stages.wire_deserialize_us, 2.25);
}

TEST(Wire, BatchCodecsRoundTripAndEnforceBounds) {
  // Request batch: order is the contract (reply entry i answers query i).
  std::vector<remote::QueryRequest> batch(3);
  for (int i = 0; i < 3; ++i) {
    batch[static_cast<std::size_t>(i)].building = i + 1;
    batch[static_cast<std::size_t>(i)].fingerprint = {
        static_cast<float>(i) * 0.5f, -1.0f};
  }
  const std::string payload = remote::encode_query_batch(batch);
  const std::vector<remote::QueryRequest> decoded =
      remote::decode_query_batch(payload);
  ASSERT_EQ(decoded.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[static_cast<std::size_t>(i)].building, i + 1);
    EXPECT_EQ(decoded[static_cast<std::size_t>(i)].fingerprint,
              batch[static_cast<std::size_t>(i)].fingerprint);
  }

  // Reply batch mixes per-entry success and failure.
  std::vector<remote::BatchReplyEntry> entries(2);
  entries[0].ok = true;
  entries[0].result.building = 2;
  entries[0].result.rp = 9;
  entries[0].result.top_k = {{9, 0.75f}};
  entries[0].result.stages.infer_us = 12.5;
  entries[1].ok = false;
  entries[1].error = {"invalid_argument", "no model for building 77"};
  const std::vector<remote::BatchReplyEntry> round =
      remote::decode_query_batch_reply(
          remote::encode_query_batch_reply(entries));
  ASSERT_EQ(round.size(), 2u);
  EXPECT_TRUE(round[0].ok);
  EXPECT_EQ(round[0].result.rp, 9);
  ASSERT_EQ(round[0].result.top_k.size(), 1u);
  EXPECT_EQ(round[0].result.top_k[0].confidence, 0.75f);
  EXPECT_DOUBLE_EQ(round[0].result.stages.infer_us, 12.5);
  EXPECT_FALSE(round[1].ok);
  EXPECT_EQ(round[1].error.kind, "invalid_argument");
  EXPECT_EQ(round[1].error.message, "no model for building 77");

  // Bounds: a count over the cap is refused at encode AND decode (a
  // hostile count in the header would otherwise be an allocation bomb),
  // and trailing bytes are rejected like every other codec.
  EXPECT_THROW((void)remote::encode_query_batch(std::vector<remote::QueryRequest>(
                   remote::kMaxBatchQueries + 1)),
               remote::WireError);
  std::string hostile = payload;
  const std::uint64_t over = remote::kMaxBatchQueries + 1;
  std::memcpy(hostile.data(), &over, sizeof(over));
  EXPECT_THROW((void)remote::decode_query_batch(hostile), remote::WireError);
  EXPECT_THROW((void)remote::decode_query_batch(payload + '\0'),
               std::runtime_error);
  EXPECT_THROW(
      (void)remote::decode_query_batch_reply(
          remote::encode_query_batch_reply(entries) + '\0'),
      std::runtime_error);
}

TEST(Wire, ControlCodecsRoundTripAndRejectTrailingBytes) {
  const remote::PublishCommit commit = remote::decode_publish_commit(
      remote::encode_publish_commit({7, 42}));
  EXPECT_EQ(commit.building, 7);
  EXPECT_EQ(commit.version, 42u);
  EXPECT_EQ(remote::decode_publish_abort(remote::encode_publish_abort(-3)),
            -3);

  remote::ShardStats stats;
  stats.queries_served = 1000;
  stats.resident_models = 2;
  stats.staged_models = 1;
  stats.queue_depth = 5;
  stats.deployed = {{1, 3}, {2, 1}};
  // v2: the shard's telemetry registry rides the stats reply. The snapshot
  // is pure integers (fixed-point sums, bucket counts) so equality after a
  // round trip is exact, not approximate.
  serve::telemetry::MetricsRegistry registry;
  registry.counter("net.connects").add(3);
  registry.gauge("engine.resident").set(-2);
  auto& hist = registry.histogram("stage.inference_us");
  hist.record(12.5);
  hist.record(900.0);
  hist.record(45000.25);
  stats.telemetry = registry.snapshot();
  const remote::ShardStats decoded_stats =
      remote::decode_stats_reply(remote::encode_stats_reply(stats));
  EXPECT_EQ(decoded_stats.queries_served, 1000u);
  EXPECT_EQ(decoded_stats.deployed, stats.deployed);
  EXPECT_EQ(decoded_stats.telemetry, stats.telemetry);

  const remote::HealthInfo health =
      remote::decode_health_reply(remote::encode_health_reply({1, 4}));
  EXPECT_EQ(health.shard_index, 1u);
  EXPECT_EQ(health.shard_count, 4u);

  const remote::ErrorReply error = remote::decode_error(
      remote::encode_error({"invalid_argument", "nope"}));
  EXPECT_EQ(error.kind, "invalid_argument");
  EXPECT_EQ(error.message, "nope");

  // Format-skew hardening: a payload with bytes past a complete parse is
  // rejected (expect_exhausted), not silently half-read.
  EXPECT_THROW((void)remote::decode_publish_abort(
                   remote::encode_publish_commit({7, 42})),
               std::runtime_error);
}

TEST_F(RemoteFixture, ModelRecordTravelsWireByteIdenticalToDisk) {
  // A staged record's wire payload is the SFST record layout: decoding and
  // re-encoding reproduces the exact bytes, and the decoded record
  // serializes identically to the original through write_model_record.
  const std::string payload = remote::encode_publish_stage(record());
  const serve::ModelRecord decoded = remote::decode_publish_stage(payload);
  EXPECT_EQ(remote::encode_publish_stage(decoded), payload);

  std::ostringstream disk_original(std::ios::binary);
  std::ostringstream disk_decoded(std::ios::binary);
  serve::write_model_record(disk_original, record());
  serve::write_model_record(disk_decoded, decoded);
  EXPECT_EQ(disk_original.str(), disk_decoded.str());
  EXPECT_EQ(decoded.calibration, record().calibration);
}

// ---------------------------------------------------------------------------
// PartitionMap
// ---------------------------------------------------------------------------

TEST(Partition, AffinityIsDeterministicAndPersists) {
  const std::vector<int> buildings = {1, 2, 3};
  const serve::PartitionMap map = serve::PartitionMap::affinity(buildings, 2);
  EXPECT_EQ(map.shards, 2u);
  for (const int b : buildings) {
    EXPECT_LT(map.owner_of(b), 2u);
    EXPECT_EQ(map.owner_of(b), serve::building_affinity(b, 2));
    EXPECT_TRUE(map.owns(map.owner_of(b), b));
  }
  // Unmapped buildings still place deterministically (affinity fallback).
  EXPECT_EQ(map.owner_of(99), serve::building_affinity(99, 2));
  // Every building is owned by exactly one shard.
  EXPECT_EQ(map.owned_by(0).size() + map.owned_by(1).size(),
            buildings.size());

  std::stringstream stream(std::ios::binary | std::ios::in | std::ios::out);
  map.save(stream);
  EXPECT_EQ(serve::PartitionMap::load(stream), map);

  EXPECT_THROW((void)serve::PartitionMap::affinity(buildings, 0),
               std::invalid_argument);
  EXPECT_THROW((void)serve::building_affinity(1, 0), std::invalid_argument);
}

TEST(Partition, LoadRejectsTrailingBytes) {
  // SFPM is a whole-stream format; an overlong payload (torn write, two
  // maps concatenated) must throw instead of loading the first map and
  // leaving the rest to desynchronize a later reader.
  const serve::PartitionMap map =
      serve::PartitionMap::affinity(std::vector<int>{1, 2, 3}, 2);
  std::stringstream stream(std::ios::binary | std::ios::in | std::ios::out);
  map.save(stream);
  stream << '\0';
  EXPECT_THROW((void)serve::PartitionMap::load(stream), std::runtime_error);
}

// ---------------------------------------------------------------------------
// ShardServer + RemoteBackend end-to-end
// ---------------------------------------------------------------------------

TEST_F(RemoteFixture, RemoteServingIsBitIdenticalToLocal) {
  remote::ShardServerConfig server_config;
  server_config.address = unique_address("bitident");
  remote::ShardServer server(server_config);
  server.start();

  remote::RemoteBackend backend(fast_client(server_config.address));
  serve::SyncBackend local;
  backend.deploy(record());  // two-phase over the wire
  local.deploy(record());
  EXPECT_EQ(backend.deployed_version(2), 1u);
  EXPECT_EQ(backend.deployed_model_count(), 1u);

  const remote::HealthInfo health = backend.health();
  EXPECT_EQ(health.shard_index, 0u);
  EXPECT_EQ(health.shard_count, 1u);

  serve::TrafficGenerator generator = traffic();
  for (const serve::TimedQuery& query : generator.generate(32)) {
    serve::QueryResult remote_result, local_result;
    backend.submit(query.building, query.x,
                   [&](serve::QueryResult r) { remote_result = std::move(r); });
    backend.drain();  // the reader thread completes the callback
    local.submit(query.building, query.x,
                 [&](serve::QueryResult r) { local_result = std::move(r); });
    // ServingNet inference is deterministic and the wire carries exact
    // float bits: the remote answer IS the local answer.
    EXPECT_EQ(remote_result.rp, local_result.rp);
    EXPECT_EQ(remote_result.position.x, local_result.position.x);
    EXPECT_EQ(remote_result.position.y, local_result.position.y);
    ASSERT_EQ(remote_result.top_k.size(), local_result.top_k.size());
    for (std::size_t k = 0; k < remote_result.top_k.size(); ++k) {
      EXPECT_EQ(remote_result.top_k[k].label, local_result.top_k[k].label);
      EXPECT_EQ(remote_result.top_k[k].confidence,
                local_result.top_k[k].confidence);
    }
    EXPECT_EQ(remote_result.model_version, 1u);
  }

  // A refused query completes kRefused through its callback; a refused
  // control RPC comes back as the exception the local backend throws.
  serve::QueryResult refused;
  backend.submit(99, generator.generate(1)[0].x,
                 [&](serve::QueryResult r) { refused = std::move(r); });
  backend.drain();
  EXPECT_EQ(refused.outcome, serve::QueryOutcome::kRefused);
  EXPECT_THROW(backend.commit_staged(2), std::logic_error);

  server.stop();
}

TEST_F(RemoteFixture, PartitionFilterRefusesUnownedStageAtTheShard) {
  // A 2-shard fleet: pick the shard that does NOT own building 2 and try
  // to stage there — the server itself must refuse (the memory contract is
  // enforced at the shard boundary, not trusted to clients).
  const std::uint32_t owner = serve::building_affinity(2, 2);
  const std::uint32_t not_owner = 1 - owner;

  remote::ShardServerConfig server_config;
  server_config.address = unique_address("partfilter");
  server_config.shard_index = not_owner;
  server_config.shard_count = 2;
  remote::ShardServer server(server_config);
  EXPECT_FALSE(server.owns(2));
  server.start();

  remote::RemoteBackend backend(fast_client(server_config.address));
  try {
    backend.stage(record());
    FAIL() << "expected the partition filter to refuse";
  } catch (const std::invalid_argument& refused) {
    EXPECT_NE(std::string(refused.what()).find("partition filter"),
              std::string::npos);
  }
  EXPECT_EQ(backend.deployed_model_count(), 0u);
  EXPECT_EQ(backend.shard_stats().staged_models, 0u);
  server.stop();
}

TEST_F(RemoteFixture, WarmLoadDeploysOnlyOwnedModels) {
  const std::uint32_t owner = serve::building_affinity(2, 2);
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    remote::ShardServerConfig config;
    config.address = unique_address("warm" + std::to_string(shard));
    config.shard_index = shard;
    config.shard_count = 2;
    remote::ShardServer server(config);
    const std::size_t resident = server.deploy_owned(store());
    // O(owned buildings): the owner loads the one model, the other shard
    // loads nothing.
    EXPECT_EQ(resident, shard == owner ? 1u : 0u);
    EXPECT_EQ(server.engine().deployed_model_count(),
              shard == owner ? 1u : 0u);
  }
}

TEST_F(RemoteFixture, CrossShardPublishAbortsWhenOneShardRefuses) {
  // Shard A replicates everything; shard B is partition-restricted so it
  // refuses building 2. A fleet publish through the service must leave A
  // exactly as it was — staged snapshot aborted over the wire, nothing
  // committed anywhere.
  const std::uint32_t owner = serve::building_affinity(2, 2);
  remote::ShardServerConfig config_a;
  config_a.address = unique_address("atomicA");
  remote::ShardServer server_a(config_a);
  server_a.start();
  remote::ShardServerConfig config_b;
  config_b.address = unique_address("atomicB");
  config_b.shard_index = 1 - owner;  // does NOT own building 2
  config_b.shard_count = 2;
  remote::ShardServer server_b(config_b);
  server_b.start();

  std::vector<std::unique_ptr<serve::QueryBackend>> shards;
  shards.push_back(
      std::make_unique<remote::RemoteBackend>(fast_client(config_a.address)));
  shards.push_back(
      std::make_unique<remote::RemoteBackend>(fast_client(config_b.address)));
  serve::LocalizationService service(std::move(shards));

  EXPECT_THROW(service.publish(record()), std::invalid_argument);
  EXPECT_EQ(service.published_version(2), 0u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(service.shard(s).deployed_model_count(), 0u) << "shard " << s;
    EXPECT_THROW(service.shard(s).commit_staged(2), std::logic_error)
        << "shard " << s;
  }
  const auto& backend_a =
      dynamic_cast<const remote::RemoteBackend&>(service.shard(0));
  EXPECT_EQ(backend_a.shard_stats().staged_models, 0u);

  server_a.stop();
  server_b.stop();
}

TEST(ShardServer, RetiredAndUnknownFrameTypesGetErrorReplies) {
  // Types 1 and 2 were v3's single-query messages; 99 was never assigned.
  // Each must be answered with kError echoing its correlation id, and the
  // connection must keep answering requests afterwards.
  remote::ShardServerConfig config;
  config.address = unique_address("hostile");
  remote::ShardServer server(config);
  server.start();

  remote::Socket conn = remote::Socket::connect(config.address, 1000ms);
  conn.set_io_timeout(5000ms);
  const std::vector<std::pair<std::uint16_t, std::uint64_t>> probes = {
      {1, 501}, {2, 502}, {99, 503}};
  for (const auto& [type, cid] : probes) {
    remote::send_frame(conn, static_cast<remote::MessageType>(type), "junk",
                       cid);
  }
  for (const auto& [type, cid] : probes) {
    remote::Frame reply;
    ASSERT_TRUE(remote::recv_frame(conn, reply)) << "type " << type;
    EXPECT_EQ(reply.type, remote::MessageType::kError) << "type " << type;
    EXPECT_EQ(reply.correlation_id, cid) << "type " << type;
    EXPECT_NE(remote::decode_error(reply.payload).message.find(
                  "unexpected message type " + std::to_string(type)),
              std::string::npos);
  }

  remote::send_frame(conn, remote::MessageType::kHealthRequest, "", 504);
  remote::Frame health;
  ASSERT_TRUE(remote::recv_frame(conn, health));
  EXPECT_EQ(health.type, remote::MessageType::kHealthReply);
  EXPECT_EQ(health.correlation_id, 504u);
  EXPECT_EQ(remote::decode_health_reply(health.payload).shard_count, 1u);
  server.stop();
}

TEST_F(RemoteFixture, RequestShutdownStopsTheServerCleanly) {
  remote::ShardServerConfig config;
  config.address = unique_address("shutdown");
  remote::ShardServer server(config);
  server.start();
  EXPECT_FALSE(server.shutdown_requested());

  remote::request_shutdown(config.address, 2000ms);
  server.wait();  // returns because the peer asked us to exit
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();

  // The fleet address is gone: a fresh client fails fast with
  // BackendUnavailable instead of hanging.
  remote::RemoteBackend backend(fast_client(config.address));
  EXPECT_THROW((void)backend.health(), serve::BackendUnavailable);
}

TEST_F(RemoteFixture, TcpTransportServesOnKernelAssignedPort) {
  remote::ShardServerConfig config;
  config.address = "tcp:127.0.0.1:0";  // kernel picks a free port
  remote::ShardServer server(config);
  server.start();
  const std::uint16_t port = server.local_port();
  ASSERT_GT(port, 0);

  remote::RemoteBackend backend(
      fast_client("tcp:127.0.0.1:" + std::to_string(port)));
  backend.deploy(record());
  serve::TrafficGenerator generator = traffic();
  const auto stream = generator.generate(4);
  for (const serve::TimedQuery& query : stream) {
    serve::QueryResult result;
    backend.submit(query.building, query.x,
                   [&](serve::QueryResult r) { result = std::move(r); });
    backend.drain();
    EXPECT_EQ(result.building, 2);
    EXPECT_GE(result.rp, 0);
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Pipelining: demux, window backpressure, failure semantics
// ---------------------------------------------------------------------------

/// Decodes a kQueryBatch frame and answers each entry with rp =
/// fingerprint[0] — a shard impersonator's way of proving which reply
/// answered which request.
void reply_with_fingerprint_rp(remote::Socket& conn,
                               const remote::Frame& request) {
  std::vector<remote::BatchReplyEntry> entries;
  for (const remote::QueryRequest& query :
       remote::decode_query_batch(request.payload)) {
    remote::BatchReplyEntry entry;
    entry.ok = true;
    entry.result.building = 2;
    entry.result.rp = static_cast<int>(query.fingerprint.at(0));
    entries.push_back(std::move(entry));
  }
  remote::send_frame(conn, remote::MessageType::kQueryBatchReply,
                     remote::encode_query_batch_reply(entries),
                     request.correlation_id);
}

TEST(Pipelining, OutOfOrderRepliesDemuxByCorrelationId) {
  // A hand-rolled shard answers the SECOND request first. The client must
  // route each reply to its own callback by correlation id — arrival order
  // means nothing on a pipelined stream.
  const std::string address = unique_address("ooo");
  remote::Socket listener = remote::Socket::listen(address);
  std::thread shard([&listener] {
    remote::Socket conn = listener.accept();
    conn.set_io_timeout(5000ms);
    remote::Frame first, second;
    if (!remote::recv_frame(conn, first)) return;
    if (!remote::recv_frame(conn, second)) return;
    EXPECT_NE(first.correlation_id, second.correlation_id);
    reply_with_fingerprint_rp(conn, second);
    reply_with_fingerprint_rp(conn, first);
  });

  remote::RemoteBackendConfig config = fast_client(address);
  config.max_in_flight = 4;
  remote::RemoteBackend backend(config);
  serve::QueryResult r1, r2;
  backend.submit(2, {10.0f}, [&r1](serve::QueryResult r) { r1 = std::move(r); });
  backend.submit(2, {20.0f}, [&r2](serve::QueryResult r) { r2 = std::move(r); });
  backend.drain();
  shard.join();
  EXPECT_EQ(r1.outcome, serve::QueryOutcome::kOk);
  EXPECT_EQ(r2.outcome, serve::QueryOutcome::kOk);
  EXPECT_EQ(r1.rp, 10);  // NOT 20: the reply that arrived first was q2's
  EXPECT_EQ(r2.rp, 20);
}

TEST(Pipelining, WindowFullBlocksSubmitAndDrainsInCompletionOrder) {
  const std::string address = unique_address("window");
  remote::Socket listener = remote::Socket::listen(address);
  std::promise<void> two_received_promise, release_promise;
  std::future<void> two_received = two_received_promise.get_future();
  std::future<void> release = release_promise.get_future();
  std::thread shard([&] {
    remote::Socket conn = listener.accept();
    conn.set_io_timeout(5000ms);
    remote::Frame q1, q2, q3;
    if (!remote::recv_frame(conn, q1) || !remote::recv_frame(conn, q2)) return;
    two_received_promise.set_value();
    release.wait();  // hold both window slots while the test probes
    reply_with_fingerprint_rp(conn, q1);  // frees one slot → q3 flushes
    if (!remote::recv_frame(conn, q3)) return;
    reply_with_fingerprint_rp(conn, q2);
    reply_with_fingerprint_rp(conn, q3);
  });

  remote::RemoteBackendConfig config = fast_client(address);
  config.max_in_flight = 2;  // window of two frames, no batching
  remote::RemoteBackend backend(config);
  std::vector<int> completion_order;
  sync::Mutex order_mutex;
  const auto record_completion = [&](serve::QueryResult r) {
    const sync::MutexLock lock(order_mutex);
    EXPECT_EQ(r.outcome, serve::QueryOutcome::kOk);
    completion_order.push_back(r.rp);
  };
  backend.submit(2, {1.0f}, record_completion);
  backend.submit(2, {2.0f}, record_completion);
  two_received.wait();

  // Window full: the third submit must block until a reply frees a slot.
  std::atomic<bool> third_sent{false};
  std::thread submitter([&] {
    backend.submit(2, {3.0f}, record_completion);
    third_sent.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(third_sent.load(std::memory_order_acquire));
  release_promise.set_value();  // shard replies to q1 → slot frees
  submitter.join();
  EXPECT_TRUE(third_sent.load(std::memory_order_acquire));
  backend.drain();
  shard.join();
  // Callbacks ran in completion (reply) order: q1, then q2, then q3.
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2, 3}));
}

TEST(Pipelining, ConnectionLossFailsEveryInFlightQueryAndNeverResends) {
  // Regression: killing the shard with N > 1 queries in flight must fail
  // every pending future loudly (kUnavailable), and a reconnect must NOT
  // blindly re-send frames that were already on the wire — the client
  // cannot know whether the dead server executed them.
  const std::string address = unique_address("connloss");
  remote::Socket listener = remote::Socket::listen(address);
  std::vector<int> second_connection_rps;
  std::thread shard([&] {
    {
      remote::Socket doomed = listener.accept();
      doomed.set_io_timeout(5000ms);
      remote::Frame frame;
      for (int i = 0; i < 3; ++i) {
        if (!remote::recv_frame(doomed, frame)) return;
      }
      // Three queries in flight, zero replies: drop the connection.
    }
    remote::Socket conn = listener.accept();
    conn.set_io_timeout(5000ms);
    remote::Frame frame;
    while (remote::recv_frame(conn, frame)) {
      second_connection_rps.push_back(static_cast<int>(
          remote::decode_query_batch(frame.payload).at(0).fingerprint.at(0)));
      reply_with_fingerprint_rp(conn, frame);
    }
  });

  remote::RemoteBackendConfig config = fast_client(address);
  config.max_in_flight = 4;
  config.io_timeout = 2000ms;
  {
    remote::RemoteBackend backend(config);
    std::vector<std::promise<serve::QueryResult>> outcomes(3);
    for (int i = 0; i < 3; ++i) {
      backend.submit(2, {static_cast<float>(10 * (i + 1))},
                     [&outcomes, i](serve::QueryResult r) {
                       outcomes[static_cast<std::size_t>(i)].set_value(
                           std::move(r));
                     });
    }
    for (auto& outcome : outcomes) {
      const serve::QueryResult result = outcome.get_future().get();
      EXPECT_EQ(result.outcome, serve::QueryOutcome::kUnavailable);
      EXPECT_FALSE(result.error.empty());
    }
    // The next submit reconnects and serves normally — and carries ONLY
    // the new query, never a replay of the three that were lost.
    std::promise<serve::QueryResult> fresh;
    backend.submit(2, {40.0f}, [&fresh](serve::QueryResult r) {
      fresh.set_value(std::move(r));
    });
    const serve::QueryResult result = fresh.get_future().get();
    EXPECT_EQ(result.outcome, serve::QueryOutcome::kOk);
    EXPECT_EQ(result.rp, 40);
  }  // backend destroyed → second connection sees EOF → shard thread exits
  shard.join();
  EXPECT_EQ(second_connection_rps, std::vector<int>{40});
}

TEST(Pipelining, SubmitOnlyEnqueuesWhileTheFlusherSpendsTheConnectBudget) {
  // Nobody listens at this address. The connect budget (three attempts,
  // two 200 ms backoffs) is spent on the flusher thread, so submit() only
  // enqueues, and every query later completes kUnavailable.
  remote::RemoteBackendConfig config = fast_client(unique_address("nolisten"));
  config.connect_retries = 3;
  config.retry_backoff = 200ms;
  config.max_in_flight = 4;
  config.max_batch = 4;  // room for 16 queued queries
  remote::RemoteBackend backend(config);
  std::vector<std::promise<serve::QueryResult>> outcomes(16);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    backend.submit(2, {1.0f}, [&outcomes, i](serve::QueryResult r) {
      outcomes[i].set_value(std::move(r));
    });
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 100ms);
  for (auto& outcome : outcomes) {
    const serve::QueryResult result = outcome.get_future().get();
    EXPECT_EQ(result.outcome, serve::QueryOutcome::kUnavailable);
    EXPECT_NE(result.error.find("unreachable"), std::string::npos);
  }
}

TEST(Pipelining, AFailedConnectBudgetIsRememberedForRetryBackoff) {
  // After a failed budget the shard counts as unreachable for
  // retry_backoff: back-to-back queries and control RPCs fail at once
  // instead of each starting a budget of their own.
  remote::RemoteBackendConfig config =
      fast_client(unique_address("deadshard"));
  config.connect_retries = 1;
  config.retry_backoff = 500ms;
  remote::RemoteBackend backend(config);
  for (int i = 0; i < 8; ++i) {
    std::promise<serve::QueryResult> outcome;
    backend.submit(2, {1.0f}, [&outcome](serve::QueryResult r) {
      outcome.set_value(std::move(r));
    });
    EXPECT_EQ(outcome.get_future().get().outcome,
              serve::QueryOutcome::kUnavailable);
  }
  EXPECT_THROW((void)backend.health(), serve::BackendUnavailable);
  const serve::telemetry::RegistrySnapshot snapshot =
      backend.telemetry_snapshot();
  EXPECT_EQ(snapshot.counters.at("net.connect_failures"), 1u);
  EXPECT_EQ(snapshot.counters.at("net.connects"), 0u);
}

TEST(Pipelining, QueueDepthCountsQueriesNotFrames) {
  // A hand-rolled shard answers the first frame and holds the second, a
  // frame of three coalesced queries. queue_depth() counts queries, so it
  // must equal submitted minus completed while that frame is in flight.
  const std::string address = unique_address("depth");
  remote::Socket listener = remote::Socket::listen(address);
  std::promise<void> first_received, release_first, second_received,
      release_second;
  std::size_t second_frame_queries = 0;
  std::thread shard([&] {
    remote::Socket conn = listener.accept();
    conn.set_io_timeout(5000ms);
    remote::Frame first, second;
    if (!remote::recv_frame(conn, first)) return;
    first_received.set_value();
    release_first.get_future().wait();
    reply_with_fingerprint_rp(conn, first);
    if (!remote::recv_frame(conn, second)) return;
    second_frame_queries = remote::decode_query_batch(second.payload).size();
    second_received.set_value();
    release_second.get_future().wait();
    reply_with_fingerprint_rp(conn, second);
  });

  remote::RemoteBackendConfig config = fast_client(address);
  config.max_in_flight = 1;
  config.max_batch = 4;  // room for 4 queries: one in flight, three queued
  remote::RemoteBackend backend(config);
  std::atomic<std::size_t> completed{0};
  std::promise<void> first_completed;
  const auto count = [&](serve::QueryResult r) {
    EXPECT_EQ(r.outcome, serve::QueryOutcome::kOk);
    completed.fetch_add(1);
    if (r.rp == 1) first_completed.set_value();
  };
  backend.submit(2, {1.0f}, count);
  first_received.get_future().wait();
  for (int i = 2; i <= 4; ++i) {
    backend.submit(2, {static_cast<float>(i)}, count);
  }
  EXPECT_EQ(backend.queue_depth(), 4u);
  release_first.set_value();
  second_received.get_future().wait();
  first_completed.get_future().wait();
  EXPECT_EQ(second_frame_queries, 3u);
  EXPECT_EQ(completed.load(), 1u);
  EXPECT_EQ(backend.queue_depth(), 4u - completed.load());
  release_second.set_value();
  backend.drain();
  shard.join();
  EXPECT_EQ(completed.load(), 4u);
  EXPECT_EQ(backend.queue_depth(), 0u);
}

TEST_F(RemoteFixture, WindowOneAndPipelinedServingAreBitIdenticalToLocal) {
  remote::ShardServerConfig server_config;
  server_config.address = unique_address("pipeident");
  remote::ShardServer server(server_config);
  server.start();

  remote::RemoteBackend window_one(fast_client(server_config.address));
  remote::RemoteBackendConfig pipelined_config =
      fast_client(server_config.address);
  pipelined_config.pool_size = 2;
  pipelined_config.max_in_flight = 2;
  pipelined_config.max_batch = 4;
  remote::RemoteBackend pipelined(pipelined_config);
  serve::SyncBackend local;
  window_one.deploy(record());  // one server: the pipelined client shares it
  local.deploy(record());

  serve::TrafficGenerator generator = traffic();
  const auto stream = generator.generate(32);
  std::vector<serve::QueryResult> piped(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    pipelined.submit(stream[i].building, stream[i].x,
                     [&piped, i](serve::QueryResult r) {
                       piped[i] = std::move(r);
                     });
  }
  pipelined.drain();

  for (std::size_t i = 0; i < stream.size(); ++i) {
    serve::QueryResult window_one_result, local_result;
    window_one.submit(
        stream[i].building, stream[i].x,
        [&](serve::QueryResult r) { window_one_result = std::move(r); });
    window_one.drain();
    local.submit(stream[i].building, stream[i].x,
                 [&](serve::QueryResult r) { local_result = std::move(r); });
    EXPECT_EQ(piped[i].outcome, serve::QueryOutcome::kOk);
    // Pipelined, window-1, and local all produce the same bits: batching
    // and out-of-order completion change scheduling, never answers.
    EXPECT_EQ(piped[i].rp, local_result.rp);
    EXPECT_EQ(piped[i].rp, window_one_result.rp);
    EXPECT_EQ(piped[i].position.x, local_result.position.x);
    EXPECT_EQ(piped[i].position.y, local_result.position.y);
    ASSERT_EQ(piped[i].top_k.size(), local_result.top_k.size());
    for (std::size_t k = 0; k < piped[i].top_k.size(); ++k) {
      EXPECT_EQ(piped[i].top_k[k].label, local_result.top_k[k].label);
      EXPECT_EQ(piped[i].top_k[k].confidence, local_result.top_k[k].confidence);
    }
    EXPECT_EQ(piped[i].model_version, 1u);
  }

  // The pipelined path actually pipelined: frames overlapped in flight and
  // at least one kQueryBatch coalesced queued queries.
  const serve::telemetry::RegistrySnapshot snapshot =
      pipelined.telemetry_snapshot();
  EXPECT_GT(snapshot.counters.at("net.pipelined_rpcs"), 0u);
  EXPECT_GT(snapshot.counters.at("net.batched_queries"), 0u);
  EXPECT_EQ(snapshot.gauges.at("net.pool_size"), 2);
  server.stop();
}

TEST_F(RemoteFixture, ConcurrentSubmittersAndControlRpcsAreBitIdenticalToLocal) {
  // Four submitter threads share one pipelined client while a fifth polls
  // stats RPCs on the same sockets. Every answer must match local serving
  // bit for bit: a control frame interleaved into a query frame would tear
  // one of them.
  remote::ShardServerConfig server_config;
  server_config.address = unique_address("concurrent");
  remote::ShardServer server(server_config);
  server.start();
  remote::RemoteBackendConfig config = fast_client(server_config.address);
  config.pool_size = 2;
  config.max_in_flight = 2;
  config.max_batch = 4;
  remote::RemoteBackend backend(config);
  serve::SyncBackend local;
  backend.deploy(record());
  local.deploy(record());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 200;
  serve::TrafficGenerator generator = traffic();
  const auto stream = generator.generate(kThreads * kPerThread);
  std::vector<serve::QueryResult> results(stream.size());
  std::atomic<bool> traffic_done{false};
  std::size_t polls = 0;
  std::thread poller([&] {
    do {
      EXPECT_FALSE(backend.telemetry_snapshot().empty());
      ++polls;
    } while (!traffic_done.load());
  });
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = t * kPerThread; i < (t + 1) * kPerThread; ++i) {
        backend.submit(stream[i].building, stream[i].x,
                       [&results, i](serve::QueryResult r) {
                         results[i] = std::move(r);
                       });
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  backend.drain();
  traffic_done.store(true);
  poller.join();
  EXPECT_GT(polls, 0u);

  for (std::size_t i = 0; i < stream.size(); ++i) {
    serve::QueryResult expected;
    local.submit(stream[i].building, stream[i].x,
                 [&expected](serve::QueryResult r) { expected = std::move(r); });
    ASSERT_EQ(results[i].outcome, serve::QueryOutcome::kOk) << results[i].error;
    EXPECT_EQ(results[i].rp, expected.rp);
    EXPECT_EQ(results[i].position.x, expected.position.x);
    EXPECT_EQ(results[i].position.y, expected.position.y);
    ASSERT_EQ(results[i].top_k.size(), expected.top_k.size());
    for (std::size_t k = 0; k < expected.top_k.size(); ++k) {
      EXPECT_EQ(results[i].top_k[k].label, expected.top_k[k].label);
      EXPECT_EQ(results[i].top_k[k].confidence, expected.top_k[k].confidence);
    }
  }
  const serve::telemetry::RegistrySnapshot snapshot =
      backend.telemetry_snapshot();
  EXPECT_EQ(snapshot.counters.at("net.rpc_failures"), 0u);
  EXPECT_EQ(snapshot.counters.at("net.connect_failures"), 0u);
  server.stop();
}

void RemoteFixture::kill_shard_mid_traffic(int max_in_flight,
                                           std::size_t max_batch) {
  // Failures arrive via QueryOutcome on the callback: after submit
  // returned (connection lost mid-window) or on the submitting thread (a
  // submit that cannot reconnect). Either way the service must map them to
  // Response::kFailed with per-shard attribution.
  remote::ShardServerConfig config_a;
  config_a.address = unique_address("killA");
  remote::ShardServer server_a(config_a);
  server_a.start();
  remote::ShardServerConfig config_b;
  config_b.address = unique_address("killB");
  auto server_b = std::make_unique<remote::ShardServer>(config_b);
  server_b->start();

  const auto client = [&](const std::string& address) {
    remote::RemoteBackendConfig config = fast_client(address);
    config.max_in_flight = max_in_flight;
    config.max_batch = max_batch;
    return std::make_unique<remote::RemoteBackend>(config);
  };
  std::vector<std::unique_ptr<serve::QueryBackend>> shards;
  shards.push_back(client(config_a.address));
  shards.push_back(client(config_b.address));
  serve::LocalizationService service(std::move(shards));
  service.set_router(serve::make_router("round_robin"));
  service.publish(record());  // replicated 2PC publish over the wire

  serve::TrafficGenerator generator = traffic();
  const auto stream = generator.generate(24);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(service.submit({2, stream[i].x}).get().status,
              serve::Response::Status::kAnswered);
  }
  // Kill shard B's process mid-traffic (server object destroyed: listener
  // and live connections gone — the hard-kill shape, minus the SIGKILL).
  server_b.reset();

  std::size_t answered = 0, failed = 0;
  for (std::size_t i = 8; i < 24; ++i) {
    const serve::Response response = service.submit({2, stream[i].x}).get();
    if (response.status == serve::Response::Status::kFailed) {
      ++failed;
      EXPECT_EQ(response.shard, 1);
      EXPECT_FALSE(response.error.empty());
    } else {
      ++answered;
      EXPECT_EQ(response.status, serve::Response::Status::kAnswered);
      EXPECT_EQ(response.shard, 0);
    }
  }
  // Round-robin: half of the post-kill queries routed to the dead shard
  // and completed kFailed; shard A answered its half. No hang, no outage.
  EXPECT_EQ(failed, 8u);
  EXPECT_EQ(answered, 8u);
  const serve::LocalizationService::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 8u);
  ASSERT_EQ(stats.shard_errors.size(), 2u);
  EXPECT_EQ(stats.shard_errors[0], 0u);
  EXPECT_EQ(stats.shard_errors[1], 8u);
  server_a.stop();
}

TEST_F(RemoteFixture, KillingAShardMidTrafficDegradesButKeepsServing) {
  kill_shard_mid_traffic(/*max_in_flight=*/1, /*max_batch=*/1);
}

TEST_F(RemoteFixture, PipelinedClientDegradesWhenShardDiesMidTraffic) {
  // The same kill with the window open: queries are in flight and batched
  // when shard B goes away.
  kill_shard_mid_traffic(/*max_in_flight=*/8, /*max_batch=*/4);
}

}  // namespace
}  // namespace safeloc
