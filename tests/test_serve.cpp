// Serving-layer tests: ServingNet extraction equivalence, ModelStore
// versioning + deterministic round-trip, QueryEngine batching/hot-swap,
// and TrafficGenerator determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/baselines/frameworks.h"
#include "src/core/safeloc.h"
#include "src/engine/engine.h"
#include "src/eval/experiment.h"
#include "src/rss/dataset.h"
#include "src/serve/model_store.h"
#include "src/serve/query_engine.h"
#include "src/serve/serving_net.h"
#include "src/serve/traffic.h"
#include "src/util/binary_io.h"

namespace safeloc {
namespace {

/// Building 2 (48 RPs, the smallest) with a briefly pretrained SAFELOC —
/// shared across tests; serving only reads snapshots.
class ServeFixture : public ::testing::Test {
 protected:
  static eval::Experiment& experiment() {
    static eval::Experiment instance(2);
    return instance;
  }

  static core::SafeLocFramework& safeloc_fw() {
    static auto framework = [] {
      auto fw = std::make_unique<core::SafeLocFramework>();
      experiment().pretrain(*fw, /*epochs=*/2);
      return fw;
    }();
    return *framework;
  }

  static serve::ModelRecord make_record(std::uint32_t version = 1) {
    serve::ModelRecord record;
    record.name = "SAFELOC/b2";
    record.version = version;
    record.provenance.framework = "SAFELOC";
    record.provenance.building = 2;
    record.provenance.num_classes = experiment().num_classes();
    record.state = safeloc_fw().snapshot();
    return record;
  }
};

// ---------------------------------------------------------------------------
// ServingNet
// ---------------------------------------------------------------------------

TEST_F(ServeFixture, ServingNetMatchesFusedNetLogitsBitwise) {
  const nn::StateDict state = safeloc_fw().snapshot();
  const serve::ServingNet net = serve::ServingNet::from_state(state);
  EXPECT_EQ(net.input_dim(), rss::kFeatureDim);
  EXPECT_EQ(net.num_classes(), experiment().num_classes());
  EXPECT_EQ(net.layer_count(), 4u);  // enc1, enc2, enc3, cls — decoder skipped

  const nn::Matrix x = experiment().training_set().x.slice_rows(0, 16);
  const nn::Matrix logits = net.logits(x);
  const auto fwd = safeloc_fw().network().forward(x);
  EXPECT_EQ(logits, fwd.logits);  // same kernels, same order → bit-identical
}

TEST_F(ServeFixture, ServingNetMatchesBaselineDnnLogits) {
  auto fedloc = baselines::make_fedloc();
  experiment().pretrain(*fedloc, /*epochs=*/1);
  nn::StateDict state = fedloc->snapshot();
  const serve::ServingNet net = serve::ServingNet::from_state(state);

  const nn::Matrix x = experiment().training_set().x.slice_rows(0, 8);
  const nn::Matrix expected = fedloc->model().forward(x, /*train=*/false);
  EXPECT_EQ(net.logits(x), expected);
}

TEST(ServingNet, RejectsBrokenChains) {
  nn::StateDict bad;
  bad.add("layer0.w", nn::Matrix(4, 3));
  bad.add("layer0.b", nn::Matrix(1, 3));
  bad.add("layer2.w", nn::Matrix(5, 2));  // 3-wide output feeding 5-wide in
  bad.add("layer2.b", nn::Matrix(1, 2));
  EXPECT_THROW((void)serve::ServingNet::from_state(bad),
               std::invalid_argument);

  nn::StateDict orphan;
  orphan.add("layer0.w", nn::Matrix(4, 3));
  EXPECT_THROW((void)serve::ServingNet::from_state(orphan),
               std::invalid_argument);
}

TEST(ServingNet, TopKRanksByConfidenceWithStableTies) {
  const std::vector<float> probs = {0.1f, 0.5f, 0.4f};
  const auto top = serve::top_k_classes(probs, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].label, 1);
  EXPECT_FLOAT_EQ(top[0].confidence, 0.5f);
  EXPECT_EQ(top[1].label, 2);

  // k beyond the class count clamps; exact ties keep the lower label first.
  const std::vector<float> tied = {0.5f, 0.5f};
  const auto all = serve::top_k_classes(tied, 5);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].label, 0);
  EXPECT_EQ(all[1].label, 1);
}

// ---------------------------------------------------------------------------
// ModelStore
// ---------------------------------------------------------------------------

nn::StateDict tiny_state(float fill) {
  nn::Matrix w(4, 3);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.flat()[i] = fill + static_cast<float>(i) * 0.25f;
  }
  nn::Matrix b(1, 3);
  b.fill(fill * 2.0f);
  nn::StateDict state;
  state.add("layer0.w", std::move(w));
  state.add("layer0.b", std::move(b));
  return state;
}

TEST(ModelStore, SaveLoadRoundTripAcrossBuildings) {
  serve::ModelStore store;
  for (int building = 1; building <= 3; ++building) {
    serve::ModelProvenance provenance;
    provenance.framework = "FEDLOC";
    provenance.building = building;
    provenance.seed = 100u + static_cast<std::uint64_t>(building);
    provenance.server_epochs = 5;
    provenance.fl_rounds = 2;
    provenance.attack_label = building == 3 ? "FGSM@0.5" : "none";
    provenance.num_classes = static_cast<std::size_t>(10 * building);
    store.publish("FEDLOC/b" + std::to_string(building),
                  tiny_state(static_cast<float>(building)), provenance);
  }
  // Second version under an existing name.
  EXPECT_EQ(store.publish("FEDLOC/b1", tiny_state(9.0f),
                          store.latest("FEDLOC/b1").provenance),
            2u);
  ASSERT_EQ(store.size(), 4u);

  std::stringstream stream;
  store.save(stream);
  const serve::ModelStore loaded = serve::ModelStore::load(stream);

  ASSERT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.names(), store.names());
  for (const std::string& name : store.names()) {
    for (std::uint32_t v = 1; v <= store.latest(name).version; ++v) {
      const serve::ModelRecord& original = store.at(name, v);
      const serve::ModelRecord& restored = loaded.at(name, v);
      EXPECT_EQ(restored.version, original.version);
      EXPECT_EQ(restored.provenance, original.provenance) << name;
      ASSERT_TRUE(restored.state.same_schema(original.state));
      for (std::size_t t = 0; t < original.state.tensor_count(); ++t) {
        EXPECT_EQ(restored.state.tensor(t).value,
                  original.state.tensor(t).value);
      }
    }
  }

  // Determinism: the same records serialize to identical bytes regardless
  // of publish order (the writer sorts by name, version).
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), stream.str());
}

TEST(ModelStore, CalibrationRoundTripsAndV1StreamsStillLoad) {
  eval::ModelCalibration calibration;
  calibration.features.mean = {0.1f, 0.2f, 0.3f};
  calibration.features.stddev = {0.01f, 0.02f, 0.03f};
  calibration.rce_mean = 0.12f;
  calibration.rce_std = 0.03f;
  calibration.rce_p99 = 0.2f;
  calibration.rce_max = 0.22f;
  calibration.has_rce = true;
  calibration.samples = 240;

  serve::ModelStore store;
  store.publish("m", tiny_state(1.0f), {}, calibration);
  std::stringstream stream;
  store.save(stream);
  const serve::ModelStore loaded = serve::ModelStore::load(stream);
  EXPECT_EQ(loaded.latest("m").calibration, calibration);

  // A v1 stream (records without the calibration block) still loads; the
  // record then carries an invalid calibration.
  std::stringstream v1;
  util::write_pod(v1, std::uint32_t{0x53465354});  // magic
  util::write_pod(v1, std::uint32_t{1});           // format v1
  util::write_pod(v1, std::uint64_t{1});           // record count
  const serve::ModelRecord& record = store.latest("m");
  util::write_string(v1, record.name);
  util::write_pod(v1, record.version);
  util::write_string(v1, record.provenance.framework);
  util::write_pod(v1, std::int32_t{record.provenance.building});
  util::write_pod(v1, record.provenance.seed);
  util::write_pod(v1, std::int32_t{record.provenance.repeat});
  util::write_pod(v1, std::int32_t{record.provenance.server_epochs});
  util::write_pod(v1, std::int32_t{record.provenance.fl_rounds});
  util::write_string(v1, record.provenance.attack_label);
  util::write_pod(v1,
                  static_cast<std::uint64_t>(record.provenance.num_classes));
  record.state.save(v1);
  const serve::ModelStore from_v1 = serve::ModelStore::load(v1);
  EXPECT_FALSE(from_v1.latest("m").calibration.valid());
  EXPECT_EQ(from_v1.latest("m").provenance, record.provenance);
}

TEST(ModelStore, LoadRejectsTrailingBytes) {
  // SFST is a whole-stream format: bytes after the last record mean a torn
  // republish or concatenated stores, and load() must refuse them
  // (expect_exhausted) rather than silently dropping the tail.
  serve::ModelStore store;
  store.publish("m", tiny_state(1.0f), {});
  std::stringstream stream;
  store.save(stream);
  stream << '\0';
  EXPECT_THROW((void)serve::ModelStore::load(stream), std::runtime_error);

  std::stringstream doubled;
  store.save(doubled);
  store.save(doubled);
  EXPECT_THROW((void)serve::ModelStore::load(doubled), std::runtime_error);
}

TEST(ModelStore, RejectsBadLookupsAndEmptyPublishes) {
  serve::ModelStore store;
  EXPECT_FALSE(store.contains("nope"));
  EXPECT_THROW((void)store.latest("nope"), std::out_of_range);
  EXPECT_THROW(store.publish("", tiny_state(1.0f), {}),
               std::invalid_argument);
  EXPECT_THROW(store.publish("m", nn::StateDict{}, {}),
               std::invalid_argument);
  store.publish("m", tiny_state(1.0f), {});
  EXPECT_THROW((void)store.at("m", 2), std::out_of_range);
  EXPECT_THROW((void)store.at("m", 0), std::out_of_range);
}

TEST(ModelStore, PublishesEngineCapturedCells) {
  engine::ScenarioSpec spec;
  spec.framework = "FEDLOC";
  spec.building = 2;
  spec.rounds = 1;
  spec.server_epochs = 1;
  const engine::ScenarioEngine eng;
  const engine::RunReport report =
      eng.run(std::vector<engine::ScenarioSpec>{spec}, 1,
              /*capture_final_gm=*/true);

  serve::ModelStore store;
  EXPECT_EQ(store.publish_run(report), 1u);
  const serve::ModelRecord& record = store.latest("FEDLOC/b2");
  EXPECT_EQ(record.version, 1u);
  EXPECT_EQ(record.provenance.framework, "FEDLOC");
  EXPECT_EQ(record.provenance.building, 2);
  EXPECT_EQ(record.provenance.attack_label, "none");
  EXPECT_EQ(record.provenance.num_classes, 48u);
  EXPECT_EQ(record.provenance.fl_rounds, 1);

  // The capture path also calibrates the snapshot: clean feature envelope
  // over 5 devices x 48 RPs; FEDLOC has no decoder, so no RCE stats.
  EXPECT_TRUE(record.calibration.valid());
  EXPECT_EQ(record.calibration.samples, 240u);
  EXPECT_EQ(record.calibration.features.mean.size(), rss::kFeatureDim);
  EXPECT_EQ(record.calibration.features.stddev.size(), rss::kFeatureDim);
  EXPECT_FALSE(record.calibration.has_rce);

  // A cell without a captured model is rejected.
  engine::CellResult uncaptured;
  EXPECT_THROW(store.publish(uncaptured), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// QueryEngine
// ---------------------------------------------------------------------------

TEST_F(ServeFixture, QueryEngineBatchedMatchesDirectForward) {
  const serve::ModelRecord record = make_record();
  const serve::ServingNet reference =
      serve::ServingNet::from_state(record.state);

  serve::QueryEngineConfig config;
  config.workers = 2;
  config.max_batch = 8;
  config.batch_window = std::chrono::microseconds(500);
  config.top_k = 3;
  serve::QueryEngine engine(config);
  engine.deploy(record);
  EXPECT_EQ(engine.deployed_version(2), 1u);

  const nn::Matrix& train_x = experiment().training_set().x;
  const rss::Building& building = experiment().building();
  std::vector<std::future<serve::QueryResult>> futures;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = train_x.row(i);
    futures.push_back(engine.submit(2, {row.begin(), row.end()}));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const serve::QueryResult result = futures[i].get();
    // Reference answer from a direct single-row forward: batching must not
    // change predictions.
    const nn::Matrix single = train_x.slice_rows(i, i + 1);
    nn::Matrix probs = reference.logits(single);
    serve::softmax_rows_inplace(probs);
    const auto expected = serve::top_k_classes(probs.row(0), 3);
    ASSERT_EQ(result.top_k.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(result.top_k[k].label, expected[k].label);
      EXPECT_FLOAT_EQ(result.top_k[k].confidence, expected[k].confidence);
    }
    EXPECT_EQ(result.rp, expected.front().label);
    const rss::Point position =
        building.rp_position(static_cast<std::size_t>(result.rp));
    EXPECT_DOUBLE_EQ(result.position.x, position.x);
    EXPECT_DOUBLE_EQ(result.position.y, position.y);
    EXPECT_EQ(result.model_version, 1u);
    EXPECT_GE(result.latency_us, 0.0);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.queries, n);
  EXPECT_GE(stats.mean_batch_fill(), 1.0);
}

TEST_F(ServeFixture, QueryEngineHotSwapsModelsWhileServing) {
  serve::QueryEngineConfig config;
  config.workers = 1;
  config.max_batch = 4;
  config.batch_window = std::chrono::microseconds(0);
  serve::QueryEngine engine(config);
  engine.deploy(make_record(1));

  const auto row = experiment().training_set().x.row(0);
  const std::vector<float> fingerprint(row.begin(), row.end());
  const serve::QueryResult before = engine.submit(2, fingerprint).get();
  EXPECT_EQ(before.model_version, 1u);

  // Replace with version 2 while the engine keeps running; subsequent
  // queries observe the new snapshot without a restart.
  engine.deploy(make_record(2));
  EXPECT_EQ(engine.deployed_version(2), 2u);
  const serve::QueryResult after = engine.submit(2, fingerprint).get();
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_EQ(after.rp, before.rp);  // same weights, so same answer
}

TEST_F(ServeFixture, QueryEngineValidatesSubmissions) {
  serve::QueryEngine engine({.workers = 1});
  // A refusal completes the query kRefused on the calling thread.
  const auto expect_refused = [&engine](int building, std::size_t width,
                                        const char* what) {
    const serve::QueryResult result =
        engine.submit(building, std::vector<float>(width, 0.0f)).get();
    EXPECT_EQ(result.outcome, serve::QueryOutcome::kRefused) << what;
    EXPECT_FALSE(result.error.empty()) << what;
  };
  expect_refused(2, 128, "nothing deployed");
  engine.deploy(make_record());
  expect_refused(2, 7, "wrong width");
  expect_refused(4, 128, "other building not deployed");
  EXPECT_EQ(engine.deployed_version(4), 0u);
}

TEST_F(ServeFixture, QueryEngineStopFlushesPartiallyFilledBatch) {
  serve::QueryEngineConfig config;
  config.workers = 1;
  config.max_batch = 8;
  // A batch window far longer than the test: without the stop() flush the
  // worker would sit on the partial batch until the window expires.
  config.batch_window = std::chrono::seconds(30);
  serve::QueryEngine engine(config);
  engine.deploy(make_record());

  const auto row = experiment().training_set().x.row(0);
  std::vector<std::future<serve::QueryResult>> futures;
  for (std::size_t i = 0; i < config.max_batch - 1; ++i) {
    futures.push_back(engine.submit(2, {row.begin(), row.end()}));
  }
  engine.stop();  // must flush the max_batch-1 pending queries and join
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_GE(future.get().rp, 0);
  }
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.stats().queries, config.max_batch - 1);

  // Idempotent, and the engine fails submissions once stopped.
  engine.stop();
  const serve::QueryResult late =
      engine.submit(2, {row.begin(), row.end()}).get();
  EXPECT_EQ(late.outcome, serve::QueryOutcome::kUnavailable);
}

TEST_F(ServeFixture, QueryEngineDrainCompletesCallbacks) {
  serve::QueryEngineConfig config;
  config.workers = 2;
  config.max_batch = 16;
  serve::QueryEngine engine(config);
  engine.deploy(make_record());
  const auto row = experiment().training_set().x.row(0);
  std::atomic<int> completed{0};
  for (int i = 0; i < 100; ++i) {
    engine.submit(2, {row.begin(), row.end()},
                  [&completed](serve::QueryResult) { ++completed; });
  }
  engine.drain();
  EXPECT_EQ(completed.load(), 100);
}

// ---------------------------------------------------------------------------
// TrafficGenerator
// ---------------------------------------------------------------------------

TEST(TrafficGenerator, DeterministicDeviceRealisticPoissonStream) {
  serve::TrafficConfig config;
  config.buildings = {1, 2};
  config.mean_qps = 1000.0;
  config.fingerprints_per_rp = 1;
  config.seed = 99;

  serve::TrafficGenerator a(config);
  serve::TrafficGenerator b(config);
  const auto stream_a = a.generate(200);
  const auto stream_b = b.generate(200);
  ASSERT_EQ(stream_a.size(), 200u);

  double previous = 0.0;
  bool saw_b1 = false, saw_b2 = false;
  for (std::size_t i = 0; i < stream_a.size(); ++i) {
    const serve::TimedQuery& query = stream_a[i];
    // Same seed -> identical stream.
    EXPECT_EQ(query.building, stream_b[i].building);
    EXPECT_EQ(query.device, stream_b[i].device);
    EXPECT_EQ(query.true_rp, stream_b[i].true_rp);
    EXPECT_EQ(query.x, stream_b[i].x);
    EXPECT_DOUBLE_EQ(query.arrival_s, stream_b[i].arrival_s);

    EXPECT_GT(query.arrival_s, previous);  // arrivals strictly increase
    previous = query.arrival_s;
    EXPECT_EQ(query.x.size(), rss::kFeatureDim);
    EXPECT_NE(query.device, rss::reference_device_index());
    saw_b1 |= query.building == 1;
    saw_b2 |= query.building == 2;
    EXPECT_GE(query.true_rp, 0);
  }
  EXPECT_TRUE(saw_b1);
  EXPECT_TRUE(saw_b2);

  // Poisson arrivals: the mean inter-arrival of 2000 samples sits near
  // 1/rate (exponential, stderr ~ mean/sqrt(n) ≈ 2.2%).
  serve::TrafficGenerator c(config);
  const auto long_stream = c.generate(2000);
  const double mean_gap = long_stream.back().arrival_s / 2000.0;
  EXPECT_NEAR(mean_gap, 1.0 / config.mean_qps, 0.15 / config.mean_qps);
}

TEST(TrafficGenerator, DifferentSeedsDiverge) {
  serve::TrafficConfig config;
  config.buildings = {1};
  config.fingerprints_per_rp = 1;
  config.seed = 1;
  serve::TrafficGenerator a(config);
  config.seed = 2;
  serve::TrafficGenerator b(config);

  const auto stream_a = a.generate(50);
  const auto stream_b = b.generate(50);
  bool arrivals_differ = false, fingerprints_differ = false;
  for (std::size_t i = 0; i < stream_a.size(); ++i) {
    arrivals_differ |= stream_a[i].arrival_s != stream_b[i].arrival_s;
    fingerprints_differ |= stream_a[i].x != stream_b[i].x;
  }
  EXPECT_TRUE(arrivals_differ);
  EXPECT_TRUE(fingerprints_differ);
}

TEST(TrafficGenerator, AttackWindowPoisonsOnlyInWindowQueries) {
  serve::TrafficConfig config;
  config.buildings = {2};
  config.mean_qps = 1000.0;
  config.fingerprints_per_rp = 1;
  config.seed = 42;

  // Whole-stream window at fraction 1: every query is poisoned by ±ε.
  serve::TrafficConfig poisoned_config = config;
  poisoned_config.attack_fraction = 1.0;
  poisoned_config.attack_epsilon = 0.25;
  serve::TrafficGenerator clean(config);
  serve::TrafficGenerator poisoned(poisoned_config);
  const serve::TimedQuery clean_q = clean.next();
  const serve::TimedQuery poisoned_q = poisoned.next();
  EXPECT_FALSE(clean_q.poisoned);
  ASSERT_TRUE(poisoned_q.poisoned);
  // Same draws up to the perturbation: identical identity, shifted features.
  EXPECT_EQ(poisoned_q.building, clean_q.building);
  EXPECT_EQ(poisoned_q.device, clean_q.device);
  EXPECT_EQ(poisoned_q.true_rp, clean_q.true_rp);
  for (std::size_t j = 0; j < clean_q.x.size(); ++j) {
    const float clamped_lo = std::max(0.0f, clean_q.x[j] - 0.25f);
    const float clamped_hi = std::min(1.0f, clean_q.x[j] + 0.25f);
    EXPECT_TRUE(poisoned_q.x[j] == clamped_lo || poisoned_q.x[j] == clamped_hi)
        << j;
  }

  // A mid-stream window: nothing before attack_start_s is poisoned, every
  // in-window query is, and the stream goes clean again after it closes.
  poisoned_config.attack_start_s = 0.05;
  poisoned_config.attack_duration_s = 0.05;
  serve::TrafficGenerator windowed(poisoned_config);
  std::size_t before = 0, inside = 0, after = 0;
  for (const serve::TimedQuery& query : windowed.generate(300)) {
    const bool in_window = query.arrival_s >= 0.05 && query.arrival_s < 0.10;
    EXPECT_EQ(query.poisoned, in_window);
    (query.arrival_s < 0.05 ? before : in_window ? inside : after)++;
  }
  EXPECT_GT(before, 0u);
  EXPECT_GT(inside, 0u);
  EXPECT_GT(after, 0u);
}

}  // namespace
}  // namespace safeloc
