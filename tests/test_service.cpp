// LocalizationService tests: router policies and shard distribution,
// admission chain semantics, cross-shard publish atomicity, and the
// serve-time PoisonGate scored against labelled adversarial traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/serve/admission.h"
#include "src/serve/backend.h"
#include "src/serve/model_store.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/traffic.h"
#include "src/util/rng.h"

namespace safeloc {
namespace {

/// One engine-trained, calibration-carrying SAFELOC record on building 2
/// (48 RPs, the smallest), shared across the suite. Trained through two
/// federated rounds, so the record is a *post-rounds* model: its
/// calibration reflects the client recon anchor + capture-path decoder
/// refresh keeping the clean-RCE floor low (the regime every fleet model
/// serves in).
class ServiceFixture : public ::testing::Test {
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

  static std::vector<std::unique_ptr<serve::QueryBackend>> sync_shards(
      std::size_t n) {
    std::vector<std::unique_ptr<serve::QueryBackend>> shards;
    for (std::size_t s = 0; s < n; ++s) {
      shards.push_back(std::make_unique<serve::SyncBackend>());
    }
    return shards;
  }

  static serve::TrafficGenerator traffic(double attack_fraction,
                                         double epsilon = 0.3) {
    serve::TrafficConfig config;
    config.buildings = {2};
    config.mean_qps = 1000.0;
    config.fingerprints_per_rp = 1;
    config.seed = 2024;
    config.attack_fraction = attack_fraction;
    config.attack_epsilon = epsilon;
    return serve::TrafficGenerator(config);
  }
};

// ---------------------------------------------------------------------------
// Routers
// ---------------------------------------------------------------------------

TEST(Router, RoundRobinCyclesAllShards) {
  serve::RoundRobinRouter router;
  const serve::ShardView view{.shards = 4, .queue_depths = {}};
  const std::vector<float> fingerprint(8, 0.5f);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(router.route(1, fingerprint, view), i % 4);
  }
}

TEST(Router, LeastLoadedPicksShallowestQueueAndRotatesTies) {
  serve::LeastLoadedRouter router;
  const std::vector<float> fingerprint(8, 0.5f);
  EXPECT_TRUE(router.needs_load());

  // A strict minimum wins regardless of the rotation offset.
  const std::vector<std::size_t> depths = {3, 0, 2, 4};
  const serve::ShardView view{.shards = 4, .queue_depths = depths};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(router.route(1, fingerprint, view), 1u);
  }

  // All-equal depths (a drained fleet) cycle instead of pinning shard 0.
  const std::vector<std::size_t> even = {5, 5, 5};
  const serve::ShardView even_view{.shards = 3, .queue_depths = even};
  std::vector<std::size_t> hits(3, 0);
  for (int i = 0; i < 9; ++i) ++hits[router.route(1, fingerprint, even_view)];
  for (const std::size_t h : hits) EXPECT_EQ(h, 3u);
}

TEST(Router, HashIsDeterministicPerQuery) {
  serve::HashRouter a, b;
  const serve::ShardView view{.shards = 8, .queue_depths = {}};
  serve::TrafficConfig config;
  config.buildings = {1, 2};
  config.fingerprints_per_rp = 1;
  serve::TrafficGenerator generator(config);
  for (const serve::TimedQuery& query : generator.generate(64)) {
    const std::size_t shard = a.route(query.building, query.x, view);
    EXPECT_LT(shard, 8u);
    // Same query -> same shard, across calls and router instances.
    EXPECT_EQ(a.route(query.building, query.x, view), shard);
    EXPECT_EQ(b.route(query.building, query.x, view), shard);
  }
}

TEST(Router, MakeRouterResolvesPolicyNames) {
  EXPECT_EQ(serve::make_router("hash")->name(), "hash");
  EXPECT_EQ(serve::make_router("round_robin")->name(), "round_robin");
  EXPECT_EQ(serve::make_router("least_loaded")->name(), "least_loaded");
  EXPECT_THROW((void)serve::make_router("nope"), std::invalid_argument);
}

/// All three policies must spread realistic traffic across every shard of
/// a 4-shard fleet (hash: statistically; round-robin: exactly; least
/// loaded: via the zero-depth tie cycling through drained sync shards).
TEST_F(ServiceFixture, AllRoutersDistributeTrafficAcrossShards) {
  for (const char* policy : {"hash", "round_robin", "least_loaded"}) {
    serve::LocalizationService service(sync_shards(4));
    service.set_router(serve::make_router(policy));
    service.publish(record());

    serve::TrafficGenerator generator = traffic(0.0);
    for (const serve::TimedQuery& query : generator.generate(400)) {
      service.submit({query.building, query.x}, nullptr);
    }
    const serve::LocalizationService::Stats stats = service.stats();
    ASSERT_EQ(stats.routed.size(), 4u) << policy;
    for (std::size_t s = 0; s < 4; ++s) {
      // Every shard takes a real share: >= 10% of a uniform share's 100.
      EXPECT_GE(stats.routed[s], 10u) << policy << " shard " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// LocalizationService
// ---------------------------------------------------------------------------

TEST_F(ServiceFixture, SubmitAnswersThroughRoutedShard) {
  serve::LocalizationService service(sync_shards(3));
  service.set_router(serve::make_router("round_robin"));
  EXPECT_EQ(service.shard_count(), 3u);
  service.publish(record());
  EXPECT_EQ(service.published_version(2), 1u);

  serve::TrafficGenerator generator = traffic(0.0);
  const auto stream = generator.generate(9);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    serve::Response response =
        service.submit({stream[i].building, stream[i].x}).get();
    EXPECT_EQ(response.status, serve::Response::Status::kAnswered);
    EXPECT_FALSE(response.flagged);
    EXPECT_EQ(response.shard, static_cast<int>(i % 3));
    EXPECT_EQ(response.query.model_version, 1u);
    EXPECT_GE(response.query.rp, 0);
    EXPECT_LT(response.query.rp, 48);
    EXPECT_EQ(response.query.building, 2);
  }
  EXPECT_EQ(service.stats().submitted, 9u);
  EXPECT_EQ(service.stats().rejected, 0u);

  // Undeployed building: the shard's refusal completes kFailed, naming the
  // building.
  const serve::Response refused = service.submit({4, stream[0].x}).get();
  EXPECT_EQ(refused.status, serve::Response::Status::kFailed);
  EXPECT_NE(refused.error.find("building 4"), std::string::npos)
      << refused.error;
}

TEST_F(ServiceFixture, PublishSwapsEveryShardAtomicallyByVersion) {
  serve::LocalizationService service(sync_shards(4));
  service.set_router(serve::make_router("round_robin"));
  service.publish(record());
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(service.shard(s).deployed_version(2), 1u);
  }

  serve::TrafficGenerator generator = traffic(0.0);
  const auto stream = generator.generate(8);
  for (const serve::TimedQuery& query : stream) {
    EXPECT_EQ(service.submit({query.building, query.x}).get().query.model_version,
              1u);
  }

  // Re-publish as version 2: once publish() returns, every shard answers
  // at the new version — a full router rotation observes no stragglers.
  serve::ModelRecord v2 = record();
  v2.version = 2;
  service.publish(v2);
  EXPECT_EQ(service.published_version(2), 2u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(service.shard(s).deployed_version(2), 2u);
  }
  for (const serve::TimedQuery& query : stream) {
    EXPECT_EQ(service.submit({query.building, query.x}).get().query.model_version,
              2u);
  }
}

TEST_F(ServiceFixture, PublishDuringLiveTrafficNeverMixesUnknownVersions) {
  serve::ServiceConfig config;
  config.shards = 2;
  config.engine.workers = 1;
  config.engine.max_batch = 8;
  config.engine.batch_window = std::chrono::microseconds(0);
  serve::LocalizationService service(config);
  service.set_router(serve::make_router("round_robin"));
  service.publish(record());

  serve::TrafficGenerator generator = traffic(0.0);
  const auto stream = generator.generate(200);
  std::atomic<bool> bad_version{false};
  std::thread producer([&] {
    for (const serve::TimedQuery& query : stream) {
      service.submit({query.building, query.x}, [&](serve::Response response) {
        const std::uint32_t version = response.query.model_version;
        if (version != 1 && version != 2) bad_version = true;
      });
    }
  });
  serve::ModelRecord v2 = record();
  v2.version = 2;
  service.publish(v2);  // races the producer by design
  producer.join();
  service.drain();
  EXPECT_FALSE(bad_version.load());

  // The fleet has settled on v2: fresh submissions all answer with it.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service.submit({2, stream[0].x}).get().query.model_version, 2u);
  }
}

/// Delegating backend with two failure knobs: stage() refusal (the shard
/// that breaks a fleet publish) and submit() unavailability (a dead remote
/// shard, completing every query kUnavailable). Everything else forwards to
/// a real SyncBackend.
class FlakyBackend final : public serve::QueryBackend {
 public:
  bool fail_stage = false;
  bool unavailable = false;

  void stage(const serve::ModelRecord& record) override {
    if (fail_stage) throw std::runtime_error("FlakyBackend: stage refused");
    inner_.stage(record);
  }
  void commit_staged(int building) override { inner_.commit_staged(building); }
  void abort_staged(int building) noexcept override {
    inner_.abort_staged(building);
  }
  [[nodiscard]] std::uint32_t deployed_version(int building) const override {
    return inner_.deployed_version(building);
  }
  [[nodiscard]] std::size_t deployed_model_count() const override {
    return inner_.deployed_model_count();
  }
  void submit(int building, std::vector<float> fingerprint,
              Callback done) override {
    if (unavailable) {
      done(serve::failed_result(serve::QueryOutcome::kUnavailable,
                                "FlakyBackend: shard down"));
      return;
    }
    inner_.submit(building, std::move(fingerprint), std::move(done));
  }
  void drain() override {}
  [[nodiscard]] std::size_t queue_depth() const override { return 0; }

 private:
  serve::SyncBackend inner_;
};

TEST_F(ServiceFixture, PublishIsAllOrNothingWhenOneShardRefuses) {
  // Three shards; the last one refuses to stage. The fleet must keep
  // serving NOTHING for the building — the two shards that staged fine
  // roll back instead of committing a version the third never got.
  auto shards = sync_shards(2);
  auto flaky = std::make_unique<FlakyBackend>();
  FlakyBackend* flaky_view = flaky.get();
  shards.push_back(std::move(flaky));
  flaky_view->fail_stage = true;
  serve::LocalizationService service(std::move(shards));

  EXPECT_THROW(service.publish(record()), std::runtime_error);
  EXPECT_EQ(service.published_version(2), 0u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(service.shard(s).deployed_version(2), 0u) << "shard " << s;
    EXPECT_EQ(service.shard(s).deployed_model_count(), 0u) << "shard " << s;
    // The staged snapshots were aborted, not left dangling: a direct
    // commit has nothing to swap in.
    EXPECT_THROW(service.shard(s).commit_staged(2), std::logic_error);
  }

  // The fleet recovers: same record publishes cleanly once the shard does.
  flaky_view->fail_stage = false;
  service.publish(record());
  EXPECT_EQ(service.published_version(2), 1u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(service.shard(s).deployed_version(2), 1u) << "shard " << s;
  }
}

TEST_F(ServiceFixture, DeadShardDegradesToFailedResponsesNotOutage) {
  auto shards = sync_shards(1);
  auto flaky = std::make_unique<FlakyBackend>();
  FlakyBackend* flaky_view = flaky.get();
  shards.push_back(std::move(flaky));
  serve::LocalizationService service(std::move(shards));
  service.set_router(serve::make_router("round_robin"));
  service.publish(record());

  flaky_view->unavailable = true;  // shard 1 "dies" after deploy
  serve::TrafficGenerator generator = traffic(0.0);
  std::size_t answered = 0, failed = 0;
  for (const serve::TimedQuery& query : generator.generate(8)) {
    const serve::Response response =
        service.submit({query.building, query.x}).get();
    if (response.status == serve::Response::Status::kFailed) {
      ++failed;
      EXPECT_EQ(response.shard, 1);
      EXPECT_NE(response.error.find("shard down"), std::string::npos);
    } else {
      ++answered;
      EXPECT_EQ(response.status, serve::Response::Status::kAnswered);
      EXPECT_EQ(response.shard, 0);
      EXPECT_EQ(response.query.model_version, 1u);
    }
  }
  // Round-robin over 2 shards: half the traffic hit the dead shard and
  // completed kFailed; the other half was answered normally — degradation,
  // not an outage, and every future resolved (no hang).
  EXPECT_EQ(failed, 4u);
  EXPECT_EQ(answered, 4u);
  const serve::LocalizationService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.failed, 4u);
  ASSERT_EQ(stats.shard_errors.size(), 2u);
  EXPECT_EQ(stats.shard_errors[0], 0u);
  EXPECT_EQ(stats.shard_errors[1], 4u);
}

/// Flags every request and admits it, attributing the flag to the
/// "envelope" test so the per-test counters can be checked too.
class FlagEverything final : public serve::AdmissionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "flag_everything"; }
  [[nodiscard]] serve::AdmissionVerdict inspect(
      int /*building*/, std::span<const float> /*fingerprint*/) override {
    serve::AdmissionVerdict verdict;
    verdict.action = serve::AdmissionVerdict::Action::kFlag;
    verdict.score = 1.0;
    verdict.test = "envelope";
    verdict.reason = "flags everything";
    return verdict;
  }
};

TEST_F(ServiceFixture, FailedQueriesKeepTheirAdmissionVerdictAndAreCounted) {
  // A flagged query whose shard fails is still a flagged, routed query:
  // its kFailed response keeps the admission verdict, and Stats counts it
  // exactly like a flagged query that was answered.
  auto shards = sync_shards(1);
  auto flaky = std::make_unique<FlakyBackend>();
  FlakyBackend* flaky_view = flaky.get();
  shards.push_back(std::move(flaky));
  serve::LocalizationService service(std::move(shards));
  service.set_router(serve::make_router("round_robin"));
  service.add_admission(std::make_unique<FlagEverything>());
  service.publish(record());

  flaky_view->unavailable = true;
  serve::TrafficGenerator generator = traffic(0.0);
  std::size_t failed = 0;
  for (const serve::TimedQuery& query : generator.generate(8)) {
    const serve::Response response =
        service.submit({query.building, query.x}).get();
    EXPECT_TRUE(response.flagged);
    EXPECT_EQ(response.admission_policy, "flag_everything");
    EXPECT_EQ(response.admission_test, "envelope");
    EXPECT_EQ(response.admission_reason, "flags everything");
    EXPECT_EQ(response.admission_score, 1.0);
    if (response.status == serve::Response::Status::kFailed) {
      ++failed;
      EXPECT_EQ(response.shard, 1);
      EXPECT_NE(response.error.find("shard down"), std::string::npos);
    } else {
      EXPECT_EQ(response.status, serve::Response::Status::kAnswered);
      EXPECT_EQ(response.shard, 0);
    }
  }
  EXPECT_EQ(failed, 4u);
  const serve::LocalizationService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.flagged, 8u);
  EXPECT_EQ(stats.flagged_envelope, 8u);
  EXPECT_EQ(stats.flagged_rce, 0u);
  ASSERT_EQ(stats.routed.size(), 2u);
  EXPECT_EQ(stats.routed[0], 4u);
  EXPECT_EQ(stats.routed[1], 4u);
  EXPECT_EQ(stats.shard_errors[1], 4u);
}

TEST_F(ServiceFixture, PartitionedPublishDeploysOnlyToOwnerShard) {
  serve::PartitionMap partition =
      serve::PartitionMap::affinity(std::vector<int>{2}, 2);
  const std::uint32_t owner = partition.owner_of(2);

  serve::LocalizationService service(sync_shards(2));
  service.set_router(std::make_unique<serve::PartitionRouter>(partition));
  service.set_partition(partition);
  ASSERT_NE(service.partition(), nullptr);
  service.publish(record());

  // The memory contract: the owner holds the model, the other shard holds
  // nothing — O(owned buildings), not O(all).
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(service.shard(s).deployed_model_count(), s == owner ? 1u : 0u);
  }
  // And the partition router sends every query to the shard that has it.
  serve::TrafficGenerator generator = traffic(0.0);
  for (const serve::TimedQuery& query : generator.generate(16)) {
    const serve::Response response =
        service.submit({query.building, query.x}).get();
    EXPECT_EQ(response.status, serve::Response::Status::kAnswered);
    EXPECT_EQ(response.shard, static_cast<int>(owner));
  }

  // A mismatched map is refused up front.
  EXPECT_THROW(
      service.set_partition(serve::PartitionMap::affinity(
          std::vector<int>{2}, 5)),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Admission / PoisonGate
// ---------------------------------------------------------------------------

TEST_F(ServiceFixture, PoisonGateFlagsAttackTrafficAndAdmitsBenign) {
  ASSERT_TRUE(record().calibration.valid());
  ASSERT_TRUE(record().calibration.has_rce);

  serve::LocalizationService service(sync_shards(2));
  auto gate = std::make_unique<serve::PoisonGate>();
  const serve::PoisonGate& gate_view = *gate;
  service.add_admission(std::move(gate));
  service.publish(record());
  EXPECT_TRUE(std::isfinite(
      static_cast<double>(gate_view.rce_threshold(2))));

  const auto flag_rate = [&](double attack_fraction) {
    serve::TrafficGenerator generator = traffic(attack_fraction);
    std::size_t flagged = 0;
    const auto stream = generator.generate(300);
    for (const serve::TimedQuery& query : stream) {
      serve::Response response =
          service.submit({query.building, query.x}).get();
      EXPECT_EQ(response.status, serve::Response::Status::kAnswered);
      if (response.flagged) {
        ++flagged;
        EXPECT_EQ(response.admission_policy, "poison_gate");
        EXPECT_FALSE(response.admission_reason.empty());
      }
    }
    return static_cast<double>(flagged) / static_cast<double>(stream.size());
  };

  // Acceptance bar: >= 90% of attack-window fingerprints flagged while
  // benign traffic is admitted (calibrated p99 threshold -> ~1% clean FPR).
  EXPECT_LE(flag_rate(0.0), 0.05);
  EXPECT_GE(flag_rate(1.0), 0.90);
  EXPECT_GT(gate_view.stats().inspected, 0u);
}

TEST_F(ServiceFixture, RceTestCatchesInEnvelopePerturbationPostRounds) {
  // The attack the envelope backstop cannot see: perturb a small fraction
  // of features hard. The violated-feature fraction stays under the
  // envelope trigger, but the reconstruction error through the published
  // (post-rounds, refreshed) decoder rises past the calibrated threshold —
  // this is the paper's headline test doing work the envelope cannot, on a
  // model that has been through federated rounds.
  ASSERT_TRUE(record().calibration.has_rce);
  // Decoder freshness precondition (the bug this PR fixes): a stale
  // decoder's clean p99 drifts far above the pretrained floor and the
  // in-envelope perturbation below would drown in it.
  ASSERT_LE(record().calibration.rce_p99, 0.3f);

  serve::LocalizationService service(sync_shards(1));
  auto gate = std::make_unique<serve::PoisonGate>();
  const serve::PoisonGate& gate_view = *gate;
  service.add_admission(std::move(gate));
  service.publish(record());

  const serve::PoisonGateConfig gate_config;
  const rss::FeatureStats& features = record().calibration.features;
  serve::TrafficGenerator generator = traffic(0.0);
  util::Rng sign_rng(7);
  std::size_t in_envelope = 0, rce_flagged_in_envelope = 0, rce_flagged = 0;
  const auto stream = generator.generate(120);
  for (const serve::TimedQuery& query : stream) {
    // Hard random-sign shift on a small feature subset (±0.9 on the first
    // 24 of 128; near-zero features always shift up so the clamp cannot
    // erase the perturbation). A handful of violated features cannot reach
    // the envelope's violated-fraction trigger, but the reconstruction
    // residual they leave is well above the clean floor — random signs
    // keep the shift noise-like, which the de-noising decoder projects
    // away instead of reproducing.
    std::vector<float> x = query.x;
    for (std::size_t j = 0; j < 24; ++j) {
      const bool up = x[j] < 0.1f || sign_rng.bernoulli(0.5);
      x[j] = std::clamp(x[j] + (up ? 0.9f : -0.9f), 0.0f, 1.0f);
    }
    // Score the perturbed query against the envelope ourselves: only
    // queries that provably stay under the trigger count for the claim
    // (clean heterogeneous traffic occasionally sits near the boundary
    // already; those queries prove nothing either way).
    std::size_t violated = 0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double tolerance =
          gate_config.z * static_cast<double>(features.stddev[j]) +
          gate_config.feature_floor;
      if (std::abs(static_cast<double>(x[j]) - features.mean[j]) > tolerance) {
        ++violated;
      }
    }
    const bool under_envelope =
        static_cast<double>(violated) / static_cast<double>(x.size()) <=
        gate_config.max_violation_fraction;

    const serve::Response response = service.submit({2, std::move(x)}).get();
    const bool via_rce =
        response.flagged && response.admission_test == "rce";
    rce_flagged += via_rce ? 1 : 0;
    if (under_envelope) {
      ++in_envelope;
      rce_flagged_in_envelope += via_rce ? 1 : 0;
    }
  }
  // The crafted perturbation is genuinely invisible to the backstop for
  // the bulk of the stream...
  EXPECT_GE(in_envelope, stream.size() * 7 / 10);
  // ...and the RCE test catches those queries anyway.
  EXPECT_GE(rce_flagged_in_envelope, in_envelope * 9 / 10);
  const serve::PoisonGate::Stats stats = gate_view.stats();
  EXPECT_EQ(stats.flagged_rce, rce_flagged);
  EXPECT_EQ(stats.flagged_envelope, stats.flagged - stats.flagged_rce);
}

TEST_F(ServiceFixture, RefreshedCalibrationSurvivesStoreRoundTrip) {
  // SFST v2 round-trip for a record carrying *refreshed* calibration: the
  // post-rounds, post-refresh statistics must come back bit-identical, and
  // a gate calibrated from the reloaded record must judge traffic exactly
  // like one calibrated from the original.
  std::stringstream stream;
  store().save(stream);
  const serve::ModelStore reloaded = serve::ModelStore::load(stream);
  const serve::ModelRecord& original = record();
  const serve::ModelRecord& copy = reloaded.latest("SAFELOC/b2");
  ASSERT_TRUE(copy.calibration.has_rce);
  EXPECT_EQ(copy.calibration, original.calibration);
  EXPECT_EQ(copy.provenance.fl_rounds, 2);

  serve::PoisonGate gate_a, gate_b;
  gate_a.on_publish(original);
  gate_b.on_publish(copy);
  EXPECT_EQ(gate_a.rce_threshold(2), gate_b.rce_threshold(2));
  serve::TrafficGenerator generator = traffic(0.5);
  for (const serve::TimedQuery& query : generator.generate(200)) {
    const serve::AdmissionVerdict a = gate_a.inspect(2, query.x);
    const serve::AdmissionVerdict b = gate_b.inspect(2, query.x);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.test, b.test);
    EXPECT_EQ(a.reason, b.reason);
  }
}

TEST_F(ServiceFixture, PoisonGateRejectModeShortCircuitsBeforeRouting) {
  serve::PoisonGateConfig config;
  config.reject = true;
  serve::LocalizationService service(sync_shards(2));
  service.add_admission(std::make_unique<serve::PoisonGate>(config));
  service.publish(record());

  serve::TrafficGenerator generator = traffic(1.0);
  std::size_t rejected = 0;
  for (const serve::TimedQuery& query : generator.generate(50)) {
    serve::Response response = service.submit({query.building, query.x}).get();
    if (response.status == serve::Response::Status::kRejected) {
      ++rejected;
      EXPECT_EQ(response.shard, -1);
      EXPECT_TRUE(response.flagged);
      EXPECT_EQ(response.query.rp, -1);  // never touched a shard
    }
  }
  EXPECT_GE(rejected, 45u);  // the 90% bar again, in reject mode
  EXPECT_EQ(service.stats().rejected, rejected);
}

TEST_F(ServiceFixture, UncalibratedModelsPassThroughTheGate) {
  // A record published without the engine path has no calibration: the
  // gate must not guess — everything is admitted.
  serve::ModelRecord manual = record();
  manual.calibration = {};

  serve::LocalizationService service(sync_shards(1));
  auto gate = std::make_unique<serve::PoisonGate>();
  const serve::PoisonGate& gate_view = *gate;
  service.add_admission(std::move(gate));
  service.publish(manual);
  EXPECT_TRUE(std::isnan(gate_view.rce_threshold(2)));

  serve::TrafficGenerator generator = traffic(1.0);
  for (const serve::TimedQuery& query : generator.generate(20)) {
    EXPECT_FALSE(service.submit({query.building, query.x}).get().flagged);
  }
}

TEST_F(ServiceFixture, UncalibratedRepublishDropsTheStaleDetector) {
  // v1 is calibrated; v2 (manual publish, no calibration) replaces it.
  // The gate must drop v1's detector rather than judge live traffic
  // against statistics of a model that is no longer serving.
  serve::LocalizationService service(sync_shards(1));
  auto gate = std::make_unique<serve::PoisonGate>();
  const serve::PoisonGate& gate_view = *gate;
  service.add_admission(std::move(gate));
  service.publish(record());
  EXPECT_FALSE(std::isnan(gate_view.rce_threshold(2)));

  serve::ModelRecord manual = record();
  manual.version = 2;
  manual.calibration = {};
  service.publish(manual);
  EXPECT_TRUE(std::isnan(gate_view.rce_threshold(2)));
  serve::TrafficGenerator generator = traffic(1.0);
  for (const serve::TimedQuery& query : generator.generate(20)) {
    EXPECT_FALSE(service.submit({query.building, query.x}).get().flagged);
  }
}

}  // namespace
}  // namespace safeloc
