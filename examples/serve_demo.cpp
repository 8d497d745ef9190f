// Serving quickstart: the full deployment lifecycle on two buildings,
// through the serve::LocalizationService front door.
//
//   1. Train: a benign two-building SAFELOC grid through the
//      ScenarioEngine, with capture_final_gm so each cell's post-rounds
//      global model is kept — together with its serving calibration
//      (clean feature envelope + clean RCE distribution).
//   2. Publish: push both captured models into a versioned ModelStore and
//      persist it to disk (deterministic "SFST" v2 binary).
//   3. Serve: bring up a 2-shard LocalizationService (hash-routed, with a
//      PoisonGate on the admission chain) and answer a device-realistic
//      mixed-building stream that contains an adversarial attack window;
//      report accuracy, latency, and how the gate scored the window —
//      split by which test flagged (the RCE test through the published
//      decoder vs the feature-envelope backstop).
//   4. Round-trip: reload the store from disk into a second service and
//      re-serve the identical stream — predictions and gate verdicts must
//      match exactly, proving the persisted snapshot is the serving truth.
//
// Exit gate (also exported to BENCH_gate.json for scripts/check_bench.py):
// the published models' clean-RCE p99 must stay at the pretrained floor
// (decoder freshness — the client recon anchor + server-side decoder
// refresh at work), and the RCE test ALONE must carry attack-window
// detection at a near-zero benign flag rate.
//
// Remote fleet mode: set SAFELOC_SERVE_REMOTE to a comma-separated list of
// shard_server addresses (e.g. "unix:/tmp/s0.sock,unix:/tmp/s1.sock") and
// the demo serves the SAME lifecycle through RemoteBackend shards in other
// processes — publish becomes a cross-process two-phase commit, queries
// cross the SFRP wire, and every exit bound above still applies unchanged
// (remote inference is bit-identical to local). The CI multi-process smoke
// runs this mode against two shard_server processes.
//   SAFELOC_SERVE_CONNECT_TIMEOUT_MS  per-attempt connect deadline (2000)
//   SAFELOC_SERVE_RETRIES             connect attempts per RPC (10 — the
//                                     fleet may still be binding sockets)
//   SAFELOC_SERVE_POOL                connections per shard (1)
//   SAFELOC_SERVE_WINDOW              query frames in flight per connection
//                                     (1)
//   SAFELOC_SERVE_BATCH               queued queries coalesced per frame (1)
// Raising pool/window/batch overlaps and coalesces more queries on the
// wire; results stay bit-identical, only the wire scheduling changes.
//
// Telemetry: after serving, the fleet-merged metrics registry is printed
// (per-stage latency histograms, gate attribution counters) and, when
// SAFELOC_TRACE_SAMPLE is set, sampled per-request trace spans are written
// as safeloc.trace/v1 JSON to SAFELOC_TRACE_DUMP (CI uploads this
// artifact from the smoke run).
//
// Usage: serve_demo    (fast profile; SAFELOC_FAST=0 for paper scale)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/rss/building.h"
#include "src/serve/admission.h"
#include "src/serve/model_store.h"
#include "src/serve/remote/remote_backend.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/traffic.h"
#include "src/util/config.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

// Bounds enforced by the exit code below and, via BENCH_gate.json, by
// scripts/check_bench.py in CI. The clean-RCE floor sits near 0.15 on a
// freshly refreshed decoder (and drifted above 1 before the recon anchor /
// decoder refresh existed), so 0.30 is a regression tripwire with margin
// for small training budgets.
constexpr double kMaxCleanRceP99 = 0.30;
constexpr double kMinRceRecall = 0.95;
constexpr double kMaxBenignFlagRate = 0.01;

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

std::unique_ptr<safeloc::serve::LocalizationService> make_service(
    const safeloc::serve::ModelStore& store) {
  using namespace safeloc;
  std::unique_ptr<serve::LocalizationService> service;
  const std::string remote_csv = util::env_string("SAFELOC_SERVE_REMOTE");
  if (!remote_csv.empty()) {
    // Remote fleet: one RemoteBackend per shard_server address. Same front
    // door, same router, same gate — the shards just live in other
    // processes, and publish_latest below becomes a cross-process 2PC.
    serve::remote::RemoteBackendConfig backend_config;
    backend_config.connect_timeout =
        std::chrono::milliseconds(util::env_int_strict(
            "SAFELOC_SERVE_CONNECT_TIMEOUT_MS", 2000));
    backend_config.connect_retries =
        util::env_int_strict("SAFELOC_SERVE_RETRIES", 10);
    backend_config.pool_size = util::env_int_strict("SAFELOC_SERVE_POOL", 1);
    backend_config.max_in_flight =
        util::env_int_strict("SAFELOC_SERVE_WINDOW", 1);
    backend_config.max_batch = static_cast<std::size_t>(
        util::env_int_strict("SAFELOC_SERVE_BATCH", 1));
    std::vector<std::unique_ptr<serve::QueryBackend>> shards;
    for (const std::string& address : split_csv(remote_csv)) {
      backend_config.address = address;
      shards.push_back(
          std::make_unique<serve::remote::RemoteBackend>(backend_config));
    }
    service =
        std::make_unique<serve::LocalizationService>(std::move(shards));
  } else {
    serve::ServiceConfig config;
    config.shards = 2;
    config.engine.workers = 1;
    config.engine.max_batch = 32;
    service = std::make_unique<serve::LocalizationService>(config);
  }
  service->set_router(serve::make_router("hash"));
  service->add_admission(std::make_unique<serve::PoisonGate>());
  service->publish_latest(store);
  return service;
}

}  // namespace

int main() {
  using namespace safeloc;
  const util::RunScale& scale = util::run_scale();
  const std::vector<int> buildings = {1, 2};

  // 1. Train one benign SAFELOC deployment per building.
  std::printf("serve_demo — training SAFELOC on buildings 1+2 (%d epochs, "
              "%d rounds)\n",
              scale.server_epochs, scale.fl_rounds);
  engine::ScenarioGrid grid;
  grid.base().framework = "SAFELOC";
  grid.buildings(buildings);
  const engine::ScenarioEngine eng;
  const engine::RunReport report =
      eng.run(grid, engine::default_thread_count(), /*capture_final_gm=*/true);

  // 2. Publish to a versioned store and persist it (v2: calibration rides
  // along with every record).
  serve::ModelStore store;
  const std::size_t published = store.publish_run(report);
  const std::string store_path = "safeloc_store.bin";
  store.save_file(store_path);
  util::AsciiTable models({"model", "version", "building", "classes",
                          "trained under", "clean RCE p99"});
  for (const std::string& name : store.names()) {
    const serve::ModelRecord& record = store.latest(name);
    models.add_row({record.name, std::to_string(record.version),
                    std::to_string(record.provenance.building),
                    std::to_string(record.provenance.num_classes),
                    record.provenance.attack_label,
                    util::AsciiTable::num(record.calibration.rce_p99, 4)});
  }
  std::printf("published %zu model(s) to %s:\n%s", published,
              store_path.c_str(), models.render().c_str());

  // 3. Serve a mixed-building stream with an adversarial window in the
  // middle: every query between 20 ms and 40 ms of stream time carries an
  // eps = 0.3 evasion perturbation.
  serve::TrafficConfig traffic_config;
  traffic_config.buildings = buildings;
  traffic_config.mean_qps = 10'000.0;
  traffic_config.attack_fraction = 1.0;
  traffic_config.attack_epsilon = 0.3;
  traffic_config.attack_start_s = 0.02;
  traffic_config.attack_duration_s = 0.02;
  serve::TrafficGenerator traffic(traffic_config);
  const std::vector<serve::TimedQuery> stream = traffic.generate(600);

  const auto service_ptr = make_service(store);
  serve::LocalizationService& service = *service_ptr;
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(stream.size());
  for (const serve::TimedQuery& query : stream) {
    futures.push_back(service.submit({query.building, query.x}));
  }
  std::map<int, rss::Building> floorplans;
  for (const int id : buildings) {
    floorplans.emplace(id, rss::Building(rss::paper_building(id)));
  }
  util::RunningStats clean_error_m, latency_us;
  std::size_t poisoned = 0, poisoned_flagged = 0, poisoned_flagged_rce = 0;
  std::size_t clean = 0, clean_flagged = 0;
  std::vector<serve::Response> first_pass;
  first_pass.reserve(stream.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::Response response = futures[i].get();
    latency_us.add(response.query.latency_us);
    if (stream[i].poisoned) {
      ++poisoned;
      poisoned_flagged += response.flagged ? 1 : 0;
      // The gate evaluates the RCE test first, so an "rce" verdict means
      // the paper's headline defense caught this query on its own.
      poisoned_flagged_rce +=
          response.flagged && response.admission_test == "rce" ? 1 : 0;
    } else {
      ++clean;
      clean_flagged += response.flagged ? 1 : 0;
      clean_error_m.add(floorplans.at(stream[i].building)
                            .rp_distance_m(
                                static_cast<std::size_t>(response.query.rp),
                                static_cast<std::size_t>(stream[i].true_rp)));
    }
    first_pass.push_back(std::move(response));
  }
  const serve::LocalizationService::Stats stats = service.stats();
  // Fleet telemetry: merged per-stage histograms (local engines or remote
  // shards over SFRP) plus the gate's per-test attribution counters.
  std::printf("--- telemetry (fleet view) ---\n%s"
              "gate attribution: %llu flagged by rce, %llu by envelope\n",
              stats.metrics.to_text().c_str(),
              static_cast<unsigned long long>(stats.flagged_rce),
              static_cast<unsigned long long>(stats.flagged_envelope));
  {
    // Fleet metrics snapshot for CI artifacts: the same merged registry
    // printed above, as JSON — includes the remote wire-leg stage
    // histograms (stage.wire_*) and net.* reliability counters when the
    // demo runs against a shard_server fleet.
    const std::string metrics_path =
        util::env_string("SAFELOC_SERVE_METRICS_DUMP");
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::binary);
      out << stats.metrics.to_json() << "\n";
      std::printf("fleet metrics written to %s\n", metrics_path.c_str());
    }
  }
  {
    const std::string dump_path = util::env_string("SAFELOC_TRACE_DUMP");
    if (!dump_path.empty()) {
      service.trace().write_json(dump_path);
      std::printf("trace spans written to %s (sample_every=%llu)\n",
                  dump_path.c_str(),
                  static_cast<unsigned long long>(
                      service.trace().config().sample_every));
    }
  }
  std::string placement;
  for (std::size_t s = 0; s < stats.routed.size(); ++s) {
    placement += (s == 0 ? "" : " / ") + std::to_string(stats.routed[s]);
  }
  std::printf("served %zu queries on %zu shards (placement: %s): "
              "clean mean error %.2f m, mean latency %.0f us\n",
              stream.size(), service.shard_count(), placement.c_str(),
              clean_error_m.mean(), latency_us.mean());
  const double recall = poisoned == 0
                            ? 0.0
                            : static_cast<double>(poisoned_flagged) /
                                  static_cast<double>(poisoned);
  const double rce_recall = poisoned == 0
                                ? 0.0
                                : static_cast<double>(poisoned_flagged_rce) /
                                      static_cast<double>(poisoned);
  const double benign_flag_rate =
      clean == 0 ? 0.0
                 : static_cast<double>(clean_flagged) /
                       static_cast<double>(clean);
  std::printf("poison gate: flagged %zu/%zu attack-window queries (%.1f%%; "
              "%.1f%% via the RCE test), %zu/%zu benign (%.1f%%)\n",
              poisoned_flagged, poisoned, 100.0 * recall,
              100.0 * rce_recall, clean_flagged, clean,
              100.0 * benign_flag_rate);
  double clean_rce_p99 = 0.0;
  for (const std::string& name : store.names()) {
    clean_rce_p99 = std::max(
        clean_rce_p99,
        static_cast<double>(store.latest(name).calibration.rce_p99));
  }

  // Gate-quality report for the CI bench gate: decoder freshness (the
  // post-rounds clean-RCE floor) and RCE-test recall, with the bounds the
  // exit code below enforces.
  {
    char json[640];
    std::snprintf(
        json, sizeof(json),
        "{\"schema\":\"safeloc.gate/v2\",\"clean_rce_p99\":%.6g,"
        "\"rce_attack_recall\":%.6g,\"attack_recall\":%.6g,"
        "\"benign_flag_rate\":%.6g,\"flagged_rce\":%llu,"
        "\"flagged_envelope\":%llu,"
        "\"bounds\":{\"max_clean_rce_p99\":%.6g,"
        "\"min_rce_attack_recall\":%.6g,\"max_benign_flag_rate\":%.6g}}\n",
        clean_rce_p99, rce_recall, recall, benign_flag_rate,
        static_cast<unsigned long long>(stats.flagged_rce),
        static_cast<unsigned long long>(stats.flagged_envelope),
        kMaxCleanRceP99, kMinRceRecall, kMaxBenignFlagRate);
    std::ofstream out("BENCH_gate.json", std::ios::binary);
    out << json;
    std::printf("gate metrics written to BENCH_gate.json (clean RCE p99 "
                "%.4f, RCE recall %.2f)\n",
                clean_rce_p99, rce_recall);
  }

  // 4. Reload the persisted store and prove serving equivalence — same
  // predictions AND same gate verdicts from the deserialized calibration.
  const serve::ModelStore reloaded = serve::ModelStore::load_file(store_path);
  const auto service2_ptr = make_service(reloaded);
  serve::LocalizationService& service2 = *service2_ptr;
  std::vector<std::future<serve::Response>> futures2;
  futures2.reserve(stream.size());
  for (const serve::TimedQuery& query : stream) {
    futures2.push_back(service2.submit({query.building, query.x}));
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < futures2.size(); ++i) {
    const serve::Response response = futures2[i].get();
    const serve::Response& first = first_pass[i];
    bool same = response.query.rp == first.query.rp &&
                response.flagged == first.flagged &&
                response.query.top_k.size() == first.query.top_k.size();
    if (same) {
      for (std::size_t k = 0; k < response.query.top_k.size(); ++k) {
        same &= response.query.top_k[k].label == first.query.top_k[k].label &&
                response.query.top_k[k].confidence ==
                    first.query.top_k[k].confidence;
      }
    }
    if (!same) ++mismatches;
  }
  if (mismatches != 0) {
    std::printf("FAIL: %zu/%zu responses changed across the store save/load "
                "round-trip\n",
                mismatches, stream.size());
    return 1;
  }
  std::printf("store round-trip verified: %zu/%zu responses identical after "
              "save -> load -> republish\n",
              stream.size(), stream.size());

  bool failed = false;
  if (clean_rce_p99 > kMaxCleanRceP99) {
    std::printf("FAIL: post-rounds clean-RCE p99 %.4f exceeds %.2f — the "
                "published decoder went stale (recon anchor / decoder "
                "refresh regression)\n",
                clean_rce_p99, kMaxCleanRceP99);
    failed = true;
  }
  if (rce_recall < kMinRceRecall) {
    std::printf("FAIL: RCE test flagged only %.1f%% of attack-window "
                "queries (floor %.0f%%)\n",
                100.0 * rce_recall, 100.0 * kMinRceRecall);
    failed = true;
  }
  if (benign_flag_rate > kMaxBenignFlagRate) {
    std::printf("FAIL: benign flag rate %.2f%% exceeds %.0f%%\n",
                100.0 * benign_flag_rate, 100.0 * kMaxBenignFlagRate);
    failed = true;
  }
  return failed ? 1 : 0;
}
