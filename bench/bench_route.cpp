// Routing/sharding bench: LocalizationService throughput across
// (shards x router policy x traffic mix), against device-realistic Poisson
// traffic — the scaling story on top of bench_serve's single-engine numbers.
//
// Pipeline: train one SAFELOC model per building through the ScenarioEngine
// (capture_final_gm so records carry serving calibration), publish them to
// the service, then for every grid cell replay a pre-materialized traffic
// stream closed-loop through submit() and measure queries/sec, p50/p99
// latency, per-shard placement, and — for the adversarial mix — PoisonGate
// flag counts. Each shard runs a single-worker QueryEngine, so the shards
// axis maps 1:1 onto cores on real hardware.
//
// Traffic mixes:
//   single        building 1 only
//   mixed         uniform over buildings {1, 2}
//   mixed_attack  mixed + a whole-stream evasion window (20% of queries at
//                 eps = 0.3) with a PoisonGate on the admission chain
//
// One extra cell runs the mixed stream against a *real process-per-shard
// fleet*: two `shard_server` child processes (spawned from the sibling
// binary) warm-load a partitioned store over unix sockets, and the service
// routes through RemoteBackends with a PartitionRouter. That cell measures
// the IPC tax of the wire protocol against the in-process 2-shard cell and
// records each shard's resident-model count next to its partition slice —
// the O(owned) memory contract, checked by scripts/check_bench.py.
//
// Knobs:
//   SAFELOC_SERVE_SMOKE=1 (or --smoke)  tiny grid for CI
//   SAFELOC_ROUTE_QUERIES=<n>           queries per grid cell
//   SAFELOC_ROUTE_REMOTE=0              skip the multi-process fleet cell
//   SAFELOC_EPOCHS                      training budget (model quality is
//                                       irrelevant to routing throughput)
//
// Writes BENCH_route.json ("safeloc.route_bench/v2"). Each cell carries
// the service's per-stage telemetry percentiles; the remote cell's stage
// set additionally shows the wire legs (serialize/RPC/deserialize) and the
// child engines' queue-wait — the same histograms, merged over SFRP.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/serve/admission.h"
#include "src/serve/model_store.h"
#include "src/serve/partition.h"
#include "src/serve/remote/remote_backend.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/traffic.h"
#include "src/util/config.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using namespace safeloc;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct TrafficMix {
  std::string name;
  std::vector<int> buildings;
  double attack_fraction = 0.0;
  bool gate = false;
};

struct CellMeasurement {
  int shards = 0;
  std::string router;
  std::string mix;
  /// "local" = in-process QueryEngine shards; "remote" = one shard_server
  /// child process per shard behind the SFRP wire protocol.
  std::string transport = "local";
  std::size_t queries = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// max routed share / mean routed share (1.0 = perfectly even).
  double imbalance = 1.0;
  std::uint64_t flagged = 0;
  std::size_t poisoned = 0;
  /// Remote cells only: per-shard models resident in the child process vs
  /// the size of that shard's partition slice. Equal lists == the shard
  /// holds O(owned) models, not O(all).
  std::vector<std::uint64_t> resident_models;
  std::vector<std::uint64_t> owned_models;
  /// Remote cells only: the client pipelining configuration the cell ran
  /// at (pool connections x in-flight window x coalesced batch).
  int pipeline_pool = 0;
  int pipeline_window = 0;
  int pipeline_batch = 0;
  /// Fleet-merged telemetry after the replay (local engines or remote
  /// shards over the wire) — source of the per-stage JSON block.
  serve::telemetry::RegistrySnapshot metrics;
};

/// Closed-loop replay of `stream` through an already-configured service,
/// filling the measurement half of `cell` (timing, percentiles, imbalance,
/// flag counts). Shared by the in-process cells and the remote fleet cell.
void replay_stream(serve::LocalizationService& service,
                   const std::vector<serve::TimedQuery>& stream,
                   CellMeasurement& cell) {
  std::vector<double> latencies_us(stream.size(), 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    // Closed loop: the routed shard's bounded queue applies backpressure.
    service.submit({stream[i].building, stream[i].x},
                   [&latencies_us, i](serve::Response response) {
                     latencies_us[i] = response.query.latency_us;
                   });
  }
  service.drain();
  const auto t1 = std::chrono::steady_clock::now();

  cell.queries = stream.size();
  cell.wall_s = std::chrono::duration<double>(t1 - t0).count();
  cell.qps = static_cast<double>(stream.size()) / cell.wall_s;
  cell.p50_us = util::percentile(latencies_us, 50.0);
  cell.p99_us = util::percentile(latencies_us, 99.0);
  const serve::LocalizationService::Stats stats = service.stats();
  std::uint64_t max_routed = 0, total_routed = 0;
  for (const std::uint64_t r : stats.routed) {
    max_routed = std::max(max_routed, r);
    total_routed += r;
  }
  if (total_routed > 0) {
    const double mean_share = static_cast<double>(total_routed) /
                              static_cast<double>(stats.routed.size());
    cell.imbalance = static_cast<double>(max_routed) / mean_share;
  }
  cell.flagged = stats.flagged;
  cell.metrics = stats.metrics;
  for (const serve::TimedQuery& query : stream) {
    cell.poisoned += query.poisoned ? 1 : 0;
  }
}

CellMeasurement run_cell(const serve::ModelStore& store,
                         const std::vector<serve::TimedQuery>& stream,
                         int shards, const std::string& router,
                         const TrafficMix& mix) {
  serve::ServiceConfig config;
  config.shards = shards;
  config.engine.workers = 1;  // the shards axis IS the parallelism axis
  config.engine.max_batch = 64;
  config.engine.batch_window = std::chrono::microseconds(100);
  config.engine.queue_capacity = std::max<std::size_t>(
      static_cast<std::size_t>(shards) * config.engine.max_batch * 2, 256);
  serve::LocalizationService service(config);
  service.set_router(serve::make_router(router));
  if (mix.gate) service.add_admission(std::make_unique<serve::PoisonGate>());
  service.publish_latest(store);

  CellMeasurement cell;
  cell.shards = shards;
  cell.router = router;
  cell.mix = mix.name;
  replay_stream(service, stream, cell);
  return cell;
}

/// Path of a binary living next to this one (bench_route and shard_server
/// land in the same build directory).
std::string sibling_binary(const char* argv0, const std::string& name) {
  const std::string self = argv0;
  const std::size_t slash = self.find_last_of('/');
  if (slash == std::string::npos) return "./" + name;
  return self.substr(0, slash + 1) + name;
}

pid_t spawn_shard(const std::string& exe, const std::string& address,
                  std::uint32_t index, std::uint32_t count,
                  const std::string& store_path,
                  const std::string& partition_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: a minimal, fully-specified environment — shard_server's strict
  // env parsing sees exactly the fleet knobs and nothing inherited.
  std::vector<std::string> env = {
      "SAFELOC_SHARD_ADDRESS=" + address,
      "SAFELOC_SHARD_INDEX=" + std::to_string(index),
      "SAFELOC_SHARD_COUNT=" + std::to_string(count),
      "SAFELOC_SHARD_WORKERS=1",  // match the in-process cells
      "SAFELOC_SHARD_STORE=" + store_path,
      "SAFELOC_SHARD_PARTITION=" + partition_path,
  };
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (std::string& entry : env) envp.push_back(entry.data());
  envp.push_back(nullptr);
  std::string arg0 = exe;
  char* argv[] = {arg0.data(), nullptr};
  ::execve(exe.c_str(), argv, envp.data());
  std::fprintf(stderr, "bench_route: execve(%s) failed: %s\n", exe.c_str(),
               std::strerror(errno));
  ::_exit(127);
}

/// The multi-process fleet cell: two shard_server children warm-load a
/// partitioned store, the parent serves the mixed stream through
/// RemoteBackends + PartitionRouter. Per-shard residency is read back over
/// the wire (kStatsRequest) as the O(owned) memory-contract evidence.
CellMeasurement run_remote_cell(const serve::ModelStore& store,
                                const std::vector<serve::TimedQuery>& stream,
                                const TrafficMix& mix, const char* argv0) {
  constexpr std::uint32_t kShards = 2;
  const std::string tag = std::to_string(::getpid());
  const std::string store_path = "/tmp/safeloc-route-" + tag + "-store.bin";
  const std::string partition_path = "/tmp/safeloc-route-" + tag + "-part.bin";
  std::vector<std::string> addresses;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    addresses.push_back("unix:/tmp/safeloc-route-" + tag + "-shard" +
                        std::to_string(s) + ".sock");
  }

  // Explicit one-building-per-shard placement so each child's slice is a
  // strict subset of the store, making O(owned) observable.
  serve::PartitionMap partition;
  partition.shards = kShards;
  partition.owner[1] = 0;
  partition.owner[2] = 1;
  store.save_file(store_path);
  partition.save_file(partition_path);

  const std::string shard_exe = sibling_binary(argv0, "shard_server");
  std::vector<pid_t> children;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    children.push_back(spawn_shard(shard_exe, addresses[s], s, kShards,
                                   store_path, partition_path));
  }

  CellMeasurement cell;
  cell.shards = static_cast<int>(kShards);
  cell.router = "partition";
  cell.mix = mix.name;
  cell.transport = "remote";
  try {
    std::vector<std::unique_ptr<serve::QueryBackend>> backends;
    std::vector<serve::remote::RemoteBackend*> raw;
    // Wide window by default: the remote cell's job is to measure the
    // wire tax at the transport's best configuration, not at the
    // one-frame-in-flight floor. Env knobs let CI and check_bench shrink
    // the window when hunting a regression.
    const int pool = util::env_int_strict("SAFELOC_ROUTE_REMOTE_POOL", 2);
    const int window = util::env_int_strict("SAFELOC_ROUTE_REMOTE_WINDOW", 32);
    const int batch = util::env_int_strict("SAFELOC_ROUTE_REMOTE_BATCH", 16);
    cell.pipeline_pool = pool;
    cell.pipeline_window = window;
    cell.pipeline_batch = batch;
    for (const std::string& address : addresses) {
      serve::remote::RemoteBackendConfig config;
      config.address = address;
      config.connect_retries = 50;  // children may still be warm-loading
      config.retry_backoff = std::chrono::milliseconds(100);
      config.pool_size = pool;
      config.max_in_flight = window;
      config.max_batch = static_cast<std::size_t>(batch);
      auto backend = std::make_unique<serve::remote::RemoteBackend>(config);
      raw.push_back(backend.get());
      backends.push_back(std::move(backend));
    }
    serve::LocalizationService service(std::move(backends));
    service.set_partition(partition);
    service.set_router(std::make_unique<serve::PartitionRouter>(partition));
    replay_stream(service, stream, cell);

    for (std::uint32_t s = 0; s < kShards; ++s) {
      cell.resident_models.push_back(raw[s]->shard_stats().resident_models);
      cell.owned_models.push_back(partition.owned_by(s).size());
    }
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "bench_route: remote fleet cell failed: %s\n",
                 failure.what());
    for (const pid_t child : children) ::kill(child, SIGKILL);
    for (const pid_t child : children) ::waitpid(child, nullptr, 0);
    std::remove(store_path.c_str());
    std::remove(partition_path.c_str());
    throw;
  }

  for (const std::string& address : addresses) {
    try {
      serve::remote::request_shutdown(address, std::chrono::seconds(5));
    } catch (const std::exception&) {
      // Fall through to the hard kill below.
    }
  }
  for (const pid_t child : children) {
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == 0) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
    }
  }
  std::remove(store_path.c_str());
  std::remove(partition_path.c_str());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = util::env_int_strict("SAFELOC_SERVE_SMOKE", 0) != 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::vector<int> shard_axis =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const std::vector<std::string> router_axis = {"hash", "round_robin",
                                                "least_loaded"};
  const std::vector<TrafficMix> mixes = {
      {"single", {1}, 0.0, false},
      {"mixed", {1, 2}, 0.0, false},
      {"mixed_attack", {1, 2}, 0.2, true},
  };
  const std::size_t queries_per_cell = static_cast<std::size_t>(
      util::env_int_strict("SAFELOC_ROUTE_QUERIES", smoke ? 10'000 : 100'000));

  // One benign SAFELOC deployment per building, calibration captured for
  // the adversarial mix's PoisonGate.
  engine::ScenarioGrid grid;
  grid.base().framework = "SAFELOC";
  grid.base().rounds = 0;
  grid.base().server_epochs = util::env_int_strict("SAFELOC_EPOCHS", smoke ? 2 : 8);
  grid.buildings({1, 2});
  std::printf("bench_route — training SAFELOC on buildings 1+2 (%d epochs)...\n",
              grid.base().server_epochs);
  const engine::RunReport trained = engine::ScenarioEngine{}.run(
      grid, engine::default_thread_count(), /*capture_final_gm=*/true);
  serve::ModelStore store;
  store.publish_run(trained);

  // Pre-materialize one stream per mix, shared by every (shards, router)
  // cell of that mix so the comparison is apples-to-apples.
  std::vector<std::vector<serve::TimedQuery>> streams;
  for (const TrafficMix& mix : mixes) {
    serve::TrafficConfig traffic_config;
    traffic_config.buildings = mix.buildings;
    traffic_config.mean_qps = 200'000.0;
    traffic_config.attack_fraction = mix.attack_fraction;
    traffic_config.attack_epsilon = 0.3;
    streams.push_back(
        serve::TrafficGenerator(traffic_config).generate(queries_per_cell));
  }
  std::printf("replaying %zu queries per cell over a %zu-cell grid on %u "
              "core(s)%s\n",
              queries_per_cell,
              shard_axis.size() * router_axis.size() * mixes.size(),
              std::thread::hardware_concurrency(), smoke ? " [smoke]" : "");

  util::AsciiTable table({"mix", "router", "shards", "transport", "queries/s",
                          "p50 (us)", "p99 (us)", "imbalance", "flagged"});
  std::vector<CellMeasurement> cells;
  const auto add_table_row = [&table](const CellMeasurement& cell) {
    table.add_row({cell.mix, cell.router, std::to_string(cell.shards),
                   cell.transport, util::AsciiTable::num(cell.qps, 0),
                   util::AsciiTable::num(cell.p50_us, 1),
                   util::AsciiTable::num(cell.p99_us, 1),
                   util::AsciiTable::num(cell.imbalance, 2),
                   std::to_string(cell.flagged)});
  };
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    for (const std::string& router : router_axis) {
      for (const int shards : shard_axis) {
        const CellMeasurement cell =
            run_cell(store, streams[m], shards, router, mixes[m]);
        cells.push_back(cell);
        add_table_row(cell);
      }
    }
  }

  // The process-per-shard fleet cell — same mixed stream, real wire.
  if (util::env_int_strict("SAFELOC_ROUTE_REMOTE", 1) != 0) {
    std::printf("spawning a 2-process shard_server fleet for the remote "
                "cell...\n");
    const CellMeasurement remote =
        run_remote_cell(store, streams[1], mixes[1], argv[0]);
    cells.push_back(remote);
    add_table_row(remote);
    for (const CellMeasurement& local : cells) {
      if (local.transport == "local" && local.mix == remote.mix &&
          local.shards == remote.shards && local.router == "hash" &&
          local.qps > 0.0) {
        std::printf("IPC tax: remote fleet serves at %.0f%% of the "
                    "in-process 2-shard cell (%.0f vs %.0f queries/s)\n",
                    100.0 * remote.qps / local.qps, remote.qps, local.qps);
        break;
      }
    }
    for (std::size_t s = 0; s < remote.resident_models.size(); ++s) {
      std::printf("shard %zu resident models: %llu (partition slice: %llu) "
                  "— memory is O(owned), not O(all %zu models)\n", s,
                  static_cast<unsigned long long>(remote.resident_models[s]),
                  static_cast<unsigned long long>(remote.owned_models[s]),
                  store.names().size());
    }
  }
  std::printf("%s", table.render().c_str());

  // Scaling summary: best speedup of the widest fleet over one shard.
  const int max_shards = shard_axis.back();
  double best_speedup = 0.0;
  std::string best_label;
  for (const CellMeasurement& wide : cells) {
    if (wide.shards != max_shards) continue;
    for (const CellMeasurement& one : cells) {
      if (one.shards == 1 && one.router == wide.router && one.mix == wide.mix &&
          one.qps > 0.0 && wide.qps / one.qps > best_speedup) {
        best_speedup = wide.qps / one.qps;
        best_label = wide.mix + "/" + wide.router;
      }
    }
  }
  std::printf("best %d-shard speedup over 1 shard: %.2fx (%s) — shard "
              "scaling is core-bound; this host has %u core(s)\n",
              max_shards, best_speedup, best_label.c_str(),
              std::thread::hardware_concurrency());

  std::string json = "{\"schema\":\"safeloc.route_bench/v2\",";
  json += "\"queries_per_cell\":" + std::to_string(queries_per_cell) + ",";
  json += "\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency()) + ",";
  json += "\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellMeasurement& cell = cells[i];
    if (i > 0) json += ',';
    json += "{\"mix\":\"" + cell.mix + "\",";
    json += "\"router\":\"" + cell.router + "\",";
    json += "\"shards\":" + std::to_string(cell.shards) + ",";
    json += "\"transport\":\"" + cell.transport + "\",";
    if (cell.transport == "remote") {
      const auto list = [](const std::vector<std::uint64_t>& values) {
        std::string out = "[";
        for (std::size_t v = 0; v < values.size(); ++v) {
          if (v > 0) out += ',';
          out += std::to_string(values[v]);
        }
        return out + "]";
      };
      json += "\"resident_models\":" + list(cell.resident_models) + ",";
      json += "\"owned_models\":" + list(cell.owned_models) + ",";
      json += "\"pipeline\":{\"pool\":" + std::to_string(cell.pipeline_pool) +
              ",\"window\":" + std::to_string(cell.pipeline_window) +
              ",\"batch\":" + std::to_string(cell.pipeline_batch) + "},";
    }
    json += "\"queries\":" + std::to_string(cell.queries) + ",";
    json += "\"wall_s\":" + num(cell.wall_s) + ",";
    json += "\"qps\":" + num(cell.qps) + ",";
    json += "\"latency_us\":{\"p50\":" + num(cell.p50_us) +
            ",\"p99\":" + num(cell.p99_us) + "},";
    json += "\"stages\":" + serve::telemetry::stages_to_json(cell.metrics) +
            ",";
    json += "\"imbalance\":" + num(cell.imbalance) + ",";
    json += "\"poisoned\":" + std::to_string(cell.poisoned) + ",";
    json += "\"flagged\":" + std::to_string(cell.flagged) + "}";
  }
  json += "]}\n";
  std::ofstream out("BENCH_route.json", std::ios::binary);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  std::printf("report written to BENCH_route.json\n");
  return 0;
}
