// Serving-layer load bench: throughput and latency of one serving shard
// across micro-batch caps and worker counts, against device-realistic
// Poisson traffic — plus a microbenchmark of every supported ServingNet
// GEMM dispatch variant (scalar/sse2/avx2) on the hot-loop shapes and a
// cache-busting shape, with the runtime-selected variant recorded so the CI
// bench gate (scripts/check_bench.py) can pin dispatch per machine.
//
// Pipeline: train a SAFELOC global model through the ScenarioEngine
// (benign cell, capture_final_gm), publish it into a single-shard
// LocalizationService, and for every (workers x batch) grid cell replay a
// pre-materialized TrafficGenerator stream closed-loop through submit()
// (producers go as fast as the bounded queue admits). Reports queries/sec,
// p50/p99/mean submit-to-completion latency, and the service's per-stage
// telemetry breakdown (admission/routing/queue-wait/batch-form/inference
// p50/p95/p99 from the fleet registry) per cell, written to
// BENCH_serve.json ("safeloc.serve_bench/v4"). bench_route sweeps the
// multi-shard axis on top of these single-shard numbers.
//
// Knobs:
//   SAFELOC_SERVE_SMOKE=1 (or --smoke)  tiny 1-cell grid, ~1 s total (CI)
//   SAFELOC_SERVE_QUERIES=<n>           queries per grid cell
//   SAFELOC_EPOCHS / SAFELOC_FAST       training budget (quality is
//                                       irrelevant to serving throughput,
//                                       so the default stays small)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/nn/matrix.h"
#include "src/serve/model_store.h"
#include "src/serve/service.h"
#include "src/serve/traffic.h"
#include "src/util/config.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using namespace safeloc;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct CellMeasurement {
  int workers = 0;
  std::size_t batch = 0;
  std::size_t queries = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double mean_batch_fill = 0.0;
  /// The service's merged telemetry after the replay — source of the
  /// per-stage percentile block in the JSON report.
  serve::telemetry::RegistrySnapshot metrics;
};

CellMeasurement run_cell(const serve::ModelRecord& record,
                         const std::vector<serve::TimedQuery>& stream,
                         int workers, std::size_t batch) {
  serve::ServiceConfig config;
  config.shards = 1;
  config.engine.workers = workers;
  config.engine.max_batch = batch;
  config.engine.batch_window = std::chrono::microseconds(100);
  // Closed-loop with bounded outstanding work: enough backlog to keep every
  // worker's batches full, shallow enough that the latency columns measure
  // batching + service time instead of raw backlog depth.
  config.engine.queue_capacity =
      std::max<std::size_t>(static_cast<std::size_t>(workers) * batch * 2, 256);
  serve::LocalizationService service(config);
  service.publish(record);

  std::vector<double> latencies_us(stream.size(), 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    // Closed loop: the bounded queue applies backpressure, so submission
    // runs at whatever rate the workers sustain.
    service.submit({stream[i].building, stream[i].x},
                   [&latencies_us, i](serve::Response response) {
                     latencies_us[i] = response.query.latency_us;
                   });
  }
  service.drain();
  const auto t1 = std::chrono::steady_clock::now();

  CellMeasurement cell;
  cell.workers = workers;
  cell.batch = batch;
  cell.queries = stream.size();
  cell.wall_s = std::chrono::duration<double>(t1 - t0).count();
  cell.qps = static_cast<double>(stream.size()) / cell.wall_s;
  cell.p50_us = util::percentile(latencies_us, 50.0);
  cell.p99_us = util::percentile(latencies_us, 99.0);
  cell.mean_us = util::mean_of(latencies_us);
  auto& engine = dynamic_cast<serve::QueryEngine&>(service.shard(0));
  cell.mean_batch_fill = engine.stats().mean_batch_fill();
  cell.metrics = service.stats().metrics;
  return cell;
}

struct KernelMeasurement {
  std::size_t m = 0, k = 0, n = 0;
  bool cache_busting = false;
  /// Median-of-5 microseconds per call, indexed like supported_variants().
  std::vector<std::pair<nn::simd::Variant, double>> variant_us;

  [[nodiscard]] double us_for(nn::simd::Variant v) const {
    for (const auto& [variant, us] : variant_us) {
      if (variant == v) return us;
    }
    return 0.0;
  }
};

/// Times every supported dispatch variant on one serving shape
/// (median-of-5 reps). All variants are bit-identical (asserted here too),
/// so this measures pure kernel speed.
KernelMeasurement time_kernels(std::size_t m, std::size_t k, std::size_t n,
                               int reps) {
  util::Rng rng(0xbe7c4);
  nn::Matrix a(m, k), b(k, n), out;
  for (float& v : a.flat()) v = rng.uniform_f(0.0f, 1.0f);
  for (float& v : b.flat()) v = rng.uniform_f(-0.5f, 0.5f);

  KernelMeasurement kernel;
  kernel.m = m;
  kernel.k = k;
  kernel.n = n;
  kernel.cache_busting = k * n * sizeof(float) > nn::kBlockedGemmBytes;

  nn::Matrix reference;
  nn::matmul_into(a, b, reference);
  for (const nn::simd::Variant variant : nn::simd::supported_variants()) {
    std::vector<double> runs;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) {
        nn::matmul_into_variant(a, b, out, variant);
      }
      const auto t1 = std::chrono::steady_clock::now();
      runs.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count() / reps);
    }
    if (!(out == reference)) {
      std::fprintf(stderr,
                   "FATAL: %s kernel diverged from scalar at %zux%zux%zu\n",
                   nn::simd::variant_name(variant), m, k, n);
      std::exit(1);
    }
    kernel.variant_us.emplace_back(variant, util::percentile(runs, 50.0));
  }
  return kernel;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = util::env_int_strict("SAFELOC_SERVE_SMOKE", 0) != 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::vector<int> worker_axis = smoke ? std::vector<int>{2}
                                             : std::vector<int>{1, 2, 4, 8};
  const std::vector<std::size_t> batch_axis =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{1, 16, 64, 256};
  const std::size_t queries_per_cell = static_cast<std::size_t>(
      util::env_int_strict("SAFELOC_SERVE_QUERIES", smoke ? 20'000 : 200'000));

  // Train and publish the served model. Serving throughput does not depend
  // on model quality, so the training budget stays deliberately small.
  engine::ScenarioSpec spec;
  spec.framework = "SAFELOC";
  spec.building = 1;
  spec.rounds = 0;
  spec.server_epochs = util::env_int_strict("SAFELOC_EPOCHS", smoke ? 2 : 8);
  std::printf("bench_serve — training %s on building %d (%d epochs)...\n",
              spec.framework.c_str(), spec.building, spec.server_epochs);
  const engine::ScenarioEngine trainer;
  const engine::RunReport trained =
      trainer.run(std::vector<engine::ScenarioSpec>{spec}, 1,
                  /*capture_final_gm=*/true);
  serve::ModelStore store;
  store.publish(trained.cells.front());
  const serve::ModelRecord& record =
      store.latest(serve::default_model_name(spec));

  serve::TrafficConfig traffic_config;
  traffic_config.buildings = {spec.building};
  traffic_config.mean_qps = 200'000.0;
  serve::TrafficGenerator traffic(traffic_config);
  const std::vector<serve::TimedQuery> stream =
      traffic.generate(queries_per_cell);
  std::printf("replaying %zu device-realistic queries per cell (%zu-cell "
              "grid)%s\n",
              stream.size(), worker_axis.size() * batch_axis.size(),
              smoke ? " [smoke]" : "");

  util::AsciiTable table({"workers", "batch", "queries/s", "p50 (us)",
                          "p99 (us)", "mean (us)", "batch fill"});
  std::vector<CellMeasurement> cells;
  for (const int workers : worker_axis) {
    for (const std::size_t batch : batch_axis) {
      const CellMeasurement cell = run_cell(record, stream, workers, batch);
      cells.push_back(cell);
      table.add_row({std::to_string(cell.workers), std::to_string(cell.batch),
                     util::AsciiTable::num(cell.qps, 0),
                     util::AsciiTable::num(cell.p50_us, 1),
                     util::AsciiTable::num(cell.p99_us, 1),
                     util::AsciiTable::num(cell.mean_us, 1),
                     util::AsciiTable::num(cell.mean_batch_fill, 1)});
    }
  }
  std::printf("%s", table.render().c_str());

  // ServingNet GEMM dispatch variants on the hot-loop shapes — (batch x
  // 128) x (128 x 89) is the widest layer of the paper architecture — plus
  // a cache-busting shape whose B footprint (~8.1 MB) exceeds
  // kBlockedGemmBytes, the regime the CI gate holds the AVX2 speedup to.
  const nn::simd::Variant selected = nn::simd::active_variant();
  const auto variants = nn::simd::supported_variants();
  // "auto"/empty mean the dispatcher picked freely — only a concrete
  // variant name counts as forced (mirrors resolve_from_env).
  const std::string kernel_env = util::env_string("SAFELOC_KERNEL");
  const bool forced = !kernel_env.empty() && kernel_env != "auto";
  std::string variant_header;
  for (const nn::simd::Variant v : variants) {
    variant_header += std::string(variant_header.empty() ? "" : ",") +
                      nn::simd::variant_name(v);
  }
  std::printf("kernel dispatch: selected=%s supported=[%s]%s\n",
              nn::simd::variant_name(selected), variant_header.c_str(),
              forced ? " (forced via SAFELOC_KERNEL)" : "");

  struct KernelShape {
    std::size_t m, k, n;
    int reps;
  };
  const std::vector<KernelShape> shapes = {
      {1, 128, 89, smoke ? 200 : 2000},
      {64, 128, 89, smoke ? 200 : 2000},
      {256, 128, 89, smoke ? 100 : 1000},
      {1024, 128, 89, smoke ? 50 : 500},
      // Cache-busting: B = 520 x 4096 floats streams from memory.
      {64, 520, 4096, smoke ? 2 : 10},
  };

  std::vector<std::string> columns = {"m", "k", "n"};
  for (const nn::simd::Variant v : variants) {
    columns.push_back(std::string(nn::simd::variant_name(v)) + " (us)");
  }
  columns.push_back("speedup");
  util::AsciiTable kernel_table(columns);
  std::vector<KernelMeasurement> kernels;
  for (const KernelShape& shape : shapes) {
    const KernelMeasurement kernel =
        time_kernels(shape.m, shape.k, shape.n, shape.reps);
    kernels.push_back(kernel);
    std::vector<std::string> row = {std::to_string(kernel.m),
                                    std::to_string(kernel.k),
                                    std::to_string(kernel.n)};
    double best_us = 0.0;
    for (const auto& [variant, us] : kernel.variant_us) {
      row.push_back(util::AsciiTable::num(us, 2));
      if (best_us == 0.0 || us < best_us) best_us = us;
    }
    const double scalar_us = kernel.us_for(nn::simd::Variant::kScalar);
    row.push_back(util::AsciiTable::num(
        best_us > 0.0 ? scalar_us / best_us : 1.0, 2));
    kernel_table.add_row(row);
  }
  std::printf("GEMM dispatch variants (bit-identical results):\n%s",
              kernel_table.render().c_str());

  std::string json = "{\"schema\":\"safeloc.serve_bench/v4\",";
  json += "\"kernel_dispatch\":{\"selected\":\"" +
          std::string(nn::simd::variant_name(selected)) + "\",";
  json += "\"forced\":";
  json += forced ? "true" : "false";
  json += ",\"supported\":[";
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (i > 0) json += ',';
    json += "\"" + std::string(nn::simd::variant_name(variants[i])) + "\"";
  }
  json += "]},";
  json += "\"model\":{\"name\":\"" + record.name + "\",";
  json += "\"framework\":\"" + record.provenance.framework + "\",";
  json += "\"building\":" + std::to_string(record.provenance.building) + ",";
  json += "\"version\":" + std::to_string(record.version) + ",";
  json += "\"num_classes\":" +
          std::to_string(record.provenance.num_classes) + "},";
  json += "\"queries_per_cell\":" + std::to_string(queries_per_cell) + ",";
  json += "\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellMeasurement& cell = cells[i];
    if (i > 0) json += ',';
    json += "{\"workers\":" + std::to_string(cell.workers) + ",";
    json += "\"batch\":" + std::to_string(cell.batch) + ",";
    json += "\"queries\":" + std::to_string(cell.queries) + ",";
    json += "\"wall_s\":" + num(cell.wall_s) + ",";
    json += "\"qps\":" + num(cell.qps) + ",";
    json += "\"latency_us\":{\"p50\":" + num(cell.p50_us) +
            ",\"p99\":" + num(cell.p99_us) +
            ",\"mean\":" + num(cell.mean_us) + "},";
    json += "\"stages\":" + serve::telemetry::stages_to_json(cell.metrics) +
            ",";
    json += "\"mean_batch_fill\":" + num(cell.mean_batch_fill) + "}";
  }
  json += "],\"kernels\":[";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelMeasurement& kernel = kernels[i];
    if (i > 0) json += ',';
    json += "{\"m\":" + std::to_string(kernel.m) + ",";
    json += "\"k\":" + std::to_string(kernel.k) + ",";
    json += "\"n\":" + std::to_string(kernel.n) + ",";
    json += "\"cache_busting\":";
    json += kernel.cache_busting ? "true" : "false";
    json += ",\"variants_us\":{";
    for (std::size_t v = 0; v < kernel.variant_us.size(); ++v) {
      if (v > 0) json += ',';
      json += '"';
      json += nn::simd::variant_name(kernel.variant_us[v].first);
      json += "\":";
      json += num(kernel.variant_us[v].second);
    }
    json += "}}";
  }
  json += "]}\n";
  std::ofstream out("BENCH_serve.json", std::ios::binary);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  std::printf("report written to BENCH_serve.json\n");

  // Headline: best sustained throughput at batch >= 64.
  double best_qps = 0.0;
  for (const CellMeasurement& cell : cells) {
    if (cell.batch >= 64 && cell.qps > best_qps) best_qps = cell.qps;
  }
  std::printf("peak batched throughput: %.0f queries/sec\n", best_qps);
  return 0;
}
