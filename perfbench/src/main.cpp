// perfbench — the repository benchmark program.
//
//   perfbench --self-test
//   perfbench --workload serve_local|serve_gated|serve_remote --seed N
//             --seconds S --trace 0|1 --lo-qps R --hi-qps R
//             --saturate-qps R --shard-exe PATH --run-dir DIR --out-dir DIR
//
// Every workload runs the same two phases:
//   1. training: the paper's SAFELOC pipeline through ScenarioEngine
//      (building 1 clean + FGSM, building 2 clean; budgets pinned in
//      train.cpp), whose building-1 clean and building-2 models are then
//      published to the serving fleet;
//   2. serving: set-up (stream synthesis + fleet bring-up, several times),
//      an idle probe with one query in flight, open-loop phases at the
//      workload's fixed lo and hi rates, then the saturation bursts for
//      capacity. The workload picks the fleet (serve.h FleetKind).
// --seconds sets the serving measurement: the idle probe lasts seconds/10,
// each fixed-rate phase seconds/4 and each saturation burst seconds/20;
// training is a fixed job.
//
// --trace 0 prints the end-to-end metrics; --trace 1 re-runs the phases
// through forwarding decorators and prints the per-layer metrics, writing
// the spans to --out-dir. The last stdout line is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The process exits 1 when any output is wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arith.h"
#include "kernels.h"
#include "serve.h"
#include "spans.h"
#include "src/nn/simd/dispatch.h"
#include "src/serve/model_store.h"
#include "src/serve/serving_net.h"
#include "train.h"

namespace {

using namespace perfbench;
using namespace safeloc;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double lo_qps = 0.0;
  double hi_qps = 0.0;
  double saturate_qps = 0.0;
  std::string shard_exe;
  std::string run_dir = ".";
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--lo-qps") {
      args.lo_qps = std::stod(value);
    } else if (key == "--hi-qps") {
      args.hi_qps = std::stod(value);
    } else if (key == "--saturate-qps") {
      args.saturate_qps = std::stod(value);
    } else if (key == "--shard-exe") {
      args.shard_exe = value;
    } else if (key == "--run-dir") {
      args.run_dir = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.seconds <= 0.0 || args.lo_qps <= 0.0 || args.hi_qps <= args.lo_qps ||
      args.saturate_qps <= args.hi_qps) {
    throw std::invalid_argument(
        "need --seconds > 0 and 0 < --lo-qps < --hi-qps < --saturate-qps");
  }
  return args;
}

FleetKind fleet_kind(const std::string& workload) {
  if (workload == "serve_local") return FleetKind::kLocal;
  if (workload == "serve_gated") return FleetKind::kGated;
  if (workload == "serve_remote") return FleetKind::kRemote;
  throw std::invalid_argument("unknown workload " + workload);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Everything a number must be compared against: only results with the
/// same host fingerprint are comparable.
std::string host_fingerprint(const Args& args) {
  return std::string("{") + "\"cpu\":" + json_string(cpu_model()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd\":" +
         json_string(nn::simd::variant_name(nn::simd::active_variant())) +
         ",\"compiler\":" + json_string(std::string("g++/clang++ ") + __VERSION__) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"workload\":" + json_string(args.workload) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"trace\":" + (args.trace ? "1" : "0") + "}";
}

class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    std::printf("metric %-28s %18.6f %s\n", name, value, unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  json_.empty() ? "" : ",", name, value, unit);
    json_ += buf;
  }
  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

void info(const char* name, double value, const char* unit) {
  std::printf("info   %-28s %18.6f %s\n", name, value, unit);
}

std::vector<serve::ModelRecord> publish_models(const engine::RunReport& report) {
  serve::ModelStore store;
  store.publish(report.cells[kCellClean]);
  store.publish(report.cells[kCellB2]);
  return {store.latest("SAFELOC/b1"), store.latest("SAFELOC/b2")};
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int run(const Args& args) {
  ServeConfig serve_config;
  serve_config.kind = fleet_kind(args.workload);
  serve_config.seed = args.seed;
  serve_config.lo_qps = args.lo_qps;
  serve_config.hi_qps = args.hi_qps;
  serve_config.saturate_qps = args.saturate_qps;
  serve_config.phase_s = args.seconds / 4.0;
  serve_config.burst_s = args.seconds / 20.0;
  serve_config.idle_s = args.seconds / 10.0;
  serve_config.run_dir = args.run_dir;
  serve_config.shard_exe = args.shard_exe;

  const std::string host = host_fingerprint(args);
  std::printf("host %s\n", host.c_str());

  const TrainResult trained = train();
  const std::vector<serve::ModelRecord> records =
      publish_models(trained.report);
  const double err_clean = trained.report.cells[kCellClean].stats.mean_m;
  const double err_fgsm = trained.report.cells[kCellFgsm].stats.mean_m;

  Metrics metrics;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  if (!args.trace) {
    const ServeOutcome served = run_serving(serve_config, records);
    attempted = served.attempted;
    failed = served.failed;
    metrics.add("setup_s", served.setup_s, "s");
    metrics.add("train_s", trained.train_s, "s");
    metrics.add("err_mean_m.clean", err_clean, "m");
    metrics.add("err_mean_m.fgsm", err_fgsm, "m");
    metrics.add("cpu_us_per_query", served.cpu_us_per_query, "us");
    metrics.add("peak_rss_mb", served.peak_rss_mb, "MB");
    // setup_s, train_s and cpu_us_per_query above are rescaled to the
    // reference host speed (hostspeed.h); these are the same figures as
    // measured, the speeds they were rescaled by, and set-up wall time.
    info("setup_cpu_s.measured", served.measured_setup_s, "s");
    info("setup_host_speed", served.setup_speed, "x");
    info("setup_wall_s", served.setup_wall_s, "s");
    info("train_wall_s", trained.wall_s, "s");
    info("train_host_speed", trained.speed.mean_speed, "x");
    info("train_speed_samples", static_cast<double>(trained.speed.samples),
         "count");
    info("cpu_us_per_query.measured", served.measured_cpu_us_per_query, "us");
    info("cpu_host_speed", served.cpu_speed, "x");
    // Measured and printed, but too host-dependent on a shared VM to gate
    // on (see perfbench/README.md): under load, latency and capacity move
    // far more between runs than any bound could allow.
    info("p50_us.idle", served.idle.p50_us, "us");
    info("capacity_qps", served.capacity_qps, "1/s");
    info("p50_floor_us.lo", served.lo.p50_floor_us, "us");
    info("p50_us.lo", served.lo.p50_us, "us");
    info("p99_us.lo", served.lo.tail_us, "us");
    info("p50_us.hi", served.hi.p50_us, "us");
    info("p99_us.hi", served.hi.tail_us, "us");
    info("p50_floor_us.hi", served.hi.p50_floor_us, "us");
    info("send_lag_p99_us", served.hi.lag_tail_us, "us");
    info("poison_recall", served.poison_recall, "frac");
    info("benign_flag_frac", served.benign_flag_frac, "frac");
    std::printf("samples idle=%zu lo=%zu hi=%zu (p%.2f per slice), fixed-rate "
                "phases with a growing backlog: %d, capacity bursts not "
                "saturated: %d, wrong answers %zu\n",
                served.idle.answered, served.lo.answered, served.hi.answered,
                served.hi.tail_pct,
                served.backlogged_phases, served.unsaturated_bursts,
                served.wrong);
  } else {
    SpanLog spans;
    const TrainPhases phases = train_traced(spans);
    for (std::size_t cell = 0; cell < phases.err_mean_m.size(); ++cell) {
      const double untraced = trained.report.cells[cell].stats.mean_m;
      if (!same_bits(phases.err_mean_m[cell], untraced)) {
        std::printf("MISMATCH: traced cell %zu error %.17g != engine %.17g\n",
                    cell, phases.err_mean_m[cell], untraced);
        correct = false;
      }
    }
    // fl.unattributed_s is rounds_s minus the phases, so the sum holds by
    // definition. What can fail is the timing itself: a phase that overlaps
    // another or is timed twice drives the remainder below zero, and no
    // phase may outlast the rounds that contain it. The 1 us slack absorbs
    // float rounding only.
    const std::pair<const char*, double> round_phases[] = {
        {"fl.self_label_s", phases.self_label_s},
        {"attack.oracle_s", phases.oracle_s},
        {"core.sanitize_s", phases.sanitize_s},
        {"fl.local_update_s", phases.local_update_s},
        {"fl.aggregate_s", phases.aggregate_s},
        {"core.recalibrate_s", phases.recalibrate_s}};
    for (const auto& [name, seconds] : round_phases) {
      if (seconds < 0.0 || seconds > phases.rounds_s) {
        std::printf("MISMATCH: %s is %.9f s, rounds took %.9f s\n", name,
                    seconds, phases.rounds_s);
        correct = false;
      }
    }
    if (phases.unattributed_s < -1e-6) {
      std::printf("MISMATCH: round phases overlap: fl.unattributed_s is "
                  "%.9f s\n", phases.unattributed_s);
      correct = false;
    }
    const std::size_t num_classes =
        serve::ServingNet::from_state(records.front().state).num_classes();
    const KernelTimes kernels =
        time_kernels(num_classes, records.front().state, args.seed);
    const ServeLayers layers = serve_traced(serve_config, records, spans);
    attempted = layers.outcome.attempted;
    failed = layers.outcome.failed;

    metrics.add("core.pretrain_s", phases.pretrain_s, "s");
    metrics.add("fl.rounds_s", phases.rounds_s, "s");
    metrics.add("fl.local_update_s", phases.local_update_s, "s");
    metrics.add("fl.self_label_s", phases.self_label_s, "s");
    metrics.add("attack.oracle_s", phases.oracle_s, "s");
    metrics.add("core.sanitize_s", phases.sanitize_s, "s");
    metrics.add("core.sanitize_flagged",
                static_cast<double>(phases.sanitize_flagged), "count");
    metrics.add("fl.aggregate_s", phases.aggregate_s, "s");
    metrics.add("core.recalibrate_s", phases.recalibrate_s, "s");
    metrics.add("fl.unattributed_s", phases.unattributed_s, "s");
    metrics.add("eval.evaluate_s", phases.evaluate_s, "s");
    metrics.add("core.capture_s", phases.capture_s, "s");
    metrics.add("rss.setup_s", phases.rss_setup_s, "s");
    metrics.add("nn.matmul_fwd_us", kernels.matmul_fwd_us, "us");
    metrics.add("nn.matmul_at_b_us", kernels.matmul_at_b_us, "us");
    metrics.add("nn.matmul_a_bt_us", kernels.matmul_a_bt_us, "us");
    metrics.add("nn.adam_step_us", kernels.adam_step_us, "us");
    metrics.add("nn.serving_forward_us.b1", kernels.serving_forward_b1_us, "us");
    metrics.add("nn.serving_forward_us.b64", kernels.serving_forward_b64_us,
                "us");
    metrics.add("serve.admission_us.p50", layers.admission_p50_us, "us");
    metrics.add("serve.admission_us.p99", layers.admission_p99_us, "us");
    metrics.add("serve.admission_calls", layers.admission_calls, "count");
    metrics.add("serve.submit_us.p50", layers.submit_p50_us, "us");
    metrics.add("serve.submit_us.p99", layers.submit_p99_us, "us");
    metrics.add("serve.backend_enqueue_us.p99", layers.backend_enqueue_p99_us,
                "us");
    metrics.add("serve.backend_us.p50", layers.backend_p50_us, "us");
    metrics.add("serve.backend_us.p99", layers.backend_p99_us, "us");
    metrics.add("serve.unattributed_us.p50", layers.unattributed_p50_us, "us");
    metrics.add("serve.send_lag_us.p99", layers.outcome.hi.lag_tail_us, "us");
    metrics.add("engine.batch_fill_mean", layers.batch_fill_mean, "queries");
    metrics.add("serve.route_imbalance", layers.route_imbalance, "ratio");
    metrics.add("remote.queries_per_frame", layers.queries_per_frame,
                "queries/frame");
    metrics.add("remote.rpc_failures", layers.rpc_failures, "count");
    metrics.add("remote.connect_retries", layers.connect_retries, "count");
    metrics.add("poison_recall", layers.outcome.poison_recall, "frac");
    metrics.add("benign_flag_frac", layers.outcome.benign_flag_frac, "frac");
    // Wall against wall: the traced replay runs without a speed sampler, so
    // the untraced time leaves the sampler's bursts out.
    const double untraced_s = trained.wall_s - trained.speed.busy_s;
    metrics.add("trace_overhead_frac",
                (phases.wall_s - untraced_s) / untraced_s, "frac");
    metrics.add("serve.trace_overhead_frac",
                (layers.outcome.hi.p50_us - layers.untraced_hi_p50_us) /
                    layers.untraced_hi_p50_us,
                "frac");

    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    spans.write_json(path, host);
    std::printf("spans written to %s (%zu spans)\n", path.c_str(),
                spans.spans().size());
  }

  if (failed > 0) {
    std::printf("MISMATCH: %zu of %zu queries refused, failed, unanswered or "
                "wrong\n", failed, attempted);
    correct = false;
  }
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s}}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return perfbench::self_test() ? 0 : 1;
  }
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "perfbench: %s\n", failure.what());
    return 2;
  }
}
