#include "serve.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "hostspeed.h"
#include "src/serve/admission.h"
#include "src/serve/backend.h"
#include "src/serve/partition.h"
#include "src/serve/query_engine.h"
#include "src/serve/remote/remote_backend.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/traffic.h"

namespace perfbench {
namespace {

using namespace safeloc;

/// Distinct queries per stream; phases replay it cyclically.
constexpr std::size_t kStreamQueries = 16384;
/// Requests of the traced hi phase written out as spans.
constexpr std::size_t kSpanRequests = 2000;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 25;
/// Phase latency figures are taken over this many equal slices of a
/// fixed-rate phase (see summarize_windows).
constexpr int kSlices = 20;
/// Saturation bursts per run; capacity_qps is their median.
constexpr int kBursts = 5;

/// One request of a phase. Written by the sender (times, decorator stamps
/// on the submitting thread) and by the completing thread (everything from
/// done_us on); read only after the fleet drained.
struct Slot {
  RequestTimes t;
  double submitted_us = 0.0;
  double adm0 = 0.0, adm1 = 0.0;
  double be0 = 0.0, be1 = 0.0, be_done = 0.0;
  int status = -1;  // Response::Status, -1 = no response, -2 = threw
  bool flagged = false;
  int rp = -1;
  rss::Point position{};
  std::vector<serve::RankedClass> top_k;
};

/// Set by the sender around service.submit(), read by the decorators that
/// run synchronously inside it on the same thread.
thread_local Slot* tl_slot = nullptr;

class TracedAdmission final : public serve::AdmissionPolicy {
 public:
  explicit TracedAdmission(std::unique_ptr<serve::AdmissionPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  serve::AdmissionVerdict inspect(int building,
                                  std::span<const float> fingerprint) override {
    const double t0 = now_us();
    serve::AdmissionVerdict verdict = inner_->inspect(building, fingerprint);
    if (tl_slot != nullptr) {
      tl_slot->adm0 = t0;
      tl_slot->adm1 = now_us();
    }
    return verdict;
  }
  void on_publish(const serve::ModelRecord& record) override {
    inner_->on_publish(record);
  }

 private:
  std::unique_ptr<serve::AdmissionPolicy> inner_;
};

class TracedBackend final : public serve::QueryBackend {
 public:
  explicit TracedBackend(std::unique_ptr<serve::QueryBackend> inner)
      : inner_(std::move(inner)) {}

  void stage(const serve::ModelRecord& record) override {
    inner_->stage(record);
  }
  void commit_staged(int building) override { inner_->commit_staged(building); }
  void abort_staged(int building) noexcept override {
    inner_->abort_staged(building);
  }
  std::uint32_t deployed_version(int building) const override {
    return inner_->deployed_version(building);
  }
  std::size_t deployed_model_count() const override {
    return inner_->deployed_model_count();
  }
  void submit(int building, std::vector<float> fingerprint,
              Callback done) override {
    Slot* slot = tl_slot;
    const double t0 = now_us();
    if (slot != nullptr) slot->be0 = t0;
    inner_->submit(building, std::move(fingerprint),
                   [slot, done = std::move(done)](serve::QueryResult result) {
                     if (slot != nullptr) slot->be_done = now_us();
                     done(std::move(result));
                   });
    if (slot != nullptr) slot->be1 = now_us();
  }
  void drain() override { inner_->drain(); }
  std::size_t queue_depth() const override { return inner_->queue_depth(); }
  serve::telemetry::RegistrySnapshot telemetry_snapshot() const override {
    return inner_->telemetry_snapshot();
  }

 private:
  std::unique_ptr<serve::QueryBackend> inner_;
};

/// VmHWM (peak resident set) of /proc/<pid>, in MB.
double process_peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

/// User plus system CPU seconds of getrusage(who): RUSAGE_SELF, or
/// RUSAGE_CHILDREN for every child reaped so far.
double rusage_cpu_s(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Lowers this process's VmHWM to its current resident set, so the next
/// reading covers only what happens after the call (training and set-up
/// peaks are left out).
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the peak RSS through "
                             "/proc/self/clear_refs");
  }
}

/// shard_server children of the remote fleet. Each child's stdout is a pipe
/// the parent reads until the child's "ready" line; stderr goes to a log
/// file. Destruction asks each child to shut down, then kills and reaps
/// whatever is left.
class ShardProcesses {
 public:
  ShardProcesses() = default;
  ShardProcesses(const ShardProcesses&) = delete;
  ShardProcesses& operator=(const ShardProcesses&) = delete;
  ~ShardProcesses() { stop(); }

  void spawn(const std::string& exe, const std::string& address,
             std::uint32_t index, std::uint32_t count,
             const std::string& partition_path, const std::string& log_path) {
    std::vector<std::string> env = {
        "SAFELOC_SHARD_ADDRESS=" + address,
        "SAFELOC_SHARD_INDEX=" + std::to_string(index),
        "SAFELOC_SHARD_COUNT=" + std::to_string(count),
        "SAFELOC_SHARD_WORKERS=1",
        "SAFELOC_SHARD_PARTITION=" + partition_path,
    };
    std::vector<char*> envp;
    for (std::string& entry : env) envp.push_back(entry.data());
    envp.push_back(nullptr);
    std::string arg0 = exe;
    char* argv[] = {arg0.data(), nullptr};
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    // posix_spawn rather than fork: the child shares this process's memory
    // until it execs, so set-up does not pay for copying the page tables of
    // a process that holds the trained models.
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    const int spawned =
        ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, envp.data());
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (spawned != 0) {
      ::close(out[0]);
      throw std::runtime_error("cannot start " + exe);
    }
    children_.push_back({pid, out[0], address});
  }

  /// Blocks until every child has printed its "ready" line (it is then
  /// listening). Throws when a child exits or stays silent for 10 s.
  void wait_ready() const {
    for (const Child& child : children_) {
      std::string line;
      while (line.find("ready") == std::string::npos) {
        pollfd pfd{child.stdout_fd, POLLIN, 0};
        char c = 0;
        if (::poll(&pfd, 1, 10000) != 1 || ::read(child.stdout_fd, &c, 1) != 1) {
          throw std::runtime_error("shard_server on " + child.address +
                                   " did not report ready");
        }
        line += c;
      }
    }
  }

  /// User + system CPU seconds the children have used so far.
  [[nodiscard]] double cpu_s() const {
    double ticks = 0.0;
    for (const Child& child : children_) {
      std::ifstream stat("/proc/" + std::to_string(child.pid) + "/stat");
      std::string line;
      std::getline(stat, line);
      // Fields after the parenthesised command name; utime and stime are
      // fields 14 and 15 of the whole line.
      std::istringstream rest(line.substr(line.rfind(')') + 2));
      std::string field;
      for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i >= 14) ticks += std::stod(field);
      }
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Sum of the children's peak resident sets, in MB.
  [[nodiscard]] double peak_rss_mb() const {
    double mb = 0.0;
    for (const Child& child : children_) {
      mb += process_peak_rss_mb(std::to_string(child.pid));
    }
    return mb;
  }

  void stop() noexcept {
    for (const Child& child : children_) {
      try {
        serve::remote::request_shutdown(child.address, std::chrono::seconds(2));
      } catch (const std::exception&) {
        // Killed below.
      }
    }
    for (const Child& child : children_) {
      int status = 0;
      bool exited = false;
      for (int i = 0; i < 200 && !exited; ++i) {
        exited = ::waitpid(child.pid, &status, WNOHANG) == child.pid;
        if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!exited) {
        ::kill(child.pid, SIGKILL);
        ::waitpid(child.pid, &status, 0);
      }
      ::close(child.stdout_fd);
    }
    children_.clear();
  }

 private:
  struct Child {
    pid_t pid = 0;
    int stdout_fd = -1;
    std::string address;
  };
  std::vector<Child> children_;
};

class Fleet {
 public:
  Fleet(const ServeConfig& config,
        const std::vector<serve::ModelRecord>& records, bool traced) {
    std::vector<std::unique_ptr<serve::QueryBackend>> shards;
    serve::PartitionMap partition;
    partition.shards = 2;
    partition.owner[1] = 0;
    partition.owner[2] = 1;
    if (config.kind == FleetKind::kRemote) {
      static int generation = 0;
      const std::string tag =
          config.run_dir + "/f" + std::to_string(generation++);
      const std::string partition_path = tag + "-part.bin";
      partition.save_file(partition_path);
      for (std::uint32_t s = 0; s < 2; ++s) {
        const std::string address =
            "unix:" + tag + "-s" + std::to_string(s) + ".sock";
        children_.spawn(config.shard_exe, address, s, 2, partition_path,
                        tag + "-s" + std::to_string(s) + ".log");
        serve::remote::RemoteBackendConfig remote;
        remote.address = address;
        remote.pool_size = 2;
        remote.max_in_flight = 32;
        remote.max_batch = 16;
        auto backend = std::make_unique<serve::remote::RemoteBackend>(remote);
        remotes_.push_back(backend.get());
        shards.push_back(std::move(backend));
      }
      children_.wait_ready();
    } else {
      for (int s = 0; s < 2; ++s) {
        serve::QueryEngineConfig engine;
        engine.workers = 1;
        shards.push_back(std::make_unique<serve::QueryEngine>(engine));
      }
    }
    if (traced) {
      for (auto& shard : shards) {
        shard = std::make_unique<TracedBackend>(std::move(shard));
      }
    }
    service_ = std::make_unique<serve::LocalizationService>(std::move(shards));
    if (config.kind == FleetKind::kRemote) {
      service_->set_partition(partition);
      service_->set_router(std::make_unique<serve::PartitionRouter>(partition));
    } else {
      service_->set_router(serve::make_router("hash"));
    }
    if (config.kind == FleetKind::kGated) {
      std::unique_ptr<serve::AdmissionPolicy> gate =
          std::make_unique<serve::PoisonGate>();
      if (traced) gate = std::make_unique<TracedAdmission>(std::move(gate));
      service_->add_admission(std::move(gate));
    }
    for (const serve::ModelRecord& record : records) service_->publish(record);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() = default;

  serve::LocalizationService& service() { return *service_; }

  /// CPU seconds used so far by this process and the fleet's children.
  [[nodiscard]] double cpu_s() const {
    return rusage_cpu_s(RUSAGE_SELF) + children_.cpu_s();
  }
  /// Peak resident set of this process plus the fleet's children, in MB.
  [[nodiscard]] double peak_rss_mb() const {
    return process_peak_rss_mb("self") + children_.peak_rss_mb();
  }
  /// Client-side telemetry of the remote backends, merged.
  [[nodiscard]] serve::telemetry::RegistrySnapshot remote_telemetry() const {
    serve::telemetry::RegistrySnapshot merged;
    for (const serve::remote::RemoteBackend* remote : remotes_) {
      merged.merge(remote->telemetry_snapshot());
    }
    return merged;
  }

 private:
  // Declared first so the service (and its remote connections) is torn
  // down before the children are asked to exit.
  ShardProcesses children_;
  std::vector<serve::remote::RemoteBackend*> remotes_;
  std::unique_ptr<serve::LocalizationService> service_;
};

struct Stream {
  std::vector<serve::TimedQuery> queries;
  /// Inter-arrival gaps of the stream at a mean rate of 1 query/s.
  std::vector<double> gaps_s;
};

Stream make_stream(const ServeConfig& config) {
  serve::TrafficConfig traffic;
  traffic.buildings = {1, 2};
  traffic.mean_qps = 1.0;
  traffic.seed = config.seed * 0x9e3779b97f4a7c15ULL + 0x7aff1cULL;
  if (config.kind == FleetKind::kGated) {
    traffic.attack_fraction = 0.2;
    traffic.attack_epsilon = 0.3;
  }
  Stream stream;
  stream.queries = serve::TrafficGenerator(traffic).generate(kStreamQueries);
  double previous = 0.0;
  for (const serve::TimedQuery& q : stream.queries) {
    stream.gaps_s.push_back(q.arrival_s - previous);
    previous = q.arrival_s;
  }
  return stream;
}

/// Expected answer per distinct stream query, from a SyncBackend holding
/// the same records.
std::vector<serve::QueryResult> reference_answers(
    const Stream& stream, const std::vector<serve::ModelRecord>& records) {
  serve::SyncBackend reference;
  for (const serve::ModelRecord& record : records) reference.deploy(record);
  std::vector<serve::QueryResult> out(stream.queries.size());
  for (std::size_t i = 0; i < stream.queries.size(); ++i) {
    reference.submit(stream.queries[i].building, stream.queries[i].x,
                     [&out, i](serve::QueryResult r) { out[i] = std::move(r); });
  }
  return out;
}

bool matches(const Slot& slot, const serve::QueryResult& expected) {
  if (slot.rp != expected.rp ||
      std::bit_cast<std::uint64_t>(slot.position.x) !=
          std::bit_cast<std::uint64_t>(expected.position.x) ||
      std::bit_cast<std::uint64_t>(slot.position.y) !=
          std::bit_cast<std::uint64_t>(expected.position.y) ||
      slot.top_k.size() != expected.top_k.size()) {
    return false;
  }
  for (std::size_t k = 0; k < slot.top_k.size(); ++k) {
    if (slot.top_k[k].label != expected.top_k[k].label ||
        std::bit_cast<std::uint32_t>(slot.top_k[k].confidence) !=
            std::bit_cast<std::uint32_t>(expected.top_k[k].confidence)) {
      return false;
    }
  }
  return true;
}

struct Phase {
  double start_us = 0.0;
  double window_us = 0.0;
  std::vector<Slot> slots;

  [[nodiscard]] std::vector<RequestTimes> times() const {
    std::vector<RequestTimes> out;
    out.reserve(slots.size());
    for (const Slot& s : slots) out.push_back(s.t);
    return out;
  }
};

/// Completion callback body: stamps the answer time and keeps what
/// check_phase compares with the reference.
void record_answer(Slot& slot, serve::Response response) {
  slot.t.done_us = now_us();
  slot.status = static_cast<int>(response.status);
  slot.flagged = response.flagged;
  slot.rp = response.query.rp;
  slot.position = response.query.position;
  slot.top_k = std::move(response.query.top_k);
}

/// Open loop: one sender replays the stream's arrival stamps rescaled to
/// `rate_qps` for `duration_s`, spinning to each due time. Latency counts
/// from the due time, so sender lag is charged to the request.
Phase run_phase(Fleet& fleet, const Stream& stream, double rate_qps,
                double duration_s) {
  std::vector<double> due_offsets;
  double clock_s = 0.0;
  for (std::size_t j = 0;; ++j) {
    clock_s += stream.gaps_s[j % stream.gaps_s.size()];
    const double offset_s = clock_s / rate_qps;
    if (offset_s >= duration_s) break;
    due_offsets.push_back(offset_s * 1e6);
  }
  Phase phase;
  phase.slots.resize(due_offsets.size());
  phase.window_us = duration_s * 1e6;
  serve::LocalizationService& service = fleet.service();
  phase.start_us = now_us() + 2000.0;
  for (std::size_t j = 0; j < due_offsets.size(); ++j) {
    Slot& slot = phase.slots[j];
    const serve::TimedQuery& query = stream.queries[j % stream.queries.size()];
    const double due = phase.start_us + due_offsets[j];
    double now = now_us();
    while (now < due) now = now_us();
    slot.t.due_us = due;
    slot.t.sent_us = now;
    tl_slot = &slot;
    try {
      service.submit({query.building, query.x},
                     [s = &slot](serve::Response response) {
                       record_answer(*s, std::move(response));
                     });
    } catch (const std::exception&) {
      slot.status = -2;
    }
    tl_slot = nullptr;
    slot.submitted_us = now_us();
  }
  service.drain();
  return phase;
}

/// Closed loop with one query in flight: each query is sent as soon as the
/// previous answer arrived, for `duration_s`. Latency is send to answer;
/// no queue forms, so it is the fleet's fixed cost per query.
Phase run_idle_probe(Fleet& fleet, const Stream& stream, double duration_s) {
  Phase phase;
  phase.window_us = duration_s * 1e6;
  // The loop stops at the reserve, so slots never move while a callback
  // holds a pointer to one; a query takes far longer than 10 us.
  const std::size_t capacity = static_cast<std::size_t>(phase.window_us / 10.0);
  phase.slots.reserve(capacity);
  serve::LocalizationService& service = fleet.service();
  phase.start_us = now_us();
  const double end_us = phase.start_us + phase.window_us;
  std::atomic<bool> answered{false};
  for (std::size_t j = 0; phase.slots.size() < capacity; ++j) {
    const double now = now_us();
    if (now >= end_us) break;
    Slot& slot = phase.slots.emplace_back();
    const serve::TimedQuery& query = stream.queries[j % stream.queries.size()];
    slot.t.due_us = now;
    slot.t.sent_us = now;
    answered.store(false, std::memory_order_relaxed);
    try {
      service.submit({query.building, query.x},
                     [s = &slot, &answered](serve::Response response) {
                       record_answer(*s, std::move(response));
                       answered.store(true, std::memory_order_release);
                     });
    } catch (const std::exception&) {
      slot.status = -2;
      continue;
    }
    slot.submitted_us = now_us();
    while (!answered.load(std::memory_order_acquire)) {
    }
  }
  service.drain();
  return phase;
}

struct Checked {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::size_t poisoned = 0, poisoned_flagged = 0;
  std::size_t benign = 0, benign_flagged = 0;
};

void check_phase(const Phase& phase, const Stream& stream,
                 const std::vector<serve::QueryResult>& reference,
                 Checked& out) {
  for (std::size_t j = 0; j < phase.slots.size(); ++j) {
    const Slot& slot = phase.slots[j];
    const std::size_t q = j % stream.queries.size();
    ++out.attempted;
    const bool answered =
        slot.t.done_us >= 0.0 &&
        slot.status == static_cast<int>(serve::Response::Status::kAnswered);
    if (!answered) {
      ++out.failed;
      continue;
    }
    if (!matches(slot, reference[q])) {
      ++out.failed;
      ++out.wrong;
    }
    if (stream.queries[q].poisoned) {
      ++out.poisoned;
      out.poisoned_flagged += slot.flagged ? 1 : 0;
    } else {
      ++out.benign;
      out.benign_flagged += slot.flagged ? 1 : 0;
    }
  }
}

void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

LatencySummary summarize_phase(const Phase& phase) {
  return summarize_windows(phase.times(), phase.start_us, phase.window_us,
                           kSlices);
}

bool backlogged(const Phase& phase) {
  return backlog_growing(phase.times(), phase.start_us, phase.window_us);
}

struct Burst {
  /// Answers completed per second during the middle half of the burst.
  double qps = 0.0;
  /// CPU time of the whole burst (this process and any shard children,
  /// from the first submit until the fleet drained) per answered query, at
  /// the reference host speed.
  double cpu_us_per_query = 0.0;
  /// The same, as measured, and the host speed on every core, the mean of
  /// its measures right before and after the burst (hostspeed.h).
  double measured_cpu_us_per_query = 0.0;
  double speed = 0.0;
  /// Whether the backlog rule saw the backlog grow; if not, the burst did
  /// not overload the fleet and qps is a lower bound.
  bool saturated = false;
};

/// Offers `offered_qps` (above what the fleet sustains) for `burst_s` of
/// schedule. The sender stays behind schedule, so it hardly spins and the
/// CPU it uses is submit work.
Burst saturation_burst(Fleet& fleet, const Stream& stream, double offered_qps,
                       double burst_s,
                       const std::vector<serve::QueryResult>& reference,
                       Checked& checked) {
  const double speed0 = measure_host_speed();
  settle();
  const double cpu0 = fleet.cpu_s();
  const Phase phase = run_phase(fleet, stream, offered_qps, burst_s);
  const double cpu1 = fleet.cpu_s();
  const double speed = 0.5 * (speed0 + measure_host_speed());
  check_phase(phase, stream, reference, checked);
  Burst burst;
  burst.saturated = backlogged(phase);
  burst.speed = speed;
  const double from = phase.start_us + 0.25 * phase.window_us;
  const double to = phase.start_us + 0.75 * phase.window_us;
  std::size_t in_window = 0;
  std::size_t answered = 0;
  for (const Slot& slot : phase.slots) {
    if (slot.t.done_us < 0.0) continue;
    ++answered;
    in_window += (slot.t.done_us >= from && slot.t.done_us < to) ? 1 : 0;
  }
  burst.qps = static_cast<double>(in_window) / ((to - from) * 1e-6);
  if (answered > 0) {
    burst.measured_cpu_us_per_query =
        (cpu1 - cpu0) * 1e6 / static_cast<double>(answered);
    burst.cpu_us_per_query = burst.measured_cpu_us_per_query * speed;
  }
  return burst;
}

double median_of(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

void fill_counts(const Checked& checked, ServeOutcome& out) {
  out.attempted += checked.attempted;
  out.failed += checked.failed;
  out.wrong += checked.wrong;
}

/// PoisonGate verdicts against TimedQuery::poisoned.
void fill_gate(const Checked& checked, ServeOutcome& out) {
  if (checked.poisoned > 0) {
    out.poison_recall = static_cast<double>(checked.poisoned_flagged) /
                        static_cast<double>(checked.poisoned);
  }
  if (checked.benign > 0) {
    out.benign_flag_frac = static_cast<double>(checked.benign_flagged) /
                           static_cast<double>(checked.benign);
  }
}

}  // namespace

ServeOutcome run_serving(const ServeConfig& config,
                   const std::vector<serve::ModelRecord>& records) {
  ServeOutcome out;
  // Set-up is timed in CPU seconds, this process's plus its shard
  // children's, rescaled to the reference host speed: its wall time waits
  // on wake-ups and child processes, which a slow host state stretches far
  // more than its arithmetic (see README.md). A child's CPU time is known
  // once it is reaped, which the next set-up's fleet.reset() does, so the
  // run makes kSetups + 1 set-ups and the last one serves.
  std::vector<double> setups;
  std::vector<double> walls;
  Stream stream;
  std::unique_ptr<Fleet> fleet;
  const double speed0 = measure_host_speed();
  double self_cpu = 0.0;
  for (int i = 0; i <= kSetups; ++i) {
    const double reaped0 = rusage_cpu_s(RUSAGE_CHILDREN);
    fleet.reset();
    if (i > 0) {
      setups.push_back(self_cpu + rusage_cpu_s(RUSAGE_CHILDREN) - reaped0);
    }
    const double t0 = now_us();
    const double self0 = rusage_cpu_s(RUSAGE_SELF);
    stream = make_stream(config);
    fleet = std::make_unique<Fleet>(config, records, /*traced=*/false);
    self_cpu = rusage_cpu_s(RUSAGE_SELF) - self0;
    walls.push_back((now_us() - t0) * 1e-6);
  }
  out.setup_speed = 0.5 * (speed0 + measure_host_speed());
  out.measured_setup_s = median_of(setups);
  out.setup_s = out.measured_setup_s * out.setup_speed;
  out.setup_wall_s = median_of(walls);
  const std::vector<serve::QueryResult> reference =
      reference_answers(stream, records);

  Checked checked;
  settle();
  reset_peak_rss();
  const Phase idle = run_idle_probe(*fleet, stream, config.idle_s);
  check_phase(idle, stream, reference, checked);
  out.idle = summarize(idle.times());
  settle();
  const Phase lo = run_phase(*fleet, stream, config.lo_qps, config.phase_s);
  check_phase(lo, stream, reference, checked);
  out.lo = summarize_phase(lo);
  out.backlogged_phases += backlogged(lo) ? 1 : 0;
  settle();
  const Phase hi = run_phase(*fleet, stream, config.hi_qps, config.phase_s);
  check_phase(hi, stream, reference, checked);
  out.hi = summarize_phase(hi);
  out.backlogged_phases += backlogged(hi) ? 1 : 0;
  out.peak_rss_mb = fleet->peak_rss_mb();
  fill_gate(checked, out);  // gate quality over the probe and fixed rates
  std::vector<double> qps;
  std::vector<double> cpu;
  std::vector<double> measured_cpu;
  std::vector<double> speeds;
  for (int i = 0; i < kBursts; ++i) {
    settle();
    const Burst burst = saturation_burst(*fleet, stream, config.saturate_qps,
                                         config.burst_s, reference, checked);
    qps.push_back(burst.qps);
    cpu.push_back(burst.cpu_us_per_query);
    measured_cpu.push_back(burst.measured_cpu_us_per_query);
    speeds.push_back(burst.speed);
    if (!burst.saturated) ++out.unsaturated_bursts;
  }
  out.capacity_qps = median_of(qps);
  out.cpu_us_per_query = median_of(cpu);
  out.measured_cpu_us_per_query = median_of(measured_cpu);
  out.cpu_speed = median_of(speeds);
  fill_counts(checked, out);
  return out;
}

ServeLayers serve_traced(const ServeConfig& config,
                         const std::vector<serve::ModelRecord>& records,
                         SpanLog& spans) {
  ServeLayers layers;
  const Stream stream = make_stream(config);
  const std::vector<serve::QueryResult> reference =
      reference_answers(stream, records);
  Checked checked;
  {
    Fleet fleet(config, records, /*traced=*/false);
    settle();
    const Phase hi = run_phase(fleet, stream, config.hi_qps, config.phase_s);
    check_phase(hi, stream, reference, checked);
    layers.untraced_hi_p50_us = summarize_phase(hi).p50_us;
  }
  Fleet fleet(config, records, /*traced=*/true);
  settle();
  const Phase hi = run_phase(fleet, stream, config.hi_qps, config.phase_s);
  Checked traced_checked;
  check_phase(hi, stream, reference, traced_checked);
  ServeOutcome& out = layers.outcome;
  out.hi = summarize_phase(hi);
  fill_gate(traced_checked, out);
  fill_counts(checked, out);
  fill_counts(traced_checked, out);

  std::vector<double> admission, submit, enqueue, backend, unattributed;
  for (const Slot& s : hi.slots) {
    submit.push_back(s.submitted_us - s.t.sent_us);
    if (s.adm1 > 0.0) admission.push_back(s.adm1 - s.adm0);
    if (s.be1 > 0.0) enqueue.push_back(s.be1 - s.be0);
    if (s.be_done > 0.0 && s.t.done_us >= 0.0) {
      backend.push_back(s.be_done - s.be0);
      unattributed.push_back((s.t.done_us - s.t.sent_us) -
                             (s.adm1 - s.adm0) - (s.be_done - s.be0));
    }
  }
  layers.admission_p50_us = percentile(admission, 50.0);
  layers.admission_p99_us =
      percentile(admission, supported_percentile(admission.size(), 99.0));
  layers.admission_calls = static_cast<double>(admission.size());
  layers.submit_p50_us = percentile(submit, 50.0);
  layers.submit_p99_us =
      percentile(submit, supported_percentile(submit.size(), 99.0));
  layers.backend_enqueue_p99_us =
      percentile(enqueue, supported_percentile(enqueue.size(), 99.0));
  layers.backend_p50_us = percentile(backend, 50.0);
  layers.backend_p99_us =
      percentile(backend, supported_percentile(backend.size(), 99.0));
  layers.unattributed_p50_us = percentile(unattributed, 50.0);

  const serve::LocalizationService::Stats stats = fleet.service().stats();
  const auto fill = stats.metrics.histograms.find("engine.batch_fill");
  if (fill != stats.metrics.histograms.end()) {
    layers.batch_fill_mean = fill->second.mean();
  }
  std::uint64_t routed_max = 0, routed_total = 0;
  for (const std::uint64_t r : stats.routed) {
    routed_max = std::max(routed_max, r);
    routed_total += r;
  }
  if (routed_total > 0) {
    layers.route_imbalance =
        static_cast<double>(routed_max) * static_cast<double>(stats.routed.size()) /
        static_cast<double>(routed_total);
  }
  // RemoteBackend records net.in_flight_depth once per query frame sent.
  const serve::telemetry::RegistrySnapshot net = fleet.remote_telemetry();
  const auto counter = [&net](const char* name) {
    const auto it = net.counters.find(name);
    return it == net.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto frames = net.histograms.find("net.in_flight_depth");
  if (frames != net.histograms.end() && frames->second.count > 0) {
    layers.queries_per_frame = static_cast<double>(routed_total) /
                               static_cast<double>(frames->second.count);
  }
  layers.rpc_failures = counter("net.rpc_failures");
  layers.connect_retries = counter("net.connect_retries");

  for (std::size_t j = 0; j < std::min(kSpanRequests, hi.slots.size()); ++j) {
    const Slot& s = hi.slots[j];
    const std::uint64_t trace = 1'000'000 + j;
    const double end = s.t.done_us >= 0.0 ? s.t.done_us : s.submitted_us;
    const std::uint32_t root = spans.add(trace, 0, "serve.request", s.t.due_us, end);
    spans.add(trace, root, "serve.send_lag", s.t.due_us, s.t.sent_us);
    const std::uint32_t submit_span =
        spans.add(trace, root, "serve.submit", s.t.sent_us, s.submitted_us);
    if (s.adm1 > 0.0) {
      spans.add(trace, submit_span, "serve.admission", s.adm0, s.adm1);
    }
    if (s.be1 > 0.0) {
      const std::uint32_t backend_span =
          spans.add(trace, root, "serve.backend", s.be0,
                    s.be_done > 0.0 ? s.be_done : s.be1);
      spans.add(trace, backend_span, "serve.backend_enqueue", s.be0, s.be1);
    }
  }
  return layers;
}

}  // namespace perfbench
