#include "train.h"

#include <map>
#include <stdexcept>
#include <string>

#include "src/core/safeloc.h"
#include "src/eval/experiment.h"
#include "src/eval/metrics.h"
#include "src/fl/federated.h"
#include "src/rss/dataset.h"

namespace perfbench {
namespace {

using namespace safeloc;

constexpr int kRounds = 8;
constexpr int kServerEpochs = 120;


/// Forwards every FederatedFramework call to the real framework, timing the
/// ones the round loop and evaluation make. `in_rounds` separates the
/// round loop's self-labelling predict() calls from evaluation's.
class TracedFramework final : public fl::FederatedFramework {
 public:
  TracedFramework(fl::FederatedFramework& inner, SpanLog& spans,
                  TrainPhases& phases)
      : inner_(inner), spans_(spans), phases_(phases) {}

  void begin(std::uint64_t trace, std::uint32_t parent, bool in_rounds) {
    trace_ = trace;
    parent_ = parent;
    in_rounds_ = in_rounds;
  }

  std::string name() const override { return inner_.name(); }

  void pretrain(const nn::Matrix& x, std::span<const int> labels,
                std::size_t num_classes, int epochs,
                std::uint64_t seed) override {
    const double t0 = now_us();
    inner_.pretrain(x, labels, num_classes, epochs, seed);
    phases_.pretrain_s += record("core.pretrain", t0);
  }

  std::vector<int> predict(const nn::Matrix& x) override {
    const double t0 = now_us();
    std::vector<int> out = inner_.predict(x);
    if (in_rounds_) {
      phases_.self_label_s += record("fl.self_label", t0);
    } else {
      record("eval.predict", t0);
    }
    return out;
  }

  nn::Matrix input_gradient(const nn::Matrix& x,
                            std::span<const int> labels) override {
    const double t0 = now_us();
    nn::Matrix out = inner_.input_gradient(x, labels);
    phases_.oracle_s += record("attack.oracle", t0);
    return out;
  }

  fl::SanitizeResult client_sanitize(const nn::Matrix& x,
                                     std::vector<int> labels) override {
    const double t0 = now_us();
    fl::SanitizeResult out = inner_.client_sanitize(x, std::move(labels));
    phases_.sanitize_s += record("core.sanitize", t0);
    phases_.sanitize_flagged += out.flagged;
    return out;
  }

  fl::ClientUpdate local_update(const nn::Matrix& x,
                                std::span<const int> labels,
                                const fl::LocalTrainOpts& opts) override {
    const double t0 = now_us();
    fl::ClientUpdate out = inner_.local_update(x, labels, opts);
    phases_.local_update_s += record("fl.local_update", t0);
    return out;
  }

  void aggregate(std::span<const fl::ClientUpdate> updates) override {
    const double t0 = now_us();
    inner_.aggregate(updates);
    phases_.aggregate_s += record("fl.aggregate", t0);
  }

  bool wants_server_recalibration() const override {
    return inner_.wants_server_recalibration();
  }

  void server_recalibrate(const nn::Matrix& clean_x) override {
    const double t0 = now_us();
    inner_.server_recalibrate(clean_x);
    phases_.recalibrate_s += record("core.recalibrate", t0);
  }

  bool wants_server_refresh() const override {
    return inner_.wants_server_refresh();
  }
  bool server_refresh(const nn::Matrix& clean_x) override {
    return inner_.server_refresh(clean_x);
  }
  std::vector<int> last_excluded_clients() const override {
    return inner_.last_excluded_clients();
  }
  std::size_t parameter_count() override { return inner_.parameter_count(); }
  std::size_t num_classes() const override { return inner_.num_classes(); }
  nn::StateDict snapshot() override { return inner_.snapshot(); }
  void restore(const nn::StateDict& state) override { inner_.restore(state); }

 private:
  /// Records a span from t0 to now under the current parent; returns its
  /// length in seconds.
  double record(const char* name, double t0) {
    const double t1 = now_us();
    spans_.add(trace_, parent_, name, t0, t1);
    return (t1 - t0) * 1e-6;
  }

  fl::FederatedFramework& inner_;
  SpanLog& spans_;
  TrainPhases& phases_;
  std::uint64_t trace_ = 0;
  std::uint32_t parent_ = 0;
  bool in_rounds_ = false;
};

}  // namespace

std::vector<engine::ScenarioSpec> training_grid() {
  engine::ScenarioSpec base;
  base.framework = "SAFELOC";
  base.rounds = kRounds;
  base.server_epochs = kServerEpochs;

  engine::ScenarioSpec clean = base;
  clean.building = 1;
  clean.attack_label = "clean";
  engine::ScenarioSpec fgsm = clean;
  fgsm.attack = {.kind = attack::AttackKind::kFgsm, .epsilon = 0.5};
  fgsm.attack_label = "fgsm";
  engine::ScenarioSpec b2 = base;
  b2.building = 2;
  b2.attack_label = "clean";
  return {clean, fgsm, b2};
}

TrainResult train() {
  const std::vector<engine::ScenarioSpec> grid = training_grid();
  TrainResult out;
  const CorePin pin;
  SpeedSampler sampler(pin.cpu());
  const double t0 = now_us();
  out.report = engine::ScenarioEngine{}.run(grid, /*n_threads=*/1,
                                            /*capture_final_gm=*/true);
  out.wall_s = (now_us() - t0) * 1e-6;
  out.speed = sampler.stop();
  out.train_s = reference_seconds(out.wall_s, out.speed);
  return out;
}

TrainPhases train_traced(SpanLog& spans) {
  const std::vector<engine::ScenarioSpec> grid = training_grid();
  TrainPhases phases;
  phases.err_mean_m.assign(grid.size(), 0.0);

  // The engine's pretrain groups, in first-appearance order.
  std::map<int, std::vector<std::size_t>> groups;
  std::vector<int> group_order;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (groups.find(grid[i].building) == groups.end()) {
      group_order.push_back(grid[i].building);
    }
    groups[grid[i].building].push_back(i);
  }

  const double wall0 = now_us();
  for (const int building : group_order) {
    const std::vector<std::size_t>& cells = groups[building];
    const engine::ScenarioSpec& proto = grid[cells.front()];
    const std::uint64_t group_trace = 1000 + static_cast<std::uint64_t>(building);
    const double g0 = now_us();
    const std::uint32_t group_span =
        spans.open(group_trace, 0, "pretrain_group", g0);
    const eval::Experiment experiment(proto.building, proto.seed);
    const double g1 = now_us();
    phases.rss_setup_s += (g1 - g0) * 1e-6;
    spans.add(group_trace, group_span, "rss.setup", g0, g1);

    auto framework =
        engine::FrameworkRegistry::global().create(proto.framework, proto.options);
    auto* safeloc = dynamic_cast<core::SafeLocFramework*>(framework.get());
    if (safeloc == nullptr) throw std::logic_error("training grid is SAFELOC");
    TracedFramework traced(*framework, spans, phases);
    traced.begin(group_trace, group_span, false);
    experiment.pretrain(traced, proto.resolved_server_epochs());
    spans.close(group_span, now_us());
    const double configured_tau = safeloc->tau();

    // Engine::run + Experiment::run_scenario(capture_final_gm) for each
    // cell, so the traced wall time is comparable to the untraced run.
    for (const std::size_t cell : cells) {
      const std::uint64_t trace = cell;
      const std::uint32_t cell_span = spans.open(trace, 0, "cell", now_us());
      safeloc->set_tau(configured_tau);
      const nn::StateDict pristine = framework->snapshot();

      const double attributed0 = phases.self_label_s + phases.oracle_s +
                                 phases.sanitize_s + phases.local_update_s +
                                 phases.aggregate_s + phases.recalibrate_s;
      const double r0 = now_us();
      const std::uint32_t rounds_span =
          spans.open(trace, cell_span, "fl.rounds", r0);
      traced.begin(trace, rounds_span, true);
      (void)fl::run_federated(traced, experiment.generator(),
                              grid[cell].fl_scenario());
      const double r1 = now_us();
      spans.close(rounds_span, r1);
      const double rounds_s = (r1 - r0) * 1e-6;
      const double attributed1 = phases.self_label_s + phases.oracle_s +
                                 phases.sanitize_s + phases.local_update_s +
                                 phases.aggregate_s + phases.recalibrate_s;
      phases.rounds_s += rounds_s;
      phases.unattributed_s += rounds_s - (attributed1 - attributed0);

      const std::uint32_t eval_span =
          spans.open(trace, cell_span, "eval.evaluate", r1);
      traced.begin(trace, eval_span, false);
      const std::vector<double> errors = experiment.evaluate(traced);
      const double e1 = now_us();
      spans.close(eval_span, e1);
      phases.evaluate_s += (e1 - r1) * 1e-6;
      phases.err_mean_m[cell] = eval::error_stats(errors).mean_m;

      const std::uint32_t capture_span =
          spans.open(trace, cell_span, "core.capture", e1);
      if (traced.wants_server_refresh()) {
        (void)traced.server_refresh(
            rss::clean_collection(experiment.generator(), /*fps_per_rp=*/1,
                                  /*salt_base=*/0xdecaf500ULL)
                .x);
      }
      (void)framework->snapshot();
      (void)experiment.calibrate(*framework);
      const double k1 = now_us();
      spans.close(capture_span, k1);
      phases.capture_s += (k1 - e1) * 1e-6;

      framework->restore(pristine);
      safeloc->set_tau(configured_tau);
      spans.close(cell_span, now_us());
    }
  }
  phases.wall_s = (now_us() - wall0) * 1e-6;
  return phases;
}

}  // namespace perfbench
