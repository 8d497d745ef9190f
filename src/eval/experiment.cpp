#include "src/eval/experiment.h"

#include "src/core/safeloc.h"
#include "src/rss/device.h"
#include "src/util/config.h"
#include "src/util/logging.h"

namespace safeloc::eval {

Experiment::Experiment(int building_id, std::uint64_t seed)
    : building_(rss::paper_building(building_id)),
      generator_(building_, seed),
      train_(generator_.training_set()),
      seed_(seed) {
  const auto& devices = rss::paper_devices();
  test_sets_.reserve(devices.size() - 1);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (d == rss::reference_device_index()) continue;
    test_sets_.push_back(generator_.test_set(devices[d]));
  }
}

void Experiment::pretrain(fl::FederatedFramework& framework, int epochs) const {
  framework.pretrain(train_.x, train_.labels, num_classes(), epochs, seed_);
  util::log_debug(framework.name(), ": pretrained on ",
                  building_.spec().name, " (", train_.size(), " samples)");
}

std::vector<double> Experiment::evaluate(
    fl::FederatedFramework& framework) const {
  std::vector<double> errors;
  for (const auto& test : test_sets_) {
    const std::vector<int> predicted = framework.predict(test.x);
    const std::vector<double> device_errors =
        localization_errors(building_, predicted, test.labels);
    errors.insert(errors.end(), device_errors.begin(), device_errors.end());
  }
  return errors;
}

AttackOutcome Experiment::run_scenario(fl::FederatedFramework& framework,
                                       const fl::FlScenario& scenario,
                                       bool capture_final_gm) const {
  const nn::StateDict pristine = framework.snapshot();
  // Per-round recalibration (and the capture-path refresh below) moves
  // SAFELOC's τ; snapshot/restore covers weights only, so save it here to
  // keep scenarios from one framework instance independent.
  auto* safeloc = dynamic_cast<core::SafeLocFramework*>(&framework);
  const double pristine_tau = safeloc != nullptr ? safeloc->tau() : 0.0;

  AttackOutcome outcome;
  outcome.fl_diagnostics = fl::run_federated(framework, generator_, scenario);
  outcome.errors_m = evaluate(framework);
  outcome.stats = error_stats(outcome.errors_m);
  if (capture_final_gm) {
    // Server-side model maintenance before the snapshot is published: the
    // framework re-fits whatever went stale over the rounds (SAFELOC: a
    // decoder-only refresh against the drifted encoder) on its own clean
    // collection, so the calibration below — and every serve-time gate fed
    // from it — is captured against the refreshed model. The refresh set's
    // salt differs from the calibration set's: the clean-RCE statistics
    // stay held-out from the data the decoder was re-fit on. Frameworks
    // that declare no refresh skip the collection synthesis entirely.
    if (framework.wants_server_refresh() &&
        framework.server_refresh(
            rss::clean_collection(generator_, /*fps_per_rp=*/1,
                                  /*salt_base=*/0xdecaf500ULL)
                .x)) {
      util::log_debug(framework.name(), ": server-side refresh before GM "
                      "capture");
    }
    outcome.final_gm = framework.snapshot();
    // Calibrate while the final GM is still loaded (restore() would put the
    // pretrained weights back first).
    outcome.calibration = calibrate(framework);
  }
  framework.restore(pristine);
  if (safeloc != nullptr) safeloc->set_tau(pristine_tau);
  return outcome;
}

ModelCalibration Experiment::calibrate(fl::FederatedFramework& framework) const {
  const rss::Dataset pooled =
      rss::clean_collection(generator_, /*fps_per_rp=*/1,
                            /*salt_base=*/0xca11b0ULL);
  std::vector<float> rce;
  if (auto* safeloc = dynamic_cast<core::SafeLocFramework*>(&framework)) {
    rce = safeloc->network().reconstruction_error(pooled.x);
  }
  return make_model_calibration(pooled.x, rce);
}

fl::LocalTrainOpts Experiment::default_local_opts() {
  const util::RunScale& scale = util::run_scale();
  fl::LocalTrainOpts opts;
  opts.epochs = scale.client_epochs;
  opts.learning_rate = scale.client_lr;
  return opts;
}

AttackOutcome Experiment::run_attack(fl::FederatedFramework& framework,
                                     const attack::AttackConfig& attack,
                                     int rounds) const {
  fl::FlScenario scenario;
  scenario.rounds = rounds;
  scenario.local = default_local_opts();
  scenario.clients = fl::paper_clients(attack);
  scenario.seed = seed_;
  return run_scenario(framework, scenario);
}

}  // namespace safeloc::eval
