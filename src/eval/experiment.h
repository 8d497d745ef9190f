// Experiment driver: building + dataset setup, framework pretraining, attack
// scenario execution, and heterogeneous-device evaluation — the pipeline
// every bench binary and example uses.
//
// Cost structure: server pretraining dominates, and it does not depend on
// the attack under evaluation. Experiment therefore pretrains a framework
// once per building and evaluates many attack cells from the same snapshot
// (FederatedFramework::snapshot / restore).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/attack/attack.h"
#include "src/eval/calibration.h"
#include "src/eval/metrics.h"
#include "src/fl/federated.h"
#include "src/fl/framework.h"
#include "src/rss/dataset.h"

namespace safeloc::eval {

struct AttackOutcome {
  /// Errors pooled over every test device and RP.
  std::vector<double> errors_m;
  ErrorStats stats;
  fl::FlRunResult fl_diagnostics;
  /// The global model as it stood after the scenario's final federated
  /// round, *before* the snapshot/restore put the pretrained GM back. Only
  /// captured on request (run_scenario's capture_final_gm) — it is the
  /// artifact the serving layer publishes (serve::ModelStore).
  nn::StateDict final_gm;
  /// Clean-traffic statistics of the captured model (feature envelope +
  /// clean RCE distribution), computed on a dedicated heterogeneous-device
  /// calibration set. Only populated alongside final_gm; feeds the serving
  /// layer's PoisonGate.
  ModelCalibration calibration;
};

class Experiment {
 public:
  /// Sets up building `building_id` (1..5): floorplan, AP selection, the
  /// reference-device training set, and one test set per non-reference
  /// device (paper protocol).
  explicit Experiment(int building_id, std::uint64_t seed = 0x5afe10cULL);

  [[nodiscard]] const rss::Building& building() const noexcept {
    return building_;
  }
  [[nodiscard]] const rss::FingerprintGenerator& generator() const noexcept {
    return generator_;
  }
  [[nodiscard]] const rss::Dataset& training_set() const noexcept {
    return train_;
  }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return building_.num_rps();
  }

  /// Server-side pretraining on the reference-device training set.
  void pretrain(fl::FederatedFramework& framework, int epochs) const;

  /// Runs one federated attack scenario from the framework's current GM,
  /// evaluates on all test devices, then restores the GM (and SAFELOC's τ,
  /// which per-round recalibration moves) so further scenarios start from
  /// the same pretrained state. With capture_final_gm, the framework first
  /// gets a FederatedFramework::server_refresh pass on a dedicated clean
  /// collection (SAFELOC re-fits its de-noising decoder against the
  /// post-rounds encoder), then the GM is snapshotted into
  /// AttackOutcome::final_gm and calibrated before the restore (one extra
  /// snapshot copy per cell).
  [[nodiscard]] AttackOutcome run_scenario(fl::FederatedFramework& framework,
                                           const fl::FlScenario& scenario,
                                           bool capture_final_gm = false) const;

  /// Convenience: paper-default six clients with the HTC U11 mounting
  /// `attack` (kNone = benign run), `rounds` federated rounds, client
  /// training options from default_local_opts().
  [[nodiscard]] AttackOutcome run_attack(fl::FederatedFramework& framework,
                                         const attack::AttackConfig& attack,
                                         int rounds) const;

  /// Client training options from the active run-scale profile
  /// (paper: 5 epochs; lr per util::RunScale::client_lr).
  [[nodiscard]] static fl::LocalTrainOpts default_local_opts();

  /// Evaluates the framework's current GM on all test devices without
  /// running any federated rounds.
  [[nodiscard]] std::vector<double> evaluate(
      fl::FederatedFramework& framework) const;

  /// Clean-traffic calibration of the framework's *current* GM: one
  /// fingerprint per RP on every non-reference device from a dedicated
  /// collection salt (independent of the training and evaluation sets),
  /// with the clean RCE distribution when the framework exposes a decoder
  /// (SAFELOC). This is what run_scenario captures for the serving layer.
  [[nodiscard]] ModelCalibration calibrate(
      fl::FederatedFramework& framework) const;

 private:
  rss::Building building_;
  rss::FingerprintGenerator generator_;
  rss::Dataset train_;
  std::vector<rss::Dataset> test_sets_;
  std::uint64_t seed_;
};

}  // namespace safeloc::eval
