// Kernel micro-timings at the exact shapes the workloads run: the fused
// network's dense layers at the training batch (32), and the deployed
// serving net at batches 1 and 64. Every GEMM shape is first checked
// bit-identical between the dispatched variant and the scalar kernel.
#pragma once

#include <cstdint>

#include "src/nn/state_dict.h"

namespace perfbench {

struct KernelTimes {
  /// Microseconds per pass over every dense layer of the training net
  /// (forward GEMM, dW = X^T G, dX = G W^T), and per Adam step over all of
  /// its parameters. Medians over repeated passes.
  double matmul_fwd_us = 0.0;
  double matmul_at_b_us = 0.0;
  double matmul_a_bt_us = 0.0;
  double adam_step_us = 0.0;
  /// ServingNet classifier forward of the deployed building-1 model.
  double serving_forward_b1_us = 0.0;
  double serving_forward_b64_us = 0.0;
};

/// Throws std::runtime_error when a dispatched kernel differs from the
/// scalar kernel on any shape. `served` is the deployed building-1 state.
[[nodiscard]] KernelTimes time_kernels(std::size_t num_classes,
                                       const safeloc::nn::StateDict& served,
                                       std::uint64_t seed);

}  // namespace perfbench
