// Portable scalar reference kernels. These define the semantics every SIMD
// tier must reproduce bit for bit: compare-select with ties broken toward
// predecessor branch 0 (`cand1 < cand0` picks branch 1), the running
// minimum tracked with strict `<` so the first state achieving it wins
// (std::min_element semantics), and double-domain clamping in the
// quantizer. They are also the dispatch target on non-x86 builds and under
// METACORE_SIMD=scalar.
//
// Internal linkage on purpose: dispatch.cpp (the scalar table) and each
// vector tier TU (the state-parallel tail) inline their own copy, so no
// -m-flagged copy can be picked by the linker for baseline callers.
#pragma once

#include <cstdint>

#include "comm/simd/acs_kernel.hpp"

namespace metacore::comm::simd::detail {
namespace {

inline AcsStepResult viterbi_acs_scalar(const std::int32_t* acc,
                                        std::int32_t* next_acc,
                                        const std::uint32_t* pred_state,
                                        const std::uint32_t* pred_symbols,
                                        const std::int32_t* metric_by_pattern,
                                        std::uint8_t* survivor_row,
                                        std::size_t num_states) {
  std::int32_t best = INT32_MAX;
  std::uint32_t best_state = 0;
  for (std::size_t s = 0; s < num_states; ++s) {
    const std::int32_t cand0 =
        acc[pred_state[2 * s]] + metric_by_pattern[pred_symbols[2 * s]];
    const std::int32_t cand1 =
        acc[pred_state[2 * s + 1]] + metric_by_pattern[pred_symbols[2 * s + 1]];
    std::int32_t win = cand0;
    std::uint8_t sel = 0;
    if (cand1 < cand0) {
      win = cand1;
      sel = 1;
    }
    next_acc[s] = win;
    survivor_row[s] = sel;
    if (win < best) {
      best = win;
      best_state = static_cast<std::uint32_t>(s);
    }
  }
  return {best, best_state};
}

inline void multires_acs_scalar(const double* acc, double* next_acc,
                                const std::uint32_t* pred_state,
                                const std::uint32_t* pred_symbols,
                                const double* scaled_metric_by_pattern,
                                std::uint8_t* survivor_row,
                                double* winning_scaled_metric,
                                std::size_t num_states) {
  for (std::size_t s = 0; s < num_states; ++s) {
    const double bm0 = scaled_metric_by_pattern[pred_symbols[2 * s]];
    const double bm1 = scaled_metric_by_pattern[pred_symbols[2 * s + 1]];
    const double cand0 = acc[pred_state[2 * s]] + bm0;
    const double cand1 = acc[pred_state[2 * s + 1]] + bm1;
    if (cand1 < cand0) {
      next_acc[s] = cand1;
      survivor_row[s] = 1;
      winning_scaled_metric[s] = bm1;
    } else {
      next_acc[s] = cand0;
      survivor_row[s] = 0;
      winning_scaled_metric[s] = bm0;
    }
  }
}

inline void quantize_block_scalar(const double* rx, int* out,
                                  std::size_t count, double step,
                                  double offset, int max_level) {
  const double top = static_cast<double>(max_level);
  for (std::size_t i = 0; i < count; ++i) {
    const double scaled = (rx[i] - offset) / step;
    // Clamp in the double domain before converting, mirroring the vector
    // min/max sequence exactly (min first, so a NaN input lands on the top
    // level on every tier); truncation equals floor for the non-negative
    // clamped value.
    double clamped = scaled < top ? scaled : top;
    clamped = clamped > 0.0 ? clamped : 0.0;
    out[i] = static_cast<int>(clamped);
  }
}

}  // namespace
}  // namespace metacore::comm::simd::detail
