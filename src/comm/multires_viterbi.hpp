// The paper's primary algorithmic contribution (Section 3.3): the
// multiresolution Viterbi decoder. The trellis is updated with cheap
// low-resolution (R1-bit) branch metrics; after each step, the M most
// promising states have their winning branch metrics *recomputed* at high
// resolution (R2 bits), with a correction term — the average difference
// between high- and low-resolution metrics over the N best branches — added
// to keep accumulated errors normalized across states.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/quantizer.hpp"
#include "comm/simd/acs_kernel.hpp"
#include "comm/trellis.hpp"
#include "comm/viterbi.hpp"

namespace metacore::comm {

namespace detail {
/// Double path-metric constants shared by the single-frame multiresolution
/// decoder (multires_viterbi.cpp) and the frame-parallel one
/// (frame_decode.cpp); both must use the exact same values for per-lane
/// bit-identity.
inline constexpr double kMultiresUnreachable = 1e15;
inline constexpr double kMultiresNormalizeThreshold = 1e12;
}  // namespace detail

/// Normalization policy for the multiresolution correction term (the N
/// parameter of Table 2). N = 1 uses only the single best branch; larger N
/// averages over the N best recomputed branches, which the paper reports as
/// an improvement.
struct MultiresConfig {
  int traceback_depth = 15;     ///< L
  int low_res_bits = 1;         ///< R1
  int high_res_bits = 3;        ///< R2
  QuantizationMethod method = QuantizationMethod::AdaptiveSoft;  ///< Q
  int num_high_res_paths = 4;   ///< M, in [1, 2^(K-1)]
  int normalization_terms = 1;  ///< N, in [1, M]

  void validate(int num_states) const;
};

namespace detail {
/// One lane's branch metrics for one trellis step, one entry per expected
/// symbol pattern: out[p * stride] = scale * (the summed metric of the n
/// quantized `levels` against pattern p), rounded once. Both phases of both
/// multiresolution decoders read their metrics from such tables.
void fill_metric_by_pattern(const Quantizer& quantizer, const int* levels,
                            std::size_t n, double scale, double* out,
                            std::size_t stride);

/// A path metric with its state, ordered by (metric, state): the total
/// order that ranks the M best states.
struct RankedState {
  double metric;
  std::uint32_t state;

  friend bool operator<(const RankedState& a, const RankedState& b) {
    return a.metric < b.metric || (a.metric == b.metric && a.state < b.state);
  }
};

/// Phase 2 of a multiresolution step (Section 3.3), written once for
/// `lanes` independent frames laid out lane-major (state s of lane l at
/// s * lanes + l); the single-frame decoder is the one-lane case.
///
/// A lane's M best states are its M smallest (metric, state) pairs: every
/// state whose metric is below the M-th smallest metric, then the
/// lowest-numbered states at that metric. Only the N best are put in
/// order, for the correction sum. Because this order is explicit, the
/// refined metrics depend on no sort's treatment of ties.
class MBestRefiner {
 public:
  /// Validates `config` for `states` states (MultiresConfig::validate).
  MBestRefiner(const MultiresConfig& config, std::size_t states,
               std::size_t lanes);

  /// Selects the M best states of lane `lane` of `metrics`.
  void select(const double* metrics, std::size_t lane);
  /// The M best states of the last select(), in no particular order.
  std::span<const std::uint32_t> selected() const {
    return {selected_.data(), m_};
  }
  /// The N best states of the last select(), in (metric, state) order.
  std::span<const RankedState> ordered() const {
    return {ranked_.data(), n_};
  }

  /// Refines every lane after the low-resolution ACS: for each of a lane's
  /// M best states in `next_acc`, the surviving branch's metric is
  /// recomputed from `high_metric_by_pattern` (entry pattern * lanes + l)
  /// less the lane's correction term, the mean (high - scaled low) metric
  /// difference over its N best states. Writes each lane's smallest
  /// refined metric to floor[l] and its first state to best_state[l].
  void refine(const Trellis& trellis, const double* acc, double* next_acc,
              const std::uint8_t* survivor_row,
              const double* winning_scaled_metric,
              const double* high_metric_by_pattern, double* floor,
              std::uint32_t* best_state);

 private:
  std::size_t states_;
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t lanes_;
  std::vector<std::uint32_t> selected_;      ///< M best; scratch past them
  std::vector<RankedState> ranked_;          ///< best by insertion, in order
  std::vector<double> keys_;                 ///< one lane's metrics
  std::vector<std::uint32_t> bucket_;        ///< scratch, per state
  std::vector<std::uint32_t> bucket_count_;  ///< scratch, per bucket
  std::vector<RankedState> candidates_;      ///< scratch
};
}  // namespace detail

class MultiresViterbiDecoder final : public Decoder {
 public:
  MultiresViterbiDecoder(const Trellis& trellis, const MultiresConfig& config,
                         double amplitude, double noise_sigma);

  std::optional<int> step(std::span<const double> rx) override;
  /// Batched kernel: one virtual call per chunk, whole-chunk batch
  /// quantization at both resolutions, the low-resolution ACS core routed
  /// through the dispatched state-parallel SIMD kernel, and the M-best
  /// refinement (detail::MBestRefiner), which also finds the
  /// renormalization floor and the traceback start state.
  /// Bit-identical to the step() loop on every ISA tier.
  std::size_t decode_block(std::span<const double> rx,
                           std::span<int> out) override;
  std::vector<int> flush() override;
  void reset() override;
  const Trellis& trellis() const override { return *trellis_; }

  const MultiresConfig& config() const { return config_; }
  const Quantizer& low_res_quantizer() const { return low_; }
  const Quantizer& high_res_quantizer() const { return high_; }

  /// Accumulated errors, in high-resolution-equivalent units.
  std::span<const double> accumulated_errors() const { return acc_; }
  std::uint32_t best_state() const;

  /// Metric renormalizations performed since construction/reset.
  std::int64_t normalizations() const { return normalizations_; }
  /// Test hook mirroring ViterbiDecoder's: lowers the renormalization
  /// threshold so long-stream equivalence tests can exercise the renorm
  /// path cheaply.
  void set_normalize_threshold_for_test(double threshold) {
    norm_threshold_ = threshold;
  }

  /// Test hook: the full survivor window, compared byte for byte across
  /// ISA tiers by the dispatch-matrix equivalence test.
  std::span<const std::uint8_t> survivor_window_for_test() const {
    return survivors_;
  }

 private:
  /// Phases 1+2 of one trellis step on pre-quantized symbols at both
  /// resolutions (phase-1 ACS through `acs`, resolved once per chunk by the
  /// callers); returns the traceback start state (argmin of the updated
  /// accumulated errors).
  std::uint32_t advance_one_step(const int* low_levels, const int* high_levels,
                                 simd::MultiresAcsFn acs);
  int traceback_bit_from(std::uint32_t state) const;

  const Trellis* trellis_;
  MultiresConfig config_;
  Quantizer low_;
  Quantizer high_;
  /// Per-symbol scale mapping low-resolution metric units onto the
  /// high-resolution metric range, so mixed-resolution accumulations stay
  /// comparable.
  double scale_;

  std::vector<double> acc_;
  std::vector<double> next_acc_;
  /// Flat circular survivor store: entry (t % L) * num_states + state.
  std::vector<std::uint8_t> survivors_;
  std::vector<int> quantized_low_;
  std::vector<int> quantized_high_;
  std::vector<int> block_levels_low_;   ///< scratch: whole-chunk low levels
  std::vector<int> block_levels_high_;  ///< scratch: whole-chunk high levels
  /// Scratch, per symbol pattern: low-resolution branch metric already
  /// multiplied by scale_ (the SIMD ACS kernel consumes pure adds, which
  /// keeps every tier bit-identical — no fusable multiply in the loop).
  std::vector<double> scaled_low_metric_by_pattern_;
  /// Scratch, per symbol pattern: high-resolution branch metric.
  std::vector<double> high_metric_by_pattern_;
  /// Per-state scaled low-res metric of the surviving branch (phase 2's
  /// correction term subtracts it from the high-res recompute).
  std::vector<double> winning_scaled_metric_;
  detail::MBestRefiner refiner_;  ///< constructing it validates config_
  std::int64_t steps_ = 0;
  double norm_threshold_;
  std::int64_t normalizations_ = 0;
};

/// Factory mirroring make_hard_decoder / make_soft_decoder.
std::unique_ptr<Decoder> make_multires_decoder(const Trellis& trellis,
                                               const MultiresConfig& config,
                                               double amplitude,
                                               double noise_sigma);

}  // namespace metacore::comm
