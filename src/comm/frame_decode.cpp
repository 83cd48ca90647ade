#include "comm/frame_decode.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <stdexcept>

#include "comm/simd/acs_kernel.hpp"

namespace metacore::comm {

namespace {

/// Internal sub-chunk bound: decode_chunk processes at most this many
/// trellis steps per quantize+ACS sweep, so the per-lane level slabs stay
/// cache-sized regardless of the caller's chunk length. Matches the BER
/// pipeline's 1024-step chunks so that path runs exactly one sweep.
constexpr std::size_t kSubChunkSteps = 1024;

/// Lock-step traceback across lanes: one survivor-memory walk of depth
/// `traceback_depth` per lane, interleaved depth-outer/lane-inner so the L
/// independent pointer chases overlap in the out-of-order core (traceback
/// is the serial tail of the decode and dominates at small K; memory-level
/// parallelism across lanes is where the frame axis wins it back). Each
/// lane's walk is exactly the single-frame traceback_bit_from.
void traceback_lanes(const Trellis& trellis,
                     const std::vector<std::uint8_t>& survivors,
                     int traceback_depth, std::int64_t steps,
                     std::size_t lanes, const std::uint32_t* start_state,
                     std::uint32_t* state, int* bit) {
  const auto states = static_cast<std::size_t>(trellis.num_states());
  const std::uint32_t* pred_state = trellis.pred_states().data();
  const std::uint8_t* pred_bit = trellis.pred_bits().data();
  for (std::size_t l = 0; l < lanes; ++l) state[l] = start_state[l];
  for (int d = 0; d < traceback_depth; ++d) {
    const std::int64_t t = steps - 1 - d;
    const std::uint8_t* row =
        survivors.data() +
        static_cast<std::size_t>(t % traceback_depth) * states * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t branch = 2 * state[l] + row[state[l] * lanes + l];
      bit[l] = pred_bit[branch];
      state[l] = pred_state[branch];
    }
  }
}

/// Final traceback for one lane (the read-only analog of Decoder::flush):
/// the most recent min(steps, L-1) decisions from the lane's best end
/// state, oldest first.
template <typename Acc>
std::vector<int> flush_lane(const Trellis& trellis,
                            const std::vector<std::uint8_t>& survivors,
                            int traceback_depth, std::int64_t steps,
                            std::size_t lanes, std::size_t lane,
                            const std::vector<Acc>& acc) {
  const auto states = static_cast<std::size_t>(trellis.num_states());
  // Strided strict-< first-argmin over the lane's metrics (min_element
  // semantics, matching the single-frame best_state()).
  Acc best = acc[lane];
  std::uint32_t state = 0;
  for (std::size_t s = 1; s < states; ++s) {
    if (acc[s * lanes + lane] < best) {
      best = acc[s * lanes + lane];
      state = static_cast<std::uint32_t>(s);
    }
  }
  const std::int64_t pending =
      steps < traceback_depth ? steps
                              : static_cast<std::int64_t>(traceback_depth) - 1;
  const std::uint32_t* pred_state = trellis.pred_states().data();
  const std::uint8_t* pred_bit = trellis.pred_bits().data();
  std::vector<int> bits(static_cast<std::size_t>(pending));
  for (std::int64_t d = 0; d < pending; ++d) {
    const std::int64_t t = steps - 1 - d;
    const std::uint8_t* row =
        survivors.data() +
        static_cast<std::size_t>(t % traceback_depth) * states * lanes;
    const std::size_t branch = 2 * state + row[state * lanes + lane];
    bits[static_cast<std::size_t>(pending - 1 - d)] = pred_bit[branch];
    state = pred_state[branch];
  }
  return bits;
}

}  // namespace

std::size_t default_frame_lanes() {
  const char* env = std::getenv("METACORE_LANES");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || value < 1 || value > 256) {
      throw std::invalid_argument(
          "METACORE_LANES must be an integer in [1, 256], got '" +
          std::string(env) + "'");
    }
    return static_cast<std::size_t>(value);
  }
  return simd::natural_frame_lanes(simd::dispatched_isa());
}

// ---------------------------------------------------------------------------
// FrameViterbiDecoder

FrameViterbiDecoder::FrameViterbiDecoder(const Trellis& trellis,
                                         int traceback_depth,
                                         Quantizer quantizer,
                                         std::size_t lanes)
    : trellis_(&trellis),
      traceback_depth_(traceback_depth),
      quantizer_(quantizer),
      lanes_(lanes),
      norm_threshold_(detail::kPathMetricNormalizeThreshold) {
  if (traceback_depth_ < 1) {
    throw std::invalid_argument(
        "FrameViterbiDecoder: traceback depth must be >= 1");
  }
  if (lanes_ < 1) {
    throw std::invalid_argument("FrameViterbiDecoder: lanes must be >= 1");
  }
  detail::check_int32_envelope(*trellis_, quantizer_);
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  const auto n = static_cast<std::size_t>(trellis_->symbols_per_step());
  acc_.resize(states * lanes_);
  next_acc_.resize(states * lanes_);
  survivors_.assign(
      static_cast<std::size_t>(traceback_depth_) * states * lanes_, 0);
  block_levels_.resize(lanes_ * kSubChunkSteps * n);
  metric_by_pattern_.resize((std::size_t{1} << n) * lanes_);
  best_metric_.resize(lanes_);
  best_state_.resize(lanes_);
  tb_state_.resize(lanes_);
  tb_bit_.resize(lanes_);
  normalizations_.resize(lanes_);
  reset();
}

void FrameViterbiDecoder::reset() {
  std::fill(acc_.begin(), acc_.end(), detail::kPathMetricUnreachable);
  // The encoder starts from the all-zero state — in every lane.
  for (std::size_t l = 0; l < lanes_; ++l) acc_[l] = 0;
  steps_ = 0;
  std::fill(normalizations_.begin(), normalizations_.end(), 0);
}

void FrameViterbiDecoder::fill_metric_tables(std::size_t step_in_chunk) {
  // Per lane, the same 2^n-entry precompute as the single-frame decoder,
  // scattered lane-major so the ACS kernel reads contiguous per-pattern
  // rows. Lane count and pattern count are both small (<= 16 and <= 2^n),
  // so this stays a negligible slice of the step.
  const auto zero_row = quantizer_.metric_table(0);
  const auto one_row = quantizer_.metric_table(1);
  const auto n = static_cast<std::size_t>(trellis_->symbols_per_step());
  const std::size_t patterns = std::size_t{1} << n;
  const std::size_t slab = kSubChunkSteps * n;
  for (std::size_t l = 0; l < lanes_; ++l) {
    const int* levels = block_levels_.data() + l * slab + step_in_chunk * n;
    for (std::size_t p = 0; p < patterns; ++p) {
      std::int32_t metric = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const auto level = static_cast<std::size_t>(levels[j]);
        metric += ((p >> j) & 1u) ? one_row[level] : zero_row[level];
      }
      metric_by_pattern_[p * lanes_ + l] = metric;
    }
  }
}

std::size_t FrameViterbiDecoder::decode_chunk(const double* const* rx,
                                              std::size_t steps,
                                              int* const* out) {
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  const auto n = static_cast<std::size_t>(trellis_->symbols_per_step());
  const std::uint32_t* pred_state = trellis_->pred_states().data();
  const std::uint32_t* pred_symbols = trellis_->pred_symbols().data();
  const simd::FrameViterbiAcsFn acs = simd::frame_viterbi_acs();
  const std::size_t slab = kSubChunkSteps * n;

  std::size_t written = 0;
  for (std::size_t done = 0; done < steps;) {
    const std::size_t sub = std::min(kSubChunkSteps, steps - done);
    // Whole-sub-chunk quantization per lane (contiguous samples, so this is
    // elementwise-identical to the single-frame whole-chunk pass).
    for (std::size_t l = 0; l < lanes_; ++l) {
      quantizer_.quantize_block(
          std::span<const double>(rx[l] + done * n, sub * n),
          std::span<int>(block_levels_.data() + l * slab, sub * n));
    }
    for (std::size_t i = 0; i < sub; ++i) {
      fill_metric_tables(i);

      std::uint8_t* survivor_row =
          survivors_.data() +
          static_cast<std::size_t>(steps_ % traceback_depth_) * states *
              lanes_;
      acs(acc_.data(), next_acc_.data(), pred_state, pred_symbols,
          metric_by_pattern_.data(), survivor_row, states, lanes_,
          best_metric_.data(), best_state_.data());
      acc_.swap(next_acc_);
      ++steps_;

      // Per-lane renormalization on the lane's own floor — the strided
      // subtraction fires rarely (every ~2^28 metric units of drift), so
      // it never shows on the step profile.
      for (std::size_t l = 0; l < lanes_; ++l) {
        if (best_metric_[l] > norm_threshold_) {
          for (std::size_t s = 0; s < states; ++s) {
            acc_[s * lanes_ + l] -= best_metric_[l];
          }
          ++normalizations_[l];
        }
      }

      if (steps_ >= traceback_depth_) {
        traceback_lanes(*trellis_, survivors_, traceback_depth_, steps_,
                        lanes_, best_state_.data(), tb_state_.data(),
                        tb_bit_.data());
        for (std::size_t l = 0; l < lanes_; ++l) {
          out[l][written] = tb_bit_[l];
        }
        ++written;
      }
    }
    done += sub;
  }
  return written;
}

std::vector<int> FrameViterbiDecoder::flush(std::size_t lane) const {
  return flush_lane(*trellis_, survivors_, traceback_depth_, steps_, lanes_,
                    lane, acc_);
}

// ---------------------------------------------------------------------------
// FrameMultiresDecoder

FrameMultiresDecoder::FrameMultiresDecoder(const Trellis& trellis,
                                           const MultiresConfig& config,
                                           double amplitude,
                                           double noise_sigma,
                                           std::size_t lanes)
    : trellis_(&trellis),
      config_(config),
      // Quantizer construction mirrors MultiresViterbiDecoder exactly:
      // 1-bit R1 degenerates to hard slicing regardless of method.
      low_(config.low_res_bits == 1 ? QuantizationMethod::Hard : config.method,
           config.low_res_bits, amplitude, noise_sigma),
      high_(config.method, config.high_res_bits, amplitude, noise_sigma),
      lanes_(lanes),
      refiner_(config, static_cast<std::size_t>(trellis.num_states()),
               lanes),
      norm_threshold_(detail::kMultiresNormalizeThreshold) {
  if (lanes_ < 1) {
    throw std::invalid_argument("FrameMultiresDecoder: lanes must be >= 1");
  }
  scale_ = static_cast<double>(high_.max_level()) /
           static_cast<double>(low_.max_level());
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  const auto n = static_cast<std::size_t>(trellis_->symbols_per_step());
  acc_.resize(states * lanes_);
  next_acc_.resize(states * lanes_);
  survivors_.assign(
      static_cast<std::size_t>(config_.traceback_depth) * states * lanes_, 0);
  block_levels_low_.resize(lanes_ * kSubChunkSteps * n);
  block_levels_high_.resize(lanes_ * kSubChunkSteps * n);
  scaled_low_metric_by_pattern_.resize((std::size_t{1} << n) * lanes_);
  high_metric_by_pattern_.resize(scaled_low_metric_by_pattern_.size());
  winning_scaled_metric_.resize(states * lanes_);
  floor_.resize(lanes_);
  best_state_.resize(lanes_);
  tb_state_.resize(lanes_);
  tb_bit_.resize(lanes_);
  normalizations_.resize(lanes_);
  reset();
}

void FrameMultiresDecoder::reset() {
  std::fill(acc_.begin(), acc_.end(), detail::kMultiresUnreachable);
  for (std::size_t l = 0; l < lanes_; ++l) acc_[l] = 0.0;
  steps_ = 0;
  std::fill(normalizations_.begin(), normalizations_.end(), 0);
}

std::size_t FrameMultiresDecoder::decode_chunk(const double* const* rx,
                                               std::size_t steps,
                                               int* const* out) {
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  const auto n = static_cast<std::size_t>(trellis_->symbols_per_step());
  const std::uint32_t* pred_state = trellis_->pred_states().data();
  const std::uint32_t* pred_symbols = trellis_->pred_symbols().data();
  const simd::FrameMultiresAcsFn acs = simd::frame_multires_acs();
  const std::size_t slab = kSubChunkSteps * n;

  std::size_t written = 0;
  for (std::size_t done = 0; done < steps;) {
    const std::size_t sub = std::min(kSubChunkSteps, steps - done);
    for (std::size_t l = 0; l < lanes_; ++l) {
      low_.quantize_block(
          std::span<const double>(rx[l] + done * n, sub * n),
          std::span<int>(block_levels_low_.data() + l * slab, sub * n));
      high_.quantize_block(
          std::span<const double>(rx[l] + done * n, sub * n),
          std::span<int>(block_levels_high_.data() + l * slab, sub * n));
    }
    for (std::size_t i = 0; i < sub; ++i) {
      for (std::size_t l = 0; l < lanes_; ++l) {
        const std::size_t at = l * slab + i * n;
        detail::fill_metric_by_pattern(
            low_, block_levels_low_.data() + at, n, scale_,
            scaled_low_metric_by_pattern_.data() + l, lanes_);
        detail::fill_metric_by_pattern(high_, block_levels_high_.data() + at,
                                       n, 1.0,
                                       high_metric_by_pattern_.data() + l,
                                       lanes_);
      }

      std::uint8_t* survivor_row =
          survivors_.data() +
          static_cast<std::size_t>(steps_ % config_.traceback_depth) *
              states * lanes_;
      // Phase 1: lane-parallel low-resolution ACS over every frame.
      acs(acc_.data(), next_acc_.data(), pred_state, pred_symbols,
          scaled_low_metric_by_pattern_.data(), survivor_row,
          winning_scaled_metric_.data(), states, lanes_);
      // Phase 2: the single-frame decoder's M-best refinement, per lane.
      refiner_.refine(*trellis_, acc_.data(), next_acc_.data(), survivor_row,
                      winning_scaled_metric_.data(),
                      high_metric_by_pattern_.data(), floor_.data(),
                      best_state_.data());
      acc_.swap(next_acc_);
      ++steps_;

      // Per-lane renormalization on the lane's own floor, exactly the
      // single-frame epilogue.
      for (std::size_t l = 0; l < lanes_; ++l) {
        if (floor_[l] > norm_threshold_) {
          for (std::size_t s = 0; s < states; ++s) {
            acc_[s * lanes_ + l] -= floor_[l];
          }
          ++normalizations_[l];
        }
      }

      if (steps_ >= config_.traceback_depth) {
        traceback_lanes(*trellis_, survivors_, config_.traceback_depth,
                        steps_, lanes_, best_state_.data(), tb_state_.data(),
                        tb_bit_.data());
        for (std::size_t l = 0; l < lanes_; ++l) {
          out[l][written] = tb_bit_[l];
        }
        ++written;
      }
    }
    done += sub;
  }
  return written;
}

std::vector<int> FrameMultiresDecoder::flush(std::size_t lane) const {
  return flush_lane(*trellis_, survivors_, config_.traceback_depth, steps_,
                    lanes_, lane, acc_);
}

}  // namespace metacore::comm
