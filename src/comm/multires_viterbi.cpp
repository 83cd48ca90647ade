#include "comm/multires_viterbi.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "comm/simd/acs_kernel.hpp"

namespace metacore::comm {

namespace {
constexpr double kUnreachable = detail::kMultiresUnreachable;
constexpr double kNormalizeThreshold = detail::kMultiresNormalizeThreshold;
}  // namespace

void MultiresConfig::validate(int num_states) const {
  if (traceback_depth < 1) {
    throw std::invalid_argument("MultiresConfig: traceback depth must be >= 1");
  }
  if (low_res_bits < 1 || high_res_bits < 1 || low_res_bits > 8 ||
      high_res_bits > 8) {
    throw std::invalid_argument("MultiresConfig: resolutions must be in [1,8]");
  }
  if (high_res_bits < low_res_bits) {
    throw std::invalid_argument(
        "MultiresConfig: R2 must be at least as fine as R1");
  }
  if (num_high_res_paths < 1 || num_high_res_paths > num_states) {
    throw std::invalid_argument(
        "MultiresConfig: M must be in [1, num_states]");
  }
  if (normalization_terms < 1 || normalization_terms > num_high_res_paths) {
    throw std::invalid_argument("MultiresConfig: N must be in [1, M]");
  }
}

namespace detail {

void fill_metric_by_pattern(const Quantizer& quantizer, const int* levels,
                            std::size_t n, double scale, double* out,
                            std::size_t stride) {
  const auto zero_row = quantizer.metric_table(0);
  const auto one_row = quantizer.metric_table(1);
  const std::size_t patterns = std::size_t{1} << n;
  for (std::size_t p = 0; p < patterns; ++p) {
    int metric = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto level = static_cast<std::size_t>(levels[j]);
      metric += ((p >> j) & 1u) ? one_row[level] : zero_row[level];
    }
    out[p * stride] = scale * metric;
  }
}

MBestRefiner::MBestRefiner(const MultiresConfig& config, std::size_t states,
                           std::size_t lanes)
    : states_(states), lanes_(lanes) {
  config.validate(static_cast<int>(states));
  m_ = static_cast<std::size_t>(config.num_high_res_paths);
  n_ = static_cast<std::size_t>(config.normalization_terms);
  selected_.resize(states_);
  // With M = states every state is selected, always.
  for (std::size_t s = 0; s < states_; ++s) {
    selected_[s] = static_cast<std::uint32_t>(s);
  }
  // Ranking the M best by insertion costs about M^2 log(states / M) moves,
  // the value buckets about 3 * states: insertion serves M up to
  // sqrt(states), and otherwise ranks only the N best.
  ranked_.resize(m_ < states_ && m_ * m_ <= states_ ? m_ : n_);
  keys_.resize(states_);
  bucket_.resize(states_);
  bucket_count_.resize(states_);
  candidates_.resize(states_);
}

void MBestRefiner::select(const double* metrics, std::size_t lane) {
  // The first ranked_.size() states in (metric, state) order, by insertion
  // in state order: an entry moves up only past strictly larger metrics,
  // so equal metrics stay in state order. The same pass copies the lane's
  // metrics out of the lane-major layout, for the passes below.
  const std::size_t keep = ranked_.size();
  std::size_t filled = 0;
  double highest = -std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < states_; ++s) {
    const double v = metrics[s * lanes_ + lane];
    keys_[s] = v;
    highest = std::max(highest, v);
    if (filled == keep && !(v < ranked_[keep - 1].metric)) continue;
    std::size_t i = filled < keep ? filled++ : keep - 1;
    for (; i > 0 && v < ranked_[i - 1].metric; --i) ranked_[i] = ranked_[i - 1];
    ranked_[i] = {v, static_cast<std::uint32_t>(s)};
  }
  if (m_ == states_) return;
  if (keep == m_) {
    for (std::size_t i = 0; i < m_; ++i) selected_[i] = ranked_[i].state;
    return;
  }

  // Bucket the metrics by value into `states` equal-width buckets between
  // the smallest and the largest. The bucket index never decreases as the
  // metric grows, so every state in a bucket below the one where the
  // running count reaches M is selected, and only that bucket's states
  // need ranking. Path metrics cluster in a narrow band with many ties, so
  // that bucket is small.
  const double lowest = ranked_[0].metric;
  double scale = static_cast<double>(states_) / (highest - lowest);
  if (!(scale < std::numeric_limits<double>::infinity())) scale = 0.0;
  const double last = static_cast<double>(states_ - 1);
  std::fill(bucket_count_.begin(), bucket_count_.end(), 0u);
  for (std::size_t s = 0; s < states_; ++s) {
    const double at = (keys_[s] - lowest) * scale;
    const auto b = static_cast<std::uint32_t>(at < last ? at : last);
    bucket_[s] = b;
    ++bucket_count_[b];
  }
  std::uint32_t target = 0;
  std::size_t below = 0;
  while (below + bucket_count_[target] < m_) below += bucket_count_[target++];
  std::size_t taken = 0;
  std::size_t found = 0;
  for (std::size_t s = 0; s < states_; ++s) {
    selected_[taken] = static_cast<std::uint32_t>(s);
    taken += bucket_[s] < target;
    candidates_[found] = {keys_[s], static_cast<std::uint32_t>(s)};
    found += bucket_[s] == target;
  }
  // Then the target bucket's first M - below states in (metric, state)
  // order.
  const auto rest = static_cast<std::ptrdiff_t>(m_ - below);
  std::nth_element(candidates_.begin(), candidates_.begin() + (rest - 1),
                   candidates_.begin() + static_cast<std::ptrdiff_t>(found));
  for (std::ptrdiff_t i = 0; i < rest; ++i) {
    selected_[taken++] = candidates_[static_cast<std::size_t>(i)].state;
  }
}

void MBestRefiner::refine(const Trellis& trellis, const double* acc,
                          double* next_acc, const std::uint8_t* survivor_row,
                          const double* winning_scaled_metric,
                          const double* high_metric_by_pattern, double* floor,
                          std::uint32_t* best_state) {
  const std::uint32_t* pred_state = trellis.pred_states().data();
  const std::uint32_t* pred_symbols = trellis.pred_symbols().data();
  const std::size_t lanes = lanes_;
  for (std::size_t l = 0; l < lanes; ++l) {
    select(next_acc, l);
    // Correction term: the average (high - scaled low) metric difference
    // over the N best branches. Subtracting it from the recomputed metrics
    // keeps the expected accumulation equal for refined and unrefined
    // states, so no state gains an unfair traceback advantage.
    double correction = 0.0;
    for (const RankedState& best : ordered()) {
      const std::size_t s = best.state;
      const std::size_t i = s * lanes + l;
      const std::size_t branch = 2 * s + survivor_row[i];
      correction += high_metric_by_pattern[pred_symbols[branch] * lanes + l] -
                    winning_scaled_metric[i];
    }
    correction /= static_cast<double>(n_);
    for (const std::uint32_t s : selected()) {
      const std::size_t i = s * lanes + l;
      const std::size_t branch = 2 * s + survivor_row[i];
      next_acc[i] = acc[pred_state[branch] * lanes + l] +
                    high_metric_by_pattern[pred_symbols[branch] * lanes + l] -
                    correction;
    }
    floor[l] = std::numeric_limits<double>::infinity();
    best_state[l] = 0;
  }
  // Each lane's floor and first argmin (min_element semantics), without
  // branches: where the minimum falls is as unpredictable as the metrics.
  for (std::size_t s = 0; s < states_; ++s) {
    const double* row = next_acc + s * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const bool lower = row[l] < floor[l];
      floor[l] = lower ? row[l] : floor[l];
      best_state[l] = lower ? static_cast<std::uint32_t>(s) : best_state[l];
    }
  }
}

}  // namespace detail

MultiresViterbiDecoder::MultiresViterbiDecoder(const Trellis& trellis,
                                               const MultiresConfig& config,
                                               double amplitude,
                                               double noise_sigma)
    : trellis_(&trellis),
      config_(config),
      // Low-resolution trellis update: 1-bit R1 degenerates to hard slicing
      // regardless of method, matching the paper's R1=1 experiments.
      low_(config.low_res_bits == 1 ? QuantizationMethod::Hard : config.method,
           config.low_res_bits, amplitude, noise_sigma),
      high_(config.method, config.high_res_bits, amplitude, noise_sigma),
      refiner_(config, static_cast<std::size_t>(trellis.num_states()), 1),
      norm_threshold_(kNormalizeThreshold) {
  scale_ = static_cast<double>(high_.max_level()) /
           static_cast<double>(low_.max_level());
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  acc_.resize(states);
  next_acc_.resize(states);
  survivors_.assign(static_cast<std::size_t>(config_.traceback_depth) * states,
                    0);
  quantized_low_.resize(static_cast<std::size_t>(trellis_->symbols_per_step()));
  quantized_high_.resize(quantized_low_.size());
  winning_scaled_metric_.resize(states);
  // All scratch sized here so neither step() nor decode_block() touches the
  // allocator in steady state (the chunk-level buffers match the BER
  // pipeline's 1024-step chunks and only regrow for larger one-shot calls).
  scaled_low_metric_by_pattern_.resize(std::size_t{1} << quantized_low_.size());
  high_metric_by_pattern_.resize(scaled_low_metric_by_pattern_.size());
  block_levels_low_.reserve(1024 * quantized_low_.size());
  block_levels_high_.reserve(1024 * quantized_low_.size());
  reset();
}

void MultiresViterbiDecoder::reset() {
  std::fill(acc_.begin(), acc_.end(), kUnreachable);
  acc_[0] = 0.0;
  steps_ = 0;
  normalizations_ = 0;
}

std::uint32_t MultiresViterbiDecoder::advance_one_step(
    const int* low_levels, const int* high_levels, simd::MultiresAcsFn acs) {
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  const std::size_t n = quantized_low_.size();
  std::uint8_t* survivor_row =
      survivors_.data() +
      static_cast<std::size_t>(steps_ % config_.traceback_depth) * states;

  // Phase 1: full low-resolution add-compare-select over the flat butterfly
  // arrays through the dispatched state-parallel kernel (resolved once per
  // chunk by the callers). Low-res metrics are pre-scaled into
  // high-resolution units so both phases accumulate compatibly; scale_ *
  // metric is rounded once per pattern, so the kernels run pure adds.
  detail::fill_metric_by_pattern(low_, low_levels, n, scale_,
                                 scaled_low_metric_by_pattern_.data(), 1);
  detail::fill_metric_by_pattern(high_, high_levels, n, 1.0,
                                 high_metric_by_pattern_.data(), 1);
  acs(acc_.data(), next_acc_.data(), trellis_->pred_states().data(),
      trellis_->pred_symbols().data(), scaled_low_metric_by_pattern_.data(),
      survivor_row, winning_scaled_metric_.data(), states);

  // Phase 2: recompute the M best states' winning branch metrics at high
  // resolution, and find the renormalization floor and the traceback start
  // state.
  double floor = 0.0;
  std::uint32_t best_s = 0;
  refiner_.refine(*trellis_, acc_.data(), next_acc_.data(), survivor_row,
                  winning_scaled_metric_.data(),
                  high_metric_by_pattern_.data(), &floor, &best_s);
  acc_.swap(next_acc_);
  ++steps_;
  if (floor > norm_threshold_) {
    for (auto& a : acc_) a -= floor;
    ++normalizations_;
  }
  return best_s;
}

std::optional<int> MultiresViterbiDecoder::step(std::span<const double> rx) {
  if (rx.size() != quantized_low_.size()) {
    throw std::invalid_argument("MultiresViterbiDecoder::step: wrong symbol count");
  }
  low_.quantize_block(rx, quantized_low_);
  high_.quantize_block(rx, quantized_high_);
  const std::uint32_t best_s = advance_one_step(
      quantized_low_.data(), quantized_high_.data(), simd::multires_acs());
  if (steps_ < config_.traceback_depth) return std::nullopt;
  return traceback_bit_from(best_s);
}

std::size_t MultiresViterbiDecoder::decode_block(std::span<const double> rx,
                                                 std::span<int> out) {
  const std::size_t n = quantized_low_.size();
  if (rx.size() % n != 0) {
    throw std::invalid_argument(
        "MultiresViterbiDecoder::decode_block: chunk length not a multiple "
        "of symbols per step");
  }
  const std::size_t block_steps = rx.size() / n;
  if (out.size() < block_steps) {
    throw std::invalid_argument(
        "MultiresViterbiDecoder::decode_block: output span smaller than one "
        "bit per step");
  }
  // Batch-quantize the whole chunk at both resolutions up front — two
  // branchless SIMD passes instead of 2n quantize() calls per step.
  if (block_levels_low_.size() < rx.size()) {
    block_levels_low_.resize(rx.size());
    block_levels_high_.resize(rx.size());
  }
  low_.quantize_block(rx, block_levels_low_);
  high_.quantize_block(rx, block_levels_high_);
  const simd::MultiresAcsFn acs = simd::multires_acs();
  std::size_t written = 0;
  for (std::size_t i = 0; i < block_steps; ++i) {
    const std::uint32_t best_s = advance_one_step(
        block_levels_low_.data() + i * n, block_levels_high_.data() + i * n,
        acs);
    if (steps_ >= config_.traceback_depth) {
      out[written++] = traceback_bit_from(best_s);
    }
  }
  return written;
}

std::uint32_t MultiresViterbiDecoder::best_state() const {
  return static_cast<std::uint32_t>(
      std::min_element(acc_.begin(), acc_.end()) - acc_.begin());
}

int MultiresViterbiDecoder::traceback_bit_from(std::uint32_t state) const {
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  const std::uint32_t* pred_state = trellis_->pred_states().data();
  const std::uint8_t* pred_bit = trellis_->pred_bits().data();
  int bit = 0;
  for (int d = 0; d < config_.traceback_depth; ++d) {
    const std::int64_t t = steps_ - 1 - d;
    const std::uint8_t* row =
        survivors_.data() +
        static_cast<std::size_t>(t % config_.traceback_depth) * states;
    const std::size_t branch = 2 * state + row[state];
    bit = pred_bit[branch];
    state = pred_state[branch];
  }
  return bit;
}

std::vector<int> MultiresViterbiDecoder::flush() {
  const std::int64_t window = config_.traceback_depth;
  const std::int64_t pending = steps_ < window ? steps_ : window - 1;
  const auto states = static_cast<std::size_t>(trellis_->num_states());
  std::vector<int> bits(static_cast<std::size_t>(pending));
  std::uint32_t state = best_state();
  for (std::int64_t d = 0; d < pending; ++d) {
    const std::int64_t t = steps_ - 1 - d;
    const std::uint8_t* row =
        survivors_.data() + static_cast<std::size_t>(t % window) * states;
    const auto& branch = trellis_->predecessors(state)[row[state]];
    bits[static_cast<std::size_t>(pending - 1 - d)] = branch.input_bit;
    state = branch.from_state;
  }
  return bits;
}

std::unique_ptr<Decoder> make_multires_decoder(const Trellis& trellis,
                                               const MultiresConfig& config,
                                               double amplitude,
                                               double noise_sigma) {
  return std::make_unique<MultiresViterbiDecoder>(trellis, config, amplitude,
                                                  noise_sigma);
}

}  // namespace metacore::comm
