// Tests for the multiresolution Viterbi decoder — the paper's core
// algorithmic contribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/ber.hpp"
#include "comm/channel.hpp"
#include "comm/multires_viterbi.hpp"
#include "util/rng.hpp"

namespace metacore::comm {
namespace {

std::vector<int> random_bits(std::size_t n, std::uint64_t seed) {
  util::Random rng(seed);
  std::vector<int> bits(n);
  for (auto& b : bits) b = rng.bit() ? 1 : 0;
  return bits;
}

MultiresConfig paper_config(int k) {
  MultiresConfig cfg;
  cfg.traceback_depth = 5 * k;
  cfg.low_res_bits = 1;
  cfg.high_res_bits = 3;
  cfg.method = QuantizationMethod::AdaptiveSoft;
  cfg.num_high_res_paths = 4;
  cfg.normalization_terms = 1;
  return cfg;
}

TEST(MultiresViterbi, DecodesNoiselessStreamExactly) {
  const Trellis trellis(best_rate_half_code(5));
  MultiresViterbiDecoder decoder(trellis, paper_config(5), 1.0, 0.5);
  const auto bits = random_bits(400, 77);
  ConvolutionalEncoder enc(trellis.spec());
  BpskModulator mod;
  const auto rx = mod.modulate(enc.encode(bits));
  EXPECT_EQ(decoder.decode(rx), bits);
}

// Property sweep: noiseless identity across K, M, N, and resolutions.
class MultiresIdentitySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MultiresIdentitySweep, NoiselessIdentity) {
  const auto [k, m, n_norm, r2] = GetParam();
  const Trellis trellis(best_rate_half_code(k));
  MultiresConfig cfg;
  cfg.traceback_depth = 5 * k;
  cfg.low_res_bits = 1;
  cfg.high_res_bits = r2;
  cfg.num_high_res_paths = std::min(m, trellis.num_states());
  cfg.normalization_terms = std::min(n_norm, cfg.num_high_res_paths);
  MultiresViterbiDecoder decoder(trellis, cfg, 1.0, 0.5);
  const auto bits = random_bits(300, 100 + static_cast<std::uint64_t>(k));
  ConvolutionalEncoder enc(trellis.spec());
  BpskModulator mod;
  const auto rx = mod.modulate(enc.encode(bits));
  EXPECT_EQ(decoder.decode(rx), bits)
      << "K=" << k << " M=" << m << " N=" << n_norm << " R2=" << r2;
}

INSTANTIATE_TEST_SUITE_P(ParamSweep, MultiresIdentitySweep,
                         ::testing::Combine(::testing::Values(3, 5, 7),
                                            ::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(2, 3, 4)));

TEST(MultiresViterbi, DegeneratesToSoftWhenAllPathsRefined) {
  // M = all states and R1 = R2 makes the refinement an exact recomputation;
  // the decoded stream must match the plain soft decoder's bit for bit.
  const Trellis trellis(best_rate_half_code(5));
  MultiresConfig cfg;
  cfg.traceback_depth = 25;
  cfg.low_res_bits = 3;
  cfg.high_res_bits = 3;
  cfg.method = QuantizationMethod::AdaptiveSoft;
  cfg.num_high_res_paths = trellis.num_states();
  cfg.normalization_terms = 1;

  const double sigma = 0.6;
  MultiresViterbiDecoder multires(trellis, cfg, 1.0, sigma);
  auto soft = make_soft_decoder(trellis, 25, 3,
                                QuantizationMethod::AdaptiveSoft, 1.0, sigma);

  const auto bits = random_bits(2000, 31337);
  ConvolutionalEncoder enc(trellis.spec());
  BpskModulator mod;
  AwgnChannel channel(2.0, 1.0, 99);
  const auto rx = channel.transmit(mod.modulate(enc.encode(bits)));
  EXPECT_EQ(multires.decode(rx), soft->decode(rx));
}

TEST(MultiresViterbi, BerOrderingHardMultiresSoft) {
  // The headline property (Figure 8): multiresolution closes most of the
  // hard->soft gap, and more refined paths help.
  BerRunConfig cfg;
  cfg.max_bits = 60'000;
  cfg.min_bits = 60'000;
  cfg.max_errors = 1'000'000;

  DecoderSpec hard;
  hard.code = best_rate_half_code(5);
  hard.traceback_depth = 25;
  hard.kind = DecoderKind::Hard;

  DecoderSpec soft = hard;
  soft.kind = DecoderKind::Soft;
  soft.high_res_bits = 3;

  DecoderSpec m4 = hard;
  m4.kind = DecoderKind::Multires;
  m4.low_res_bits = 1;
  m4.high_res_bits = 3;
  m4.num_high_res_paths = 4;

  DecoderSpec m8 = m4;
  m8.num_high_res_paths = 8;

  const double esn0 = 1.0;
  const double ber_hard = measure_ber(hard, esn0, cfg).ber();
  const double ber_soft = measure_ber(soft, esn0, cfg).ber();
  const double ber_m4 = measure_ber(m4, esn0, cfg).ber();
  const double ber_m8 = measure_ber(m8, esn0, cfg).ber();

  EXPECT_LT(ber_soft, ber_m8);
  EXPECT_LT(ber_m8, ber_m4);
  EXPECT_LT(ber_m4, ber_hard);
  // Paper: M=4 improves ~64% over hard; require at least 30% here to keep
  // the test robust to Monte-Carlo noise.
  EXPECT_LT(ber_m4, 0.7 * ber_hard);
}

TEST(MultiresViterbi, AveragedNormalizationStillDecodes) {
  // N > 1 (averaging several metric differences) is the paper's suggested
  // improvement; it must not break decoding.
  const Trellis trellis(best_rate_half_code(5));
  for (int n_norm : {1, 2, 4}) {
    MultiresConfig cfg = paper_config(5);
    cfg.num_high_res_paths = 4;
    cfg.normalization_terms = n_norm;
    MultiresViterbiDecoder decoder(trellis, cfg, 1.0, 0.6);
    const auto bits = random_bits(1500, 5);
    ConvolutionalEncoder enc(trellis.spec());
    BpskModulator mod;
    AwgnChannel channel(3.0, 1.0, static_cast<std::uint64_t>(n_norm));
    const auto rx = channel.transmit(mod.modulate(enc.encode(bits)));
    const auto decoded = decoder.decode(rx);
    int errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      errors += decoded[i] != bits[i];
    }
    EXPECT_LT(errors, 20) << "N=" << n_norm;
  }
}

TEST(MultiresConfig, ValidationRejectsBadParameters) {
  const int states = 16;
  MultiresConfig cfg;
  cfg.traceback_depth = 0;
  EXPECT_THROW(cfg.validate(states), std::invalid_argument);
  cfg = {};
  cfg.low_res_bits = 0;
  EXPECT_THROW(cfg.validate(states), std::invalid_argument);
  cfg = {};
  cfg.low_res_bits = 4;
  cfg.high_res_bits = 2;
  EXPECT_THROW(cfg.validate(states), std::invalid_argument);
  cfg = {};
  cfg.num_high_res_paths = 0;
  EXPECT_THROW(cfg.validate(states), std::invalid_argument);
  cfg = {};
  cfg.num_high_res_paths = 17;
  EXPECT_THROW(cfg.validate(states), std::invalid_argument);
  cfg = {};
  cfg.num_high_res_paths = 4;
  cfg.normalization_terms = 5;
  EXPECT_THROW(cfg.validate(states), std::invalid_argument);
}

TEST(MultiresViterbi, RejectsWrongSymbolCount) {
  const Trellis trellis(best_rate_half_code(3));
  MultiresViterbiDecoder decoder(trellis, paper_config(3), 1.0, 0.5);
  const std::vector<double> wrong{0.1};
  EXPECT_THROW(decoder.step(wrong), std::invalid_argument);
}

TEST(MultiresViterbi, ResetRestoresInitialState) {
  const Trellis trellis(best_rate_half_code(3));
  MultiresViterbiDecoder decoder(trellis, paper_config(3), 1.0, 0.5);
  const auto bits = random_bits(100, 1);
  ConvolutionalEncoder enc(trellis.spec());
  BpskModulator mod;
  const auto rx = mod.modulate(enc.encode(bits));
  const auto first = decoder.decode(rx);
  decoder.reset();
  const auto second = decoder.decode(rx);
  EXPECT_EQ(first, second);
}

// The M-best selection of phase 2 against std::sort over (metric, state)
// pairs. Metrics drawn from {0, 1, 2, unreachable} make ties at the M-th
// metric the common case; one pass uses distinct metrics instead. Every M
// from 1 to all states runs through both ranking methods (insertion for
// small M, value buckets otherwise), with lane strides 1-16.

/// What one select() picked: the M best states as a sorted set, and the N
/// best in order.
struct Selection {
  std::vector<std::uint32_t> selected;
  std::vector<std::pair<double, std::uint32_t>> ordered;
};

/// Selects lane `lane` of `metrics` and checks the result against std::sort
/// over the lane's (metric, state) pairs.
Selection checked_select(detail::MBestRefiner& refiner,
                         const std::vector<double>& metrics,
                         std::size_t states, std::size_t lanes,
                         std::size_t lane, std::size_t m, std::size_t n,
                         const std::string& where) {
  std::vector<std::pair<double, std::uint32_t>> pairs;
  for (std::size_t s = 0; s < states; ++s) {
    pairs.emplace_back(metrics[s * lanes + lane],
                       static_cast<std::uint32_t>(s));
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<std::uint32_t> want_selected;
  for (std::size_t i = 0; i < m; ++i) want_selected.push_back(pairs[i].second);
  std::sort(want_selected.begin(), want_selected.end());
  pairs.resize(n);

  refiner.select(metrics.data(), lane);
  Selection got;
  got.selected.assign(refiner.selected().begin(), refiner.selected().end());
  std::sort(got.selected.begin(), got.selected.end());
  for (const auto& best : refiner.ordered()) {
    got.ordered.emplace_back(best.metric, best.state);
  }
  EXPECT_EQ(got.selected, want_selected) << where;
  EXPECT_EQ(got.ordered, pairs) << where;
  return got;
}

TEST(MBestRefiner, SelectionMatchesSortedMetricStatePairs) {
  util::Random rng(515);
  const double kTieHeavy[] = {0.0, 1.0, 2.0, detail::kMultiresUnreachable};
  for (const bool tie_heavy : {true, false}) {
    for (const std::size_t states : {4u, 16u, 64u, 256u}) {
      for (std::size_t n = 1; n <= 4; ++n) {
        for (const std::size_t m : {std::size_t{1}, n, states / 8, states / 4,
                                    states / 2, states - 1, states}) {
          if (m < n) continue;
          MultiresConfig config;
          config.num_high_res_paths = static_cast<int>(m);
          config.normalization_terms = static_cast<int>(n);
          for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
            const std::string where =
                "states=" + std::to_string(states) + " M=" +
                std::to_string(m) + " N=" + std::to_string(n) +
                " lanes=" + std::to_string(lanes) +
                (tie_heavy ? " tie-heavy" : " distinct");
            detail::MBestRefiner refiner(config, states, lanes);
            std::vector<double> metrics(states * lanes);
            for (auto& v : metrics) {
              v = tie_heavy ? kTieHeavy[rng.uniform_index(4)]
                            : rng.uniform(0.0, 100.0);
            }
            const std::size_t lane = rng.uniform_index(lanes);
            const Selection got = checked_select(refiner, metrics, states,
                                                 lanes, lane, m, n, where);

            // The same metrics on permuted states: the selected metrics
            // and the N best metrics do not change.
            std::vector<std::size_t> perm(states);
            for (std::size_t s = 0; s < states; ++s) perm[s] = s;
            for (std::size_t s = states - 1; s > 0; --s) {
              std::swap(perm[s], perm[rng.uniform_index(s + 1)]);
            }
            std::vector<double> permuted = metrics;
            for (std::size_t s = 0; s < states; ++s) {
              permuted[perm[s] * lanes + lane] = metrics[s * lanes + lane];
            }
            const Selection moved =
                checked_select(refiner, permuted, states, lanes, lane, m, n,
                               where + " permuted");
            std::vector<double> got_metrics;
            std::vector<double> moved_metrics;
            for (std::size_t i = 0; i < m; ++i) {
              got_metrics.push_back(metrics[got.selected[i] * lanes + lane]);
              moved_metrics.push_back(
                  permuted[moved.selected[i] * lanes + lane]);
            }
            std::sort(got_metrics.begin(), got_metrics.end());
            std::sort(moved_metrics.begin(), moved_metrics.end());
            EXPECT_EQ(moved_metrics, got_metrics) << where << " permuted";
            for (std::size_t i = 0; i < n; ++i) {
              EXPECT_EQ(moved.ordered[i].first, got.ordered[i].first)
                  << where << " permuted";
            }
            if (testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace metacore::comm
