// Equivalence tests for the batched decoder kernels: the flat SoA trellis
// view, the quantizer metric table, decode_block vs the per-step virtual
// loop, renormalization tracked in-loop vs the min_element reference scan,
// and golden (pre-kernel) measure_ber values that must stay bit-identical
// for every decoder kind, shard count, and thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/ber.hpp"
#include "comm/channel.hpp"
#include "comm/multires_viterbi.hpp"
#include "comm/simd/acs_kernel.hpp"
#include "comm/viterbi.hpp"
#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

namespace metacore::comm {
namespace {

std::vector<double> noisy_stream(const CodeSpec& code, std::size_t bits,
                                 double esn0_db, std::uint64_t seed,
                                 double* sigma) {
  util::Random rng(seed);
  std::vector<int> data(bits);
  for (auto& b : data) b = rng.bit() ? 1 : 0;
  ConvolutionalEncoder enc(code);
  BpskModulator mod;
  AwgnChannel channel(esn0_db, 1.0, seed ^ 0xABCD);
  *sigma = channel.noise_sigma();
  return channel.transmit(mod.modulate(enc.encode(data)));
}

DecoderSpec make_spec(DecoderKind kind, int k) {
  DecoderSpec spec;
  spec.code = best_rate_half_code(k);
  spec.traceback_depth = 5 * k;
  spec.kind = kind;
  spec.low_res_bits = 1;
  spec.high_res_bits = 3;
  spec.num_high_res_paths = std::min(4, spec.code.num_states());
  spec.normalization_terms = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// Flat trellis view vs the array-of-structs predecessor view.

void expect_flat_view_matches(const CodeSpec& code) {
  const Trellis trellis(code);
  const auto states = static_cast<std::uint32_t>(trellis.num_states());
  const auto pred_states = trellis.pred_states();
  const auto pred_symbols = trellis.pred_symbols();
  const auto pred_bits = trellis.pred_bits();
  ASSERT_EQ(pred_states.size(), 2u * states);
  ASSERT_EQ(pred_symbols.size(), 2u * states);
  ASSERT_EQ(pred_bits.size(), 2u * states);
  for (std::uint32_t s = 0; s < states; ++s) {
    const auto& preds = trellis.predecessors(s);
    for (std::size_t b = 0; b < 2; ++b) {
      const std::size_t flat = 2 * s + b;
      EXPECT_EQ(pred_states[flat], preds[b].from_state)
          << "state " << s << " branch " << b;
      EXPECT_EQ(pred_symbols[flat], preds[b].symbols)
          << "state " << s << " branch " << b;
      EXPECT_EQ(static_cast<int>(pred_bits[flat]), preds[b].input_bit)
          << "state " << s << " branch " << b;
    }
  }
}

TEST(FlatTrellis, MatchesPredecessorsOnEveryStateAndBranch) {
  for (int k : {3, 5, 7, 9}) {
    expect_flat_view_matches(best_rate_half_code(k));
  }
  // Rate 1/3: more symbols per step, different pattern-table width.
  expect_flat_view_matches(CodeSpec{5, {025, 033, 037}});
}

// ---------------------------------------------------------------------------
// Quantizer metric table vs the computed branch metric.

TEST(QuantizerMetricTable, MatchesBranchMetricForAllLevels) {
  const QuantizationMethod methods[] = {QuantizationMethod::Hard,
                                        QuantizationMethod::FixedSoft,
                                        QuantizationMethod::AdaptiveSoft};
  for (const auto method : methods) {
    for (int bits = 1; bits <= 8; ++bits) {
      const Quantizer q(method, bits, 1.0, 0.5);
      for (int expected = 0; expected < 2; ++expected) {
        const auto row = q.metric_table(expected);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(q.levels()));
        for (int level = 0; level < q.levels(); ++level) {
          EXPECT_EQ(row[static_cast<std::size_t>(level)],
                    q.branch_metric(level, expected))
              << to_string(method) << " bits=" << bits << " level=" << level
              << " expected=" << expected;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Step API vs block API bit-exactness.

struct KernelCase {
  DecoderKind kind;
  int k;
};

// gtest's default printer dumps the struct's bytes, padding included, and
// gtest_discover_tests names each ctest case after the printed parameter,
// so without this the names would change from one discovery to the next.
void PrintTo(const KernelCase& c, std::ostream* os) {
  *os << to_string(c.kind) << " K=" << c.k;
}

class KernelSweep : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelSweep, StepVsBlockBitExact) {
  const auto [kind, k] = GetParam();
  const DecoderSpec spec = make_spec(kind, k);
  const Trellis trellis(spec.code);
  double sigma = 0.5;
  const auto rx = noisy_stream(spec.code, 4'000, 1.0, 1234 + k, &sigma);
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());

  // Reference: the per-step virtual loop.
  auto step_dec = spec.make_decoder(trellis, 1.0, sigma);
  std::vector<int> step_bits;
  for (std::size_t i = 0; i < rx.size(); i += n) {
    if (auto bit = step_dec->step({rx.data() + i, n})) {
      step_bits.push_back(*bit);
    }
  }
  const auto step_tail = step_dec->flush();

  // One-shot block decode.
  auto block_dec = spec.make_decoder(trellis, 1.0, sigma);
  std::vector<int> block_bits(rx.size() / n);
  block_bits.resize(block_dec->decode_block(rx, block_bits));
  const auto block_tail = block_dec->flush();

  EXPECT_EQ(step_bits, block_bits);
  EXPECT_EQ(step_tail, block_tail);
}

TEST_P(KernelSweep, ChunkBoundariesNeverChangeTheStream) {
  const auto [kind, k] = GetParam();
  const DecoderSpec spec = make_spec(kind, k);
  const Trellis trellis(spec.code);
  double sigma = 0.5;
  const auto rx = noisy_stream(spec.code, 2'000, 1.0, 77 + k, &sigma);
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());
  const std::size_t total_steps = rx.size() / n;

  auto reference = spec.make_decoder(trellis, 1.0, sigma);
  std::vector<int> ref_bits(total_steps);
  ref_bits.resize(reference->decode_block(rx, ref_bits));

  // Uneven chunk sizes exercise survivor-ring wraparound across block
  // boundaries (including chunks smaller than the traceback window).
  for (const std::size_t chunk_steps : {std::size_t{1}, std::size_t{7},
                                        std::size_t{64}, std::size_t{1021}}) {
    auto chunked = spec.make_decoder(trellis, 1.0, sigma);
    std::vector<int> bits;
    std::vector<int> out(chunk_steps);
    for (std::size_t begin = 0; begin < total_steps; begin += chunk_steps) {
      const std::size_t steps = std::min(chunk_steps, total_steps - begin);
      const std::size_t got =
          chunked->decode_block({rx.data() + begin * n, steps * n},
                                {out.data(), steps});
      bits.insert(bits.end(), out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(got));
    }
    EXPECT_EQ(bits, ref_bits) << "chunk=" << chunk_steps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndConstraintLengths, KernelSweep,
    ::testing::Values(KernelCase{DecoderKind::Hard, 3},
                      KernelCase{DecoderKind::Hard, 5},
                      KernelCase{DecoderKind::Hard, 7},
                      KernelCase{DecoderKind::Hard, 9},
                      KernelCase{DecoderKind::Soft, 3},
                      KernelCase{DecoderKind::Soft, 5},
                      KernelCase{DecoderKind::Soft, 7},
                      KernelCase{DecoderKind::Soft, 9},
                      KernelCase{DecoderKind::Multires, 3},
                      KernelCase{DecoderKind::Multires, 5},
                      KernelCase{DecoderKind::Multires, 7},
                      KernelCase{DecoderKind::Multires, 9}));

TEST(DecodeBlock, RejectsBadSpans) {
  const DecoderSpec spec = make_spec(DecoderKind::Soft, 5);
  const Trellis trellis(spec.code);
  auto decoder = spec.make_decoder(trellis, 1.0, 0.5);
  std::vector<double> odd(3, 0.0);   // not a multiple of n = 2
  std::vector<double> rx(8, 0.0);    // 4 trellis steps
  std::vector<int> small(3);         // too small for 4 steps
  std::vector<int> out(4);
  EXPECT_THROW(decoder->decode_block(odd, out), std::invalid_argument);
  EXPECT_THROW(decoder->decode_block(rx, small), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Renormalization: the block kernel tracks the running minimum inside the
// ACS loop; step() keeps the reference min_element scan. Both must agree
// over streams long enough to cross a (lowered) normalization threshold
// many times — and for the integer-metric ViterbiDecoder, renormalizing
// must not change the decoded stream at all.

TEST(Renormalization, InLoopMinimumMatchesMinElementOverLongStream) {
  const CodeSpec code = best_rate_half_code(5);
  const Trellis trellis(code);
  constexpr std::size_t kBits = 1'100'000;  // > 10^6 trellis steps
  double sigma = 0.5;
  const auto rx = noisy_stream(code, kBits, 0.0, 99, &sigma);
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());
  // Low threshold so the stream crosses it many times; metrics sit near the
  // threshold (within one step's branch metric) whenever renorm fires.
  constexpr std::int64_t kTestThreshold = std::int64_t{1} << 14;

  ViterbiDecoder step_dec(trellis, 25,
                          Quantizer(QuantizationMethod::AdaptiveSoft, 3, 1.0,
                                    sigma));
  step_dec.set_normalize_threshold_for_test(kTestThreshold);
  std::vector<int> step_bits;
  step_bits.reserve(kBits);
  for (std::size_t i = 0; i < rx.size(); i += n) {
    if (auto bit = step_dec.step({rx.data() + i, n})) {
      step_bits.push_back(*bit);
    }
  }

  ViterbiDecoder block_dec(trellis, 25,
                           Quantizer(QuantizationMethod::AdaptiveSoft, 3, 1.0,
                                     sigma));
  block_dec.set_normalize_threshold_for_test(kTestThreshold);
  std::vector<int> block_bits(kBits);
  block_bits.resize(block_dec.decode_block(rx, block_bits));

  // The renorm path genuinely ran, many times, in both drivers.
  EXPECT_GT(step_dec.normalizations(), 50);
  EXPECT_EQ(step_dec.normalizations(), block_dec.normalizations());
  EXPECT_EQ(step_bits, block_bits);
  EXPECT_EQ(step_dec.flush(), block_dec.flush());
}

TEST(Renormalization, IntegerRenormIsDecodedStreamInvariant) {
  // Integer metrics shift exactly, so a decoder renormalizing every few
  // thousand steps must emit the same bits as one that never renormalizes.
  const CodeSpec code = best_rate_half_code(5);
  const Trellis trellis(code);
  constexpr std::size_t kBits = 200'000;
  double sigma = 0.5;
  const auto rx = noisy_stream(code, kBits, 0.0, 7, &sigma);
  const Quantizer quantizer(QuantizationMethod::AdaptiveSoft, 3, 1.0, sigma);

  ViterbiDecoder production(trellis, 25, quantizer);  // never renormalizes here
  std::vector<int> production_bits(kBits);
  production_bits.resize(production.decode_block(rx, production_bits));
  EXPECT_EQ(production.normalizations(), 0);

  ViterbiDecoder renorming(trellis, 25, quantizer);
  renorming.set_normalize_threshold_for_test(std::int64_t{1} << 13);
  std::vector<int> renormed_bits(kBits);
  renormed_bits.resize(renorming.decode_block(rx, renormed_bits));
  EXPECT_GT(renorming.normalizations(), 10);
  EXPECT_EQ(production_bits, renormed_bits);
}

TEST(Renormalization, MultiresStepAndBlockAgreeAcrossRenorms) {
  const DecoderSpec spec = make_spec(DecoderKind::Multires, 5);
  const Trellis trellis(spec.code);
  constexpr std::size_t kBits = 120'000;
  double sigma = 0.5;
  const auto rx = noisy_stream(spec.code, kBits, 0.0, 13, &sigma);
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());

  MultiresConfig config{spec.traceback_depth, spec.low_res_bits,
                        spec.high_res_bits, spec.quantization,
                        spec.num_high_res_paths, spec.normalization_terms};
  MultiresViterbiDecoder step_dec(trellis, config, 1.0, sigma);
  step_dec.set_normalize_threshold_for_test(5e3);
  std::vector<int> step_bits;
  step_bits.reserve(kBits);
  for (std::size_t i = 0; i < rx.size(); i += n) {
    if (auto bit = step_dec.step({rx.data() + i, n})) {
      step_bits.push_back(*bit);
    }
  }

  MultiresViterbiDecoder block_dec(trellis, config, 1.0, sigma);
  block_dec.set_normalize_threshold_for_test(5e3);
  std::vector<int> block_bits(kBits);
  block_bits.resize(block_dec.decode_block(rx, block_bits));

  EXPECT_GT(step_dec.normalizations(), 5);
  EXPECT_EQ(step_dec.normalizations(), block_dec.normalizations());
  EXPECT_EQ(step_bits, block_bits);
}

// ---------------------------------------------------------------------------
// Golden measure_ber values captured from the pre-kernel (per-step,
// allocating) pipeline. The batched allocation-free pipeline must reproduce
// every (successes, trials) pair bit-for-bit, for every decoder kind, shard
// count, and thread count. Three multires rows (K=5 shards=8, K=9 shards=1,
// K=9 shards=8) were re-recorded when the M best paths became the M
// smallest (metric, state) pairs: these are the values the earlier
// partial_sort gives once its comparator breaks metric ties by state.

struct GoldenBer {
  DecoderKind kind;
  int k;
  int shards;
  std::uint64_t plain_successes;    // max 20k bits, min 10k, 2k errors
  std::uint64_t plain_trials;
  std::uint64_t decided_successes;  // decision_ber = 1e-2 stopping rule
  std::uint64_t decided_trials;
};

constexpr GoldenBer kGolden[] = {
    {DecoderKind::Hard, 3, 1, 80ull, 20000ull, 34ull, 8192ull},
    {DecoderKind::Hard, 3, 8, 63ull, 20000ull, 197ull, 65536ull},
    {DecoderKind::Hard, 5, 1, 38ull, 20000ull, 27ull, 8192ull},
    {DecoderKind::Hard, 5, 8, 31ull, 20000ull, 74ull, 65536ull},
    {DecoderKind::Hard, 7, 1, 35ull, 20000ull, 18ull, 8192ull},
    {DecoderKind::Hard, 7, 8, 12ull, 20000ull, 34ull, 65536ull},
    {DecoderKind::Hard, 9, 1, 3ull, 20000ull, 3ull, 8192ull},
    {DecoderKind::Hard, 9, 8, 0ull, 20000ull, 13ull, 65536ull},
    {DecoderKind::Soft, 3, 1, 0ull, 20000ull, 0ull, 8192ull},
    {DecoderKind::Soft, 3, 8, 2ull, 20000ull, 8ull, 65536ull},
    {DecoderKind::Soft, 5, 1, 0ull, 20000ull, 0ull, 8192ull},
    {DecoderKind::Soft, 5, 8, 0ull, 20000ull, 0ull, 65536ull},
    {DecoderKind::Soft, 7, 1, 0ull, 20000ull, 0ull, 8192ull},
    {DecoderKind::Soft, 7, 8, 0ull, 20000ull, 0ull, 65536ull},
    {DecoderKind::Soft, 9, 1, 0ull, 20000ull, 0ull, 8192ull},
    {DecoderKind::Soft, 9, 8, 0ull, 20000ull, 0ull, 65536ull},
    {DecoderKind::Multires, 3, 1, 8ull, 20000ull, 4ull, 8192ull},
    {DecoderKind::Multires, 3, 8, 24ull, 20000ull, 62ull, 65536ull},
    {DecoderKind::Multires, 5, 1, 11ull, 20000ull, 0ull, 8192ull},
    {DecoderKind::Multires, 5, 8, 5ull, 20000ull, 12ull, 65536ull},
    {DecoderKind::Multires, 7, 1, 0ull, 20000ull, 0ull, 8192ull},
    {DecoderKind::Multires, 7, 8, 3ull, 20000ull, 6ull, 65536ull},
    {DecoderKind::Multires, 9, 1, 3ull, 20000ull, 3ull, 8192ull},
    {DecoderKind::Multires, 9, 8, 0ull, 20000ull, 2ull, 65536ull},
};

/// Restores the configured global pool size on scope exit.
class ThreadGuard {
 public:
  ThreadGuard() = default;
  ~ThreadGuard() {
    exec::ThreadPool::set_global_threads(
        exec::ThreadPool::configured_threads());
  }
};

void expect_golden(const GoldenBer& golden) {
  DecoderSpec spec = make_spec(golden.kind, golden.k);

  BerRunConfig cfg;
  cfg.max_bits = 20'000;
  cfg.min_bits = 10'000;
  cfg.max_errors = 2'000;
  cfg.shards = golden.shards;
  const auto plain = measure_ber(spec, 2.0, cfg);
  EXPECT_EQ(plain.errors.successes, golden.plain_successes)
      << to_string(golden.kind) << " K=" << golden.k
      << " shards=" << golden.shards;
  EXPECT_EQ(plain.errors.trials, golden.plain_trials)
      << to_string(golden.kind) << " K=" << golden.k
      << " shards=" << golden.shards;

  BerRunConfig dcfg;
  dcfg.max_bits = 100'000;
  dcfg.min_bits = 8'192;
  dcfg.max_errors = 1u << 30;
  dcfg.decision_ber = 1e-2;
  dcfg.shards = golden.shards;
  const auto decided = measure_ber(spec, 2.0, dcfg);
  EXPECT_EQ(decided.errors.successes, golden.decided_successes)
      << to_string(golden.kind) << " K=" << golden.k
      << " shards=" << golden.shards;
  EXPECT_EQ(decided.errors.trials, golden.decided_trials)
      << to_string(golden.kind) << " K=" << golden.k
      << " shards=" << golden.shards;
}

TEST(MeasureBerGolden, MatchesPreKernelPipelineSingleThread) {
  ThreadGuard guard;
  exec::ThreadPool::set_global_threads(1);
  for (const auto& golden : kGolden) expect_golden(golden);
}

TEST(MeasureBerGolden, MatchesPreKernelPipelineTwoThreads) {
  ThreadGuard guard;
  exec::ThreadPool::set_global_threads(2);
  for (const auto& golden : kGolden) expect_golden(golden);
}

TEST(MeasureBerGolden, MatchesPreKernelPipelineEightThreads) {
  ThreadGuard guard;
  exec::ThreadPool::set_global_threads(8);
  for (const auto& golden : kGolden) expect_golden(golden);
}

// ---------------------------------------------------------------------------
// ISA dispatch matrix: every compiled-and-available kernel tier must be
// bit-identical to the scalar reference — decoded streams, flush tails,
// renormalization counts, survivor-window bytes, accumulated errors, and
// golden measure_ber values — for every decoder kind, constraint length,
// and chunk size.

/// Restores the dispatched ISA on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::dispatched_isa()) {}
  ~IsaGuard() { simd::force_isa(saved_); }

 private:
  simd::Isa saved_;
};

std::vector<simd::Isa> available_isas() {
  std::vector<simd::Isa> isas;
  for (const auto isa : {simd::Isa::Scalar, simd::Isa::Sse4, simd::Isa::Avx2,
                         simd::Isa::Avx512}) {
    if (simd::isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndForceRoundTrips) {
  EXPECT_TRUE(simd::isa_compiled(simd::Isa::Scalar));
  EXPECT_TRUE(simd::isa_available(simd::Isa::Scalar));
  IsaGuard guard;
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    EXPECT_EQ(simd::dispatched_isa(), isa);
    EXPECT_NE(simd::viterbi_acs(), nullptr);
    EXPECT_NE(simd::multires_acs(), nullptr);
    EXPECT_NE(simd::quantize_block(), nullptr);
    // The per-tier accessors agree with the dispatched ones.
    EXPECT_EQ(simd::viterbi_acs(), simd::viterbi_acs(isa));
    EXPECT_EQ(simd::multires_acs(), simd::multires_acs(isa));
    EXPECT_EQ(simd::quantize_block(), simd::quantize_block(isa));
  }
}

TEST(SimdDispatch, UnavailableTiersThrow) {
  IsaGuard guard;
  for (const auto isa :
       {simd::Isa::Sse4, simd::Isa::Avx2, simd::Isa::Avx512}) {
    if (simd::isa_available(isa)) continue;
    EXPECT_THROW(simd::force_isa(isa), std::runtime_error);
    EXPECT_THROW(simd::viterbi_acs(isa), std::runtime_error);
  }
}

TEST(SimdQuantize, BlockMatchesPerSampleOnEveryTier) {
  IsaGuard guard;
  const QuantizationMethod methods[] = {QuantizationMethod::Hard,
                                        QuantizationMethod::FixedSoft,
                                        QuantizationMethod::AdaptiveSoft};
  util::Random rng(4242);
  for (const auto method : methods) {
    for (int bits : {1, 3, 8}) {
      const Quantizer q(method, bits, 1.0, 0.5);
      // Random samples plus saturation and threshold-straddling edges, NaNs
      // (both land on the top level), infinities and -0.0; the odd count
      // leaves a partial chunk at every vector width.
      const double inf = std::numeric_limits<double>::infinity();
      const double nan = std::numeric_limits<double>::quiet_NaN();
      std::vector<double> rx;
      for (int i = 0; i < 1001; ++i) rx.push_back(rng.normal(0.0, 2.0));
      rx.insert(rx.end(), {-1e9, 1e9, -1.0, 1.0, 0.0, -1e-9, 1e-9});
      rx.insert(rx.end(), {nan, -nan, inf, -inf, -0.0});
      std::vector<int> expected(rx.size());
      for (std::size_t i = 0; i < rx.size(); ++i) {
        expected[i] = q.quantize(rx[i]);
      }
      for (const auto isa : available_isas()) {
        simd::force_isa(isa);
        std::vector<int> out(rx.size(), -1);
        q.quantize_block(rx, out);
        EXPECT_EQ(out, expected)
            << to_string(method) << " bits=" << bits << " isa="
            << simd::to_string(isa);
      }
    }
  }
}

/// Everything the raw kernels write for one set of lane-major inputs.
struct RawKernelOutputs {
  std::vector<std::int32_t> next;
  std::vector<double> next_d, winning;
  std::vector<std::uint8_t> surv, surv_d;
  std::vector<std::int32_t> best_metric;
  std::vector<std::uint32_t> best_state;
  std::int32_t step_metric = 0;
  std::uint32_t step_state = 0;

  bool operator==(const RawKernelOutputs&) const = default;
};

TEST(RawKernels, EveryTierMatchesScalarOnTieHeavyInputs) {
  // Metrics drawn from {0, 1, 2} make compare ties and repeated minima
  // common; lanes 1-16 walk every lane-chunk split of every tier.
  util::Random rng(2024);
  for (const int k : {5, 7, 9}) {  // 16, 64 and 256 states
    const Trellis trellis(best_rate_half_code(k));
    const auto states = static_cast<std::size_t>(trellis.num_states());
    const std::size_t patterns = std::size_t{1}
                                 << trellis.symbols_per_step();
    const auto pred_state = trellis.pred_states().data();
    const auto pred_symbols = trellis.pred_symbols().data();
    for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
      std::vector<std::int32_t> acc(states * lanes), metric(patterns * lanes);
      std::vector<double> acc_d(states * lanes), metric_d(patterns * lanes);
      for (auto& v : acc) v = static_cast<std::int32_t>(rng.uniform_index(3));
      for (auto& v : metric) {
        v = static_cast<std::int32_t>(rng.uniform_index(3));
      }
      for (auto& v : acc_d) v = 0.5 * static_cast<double>(rng.uniform_index(3));
      for (auto& v : metric_d) {
        v = 0.5 * static_cast<double>(rng.uniform_index(3));
      }
      const auto run = [&](simd::Isa isa) {
        RawKernelOutputs o;
        o.next.resize(states * lanes);
        o.next_d.resize(states * lanes);
        o.winning.resize(states * lanes);
        o.surv.resize(states * lanes);
        o.surv_d.resize(states * lanes);
        o.best_metric.resize(lanes);
        o.best_state.resize(lanes);
        simd::frame_viterbi_acs(isa)(acc.data(), o.next.data(), pred_state,
                                     pred_symbols, metric.data(),
                                     o.surv.data(), states, lanes,
                                     o.best_metric.data(),
                                     o.best_state.data());
        simd::frame_multires_acs(isa)(acc_d.data(), o.next_d.data(),
                                      pred_state, pred_symbols,
                                      metric_d.data(), o.surv_d.data(),
                                      o.winning.data(), states, lanes);
        // With one lane the frame layout is the state-parallel layout, so
        // the state-parallel kernels take the same inputs and must write the
        // same outputs.
        if (lanes == 1) {
          std::vector<std::uint8_t> surv(states), surv_d(states);
          std::vector<std::int32_t> next(states);
          std::vector<double> next_d(states), winning(states);
          const simd::AcsStepResult step = simd::viterbi_acs(isa)(
              acc.data(), next.data(), pred_state, pred_symbols, metric.data(),
              surv.data(), states);
          o.step_metric = step.best_metric;
          o.step_state = step.best_state;
          simd::multires_acs(isa)(acc_d.data(), next_d.data(), pred_state,
                                  pred_symbols, metric_d.data(),
                                  surv_d.data(), winning.data(), states);
          EXPECT_EQ(next, o.next);
          EXPECT_EQ(surv, o.surv);
          EXPECT_EQ(surv_d, o.surv_d);
          EXPECT_EQ(next_d, o.next_d);
          EXPECT_EQ(winning, o.winning);
        }
        return o;
      };
      const RawKernelOutputs reference = run(simd::Isa::Scalar);
      for (const auto isa : available_isas()) {
        EXPECT_TRUE(run(isa) == reference)
            << simd::to_string(isa) << " K=" << k << " lanes=" << lanes;
      }
    }
  }
}

/// Everything observable from one decode run, compared across ISA tiers.
struct DecodeTrace {
  std::vector<int> bits;
  std::vector<int> tail;
  std::int64_t normalizations = 0;
  std::vector<std::uint8_t> survivors;
  std::vector<double> accumulated;
};

/// Decodes `rx` under the currently forced ISA with mixed chunk sizes (one
/// big block, then 7- and 1021-step chunks) so kernel entry points are hit
/// with every alignment and tail shape.
DecodeTrace run_decode_trace(const DecoderSpec& spec, const Trellis& trellis,
                             std::span<const double> rx, double sigma) {
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());
  const std::size_t total_steps = rx.size() / n;
  DecodeTrace trace;
  auto decode_chunks = [&](auto& decoder) {
    std::size_t begin = 0;
    std::size_t which = 0;
    const std::size_t chunk_sizes[] = {total_steps / 2, 7, 1021};
    std::vector<int> out(total_steps);
    while (begin < total_steps) {
      const std::size_t chunk = std::min(
          std::max<std::size_t>(chunk_sizes[which % 3], 1), total_steps - begin);
      const std::size_t got = decoder.decode_block(
          {rx.data() + begin * n, chunk * n}, {out.data(), chunk});
      trace.bits.insert(trace.bits.end(), out.begin(),
                        out.begin() + static_cast<std::ptrdiff_t>(got));
      begin += chunk;
      ++which;
    }
    trace.tail = decoder.flush();
    trace.normalizations = decoder.normalizations();
    const auto window = decoder.survivor_window_for_test();
    trace.survivors.assign(window.begin(), window.end());
    for (const auto a : decoder.accumulated_errors()) {
      trace.accumulated.push_back(static_cast<double>(a));
    }
  };
  if (spec.kind == DecoderKind::Multires) {
    MultiresConfig config{spec.traceback_depth, spec.low_res_bits,
                          spec.high_res_bits, spec.quantization,
                          spec.num_high_res_paths, spec.normalization_terms};
    MultiresViterbiDecoder decoder(trellis, config, 1.0, sigma);
    decoder.set_normalize_threshold_for_test(5e3);
    decode_chunks(decoder);
  } else {
    const Quantizer quantizer(
        spec.kind == DecoderKind::Hard ? QuantizationMethod::Hard
                                       : spec.quantization,
        spec.kind == DecoderKind::Hard ? 1 : spec.high_res_bits, 1.0, sigma);
    // Low enough that even the slow-growing 1-bit hard metrics renormalize
    // many times over the test stream.
    ViterbiDecoder decoder(trellis, spec.traceback_depth, quantizer);
    decoder.set_normalize_threshold_for_test(std::int64_t{1} << 8);
    decode_chunks(decoder);
  }
  return trace;
}

class IsaMatrix : public ::testing::TestWithParam<KernelCase> {};

TEST_P(IsaMatrix, EveryTierBitIdenticalToScalar) {
  const auto [kind, k] = GetParam();
  const DecoderSpec spec = make_spec(kind, k);
  const Trellis trellis(spec.code);
  double sigma = 0.5;
  // Long enough that the lowered renormalization thresholds fire many times.
  const auto rx = noisy_stream(spec.code, 60'000, 0.5, 4321 + k, &sigma);

  IsaGuard guard;
  simd::force_isa(simd::Isa::Scalar);
  const DecodeTrace reference = run_decode_trace(spec, trellis, rx, sigma);
  EXPECT_GT(reference.normalizations, 0);

  for (const auto isa : available_isas()) {
    if (isa == simd::Isa::Scalar) continue;
    simd::force_isa(isa);
    const DecodeTrace trace = run_decode_trace(spec, trellis, rx, sigma);
    const std::string label = simd::to_string(isa);
    EXPECT_EQ(trace.bits, reference.bits) << label;
    EXPECT_EQ(trace.tail, reference.tail) << label;
    EXPECT_EQ(trace.normalizations, reference.normalizations) << label;
    EXPECT_EQ(trace.survivors, reference.survivors) << label;
    EXPECT_EQ(trace.accumulated, reference.accumulated) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndConstraintLengths, IsaMatrix,
    ::testing::Values(KernelCase{DecoderKind::Hard, 3},
                      KernelCase{DecoderKind::Hard, 5},
                      KernelCase{DecoderKind::Hard, 7},
                      KernelCase{DecoderKind::Hard, 9},
                      KernelCase{DecoderKind::Soft, 3},
                      KernelCase{DecoderKind::Soft, 5},
                      KernelCase{DecoderKind::Soft, 7},
                      KernelCase{DecoderKind::Soft, 9},
                      KernelCase{DecoderKind::Multires, 3},
                      KernelCase{DecoderKind::Multires, 5},
                      KernelCase{DecoderKind::Multires, 7},
                      KernelCase{DecoderKind::Multires, 9}));

TEST(IsaMatrix, GoldenBerIdenticalOnEveryTier) {
  ThreadGuard thread_guard;
  exec::ThreadPool::set_global_threads(2);
  IsaGuard isa_guard;
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    for (const auto& golden : kGolden) expect_golden(golden);
  }
}

// ---------------------------------------------------------------------------
// int32 path-metric overflow bound (the class comment of ViterbiDecoder):
// with renormalization at threshold T and per-step branch-metric bound
// B = n * (2^bits - 1), every post-merge metric stays below T + (K+1)*B.
// A lowered threshold over a long stream crosses the renorm path thousands
// of times; the bound must hold after every chunk on every ISA tier.

TEST(Int32Overflow, LoweredThresholdLongStreamStaysWithinBound) {
  const int k = 7;
  const CodeSpec code = best_rate_half_code(k);
  const Trellis trellis(code);
  constexpr std::size_t kBits = 300'000;
  double sigma = 0.5;
  const auto rx = noisy_stream(code, kBits, 0.0, 31, &sigma);
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());
  const std::size_t total_steps = rx.size() / n;

  constexpr std::int64_t kThreshold = std::int64_t{1} << 14;
  const Quantizer quantizer(QuantizationMethod::AdaptiveSoft, 3, 1.0, sigma);
  const std::int64_t per_step_bound =
      static_cast<std::int64_t>(n) * quantizer.max_level();
  const std::int64_t metric_bound = kThreshold + (k + 1) * per_step_bound;

  IsaGuard guard;
  std::vector<int> reference_bits;
  std::int64_t reference_norms = 0;
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    ViterbiDecoder decoder(trellis, 5 * k, quantizer);
    decoder.set_normalize_threshold_for_test(kThreshold);
    std::vector<int> bits;
    std::vector<int> out(1021);
    for (std::size_t begin = 0; begin < total_steps; begin += 1021) {
      const std::size_t steps = std::min<std::size_t>(1021, total_steps - begin);
      const std::size_t got = decoder.decode_block(
          {rx.data() + begin * n, steps * n}, {out.data(), steps});
      bits.insert(bits.end(), out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(got));
      // The overflow-bound invariant, checked at every chunk boundary.
      for (const auto metric : decoder.accumulated_errors()) {
        ASSERT_LE(metric, metric_bound) << simd::to_string(isa);
        ASSERT_GE(metric, 0) << simd::to_string(isa);
      }
    }
    EXPECT_GT(decoder.normalizations(), 10) << simd::to_string(isa);
    if (isa == simd::Isa::Scalar) {
      reference_bits = bits;
      reference_norms = decoder.normalizations();
    } else {
      EXPECT_EQ(bits, reference_bits) << simd::to_string(isa);
      EXPECT_EQ(decoder.normalizations(), reference_norms)
          << simd::to_string(isa);
    }
  }
}

}  // namespace
}  // namespace metacore::comm
