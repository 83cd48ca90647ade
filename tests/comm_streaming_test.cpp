// Streaming-interface properties shared by every decoder: step-by-step
// decoding matches batch decoding, pipeline delays, and flush semantics.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "comm/ber.hpp"
#include "comm/channel.hpp"
#include "comm/multires_viterbi.hpp"
#include "comm/viterbi.hpp"
#include "util/rng.hpp"

namespace metacore::comm {
namespace {

struct StreamCase {
  DecoderKind kind;
  int k;
};

// gtest's default printer dumps the struct's bytes, padding included, and
// gtest_discover_tests names each ctest case after the printed parameter,
// so without this the names would change from one discovery to the next.
void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << to_string(c.kind) << " K=" << c.k;
}

class StreamingSweep : public ::testing::TestWithParam<StreamCase> {};

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

TEST_P(StreamingSweep, StepwiseMatchesBatch) {
  const auto [kind, k] = GetParam();
  DecoderSpec spec;
  spec.code = best_rate_half_code(k);
  spec.traceback_depth = 5 * k;
  spec.kind = kind;
  spec.low_res_bits = 1;
  spec.high_res_bits = 3;
  spec.num_high_res_paths = std::min(4, spec.code.num_states());
  const Trellis trellis(spec.code);

  double sigma = 0.5;
  const auto rx = noisy_stream(spec.code, 700, 2.0, 31, &sigma);

  auto batch = spec.make_decoder(trellis, 1.0, sigma);
  const auto batch_out = batch->decode(rx);

  auto stream = spec.make_decoder(trellis, 1.0, sigma);
  std::vector<int> stream_out;
  for (std::size_t i = 0; i < rx.size(); i += 2) {
    if (auto bit = stream->step({rx.data() + i, 2})) {
      stream_out.push_back(*bit);
    }
  }
  for (int bit : stream->flush()) stream_out.push_back(bit);
  EXPECT_EQ(batch_out, stream_out);
}

TEST_P(StreamingSweep, PipelineDelayIsTracebackDepth) {
  const auto [kind, k] = GetParam();
  DecoderSpec spec;
  spec.code = best_rate_half_code(k);
  spec.traceback_depth = 4 * k;
  spec.kind = kind;
  spec.low_res_bits = 1;
  spec.high_res_bits = 3;
  spec.num_high_res_paths = std::min(4, spec.code.num_states());
  const Trellis trellis(spec.code);
  auto decoder = spec.make_decoder(trellis, 1.0, 0.5);

  double sigma = 0.5;
  const auto rx = noisy_stream(spec.code, 200, 6.0, 77, &sigma);
  int emitted = 0;
  int steps = 0;
  for (std::size_t i = 0; i < rx.size(); i += 2) {
    ++steps;
    if (decoder->step({rx.data() + i, 2})) {
      ++emitted;
      if (emitted == 1) {
        // First bit emerges exactly after L trellis steps.
        EXPECT_EQ(steps, spec.traceback_depth);
      }
    }
  }
  EXPECT_EQ(emitted, steps - spec.traceback_depth + 1);
  EXPECT_EQ(decoder->flush().size(),
            static_cast<std::size_t>(spec.traceback_depth - 1));
}

TEST_P(StreamingSweep, DecodeOutputLengthMatchesInput) {
  const auto [kind, k] = GetParam();
  DecoderSpec spec;
  spec.code = best_rate_half_code(k);
  spec.traceback_depth = 3 * k;
  spec.kind = kind;
  spec.low_res_bits = 1;
  spec.high_res_bits = 3;
  spec.num_high_res_paths = std::min(4, spec.code.num_states());
  const Trellis trellis(spec.code);
  auto decoder = spec.make_decoder(trellis, 1.0, 0.5);
  double sigma = 0.5;
  for (std::size_t bits : {1ul, 5ul, 37ul, 200ul}) {
    decoder->reset();
    const auto rx = noisy_stream(spec.code, bits, 6.0, bits, &sigma);
    EXPECT_EQ(decoder->decode(rx).size(), bits) << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDecoders, StreamingSweep,
    ::testing::Values(StreamCase{DecoderKind::Hard, 3},
                      StreamCase{DecoderKind::Hard, 7},
                      StreamCase{DecoderKind::Soft, 5},
                      StreamCase{DecoderKind::Soft, 9},
                      StreamCase{DecoderKind::Multires, 3},
                      StreamCase{DecoderKind::Multires, 5},
                      StreamCase{DecoderKind::Multires, 7}));

}  // namespace
}  // namespace metacore::comm
