#include "comm/ber.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "comm/channel.hpp"
#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

namespace metacore::comm {

std::string to_string(DecoderKind kind) {
  switch (kind) {
    case DecoderKind::Hard:
      return "hard";
    case DecoderKind::Soft:
      return "soft";
    case DecoderKind::Multires:
      return "multires";
  }
  return "?";
}

std::unique_ptr<Decoder> DecoderSpec::make_decoder(const Trellis& trellis,
                                                   double amplitude,
                                                   double noise_sigma) const {
  switch (kind) {
    case DecoderKind::Hard:
      return make_hard_decoder(trellis, traceback_depth, amplitude,
                               noise_sigma);
    case DecoderKind::Soft:
      return make_soft_decoder(trellis, traceback_depth, high_res_bits,
                               quantization, amplitude, noise_sigma);
    case DecoderKind::Multires: {
      MultiresConfig config{traceback_depth, low_res_bits, high_res_bits,
                            quantization, num_high_res_paths,
                            normalization_terms};
      return make_multires_decoder(trellis, config, amplitude, noise_sigma);
    }
  }
  throw std::logic_error("DecoderSpec::make_decoder: unknown kind");
}

namespace {

/// Lane counts below this decode faster as that many single-stream
/// decoders than through one lock-step frame kernel: on the AVX2 and
/// AVX-512 tiers a 2-lane kernel decodes hard and soft K=9 at 0.56-0.74x of
/// two sequential decodes, while from 4 lanes up the kernels are at least
/// even (EXPERIMENTS.md, lane table).
constexpr std::size_t kMinFrameKernelLanes = 4;

/// A narrow lane group as one single-stream decoder per lane, behind the
/// FrameDecoder interface. Each lane's state-parallel kernel runs on its
/// own, and decodes the same bits the lock-step kernel would.
/// Decoder::flush() is not const, but both concrete flush() methods only
/// read the survivor window, so the read-only FrameDecoder::flush contract
/// holds.
template <typename SingleStream>
class SingleStreamFrameDecoder final : public FrameDecoder {
 public:
  template <typename... Args>
  explicit SingleStreamFrameDecoder(std::size_t lanes, const Args&... args) {
    decoders_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) decoders_.emplace_back(args...);
  }

  std::size_t lanes() const override { return decoders_.size(); }
  std::size_t decode_chunk(const double* const* rx, std::size_t steps,
                           int* const* out) override {
    const auto n = static_cast<std::size_t>(trellis().symbols_per_step());
    std::size_t written = 0;
    for (std::size_t l = 0; l < decoders_.size(); ++l) {
      written = decoders_[l].decode_block({rx[l], steps * n}, {out[l], steps});
    }
    return written;
  }
  std::vector<int> flush(std::size_t lane) const override {
    return decoders_[lane].flush();
  }
  void reset() override {
    for (auto& decoder : decoders_) decoder.reset();
  }
  std::int64_t normalizations(std::size_t lane) const override {
    return decoders_[lane].normalizations();
  }
  const Trellis& trellis() const override {
    return decoders_.front().trellis();
  }

 private:
  mutable std::vector<SingleStream> decoders_;
};

}  // namespace

std::unique_ptr<FrameDecoder> DecoderSpec::make_frame_decoder(
    const Trellis& trellis, double amplitude, double noise_sigma,
    std::size_t lanes) const {
  if (lanes == 0) lanes = default_frame_lanes();
  switch (kind) {
    case DecoderKind::Hard:
    case DecoderKind::Soft: {
      const Quantizer quantizer =
          kind == DecoderKind::Hard
              ? Quantizer(QuantizationMethod::Hard, 1, amplitude, noise_sigma)
              : Quantizer(quantization, high_res_bits, amplitude,
                          noise_sigma);
      if (lanes < kMinFrameKernelLanes) {
        return std::make_unique<SingleStreamFrameDecoder<ViterbiDecoder>>(
            lanes, trellis, traceback_depth, quantizer);
      }
      return std::make_unique<FrameViterbiDecoder>(trellis, traceback_depth,
                                                   quantizer, lanes);
    }
    case DecoderKind::Multires: {
      MultiresConfig config{traceback_depth, low_res_bits, high_res_bits,
                            quantization, num_high_res_paths,
                            normalization_terms};
      if (lanes < kMinFrameKernelLanes) {
        return std::make_unique<
            SingleStreamFrameDecoder<MultiresViterbiDecoder>>(
            lanes, trellis, config, amplitude, noise_sigma);
      }
      return std::make_unique<FrameMultiresDecoder>(trellis, config, amplitude,
                                                    noise_sigma, lanes);
    }
  }
  throw std::logic_error("DecoderSpec::make_frame_decoder: unknown kind");
}

std::string DecoderSpec::label() const {
  std::string out = to_string(kind);
  out += " K=" + std::to_string(code.constraint_length);
  out += " L=" + std::to_string(traceback_depth);
  if (kind == DecoderKind::Soft) {
    out += " R=" + std::to_string(high_res_bits);
  } else if (kind == DecoderKind::Multires) {
    out += " R1=" + std::to_string(low_res_bits);
    out += " R2=" + std::to_string(high_res_bits);
    out += " M=" + std::to_string(num_high_res_paths);
    out += " N=" + std::to_string(normalization_terms);
  }
  if (kind != DecoderKind::Hard) {
    out += " Q=";
    out += quantization == QuantizationMethod::AdaptiveSoft ? "A" : "F";
  }
  return out;
}

namespace {

/// Counted decoded bits across every BER stream in the process (the
/// benchmark harnesses read it to turn search wall time into a decode
/// throughput figure). Relaxed: it is a statistics counter, never a
/// synchronization point — no code may use it to establish happens-before.
/// Diff exactness for the benchmark harnesses comes from thread-pool join,
/// not from the counter's ordering: measure_ber returns only after its
/// shard tasks complete, and that completion handshake is an
/// acquire/release edge that publishes every relaxed increment made by the
/// shards. See ber_decoded_bits_total() in ber.hpp.
std::atomic<std::uint64_t> g_decoded_bits{0};

/// Trellis steps per decode_chunk call. Large enough to amortize the
/// per-chunk virtual dispatch and buffer bookkeeping, small enough that a
/// run overshooting its stopping point wastes little work (generated bits
/// past the stop are transmitted but never counted, so the estimate is
/// unaffected — shard RNG streams are independent by construction).
constexpr std::size_t kChunkBits = 1024;

/// One continuous encode -> AWGN -> decode stream: its own RNG state, delay
/// line, error counters and early-stopping bookkeeping.
///
/// The decoder runs uninterrupted over the whole simulation, so there are
/// no block-boundary traceback artifacts: each decoded bit emerges L steps
/// after its symbols and is compared against the matching transmitted bit
/// through the delay line. The last L-1 bits of the stream are not counted.
struct LaneStream {
  AwgnChannel channel;
  util::Random data_rng;
  ConvolutionalEncoder encoder;
  std::vector<int> pending;  ///< transmitted bits awaiting their decode
  std::size_t pending_head = 0;
  util::ProportionEstimate errors;
  std::uint64_t next_decision_check;
  bool stopped = false;

  LaneStream(const DecoderSpec& spec, double esn0_db, double amplitude,
             std::uint64_t seed, std::uint64_t min_bits)
      : channel(esn0_db, amplitude * amplitude, seed),
        data_rng(seed ^ 0xDA7A'B175ULL),
        encoder(spec.code),
        next_decision_check(std::max<std::uint64_t>(min_bits, 8'192)) {
    pending.reserve(kChunkBits + 16'384);
  }

  /// The stopping rule, asked before each chunk is generated and before
  /// each decoded bit is counted: stop at max_bits, or once max_errors
  /// errors are seen past min_bits, or (when decision_ber is set) once the
  /// Wilson interval, tested every 8,192 bits, confidently separates from
  /// the threshold either way. Latches `stopped`. Asking again at an
  /// unchanged trial count returns the same answer, so the extra question
  /// before a chunk never moves the stopping point.
  bool wants_more(const BerRunConfig& config) {
    if (stopped) return false;
    stopped = errors.trials >= config.max_bits ||
              (errors.trials >= config.min_bits &&
               errors.successes >= config.max_errors);
    if (!stopped && config.decision_ber > 0.0 &&
        errors.trials >= next_decision_check) {
      const auto interval = errors.wilson();
      stopped = interval.high < config.decision_ber / 1.5 ||
                interval.low > config.decision_ber * 1.5;
      next_decision_check += 8'192;
    }
    return !stopped;
  }
};

/// Decodes |seeds| independent streams through ONE FrameDecoder, one
/// stream per lane, in lock-step kChunkBits chunks with every buffer
/// preallocated (the steady-state loop performs no allocation and one
/// virtual call per chunk). A stream's RNG draws, decoded bits and stopping
/// point depend only on its seed and `config`, never on the lane count, so
/// the estimates are bit-identical at every grouping and the goldens hold
/// at every lane count. A lane that stops generates nothing more (no
/// further RNG draws); it keeps decoding a shared zero buffer, which costs
/// nothing extra because the SIMD step is constant-width, and its counters
/// are frozen.
std::vector<util::ProportionEstimate> run_ber_streams(
    const DecoderSpec& spec, double esn0_db, const BerRunConfig& config,
    const std::vector<std::uint64_t>& seeds) {
  const Trellis trellis(spec.code);
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());
  constexpr double kAmplitude = 1.0;
  const std::size_t lanes = seeds.size();

  std::vector<LaneStream> streams;
  streams.reserve(lanes);
  for (const std::uint64_t seed : seeds) {
    streams.emplace_back(spec, esn0_db, kAmplitude, seed, config.min_bits);
  }
  auto decoder = spec.make_frame_decoder(
      trellis, kAmplitude, streams.front().channel.noise_sigma(), lanes);
  BpskModulator modulator(kAmplitude);

  std::vector<double> rx(lanes * kChunkBits * n);
  std::vector<double> zeros(kChunkBits * n, 0.0);
  std::vector<int> decoded(lanes * kChunkBits);
  std::vector<int> dump(kChunkBits);  // decode sink for stopped lanes
  std::vector<const double*> rx_ptrs(lanes);
  std::vector<int*> out_ptrs(lanes);
  std::vector<char> generated(lanes);

  while (true) {
    bool any_active = false;
    for (std::size_t l = 0; l < lanes; ++l) {
      LaneStream& st = streams[l];
      generated[l] = st.wants_more(config) ? 1 : 0;
      if (!generated[l]) {
        rx_ptrs[l] = zeros.data();
        out_ptrs[l] = dump.data();
        continue;
      }
      any_active = true;
      // Per-bit RNG order: one data bit, then n noise samples.
      double* lane_rx = rx.data() + l * kChunkBits * n;
      for (std::size_t i = 0; i < kChunkBits; ++i) {
        const int bit = st.data_rng.bit() ? 1 : 0;
        const std::uint32_t symbols = st.encoder.encode_bit(bit);
        for (std::size_t j = 0; j < n; ++j) {
          lane_rx[i * n + j] = st.channel.transmit(
              modulator.modulate(static_cast<int>((symbols >> j) & 1u)));
        }
        st.pending.push_back(bit);
      }
      rx_ptrs[l] = lane_rx;
      out_ptrs[l] = decoded.data() + l * kChunkBits;
    }
    if (!any_active) break;

    const std::size_t got =
        decoder->decode_chunk(rx_ptrs.data(), kChunkBits, out_ptrs.data());

    // Count decoded bits one at a time, asking the stopping rule before
    // each: a stream stops at exactly the (successes, trials) state a
    // per-bit loop would reach; the rest of its chunk is discarded.
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!generated[l]) continue;
      LaneStream& st = streams[l];
      const int* lane_decoded = decoded.data() + l * kChunkBits;
      for (std::size_t b = 0; b < got && st.wants_more(config); ++b) {
        st.errors.add(lane_decoded[b] != st.pending[st.pending_head++]);
      }
      // Keep the delay line compact on long runs; capacity is retained, so
      // the steady state stays allocation-free.
      if (st.pending_head > 8'192) {
        st.pending.erase(
            st.pending.begin(),
            st.pending.begin() + static_cast<std::ptrdiff_t>(st.pending_head));
        st.pending_head = 0;
      }
    }
  }

  std::vector<util::ProportionEstimate> out(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    g_decoded_bits.fetch_add(streams[l].errors.trials,
                             std::memory_order_relaxed);
    out[l] = streams[l].errors;
  }
  return out;
}

/// Ceiling division of a simulation budget across shards.
std::uint64_t shard_budget(std::uint64_t total, std::uint64_t shards) {
  return (total + shards - 1) / shards;
}

}  // namespace

std::uint64_t ber_decoded_bits_total() {
  return g_decoded_bits.load(std::memory_order_relaxed);
}

std::vector<std::vector<int>> decode_frames(
    const DecoderSpec& spec, const Trellis& trellis, double amplitude,
    double noise_sigma, std::span<const std::span<const double>> frames,
    std::size_t lanes) {
  const auto n = static_cast<std::size_t>(trellis.symbols_per_step());
  if (lanes == 0) lanes = default_frame_lanes();
  if (frames.empty()) return {};

  std::vector<std::size_t> frame_steps(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].size() % n != 0) {
      throw std::invalid_argument(
          "decode_frames: frame length not a multiple of symbols per step");
    }
    frame_steps[i] = frames[i].size() / n;
  }

  // Group similar-length frames into lane groups: stable sort by descending
  // step count, so each group of `lanes` frames wastes the least lock-step
  // work on its ragged tail. Stability keeps the grouping (and thus the
  // work schedule — never the results, which are per-frame exact) a pure
  // function of the input.
  std::vector<std::size_t> order(frames.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return frame_steps[a] > frame_steps[b];
                   });

  auto decoder = spec.make_frame_decoder(trellis, amplitude, noise_sigma,
                                         lanes);
  std::vector<std::vector<int>> result(frames.size());

  // A lane whose frame has ended keeps marching on shared zero samples (the
  // lock-step kernel is constant-width, so this is free); its decoded bits
  // go to a sink and its real output was captured by flush() at the
  // boundary. kSegmentSteps only bounds the zero/sink buffers — chunk
  // boundaries never affect decoded streams.
  constexpr std::size_t kSegmentSteps = 1024;
  const std::vector<double> zeros(kSegmentSteps * n, 0.0);
  std::vector<int> dump(kSegmentSteps);
  std::vector<const double*> rx_ptrs(lanes, zeros.data());
  std::vector<int*> out_ptrs(lanes, dump.data());

  for (std::size_t g = 0; g < order.size(); g += lanes) {
    const std::size_t group = std::min(lanes, order.size() - g);
    decoder->reset();
    const std::size_t max_steps = frame_steps[order[g]];  // sorted descending

    // Lock-step emission: every lane receives the same bit count, an upper
    // bound of max_steps; each frame's valid prefix is whatever had been
    // emitted when its own samples ran out.
    std::vector<std::vector<int>> bits(group);
    for (auto& b : bits) b.resize(max_steps);
    std::vector<char> ended(group, 0);
    std::size_t emitted = 0;
    std::size_t cur = 0;

    const auto finalize = [&](std::size_t j) {
      const std::size_t idx = order[g + j];
      auto& out = result[idx];
      out.assign(bits[j].begin(),
                 bits[j].begin() + static_cast<std::ptrdiff_t>(emitted));
      const std::vector<int> tail = decoder->flush(j);
      out.insert(out.end(), tail.begin(), tail.end());
      ended[j] = 1;
    };

    while (cur < max_steps) {
      // Capture every frame ending exactly here, then decode up to the next
      // frame boundary in bounded segments.
      for (std::size_t j = 0; j < group; ++j) {
        if (!ended[j] && frame_steps[order[g + j]] == cur) finalize(j);
      }
      std::size_t boundary = max_steps;
      for (std::size_t j = 0; j < group; ++j) {
        const std::size_t fs = frame_steps[order[g + j]];
        if (fs > cur) boundary = std::min(boundary, fs);
      }
      while (cur < boundary) {
        const std::size_t seg = std::min(kSegmentSteps, boundary - cur);
        for (std::size_t j = 0; j < group; ++j) {
          if (frame_steps[order[g + j]] > cur) {
            rx_ptrs[j] = frames[order[g + j]].data() + cur * n;
            out_ptrs[j] = bits[j].data() + emitted;
          } else {
            rx_ptrs[j] = zeros.data();
            out_ptrs[j] = dump.data();
          }
        }
        for (std::size_t j = group; j < lanes; ++j) {
          rx_ptrs[j] = zeros.data();
          out_ptrs[j] = dump.data();
        }
        emitted += decoder->decode_chunk(rx_ptrs.data(), seg, out_ptrs.data());
        cur += seg;
      }
    }
    for (std::size_t j = 0; j < group; ++j) {
      if (!ended[j]) finalize(j);
    }
  }
  return result;
}

BerPoint measure_ber(const DecoderSpec& spec, double esn0_db,
                     const BerRunConfig& config) {
  if (config.max_bits == 0) {
    throw std::invalid_argument("measure_ber: max_bits must be positive");
  }
  if (config.shards < 1) {
    throw std::invalid_argument("measure_ber: shards must be >= 1");
  }
  if (config.lanes < 0) {
    throw std::invalid_argument("measure_ber: lanes must be >= 0");
  }
  // Derive a distinct seed per (spec, channel point) so curves are
  // reproducible yet independent across points.
  const std::uint64_t point_seed =
      config.seed ^ (static_cast<std::uint64_t>(
                         std::llround(esn0_db * 1000.0 + 1e6))
                     << 20) ^
      (static_cast<std::uint64_t>(spec.code.constraint_length) << 8) ^
      static_cast<std::uint64_t>(spec.traceback_depth);

  BerPoint point;
  point.esn0_db = esn0_db;

  // Sharded Monte-Carlo: independent streams with 1/shards of each budget,
  // keyed by counter-based substreams of the point seed. Shard results
  // depend only on (config, shard index), never on scheduling or grouping,
  // and the reduction walks shards in index order — bit-identical at any
  // thread count and any lane count. One shard is the whole measurement:
  // it runs on the point seed with the caller's budgets verbatim.
  const auto shards = static_cast<std::size_t>(config.shards);
  BerRunConfig shard_cfg = config;
  if (shards > 1) {
    shard_cfg.max_bits = shard_budget(config.max_bits, shards);
    shard_cfg.min_bits = shard_budget(config.min_bits, shards);
    shard_cfg.max_errors =
        std::max<std::uint64_t>(1, shard_budget(config.max_errors, shards));
  }

  // Group shards into SIMD lanes of one frame-parallel decoder each
  // (frames x threads x lanes). The group size fills the thread pool
  // first — groups never drop below the pool's parallelism — and only the
  // surplus shards widen into lanes, so a many-core / few-shard run keeps
  // its thread-level speedup. Group size depends on the configured pool
  // size, never on runtime load, and per-shard results are lane-invariant,
  // so the measurement stays deterministic.
  const std::size_t lane_cap = config.lanes > 0
                                   ? static_cast<std::size_t>(config.lanes)
                                   : default_frame_lanes();
  const std::size_t pool_threads =
      std::max<std::size_t>(1, exec::ThreadPool::global().size());
  const std::size_t group_size = std::max<std::size_t>(
      1, std::min(lane_cap, (shards + pool_threads - 1) / pool_threads));
  const std::size_t num_groups = (shards + group_size - 1) / group_size;

  std::vector<util::ProportionEstimate> per_shard(shards);
  exec::parallel_for(num_groups, [&](std::size_t g) {
    const std::size_t lo = g * group_size;
    const std::size_t hi = std::min(shards, lo + group_size);
    std::vector<std::uint64_t> seeds(hi - lo);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const auto shard = static_cast<std::uint64_t>(lo + i);
      seeds[i] =
          shards == 1 ? point_seed : util::substream_key(point_seed, shard);
    }
    const auto results = run_ber_streams(spec, esn0_db, shard_cfg, seeds);
    std::copy(results.begin(), results.end(),
              per_shard.begin() + static_cast<std::ptrdiff_t>(lo));
  });
  for (const auto& shard : per_shard) point.errors.merge(shard);
  return point;
}

std::vector<BerPoint> measure_ber_curve(
    const DecoderSpec& spec, const std::vector<double>& esn0_db_points,
    const BerRunConfig& config) {
  // Channel points are seeded independently of one another, so the curve
  // fans out across the pool; with a serial pool (or from inside other pool
  // work) this degenerates to the historical in-order loop.
  std::vector<BerPoint> curve(esn0_db_points.size());
  exec::parallel_for(curve.size(), [&](std::size_t i) {
    curve[i] = measure_ber(spec, esn0_db_points[i], config);
  });
  return curve;
}

}  // namespace metacore::comm
