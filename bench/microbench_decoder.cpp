// Google-benchmark microbenchmarks for the decoder kernels: decode
// throughput (bits/second) of hard, soft, and multiresolution Viterbi
// across constraint lengths — the quantities the VLIW cost engine models.
//
// Each decoder kind is measured through both streaming APIs: the per-step
// virtual step() loop and the batched decode_block() kernel (flat trellis
// view, table-lookup metrics, renorm tracked in-loop). After the
// google-benchmark pass, manual timing passes append machine-readable
// records (block vs step, SIMD tier vs scalar, frame-parallel lanes vs
// sequential) to BENCH_decoder.json (override the path with
// METACORE_BENCH_DECODER_JSON; METACORE_QUICK=1 shrinks the bit budget for
// smoke runs). A run given --benchmark_filter skips those passes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "comm/ber.hpp"
#include "comm/channel.hpp"
#include "comm/simd/acs_kernel.hpp"
#include "util/rng.hpp"

using namespace metacore;

namespace {

struct Workload {
  comm::Trellis trellis;
  std::vector<double> rx;
  double sigma;

  Workload(const comm::DecoderSpec& spec, std::size_t bits)
      : trellis(spec.code), sigma(0.6) {
    util::Random rng(99);
    comm::ConvolutionalEncoder encoder(spec.code);
    comm::BpskModulator mod;
    comm::AwgnChannel channel(2.0, 1.0, 7);
    sigma = channel.noise_sigma();
    std::vector<int> data(bits);
    for (auto& b : data) b = rng.bit() ? 1 : 0;
    rx = channel.transmit(mod.modulate(encoder.encode(data)));
  }
};

comm::DecoderSpec make_spec(comm::DecoderKind kind, int k) {
  comm::DecoderSpec spec;
  spec.code = comm::best_rate_half_code(k);
  spec.traceback_depth = 5 * k;
  spec.kind = kind;
  spec.low_res_bits = 1;
  spec.high_res_bits = 3;
  spec.num_high_res_paths = std::min(8, spec.code.num_states());
  return spec;
}

constexpr std::size_t kBenchBits = 4'096;

/// The multires spec at M = states / divisor: the design search's M
/// values (ViterbiMetaCore's M_frac = 1/8 ... 1), where make_spec's fixed
/// M = 8 sits below the smallest M_frac at K = 9.
comm::DecoderSpec make_m_frac_spec(int k, int divisor) {
  comm::DecoderSpec spec = make_spec(comm::DecoderKind::Multires, k);
  spec.num_high_res_paths =
      std::max(1, spec.code.num_states() / std::max(1, divisor));
  return spec;
}

/// Block API: one decode_block call over the whole stream (what
/// Decoder::decode and the BER pipeline do).
void run_decoder_block(benchmark::State& state,
                       const comm::DecoderSpec& spec) {
  const Workload workload(spec, kBenchBits);
  auto decoder = spec.make_decoder(workload.trellis, 1.0, workload.sigma);
  std::vector<int> out(kBenchBits);
  for (auto _ : state) {
    decoder->reset();
    benchmark::DoNotOptimize(decoder->decode_block(workload.rx, out));
  }
  state.SetItemsProcessed(state.iterations() * kBenchBits);
}

/// Step API: the historical per-trellis-step virtual-dispatch loop, kept as
/// the comparison baseline for the batched kernels.
void run_decoder_step(benchmark::State& state, comm::DecoderKind kind) {
  const int k = static_cast<int>(state.range(0));
  const comm::DecoderSpec spec = make_spec(kind, k);
  const Workload workload(spec, kBenchBits);
  auto decoder = spec.make_decoder(workload.trellis, 1.0, workload.sigma);
  const auto n = static_cast<std::size_t>(workload.trellis.symbols_per_step());
  std::vector<int> out(kBenchBits);
  for (auto _ : state) {
    decoder->reset();
    std::size_t written = 0;
    for (std::size_t i = 0; i < workload.rx.size(); i += n) {
      if (auto bit = decoder->step({workload.rx.data() + i, n})) {
        out[written++] = *bit;
      }
    }
    benchmark::DoNotOptimize(written);
  }
  state.SetItemsProcessed(state.iterations() * kBenchBits);
}

void run_decoder_block(benchmark::State& state, comm::DecoderKind kind) {
  run_decoder_block(state,
                    make_spec(kind, static_cast<int>(state.range(0))));
}

void BM_HardDecode(benchmark::State& state) {
  run_decoder_block(state, comm::DecoderKind::Hard);
}
void BM_SoftDecode(benchmark::State& state) {
  run_decoder_block(state, comm::DecoderKind::Soft);
}
void BM_MultiresDecode(benchmark::State& state) {
  run_decoder_block(state, comm::DecoderKind::Multires);
}
/// BM_MultiresDecodeMFrac/K/divisor: M = states / divisor.
void BM_MultiresDecodeMFrac(benchmark::State& state) {
  run_decoder_block(state,
                    make_m_frac_spec(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1))));
}
void BM_HardDecodeStep(benchmark::State& state) {
  run_decoder_step(state, comm::DecoderKind::Hard);
}
void BM_SoftDecodeStep(benchmark::State& state) {
  run_decoder_step(state, comm::DecoderKind::Soft);
}
void BM_MultiresDecodeStep(benchmark::State& state) {
  run_decoder_step(state, comm::DecoderKind::Multires);
}

BENCHMARK(BM_HardDecode)->Arg(3)->Arg(5)->Arg(7)->Arg(9);
BENCHMARK(BM_SoftDecode)->Arg(3)->Arg(5)->Arg(7)->Arg(9);
BENCHMARK(BM_MultiresDecode)->Arg(3)->Arg(5)->Arg(7)->Arg(9);
BENCHMARK(BM_MultiresDecodeMFrac)
    ->Args({3, 8})->Args({3, 1})->Args({5, 8})->Args({5, 1})
    ->Args({7, 8})->Args({7, 1})->Args({9, 8})->Args({9, 1});
BENCHMARK(BM_HardDecodeStep)->Arg(3)->Arg(5)->Arg(7)->Arg(9);
BENCHMARK(BM_SoftDecodeStep)->Arg(3)->Arg(5)->Arg(7)->Arg(9);
BENCHMARK(BM_MultiresDecodeStep)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

/// Decodes `total_bits` through one API and returns bits/second. Both APIs
/// decode the same rx stream, so the comparison isolates per-step virtual
/// dispatch + scratch churn vs the batched kernel.
double time_api(const comm::DecoderSpec& spec, const Workload& workload,
                std::size_t total_bits, bool block_api) {
  auto decoder = spec.make_decoder(workload.trellis, 1.0, workload.sigma);
  const auto n = static_cast<std::size_t>(workload.trellis.symbols_per_step());
  std::vector<int> out(kBenchBits);
  std::size_t decoded = 0;
  const auto start = std::chrono::steady_clock::now();
  while (decoded < total_bits) {
    decoder->reset();
    if (block_api) {
      benchmark::DoNotOptimize(decoder->decode_block(workload.rx, out));
    } else {
      std::size_t written = 0;
      for (std::size_t i = 0; i < workload.rx.size(); i += n) {
        if (auto bit = decoder->step({workload.rx.data() + i, n})) {
          out[written++] = *bit;
        }
      }
      benchmark::DoNotOptimize(written);
    }
    decoded += kBenchBits;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return static_cast<double>(decoded) / seconds;
}

/// The structured block-vs-step pass appended to BENCH_decoder.json.
void append_block_vs_step_records() {
  const std::size_t total_bits = bench::quick_mode() ? 16'384 : 262'144;
  std::vector<bench::BenchRecord> records;
  const comm::DecoderKind kinds[] = {comm::DecoderKind::Hard,
                                     comm::DecoderKind::Soft,
                                     comm::DecoderKind::Multires};
  std::cout << "\nblock-vs-step comparison (" << total_bits
            << " bits per cell):\n";
  for (const auto kind : kinds) {
    for (const int k : {3, 5, 7, 9}) {
      const comm::DecoderSpec spec = make_spec(kind, k);
      const Workload workload(spec, kBenchBits);
      const double step_bps = time_api(spec, workload, total_bits, false);
      const double block_bps = time_api(spec, workload, total_bits, true);

      bench::BenchRecord record;
      record.name = "decoder_block_vs_step";
      record.labels["kind"] = comm::to_string(kind);
      record.values["constraint_length"] = static_cast<double>(k);
      record.values["bits"] = static_cast<double>(total_bits);
      record.values["step_bits_per_second"] = step_bps;
      record.values["block_bits_per_second"] = block_bps;
      record.values["block_vs_step_speedup"] = block_bps / step_bps;
      records.push_back(std::move(record));

      std::cout << "  " << comm::to_string(kind) << " K=" << k << ": step "
                << static_cast<std::uint64_t>(step_bps) << " b/s, block "
                << static_cast<std::uint64_t>(block_bps) << " b/s, speedup "
                << block_bps / step_bps << "x\n";
    }
  }
  bench::append_bench_records(records, bench::bench_decoder_json_path());
  std::cout << "bench records appended to " << bench::bench_decoder_json_path()
            << "\n";
}

/// Restores the dispatched ISA on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(comm::simd::dispatched_isa()) {}
  ~IsaGuard() { comm::simd::force_isa(saved_); }

 private:
  comm::simd::Isa saved_;
};

std::vector<comm::simd::Isa> available_isas() {
  std::vector<comm::simd::Isa> isas;
  for (const auto isa : {comm::simd::Isa::Scalar, comm::simd::Isa::Sse4,
                         comm::simd::Isa::Avx2, comm::simd::Isa::Avx512}) {
    if (comm::simd::isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Registers one block-API benchmark per decoder kind for each kernel tier
/// available on this machine (BM_<Kind>DecodeSimd_<isa>/K); the lambda
/// forces the tier for the duration of the run.
void register_simd_benchmarks() {
  struct KindEntry {
    comm::DecoderKind kind;
    const char* name;
  };
  const KindEntry kinds[] = {{comm::DecoderKind::Hard, "Hard"},
                             {comm::DecoderKind::Soft, "Soft"},
                             {comm::DecoderKind::Multires, "Multires"}};
  for (const auto isa : available_isas()) {
    for (const auto& entry : kinds) {
      const std::string name = std::string("BM_") + entry.name +
                               "DecodeSimd_" + comm::simd::to_string(isa);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kind = entry.kind, isa](benchmark::State& state) {
            IsaGuard guard;
            comm::simd::force_isa(isa);
            run_decoder_block(state, kind);
          })
          ->Arg(7);
    }
  }
}

/// The structured simd-vs-scalar pass appended to BENCH_decoder.json: block
/// decode throughput per (kind, K, kernel tier) and the speedup over the
/// scalar reference kernel.
void append_simd_vs_scalar_records() {
  const std::size_t total_bits = bench::quick_mode() ? 16'384 : 262'144;
  const auto isas = available_isas();
  std::vector<bench::BenchRecord> records;
  const comm::DecoderKind kinds[] = {comm::DecoderKind::Hard,
                                     comm::DecoderKind::Soft,
                                     comm::DecoderKind::Multires};
  IsaGuard guard;
  std::cout << "\nsimd-vs-scalar comparison (" << total_bits
            << " bits per cell):\n";
  for (const auto kind : kinds) {
    for (const int k : {3, 5, 7, 9}) {
      const comm::DecoderSpec spec = make_spec(kind, k);
      const Workload workload(spec, kBenchBits);
      double scalar_bps = 0.0;
      for (const auto isa : isas) {
        comm::simd::force_isa(isa);
        const double bps = time_api(spec, workload, total_bits, true);
        if (isa == comm::simd::Isa::Scalar) scalar_bps = bps;

        bench::BenchRecord record;
        record.name = "decoder_simd_vs_scalar";
        record.labels["kind"] = comm::to_string(kind);
        record.labels["isa"] = comm::simd::to_string(isa);
        record.values["constraint_length"] = static_cast<double>(k);
        record.values["bits"] = static_cast<double>(total_bits);
        record.values["bits_per_second"] = bps;
        record.values["speedup_vs_scalar"] = bps / scalar_bps;
        records.push_back(std::move(record));

        std::cout << "  " << comm::to_string(kind) << " K=" << k << " "
                  << comm::simd::to_string(isa) << ": "
                  << static_cast<std::uint64_t>(bps) << " b/s, "
                  << bps / scalar_bps << "x scalar\n";
      }
    }
  }
  bench::append_bench_records(records, bench::bench_decoder_json_path());
  std::cout << "bench records appended to " << bench::bench_decoder_json_path()
            << "\n";
}

/// The lock-step frame kernel itself, built directly: make_frame_decoder
/// serves one and two lanes with single-stream decoders instead, and those
/// rows keep timing the kernel they replace there.
std::unique_ptr<comm::FrameDecoder> make_frame_kernel(
    const comm::DecoderSpec& spec, const Workload& workload,
    std::size_t lanes) {
  if (spec.kind == comm::DecoderKind::Multires) {
    const comm::MultiresConfig config{
        spec.traceback_depth,    spec.low_res_bits,
        spec.high_res_bits,      spec.quantization,
        spec.num_high_res_paths, spec.normalization_terms};
    return std::make_unique<comm::FrameMultiresDecoder>(
        workload.trellis, config, 1.0, workload.sigma, lanes);
  }
  const comm::Quantizer quantizer =
      spec.kind == comm::DecoderKind::Hard
          ? comm::Quantizer(comm::QuantizationMethod::Hard, 1, 1.0,
                            workload.sigma)
          : comm::Quantizer(spec.quantization, spec.high_res_bits, 1.0,
                            workload.sigma);
  return std::make_unique<comm::FrameViterbiDecoder>(
      workload.trellis, spec.traceback_depth, quantizer, lanes);
}

/// Frame-parallel API: `decoder->lanes()` copies of the workload decode in
/// lock-step through one FrameDecoder; throughput counts every lane's bits.
double time_frames(comm::FrameDecoder& decoder, const Workload& workload,
                   std::size_t total_bits) {
  const std::size_t lanes = decoder.lanes();
  std::vector<int> out(lanes * kBenchBits);
  std::vector<const double*> rx_ptrs(lanes, workload.rx.data());
  std::vector<int*> out_ptrs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    out_ptrs[l] = out.data() + l * kBenchBits;
  }
  std::size_t decoded = 0;
  const auto start = std::chrono::steady_clock::now();
  while (decoded < total_bits) {
    decoder.reset();
    benchmark::DoNotOptimize(
        decoder.decode_chunk(rx_ptrs.data(), kBenchBits, out_ptrs.data()));
    decoded += lanes * kBenchBits;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return static_cast<double>(decoded) / seconds;
}

/// Lock-step decoding of `lanes` copies of the workload through what
/// make_frame_decoder builds; items count every lane's bits.
void run_frames(benchmark::State& state, const comm::DecoderSpec& spec,
                std::size_t lanes) {
  const Workload workload(spec, kBenchBits);
  auto decoder =
      spec.make_frame_decoder(workload.trellis, 1.0, workload.sigma, lanes);
  std::vector<int> out(lanes * kBenchBits);
  std::vector<const double*> rx_ptrs(lanes, workload.rx.data());
  std::vector<int*> out_ptrs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    out_ptrs[l] = out.data() + l * kBenchBits;
  }
  for (auto _ : state) {
    decoder->reset();
    benchmark::DoNotOptimize(
        decoder->decode_chunk(rx_ptrs.data(), kBenchBits, out_ptrs.data()));
  }
  state.SetItemsProcessed(state.iterations() * kBenchBits * lanes);
}

/// Registers one frame-parallel benchmark per decoder kind and kernel tier
/// (BM_<Kind>DecodeFrames_<isa>/K) at the tier's natural lane count, plus
/// the multires rows at the search's M values
/// (BM_MultiresDecodeFramesMFrac_<isa>/K/divisor, M = states / divisor).
void register_frame_benchmarks() {
  struct KindEntry {
    comm::DecoderKind kind;
    const char* name;
  };
  const KindEntry kinds[] = {{comm::DecoderKind::Hard, "Hard"},
                             {comm::DecoderKind::Soft, "Soft"},
                             {comm::DecoderKind::Multires, "Multires"}};
  for (const auto isa : available_isas()) {
    for (const auto& entry : kinds) {
      const std::string name = std::string("BM_") + entry.name +
                               "DecodeFrames_" + comm::simd::to_string(isa);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kind = entry.kind, isa](benchmark::State& state) {
            IsaGuard guard;
            comm::simd::force_isa(isa);
            run_frames(state,
                       make_spec(kind, static_cast<int>(state.range(0))),
                       comm::simd::natural_frame_lanes(isa));
          })
          ->Arg(7);
    }
    const std::string name = std::string("BM_MultiresDecodeFramesMFrac_") +
                             comm::simd::to_string(isa);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [isa](benchmark::State& state) {
          IsaGuard guard;
          comm::simd::force_isa(isa);
          run_frames(state,
                     make_m_frac_spec(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1))),
                     comm::simd::natural_frame_lanes(isa));
        })
        ->Args({7, 8})
        ->Args({7, 1})
        ->Args({9, 8})
        ->Args({9, 1});
  }
}

/// The structured frame-parallel pass appended to BENCH_decoder.json:
/// lock-step lane decoding vs decoding the same frames sequentially through
/// the single-frame block API, per (kind, K, kernel tier, lane count). Both
/// sides are timed in the same session on the same workload, so the speedup
/// column is a direct apples-to-apples ratio. The one- and two-lane rows
/// also time what make_frame_decoder builds there (one single-stream
/// decoder per lane behind the FrameDecoder adapter), which should match
/// the sequential rate.
void append_frame_parallel_records() {
  const std::size_t total_bits = bench::quick_mode() ? 16'384 : 262'144;
  const auto isas = available_isas();
  std::vector<bench::BenchRecord> records;
  const comm::DecoderKind kinds[] = {comm::DecoderKind::Hard,
                                     comm::DecoderKind::Soft,
                                     comm::DecoderKind::Multires};
  IsaGuard guard;
  std::cout << "\nframe-parallel vs sequential comparison (" << total_bits
            << " bits per cell):\n";
  for (const auto kind : kinds) {
    for (const int k : {3, 5, 7, 9}) {
      const comm::DecoderSpec spec = make_spec(kind, k);
      const Workload workload(spec, kBenchBits);
      for (const auto isa : isas) {
        comm::simd::force_isa(isa);
        const double sequential_bps = time_api(spec, workload, total_bits, true);
        const std::size_t natural = comm::simd::natural_frame_lanes(isa);
        std::vector<std::size_t> lane_counts{1, 2, 4};
        if (natural != 4) lane_counts.push_back(natural);
        for (const std::size_t lanes : lane_counts) {
          const double frame_bps = time_frames(
              *make_frame_kernel(spec, workload, lanes), workload, total_bits);

          bench::BenchRecord record;
          record.name = "decoder_frame_parallel";
          record.labels["kind"] = comm::to_string(kind);
          record.labels["isa"] = comm::simd::to_string(isa);
          record.values["constraint_length"] = static_cast<double>(k);
          record.values["lanes"] = static_cast<double>(lanes);
          record.values["bits"] = static_cast<double>(total_bits);
          record.values["sequential_bits_per_second"] = sequential_bps;
          record.values["frame_parallel_bits_per_second"] = frame_bps;
          record.values["frames_vs_sequential_speedup"] =
              frame_bps / sequential_bps;
          std::cout << "  " << comm::to_string(kind) << " K=" << k << " "
                    << comm::simd::to_string(isa) << " lanes=" << lanes
                    << ": seq " << static_cast<std::uint64_t>(sequential_bps)
                    << " b/s, frames "
                    << static_cast<std::uint64_t>(frame_bps) << " b/s, "
                    << frame_bps / sequential_bps << "x";
          if (lanes <= 2) {
            const double made_bps = time_frames(
                *spec.make_frame_decoder(workload.trellis, 1.0,
                                         workload.sigma, lanes),
                workload, total_bits);
            record.values["make_frame_decoder_bits_per_second"] = made_bps;
            record.values["make_frame_decoder_vs_sequential"] =
                made_bps / sequential_bps;
            std::cout << ", make_frame_decoder "
                      << static_cast<std::uint64_t>(made_bps) << " b/s, "
                      << made_bps / sequential_bps << "x";
          }
          std::cout << "\n";
          records.push_back(std::move(record));
        }
      }
    }
  }
  bench::append_bench_records(records, bench::bench_decoder_json_path());
  std::cout << "bench records appended to " << bench::bench_decoder_json_path()
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // A run that picks benchmarks with --benchmark_filter wants those alone,
  // not the record passes (about a minute at the full bit budget).
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    filtered = filtered ||
               std::string_view(argv[i]).starts_with("--benchmark_filter");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_simd_benchmarks();
  register_frame_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (filtered) return 0;
  append_block_vs_step_records();
  append_simd_vs_scalar_records();
  append_frame_parallel_records();
  return 0;
}
