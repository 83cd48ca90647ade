// Runtime kernel dispatch: CPUID feature detection, the METACORE_SIMD
// environment override, and one atomic pointer to the dispatched tier's
// kernel table. The selection is resolved once (first use) and cached;
// force_isa() re-points it for tests and benchmarks. Loads are relaxed —
// every table is an immutable constant and the kernels are stateless, so
// there is nothing to synchronize beyond the pointer value itself.
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "comm/simd/acs_kernel.hpp"
#include "comm/simd/acs_scalar.hpp"

namespace metacore::comm::simd {

namespace {

/// The table of a tier compiled into this binary, or nullptr.
const detail::KernelTable* compiled_table(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return &detail::scalar_kernels;
    case Isa::Sse4:
#if METACORE_SIMD_HAVE_SSE4
      return &detail::sse4_kernels;
#else
      return nullptr;
#endif
    case Isa::Avx2:
#if METACORE_SIMD_HAVE_AVX2
      return &detail::avx2_kernels;
#else
      return nullptr;
#endif
    case Isa::Avx512:
#if METACORE_SIMD_HAVE_AVX512
      return &detail::avx512_kernels;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::Sse4:
      return __builtin_cpu_supports("sse4.2") != 0;
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f") != 0;
#else
    case Isa::Sse4:
    case Isa::Avx2:
    case Isa::Avx512:
      return false;
#endif
  }
  return false;
}

Isa best_available() {
  if (isa_available(Isa::Avx512)) return Isa::Avx512;
  if (isa_available(Isa::Avx2)) return Isa::Avx2;
  if (isa_available(Isa::Sse4)) return Isa::Sse4;
  return Isa::Scalar;
}

/// Startup selection: METACORE_SIMD if set, else the best available tier.
Isa initial_isa() {
  const char* env = std::getenv("METACORE_SIMD");
  if (env == nullptr || *env == '\0') return best_available();
  const std::string value(env);
  Isa requested;
  if (value == "scalar") {
    requested = Isa::Scalar;
  } else if (value == "sse4") {
    requested = Isa::Sse4;
  } else if (value == "avx2") {
    requested = Isa::Avx2;
  } else if (value == "avx512") {
    requested = Isa::Avx512;
  } else {
    throw std::invalid_argument(
        "METACORE_SIMD must be 'scalar', 'sse4', 'avx2', or 'avx512', got '" +
        value + "'");
  }
  if (!isa_available(requested)) {
    throw std::runtime_error("METACORE_SIMD=" + value +
                             " requested but that tier is " +
                             (isa_compiled(requested)
                                  ? "not supported by this CPU"
                                  : "not compiled into this binary"));
  }
  return requested;
}

/// The dispatched tier's table. Tables are immutable and the kernels
/// stateless, so a relaxed load of the one pointer is all a reader needs.
std::atomic<const detail::KernelTable*>& current() {
  // Thread-safe magic-static init; a throwing initial_isa() propagates.
  static std::atomic<const detail::KernelTable*> table{
      compiled_table(initial_isa())};
  return table;
}

const detail::KernelTable& dispatched() {
  return *current().load(std::memory_order_relaxed);
}

const detail::KernelTable& table_for(Isa isa) {
  if (!isa_available(isa)) {
    throw std::runtime_error("simd: tier unavailable: " + to_string(isa));
  }
  return *compiled_table(isa);
}

}  // namespace

std::string to_string(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return "scalar";
    case Isa::Sse4:
      return "sse4";
    case Isa::Avx2:
      return "avx2";
    case Isa::Avx512:
      return "avx512";
  }
  return "?";
}

bool isa_compiled(Isa isa) { return compiled_table(isa) != nullptr; }

bool isa_available(Isa isa) { return isa_compiled(isa) && cpu_supports(isa); }

Isa dispatched_isa() { return dispatched().isa; }

void force_isa(Isa isa) {
  if (!isa_available(isa)) {
    throw std::runtime_error("simd::force_isa: tier unavailable: " +
                             to_string(isa));
  }
  current().store(compiled_table(isa), std::memory_order_relaxed);
}

std::size_t natural_frame_lanes(Isa isa) {
  switch (isa) {
    case Isa::Avx512:
      return 16;  // one ZMM register of int32 path metrics
    case Isa::Avx2:
      return 8;  // one YMM register
    case Isa::Sse4:
    case Isa::Scalar:
      return 4;  // one XMM register; scalar matches so lane counts agree
  }
  return 4;
}

ViterbiAcsFn viterbi_acs() { return dispatched().viterbi; }
MultiresAcsFn multires_acs() { return dispatched().multires; }
FrameViterbiAcsFn frame_viterbi_acs() { return dispatched().frame_viterbi; }
FrameMultiresAcsFn frame_multires_acs() { return dispatched().frame_multires; }
QuantizeBlockFn quantize_block() { return dispatched().quantize; }

ViterbiAcsFn viterbi_acs(Isa isa) { return table_for(isa).viterbi; }
MultiresAcsFn multires_acs(Isa isa) { return table_for(isa).multires; }
FrameViterbiAcsFn frame_viterbi_acs(Isa isa) {
  return table_for(isa).frame_viterbi;
}
FrameMultiresAcsFn frame_multires_acs(Isa isa) {
  return table_for(isa).frame_multires;
}
QuantizeBlockFn quantize_block(Isa isa) { return table_for(isa).quantize; }

namespace detail {

constinit const KernelTable scalar_kernels = {
    Isa::Scalar,         viterbi_acs_scalar,       multires_acs_scalar,
    frame_viterbi_acs_scalar, frame_multires_acs_scalar,
    quantize_block_scalar};

}  // namespace detail

}  // namespace metacore::comm::simd
