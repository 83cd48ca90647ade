// The SIMD decoder kernels, written once over GCC vector extensions and
// templated on the register width in bytes. tier_sse4.cpp, tier_avx2.cpp and
// tier_avx512.cpp include this header under their own -m flag and export one
// detail::KernelTable each. Only hardware gathers (AVX2, AVX-512) and the
// narrowing of decision masks to survivor bytes differ per ISA.
//
// Link rule: everything below lives in an anonymous namespace and calls only
// builtins, intrinsics and the internal-linkage scalar reference
// (acs_scalar.hpp), never an inline function with external linkage such as
// std::min: every tier TU would emit its own copy, and the linker may keep
// the -mavx512f one for baseline callers.
//
// Lane chunking: the frame-parallel kernels (and the quantizer) walk their
// lanes in chunks of the register width W, then W/2, down to 1, so any lane
// count runs vector code (24 lanes at W = 16 run as 16 + 8).
#pragma once

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include <cstddef>
#include <cstdint>
#include <utility>

#include "comm/simd/acs_kernel.hpp"
#include "comm/simd/acs_scalar.hpp"

namespace metacore::comm::simd::detail {
namespace {

template <class T, std::size_t N>
using Vec __attribute__((vector_size(N * sizeof(T)))) = T;

constexpr std::int32_t kMetricMax = INT32_MAX;

template <class V, class T>
inline V load(const T* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <class T, class V>
inline void store(T* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// Element i of V holds i * scale + add (modulo the byte size of V, which
/// keeps shuffle indices in range).
template <class V>
constexpr V index_vector(std::size_t scale = 1, std::size_t add = 0) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return V{static_cast<decltype(V{}[0])>((I * scale + add) % sizeof(V))...};
  }(std::make_index_sequence<sizeof(V) / sizeof(V{}[0])>());
}

/// Splits the interleaved branch pairs p[2s + b] of N states into the
/// branch-0 and branch-1 vectors.
template <std::size_t N>
struct BranchPair {
  Vec<std::uint32_t, N> b0, b1;

  explicit BranchPair(const std::uint32_t* p) {
    using V = Vec<std::uint32_t, N>;
    const V lo = load<V>(p);
    const V hi = load<V>(p + N);
    b0 = __builtin_shuffle(lo, hi, index_vector<V>(2, 0));
    b1 = __builtin_shuffle(lo, hi, index_vector<V>(2, 1));
  }
};

/// table[idx[i]] for every element: a hardware gather where the ISA has
/// one, element loads otherwise. The masked gathers with a zeroed source
/// keep GCC's maybe-uninitialized analysis out of the intrinsic headers.
template <class V, class T, class I>
inline V gather(const T* table, I idx) {
#if defined(__AVX512F__)
  if constexpr (sizeof(V) == 64 && sizeof(T) == 4) {
    return (V)_mm512_mask_i32gather_epi32(_mm512_setzero_si512(), 0xFFFF,
                                          (__m512i)idx, table, 4);
  }
  if constexpr (sizeof(V) == 64 && sizeof(T) == 8) {
    return (V)_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF,
                                       (__m256i)idx, table, 8);
  }
#endif
#if defined(__AVX2__)
  if constexpr (sizeof(V) == 32 && sizeof(T) == 4) {
    return (V)_mm256_mask_i32gather_epi32(_mm256_setzero_si256(), table,
                                          (__m256i)idx, _mm256_set1_epi32(-1),
                                          4);
  }
  if constexpr (sizeof(V) == 32 && sizeof(T) == 8) {
    return (V)_mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), table, (__m128i)idx,
        (__m256d)_mm256_set1_epi64x(-1), 8);
  }
#endif
  V v = {};
  for (std::size_t i = 0; i < sizeof(V) / sizeof(T); ++i) v[i] = table[idx[i]];
  return v;
}

/// Stores the low byte of each element of a 0/1 vector as contiguous bytes.
/// AVX-512F narrows a full 64-byte register in one instruction; narrower
/// vectors (and every vector below AVX-512F) get a byte shuffle instead,
/// because GCC lowers the convert there badly.
template <class V>
inline void store_low_bytes(std::uint8_t* out, V bits) {
  constexpr std::size_t n = sizeof(V) / sizeof(bits[0]);
  if constexpr (sizeof(V) == 64) {
    store(out, __builtin_convertvector(bits, Vec<std::uint8_t, n>));
  } else {
    using Bytes = Vec<std::uint8_t, sizeof(V)>;
    const Bytes low = __builtin_shuffle(
        (Bytes)bits, index_vector<Bytes>(sizeof(V) / n));
    __builtin_memcpy(out, &low, n);
  }
}

/// One width's run of chunks, kept out of line: inlined together, the widths
/// raise register pressure until GCC parks values in zmm16-31 and can leave
/// the upper register state dirty on return, which then slows every legacy
/// SSE instruction of the baseline caller severalfold. The chunk (whose
/// lambdas capture by value) is copied here, field by field: read through
/// the reference, every captured pointer would be reloaded per state, since
/// the survivor byte stores may alias it; passed by value, it would be
/// copied with a 64-byte move that stalls on the stores just made.
template <std::size_t N, class Chunk>
[[gnu::noinline]] void run_chunks(const Chunk& chunk, std::size_t begin,
                                  std::size_t end) {
  Chunk local = chunk;
  local.template operator()<N>(begin, end);
}

/// Splits [0, count) into a run of N-wide chunks, then at most one chunk
/// each of N/2, N/4, ..., 1, calling chunk.operator()<width>(begin, end) once
/// per width with a non-empty run.
template <std::size_t N, class Chunk>
inline void walk_chunks(std::size_t count, const Chunk& chunk,
                        std::size_t begin = 0) {
  const std::size_t end = begin + (count - begin) / N * N;
  if (end != begin) run_chunks<N>(chunk, begin, end);
  if constexpr (N > 1) walk_chunks<N / 2>(count, chunk, end);
}

// ---------------------------------------------------------------------------
// State-parallel kernels: one frame's trellis step, W states per iteration,
// with table reads gathered. States past the last full vector (all of them
// when the trellis has fewer than W) run through the scalar reference: a
// narrower vector pass over them measured no faster.

template <std::size_t Bytes>
AcsStepResult viterbi_acs(const std::int32_t* acc, std::int32_t* next_acc,
                          const std::uint32_t* pred_state,
                          const std::uint32_t* pred_symbols,
                          const std::int32_t* metric_by_pattern,
                          std::uint8_t* survivor_row,
                          std::size_t num_states) {
  constexpr std::size_t W = Bytes / 4;
  using VI = Vec<std::int32_t, W>;
  AcsStepResult best{kMetricMax, 0};
  const std::size_t vec_states = num_states - num_states % W;
  if (vec_states != 0) {
    VI vbest = VI{} + kMetricMax;
    VI vbest_idx = {};
    VI vidx = index_vector<VI>();
    for (std::size_t s = 0; s < vec_states; s += W) {
      const BranchPair<W> st(pred_state + 2 * s);
      const BranchPair<W> sy(pred_symbols + 2 * s);
      const VI cand0 =
          gather<VI>(acc, st.b0) + gather<VI>(metric_by_pattern, sy.b0);
      const VI cand1 =
          gather<VI>(acc, st.b1) + gather<VI>(metric_by_pattern, sy.b1);
      const VI sel = cand1 < cand0;  // tie -> branch 0
      const VI win = sel ? cand1 : cand0;
      store(next_acc + s, win);
      store_low_bytes(survivor_row + s, sel & 1);

      // Strict-< running minimum per element, remembering the first state.
      const VI better = win < vbest;
      vbest = better ? win : vbest;
      vbest_idx = better ? vidx : vbest_idx;
      vidx += static_cast<std::int32_t>(W);
    }
    // Each element holds its first minimum, so the smallest (metric, state)
    // pair over all elements is the first global minimum.
    std::int32_t lane_best[W];
    std::uint32_t lane_idx[W];
    store(lane_best, vbest);
    store(lane_idx, vbest_idx);
    for (std::size_t j = 0; j < W; ++j) {
      if (lane_best[j] < best.best_metric ||
          (lane_best[j] == best.best_metric && lane_idx[j] < best.best_state)) {
        best = {lane_best[j], lane_idx[j]};
      }
    }
  }
  if (vec_states != num_states) {
    const AcsStepResult tail = viterbi_acs_scalar(
        acc, next_acc + vec_states, pred_state + 2 * vec_states,
        pred_symbols + 2 * vec_states, metric_by_pattern,
        survivor_row + vec_states, num_states - vec_states);
    if (tail.best_metric < best.best_metric) {
      best = {tail.best_metric,
              tail.best_state + static_cast<std::uint32_t>(vec_states)};
    }
  }
  return best;
}

template <std::size_t Bytes>
void multires_acs(const double* acc, double* next_acc,
                  const std::uint32_t* pred_state,
                  const std::uint32_t* pred_symbols,
                  const double* scaled_metric_by_pattern,
                  std::uint8_t* survivor_row, double* winning_scaled_metric,
                  std::size_t num_states) {
  constexpr std::size_t W = Bytes / 8;
  using VD = Vec<double, W>;
  const std::size_t vec_states = num_states - num_states % W;
  for (std::size_t s = 0; s < vec_states; s += W) {
    const BranchPair<W> st(pred_state + 2 * s);
    const BranchPair<W> sy(pred_symbols + 2 * s);
    const VD bm0 = gather<VD>(scaled_metric_by_pattern, sy.b0);
    const VD bm1 = gather<VD>(scaled_metric_by_pattern, sy.b1);
    const VD cand0 = gather<VD>(acc, st.b0) + bm0;
    const VD cand1 = gather<VD>(acc, st.b1) + bm1;
    const auto sel = cand1 < cand0;  // tie -> branch 0
    store(next_acc + s, sel ? cand1 : cand0);
    store(winning_scaled_metric + s, sel ? bm1 : bm0);
    store_low_bytes(survivor_row + s, sel & 1);
  }
  if (vec_states != num_states) {
    multires_acs_scalar(acc, next_acc + vec_states,
                        pred_state + 2 * vec_states,
                        pred_symbols + 2 * vec_states, scaled_metric_by_pattern,
                        survivor_row + vec_states,
                        winning_scaled_metric + vec_states,
                        num_states - vec_states);
  }
}

// ---------------------------------------------------------------------------
// Frame-parallel kernels: one state's update across a chunk of lane-major
// frames. Every load is contiguous, so there are no gathers.

template <std::size_t Bytes>
void frame_viterbi_acs(const std::int32_t* acc, std::int32_t* next_acc,
                       const std::uint32_t* pred_state,
                       const std::uint32_t* pred_symbols,
                       const std::int32_t* metric_by_pattern,
                       std::uint8_t* survivor_row, std::size_t num_states,
                       std::size_t lanes, std::int32_t* best_metric,
                       std::uint32_t* best_state) {
  walk_chunks<Bytes / 4>(lanes, [=]<std::size_t N>(std::size_t begin,
                                                   std::size_t end) {
    using VI = Vec<std::int32_t, N>;
    for (std::size_t lc = begin; lc < end; lc += N) {
      VI vbest = VI{} + kMetricMax;
      VI vbest_idx = {};
      VI vs = {};  // s in every element
      for (std::size_t s = 0; s < num_states; ++s, vs += 1) {
        const VI cand0 =
            load<VI>(acc + pred_state[2 * s] * lanes + lc) +
            load<VI>(metric_by_pattern + pred_symbols[2 * s] * lanes + lc);
        const VI cand1 =
            load<VI>(acc + pred_state[2 * s + 1] * lanes + lc) +
            load<VI>(metric_by_pattern + pred_symbols[2 * s + 1] * lanes + lc);
        const VI sel = cand1 < cand0;  // tie -> branch 0
        const VI win = sel ? cand1 : cand0;
        store(next_acc + s * lanes + lc, win);
        store_low_bytes(survivor_row + s * lanes + lc, sel & 1);

        // States are visited in order, so strict < keeps the first minimum.
        const VI better = win < vbest;
        vbest = better ? win : vbest;
        vbest_idx = better ? vs : vbest_idx;
      }
      store(best_metric + lc, vbest);
      store(best_state + lc, vbest_idx);
    }
  });
}

template <std::size_t Bytes>
void frame_multires_acs(const double* acc, double* next_acc,
                        const std::uint32_t* pred_state,
                        const std::uint32_t* pred_symbols,
                        const double* scaled_metric_by_pattern,
                        std::uint8_t* survivor_row,
                        double* winning_scaled_metric, std::size_t num_states,
                        std::size_t lanes) {
  walk_chunks<Bytes / 8>(lanes, [=]<std::size_t N>(std::size_t begin,
                                                   std::size_t end) {
    using VD = Vec<double, N>;
    for (std::size_t lc = begin; lc < end; lc += N) {
      for (std::size_t s = 0; s < num_states; ++s) {
        const VD bm0 = load<VD>(scaled_metric_by_pattern +
                                pred_symbols[2 * s] * lanes + lc);
        const VD bm1 = load<VD>(scaled_metric_by_pattern +
                                pred_symbols[2 * s + 1] * lanes + lc);
        const VD cand0 = load<VD>(acc + pred_state[2 * s] * lanes + lc) + bm0;
        const VD cand1 =
            load<VD>(acc + pred_state[2 * s + 1] * lanes + lc) + bm1;
        const auto sel = cand1 < cand0;  // tie -> branch 0
        store(next_acc + s * lanes + lc, sel ? cand1 : cand0);
        store(winning_scaled_metric + s * lanes + lc, sel ? bm1 : bm0);
        store_low_bytes(survivor_row + s * lanes + lc, sel & 1);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Batch quantization.

template <std::size_t Bytes>
void quantize_block(const double* rx, int* out, std::size_t count,
                    double step, double offset, int max_level) {
  walk_chunks<Bytes / 8>(count, [=]<std::size_t N>(std::size_t begin,
                                                   std::size_t end) {
    using VD = Vec<double, N>;
    const VD top = VD{} + static_cast<double>(max_level);
    const VD zero = {};
    for (std::size_t i = begin; i < end; i += N) {
      const VD scaled = (load<VD>(rx + i) - offset) / step;
      // Min first, so a NaN input lands on the top level as in every tier.
      VD clamped = scaled < top ? scaled : top;
      clamped = clamped > zero ? clamped : zero;
      store(out + i, __builtin_convertvector(clamped, Vec<int, N>));
    }
  });
}

template <Isa Tier, std::size_t Bytes>
constexpr KernelTable kernel_table() {
  return {Tier, viterbi_acs<Bytes>, multires_acs<Bytes>,
          frame_viterbi_acs<Bytes>, frame_multires_acs<Bytes>,
          quantize_block<Bytes>};
}

}  // namespace
}  // namespace metacore::comm::simd::detail
