// AVX-512 tier: the kernels of vector_kernels.hpp at 64-byte registers. Only
// this TU is compiled with -mavx512f, and the dispatcher reaches its table only
// after a CPUID check.
#include "comm/simd/vector_kernels.hpp"

namespace metacore::comm::simd::detail {

constinit const KernelTable avx512_kernels = kernel_table<Isa::Avx512, 64>();

}  // namespace metacore::comm::simd::detail
