// AVX2 tier: the kernels of vector_kernels.hpp at 32-byte registers. Only
// this TU is compiled with -mavx2, and the dispatcher reaches its table only
// after a CPUID check.
#include "comm/simd/vector_kernels.hpp"

namespace metacore::comm::simd::detail {

constinit const KernelTable avx2_kernels = kernel_table<Isa::Avx2, 32>();

}  // namespace metacore::comm::simd::detail
