// SSE4.2 tier: the kernels of vector_kernels.hpp at 16-byte registers. Only
// this TU is compiled with -msse4.2, and the dispatcher reaches its table only
// after a CPUID check.
#include "comm/simd/vector_kernels.hpp"

namespace metacore::comm::simd::detail {

constinit const KernelTable sse4_kernels = kernel_table<Isa::Sse4, 16>();

}  // namespace metacore::comm::simd::detail
