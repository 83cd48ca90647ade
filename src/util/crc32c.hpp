// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding every persistence-layer record frame (robust/journal
// and robust/checkpoint). Chosen over CRC32 (IEEE)
// for its better error-detection properties on short records and because
// hardware assists exist everywhere: on x86-64 the SSE4.2 `crc32`
// instruction computes exactly this polynomial, so the dispatcher below
// picks the hardware path at runtime (CPUID) while the portable slice-by-8
// table walk stays the reference — both are bit-identical, so stored
// checksums match on every build and every machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace metacore::util {

/// CRC32C of `data`, with the conventional init/final XOR (0xFFFFFFFF).
/// crc32c("123456789") == 0xE3069283 (the RFC 3720 check value).
///
/// The first call resolves the backend: METACORE_CRC32C if set ("sw" or
/// "hw", throwing on an unknown value or an unavailable "hw"), else the
/// SSE4.2 instruction path when compiled in and the CPU reports sse4.2,
/// else the software table.
std::uint32_t crc32c(const void* data, std::size_t size);

inline std::uint32_t crc32c(std::string_view data) {
  return crc32c(data.data(), data.size());
}

/// The portable slice-by-8 table path — always available; the reference
/// the hardware tier is verified against.
std::uint32_t crc32c_sw(const void* data, std::size_t size) noexcept;

inline std::uint32_t crc32c_sw(std::string_view data) noexcept {
  return crc32c_sw(data.data(), data.size());
}

/// True when the SSE4.2 `crc32` path is compiled into this binary AND the
/// running CPU supports it.
bool crc32c_hw_available() noexcept;

/// Backend the next crc32c() call will use: "hw-sse42" or "sw-slice8".
std::string_view crc32c_backend();

/// Re-point the dispatch for tests and benchmarks: "sw", "hw", or "auto".
/// Throws std::runtime_error if "hw" is requested but unavailable.
void crc32c_force_backend(std::string_view backend);

}  // namespace metacore::util
