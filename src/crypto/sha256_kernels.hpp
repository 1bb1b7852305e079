// The SHA-256 compression kernels behind crypto::Sha256.
//
// Sha256 picks one kernel per process (see Sha256::kernel_name); this header
// exists so the tests can run each kernel directly and check them against
// each other. It is not a way to choose the kernel at run time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace failsig::crypto::detail {

/// Compresses `n` consecutive 64-byte blocks into the eight-word `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

/// The portable C++ kernel; runs on every host.
void compress_portable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

/// The x86 SHA-extensions kernel. Call it only when shani_available().
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

/// True when the CPU reports both SHA (CPUID leaf 7, EBX bit 29) and SSE4.1
/// (leaf 1, ECX bit 19). Always false on non-x86 builds.
bool shani_available();

}  // namespace failsig::crypto::detail
