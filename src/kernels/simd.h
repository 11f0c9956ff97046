// Compiler-level SIMD plumbing for the kernel layer.
//
// The kernels are plain portable C++ — no intrinsics, no pragmas. On
// toolchains that support function multiversioning (gcc on x86-64
// glibc/Linux), CAEE_MULTIVERSION additionally emits an AVX2 clone of the
// annotated function and dispatches via IFUNC at load time, which roughly
// doubles vector width on post-2013 x86. Everywhere else it expands to
// nothing and the portable baseline build is used — including under
// ThreadSanitizer: the IFUNC resolvers of a target_clones function run
// before the TSan runtime is initialised, so an instrumented binary with
// them segfaults at load.
//
// Numerics note: the clone list deliberately enables only "avx2" — NOT
// "fma". Without fused-multiply-add instructions every clone executes the
// same IEEE mul/add sequence, so results are bitwise identical across the
// dispatch targets; a machine's ISA, like its thread count, must not change
// scores.

#ifndef CAEE_KERNELS_SIMD_H_
#define CAEE_KERNELS_SIMD_H_

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__gnu_linux__) && !defined(__SANITIZE_THREAD__)
#define CAEE_MULTIVERSION __attribute__((target_clones("default", "avx2")))
#else
#define CAEE_MULTIVERSION
#endif

#endif  // CAEE_KERNELS_SIMD_H_
