// Single-precision GEMM core for the hot paths (MatMul, BatchedMatMul, and
// the im2col-based Conv1d). One register/cache-blocked kernel, plain
// portable C++ — no intrinsics, no OpenMP pragmas — written so the compiler
// keeps the accumulator panel in vector registers and auto-vectorises the
// inner loop (see simd.h for the optional AVX2 multiversioning).
//
// Shape: GEBP with a packed right-hand panel. The k dimension is cut into
// fixed kGemmKc panels; within a panel, B columns are processed kGemmNr at
// a time, each sliver packed contiguously into per-thread scratch once and
// reused by every output row (the packing also kills the power-of-two-
// stride L1 conflict misses that plague unpacked column slivers). Each
// output row then runs a 1 x kGemmNr register-accumulator micro-kernel over
// the panel.
//
// Determinism contract (load-bearing for the ensemble's bit-reproducibility
// guarantee): the call runs on its caller's thread, and every output
// element is accumulated in ascending-k order within fixed kGemmKc panels
// — the same order the naive loops used. The blocking constants are fixed,
// and column blocking never reassociates (it only groups independent
// outputs), so an output row's result depends on nothing but its own
// inputs: not on m, the thread count, or which other rows share the call.

#ifndef CAEE_KERNELS_GEMM_H_
#define CAEE_KERNELS_GEMM_H_

#include <cstdint>

namespace caee {
namespace kernels {

// Blocking constants (fixed; see determinism contract above). kGemmNr is
// the register accumulator width: 8 SSE / 4 AVX vectors, wide enough to
// hide add latency without spilling, and a divisor of the CAE's channel
// widths (32/64/128) so the padded edge panel is rarely hit. kGemmKc bounds
// the packed B panel (kGemmKc * kGemmNr floats = 32 KB) so it stays
// L1/L2-resident. Ragged column edges are zero-padded inside the packed
// panel and masked on write-back, so one full-width micro-kernel covers
// every shape without reassociating anything (padding columns never touch
// real outputs).
inline constexpr int64_t kGemmNr = 32;
inline constexpr int64_t kGemmKc = 256;

/// \brief C (m x n, leading dim ldc) = A (m x k, lda) * B (k x n, ldb), all
/// row-major, no transposes (callers pack transposed operands first; see
/// PackTranspose). When `accumulate` is true, adds into C instead of
/// overwriting it. Runs on the calling thread and uses its
/// kScratchGemmPanel slot for the packed panel.
void Sgemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
           const float* b, int64_t ldb, float* c, int64_t ldc,
           bool accumulate = false);

/// \brief dst (cols x rows, dense) = transpose of src (rows x cols, leading
/// dim ld). Cache-blocked. Used to canonicalise transposed GEMM operands
/// into scratch so one kernel covers all four transpose combinations.
void PackTranspose(const float* src, int64_t rows, int64_t cols, int64_t ld,
                   float* dst);

}  // namespace kernels
}  // namespace caee

#endif  // CAEE_KERNELS_GEMM_H_
