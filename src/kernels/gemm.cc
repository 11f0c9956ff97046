#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>

#include "kernels/scratch.h"
#include "kernels/simd.h"

namespace caee {
namespace kernels {

namespace {

// One output row against a packed (kc x kGemmNr) B panel. The accumulator
// array has compile-time extent, so the compiler keeps it in vector
// registers and fully vectorises the j loops; the 4-way k unroll amortises
// loop overhead. Per-element accumulation order is strictly ascending p
// (the unrolled adds into acc[j] stay in program order). `nr` bounds only
// the write-back: ragged edges are computed at full width against the
// zero-padded panel columns and the padding lanes are simply not stored.
inline void MicroRowPanel(int64_t kc, int64_t nr, const float* a,
                          const float* bp, float* c, bool accumulate) {
  float acc[kGemmNr] = {};
  int64_t p = 0;
  for (; p + 4 <= kc; p += 4) {
    const float av0 = a[p];
    const float av1 = a[p + 1];
    const float av2 = a[p + 2];
    const float av3 = a[p + 3];
    const float* b0 = bp + p * kGemmNr;
    for (int64_t j = 0; j < kGemmNr; ++j) {
      acc[j] += av0 * b0[j];
      acc[j] += av1 * b0[kGemmNr + j];
      acc[j] += av2 * b0[2 * kGemmNr + j];
      acc[j] += av3 * b0[3 * kGemmNr + j];
    }
  }
  for (; p < kc; ++p) {
    const float av = a[p];
    const float* brow = bp + p * kGemmNr;
    for (int64_t j = 0; j < kGemmNr; ++j) acc[j] += av * brow[j];
  }
  if (accumulate) {
    for (int64_t j = 0; j < nr; ++j) c[j] += acc[j];
  } else {
    for (int64_t j = 0; j < nr; ++j) c[j] = acc[j];
  }
}

// Pack the (kc x nr) sliver of B into fixed-width kGemmNr rows, zero-filling
// the missing columns of a ragged edge. The fixed width keeps one micro-
// kernel (gcc generates pathological code for narrow packed widths) and the
// zeros never reach real outputs.
inline void PackPanelPadded(const float* b, int64_t ldb, int64_t kc,
                            int64_t nr, float* bp) {
  for (int64_t p = 0; p < kc; ++p) {
    std::memcpy(bp + p * kGemmNr, b + p * ldb,
                static_cast<size_t>(nr) * sizeof(float));
    if (nr < kGemmNr) {
      std::memset(bp + p * kGemmNr + nr, 0,
                  static_cast<size_t>(kGemmNr - nr) * sizeof(float));
    }
  }
}

// Narrow outputs (n < kGemmNr/2) would waste most of the padded panel; fall
// back to the plain axpy loop, whose per-element accumulation order
// (ascending p onto a zeroed row) is bitwise identical to the micro-kernel's.
inline void SgemmNarrow(int64_t m, int64_t n, int64_t k, const float* a,
                        int64_t lda, const float* b, int64_t ldb, float* c,
                        int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    const float* arow = a + i * lda;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

CAEE_MULTIVERSION
void Sgemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
           const float* b, int64_t ldb, float* c, int64_t ldc,
           bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) {
        std::memset(c + i * ldc, 0, static_cast<size_t>(n) * sizeof(float));
      }
    }
    return;
  }
  if (n < kGemmNr / 2) {
    SgemmNarrow(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
    return;
  }
  float* panel = Scratch(kScratchGemmPanel,
                         static_cast<size_t>(kGemmKc) * kGemmNr);
  for (int64_t p0 = 0; p0 < k; p0 += kGemmKc) {
    const int64_t kc = std::min(kGemmKc, k - p0);
    // After the first k-panel the micro-kernels add into C; the per-element
    // order stays "ascending p" because panels advance in order.
    const bool acc_c = accumulate || p0 > 0;
    const float* ap = a + p0;
    const float* bp0 = b + p0 * ldb;
    for (int64_t j0 = 0; j0 < n; j0 += kGemmNr) {
      const int64_t nr = std::min(kGemmNr, n - j0);
      PackPanelPadded(bp0 + j0, ldb, kc, nr, panel);
      for (int64_t i = 0; i < m; ++i) {
        MicroRowPanel(kc, nr, ap + i * lda, panel, c + i * ldc + j0, acc_c);
      }
    }
  }
}

void PackTranspose(const float* src, int64_t rows, int64_t cols, int64_t ld,
                   float* dst) {
  constexpr int64_t kBlock = 32;  // fits two 32x32 float tiles in L1
  for (int64_t i0 = 0; i0 < rows; i0 += kBlock) {
    const int64_t imax = std::min(i0 + kBlock, rows);
    for (int64_t j0 = 0; j0 < cols; j0 += kBlock) {
      const int64_t jmax = std::min(j0 + kBlock, cols);
      for (int64_t i = i0; i < imax; ++i) {
        const float* srow = src + i * ld;
        for (int64_t j = j0; j < jmax; ++j) dst[j * rows + i] = srow[j];
      }
    }
  }
}

}  // namespace kernels
}  // namespace caee
