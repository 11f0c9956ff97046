#include "kernels/conv1d.h"

#include <algorithm>
#include <cstring>

#include "kernels/gemm.h"
#include "kernels/scratch.h"

namespace caee {
namespace kernels {

void Im2Col(const float* x, int64_t b, int64_t in_w, int64_t cin, int64_t k,
            int64_t pad_left, int64_t out_w, float* col) {
  const int64_t row_len = k * cin;
  const int64_t rows = b * out_w;
  // For a fixed output position t the k patch rows are CONSECUTIVE time
  // steps of x, so each col row is one contiguous memcpy clipped against
  // the padding, plus zero fill at the clipped ends.
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t bb = r / out_w;
    const int64_t t = r % out_w;
    float* dst = col + r * row_len;
    const int64_t start = t - pad_left;  // first source time step
    const int64_t lo = std::max<int64_t>(start, 0);
    const int64_t hi = std::min<int64_t>(start + k, in_w);
    const int64_t copy = std::max<int64_t>(hi - lo, 0);
    const int64_t front = copy > 0 ? (lo - start) : k;
    std::memset(dst, 0, static_cast<size_t>(front * cin) * sizeof(float));
    if (copy > 0) {
      std::memcpy(dst + front * cin, x + (bb * in_w + lo) * cin,
                  static_cast<size_t>(copy * cin) * sizeof(float));
      const int64_t back = k - front - copy;
      std::memset(dst + (front + copy) * cin, 0,
                  static_cast<size_t>(back * cin) * sizeof(float));
    }
  }
}

void Col2ImAdd(const float* col, int64_t b, int64_t in_w, int64_t cin,
               int64_t k, int64_t pad_left, int64_t out_w, float* dx) {
  const int64_t row_len = k * cin;
  // Each batch element owns a disjoint (in_w, cin) slice of dx and
  // accumulates its contributions in fixed (t, k) order.
  for (int64_t bb = 0; bb < b; ++bb) {
    float* dxb = dx + bb * in_w * cin;
    const float* colb = col + bb * out_w * row_len;
    for (int64_t t = 0; t < out_w; ++t) {
      const float* crow = colb + t * row_len;
      const int64_t start = t - pad_left;
      const int64_t lo = std::max<int64_t>(start, 0);
      const int64_t hi = std::min<int64_t>(start + k, in_w);
      for (int64_t src = lo; src < hi; ++src) {
        const float* cchunk = crow + (src - start) * cin;
        float* dxrow = dxb + src * cin;
        for (int64_t ci = 0; ci < cin; ++ci) dxrow[ci] += cchunk[ci];
      }
    }
  }
}

void Conv1dForward(const float* x, const float* w, const float* bias,
                   float* y, int64_t b, int64_t in_w, int64_t cin,
                   int64_t cout, int64_t k, int64_t pad_left, int64_t out_w) {
  const int64_t rows = b * out_w;
  if (rows <= 0) return;
  const int64_t row_len = k * cin;
  float* col = Scratch(kScratchIm2Col,
                       static_cast<size_t>(rows) * static_cast<size_t>(row_len));
  Im2Col(x, b, in_w, cin, k, pad_left, out_w, col);
  // Pack W^T once: (k*cin) x cout, so the GEMM streams both operands
  // row-major.
  float* wt = Scratch(kScratchPack, static_cast<size_t>(row_len) *
                                        static_cast<size_t>(cout));
  PackTranspose(w, cout, row_len, row_len, wt);
  Sgemm(rows, cout, row_len, col, row_len, wt, cout, y, cout,
        /*accumulate=*/false);
  for (int64_t r = 0; r < rows; ++r) {
    float* yrow = y + r * cout;
    for (int64_t co = 0; co < cout; ++co) yrow[co] += bias[co];
  }
}

void Conv1dBackwardInput(const float* dy, const float* w, float* dx,
                         int64_t b, int64_t in_w, int64_t cin, int64_t cout,
                         int64_t k, int64_t pad_left, int64_t out_w) {
  const int64_t rows = b * out_w;
  if (rows <= 0) return;
  const int64_t row_len = k * cin;
  // dcol = dY (rows x cout) * W (cout x k*cin): W's flat layout is already
  // the right-hand operand, no packing needed.
  float* dcol = Scratch(kScratchStage, static_cast<size_t>(rows) *
                                           static_cast<size_t>(row_len));
  Sgemm(rows, row_len, cout, dy, cout, w, row_len, dcol, row_len,
        /*accumulate=*/false);
  Col2ImAdd(dcol, b, in_w, cin, k, pad_left, out_w, dx);
}

void Conv1dBackwardWeight(const float* dy, const float* x, float* dw,
                          int64_t b, int64_t in_w, int64_t cin, int64_t cout,
                          int64_t k, int64_t pad_left, int64_t out_w) {
  const int64_t rows = b * out_w;
  const int64_t row_len = k * cin;
  if (rows <= 0) {
    std::memset(dw, 0,
                static_cast<size_t>(cout * row_len) * sizeof(float));
    return;
  }
  float* col = Scratch(kScratchIm2Col,
                       static_cast<size_t>(rows) * static_cast<size_t>(row_len));
  Im2Col(x, b, in_w, cin, k, pad_left, out_w, col);
  float* dyt =
      Scratch(kScratchPack, static_cast<size_t>(cout) * static_cast<size_t>(rows));
  PackTranspose(dy, rows, cout, cout, dyt);
  // dW = dY^T (cout x rows) * col (rows x k*cin); the k-dimension is the
  // batch*time reduction, blocked by kGemmKc in fixed ascending order.
  Sgemm(cout, row_len, rows, dyt, rows, col, row_len, dw, row_len,
        /*accumulate=*/false);
}

}  // namespace kernels
}  // namespace caee
