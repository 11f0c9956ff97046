// im2col-based 1-D convolution kernels over (B, W, C) sequences.
//
// The naive conv walks (b, t, co, k, ci) with short dot products whose
// serial accumulator chains defeat vectorisation. These kernels instead
// materialise the padded input patches as a matrix once per call —
//
//   col[(b*out_w + t), k*cin + ci] = x_pad[b, t + k - pad_left, ci]
//
// — and reduce all three conv passes to the blocked SGEMM core:
//
//   forward:          y    = col  * W^T   (+ bias)       (rows x cout)
//   backward-input:   dcol = dY   * W,  then col2im-add  (rows x k*cin)
//   backward-weight:  dW   = dY^T * col                  (cout x k*cin)
//
// where W is the (cout, k, cin) weight tensor viewed flat as (cout x k*cin)
// and rows = B*out_w. Scratch (im2col matrix, packed operands, dcol) comes
// from the per-thread pool in scratch.h, so steady-state calls are
// allocation-free.
//
// Determinism: every pass runs on its caller's thread. The GEMMs inherit
// the Sgemm contract; the col2im scatter-add accumulates each batch
// element's disjoint slice of dX in fixed (t, k) order.

#ifndef CAEE_KERNELS_CONV1D_H_
#define CAEE_KERNELS_CONV1D_H_

#include <cstdint>

namespace caee {
namespace kernels {

/// \brief Materialise padded input patches: col is (b*out_w) x (k*cin),
/// densely packed. Rows that fall into the zero padding are zero-filled.
void Im2Col(const float* x, int64_t b, int64_t in_w, int64_t cin, int64_t k,
            int64_t pad_left, int64_t out_w, float* col);

/// \brief Adjoint of Im2Col: scatter-add col (b*out_w) x (k*cin) back into
/// dx (b, in_w, cin). dx must be zero-initialised by the caller.
void Col2ImAdd(const float* col, int64_t b, int64_t in_w, int64_t cin,
               int64_t k, int64_t pad_left, int64_t out_w, float* dx);

/// \brief y[b,t,co] = bias[co] + sum_{k,ci} x_pad[b,t+k,ci] * w[co,k,ci].
/// y is (b, out_w, cout) and is fully overwritten.
void Conv1dForward(const float* x, const float* w, const float* bias,
                   float* y, int64_t b, int64_t in_w, int64_t cin,
                   int64_t cout, int64_t k, int64_t pad_left, int64_t out_w);

/// \brief dX for Conv1dForward; dx (b, in_w, cin) must be zero-initialised.
void Conv1dBackwardInput(const float* dy, const float* w, float* dx,
                         int64_t b, int64_t in_w, int64_t cin, int64_t cout,
                         int64_t k, int64_t pad_left, int64_t out_w);

/// \brief dW for Conv1dForward; dw (cout, k, cin) is fully overwritten.
void Conv1dBackwardWeight(const float* dy, const float* x, float* dw,
                          int64_t b, int64_t in_w, int64_t cin, int64_t cout,
                          int64_t k, int64_t pad_left, int64_t out_w);

}  // namespace kernels
}  // namespace caee

#endif  // CAEE_KERNELS_CONV1D_H_
