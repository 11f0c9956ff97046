#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/conv1d.h"
#include "kernels/gemm.h"
#include "kernels/scratch.h"

namespace caee {
namespace ops {

namespace {
void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  CAEE_CHECK_MSG(a.SameShape(b), op << ": shape mismatch "
                                    << ShapeToString(a.shape()) << " vs "
                                    << ShapeToString(b.shape()));
}
}  // namespace

// Elementwise kernels: outputs are fully overwritten, so they use the
// uninitialised-alloc Tensor path, and all loops run over raw pointers with
// simple indices the compiler can vectorise.

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] * s;
  return out;
}

void AxpyInPlace(float alpha, const Tensor& x, Tensor* y) {
  CheckSameShape(x, *y, "Axpy");
  float* py = y->data();
  const float* px = x.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void AddInPlace(const Tensor& x, Tensor* y) {
  CheckSameShape(x, *y, "Add");
  float* py = y->data();
  const float* px = x.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) py[i] += px[i];
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  CAEE_CHECK_MSG(bias.rank() == 1, "bias must be rank-1");
  const int64_t d = bias.dim(0);
  CAEE_CHECK_MSG(x.rank() >= 1 && x.dim(x.rank() - 1) == d,
                 "AddBias: trailing dim " << x.dim(x.rank() - 1) << " != "
                                          << d);
  Tensor out = Tensor::Uninitialized(x.shape());
  const int64_t rows = x.numel() / d;
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xi = px + r * d;
    float* oi = po + r * d;
    for (int64_t j = 0; j < d; ++j) oi[j] = xi[j] + pb[j];
  }
  return out;
}

void AddBiasBackward(const Tensor& dy, Tensor* dbias) {
  const int64_t d = dbias->dim(0);
  CAEE_CHECK(dy.numel() % d == 0);
  const int64_t rows = dy.numel() / d;
  const float* pdy = dy.data();
  float* pdb = dbias->data();
  // Row sums accumulate in double (the policy SquaredErrorPerPosition set):
  // the reduction length is batch*time, where float accumulation loses bits
  // the float32 gradient itself can represent.
  std::vector<double> acc(static_cast<size_t>(d), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = pdy + r * d;
    for (int64_t j = 0; j < d; ++j) acc[static_cast<size_t>(j)] += row[j];
  }
  for (int64_t j = 0; j < d; ++j) {
    pdb[j] += static_cast<float>(acc[static_cast<size_t>(j)]);
  }
}

Tensor Sigmoid(const Tensor& x) {
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = 1.0f / (1.0f + std::exp(-px[i]));
  return out;
}

Tensor Tanh(const Tensor& x) {
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = std::tanh(px[i]);
  return out;
}

Tensor Relu(const Tensor& x) {
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
  return out;
}

Tensor Exp(const Tensor& x) {
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = std::exp(px[i]);
  return out;
}

Tensor Log(const Tensor& x) {
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) {
    CAEE_CHECK_MSG(px[i] > 0.0f, "Log of non-positive value");
    po[i] = std::log(px[i]);
  }
  return out;
}

Tensor SoftmaxLastDim(const Tensor& x) {
  CAEE_CHECK_MSG(x.rank() >= 1, "SoftmaxLastDim needs rank >= 1");
  const int64_t d = x.dim(x.rank() - 1);
  CAEE_CHECK_MSG(d > 0, "SoftmaxLastDim over empty dim");
  Tensor out = Tensor::Uninitialized(x.shape());
  const int64_t rows = x.numel() / d;
  const float* px = x.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xi = px + r * d;
    float* oi = po + r * d;
    float mx = xi[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xi[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      oi[j] = std::exp(xi[j] - mx);
      sum += oi[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t j = 0; j < d; ++j) oi[j] *= inv;
  }
  return out;
}

namespace {

// Canonicalise op(A) to a dense row-major (n x k) operand: either the
// tensor's own storage, or its transpose packed into per-thread scratch.
const float* CanonicalOperand(const Tensor& t, bool trans,
                              kernels::ScratchSlot slot, int64_t* ld) {
  if (!trans) {
    *ld = t.dim(1);
    return t.data();
  }
  float* packed = kernels::Scratch(
      slot, static_cast<size_t>(t.dim(0)) * static_cast<size_t>(t.dim(1)));
  kernels::PackTranspose(t.data(), t.dim(0), t.dim(1), t.dim(1), packed);
  *ld = t.dim(0);
  return packed;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  CAEE_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "MatMul needs rank-2 inputs");
  const int64_t n = trans_a ? a.dim(1) : a.dim(0);
  const int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const int64_t m = trans_b ? b.dim(0) : b.dim(1);
  CAEE_CHECK_MSG(k == kb, "MatMul inner dims mismatch: " << k << " vs " << kb);
  Tensor out = Tensor::Uninitialized(Shape{n, m});
  int64_t lda, ldb;
  const float* pa = CanonicalOperand(a, trans_a, kernels::kScratchPack, &lda);
  const float* pb = CanonicalOperand(b, trans_b, kernels::kScratchStage, &ldb);
  kernels::Sgemm(n, m, k, pa, lda, pb, ldb, out.data(), m);
  return out;
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                     bool trans_b) {
  CAEE_CHECK_MSG(a.rank() == 3 && b.rank() == 3,
                 "BatchedMatMul needs rank-3 inputs");
  CAEE_CHECK_MSG(a.dim(0) == b.dim(0), "batch dims mismatch");
  const int64_t bs = a.dim(0);
  const int64_t n = trans_a ? a.dim(2) : a.dim(1);
  const int64_t k = trans_a ? a.dim(1) : a.dim(2);
  const int64_t kb = trans_b ? b.dim(2) : b.dim(1);
  const int64_t m = trans_b ? b.dim(1) : b.dim(2);
  CAEE_CHECK_MSG(k == kb,
                 "BatchedMatMul inner dims mismatch: " << k << " vs " << kb);
  Tensor out = Tensor::Uninitialized(Shape{bs, n, m});
  const int64_t a_stride = a.dim(1) * a.dim(2);
  const int64_t b_stride = b.dim(1) * b.dim(2);
  const int64_t o_stride = n * m;

  // Transposed operands are packed into the calling thread's scratch, one
  // batch element at a time.
  for (int64_t batch = 0; batch < bs; ++batch) {
    const float* pa = a.data() + batch * a_stride;
    const float* pb = b.data() + batch * b_stride;
    float* po = out.data() + batch * o_stride;
    int64_t lda = a.dim(2), ldb = b.dim(2);
    if (trans_a) {
      float* packed = kernels::Scratch(kernels::kScratchPack,
                                       static_cast<size_t>(a_stride));
      kernels::PackTranspose(pa, a.dim(1), a.dim(2), a.dim(2), packed);
      pa = packed;
      lda = a.dim(1);
    }
    if (trans_b) {
      float* packed = kernels::Scratch(kernels::kScratchStage,
                                       static_cast<size_t>(b_stride));
      kernels::PackTranspose(pb, b.dim(1), b.dim(2), b.dim(2), packed);
      pb = packed;
      ldb = b.dim(1);
    }
    kernels::Sgemm(n, m, k, pa, lda, pb, ldb, po, m);
  }
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  CAEE_CHECK_MSG(a.rank() == 2, "Transpose2D needs rank-2");
  Tensor out = Tensor::Uninitialized(Shape{a.dim(1), a.dim(0)});
  kernels::PackTranspose(a.data(), a.dim(0), a.dim(1), a.dim(1), out.data());
  return out;
}

Tensor Conv1d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int64_t pad_left, int64_t pad_right) {
  CAEE_CHECK_MSG(x.rank() == 3, "Conv1d input must be (B,W,Cin)");
  CAEE_CHECK_MSG(w.rank() == 3, "Conv1d weight must be (Cout,K,Cin)");
  const int64_t b = x.dim(0), in_w = x.dim(1), cin = x.dim(2);
  const int64_t cout = w.dim(0), k = w.dim(1);
  CAEE_CHECK_MSG(w.dim(2) == cin, "Conv1d channel mismatch");
  CAEE_CHECK_MSG(bias.rank() == 1 && bias.dim(0) == cout,
                 "Conv1d bias shape mismatch");
  CAEE_CHECK_MSG(pad_left >= 0 && pad_right >= 0, "negative padding");
  const int64_t out_w = in_w + pad_left + pad_right - k + 1;
  CAEE_CHECK_MSG(out_w >= 1, "Conv1d output length < 1");

  Tensor out = Tensor::Uninitialized(Shape{b, out_w, cout});
  kernels::Conv1dForward(x.data(), w.data(), bias.data(), out.data(), b, in_w,
                         cin, cout, k, pad_left, out_w);
  return out;
}

Tensor Conv1dBackwardInput(const Tensor& dy, const Tensor& w, int64_t in_w,
                           int64_t pad_left) {
  const int64_t b = dy.dim(0), out_w = dy.dim(1), cout = dy.dim(2);
  const int64_t k = w.dim(1), cin = w.dim(2);
  CAEE_CHECK(w.dim(0) == cout);
  Tensor dx(Shape{b, in_w, cin});  // zero-init: col2im accumulates into it
  kernels::Conv1dBackwardInput(dy.data(), w.data(), dx.data(), b, in_w, cin,
                               cout, k, pad_left, out_w);
  return dx;
}

Tensor Conv1dBackwardWeight(const Tensor& dy, const Tensor& x, int64_t kernel,
                            int64_t pad_left) {
  const int64_t b = dy.dim(0), out_w = dy.dim(1), cout = dy.dim(2);
  const int64_t in_w = x.dim(1), cin = x.dim(2);
  CAEE_CHECK(x.dim(0) == b);
  Tensor dw = Tensor::Uninitialized(Shape{cout, kernel, cin});
  kernels::Conv1dBackwardWeight(dy.data(), x.data(), dw.data(), b, in_w, cin,
                                cout, kernel, pad_left, out_w);
  return dw;
}

Tensor Conv1dBackwardBias(const Tensor& dy) {
  const int64_t cout = dy.dim(2);
  Tensor db = Tensor::Uninitialized(Shape{cout});
  const int64_t rows = dy.numel() / cout;
  const float* pdy = dy.data();
  // Double accumulation over the batch*time reduction; see AddBiasBackward.
  std::vector<double> acc(static_cast<size_t>(cout), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = pdy + r * cout;
    for (int64_t c = 0; c < cout; ++c) acc[static_cast<size_t>(c)] += row[c];
  }
  for (int64_t c = 0; c < cout; ++c) {
    db[c] = static_cast<float>(acc[static_cast<size_t>(c)]);
  }
  return db;
}

Tensor ShiftTimeRight(const Tensor& x, int64_t steps) {
  CAEE_CHECK_MSG(x.rank() == 3, "ShiftTimeRight needs (B,W,D)");
  const int64_t b = x.dim(0), w = x.dim(1), d = x.dim(2);
  CAEE_CHECK_MSG(steps >= 0 && steps <= w, "shift out of range");
  Tensor out = Tensor::Uninitialized(x.shape());
  const size_t front = static_cast<size_t>(steps * d);
  const size_t body = static_cast<size_t>((w - steps) * d);
  for (int64_t bb = 0; bb < b; ++bb) {
    float* dst = out.data() + bb * w * d;
    std::memset(dst, 0, front * sizeof(float));
    std::memcpy(dst + front, x.data() + bb * w * d, body * sizeof(float));
  }
  return out;
}

Tensor ShiftTimeRightBackward(const Tensor& dy, int64_t steps) {
  const int64_t b = dy.dim(0), w = dy.dim(1), d = dy.dim(2);
  Tensor dx = Tensor::Uninitialized(dy.shape());
  const size_t tail = static_cast<size_t>(steps * d);
  const size_t body = static_cast<size_t>((w - steps) * d);
  for (int64_t bb = 0; bb < b; ++bb) {
    float* dst = dx.data() + bb * w * d;
    std::memcpy(dst, dy.data() + bb * w * d + tail, body * sizeof(float));
    std::memset(dst + body, 0, tail * sizeof(float));
  }
  return dx;
}

Tensor SliceLastDim(const Tensor& x, int64_t begin, int64_t end) {
  const int64_t d = x.dim(x.rank() - 1);
  CAEE_CHECK_MSG(begin >= 0 && begin < end && end <= d,
                 "SliceLastDim range invalid");
  Shape out_shape = x.shape();
  out_shape.back() = end - begin;
  Tensor out = Tensor::Uninitialized(out_shape);
  const int64_t rows = x.numel() / d;
  const int64_t od = end - begin;
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * od, x.data() + r * d + begin,
                static_cast<size_t>(od) * sizeof(float));
  }
  return out;
}

void SliceLastDimBackward(const Tensor& dy, int64_t begin, Tensor* dx) {
  const int64_t d = dx->dim(dx->rank() - 1);
  const int64_t od = dy.dim(dy.rank() - 1);
  const int64_t rows = dy.numel() / od;
  CAEE_CHECK(dx->numel() / d == rows);
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = dy.data() + r * od;
    float* dst = dx->data() + r * d + begin;
    for (int64_t j = 0; j < od; ++j) dst[j] += src[j];
  }
}

Tensor ConcatLastDim(const Tensor& a, const Tensor& b) {
  CAEE_CHECK_MSG(a.rank() == b.rank(), "ConcatLastDim rank mismatch");
  for (int64_t i = 0; i + 1 < a.rank(); ++i) {
    CAEE_CHECK_MSG(a.dim(i) == b.dim(i), "ConcatLastDim leading dim mismatch");
  }
  const int64_t da = a.dim(a.rank() - 1);
  const int64_t db = b.dim(b.rank() - 1);
  Shape out_shape = a.shape();
  out_shape.back() = da + db;
  Tensor out = Tensor::Uninitialized(out_shape);
  const int64_t rows = a.numel() / da;
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out.data() + r * (da + db);
    std::memcpy(dst, a.data() + r * da, static_cast<size_t>(da) * sizeof(float));
    std::memcpy(dst + da, b.data() + r * db,
                static_cast<size_t>(db) * sizeof(float));
  }
  return out;
}

std::vector<double> SquaredErrorPerPosition(const Tensor& x, const Tensor& y) {
  CAEE_CHECK_MSG(x.SameShape(y), "SquaredErrorPerPosition shape mismatch");
  CAEE_CHECK_MSG(x.rank() == 3, "SquaredErrorPerPosition expects (B,W,D)");
  const int64_t b = x.dim(0), w = x.dim(1), d = x.dim(2);
  std::vector<double> out(static_cast<size_t>(b * w));
  const float* px = x.data();
  const float* py = y.data();
  for (int64_t row = 0; row < b * w; ++row) {
    const float* xr = px + row * d;
    const float* yr = py + row * d;
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double diff = static_cast<double>(xr[j]) - yr[j];
      acc += diff * diff;
    }
    out[static_cast<size_t>(row)] = acc;
  }
  return out;
}

}  // namespace ops
}  // namespace caee
