#include "infer/plan.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "kernels/conv1d.h"
#include "kernels/gemm.h"
#include "kernels/scratch.h"

namespace caee {
namespace infer {

namespace {

// ---------------------------------------------------------------------------
// Raw-buffer twins of the forward kernels in tensor_ops.cc. Each loop is the
// same per-element expression over the same operands in the same order, so
// the results carry the same bits; in-place forms read each element before
// overwriting it. Any change here must keep that pairing intact — the
// plan-vs-autograd identity tests (tests/infer_plan_test.cc) enforce it with
// EXPECT_EQ on doubles.
// ---------------------------------------------------------------------------

// ops::Sigmoid.
void SigmoidInPlace(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

// ops::Mul — dst = dst ⊙ src.
void MulInPlace(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = dst[i] * src[i];
}

// ops::Add — dst = dst + src.
void AddInPlace(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = dst[i] + src[i];
}

// ops::AddBias — x (rows, d) += bias (d), broadcast over rows.
void AddBiasInPlace(float* x, const float* bias, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    float* xi = x + r * d;
    for (int64_t j = 0; j < d; ++j) xi[j] = xi[j] + bias[j];
  }
}

// nn::Apply — ops::Relu / ops::Tanh / ops::Sigmoid / identity.
void ApplyInPlace(nn::Activation act, float* x, int64_t n) {
  switch (act) {
    case nn::Activation::kIdentity:
      break;
    case nn::Activation::kRelu:
      for (int64_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
      break;
    case nn::Activation::kTanh:
      for (int64_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      break;
    case nn::Activation::kSigmoid:
      SigmoidInPlace(x, n);
      break;
  }
}

// ops::SoftmaxLastDim over (rows, d), in place (each row element is read
// before it is written).
void SoftmaxLastDimInPlace(float* x, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    float* xi = x + r * d;
    float mx = xi[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xi[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      xi[j] = std::exp(xi[j] - mx);
      sum += xi[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t j = 0; j < d; ++j) xi[j] *= inv;
  }
}

// ops::ShiftTimeRight with steps = 1 (the decoder input shift).
void ShiftTimeRightOne(const float* x, int64_t b, int64_t w, int64_t d,
                       float* out) {
  const size_t front = static_cast<size_t>(d);
  const size_t body = static_cast<size_t>((w - 1) * d);
  for (int64_t bb = 0; bb < b; ++bb) {
    float* dst = out + bb * w * d;
    std::memset(dst, 0, front * sizeof(float));
    std::memcpy(dst + front, x + bb * w * d, body * sizeof(float));
  }
}

// ops::Conv1d minus the output allocation: same kernels::Conv1dForward
// call, same padding resolution as Conv1dLayer::Forward.
void RunConv(const ConvStep& conv, const float* in, int64_t b, int64_t w,
             float* out) {
  const int64_t out_w = w + conv.pad_left + conv.pad_right - conv.k + 1;
  CAEE_CHECK_MSG(out_w == w,
                 "plan conv must preserve the window length, got " << out_w
                                                                   << " vs "
                                                                   << w);
  kernels::Conv1dForward(in, conv.weight, conv.bias, out, b, w, conv.cin,
                         conv.cout, conv.k, conv.pad_left, out_w);
}

// ops::BatchedMatMul(a, b, false, true): a (bs, n, k) * b (bs, m, k)^T ->
// c (bs, n, m). Same per-batch PackTranspose-into-scratch + Sgemm.
void BatchedMatMulTransB(const float* a, const float* b, int64_t bs,
                         int64_t n, int64_t k, int64_t m, float* c) {
  float* packed =
      kernels::Scratch(kernels::kScratchStage, static_cast<size_t>(m * k));
  for (int64_t batch = 0; batch < bs; ++batch) {
    kernels::PackTranspose(b + batch * m * k, m, k, k, packed);
    kernels::Sgemm(n, m, k, a + batch * n * k, k, packed, m, c + batch * n * m,
                   m);
  }
}

// ops::BatchedMatMul(a, b, false, false): a (bs, n, k) * b (bs, k, m).
void BatchedMatMulPlain(const float* a, const float* b, int64_t bs, int64_t n,
                        int64_t k, int64_t m, float* c) {
  for (int64_t batch = 0; batch < bs; ++batch) {
    kernels::Sgemm(n, m, k, a + batch * n * k, k, b + batch * k * m, m,
                   c + batch * n * m, m);
  }
}

// ops::Transpose2D of a (rows, cols) weight into a plan-owned tensor.
Tensor PackWeightTranspose(const Tensor& w) {
  CAEE_CHECK_MSG(w.rank() == 2, "packed weight must be rank-2");
  Tensor packed = Tensor::Uninitialized(Shape{w.dim(1), w.dim(0)});
  kernels::PackTranspose(w.data(), w.dim(0), w.dim(1), w.dim(1),
                         packed.data());
  return packed;
}

}  // namespace

ConvStep MakeConvStep(const nn::Conv1dLayer& layer) {
  ConvStep step;
  const Tensor& w = layer.weight()->value();
  step.weight = w.data();
  step.bias = layer.bias()->value().data();
  step.cout = w.dim(0);
  step.k = w.dim(1);
  step.cin = w.dim(2);
  // Same padding resolution as Conv1dLayer::Forward.
  switch (layer.padding()) {
    case nn::Padding::kNone:
      break;
    case nn::Padding::kSame:
      step.pad_left = (step.k - 1) / 2;
      step.pad_right = step.k - 1 - step.pad_left;
      break;
    case nn::Padding::kCausal:
      step.pad_left = step.k - 1;
      break;
  }
  return step;
}

CaePlan::CaePlan(int64_t embed_dim, size_t slot_base)
    : embed_dim_(embed_dim), slot_base_(slot_base) {
  CAEE_CHECK_MSG(embed_dim_ >= 1, "embed_dim must be >= 1");
}

void CaePlan::AddEncoderLayer(ConvStep glu_a1, ConvStep glu_a2, ConvStep conv,
                              nn::Activation act) {
  encoder_.push_back(Layer{glu_a1, glu_a2, conv, act, false, Tensor(),
                           nullptr});
}

void CaePlan::AddDecoderLayer(ConvStep glu_a1, ConvStep glu_a2, ConvStep conv,
                              nn::Activation act) {
  decoder_.push_back(Layer{glu_a1, glu_a2, conv, act, false, Tensor(),
                           nullptr});
}

void CaePlan::SetDecoderAttention(size_t layer, const Tensor& z_weight,
                                  const float* z_bias) {
  CAEE_CHECK_MSG(layer < decoder_.size(), "attention layer out of range");
  Layer& l = decoder_[layer];
  l.has_attention = true;
  l.z_wt = PackWeightTranspose(z_weight);
  l.z_bias = z_bias;
}

void CaePlan::SetHead(ConvStep glu_a1, ConvStep glu_a2, ConvStep conv,
                      nn::Activation recon_act) {
  head_ = Layer{glu_a1, glu_a2, conv, recon_act, false, Tensor(), nullptr};
  has_head_ = true;
}

void CaePlan::ReserveArena(int64_t batch, int64_t w, Arena* arena) const {
  // The shape walk: every activation is (batch, w, embed_dim) except the
  // attention score matrix, which is (batch, w, w). Sizing each slot to its
  // walk maximum up front means Execute's Slot calls never grow a buffer.
  const size_t nd = static_cast<size_t>(batch * w * embed_dim_);
  const size_t nl = static_cast<size_t>(batch * w * w);
  for (size_t s = 0; s < 4; ++s) arena->Slot(slot_base_ + s, nd);
  arena->Slot(slot_base_ + 4, nl);
  for (size_t l = 0; l < encoder_.size(); ++l) {
    arena->Slot(slot_base_ + 5 + l, nd);
  }
}

void CaePlan::Execute(const float* x, int64_t batch, int64_t w, Arena* arena,
                      float* out) const {
  CAEE_CHECK_MSG(has_head_ && !encoder_.empty() &&
                     encoder_.size() == decoder_.size(),
                 "plan is incomplete");
  CAEE_CHECK_MSG(batch >= 1 && w >= 1, "bad plan execution shape");
  ReserveArena(batch, w, arena);
  const int64_t nd = batch * w * embed_dim_;

  // Slot map (see num_slots()): t0/t1 are GLU temporaries, ping/pong hold
  // the evolving decoder state, `scores` the attention matrix, enc_base+l
  // the retained encoder state of layer l. Repeated Slot calls with the
  // already-reserved size return the same pointer without touching the
  // buffer, so encoder states are re-borrowed by index instead of being
  // stored across phases.
  const size_t t0 = slot_base_ + 0;
  const size_t t1 = slot_base_ + 1;
  const size_t ping = slot_base_ + 2;
  const size_t pong = slot_base_ + 3;
  const size_t scores = slot_base_ + 4;
  const size_t enc_base = slot_base_ + 5;
  const size_t nd_sz = static_cast<size_t>(nd);

  // Encoder (Eq. 3): e <- f_E(conv(GLU(e))) + e, states retained per layer.
  const float* e = x;
  for (size_t l = 0; l < encoder_.size(); ++l) {
    const Layer& layer = encoder_[l];
    float* a1 = arena->Slot(t0, nd_sz);
    RunConv(layer.glu_a1, e, batch, w, a1);
    float* a2 = arena->Slot(t1, nd_sz);
    RunConv(layer.glu_a2, e, batch, w, a2);
    SigmoidInPlace(a2, nd);
    MulInPlace(a1, a2, nd);  // GLU: A1 ⊙ σ(A2)
    float* es = arena->Slot(enc_base + l, nd_sz);
    RunConv(layer.conv, a1, batch, w, es);
    ApplyInPlace(layer.act, es, nd);
    AddInPlace(es, e, nd);  // skip connection
    e = es;
  }

  // Decoder input: PAD, x1, ..., x_{w-1}. The evolving decoder state
  // ping-pongs between two slots: every producing step writes into `spare`
  // and the slots swap roles, so the previous state stays readable for the
  // residual add.
  size_t d_slot = ping, spare = pong;
  float* d = arena->Slot(d_slot, nd_sz);
  ShiftTimeRightOne(x, batch, w, embed_dim_, d);

  for (size_t l = 0; l < decoder_.size(); ++l) {
    const Layer& layer = decoder_[l];
    float* a1 = arena->Slot(t0, nd_sz);
    RunConv(layer.glu_a1, d, batch, w, a1);
    float* a2 = arena->Slot(t1, nd_sz);
    RunConv(layer.glu_a2, d, batch, w, a2);
    SigmoidInPlace(a2, nd);
    MulInPlace(a1, a2, nd);
    const float* es = arena->Slot(enc_base + l, nd_sz);
    float* h = arena->Slot(spare, nd_sz);
    RunConv(layer.conv, a1, batch, w, h);
    AddInPlace(h, es, nd);          // Eq. 6: + E^(l), pre-activation
    ApplyInPlace(layer.act, h, nd);
    AddInPlace(h, d, nd);           // skip connection
    std::swap(d_slot, spare);
    d = h;

    if (layer.has_attention) {
      // z = W_z d + b_z, via the pre-packed transpose (ops::MatMul bits).
      float* z = arena->Slot(t0, nd_sz);
      kernels::Sgemm(batch * w, embed_dim_, embed_dim_, d, embed_dim_,
                     layer.z_wt.data(), embed_dim_, z, embed_dim_);
      if (layer.z_bias != nullptr) {
        AddBiasInPlace(z, layer.z_bias, batch * w, embed_dim_);
      }
      // α = softmax(z e^T), c = α e, d <- c + d (Sec 3.1.4).
      float* alpha = arena->Slot(scores, static_cast<size_t>(batch * w * w));
      BatchedMatMulTransB(z, es, batch, w, embed_dim_, w, alpha);
      SoftmaxLastDimInPlace(alpha, batch * w, w);
      float* context = arena->Slot(spare, nd_sz);
      BatchedMatMulPlain(alpha, es, batch, w, w, embed_dim_, context);
      AddInPlace(context, d, nd);
      std::swap(d_slot, spare);
      d = context;
    }
  }

  // Reconstruction head (Sec. 3.1.5), written straight into the caller's
  // output buffer.
  float* a1 = arena->Slot(t0, nd_sz);
  RunConv(head_.glu_a1, d, batch, w, a1);
  float* a2 = arena->Slot(t1, nd_sz);
  RunConv(head_.glu_a2, d, batch, w, a2);
  SigmoidInPlace(a2, nd);
  MulInPlace(a1, a2, nd);
  RunConv(head_.conv, a1, batch, w, out);
  ApplyInPlace(head_.act, out, nd);
}

EmbeddingPlan EmbeddingPlan::Compile(const nn::WindowEmbedding& embedding) {
  EmbeddingPlan plan;
  plan.input_dim_ = embedding.input_dim();
  plan.embed_dim_ = embedding.embed_dim();
  plan.window_ = embedding.window();
  plan.obs_wt_ = PackWeightTranspose(embedding.obs().weight()->value());
  plan.obs_bias_ = embedding.obs().bias() != nullptr
                       ? embedding.obs().bias()->value().data()
                       : nullptr;
  plan.obs_act_ = embedding.obs_act();
  // Constant-fold the position branch by running it through the REAL graph
  // ops once — the folded table carries exactly the bits the autograd path
  // recomputes per call.
  ag::Var p = nn::Apply(
      embedding.pos_act(),
      embedding.pos().Forward(ag::Constant(embedding.positions())));
  plan.pos_ = p->value();  // (window, embed_dim)
  return plan;
}

void EmbeddingPlan::Execute(const float* s, int64_t batch, float* out) const {
  const int64_t rows = batch * window_;
  // v = f_s(W_v s + b_v): same Sgemm the graph path's ops::MatMul runs,
  // against the pre-packed W^T.
  kernels::Sgemm(rows, embed_dim_, input_dim_, s, input_dim_, obs_wt_.data(),
                 embed_dim_, out, embed_dim_);
  if (obs_bias_ != nullptr) {
    AddBiasInPlace(out, obs_bias_, rows, embed_dim_);
  }
  ApplyInPlace(obs_act_, out, rows * embed_dim_);
  // x = v + p (ops::Add against the BroadcastBatch-tiled table).
  const float* pos = pos_.data();
  for (int64_t r = 0; r < rows; ++r) {
    float* oi = out + r * embed_dim_;
    const float* pi = pos + (r % window_) * embed_dim_;
    for (int64_t j = 0; j < embed_dim_; ++j) oi[j] = oi[j] + pi[j];
  }
}

}  // namespace infer
}  // namespace caee
