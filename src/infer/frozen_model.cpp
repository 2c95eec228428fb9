#include "infer/frozen_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/fwd_kernels.h"
#include "tensor/kernels.h"

namespace amdgcnn::infer {

namespace {

/// Positional parameter reader with named shape/dtype validation.  The
/// parameter order is Module::parameters() order: own parameters first, then
/// children depth-first in registration order — fully determined by the
/// ModelConfig (the same contract load_weights relies on).
class ParamReader {
 public:
  ParamReader(const std::vector<ag::Tensor>& params, const models::ModelConfig& cfg)
      : params_(params), cfg_(cfg) {}

  ag::Tensor take(ag::Shape expected, const char* name) {
    if (i_ >= params_.size())
      throw std::runtime_error(prefix() + "ran out of parameters at '" + name +
                               "' (have " + std::to_string(params_.size()) +
                               ")");
    const ag::Tensor& t = params_[i_];
    if (t.shape() != expected)
      throw std::runtime_error(
          prefix() + "parameter " + std::to_string(i_) + " ('" + name +
          "') has shape " + ag::shape_str(t.shape()) + ", expected " +
          ag::shape_str(expected));
    if (t.dtype() != cfg_.dtype)
      throw std::runtime_error(prefix() + "parameter " + std::to_string(i_) +
                               " ('" + name + "') is " +
                               ag::dtype_name(t.dtype()) + ", config says " +
                               ag::dtype_name(cfg_.dtype));
    ++i_;
    return t;
  }

  void expect_count(std::size_t expected) const {
    if (params_.size() != expected)
      throw std::runtime_error(
          prefix() + "model has " + std::to_string(params_.size()) +
          " parameters, config implies " + std::to_string(expected));
  }

 private:
  std::string prefix() const {
    return std::string("FrozenModel(") + models::gnn_kind_name(cfg_.kind) +
           "): ";
  }

  const std::vector<ag::Tensor>& params_;
  const models::ModelConfig& cfg_;
  std::size_t i_ = 0;
};

template <typename T, typename S>
void cast_copy(const std::vector<S>& src, T* dst) {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = static_cast<T>(src[i]);
}

/// Node/edge features at the model width: zero-copy view when the sample was
/// built at the model dtype, arena-backed static_cast copy otherwise (same
/// conversion ops::cast performs at the training model boundary).
template <typename T>
const T* features_at_width(const ag::Tensor& t, Arena& arena) {
  if (t.dtype() == ag::dtype_of_v<T>) return t.data_as<T>().data();
  T* buf = arena.alloc<T>(static_cast<std::size_t>(t.numel()));
  if constexpr (std::is_same_v<T, float>)
    cast_copy(t.data_as<double>(), buf);
  else
    cast_copy(t.data_as<float>(), buf);
  return buf;
}

/// out[oc, j] += bias[oc] over a [channels, len] row-major output.
inline void add_channel_bias(float* out, const float* bias,
                             std::int64_t channels, std::int64_t len) {
  for (std::int64_t oc = 0; oc < channels; ++oc)
    for (std::int64_t j = 0; j < len; ++j) out[oc * len + j] += bias[oc];
}

}  // namespace

// ---- Numerics policies --------------------------------------------------------
//
// forward<N>() states the stage sequence once; a policy N supplies every
// piece of numerics that differs between the exact and the relaxed forward.
// All hooks are static inline functions, resolved at compile time.

/// Exact numerics: weights read in place and the same fwd_kernels.h
/// instantiations the autograd ops run, so the logits are bit-identical to
/// the training forward (DESIGN.md §2.4).
template <typename TT>
struct FrozenModel::Exact {
  using T = TT;
  /// GCN degrees and coefficients stay f64 exactly as in GCNConv; the cast
  /// to T happens per scaled row, matching ops::scale_rows.
  using Coef = double;

  static const T* weight(const Weight& w, Arena&) {
    return w.exact.data_as<T>().data();
  }
  static void heads_dot(const T* x, const T* a, T* out, std::int64_t rows,
                        std::int64_t w, std::int64_t heads) {
    ag::fwd::heads_dot_fwd(x, a, out, rows, w, heads);
  }
  static void segment_softmax(const T* scores, const std::int64_t* seg,
                              T* alpha, std::int64_t e, std::int64_t heads,
                              std::int64_t n, Arena& arena) {
    T* seg_max = arena.alloc<T>(static_cast<std::size_t>(n * heads));
    double* seg_sum = arena.alloc<double>(static_cast<std::size_t>(n * heads));
    std::fill(seg_sum, seg_sum + n * heads, 0.0);
    ag::fwd::segment_softmax_fwd(scores, seg, alpha, seg_max, seg_sum, e,
                                 heads, n);
  }
  static T tanh(T x) { return std::tanh(x); }
  /// The reshape to [1, k*C] is a view of the same row-major buffer; conv1
  /// (kernel == stride == C) reads `pooled` directly.
  static void conv1(const T* pooled, const T* w, const T* b, T* out,
                    std::int64_t cout, std::int64_t k, std::int64_t c) {
    ag::fwd::conv1d_fwd(pooled, w, b, out, 1, k * c, cout, c, c);
  }
  static void conv2(const T* x, const T* w, const T* b, T* out,
                    std::int64_t cin, std::int64_t len, std::int64_t cout,
                    std::int64_t kernel, Arena&) {
    ag::fwd::conv1d_fwd(x, w, b, out, cin, len, cout, kernel, 1);
  }
  static void dense(const T* a, const T* w, const T* b, T* out,
                    std::int64_t k, std::int64_t m) {
    ag::fwd::linear_fwd(a, w, b, out, 1, k, m);
  }
};

/// Relaxed numerics over quantized weights (DESIGN.md §2.7): deterministic
/// per scheme, NOT bit-identical to f32.
///   * each weight is decoded into arena scratch inside the stage's
///     mark/rewind scope, so at most one stage's decoded weights are live
///     at a time (resident weights stay quantized);
///   * tanh and the attention softmax run the polynomial fast_exp/fast_tanh
///     kernels with f32 accumulation — the scalar-libm tanh alone is ~55% of
///     the exact f32 forward, so this is where the ≥2x throughput gate is won.
struct FrozenModel::Relaxed {
  using T = float;
  using Coef = float;  // f32 is enough off the exact path

  static const T* weight(const Weight& w, Arena& arena) {
    float* buf = arena.alloc<float>(static_cast<std::size_t>(w.quant.n));
    w.quant.decode(buf);
    return buf;
  }
  static void heads_dot(const T* x, const T* a, T* out, std::int64_t rows,
                        std::int64_t w, std::int64_t heads) {
    ag::fwd::heads_dot_relaxed(x, a, out, rows, w, heads);
  }
  static void segment_softmax(const T* scores, const std::int64_t* seg,
                              T* alpha, std::int64_t e, std::int64_t heads,
                              std::int64_t n, Arena& arena) {
    T* seg_max = arena.alloc<T>(static_cast<std::size_t>(n * heads));
    T* seg_sum = arena.alloc<T>(static_cast<std::size_t>(n * heads));
    ag::fwd::segment_softmax_relaxed(scores, seg, alpha, seg_max, seg_sum, e,
                                     heads, n);
  }
  static T tanh(T x) { return ag::fwd::fast_tanh(x); }
  /// conv1 has kernel == stride == C, so row oc of the output is exactly
  /// dot(w1_oc, pooled_j) over j — both row-major over the same C.  The
  /// relaxed contract lets this path reorder the accumulation, so use the
  /// lane-accumulated row-dot kernel (~3x the strided conv kernel here).
  static void conv1(const T* pooled, const T* w, const T* b, T* out,
                    std::int64_t cout, std::int64_t k, std::int64_t c) {
    ag::fwd::dot_rows_relaxed(w, pooled, out, cout, k, c);
    add_channel_bias(out, b, cout, k);
  }
  /// conv2 as gather + row-dots: each output column j reads the patch
  /// x[ic][j..j+kernel) for every channel; laying the patches out as rows
  /// matches conv2's (cout x cin*kernel) weight rows, and the row-dot kernel
  /// keeps the short output vectorized.
  static void conv2(const T* x, const T* w, const T* b, T* out,
                    std::int64_t cin, std::int64_t len, std::int64_t cout,
                    std::int64_t kernel, Arena& arena) {
    const std::int64_t lout = len - kernel + 1;
    const std::int64_t pk = cin * kernel;
    T* patches = arena.alloc<T>(static_cast<std::size_t>(lout * pk));
    for (std::int64_t j = 0; j < lout; ++j)
      for (std::int64_t ic = 0; ic < cin; ++ic)
        std::copy_n(x + ic * len + j, kernel, patches + j * pk + ic * kernel);
    ag::fwd::dot_rows_relaxed(w, patches, out, cout, lout, pk);
    add_channel_bias(out, b, cout, lout);
  }
  static void dense(const T* a, const T* w, const T* b, T* out,
                    std::int64_t k, std::int64_t m) {
    ag::fwd::vecmat_relaxed(a, w, b, out, k, m);
  }
};

FrozenModel::FrozenModel(const models::LinkGNN& model,
                         ag::quant::Scheme scheme)
    : config_(model.config()), quant_(scheme) {
  // config() reflects the constructed model, sort_k already clamped.
  const bool attention = config_.kind == models::GnnKind::kAMDGCNN;
  edge_dim_ = attention && config_.use_edge_attr ? config_.edge_attr_dim : 0;
  total_channels_ = config_.num_layers * config_.hidden_dim + 1;
  conv_out_len_ = config_.sort_k / 2 - config_.conv2_kernel + 1;

  const auto params = model.parameters();
  ParamReader reader(params, config_);
  const std::size_t num_mp = static_cast<std::size_t>(config_.num_layers) + 1;
  const std::size_t per_layer = attention ? (edge_dim_ > 0 ? 6 : 4) : 2;
  reader.expect_count(num_mp * per_layer + 8);

  mp_.reserve(num_mp);
  std::int64_t in = config_.node_feature_dim;
  for (std::size_t l = 0; l < num_mp; ++l) {
    const bool last = l + 1 == num_mp;
    MpLayer layer;
    layer.in = in;
    if (attention) {
      layer.heads = last ? 1 : config_.heads;
      layer.out = last ? 1 : config_.hidden_dim;  // heads * head_features
      layer.weight.exact = reader.take({layer.in, layer.out}, "gat.weight");
      layer.a_src.exact = reader.take({1, layer.out}, "gat.a_src");
      layer.a_dst.exact = reader.take({1, layer.out}, "gat.a_dst");
      if (edge_dim_ > 0) {
        layer.edge_weight.exact =
            reader.take({edge_dim_, layer.out}, "gat.edge_weight");
        layer.a_edge.exact = reader.take({1, layer.out}, "gat.a_edge");
      }
      layer.bias.exact = reader.take({1, layer.out}, "gat.bias");
    } else {
      layer.out = last ? 1 : config_.hidden_dim;
      layer.weight.exact = reader.take({layer.in, layer.out}, "gcn.weight");
      layer.bias.exact = reader.take({1, layer.out}, "gcn.bias");
    }
    in = layer.out;
    mp_.push_back(std::move(layer));
  }

  conv1_w_.exact =
      reader.take({config_.conv1_channels, total_channels_}, "conv1.weight");
  conv1_b_.exact = reader.take({config_.conv1_channels}, "conv1.bias");
  conv2_w_.exact = reader.take(
      {config_.conv2_channels, config_.conv1_channels * config_.conv2_kernel},
      "conv2.weight");
  conv2_b_.exact = reader.take({config_.conv2_channels}, "conv2.bias");
  fc1_w_.exact = reader.take(
      {config_.conv2_channels * conv_out_len_, config_.dense_dim}, "fc1.weight");
  fc1_b_.exact = reader.take({1, config_.dense_dim}, "fc1.bias");
  fc2_w_.exact =
      reader.take({config_.dense_dim, config_.num_classes}, "fc2.weight");
  fc2_b_.exact = reader.take({1, config_.num_classes}, "fc2.bias");

  // Quantize-on-freeze re-encodes every validated tensor, then RELEASES the
  // exact handle — the quantized payload is the only resident copy (the
  // shrink gate measures exactly this), and the caller's model can drop its
  // storage.
  const auto freeze = [this](Weight& w) {
    if (!w.exact.defined()) return;  // GAT-only slot of a GCN layer
    if (quant_ != ag::quant::Scheme::kNone) {
      w.quant = ag::quant::quantize_tensor(w.exact, quant_);
      w.exact = ag::Tensor();
      weight_bytes_ += w.quant.resident_bytes();
    } else {
      weight_bytes_ += static_cast<std::size_t>(w.exact.numel()) *
                       ag::dtype_size(w.exact.dtype());
    }
  };
  for (MpLayer& L : mp_)
    for (Weight* w : {&L.weight, &L.bias, &L.a_src, &L.a_dst, &L.edge_weight,
                      &L.a_edge})
      freeze(*w);
  for (Weight* w : {&conv1_w_, &conv1_b_, &conv2_w_, &conv2_b_, &fc1_w_,
                    &fc1_b_, &fc2_w_, &fc2_b_})
    freeze(*w);
}

template <typename N>
const typename N::T* FrozenModel::forward(const seal::SubgraphSample& sample,
                                          Arena& arena) const {
  namespace fwd = ag::fwd;
  namespace kern = ag::kern;
  using T = typename N::T;
  using Coef = typename N::Coef;
  const bool attention = config_.kind == models::GnnKind::kAMDGCNN;

  // ---- Input validation: every gather and scatter below trusts it ---------
  const std::int64_t n = sample.num_nodes;
  ag::check(sample.node_feat.defined() && sample.node_feat.rank() == 2 &&
                sample.node_feat.dim(0) == n,
            "FrozenModel: sample node_feat is not [num_nodes, F]");
  ag::check(sample.node_feat.dim(1) == config_.node_feature_dim,
            "FrozenModel: sample feature width mismatch");
  ag::check(sample.src.size() == sample.dst.size(),
            "FrozenModel: edge array size mismatch");
  const auto in_range = [n](std::int64_t v) { return v >= 0 && v < n; };
  ag::check(std::all_of(sample.src.begin(), sample.src.end(), in_range) &&
                std::all_of(sample.dst.begin(), sample.dst.end(), in_range),
            "FrozenModel: edge endpoint outside [0, num_nodes)");
  const auto e_in = static_cast<std::int64_t>(sample.src.size());
  const std::int64_t e_all = e_in + n;  // self-loops appended per layer
  if (edge_dim_ > 0)
    ag::check(sample.edge_attr.defined() && sample.edge_attr.rank() == 2 &&
                  sample.edge_attr.dim(0) == e_in &&
                  sample.edge_attr.dim(1) == edge_dim_,
              "FrozenModel: edge attribute shape mismatch");

  arena.reset();

  // ---- Pass-lifetime buffers (edges, casts, layer outputs) ----------------
  auto* s = arena.alloc<std::int64_t>(static_cast<std::size_t>(e_all));
  auto* d = arena.alloc<std::int64_t>(static_cast<std::size_t>(e_all));
  std::copy(sample.src.begin(), sample.src.end(), s);
  std::copy(sample.dst.begin(), sample.dst.end(), d);
  for (std::int64_t i = 0; i < n; ++i) {
    s[e_in + i] = i;
    d[e_in + i] = i;
  }

  // GCN normalisation — identical across layers (pure function of the edge
  // list), so computed once here instead of per layer.
  Coef* coef = nullptr;
  if (!attention) {
    Coef* deg = arena.alloc<Coef>(static_cast<std::size_t>(n));
    std::fill(deg, deg + n, Coef(0));
    for (std::int64_t e = 0; e < e_all; ++e) deg[d[e]] += Coef(1);
    coef = arena.alloc<Coef>(static_cast<std::size_t>(e_all));
    for (std::int64_t e = 0; e < e_all; ++e)
      coef[e] = Coef(1) / std::sqrt(deg[s[e]] * deg[d[e]]);
  }

  const T* h = features_at_width<T>(sample.node_feat, arena);
  const T* eattr =
      edge_dim_ > 0 ? features_at_width<T>(sample.edge_attr, arena) : nullptr;

  const std::size_t num_mp = mp_.size();
  auto** outs = arena.alloc<const T*>(num_mp);

  // Runs one read-out stage inside its own scratch scope, so the weights the
  // stage decodes are dropped as soon as it is done.
  const auto scoped = [&arena](auto&& stage) {
    const Arena::Mark m = arena.mark();
    stage();
    arena.rewind(m);
  };

  // ---- Message passing ----------------------------------------------------
  for (std::size_t l = 0; l < num_mp; ++l) {
    const MpLayer& L = mp_[l];
    const std::int64_t w = L.out;
    T* out_l = arena.alloc<T>(static_cast<std::size_t>(n * w));
    const Arena::Mark scratch = arena.mark();

    // x · W — zeroed accumulator + mm_add, exactly ops::matmul.
    T* xw = arena.alloc<T>(static_cast<std::size_t>(n * w));
    std::fill(xw, xw + n * w, T(0));
    kern::mm_add(h, N::weight(L.weight, arena), xw, n, L.in, w);
    const T* bias = N::weight(L.bias, arena);

    if (attention) {
      const std::int64_t heads = L.heads;
      const std::int64_t f = w / heads;
      // Attention logits: <x·W[src], a_src> + <x·W[dst], a_dst>
      // (+ <ea, a_edge>).  A heads_dot's per-row result depends only on
      // the row's values, so the training path's per-EDGE dots over gathered
      // hs/hd rows equal per-NODE dots over xw gathered afterwards as
      // scalars — e_all row-dots and two e_all*w row copies collapse to n
      // row-dots.  The adds land in the same per-element order as the
      // training graph (s1 + s2, then += s3), keeping the sums bit-exact.
      T* nd_src = arena.alloc<T>(static_cast<std::size_t>(n * heads));
      T* nd_dst = arena.alloc<T>(static_cast<std::size_t>(n * heads));
      N::heads_dot(xw, N::weight(L.a_src, arena), nd_src, n, w, heads);
      N::heads_dot(xw, N::weight(L.a_dst, arena), nd_dst, n, w, heads);
      T* scores = arena.alloc<T>(static_cast<std::size_t>(e_all * heads));
      for (std::int64_t r = 0; r < e_all; ++r)
        for (std::int64_t hh = 0; hh < heads; ++hh)
          scores[r * heads + hh] =
              nd_src[s[r] * heads + hh] + nd_dst[d[r] * heads + hh];

      const T* ea = nullptr;  // projected edge attributes, e_in rows
      if (edge_dim_ > 0) {
        // Self-loop rows of the training path's ea are exact zeros, and a
        // heads_dot over a zero row is exactly +0.0, so both the projection
        // and the s3 dot shrink to the e_in real-edge rows; the self-loop
        // tail of s3 is filled with the same +0.0 and still ADDED to the
        // scores (x + 0.0 normalises -0.0 to +0.0, matching the training add
        // bit for bit).
        T* eam = arena.alloc<T>(static_cast<std::size_t>(e_in * w));
        std::fill(eam, eam + e_in * w, T(0));
        kern::mm_add(eattr, N::weight(L.edge_weight, arena), eam, e_in,
                     edge_dim_, w);
        ea = eam;
        T* s3 = arena.alloc<T>(static_cast<std::size_t>(e_all * heads));
        N::heads_dot(eam, N::weight(L.a_edge, arena), s3, e_in, w, heads);
        std::fill(s3 + e_in * heads, s3 + e_all * heads, T(0));
        for (std::int64_t i = 0; i < e_all * heads; ++i)
          scores[i] = scores[i] + s3[i];
      }

      const T slope = static_cast<T>(0.2);
      for (std::int64_t i = 0; i < e_all * heads; ++i)
        scores[i] = scores[i] > T(0) ? scores[i] : slope * scores[i];

      T* alpha = arena.alloc<T>(static_cast<std::size_t>(e_all * heads));
      N::segment_softmax(scores, d, alpha, e_all, heads, n, arena);

      // Messages in one fused pass: the training path materialises the hs
      // gather, the payload add (hs + ea) and the heads_scale product as
      // three e_all*w arrays; each element here runs the SAME single add
      // followed by the SAME single multiply ((a + b) * s has no contractible
      // mul-add pair, so the two roundings survive any FMA policy) — reading
      // xw rows in place and writing only the scaled message.  Self-loop
      // rows add the training path's literal +0.0 edge contribution.
      T* msg = arena.alloc<T>(static_cast<std::size_t>(e_all * w));
      for (std::int64_t r = 0; r < e_all; ++r) {
        const T* row = xw + s[r] * w;
        const T* erow = (ea != nullptr && r < e_in) ? ea + r * w : nullptr;
        for (std::int64_t hh = 0; hh < heads; ++hh) {
          const T sc = alpha[r * heads + hh];
          const std::int64_t base = hh * f;
          T* mrow = msg + r * w + base;
          if (ea != nullptr) {
            if (erow != nullptr)
              for (std::int64_t c = 0; c < f; ++c)
                mrow[c] = (row[base + c] + erow[base + c]) * sc;
            else
              for (std::int64_t c = 0; c < f; ++c)
                mrow[c] = (row[base + c] + T(0)) * sc;
          } else {
            for (std::int64_t c = 0; c < f; ++c) mrow[c] = row[base + c] * sc;
          }
        }
      }
      fwd::scatter_add_bias_fwd(msg, d, e_all, n, w, bias, out_l);
    } else {
      // gather_rows + scale_rows fused: one copy-multiply per element, the
      // same single FP multiply the two-op training path performs.
      T* msg = arena.alloc<T>(static_cast<std::size_t>(e_all * w));
      for (std::int64_t r = 0; r < e_all; ++r) {
        const T cf = static_cast<T>(coef[r]);
        const T* row = xw + s[r] * w;
        for (std::int64_t c = 0; c < w; ++c) msg[r * w + c] = row[c] * cf;
      }
      fwd::scatter_add_bias_fwd(msg, d, e_all, n, w, bias, out_l);
    }

    for (std::int64_t i = 0; i < n * w; ++i) out_l[i] = N::tanh(out_l[i]);
    arena.rewind(scratch);  // drop everything but the layer output
    outs[l] = out_l;
    h = out_l;
  }

  // ---- Concat + SortPooling -----------------------------------------------
  const std::int64_t C = total_channels_;
  T* z = arena.alloc<T>(static_cast<std::size_t>(n * C));
  std::int64_t col_off = 0;
  for (std::size_t l = 0; l < num_mp; ++l) {
    const std::int64_t w = mp_[l].out;
    for (std::int64_t r = 0; r < n; ++r)
      std::copy_n(outs[l] + r * w, w, z + r * C + col_off);
    col_off += w;
  }

  const std::int64_t k = config_.sort_k;
  auto* perm = arena.alloc<std::int64_t>(static_cast<std::size_t>(n));
  const std::int64_t keep = fwd::sort_perm_topk(z, n, C, k, perm);
  T* pooled = arena.alloc<T>(static_cast<std::size_t>(k * C));
  std::fill(pooled, pooled + k * C, T(0));
  for (std::int64_t r = 0; r < keep; ++r)
    std::copy_n(z + perm[r] * C, C, pooled + r * C);

  // ---- Conv read-out ------------------------------------------------------
  const std::int64_t c1n = config_.conv1_channels;
  const std::int64_t c2n = config_.conv2_channels;
  T* c1 = arena.alloc<T>(static_cast<std::size_t>(c1n * k));
  scoped([&] {
    N::conv1(pooled, N::weight(conv1_w_, arena), N::weight(conv1_b_, arena),
             c1, c1n, k, C);
  });
  for (std::int64_t i = 0; i < c1n * k; ++i) c1[i] = c1[i] > T(0) ? c1[i] : T(0);

  const std::int64_t lp = (k - 2) / 2 + 1;
  T* p1 = arena.alloc<T>(static_cast<std::size_t>(c1n * lp));
  auto* argmax = arena.alloc<std::int64_t>(static_cast<std::size_t>(c1n * lp));
  fwd::max_pool1d_fwd(c1, p1, argmax, c1n, k, 2, 2);

  T* c2 = arena.alloc<T>(static_cast<std::size_t>(c2n * conv_out_len_));
  scoped([&] {
    N::conv2(p1, N::weight(conv2_w_, arena), N::weight(conv2_b_, arena), c2,
             c1n, lp, c2n, config_.conv2_kernel, arena);
  });
  for (std::int64_t i = 0; i < c2n * conv_out_len_; ++i)
    c2[i] = c2[i] > T(0) ? c2[i] : T(0);

  // ---- Classifier ---------------------------------------------------------
  // Flatten is again a view; eval-mode dropout multiplies by exactly 1.0
  // (bitwise identity), so it is elided.
  T* hidden = arena.alloc<T>(static_cast<std::size_t>(config_.dense_dim));
  scoped([&] {
    N::dense(c2, N::weight(fc1_w_, arena), N::weight(fc1_b_, arena), hidden,
             c2n * conv_out_len_, config_.dense_dim);
  });
  for (std::int64_t i = 0; i < config_.dense_dim; ++i)
    hidden[i] = hidden[i] > T(0) ? hidden[i] : T(0);

  T* logits = arena.alloc<T>(static_cast<std::size_t>(config_.num_classes));
  scoped([&] {
    N::dense(hidden, N::weight(fc2_w_, arena), N::weight(fc2_b_, arena),
             logits, config_.dense_dim, config_.num_classes);
  });
  return logits;
}

template <typename N>
void FrozenModel::run(const seal::SubgraphSample& sample, Arena& arena,
                      bool proba, double* out) const {
  using T = typename N::T;
  const std::int64_t c = config_.num_classes;
  const T* result = forward<N>(sample, arena);
  if (proba) {
    // Exact f64-normalised softmax for every policy: the tiny [1, C] softmax
    // costs nothing next to the forward.
    T* pr = arena.alloc<T>(static_cast<std::size_t>(c));
    ag::fwd::softmax_rows_fwd(result, pr, 1, c);
    result = pr;
  }
  // Same widening Trainer::predict_proba applies via Tensor::item().
  for (std::int64_t j = 0; j < c; ++j) out[j] = static_cast<double>(result[j]);
}

void FrozenModel::dispatch(const seal::SubgraphSample& sample, Arena& arena,
                           bool proba, double* out) const {
  if (quant_ != ag::quant::Scheme::kNone)
    run<Relaxed>(sample, arena, proba, out);
  else if (config_.dtype == ag::Dtype::f32)
    run<Exact<float>>(sample, arena, proba, out);
  else
    run<Exact<double>>(sample, arena, proba, out);
}

void FrozenModel::forward_logits(const seal::SubgraphSample& sample,
                                 Arena& arena, double* out) const {
  dispatch(sample, arena, /*proba=*/false, out);
}

void FrozenModel::predict_proba(const seal::SubgraphSample& sample,
                                Arena& arena, double* out) const {
  dispatch(sample, arena, /*proba=*/true, out);
}

void FrozenModel::warm_up(Arena& arena, std::int64_t max_nodes,
                          std::int64_t max_edges) const {
  seal::SubgraphSample sample;
  sample.num_nodes = std::max<std::int64_t>(max_nodes, 2);
  sample.node_feat = ag::Tensor::zeros(
      {sample.num_nodes, config_.node_feature_dim}, config_.dtype);
  const std::int64_t e = std::max<std::int64_t>(max_edges, 0);
  sample.src.resize(static_cast<std::size_t>(e));
  sample.dst.resize(static_cast<std::size_t>(e));
  for (std::int64_t i = 0; i < e; ++i) {
    sample.src[i] = i % sample.num_nodes;
    sample.dst[i] = (i + 1) % sample.num_nodes;
  }
  if (edge_dim_ > 0)
    sample.edge_attr = ag::Tensor::zeros({e, edge_dim_}, config_.dtype);

  std::vector<double> sink(static_cast<std::size_t>(config_.num_classes));
  forward_logits(sample, arena, sink.data());
  arena.reset();  // coalesce now so real queries start on one block
}

}  // namespace amdgcnn::infer
