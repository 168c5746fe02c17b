#include "nn/per_example.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/thread_pool.h"
#include "nn/grad_utils.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "tensor/im2col.h"

namespace fedcl::nn {

namespace t = fedcl::tensor;
using tensor::ConvSpec;
using tensor::Shape;
using tensor::list::PerExampleGrads;

namespace {

enum class NodeKind {
  kLinear,
  kConv,
  kAvgPool,
  kFlatten,
  kInputScale,
  kActivation,
  kUnsupported,
};

NodeKind classify(const Layer& layer) {
  if (dynamic_cast<const Linear*>(&layer) != nullptr) return NodeKind::kLinear;
  if (dynamic_cast<const Conv2d*>(&layer) != nullptr) return NodeKind::kConv;
  if (dynamic_cast<const AvgPool2d*>(&layer) != nullptr)
    return NodeKind::kAvgPool;
  if (dynamic_cast<const Flatten*>(&layer) != nullptr)
    return NodeKind::kFlatten;
  if (dynamic_cast<const InputScale*>(&layer) != nullptr)
    return NodeKind::kInputScale;
  if (dynamic_cast<const ActivationLayer*>(&layer) != nullptr)
    return NodeKind::kActivation;
  return NodeKind::kUnsupported;
}

// One forward step's cached state — exactly what its backward needs.
struct TapeNode {
  NodeKind kind = NodeKind::kUnsupported;
  const Layer* layer = nullptr;  // borrowed from the model
  std::size_t weight_index = 0;  // param index of W (Linear/Conv)
  Tensor weight;                 // W (Linear/Conv dX)
  Shape in_shape;                // input shape (pool/flatten dX)
  Tensor input;                  // Linear: input activations
  Tensor output;                 // Activation: f(x) for f'
  Tensor cols;                   // Conv: im2col of the input
  ConvSpec spec;                 // Conv geometry
};

void add_bias_rows_(Tensor& y, const Tensor& bias) {
  const std::int64_t c = bias.numel();
  const std::int64_t rows = y.numel() / c;
  float* p = y.data();
  const float* b = bias.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < c; ++j) p[r * c + j] += b[j];
  }
}


// g * sigma'(a) for the activation at input a, written from its output
// y with the oracle's arithmetic: relu g * mask (y > 0 exactly where the
// input is), sigmoid g * (y * (1 - y)), tanh g * (1 - y * y).
Tensor activation_grad(Activation kind, const Tensor& y, const Tensor& g) {
  Tensor out(g.shape());
  const float* pg = g.data();
  const float* py = y.data();
  float* o = out.data();
  const std::int64_t n = out.numel();
  switch (kind) {
    case Activation::kRelu:
      for (std::int64_t e = 0; e < n; ++e)
        o[e] = pg[e] * (py[e] > 0.0f ? 1.0f : 0.0f);
      break;
    case Activation::kSigmoid:
      for (std::int64_t e = 0; e < n; ++e)
        o[e] = pg[e] * (py[e] * (1.0f - py[e]));
      break;
    case Activation::kTanh:
      for (std::int64_t e = 0; e < n; ++e)
        o[e] = pg[e] * (1.0f - py[e] * py[e]);
      break;
  }
  return out;
}

// Raw-tensor forward over the model. With a tape it records what each
// backward step needs; without one (nn::forward) each step's state is
// dropped as soon as the next step has run. The kernels and op order
// are the autograd oracle's layer forwards, so the logits are bitwise
// the oracle's (PerExampleEngine.ForwardLogitsMatchOracleBitwise).
Tensor forward_with_tape(const Sequential& model, const Tensor& x,
                         std::vector<TapeNode>* tape) {
  FEDCL_CHECK_GT(model.layer_count(), 0u) << "forward on empty model";
  if (tape != nullptr) {
    tape->clear();
    tape->reserve(model.layer_count());
  }
  Tensor h = x;
  const std::vector<Tensor>& params = model.parameters();
  std::size_t param_index = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& layer = model.layer(i);
    TapeNode node;
    node.kind = classify(layer);
    node.layer = &layer;
    node.in_shape = h.shape();
    switch (node.kind) {
      case NodeKind::kLinear: {
        const auto& lin = static_cast<const Linear&>(layer);
        FEDCL_CHECK_EQ(h.ndim(), 2u);
        FEDCL_CHECK_EQ(h.dim(1), lin.in_features());
        node.weight_index = param_index;
        node.weight = params[param_index];
        node.input = h;
        Tensor y = t::matmul(h, node.weight);
        add_bias_rows_(y, params[param_index + 1]);
        param_index += 2;
        h = y;
        break;
      }
      case NodeKind::kConv: {
        const auto& conv = static_cast<const Conv2d&>(layer);
        FEDCL_CHECK_EQ(h.ndim(), 4u);
        FEDCL_CHECK_EQ(h.dim(3), conv.in_channels());
        const std::int64_t n = h.dim(0);
        node.spec = ConvSpec{.in_h = h.dim(1),
                             .in_w = h.dim(2),
                             .in_c = conv.in_channels(),
                             .kernel_h = conv.kernel(),
                             .kernel_w = conv.kernel(),
                             .stride = conv.stride(),
                             .pad = conv.pad()};
        node.spec.validate();
        node.weight_index = param_index;
        node.weight = params[param_index];
        node.cols = t::im2col(h, node.spec);
        Tensor y = t::matmul(node.cols, node.weight);
        add_bias_rows_(y, params[param_index + 1]);
        param_index += 2;
        h = y.reshape({n, node.spec.out_h(), node.spec.out_w(),
                       conv.out_channels()});
        break;
      }
      case NodeKind::kAvgPool: {
        h = avg_pool(h, static_cast<const AvgPool2d&>(layer).kernel());
        break;
      }
      case NodeKind::kFlatten: {
        FEDCL_CHECK_GE(h.ndim(), 2u);
        std::int64_t rest = 1;
        for (std::size_t d = 1; d < h.ndim(); ++d) rest *= h.dim(d);
        h = h.reshape({h.dim(0), rest});
        break;
      }
      case NodeKind::kInputScale: {
        const auto& scale = static_cast<const InputScale&>(layer);
        h = t::mul_scalar(t::add_scalar(h, scale.shift()), scale.scale());
        break;
      }
      case NodeKind::kActivation: {
        const auto& act = static_cast<const ActivationLayer&>(layer);
        switch (act.kind()) {
          case Activation::kRelu:
            h = t::relu(h);
            break;
          case Activation::kSigmoid:
            h = t::sigmoid(h);
            break;
          case Activation::kTanh:
            h = t::tanh(h);
            break;
        }
        node.output = h;
        break;
      }
      case NodeKind::kUnsupported:
        FEDCL_CHECK(false) << "per-example engine: unsupported layer "
                           << layer.name();
    }
    if (tape != nullptr) tape->push_back(std::move(node));
  }
  FEDCL_CHECK_EQ(param_index, model.parameter_count());
  return h;
}

// The loss gradient w.r.t. the logits [B, C], row by row. Both seeds
// start from the shifted exponentials softmax() and
// softmax_cross_entropy() compute: row max m, e = exp(z - m), and S,
// their sum accumulated in double and rounded to float.
//  - per_example: e / S - onehot, each example's own loss gradient (no
//    1/B).
//  - batch: autograd's VJP of the mean loss, step for step. The mean
//    hands each example's picked log-probability s = -1/B; the
//    log-sum-exp turns the -s it receives into q = (1/B) / S and then
//    q * e; the two meet at the logits as q * e, plus s at the label.
// out_loss, when non-null, receives the mean loss as
// softmax_cross_entropy's forward computes it: the picked z - m - log S
// summed in double, rounded to float and multiplied by s.
Tensor seed_logits(const Tensor& logits,
                   const std::vector<std::int64_t>& labels,
                   bool per_example, double* out_loss) {
  FEDCL_CHECK_EQ(logits.ndim(), 2u);
  const std::int64_t batch = logits.dim(0), classes = logits.dim(1);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), batch);
  for (const std::int64_t label : labels) {
    FEDCL_CHECK(label >= 0 && label < classes)
        << "label " << label << " outside [0, " << classes << ")";
  }
  const float s = -1.0f / static_cast<float>(batch);
  Tensor delta({batch, classes});
  double picked = 0.0;
  for (std::int64_t j = 0; j < batch; ++j) {
    const float* z = logits.data() + j * classes;
    float* d = delta.data() + j * classes;
    float m = z[0];
    for (std::int64_t c = 1; c < classes; ++c) m = std::max(m, z[c]);
    double sum = 0.0;
    for (std::int64_t c = 0; c < classes; ++c) {
      d[c] = std::exp(z[c] - m);
      sum += d[c];
    }
    const float total = static_cast<float>(sum);
    const std::int64_t y = labels[static_cast<std::size_t>(j)];
    if (out_loss != nullptr) picked += (z[y] - m) - std::log(total);
    if (per_example) {
      for (std::int64_t c = 0; c < classes; ++c) d[c] = d[c] / total;
      d[y] -= 1.0f;
    } else {
      const float q = -s / total;
      for (std::int64_t c = 0; c < classes; ++c) d[c] = q * d[c];
      d[y] += s;
    }
  }
  if (out_loss != nullptr) *out_loss = static_cast<float>(picked) * s;
  return delta;
}

// Where the backward walk leaves the parameter gradients. Exactly one
// of the first two targets is set, and it picks the reduction.
struct GradTarget {
  PerExampleGrads* per_example = nullptr;  // factors (Linear), rows (Conv)
  TensorList* batch = nullptr;             // dW and db over the batch
  // When set, receives the delta at each node's output (undefined below
  // the first parameterized layer): the adjoint of the tangents in
  // input_grad_of_gradient_dot.
  std::vector<Tensor>* deltas = nullptr;
};

// The backward walk, written once for both reductions. dX stops at the
// first parameterized layer: no parameter sits below it.
void backward_walk(const std::vector<TapeNode>& tape, Tensor delta,
                   const GradTarget& target) {
  std::size_t first = 0;
  while (first < tape.size() && tape[first].kind != NodeKind::kLinear &&
         tape[first].kind != NodeKind::kConv) {
    ++first;
  }
  const std::int64_t batch = delta.dim(0);
  ThreadPool& pool = compute_pool();
  if (target.deltas != nullptr) target.deltas->assign(tape.size(), Tensor());
  for (std::size_t i = tape.size(); i-- > first;) {
    const TapeNode& node = tape[i];
    const bool need_dx = i > first;
    if (target.deltas != nullptr) (*target.deltas)[i] = delta;
    switch (node.kind) {
      case NodeKind::kLinear: {
        const std::size_t w = node.weight_index;
        if (target.per_example != nullptr) {
          // grad_W[j] = a_j^T delta_j and grad_b[j] = delta_j: hand
          // over the factors; the sanitizer multiplies them out element
          // by element as it writes the batch mean.
          PerExampleGrads& grads = *target.per_example;
          grads.params[w].a = node.input;
          grads.params[w].delta = delta;
          grads.params[w + 1].delta = delta;
        } else {
          (*target.batch)[w] = t::matmul_tn(node.input, delta);
          (*target.batch)[w + 1] = t::col_sum(delta);
        }
        if (need_dx) {
          delta = t::matmul_nt(delta, node.weight);
        }
        break;
      }
      case NodeKind::kConv: {
        const std::int64_t patches = node.spec.out_h() * node.spec.out_w();
        const std::int64_t width = node.spec.patch_size();
        const std::int64_t oc = node.weight.dim(1);
        const std::size_t w = node.weight_index;
        const Tensor d2 = delta.reshape({batch * patches, oc});
        if (target.per_example != nullptr) {
          Tensor dw({batch, width * oc});
          Tensor db({batch, oc});
          const float* cols = node.cols.data();
          const float* d = d2.data();
          float* dw_p = dw.data();
          float* db_p = db.data();
          pool.parallel_for_work(
              static_cast<std::size_t>(batch), patches * width * oc,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t j = begin; j < end; ++j) {
                  // grad_W[j] = cols_j^T delta_j over this example's
                  // patches-deep im2col slice.
                  t::matmul_tn_into(
                      cols + j * static_cast<std::size_t>(patches * width),
                      d + j * static_cast<std::size_t>(patches * oc),
                      dw_p + j * static_cast<std::size_t>(width * oc),
                      patches, width, oc);
                  float* db_row = db_p + j * oc;
                  const float* d_row =
                      d + j * static_cast<std::size_t>(patches * oc);
                  for (std::int64_t p = 0; p < patches; ++p) {
                    for (std::int64_t o = 0; o < oc; ++o) {
                      db_row[o] += d_row[p * oc + o];
                    }
                  }
                }
              });
          target.per_example->params[w].rows = dw;
          target.per_example->params[w + 1].rows = db;
        } else {
          (*target.batch)[w] = t::matmul_tn(node.cols, d2);
          (*target.batch)[w + 1] = t::col_sum(d2);
        }
        if (need_dx) {
          // Fused: each image's patch-gradient tile is matmul'd into a
          // scratch buffer and scattered straight back with col2im —
          // the full [batch*patches, width] unfolded gradient never
          // materializes (tensor/im2col.h).
          delta = t::conv_input_grad(d2, node.weight, node.spec, batch);
        }
        break;
      }
      case NodeKind::kAvgPool: {
        delta = avg_pool_grad(
            delta, node.in_shape,
            static_cast<const AvgPool2d&>(*node.layer).kernel());
        break;
      }
      case NodeKind::kFlatten: {
        delta = delta.reshape(node.in_shape);
        break;
      }
      case NodeKind::kInputScale: {
        const auto& scale = static_cast<const InputScale&>(*node.layer);
        delta = t::mul_scalar(delta, scale.scale());
        break;
      }
      case NodeKind::kActivation: {
        delta = activation_grad(
            static_cast<const ActivationLayer&>(*node.layer).kind(),
            node.output, delta);
        break;
      }
      case NodeKind::kUnsupported:
        FEDCL_CHECK(false) << "unreachable";
    }
  }
}

// One tape forward, the target's seed, one backward walk. Returns the
// logits.
Tensor run_tape(const Sequential& model, const Tensor& x,
                const std::vector<std::int64_t>& labels, double* out_loss,
                const GradTarget& target, std::vector<TapeNode>& tape) {
  Tensor logits = forward_with_tape(model, x, &tape);
  backward_walk(tape,
                seed_logits(logits, labels, target.per_example != nullptr,
                            out_loss),
                target);
  return logits;
}

// The activation's second derivative at its input, written from its
// output y: relu 0, sigmoid y(1 - y)(1 - 2y), tanh -2y(1 - y^2).
float activation_d2(Activation kind, float y) {
  switch (kind) {
    case Activation::kRelu:
      return 0.0f;
    case Activation::kSigmoid:
      return y * (1.0f - y) * (1.0f - 2.0f * y);
    case Activation::kTanh:
      return -2.0f * y * (1.0f - y * y);
  }
  return 0.0f;
}

// One forward step of the theta-tangent: the derivative of the node's
// output along v, given the tangent of its input (undefined: zero, as
// below the first parameterized layer, and then the result is
// undefined too unless the node holds parameters).
Tensor tangent_step(const TapeNode& node, const Tensor& tangent,
                    const TensorList& v) {
  switch (node.kind) {
    case NodeKind::kLinear: {
      // d(h W + b) = h V_W + dh W + V_b.
      const std::size_t w = node.weight_index;
      Tensor y = t::matmul(node.input, v[w]);
      if (tangent.defined()) y.add_(t::matmul(tangent, node.weight));
      add_bias_rows_(y, v[w + 1]);
      return y;
    }
    case NodeKind::kConv: {
      // d(cols(h) W + b) = cols(h) V_W + cols(dh) W + V_b.
      const std::size_t w = node.weight_index;
      Tensor y = t::matmul(node.cols, v[w]);
      if (tangent.defined())
        y.add_(t::matmul(t::im2col(tangent, node.spec), node.weight));
      add_bias_rows_(y, v[w + 1]);
      return y.reshape({node.in_shape[0], node.spec.out_h(),
                        node.spec.out_w(), node.weight.dim(1)});
    }
    case NodeKind::kAvgPool:
      if (!tangent.defined()) return tangent;
      return avg_pool(tangent,
                      static_cast<const AvgPool2d&>(*node.layer).kernel());
    case NodeKind::kFlatten:
      if (!tangent.defined()) return tangent;
      return tangent.reshape(
          {node.in_shape[0], tangent.numel() / node.in_shape[0]});
    case NodeKind::kInputScale:
      if (!tangent.defined()) return tangent;
      return t::mul_scalar(
          tangent, static_cast<const InputScale&>(*node.layer).scale());
    case NodeKind::kActivation:
      if (!tangent.defined()) return tangent;
      return activation_grad(
          static_cast<const ActivationLayer&>(*node.layer).kind(),
          node.output, tangent);
    case NodeKind::kUnsupported:
      break;
  }
  FEDCL_CHECK(false) << "unreachable";
  return tangent;
}

// One backward step of the second adjoint: given adj, the adjoint of the
// node's output in D = <grad_z L, z'>, returns the adjoint of its
// input. delta is the batch walk's delta at the node's output (the
// adjoint of the output's tangent) and tangent_in the tangent of the
// node's input; both enter wherever the step's tangent depends on its
// input.
Tensor adjoint_step(const TapeNode& node, const Tensor& adj,
                    const Tensor& delta, const Tensor& tangent_in,
                    const TensorList& v) {
  switch (node.kind) {
    case NodeKind::kLinear: {
      // adj W^T + delta V_W^T.
      Tensor dx = t::matmul_nt(adj, node.weight);
      dx.add_(t::matmul_nt(delta, v[node.weight_index]));
      return dx;
    }
    case NodeKind::kConv: {
      // col2im(adj W^T + delta V_W^T).
      const std::int64_t n = node.in_shape[0];
      const Shape rows = {n * node.spec.out_h() * node.spec.out_w(),
                          node.weight.dim(1)};
      Tensor dx = t::conv_input_grad(adj.reshape(rows), node.weight,
                                     node.spec, n);
      dx.add_(t::conv_input_grad(delta.reshape(rows), v[node.weight_index],
                                 node.spec, n));
      return dx;
    }
    case NodeKind::kAvgPool:
      return avg_pool_grad(
          adj, node.in_shape,
          static_cast<const AvgPool2d&>(*node.layer).kernel());
    case NodeKind::kFlatten:
      return adj.reshape(node.in_shape);
    case NodeKind::kInputScale:
      return t::mul_scalar(
          adj, static_cast<const InputScale&>(*node.layer).scale());
    case NodeKind::kActivation: {
      // sigma'(a) adj + sigma''(a) a' delta.
      const Activation kind =
          static_cast<const ActivationLayer&>(*node.layer).kind();
      Tensor dx = activation_grad(kind, node.output, adj);
      if (tangent_in.defined()) {
        const float* y = node.output.data();
        const float* a = tangent_in.data();
        const float* d = delta.data();
        float* o = dx.data();
        for (std::int64_t e = 0; e < dx.numel(); ++e)
          o[e] += activation_d2(kind, y[e]) * a[e] * d[e];
      }
      return dx;
    }
    case NodeKind::kUnsupported:
      break;
  }
  FEDCL_CHECK(false) << "unreachable";
  return adj;
}

// The Hessian-vector product of the mean softmax cross-entropy at the
// logits z along their tangent: row j gets (1/B)(p_j * dz_j - p_j
// <p_j, dz_j>), p = softmax(z).
Tensor cross_entropy_hvp(const Tensor& logits, const Tensor& dz) {
  const Tensor p = softmax(logits);
  const std::int64_t batch = logits.dim(0), classes = logits.dim(1);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  Tensor out(logits.shape());
  for (std::int64_t j = 0; j < batch; ++j) {
    const float* pj = p.data() + j * classes;
    const float* dj = dz.data() + j * classes;
    double dot = 0.0;
    for (std::int64_t c = 0; c < classes; ++c)
      dot += static_cast<double>(pj[c]) * dj[c];
    float* o = out.data() + j * classes;
    for (std::int64_t c = 0; c < classes; ++c)
      o[c] = inv_batch * pj[c] * (dj[c] - static_cast<float>(dot));
  }
  return out;
}

}  // namespace

// The k x k average pool of NHWC h (kernel == stride): channel-
// contiguous accumulation into the zero-initialized output, the (ky, kx)
// terms of each output element in ascending order. Images are
// independent, so a large batch loop parallelizes.
Tensor avg_pool(const Tensor& h, std::int64_t k) {
  FEDCL_CHECK_EQ(h.ndim(), 4u);
  const std::int64_t n = h.dim(0), ih = h.dim(1), iw = h.dim(2),
                     c = h.dim(3);
  const std::int64_t oh = (ih - k) / k + 1, ow = (iw - k) / k + 1;
  const float inv = 1.0f / static_cast<float>(k * k);
  Tensor y({n, oh, ow, c});
  const float* src = h.data();
  float* dst = y.data();
  compute_pool().parallel_for_work(
      static_cast<std::size_t>(n), ih * iw * c,
      [&](std::size_t nb, std::size_t ne) {
        for (std::size_t b = nb; b < ne; ++b) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              float* out_row =
                  dst +
                  ((static_cast<std::int64_t>(b) * oh + oy) * ow + ox) * c;
              for (std::int64_t ky = 0; ky < k; ++ky) {
                const float* in_row =
                    src + ((static_cast<std::int64_t>(b) * ih + oy * k + ky) *
                               iw +
                           ox * k) *
                              c;
                for (std::int64_t kx = 0; kx < k; ++kx) {
                  for (std::int64_t ch = 0; ch < c; ++ch)
                    out_row[ch] += in_row[kx * c + ch] * inv;
                }
              }
            }
          }
        }
      });
  return y;
}

// The pool's input gradient: pool windows tile the input, so each input
// element receives exactly one g*inv contribution; images are
// independent and the channel-contiguous spread vectorizes.
Tensor avg_pool_grad(const Tensor& g, const Shape& in_shape,
                     std::int64_t k) {
  const std::int64_t n = in_shape[0], ih = in_shape[1], iw = in_shape[2],
                     c = in_shape[3];
  const std::int64_t oh = (ih - k) / k + 1, ow = (iw - k) / k + 1;
  const float inv = 1.0f / static_cast<float>(k * k);
  Tensor dx(in_shape);
  float* dst = dx.data();
  const float* src = g.data();
  compute_pool().parallel_for_work(
      static_cast<std::size_t>(n), ih * iw * c,
      [&](std::size_t nb, std::size_t ne) {
        for (std::size_t b = nb; b < ne; ++b) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const float* g_row =
                  src +
                  ((static_cast<std::int64_t>(b) * oh + oy) * ow + ox) * c;
              for (std::int64_t ky = 0; ky < k; ++ky) {
                float* d_row =
                    dst + ((static_cast<std::int64_t>(b) * ih + oy * k + ky) *
                               iw +
                           ox * k) *
                              c;
                for (std::int64_t kx = 0; kx < k; ++kx) {
                  for (std::int64_t ch = 0; ch < c; ++ch)
                    d_row[kx * c + ch] += g_row[ch] * inv;
                }
              }
            }
          }
        }
      });
  return dx;
}

PerExampleGrads compute_per_example_gradients(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss) {
  PerExampleGrads grads;
  grads.batch = x.dim(0);
  grads.shapes = t::list::shapes_of(model.parameters());
  grads.params.resize(grads.shapes.size());
  std::vector<TapeNode> tape;
  run_tape(model, x, labels, out_loss, {.per_example = &grads}, tape);
  return grads;
}

TensorList compute_gradients(const Sequential& model, const Tensor& x,
                             const std::vector<std::int64_t>& labels,
                             double* out_loss) {
  TensorList grads(model.parameter_count());
  std::vector<TapeNode> tape;
  run_tape(model, x, labels, out_loss, {.batch = &grads}, tape);
  return grads;
}

Tensor forward(const Sequential& model, const Tensor& x) {
  return forward_with_tape(model, x, nullptr);
}

Tensor input_grad_of_gradient_dot(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels,
    const std::function<TensorList(const TensorList&)>& direction,
    double* out_loss) {
  TensorList grads(model.parameter_count());
  std::vector<Tensor> deltas;
  std::vector<TapeNode> tape;
  const Tensor logits = run_tape(model, x, labels, out_loss,
                                 {.batch = &grads, .deltas = &deltas}, tape);
  const TensorList v = direction(grads);
  FEDCL_CHECK_EQ(v.size(), grads.size());
  for (std::size_t p = 0; p < v.size(); ++p) {
    FEDCL_CHECK(v[p].shape() == grads[p].shape())
        << "direction " << p << " has shape " << tensor::shape_str(v[p].shape())
        << ", the parameter " << tensor::shape_str(grads[p].shape());
  }
  // Forward: the tangent of every node's input along v.
  std::vector<Tensor> tangent_in(tape.size());
  Tensor tangent;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    tangent_in[i] = tangent;
    tangent = tangent_step(tape[i], tangent, v);
  }
  FEDCL_CHECK(tangent.defined()) << "model has no parameters";
  // Backward: the second adjoint from the loss's Hessian-vector product
  // down to x.
  Tensor adj = cross_entropy_hvp(logits, tangent);
  for (std::size_t i = tape.size(); i-- > 0;)
    adj = adjoint_step(tape[i], adj, deltas[i], tangent_in[i], v);
  return adj;
}

}  // namespace fedcl::nn
