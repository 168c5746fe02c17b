#include "nn/per_example.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/thread_pool.h"
#include "nn/grad_utils.h"
#include "nn/layers.h"
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

// Raw-tensor forward over the model, recording the tape. Mirrors each
// layer's autograd forward (same kernels, same op order), so the
// logits are bitwise the graph's.
Tensor forward_with_tape(const Sequential& model, const Tensor& x,
                         std::vector<TapeNode>& tape) {
  tape.clear();
  tape.reserve(model.layer_count());
  Tensor h = x;
  const std::vector<Var>& params = model.parameters();
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
        node.weight = params[param_index].value();
        node.input = h;
        Tensor y = t::matmul(h, node.weight);
        add_bias_rows_(y, params[param_index + 1].value());
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
        node.weight = params[param_index].value();
        node.cols = t::im2col(h, node.spec);
        Tensor y = t::matmul(node.cols, node.weight);
        add_bias_rows_(y, params[param_index + 1].value());
        param_index += 2;
        h = y.reshape({n, node.spec.out_h(), node.spec.out_w(),
                       conv.out_channels()});
        break;
      }
      case NodeKind::kAvgPool: {
        const auto& pool = static_cast<const AvgPool2d&>(layer);
        FEDCL_CHECK_EQ(h.ndim(), 4u);
        const std::int64_t n = h.dim(0), ih = h.dim(1), iw = h.dim(2),
                           c = h.dim(3), k = pool.kernel();
        const std::int64_t oh = (ih - k) / k + 1, ow = (iw - k) / k + 1;
        const float inv = 1.0f / static_cast<float>(k * k);
        Tensor y({n, oh, ow, c});
        const float* src = h.data();
        float* dst = y.data();
        // Channel-contiguous accumulation into the zero-initialized
        // output: per output element the (ky, kx) term order matches
        // the scalar loop, so values are unchanged; images are
        // independent, so the batch loop parallelizes.
        compute_pool().parallel_for_chunks(
            static_cast<std::size_t>(n), 1,
            [&](std::size_t nb, std::size_t ne) {
              for (std::size_t b = nb; b < ne; ++b) {
                for (std::int64_t oy = 0; oy < oh; ++oy) {
                  for (std::int64_t ox = 0; ox < ow; ++ox) {
                    float* out_row =
                        dst + ((static_cast<std::int64_t>(b) * oh + oy) * ow +
                               ox) *
                                  c;
                    for (std::int64_t ky = 0; ky < k; ++ky) {
                      const float* in_row =
                          src + ((static_cast<std::int64_t>(b) * ih +
                                  oy * k + ky) *
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
        h = y;
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
    tape.push_back(std::move(node));
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
// target is set, and it picks the reduction.
struct GradTarget {
  PerExampleGrads* per_example = nullptr;  // factors (Linear), rows (Conv)
  TensorList* batch = nullptr;             // dW and db over the batch
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
  for (std::size_t i = tape.size(); i-- > first;) {
    const TapeNode& node = tape[i];
    const bool need_dx = i > first;
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
          pool.parallel_for_chunks(
              static_cast<std::size_t>(batch), 1,
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
        const std::int64_t n = node.in_shape[0], ih = node.in_shape[1],
                           iw = node.in_shape[2], c = node.in_shape[3];
        const auto& layer_pool = static_cast<const AvgPool2d&>(*node.layer);
        const std::int64_t k = layer_pool.kernel();
        const std::int64_t oh = (ih - k) / k + 1, ow = (iw - k) / k + 1;
        const float inv = 1.0f / static_cast<float>(k * k);
        Tensor dx(node.in_shape);
        float* dst = dx.data();
        const float* src = delta.data();
        // Pool windows tile the input, so each input element receives
        // exactly one src*inv contribution; images are independent and
        // the channel-contiguous spread vectorizes.
        pool.parallel_for_chunks(
            static_cast<std::size_t>(n), 1,
            [&](std::size_t nb, std::size_t ne) {
              for (std::size_t b = nb; b < ne; ++b) {
                for (std::int64_t oy = 0; oy < oh; ++oy) {
                  for (std::int64_t ox = 0; ox < ow; ++ox) {
                    const float* g_row =
                        src + ((static_cast<std::int64_t>(b) * oh + oy) * ow +
                               ox) *
                                  c;
                    for (std::int64_t ky = 0; ky < k; ++ky) {
                      float* d_row =
                          dst + ((static_cast<std::int64_t>(b) * ih +
                                  oy * k + ky) *
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
        delta = dx;
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
        // autograd's arithmetic from the layer's output y: relu
        // d * mask (y > 0 exactly where the input is), sigmoid
        // d * (y * (1 - y)), tanh d * (1 - y * y).
        const auto& act = static_cast<const ActivationLayer&>(*node.layer);
        Tensor dx(delta.shape());
        const float* d = delta.data();
        const float* y = node.output.data();
        float* o = dx.data();
        switch (act.kind()) {
          case Activation::kRelu:
            for (std::int64_t e = 0; e < dx.numel(); ++e)
              o[e] = d[e] * (y[e] > 0.0f ? 1.0f : 0.0f);
            break;
          case Activation::kSigmoid:
            for (std::int64_t e = 0; e < dx.numel(); ++e)
              o[e] = d[e] * (y[e] * (1.0f - y[e]));
            break;
          case Activation::kTanh:
            for (std::int64_t e = 0; e < dx.numel(); ++e)
              o[e] = d[e] * (1.0f - y[e] * y[e]);
            break;
        }
        delta = dx;
        break;
      }
      case NodeKind::kUnsupported:
        FEDCL_CHECK(false) << "unreachable";
    }
  }
}

// One tape forward, the target's seed, one backward walk.
void run_tape(const Sequential& model, const Tensor& x,
              const std::vector<std::int64_t>& labels, double* out_loss,
              const GradTarget& target) {
  std::vector<TapeNode> tape;
  const Tensor logits = forward_with_tape(model, x, tape);
  backward_walk(tape,
                seed_logits(logits, labels, target.per_example != nullptr,
                            out_loss),
                target);
}

}  // namespace

PerExampleGrads compute_per_example_gradients(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss) {
  PerExampleGrads grads;
  grads.batch = x.dim(0);
  for (const auto& p : model.parameters())
    grads.shapes.push_back(p.value().shape());
  grads.params.resize(grads.shapes.size());
  run_tape(model, x, labels, out_loss, {.per_example = &grads});
  return grads;
}

TensorList compute_gradients(const Sequential& model, const Tensor& x,
                             const std::vector<std::int64_t>& labels,
                             double* out_loss) {
  TensorList grads(model.parameter_count());
  run_tape(model, x, labels, out_loss, {.batch = &grads});
  return grads;
}

PerExampleGrads compute_per_example_gradients_sliced(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss) {
  const std::int64_t batch = x.dim(0);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), batch);
  FEDCL_CHECK_GT(batch, 0);
  const std::int64_t row = x.numel() / batch;

  std::vector<Shape> shapes;
  shapes.reserve(model.parameter_count());
  for (const auto& p : model.parameters()) shapes.push_back(p.value().shape());
  PerExampleGrads grads = t::list::make_per_example(batch, std::move(shapes));

  Shape ex_shape = x.shape();
  ex_shape[0] = 1;
  Tensor ex(ex_shape);
  double total_loss = 0.0;
  for (std::int64_t j = 0; j < batch; ++j) {
    std::memcpy(ex.data(), x.data() + j * row,
                sizeof(float) * static_cast<std::size_t>(row));
    double loss = 0.0;
    TensorList grad = compute_gradients_reference(
        model, ex, {labels[static_cast<std::size_t>(j)]}, &loss);
    total_loss += loss;
    grads.set_example(j, grad);
  }
  if (out_loss != nullptr) *out_loss = total_loss / static_cast<double>(batch);
  return grads;
}

}  // namespace fedcl::nn
