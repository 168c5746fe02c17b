#include "nn/per_example.h"

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
  kMaxPool,
  kDropout,
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
  if (dynamic_cast<const MaxPool2d*>(&layer) != nullptr)
    return NodeKind::kMaxPool;
  if (dynamic_cast<const Dropout*>(&layer) != nullptr)
    return NodeKind::kDropout;
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
  Layer* layer = nullptr;            // borrowed from the model
  std::size_t weight_index = 0;      // param index of W (Linear/Conv)
  Shape in_shape;                    // input shape (pool/flatten dX)
  Tensor input;                      // Linear: input activations
  Tensor output;                     // Activation: f(x) for f'
  Tensor cols;                       // Conv: im2col of the input
  Tensor mask;                       // Dropout mask (undefined in eval)
  std::vector<std::int64_t> argmax;  // MaxPool routing
  ConvSpec spec;                     // Conv geometry
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
// layer's autograd forward (same op order) so values agree to float
// rounding.
Tensor forward_with_tape(Sequential& model, const Tensor& x,
                         std::vector<TapeNode>& tape) {
  tape.clear();
  tape.reserve(model.layer_count());
  Tensor h = x;
  std::size_t param_index = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Layer& layer = model.layer(i);
    TapeNode node;
    node.kind = classify(layer);
    node.layer = &layer;
    node.in_shape = h.shape();
    switch (node.kind) {
      case NodeKind::kLinear: {
        auto& lin = static_cast<Linear&>(layer);
        FEDCL_CHECK_EQ(h.ndim(), 2u);
        FEDCL_CHECK_EQ(h.dim(1), lin.in_features());
        node.weight_index = param_index;
        param_index += 2;
        node.input = h;
        Tensor y = t::matmul(h, lin.parameters()[0].value());
        add_bias_rows_(y, lin.parameters()[1].value());
        h = y;
        break;
      }
      case NodeKind::kConv: {
        auto& conv = static_cast<Conv2d&>(layer);
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
        param_index += 2;
        node.cols = t::im2col(h, node.spec);
        Tensor y = t::matmul(node.cols, conv.parameters()[0].value());
        add_bias_rows_(y, conv.parameters()[1].value());
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
      case NodeKind::kMaxPool: {
        const auto& pool = static_cast<const MaxPool2d&>(layer);
        FEDCL_CHECK_EQ(h.ndim(), 4u);
        const std::int64_t n = h.dim(0), ih = h.dim(1), iw = h.dim(2),
                           c = h.dim(3), k = pool.kernel();
        FEDCL_CHECK_EQ(ih % k, 0);
        FEDCL_CHECK_EQ(iw % k, 0);
        const std::int64_t oh = ih / k, ow = iw / k;
        Tensor y({n, oh, ow, c});
        node.argmax.resize(static_cast<std::size_t>(n * oh * ow * c));
        const float* src = h.data();
        float* dst = y.data();
        std::int64_t* am = node.argmax.data();
        // Running channel-contiguous max: window position (0, 0) seeds
        // the per-channel best, later (ky, kx) replace only on strict
        // improvement — the same first-wins tie behaviour as the
        // scalar argmax scan, in the same visit order.
        compute_pool().parallel_for_chunks(
            static_cast<std::size_t>(n), 1,
            [&](std::size_t nb, std::size_t ne) {
              for (std::size_t b = nb; b < ne; ++b) {
                for (std::int64_t oy = 0; oy < oh; ++oy) {
                  for (std::int64_t ox = 0; ox < ow; ++ox) {
                    const std::int64_t out_base =
                        ((static_cast<std::int64_t>(b) * oh + oy) * ow + ox) *
                        c;
                    float* out_row = dst + out_base;
                    std::int64_t* am_row = am + out_base;
                    for (std::int64_t ky = 0; ky < k; ++ky) {
                      const std::int64_t in_base =
                          ((static_cast<std::int64_t>(b) * ih + oy * k + ky) *
                               iw +
                           ox * k) *
                          c;
                      for (std::int64_t kx = 0; kx < k; ++kx) {
                        const float* in_row = src + in_base + kx * c;
                        if (ky == 0 && kx == 0) {
                          for (std::int64_t ch = 0; ch < c; ++ch) {
                            out_row[ch] = in_row[ch];
                            am_row[ch] = in_base + ch;
                          }
                          continue;
                        }
                        for (std::int64_t ch = 0; ch < c; ++ch) {
                          if (in_row[ch] > out_row[ch]) {
                            out_row[ch] = in_row[ch];
                            am_row[ch] = in_base + kx * c + ch;
                          }
                        }
                      }
                    }
                  }
                }
              }
            });
        h = y;
        break;
      }
      case NodeKind::kDropout: {
        auto& drop = static_cast<Dropout&>(layer);
        if (drop.training() && drop.p() > 0.0) {
          node.mask = drop.sample_mask(h.shape());
          h = t::mul(h, node.mask);
        }
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

}  // namespace

PerExampleGrads compute_per_example_gradients(
    Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss) {
  const std::int64_t batch = x.dim(0);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), batch);

  std::vector<TapeNode> tape;
  const Tensor logits = forward_with_tape(model, x, tape);
  FEDCL_CHECK_EQ(logits.ndim(), 2u);
  const std::int64_t classes = logits.dim(1);

  // Seed: each example's OWN loss gradient, softmax(z_j) - onehot(y_j).
  // No 1/B — row j of every downstream delta is then d(loss_j)/d(.).
  Tensor delta = softmax(logits);
  if (out_loss != nullptr) {
    double total = 0.0;
    for (std::int64_t j = 0; j < batch; ++j) {
      const float p = delta.at(j * classes + labels[static_cast<std::size_t>(j)]);
      total += -std::log(static_cast<double>(p) + 1e-30);
    }
    *out_loss = total / static_cast<double>(batch);
  }
  for (std::int64_t j = 0; j < batch; ++j) {
    delta.at(j * classes + labels[static_cast<std::size_t>(j)]) -= 1.0f;
  }

  PerExampleGrads grads;
  grads.batch = batch;
  for (const auto& p : model.parameters())
    grads.shapes.push_back(p.value().shape());
  grads.params.resize(grads.shapes.size());

  ThreadPool& pool = compute_pool();
  for (std::size_t i = tape.size(); i-- > 0;) {
    TapeNode& node = tape[i];
    const bool need_dx = i > 0;
    switch (node.kind) {
      case NodeKind::kLinear: {
        // grad_W[j] = a_j^T delta_j and grad_b[j] = delta_j: hand over
        // the factors; the sanitizer multiplies them out element by
        // element as it writes the batch mean.
        const auto& lin = static_cast<const Linear&>(*node.layer);
        grads.params[node.weight_index].a = node.input;
        grads.params[node.weight_index].delta = delta;
        grads.params[node.weight_index + 1].delta = delta;
        if (need_dx) {
          delta = t::matmul_nt(delta, lin.parameters()[0].value());
        }
        break;
      }
      case NodeKind::kConv: {
        const auto& conv = static_cast<const Conv2d&>(*node.layer);
        const std::int64_t patches = node.spec.out_h() * node.spec.out_w();
        const std::int64_t width = node.spec.patch_size();
        const std::int64_t oc = conv.out_channels();
        Tensor dw({batch, width * oc});
        Tensor db({batch, oc});
        const float* cols = node.cols.data();
        const float* d = delta.data();
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
        grads.params[node.weight_index].rows = dw;
        grads.params[node.weight_index + 1].rows = db;
        if (need_dx) {
          // Fused: each image's patch-gradient tile is matmul'd into a
          // scratch buffer and scattered straight back with col2im —
          // the full [batch*patches, width] unfolded gradient never
          // materializes (tensor/im2col.h).
          Tensor d2 = delta.reshape({batch * patches, oc});
          delta = t::conv_input_grad(d2, conv.parameters()[0].value(),
                                     node.spec, batch);
        }
        break;
      }
      case NodeKind::kAvgPool: {
        if (!need_dx) break;
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
      case NodeKind::kMaxPool: {
        if (!need_dx) break;
        Tensor dx(node.in_shape);
        float* dst = dx.data();
        const float* src = delta.data();
        // argmax targets of image b stay inside image b, so the
        // scatter parallelizes over the batch.
        const std::int64_t per_image =
            static_cast<std::int64_t>(node.argmax.size()) / node.in_shape[0];
        pool.parallel_for_chunks(
            static_cast<std::size_t>(node.in_shape[0]), 1,
            [&](std::size_t nb, std::size_t ne) {
              for (std::size_t idx = nb * per_image; idx < ne * per_image;
                   ++idx) {
                dst[node.argmax[idx]] += src[idx];
              }
            });
        delta = dx;
        break;
      }
      case NodeKind::kDropout: {
        if (need_dx && node.mask.defined()) {
          delta = t::mul(delta, node.mask);
        }
        break;
      }
      case NodeKind::kFlatten: {
        if (need_dx) delta = delta.reshape(node.in_shape);
        break;
      }
      case NodeKind::kInputScale: {
        if (need_dx) {
          const auto& scale = static_cast<const InputScale&>(*node.layer);
          delta = t::mul_scalar(delta, scale.scale());
        }
        break;
      }
      case NodeKind::kActivation: {
        if (!need_dx) break;
        const auto& act = static_cast<const ActivationLayer&>(*node.layer);
        Tensor dx(delta.shape());
        const float* d = delta.data();
        const float* y = node.output.data();
        float* o = dx.data();
        switch (act.kind()) {
          case Activation::kRelu:
            for (std::int64_t e = 0; e < dx.numel(); ++e)
              o[e] = y[e] > 0.0f ? d[e] : 0.0f;
            break;
          case Activation::kSigmoid:
            for (std::int64_t e = 0; e < dx.numel(); ++e)
              o[e] = d[e] * y[e] * (1.0f - y[e]);
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
  return grads;
}

PerExampleGrads compute_per_example_gradients_sliced(
    Sequential& model, const Tensor& x,
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
    TensorList grad = compute_gradients(
        model, ex, {labels[static_cast<std::size_t>(j)]}, &loss);
    total_loss += loss;
    grads.set_example(j, grad);
  }
  if (out_loss != nullptr) *out_loss = total_loss / static_cast<double>(batch);
  return grads;
}

}  // namespace fedcl::nn
