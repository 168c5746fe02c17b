#include "testing/reference.h"

#include <cstring>

#include "common/error.h"
#include "nn/layers.h"
#include "testing/ops.h"

namespace fedcl::nn {

namespace o = tensor::ops;
using tensor::ConvSpec;
using tensor::Gradients;
using tensor::list::PerExampleGrads;

namespace {

Var linear_forward(const Linear& layer, const Var& w, const Var& b,
                   const Var& x) {
  FEDCL_CHECK_EQ(x.value().ndim(), 2u);
  FEDCL_CHECK_EQ(x.value().dim(1), layer.in_features())
      << "Linear input width mismatch for " << layer.name();
  return o::add_rowvec(o::matmul(x, w), b);
}

Var conv_forward(const Conv2d& layer, const Var& w, const Var& b,
                 const Var& x) {
  FEDCL_CHECK_EQ(x.value().ndim(), 4u) << "Conv2d expects NHWC";
  FEDCL_CHECK_EQ(x.value().dim(3), layer.in_channels())
      << "Conv2d channel mismatch for " << layer.name();
  const std::int64_t n = x.value().dim(0);
  ConvSpec spec{.in_h = x.value().dim(1),
                .in_w = x.value().dim(2),
                .in_c = layer.in_channels(),
                .kernel_h = layer.kernel(),
                .kernel_w = layer.kernel(),
                .stride = layer.stride(),
                .pad = layer.pad()};
  spec.validate();
  Var cols = o::im2col(x, spec);
  Var y = o::add_rowvec(o::matmul(cols, w), b);
  return o::reshape(y, {n, spec.out_h(), spec.out_w(), layer.out_channels()});
}

// Average pooling as im2col followed by a constant pooling matrix.
Var avg_pool_forward(const AvgPool2d& layer, const Var& x) {
  FEDCL_CHECK_EQ(x.value().ndim(), 4u) << "AvgPool2d expects NHWC";
  const std::int64_t n = x.value().dim(0);
  const std::int64_t c = x.value().dim(3);
  const std::int64_t k = layer.kernel();
  ConvSpec spec{.in_h = x.value().dim(1),
                .in_w = x.value().dim(2),
                .in_c = c,
                .kernel_h = k,
                .kernel_w = k,
                .stride = k,
                .pad = 0};
  spec.validate();
  // P[(kh*KW + kw)*C + ch, ch] = 1/(k*k): channel-wise mean.
  Tensor p({spec.patch_size(), c});
  const float inv = 1.0f / static_cast<float>(k * k);
  for (std::int64_t i = 0; i < k * k; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      p.at((i * c + ch) * c + ch) = inv;
    }
  }
  Var cols = o::im2col(x, spec);
  Var y = o::matmul(cols, o::constant(std::move(p)));
  return o::reshape(y, {n, spec.out_h(), spec.out_w(), c});
}

Var flatten_forward(const Var& x) {
  const auto& s = x.value().shape();
  FEDCL_CHECK_GE(s.size(), 2u);
  std::int64_t rest = 1;
  for (std::size_t i = 1; i < s.size(); ++i) rest *= s[i];
  return o::reshape(x, {s[0], rest});
}

Var activation_forward(const ActivationLayer& layer, const Var& x) {
  switch (layer.kind()) {
    case Activation::kRelu:
      return o::relu(x);
    case Activation::kSigmoid:
      return o::sigmoid(x);
    case Activation::kTanh:
      return o::tanh(x);
  }
  FEDCL_CHECK(false) << "unknown activation";
  return x;  // unreachable
}

}  // namespace

std::vector<Var> parameter_vars(const Sequential& model, bool requires_grad) {
  std::vector<Var> out;
  out.reserve(model.parameter_count());
  for (const Tensor& p : model.parameters()) out.emplace_back(p, requires_grad);
  return out;
}

Var graph_forward(const Sequential& model, const std::vector<Var>& params,
                  const Var& x) {
  FEDCL_CHECK(model.layer_count() > 0) << "forward on empty model";
  FEDCL_CHECK_EQ(params.size(), model.parameter_count());
  Var h = x;
  std::size_t next = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& layer = model.layer(i);
    if (const auto* lin = dynamic_cast<const Linear*>(&layer)) {
      h = linear_forward(*lin, params[next], params[next + 1], h);
      next += 2;
    } else if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
      h = conv_forward(*conv, params[next], params[next + 1], h);
      next += 2;
    } else if (const auto* pool = dynamic_cast<const AvgPool2d*>(&layer)) {
      h = avg_pool_forward(*pool, h);
    } else if (dynamic_cast<const Flatten*>(&layer) != nullptr) {
      h = flatten_forward(h);
    } else if (const auto* s = dynamic_cast<const InputScale*>(&layer)) {
      h = o::mul_scalar(o::add_scalar(h, s->shift()), s->scale());
    } else if (const auto* act =
                   dynamic_cast<const ActivationLayer*>(&layer)) {
      h = activation_forward(*act, h);
    } else {
      FEDCL_CHECK(false) << "oracle: unsupported layer " << layer.name();
    }
  }
  return h;
}

Var graph_forward(const Sequential& model, const Var& x) {
  return graph_forward(model, parameter_vars(model, false), x);
}

Var softmax_cross_entropy(const Var& logits,
                          const std::vector<std::int64_t>& labels) {
  FEDCL_CHECK_EQ(logits.value().ndim(), 2u);
  const std::int64_t n = logits.value().dim(0);
  const std::int64_t c = logits.value().dim(1);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), n);
  // Numerically stable log-softmax; the detached row max cancels in the
  // gradient so detaching is exact.
  Var m = o::row_max_detached(logits);
  Var z = o::sub(logits, o::broadcast_col(m, c));
  Var lse = o::log(o::row_sum(o::exp(z)));
  Var logp = o::sub(z, o::broadcast_col(lse, c));
  Var picked = o::pick(logp, labels);
  return o::mul_scalar(o::sum_all(picked), -1.0f / static_cast<float>(n));
}

TensorList compute_gradients_reference(const Sequential& model,
                                       const Tensor& x,
                                       const std::vector<std::int64_t>& labels,
                                       double* out_loss) {
  const std::vector<Var> params = parameter_vars(model, true);
  Var logits = graph_forward(model, params, Var(x, /*requires_grad=*/false));
  Var loss = softmax_cross_entropy(logits, labels);
  if (out_loss != nullptr) *out_loss = loss.value().item();
  Gradients grads = tensor::backward(loss, /*create_graph=*/false);
  TensorList out;
  out.reserve(params.size());
  for (const Var& p : params) {
    FEDCL_CHECK(grads.contains(p)) << "parameter unreached in backward";
    out.push_back(grads.of(p).value().clone());
  }
  return out;
}

std::vector<Var> compute_gradient_vars(
    const Sequential& model, const Var& x,
    const std::vector<std::int64_t>& labels) {
  const std::vector<Var> params = parameter_vars(model, true);
  Var loss = softmax_cross_entropy(graph_forward(model, params, x), labels);
  Gradients grads = tensor::backward(loss, /*create_graph=*/true);
  std::vector<Var> out;
  out.reserve(params.size());
  for (const Var& p : params) {
    FEDCL_CHECK(grads.contains(p)) << "parameter unreached in backward";
    out.push_back(grads.of(p));
  }
  return out;
}

PerExampleGrads compute_per_example_gradients_sliced(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss) {
  const std::int64_t batch = x.dim(0);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), batch);
  FEDCL_CHECK_GT(batch, 0);
  const std::int64_t row = x.numel() / batch;

  PerExampleGrads grads = tensor::list::make_per_example(
      batch, tensor::list::shapes_of(model.parameters()));

  tensor::Shape ex_shape = x.shape();
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
    set_example(grads, j, grad);
  }
  if (out_loss != nullptr) *out_loss = total_loss / static_cast<double>(batch);
  return grads;
}

void set_example(PerExampleGrads& grads, std::int64_t j,
                 const TensorList& example) {
  FEDCL_CHECK(j >= 0 && j < grads.batch)
      << "example " << j << " batch " << grads.batch;
  FEDCL_CHECK_EQ(example.size(), grads.params.size());
  for (std::size_t p = 0; p < grads.params.size(); ++p) {
    FEDCL_CHECK(!grads.params[p].factored()) << "param " << p << " is factored";
    const std::int64_t width = example[p].numel();
    FEDCL_CHECK_EQ(width, grads.params[p].rows.numel() / grads.batch);
    std::memcpy(grads.params[p].rows.data() + j * width, example[p].data(),
                sizeof(float) * static_cast<std::size_t>(width));
  }
}

}  // namespace fedcl::nn
