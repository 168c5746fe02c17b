#include "nn/layers.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/ops.h"

namespace fedcl::nn {

namespace o = tensor::ops;
using tensor::ConvSpec;
using tensor::Shape;
using tensor::Tensor;

namespace {

// Xavier/Glorot uniform initialization for a [fan_in, fan_out] matrix.
Tensor xavier_uniform(Shape shape, std::int64_t fan_in, std::int64_t fan_out,
                      Rng& rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::uniform(std::move(shape), rng, -limit, limit);
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_features_(in_features),
      weight_(xavier_uniform({in_features, out_features}, in_features,
                             out_features, rng),
              /*requires_grad=*/true),
      bias_(Tensor::zeros({out_features}), /*requires_grad=*/true),
      name_("linear(" + std::to_string(in_features) + "->" +
            std::to_string(out_features) + ")") {
  FEDCL_CHECK_GT(in_features, 0);
  FEDCL_CHECK_GT(out_features, 0);
}

Var Linear::forward(const Var& x) const {
  FEDCL_CHECK_EQ(x.value().ndim(), 2u);
  FEDCL_CHECK_EQ(x.value().dim(1), in_features_)
      << "Linear input width mismatch for " << name_;
  return o::add_rowvec(o::matmul(x, weight_), bias_);
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      name_("conv(" + std::to_string(in_channels) + "->" +
            std::to_string(out_channels) + ",k" + std::to_string(kernel) +
            ")") {
  FEDCL_CHECK_GT(in_channels, 0);
  FEDCL_CHECK_GT(out_channels, 0);
  FEDCL_CHECK_GT(kernel, 0);
  const std::int64_t patch = kernel * kernel * in_channels;
  const std::int64_t fan_in = patch;
  const std::int64_t fan_out = kernel * kernel * out_channels;
  weight_ = Var(xavier_uniform({patch, out_channels}, fan_in, fan_out, rng),
                /*requires_grad=*/true);
  bias_ = Var(Tensor::zeros({out_channels}), /*requires_grad=*/true);
}

Var Conv2d::forward(const Var& x) const {
  FEDCL_CHECK_EQ(x.value().ndim(), 4u) << "Conv2d expects NHWC";
  FEDCL_CHECK_EQ(x.value().dim(3), in_channels_)
      << "Conv2d channel mismatch for " << name_;
  const std::int64_t n = x.value().dim(0);
  ConvSpec spec{.in_h = x.value().dim(1),
                .in_w = x.value().dim(2),
                .in_c = in_channels_,
                .kernel_h = kernel_,
                .kernel_w = kernel_,
                .stride = stride_,
                .pad = pad_};
  spec.validate();
  Var cols = o::im2col(x, spec);
  Var y = o::add_rowvec(o::matmul(cols, weight_), bias_);
  return o::reshape(y, {n, spec.out_h(), spec.out_w(), out_channels_});
}

AvgPool2d::AvgPool2d(std::int64_t kernel) : kernel_(kernel) {
  FEDCL_CHECK_GT(kernel, 0);
}

Var AvgPool2d::forward(const Var& x) const {
  FEDCL_CHECK_EQ(x.value().ndim(), 4u) << "AvgPool2d expects NHWC";
  const std::int64_t n = x.value().dim(0);
  const std::int64_t c = x.value().dim(3);
  ConvSpec spec{.in_h = x.value().dim(1),
                .in_w = x.value().dim(2),
                .in_c = c,
                .kernel_h = kernel_,
                .kernel_w = kernel_,
                .stride = kernel_,
                .pad = 0};
  spec.validate();
  // P[(kh*KW + kw)*C + ch, ch] = 1/(k*k): channel-wise mean.
  Tensor p({spec.patch_size(), c});
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::int64_t k = 0; k < kernel_ * kernel_; ++k) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      p.at((k * c + ch) * c + ch) = inv;
    }
  }
  Var cols = o::im2col(x, spec);
  Var y = o::matmul(cols, o::constant(std::move(p)));
  return o::reshape(y, {n, spec.out_h(), spec.out_w(), c});
}

Var Flatten::forward(const Var& x) const {
  const auto& s = x.value().shape();
  FEDCL_CHECK_GE(s.size(), 2u);
  std::int64_t rest = 1;
  for (std::size_t i = 1; i < s.size(); ++i) rest *= s[i];
  return o::reshape(x, {s[0], rest});
}

Var InputScale::forward(const Var& x) const {
  return o::mul_scalar(o::add_scalar(x, shift_), scale_);
}

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kRelu:
      return "relu";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
  }
  return "?";
}

Var ActivationLayer::forward(const Var& x) const {
  switch (kind_) {
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

}  // namespace fedcl::nn
