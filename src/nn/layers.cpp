#include "nn/layers.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace fedcl::nn {

using tensor::Shape;

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
      name_("linear(" + std::to_string(in_features) + "->" +
            std::to_string(out_features) + ")") {
  FEDCL_CHECK_GT(in_features, 0);
  FEDCL_CHECK_GT(out_features, 0);
  params_ = {xavier_uniform({in_features, out_features}, in_features,
                            out_features, rng),
             Tensor::zeros({out_features})};
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
  params_ = {xavier_uniform({patch, out_channels}, fan_in, fan_out, rng),
             Tensor::zeros({out_channels})};
}

AvgPool2d::AvgPool2d(std::int64_t kernel) : kernel_(kernel) {
  FEDCL_CHECK_GT(kernel, 0);
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

}  // namespace fedcl::nn
