// Concrete layers: Linear, Conv2d (NHWC, im2col), AvgPool2d, Flatten,
// InputScale and elementwise activations. Each holds its geometry; the
// tape engine (nn/per_example.cpp) runs them.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "nn/layer.h"

namespace fedcl::nn {

// Fully connected: x[N,in] -> x W + b, W:[in,out], b:[out].
class Linear : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);
  std::string name() const override { return name_; }
  std::int64_t in_features() const { return in_features_; }

 private:
  std::int64_t in_features_;
  std::string name_;
};

// 2-D convolution on NHWC input. Weight is stored unfolded as
// [kernel*kernel*in_c, out_c] so forward is im2col + matmul.
class Conv2d : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         Rng& rng);
  std::string name() const override { return name_; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
  std::string name_;
};

// Average pooling with kernel == stride: each output is the mean of its
// channel's k x k window.
class AvgPool2d : public Layer {
 public:
  explicit AvgPool2d(std::int64_t kernel);
  std::string name() const override { return "avgpool"; }
  std::int64_t kernel() const { return kernel_; }

 private:
  std::int64_t kernel_;
};

// [N,H,W,C] -> [N, H*W*C].
class Flatten : public Layer {
 public:
  std::string name() const override { return "flatten"; }
};

// Fixed affine input transform y = (x + shift) * scale. Used to center
// [0,1] image inputs to [-1,1], which removes the large common-mode
// component that slows early training. Stateless (no parameters).
class InputScale : public Layer {
 public:
  InputScale(float shift, float scale) : shift_(shift), scale_(scale) {}
  std::string name() const override { return "input_scale"; }
  float shift() const { return shift_; }
  float scale() const { return scale_; }

 private:
  float shift_;
  float scale_;
};

enum class Activation { kRelu, kSigmoid, kTanh };

const char* activation_name(Activation a);

class ActivationLayer : public Layer {
 public:
  explicit ActivationLayer(Activation kind) : kind_(kind) {}
  std::string name() const override { return activation_name(kind_); }
  Activation kind() const { return kind_; }

 private:
  Activation kind_;
};

}  // namespace fedcl::nn
