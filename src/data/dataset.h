// In-memory labeled dataset and batch gathering.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace fedcl {
class Rng;
}

namespace fedcl::data {

using tensor::Shape;
using tensor::Tensor;

// A minibatch: features stacked along dim 0 plus labels.
struct Batch {
  Tensor x;
  std::vector<std::int64_t> labels;
  std::int64_t size() const { return x.defined() ? x.dim(0) : 0; }
};

// Copies example j of `batch` into `out` as a batch of size 1, reusing
// out's storage when the shape already matches. Callers that extract
// examples repeatedly keep one scratch Batch instead of allocating per
// example.
void copy_example(const Batch& batch, std::int64_t j, Batch& out);

// Immutable dataset: features [N, ...example dims], integer labels.
class Dataset {
 public:
  Dataset(Tensor features, std::vector<std::int64_t> labels,
          std::int64_t num_classes);

  std::int64_t size() const { return features_.dim(0); }
  std::int64_t num_classes() const { return num_classes_; }
  const Tensor& features() const { return features_; }
  const std::vector<std::int64_t>& labels() const { return labels_; }
  // Elements of one example (the row width without the leading N).
  std::int64_t example_numel() const;

  // Gathers the given rows into a batch.
  Batch gather(const std::vector<std::int64_t>& indices) const;
  Batch example(std::int64_t i) const;
  // Indices of all examples with the given label.
  std::vector<std::int64_t> indices_of_class(std::int64_t label) const;

 private:
  Tensor features_;
  std::vector<std::int64_t> labels_;
  std::int64_t num_classes_;
};

// A client's local view: indices into a shared base dataset (no data
// copies — mirrors data staying on-device in FL).
class ClientData {
 public:
  ClientData(std::shared_ptr<const Dataset> base,
             std::vector<std::int64_t> indices);

  std::int64_t size() const { return static_cast<std::int64_t>(indices_.size()); }
  const std::vector<std::int64_t>& indices() const { return indices_; }

  // Random batch of `batch_size` examples sampled with replacement —
  // the subsampling the moments accountant assumes (Definition 5).
  Batch sample_batch(Rng& rng, std::int64_t batch_size) const;
  // All local data as one batch.
  Batch all() const;
  // Distinct labels present locally.
  std::vector<std::int64_t> classes_present() const;

 private:
  std::shared_ptr<const Dataset> base_;
  std::vector<std::int64_t> indices_;
};

}  // namespace fedcl::data
