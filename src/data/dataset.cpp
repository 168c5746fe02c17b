#include "data/dataset.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/error.h"
#include "common/rng.h"

namespace fedcl::data {

Dataset::Dataset(Tensor features, std::vector<std::int64_t> labels,
                 std::int64_t num_classes)
    : features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  FEDCL_CHECK(features_.defined());
  FEDCL_CHECK_GE(features_.ndim(), 2u) << "features need a batch dim";
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels_.size()), features_.dim(0));
  FEDCL_CHECK_GT(num_classes_, 1);
  for (std::int64_t label : labels_) {
    FEDCL_CHECK(label >= 0 && label < num_classes_)
        << "label " << label << " outside [0," << num_classes_ << ")";
  }
}

void copy_example(const Batch& batch, std::int64_t j, Batch& out) {
  FEDCL_CHECK(j >= 0 && j < batch.size());
  Shape shape = batch.x.shape();
  shape[0] = 1;
  if (!out.x.defined() || !(out.x.shape() == shape)) {
    out.x = Tensor(shape);
  }
  const std::int64_t row = batch.x.numel() / batch.size();
  std::memcpy(out.x.data(), batch.x.data() + j * row,
              sizeof(float) * static_cast<std::size_t>(row));
  out.labels.assign(1, batch.labels[static_cast<std::size_t>(j)]);
}

std::int64_t Dataset::example_numel() const {
  return features_.numel() / std::max<std::int64_t>(1, size());
}

Batch Dataset::gather(const std::vector<std::int64_t>& indices) const {
  FEDCL_CHECK(!indices.empty());
  Shape bshape = features_.shape();
  bshape[0] = static_cast<std::int64_t>(indices.size());
  Batch batch;
  batch.x = Tensor(bshape);
  batch.labels.reserve(indices.size());
  const std::int64_t row = example_numel();
  const float* src = features_.data();
  float* dst = batch.x.data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t idx = indices[i];
    FEDCL_CHECK(idx >= 0 && idx < size()) << "index " << idx;
    std::memcpy(dst + static_cast<std::int64_t>(i) * row, src + idx * row,
                sizeof(float) * static_cast<std::size_t>(row));
    batch.labels.push_back(labels_[static_cast<std::size_t>(idx)]);
  }
  return batch;
}

Batch Dataset::example(std::int64_t i) const { return gather({i}); }

std::vector<std::int64_t> Dataset::indices_of_class(std::int64_t label) const {
  std::vector<std::int64_t> out;
  for (std::int64_t i = 0; i < size(); ++i) {
    if (labels_[static_cast<std::size_t>(i)] == label) out.push_back(i);
  }
  return out;
}

ClientData::ClientData(std::shared_ptr<const Dataset> base,
                       std::vector<std::int64_t> indices)
    : base_(std::move(base)), indices_(std::move(indices)) {
  FEDCL_CHECK(base_ != nullptr);
  FEDCL_CHECK(!indices_.empty()) << "client with no data";
  for (std::int64_t i : indices_) {
    FEDCL_CHECK(i >= 0 && i < base_->size());
  }
}

Batch ClientData::sample_batch(Rng& rng, std::int64_t batch_size) const {
  FEDCL_CHECK_GT(batch_size, 0);
  std::vector<std::int64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(batch_size));
  for (std::int64_t i = 0; i < batch_size; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(indices_.size())));
    chosen.push_back(indices_[j]);
  }
  return base_->gather(chosen);
}

Batch ClientData::all() const { return base_->gather(indices_); }

std::vector<std::int64_t> ClientData::classes_present() const {
  std::set<std::int64_t> seen;
  for (std::int64_t i : indices_) {
    seen.insert(base_->labels()[static_cast<std::size_t>(i)]);
  }
  return std::vector<std::int64_t>(seen.begin(), seen.end());
}

}  // namespace fedcl::data
