#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "nn/metrics.h"
#include "nn/model_zoo.h"

namespace fedcl::nn {
namespace {

using tensor::Tensor;
using tensor::list::TensorList;

TEST(ConfusionMatrix, CountsAndAccuracy) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 2);
  EXPECT_EQ(cm.total(), 4);
  EXPECT_EQ(cm.count(0, 1), 1);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
  EXPECT_THROW(cm.add(3, 0), Error);
  EXPECT_THROW(ConfusionMatrix(1), Error);
}

TEST(ConfusionMatrix, PrecisionRecallF1) {
  ConfusionMatrix cm(2);
  // class 1: TP=2, FP=1, FN=1.
  cm.add(1, 1);
  cm.add(1, 1);
  cm.add(0, 1);
  cm.add(1, 0);
  cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 2.0 / 3.0);
  EXPECT_NEAR(cm.f1(1), 2.0 / 3.0, 1e-12);
  EXPECT_GT(cm.macro_f1(), 0.0);
}

TEST(ConfusionMatrix, EmptyClassYieldsZeroNotNan) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.precision(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(2), 0.0);
}

TEST(ConfusionMatrix, AddBatchFromLogits) {
  ConfusionMatrix cm(2);
  Tensor logits = Tensor::from_vector({3, 2}, {5, 0, 0, 5, 5, 0});
  cm.add_batch(logits, {0, 1, 1});
  EXPECT_DOUBLE_EQ(cm.accuracy(), 2.0 / 3.0);
  EXPECT_NE(cm.render().find("confusion"), std::string::npos);
}

}  // namespace
}  // namespace fedcl::nn
