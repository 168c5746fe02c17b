#include <gtest/gtest.h>

#include "attack/membership.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"

namespace fedcl::attack {
namespace {

struct MembershipFixture {
  std::shared_ptr<nn::Sequential> model;
  data::Batch members;
  data::Batch nonmembers;

  MembershipFixture() {
    Rng rng(31);
    data::SyntheticSpec spec{.example_shape = {12},
                             .classes = 2,
                             .count = 64,
                             .noise = 1.2f,  // hard task => memorization gap
                             .clamp01 = false};
    Rng drng = rng.fork("d");
    data::Dataset train = data::generate_synthetic(spec, drng);
    Rng vrng = rng.fork("v");
    data::Dataset holdout = data::generate_synthetic(spec, vrng);
    nn::ModelSpec ms{.kind = nn::ModelSpec::Kind::kMlp,
                     .in_features = 12,
                     .classes = 2,
                     .hidden1 = 32,
                     .hidden2 = 32};
    Rng mrng = rng.fork("m");
    model = nn::build_model(ms, mrng);
    std::vector<std::int64_t> all(64);
    for (int i = 0; i < 64; ++i) all[i] = i;
    members = train.gather(all);
    nonmembers = holdout.gather(all);
    // Random labels: the model can only *memorize* them, so an
    // overfit model is guaranteed a member/non-member loss gap while
    // an untrained model has none.
    Rng lrng = rng.fork("labels");
    for (auto& l : members.labels) l = static_cast<std::int64_t>(
        lrng.uniform_int(2));
    for (auto& l : nonmembers.labels) l = static_cast<std::int64_t>(
        lrng.uniform_int(2));
  }

  void overfit(int epochs) {
    nn::SgdOptimizer opt(0.5);
    for (int e = 0; e < epochs; ++e) {
      nn::TensorList g =
          nn::compute_gradients(*model, members.x, members.labels);
      opt.step(*model, g);
    }
  }
};

TEST(Membership, PerExampleLossesPositiveAndSized) {
  MembershipFixture fx;
  std::vector<double> losses = per_example_losses(*fx.model, fx.members);
  EXPECT_EQ(losses.size(), 64u);
  for (double l : losses) EXPECT_GT(l, 0.0);
}

TEST(Membership, UntrainedModelHasNoAdvantage) {
  MembershipFixture fx;
  MembershipResult r =
      evaluate_membership(*fx.model, fx.members, fx.nonmembers);
  // Random-init model: member and non-member losses indistinguishable.
  EXPECT_LT(r.advantage, 0.35);
  EXPECT_NEAR(r.auc, 0.5, 0.2);
}

TEST(Membership, OverfitModelLeaksMembership) {
  MembershipFixture fx;
  fx.overfit(300);
  MembershipResult r =
      evaluate_membership(*fx.model, fx.members, fx.nonmembers);
  EXPECT_LT(r.member_mean_loss, r.nonmember_mean_loss);
  EXPECT_GT(r.attack_accuracy, 0.65);
  EXPECT_GT(r.auc, 0.65);
  EXPECT_NEAR(r.advantage, 2.0 * (r.attack_accuracy - 0.5), 1e-12);
}

TEST(Membership, BalancesUnequalBatches) {
  MembershipFixture fx;
  data::Batch few;
  {
    tensor::Shape s = fx.nonmembers.x.shape();
    s[0] = 8;
    few.x = tensor::Tensor(s);
    std::copy(fx.nonmembers.x.data(), fx.nonmembers.x.data() + 8 * 12,
              few.x.data());
    few.labels.assign(fx.nonmembers.labels.begin(),
                      fx.nonmembers.labels.begin() + 8);
  }
  MembershipResult r = evaluate_membership(*fx.model, fx.members, few);
  EXPECT_GE(r.attack_accuracy, 0.5);
  EXPECT_LE(r.attack_accuracy, 1.0);
}

}  // namespace
}  // namespace fedcl::attack
