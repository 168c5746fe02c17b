// Extension experiment (Section II): membership inference against a
// model trained under each policy's per-example sanitization hook.
//
// Setup: a deliberately hard attribute task (high label noise relative
// to class separation) where fitting the training set requires
// memorization. A Yeom-style loss-threshold adversary then
// distinguishes members from holdout examples. DP training bounds the
// advantage: Fed-CDP's per-example noise curbs memorization at the
// source, while Fed-SDP (which only perturbs the *shared* updates, not
// the local optimization) leaves it intact.
#include <cstdio>
#include <memory>
#include <vector>

#include "attack/membership.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"

namespace {

using namespace fedcl;

struct TrainedModel {
  std::shared_ptr<nn::Sequential> model;
  double train_accuracy = 0.0;
};

// Mirrors Client::run_round's per-example path on a fixed member set.
TrainedModel train_under_policy(const core::PrivacyPolicy& policy,
                                const data::Batch& members,
                                std::int64_t steps, std::int64_t batch_size,
                                std::uint64_t seed) {
  TrainedModel out;
  nn::ModelSpec spec{.kind = nn::ModelSpec::Kind::kMlp,
                     .in_features = members.x.dim(1),
                     .classes = 2,
                     .hidden1 = 32,
                     .hidden2 = 32};
  Rng mrng = Rng(seed).fork("model");
  out.model = nn::build_model(spec, mrng);
  const dp::ParamGroups groups = [&] {
    dp::ParamGroups g;
    for (const auto& lg : out.model->layer_groups())
      g.push_back(lg.param_indices);
    return g;
  }();
  nn::SgdOptimizer opt(0.3);
  Rng rng = Rng(seed).fork("steps");
  const std::int64_t n = members.x.dim(0);
  const std::int64_t row = members.x.numel() / n;
  for (std::int64_t s = 0; s < steps; ++s) {
    core::TensorList grad;
    for (std::int64_t j = 0; j < batch_size; ++j) {
      const auto pick = static_cast<std::int64_t>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
      tensor::Tensor x({1, row});
      std::copy(members.x.data() + pick * row,
                members.x.data() + (pick + 1) * row, x.data());
      std::vector<std::int64_t> label = {
          members.labels[static_cast<std::size_t>(pick)]};
      // Each pick is sanitized as a one-example batch, so its noise key
      // comes right after its pick in the stream.
      const core::TensorList raw = nn::compute_gradients(*out.model, x, label);
      core::TensorList g =
          policy
              .sanitize_per_example_batch(tensor::list::as_one_example(raw),
                                          groups, 0, rng, 0)
              .observed;
      if (grad.empty()) {
        grad = std::move(g);
      } else {
        tensor::list::add_(grad, g);
      }
    }
    tensor::list::scale_(grad, 1.0f / static_cast<float>(batch_size));
    opt.step(*out.model, grad);
  }
  out.train_accuracy =
      nn::evaluate_accuracy(*out.model, members.x, members.labels);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedcl;
  bench::init_bench(argc, argv);
  bench::print_preamble(
      "bench_ext_membership",
      "extension: membership inference vs privacy policy");

  // Hard task: wide class overlap forces memorization to fit members.
  data::SyntheticSpec spec{.example_shape = {32},
                           .classes = 2,
                           .count = 96,
                           .noise = 2.5f,
                           .clamp01 = false};
  Rng root(experiment_seed());
  Rng drng = root.fork("members");
  data::Dataset train = data::generate_synthetic(spec, drng);
  Rng hrng = root.fork("holdout");
  data::Dataset holdout = data::generate_synthetic(spec, hrng);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(train.size()));
  for (std::int64_t i = 0; i < train.size(); ++i)
    idx[static_cast<std::size_t>(i)] = i;
  data::Batch members = train.gather(idx);
  data::Batch nonmembers = holdout.gather(idx);

  const std::int64_t steps =
      bench_scale() == BenchScale::kSmoke ? 100 : 800;
  const double sigma = data::default_noise_scale();
  bench::PolicySet policies = bench::make_policy_set(/*total_rounds=*/1,
                                                     sigma);

  json::Value doc = json::Value::object();
  doc["bench"] = "bench_ext_membership";
  doc["steps"] = steps;
  json::Value results = json::Value::array();

  AsciiTable table(
      "Membership inference after per-example training (hard 2-class "
      "task, " + std::to_string(steps) + " steps)");
  table.set_header({"policy", "train acc", "member loss", "holdout loss",
                    "attack acc", "advantage", "AUC"});
  for (const core::PrivacyPolicy* policy : policies.all()) {
    TrainedModel trained = train_under_policy(
        *policy, members, steps, /*batch_size=*/4, experiment_seed());
    attack::MembershipResult m =
        attack::evaluate_membership(*trained.model, members, nonmembers);
    table.add_row({policy->name(), AsciiTable::fmt(trained.train_accuracy, 3),
                   AsciiTable::fmt(m.member_mean_loss, 3),
                   AsciiTable::fmt(m.nonmember_mean_loss, 3),
                   AsciiTable::fmt(m.attack_accuracy, 3),
                   AsciiTable::fmt(m.advantage, 3),
                   AsciiTable::fmt(m.auc, 3)});
    std::printf("%s done (advantage %.3f)\n", policy->name().c_str(),
                m.advantage);
    json::Value r = json::Value::object();
    r["policy"] = policy->name();
    r["train_accuracy"] = trained.train_accuracy;
    r["member_mean_loss"] = m.member_mean_loss;
    r["nonmember_mean_loss"] = m.nonmember_mean_loss;
    r["attack_accuracy"] = m.attack_accuracy;
    r["advantage"] = m.advantage;
    r["auc"] = m.auc;
    results.push_back(std::move(r));
    // Per-example DP should keep the advantage low; policies without
    // the per-example hook should stay distinguishable (high).
    const bool per_example = policy->name() == "Fed-CDP" ||
                             policy->name() == "Fed-CDP(decay)";
    bench::add_metric(doc, "advantage." + policy->name(), m.advantage,
                      per_example ? "lower" : "higher", "ratio");
  }
  table.print();
  std::printf(
      "Expected shape: non-private and Fed-SDP (no per-example hook) "
      "memorize the members — large loss gap, advantage >> 0; Fed-CDP "
      "and Fed-CDP(decay) suppress memorization, advantage -> 0.\n");
  doc["results"] = std::move(results);
  return bench::emit_bench_json("ext_membership", doc) ? 0 : 1;
}
