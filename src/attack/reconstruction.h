// Gradient-leakage reconstruction attack (paper Figure 1a).
//
// Given an observed gradient g* (the leakage), the adversary:
//  1. initializes a dummy input x_rec (seed_init.h),
//  2. computes the dummy gradient grad_W loss(x_rec, y) through the
//     intercepted model,
//  3. minimizes the L2 gradient-matching loss
//     sum_layers ||grad_W(x_rec) - g*||^2 over x_rec with L-BFGS, each
//     evaluation one forward-over-reverse pass on the tape
//     (nn::input_grad_of_gradient_dot),
//  4. declares success when the reconstruction distance (RMSE against
//     the private input) falls below a threshold, or gives up after
//     `max_iterations` (the paper's attack-termination condition T,
//     default 300).
//
// The same attack serves all three leakage types: type-0/1 match the
// per-client round update (batched gradient), type-2 matches one
// per-example gradient observed during local training.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "attack/lbfgs.h"
#include "attack/seed_init.h"
#include "nn/layer.h"
#include "tensor/tensor_list.h"

namespace fedcl {
class Rng;
}

namespace fedcl::attack {

using tensor::Tensor;
using tensor::list::TensorList;

struct AttackConfig {
  // The paper's termination condition T.
  int max_iterations = 300;
  SeedInit seed_init = SeedInit::kPatternedRandom;
  std::uint64_t seed = 20210701;
  LbfgsOptions lbfgs;
};

struct AttackResult {
  bool success = false;
  // RMSE between the private input and the reconstruction when the
  // attack stopped (the paper's "attack reconstruction distance").
  double reconstruction_distance = 0.0;
  // Attack iterations executed (== max_iterations for failed attacks,
  // matching how the paper reports Table VII).
  int iterations = 0;
  double final_gradient_loss = 0.0;
  Tensor reconstruction;
  // Copy of the private input the attack was scored against (handy for
  // visual side-by-side rendering).
  Tensor ground_truth;
};

class GradientReconstructionAttack {
 public:
  // The adversary holds the intercepted model (architecture + current
  // weights) — exactly what a curious server or client-resident
  // process has in the paper's threat model.
  GradientReconstructionAttack(std::shared_ptr<nn::Sequential> model,
                               AttackConfig config);

  // Reconstructs the private input(s) behind `observed_gradient`.
  //  - input_shape includes the batch dim ({B,H,W,C} or {B,D});
  //  - labels are the labels of the examples (the probe captures them);
  //  - ground_truth is the private input, used only for scoring.
  // Throws fedcl::Error unless observed_gradient has one tensor per
  // model parameter, each of that parameter's shape.
  AttackResult run(const TensorList& observed_gradient,
                   const tensor::Shape& input_shape,
                   const std::vector<std::int64_t>& labels,
                   const Tensor& ground_truth) const;

 private:
  std::shared_ptr<nn::Sequential> model_;
  AttackConfig config_;
};

}  // namespace fedcl::attack
