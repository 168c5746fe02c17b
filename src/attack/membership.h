// Membership inference attack (Yeom et al. style loss thresholding).
//
// The paper's Section II groups membership inference with gradient
// leakage as the dominating privacy threats: a model's loss on
// training members is statistically lower than on unseen data, and an
// adversary exploiting the gap can tell whether a given example was
// used for training. This module quantifies that gap for any trained
// model — the extension bench uses it to show that Fed-CDP's
// differential privacy also shrinks membership advantage, while
// non-private FL leaves a measurable gap.
#pragma once

#include "data/dataset.h"
#include "nn/layer.h"

namespace fedcl::attack {

struct MembershipResult {
  // Mean cross-entropy loss on members (training data) vs non-members.
  double member_mean_loss = 0.0;
  double nonmember_mean_loss = 0.0;
  // Best balanced accuracy over all loss thresholds (0.5 = no signal).
  double attack_accuracy = 0.5;
  // Yeom membership advantage = 2 * (attack_accuracy - 0.5).
  double advantage = 0.0;
  // AUC of "loss < threshold => member" over threshold sweep.
  double auc = 0.5;
};

// Scores the attack on equally many member and non-member examples
// (the smaller batch bounds both sides for balance).
MembershipResult evaluate_membership(const nn::Sequential& model,
                                     const data::Batch& members,
                                     const data::Batch& nonmembers);

// Per-example cross-entropy losses of the tape's raw forward.
std::vector<double> per_example_losses(const nn::Sequential& model,
                                       const data::Batch& batch);

}  // namespace fedcl::attack
