#include "attack/membership.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "nn/loss.h"
#include "nn/per_example.h"

namespace fedcl::attack {

std::vector<double> per_example_losses(const nn::Sequential& model,
                                       const data::Batch& batch) {
  FEDCL_CHECK_GT(batch.size(), 0);
  const tensor::Tensor probs = nn::softmax(nn::forward(model, batch.x));
  const std::int64_t c = probs.dim(1);
  std::vector<double> losses;
  losses.reserve(static_cast<std::size_t>(batch.size()));
  for (std::int64_t i = 0; i < batch.size(); ++i) {
    const std::int64_t label = batch.labels[static_cast<std::size_t>(i)];
    const double p =
        std::max(1e-12, static_cast<double>(probs.at(i * c + label)));
    losses.push_back(-std::log(p));
  }
  return losses;
}

MembershipResult evaluate_membership(const nn::Sequential& model,
                                     const data::Batch& members,
                                     const data::Batch& nonmembers) {
  std::vector<double> member_losses = per_example_losses(model, members);
  std::vector<double> nonmember_losses =
      per_example_losses(model, nonmembers);
  // Balance the two sides.
  const std::size_t n =
      std::min(member_losses.size(), nonmember_losses.size());
  FEDCL_CHECK_GT(n, 0u);
  member_losses.resize(n);
  nonmember_losses.resize(n);

  MembershipResult result;
  for (double l : member_losses) result.member_mean_loss += l;
  for (double l : nonmember_losses) result.nonmember_mean_loss += l;
  result.member_mean_loss /= static_cast<double>(n);
  result.nonmember_mean_loss /= static_cast<double>(n);

  // Threshold sweep: predict "member" when loss < threshold. Balanced
  // accuracy at the best threshold; AUC from pairwise ranking.
  std::vector<double> all = member_losses;
  all.insert(all.end(), nonmember_losses.begin(), nonmember_losses.end());
  std::sort(all.begin(), all.end());
  double best = 0.5;
  for (double threshold : all) {
    std::size_t member_hits = 0, nonmember_hits = 0;
    for (double l : member_losses) member_hits += l <= threshold ? 1 : 0;
    for (double l : nonmember_losses) nonmember_hits += l > threshold ? 1 : 0;
    const double balanced =
        0.5 * (static_cast<double>(member_hits) / n +
               static_cast<double>(nonmember_hits) / n);
    best = std::max(best, balanced);
  }
  result.attack_accuracy = best;
  result.advantage = 2.0 * (best - 0.5);

  // AUC: P(member loss < nonmember loss) + 0.5 P(tie).
  double wins = 0.0;
  for (double m : member_losses) {
    for (double o : nonmember_losses) {
      if (m < o) {
        wins += 1.0;
      } else if (m == o) {
        wins += 0.5;
      }
    }
  }
  result.auc = wins / (static_cast<double>(n) * static_cast<double>(n));
  return result;
}

}  // namespace fedcl::attack
