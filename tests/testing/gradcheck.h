// Finite-difference gradient checking helpers shared by tests.
#pragma once

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "testing/autograd.h"
#include "testing/ops.h"
#include "tensor/tensor.h"

namespace fedcl::testing {

using tensor::Gradients;
using tensor::Tensor;
using tensor::Var;

// Checks d f / d inputs[i] (backward) against central finite
// differences for a scalar-valued f. Inputs should avoid kinks (e.g.
// relu at 0) — finite differences are meaningless there.
inline void expect_gradcheck(
    const std::function<Var(const std::vector<Var>&)>& f,
    const std::vector<Tensor>& inputs, float eps = 1e-2f, float atol = 6e-3f,
    float rtol = 6e-2f) {
  // Analytic gradients.
  std::vector<Var> vars;
  vars.reserve(inputs.size());
  for (const Tensor& t : inputs) vars.emplace_back(t.clone(), true);
  Var out = f(vars);
  ASSERT_EQ(out.numel(), 1) << "gradcheck target must be scalar";
  Gradients grads = tensor::backward(out);

  for (std::size_t vi = 0; vi < vars.size(); ++vi) {
    ASSERT_TRUE(grads.contains(vars[vi])) << "input " << vi << " unreached";
    Tensor analytic = grads.of(vars[vi]).value();
    Tensor perturbed = inputs[vi].clone();
    std::vector<Var> probe = vars;
    for (std::int64_t j = 0; j < perturbed.numel(); ++j) {
      const float orig = perturbed.at(j);
      perturbed.at(j) = orig + eps;
      probe[vi] = Var(perturbed.clone(), false);
      const float up = f(probe).value().item();
      perturbed.at(j) = orig - eps;
      probe[vi] = Var(perturbed.clone(), false);
      const float down = f(probe).value().item();
      perturbed.at(j) = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float got = analytic.at(j);
      const float tol = atol + rtol * std::abs(numeric);
      EXPECT_NEAR(got, numeric, tol)
          << "input " << vi << " element " << j;
    }
    probe[vi] = vars[vi];
  }
}

}  // namespace fedcl::testing
