// Shared test utilities: device fixtures and a numerical gradient checker.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gpusim/device.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace menos::testing {

/// A host device per test (unlimited, still metered).
inline gpusim::Device& host_device() {
  static auto device = gpusim::make_host_device("test-host");
  return *device;
}

/// Fixture for tests that create sim devices: TearDown asserts every
/// device this fixture handed out ends the test with allocated() == 0, so
/// a test that loses track of a single byte fails by name instead of
/// silently skewing the next measurement. In Debug builds the devices are
/// additionally audit-wrapped (MENOS_AUDIT_ALLOC), which upgrades the
/// failure to a per-tag leak table.
class DeviceTest : public ::testing::Test {
 protected:
  gpusim::Device& make_gpu(std::string name, std::size_t capacity_bytes) {
    devices_.push_back(gpusim::make_sim_gpu(std::move(name), capacity_bytes));
    return *devices_.back();
  }

  gpusim::Device& make_host(std::string name = "host") {
    devices_.push_back(gpusim::make_host_device(std::move(name)));
    return *devices_.back();
  }

  void TearDown() override {
    for (const auto& d : devices_) {
      EXPECT_EQ(d->allocated(), 0u)
          << "device '" << d->name()
          << "' ends the test with live bytes — every allocation in a test "
             "must be returned before it finishes";
    }
  }

  std::vector<std::unique_ptr<gpusim::Device>> devices_;
};

/// Compare an analytic backward pass against central finite differences.
///
/// `make_loss` must rebuild the forward computation from the current
/// contents of `inputs` and return a scalar tensor. Each input must be a
/// leaf with requires_grad = true.
inline void check_gradients(const std::function<tensor::Tensor()>& make_loss,
                            std::vector<tensor::Tensor> inputs,
                            float eps = 1e-2f, float rel_tol = 4e-2f,
                            float abs_tol = 2e-3f) {
  using tensor::Tensor;

  // Analytic gradients.
  for (Tensor& t : inputs) {
    ASSERT_TRUE(t.requires_grad());
    t.zero_grad();
  }
  Tensor loss = make_loss();
  ASSERT_EQ(loss.numel(), 1);
  tensor::backward(loss);

  std::vector<std::vector<float>> analytic;
  for (Tensor& t : inputs) {
    Tensor g = t.grad();
    ASSERT_TRUE(g.defined()) << "no gradient reached an input";
    analytic.push_back(g.to_vector());
  }

  // Numerical gradients, one coordinate at a time.
  tensor::NoGradGuard no_grad;
  for (std::size_t which = 0; which < inputs.size(); ++which) {
    Tensor& t = inputs[which];
    float* data = t.data();
    for (tensor::Index i = 0; i < t.numel(); ++i) {
      const float original = data[i];
      data[i] = original + eps;
      const float up = make_loss().item();
      data[i] = original - eps;
      const float down = make_loss().item();
      data[i] = original;
      const float numeric = (up - down) / (2.0f * eps);
      const float exact = analytic[which][static_cast<std::size_t>(i)];
      const float err = std::fabs(numeric - exact);
      const float scale = std::max(std::fabs(numeric), std::fabs(exact));
      EXPECT_LE(err, abs_tol + rel_tol * scale)
          << "input " << which << " coordinate " << i << ": analytic "
          << exact << " vs numeric " << numeric;
    }
  }
}

/// Random leaf tensor helper.
inline tensor::Tensor random_leaf(tensor::Shape shape, util::Rng& rng,
                                  gpusim::Device& device, float stddev = 0.5f) {
  tensor::Tensor t = tensor::Tensor::empty(std::move(shape), device);
  rng.fill_normal(t.data(), static_cast<std::size_t>(t.numel()), stddev);
  t.set_requires_grad(true);
  return t;
}

}  // namespace menos::testing
