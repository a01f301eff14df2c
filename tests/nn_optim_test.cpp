// Optimizer and checkpoint serialization tests.
#include <gtest/gtest.h>

#include <cstdio>

#include "nn/modules.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "temp_path.hpp"

namespace cpt::nn {
namespace {

// Minimizes f(w) = (w - 3)^2 and checks convergence.
template <typename MakeOpt>
void check_converges_to_three(MakeOpt make_opt, int steps, float tol) {
    Var w = make_param(Tensor::from({-5.0f}, {1}));
    auto opt = make_opt(std::vector<Var>{w});
    for (int i = 0; i < steps; ++i) {
        Var diff = add_scalar(w, -3.0f);
        Var loss = mean_all(mul(diff, diff));
        opt->zero_grad();
        backward(loss);
        opt->step();
    }
    EXPECT_NEAR(w->value[0], 3.0f, tol);
}

TEST(OptimTest, SgdConverges) {
    check_converges_to_three(
        [](std::vector<Var> p) { return std::make_unique<Sgd>(std::move(p), 0.1f); }, 200, 1e-3f);
}

TEST(OptimTest, SgdMomentumConverges) {
    check_converges_to_three(
        [](std::vector<Var> p) { return std::make_unique<Sgd>(std::move(p), 0.02f, 0.9f); }, 300,
        1e-2f);
}

TEST(OptimTest, AdamConverges) {
    check_converges_to_three(
        [](std::vector<Var> p) { return std::make_unique<Adam>(std::move(p), 0.1f); }, 400, 1e-2f);
}

TEST(OptimTest, AdamWeightDecayShrinksUnusedWeights) {
    // With zero gradient signal, decoupled weight decay alone must shrink the
    // parameter geometrically; without it the parameter stays put.
    Var decayed = make_param(Tensor::from({4.0f}, {1}));
    Var frozen = make_param(Tensor::from({4.0f}, {1}));
    Adam with_decay({decayed}, 0.1f, 0.9f, 0.999f, 1e-8f, 0.1f);
    Adam without({frozen}, 0.1f, 0.9f, 0.999f, 1e-8f, 0.0f);
    for (int i = 0; i < 50; ++i) {
        decayed->ensure_grad().fill(0.0f);
        frozen->ensure_grad().fill(0.0f);
        with_decay.step();
        without.step();
    }
    EXPECT_LT(decayed->value[0], 3.0f);
    EXPECT_FLOAT_EQ(frozen->value[0], 4.0f);
}

TEST(OptimTest, ZeroGradClears) {
    Var w = make_param(Tensor::from({1.0f}, {1}));
    Adam opt({w}, 0.1f);
    backward(mean_all(mul(w, w)));
    EXPECT_NE(w->grad[0], 0.0f);
    opt.zero_grad();
    EXPECT_EQ(w->grad[0], 0.0f);
}

TEST(OptimTest, ClipGradNorm) {
    Var a = make_param(Tensor::from({3.0f}, {1}));
    Var b = make_param(Tensor::from({4.0f}, {1}));
    a->ensure_grad()[0] = 3.0f;
    b->ensure_grad()[0] = 4.0f;
    const std::vector<Var> params{a, b};
    const double norm = clip_grad_norm(params, 1.0);
    EXPECT_NEAR(norm, 5.0, 1e-6);
    EXPECT_NEAR(a->grad[0], 3.0f / 5.0f, 1e-5f);
    EXPECT_NEAR(b->grad[0], 4.0f / 5.0f, 1e-5f);
    // Below the limit: untouched.
    const double norm2 = clip_grad_norm(params, 10.0);
    EXPECT_NEAR(norm2, 1.0, 1e-5);
    EXPECT_NEAR(a->grad[0], 0.6f, 1e-5f);
}

TEST(SerializeTest, RoundTripRestoresWeights) {
    util::Rng rng(11);
    Mlp a(3, 5, 2, rng);
    Mlp b(3, 5, 2, rng);  // different init
    const std::string path = test::temp_path("ckpt.bin");
    save_parameters(path, a.named_parameters("mlp."));
    load_parameters(path, b.named_parameters("mlp."));
    const auto pa = a.parameters();
    const auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        const auto da = pa[i]->value.data();
        const auto db = pb[i]->value.data();
        for (std::size_t j = 0; j < da.size(); ++j) EXPECT_EQ(da[j], db[j]);
    }
    std::remove(path.c_str());
}

TEST(SerializeTest, MismatchesRejected) {
    util::Rng rng(12);
    Mlp a(3, 5, 2, rng);
    Mlp wrong_shape(3, 6, 2, rng);
    Mlp wrong_names(3, 5, 2, rng);
    const std::string path = test::temp_path("ckpt.bin");
    save_parameters(path, a.named_parameters("mlp."));
    EXPECT_THROW(load_parameters(path, wrong_shape.named_parameters("mlp.")), std::runtime_error);
    EXPECT_THROW(load_parameters(path, wrong_names.named_parameters("other.")), std::runtime_error);
    EXPECT_THROW(load_parameters("/nonexistent/nope.bin", a.named_parameters("mlp.")),
                 std::runtime_error);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace cpt::nn
