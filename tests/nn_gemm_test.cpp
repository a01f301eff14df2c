// Bit-exactness of the blocked/threaded GEMM kernels against the naive
// reference kernels (see the accumulation contract in src/nn/gemm.hpp),
// pinned per SIMD tier. On the scalar and sse2 tiers the comparison is
// memcmp, not tolerance: those kernels must produce the same bits as the
// reference for every shape and every thread count, because sampler/world-gen
// determinism across CPT_THREADS rests on it. On every tier, avx2 included,
// packed gemm_nt gives raw gemm_nt's bits, and an NT row's bits do not depend
// on how many rows share the call (decode batches of any size). Cross-tier
// tolerance is covered by nn_simd_parity_test.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "nn/gemm.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace cpt::nn {
namespace {

using GemmFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t,
                        util::ThreadPool*);
using RefFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t);

// Pins the active SIMD tier for a scope and restores the previous one.
class TierGuard {
public:
    explicit TierGuard(util::SimdTier tier) : prev_(util::set_simd_tier(tier)) {}
    ~TierGuard() { util::set_simd_tier(prev_); }
    TierGuard(const TierGuard&) = delete;
    TierGuard& operator=(const TierGuard&) = delete;

private:
    util::SimdTier prev_;
};

// The tiers whose kernels promise reference bit-exactness.
std::vector<util::SimdTier> bit_exact_tiers() {
    std::vector<util::SimdTier> tiers{util::SimdTier::kScalar};
    if (util::simd_tier_available(util::SimdTier::kSse2)) tiers.push_back(util::SimdTier::kSse2);
    return tiers;
}

std::vector<float> random_floats(std::size_t n, std::mt19937& gen) {
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> v(n);
    for (float& x : v) x = dist(gen);
    return v;
}

void expect_bitwise_equal(const std::vector<float>& a, const std::vector<float>& b,
                          const char* what, std::size_t m, std::size_t k, std::size_t n) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what << " differs from reference at shape (" << m << ", " << k << ", " << n << ")";
}

struct Kernel {
    GemmFn blocked;
    RefFn ref;
    const char* name;
};

void check_shape(const Kernel& kernel, std::size_t m, std::size_t k, std::size_t n,
                 std::mt19937& gen) {
    util::ThreadPool pool1(1);
    util::ThreadPool pool4(4);
    const auto a = random_floats(m * k, gen);
    const auto b = random_floats(k * n, gen);
    // Kernels accumulate into C, so start all variants from the same nonzero C.
    const auto c0 = random_floats(m * n, gen);

    auto c_ref = c0;
    kernel.ref(a.data(), b.data(), c_ref.data(), m, k, n);
    auto c_p1 = c0;
    kernel.blocked(a.data(), b.data(), c_p1.data(), m, k, n, &pool1);
    auto c_p4 = c0;
    kernel.blocked(a.data(), b.data(), c_p4.data(), m, k, n, &pool4);

    // Thread-count invariance is unconditional.
    expect_bitwise_equal(c_p4, c_p1, kernel.name, m, k, n);
    expect_bitwise_equal(c_p1, c_ref, kernel.name, m, k, n);
}

const Kernel kKernels[] = {
    {gemm_nn, gemm_nn_ref, "gemm_nn"},
    {gemm_nt, gemm_nt_ref, "gemm_nt"},
    {gemm_tn, gemm_tn_ref, "gemm_tn"},
};

TEST(GemmBitExactTest, ModelScaleShapes) {
    std::mt19937 gen(7);
    // Shapes the training/inference stack actually hits: decode (M = 1),
    // d_model projections, MLP expansion/contraction, attention score mats.
    const std::size_t shapes[][3] = {
        {1, 64, 256},  {1, 9, 64},     {128, 64, 256}, {128, 256, 64},
        {512, 64, 64}, {512, 128, 128}, {64, 64, 6},    {500, 9, 128},
    };
    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        for (const auto& k : kKernels) {
            for (const auto& s : shapes) check_shape(k, s[0], s[1], s[2], gen);
        }
    }
}

TEST(GemmBitExactTest, RandomizedShapesIncludingTileEdges) {
    std::mt19937 gen(1234);
    std::uniform_int_distribution<std::size_t> dm(1, 37);
    std::uniform_int_distribution<std::size_t> dk(1, 48);
    std::uniform_int_distribution<std::size_t> dn(1, 70);
    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        for (int iter = 0; iter < 40; ++iter) {
            const std::size_t m = dm(gen);
            const std::size_t k = dk(gen);
            const std::size_t n = dn(gen);
            for (const auto& ker : kKernels) check_shape(ker, m, k, n, gen);
        }
    }
}

TEST(GemmBitExactTest, NonMultipleOfBlockSizes) {
    std::mt19937 gen(99);
    // Deliberately straddle the 4x8 / 4x4 register tiles and the 256-wide
    // column block: sizes one below/above each boundary.
    const std::size_t shapes[][3] = {
        {3, 5, 7},   {5, 3, 9},    {4, 8, 8},    {7, 11, 255},
        {9, 2, 257}, {33, 17, 63}, {2, 300, 31}, {1, 1, 1},
    };
    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        for (const auto& k : kKernels) {
            for (const auto& s : shapes) check_shape(k, s[0], s[1], s[2], gen);
        }
    }
}

TEST(GemmBitExactTest, GlobalPoolPathMatchesExplicitPool) {
    std::mt19937 gen(5);
    const std::size_t m = 50, k = 33, n = 29;
    const auto a = random_floats(m * k, gen);
    const auto b = random_floats(k * n, gen);
    const auto c0 = random_floats(m * n, gen);

    for (util::SimdTier tier : bit_exact_tiers()) {
        TierGuard guard(tier);
        auto c_ref = c0;
        gemm_nn_ref(a.data(), b.data(), c_ref.data(), m, k, n);
        util::set_global_threads(4);
        auto c_glob = c0;
        gemm_nn(a.data(), b.data(), c_glob.data(), m, k, n);  // pool = global
        util::set_global_threads(1);
        expect_bitwise_equal(c_glob, c_ref, "gemm_nn(global pool)", m, k, n);
    }
}

std::vector<util::SimdTier> all_tiers() {
    std::vector<util::SimdTier> tiers = bit_exact_tiers();
    if (util::simd_tier_available(util::SimdTier::kAvx2)) tiers.push_back(util::SimdTier::kAvx2);
    return tiers;
}

// Decode shapes: m from one row to a full sampler batch, d_model and MLP
// widths, and a width that is not a multiple of the 16-column tile. Weights
// are packed under one tier and multiplied under every tier.
TEST(GemmBitExactTest, PackedNtMatchesRawAcrossTiers) {
    std::mt19937 gen(31);
    const std::size_t k = 128;
    util::ThreadPool pool1(1);
    util::ThreadPool pool4(4);
    for (std::size_t n : {std::size_t{128}, std::size_t{1024}, std::size_t{300}}) {
        const auto b = random_floats(n * k, gen);
        for (util::SimdTier pack_tier : all_tiers()) {
            PackedNt packed;
            {
                TierGuard guard(pack_tier);
                packed = PackedNt(b.data(), k, n);
            }
            for (std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 32}) {
                const auto a = random_floats(m * k, gen);
                const auto c0 = random_floats(m * n, gen);
                for (util::SimdTier tier : all_tiers()) {
                    TierGuard guard(tier);
                    auto c_raw = c0;
                    gemm_nt(a.data(), b.data(), c_raw.data(), m, k, n, &pool1);
                    auto c_packed = c0;
                    gemm_nt_packed(a.data(), packed, c_packed.data(), m, &pool4);
                    expect_bitwise_equal(c_packed, c_raw, util::simd_tier_name(tier), m, k, n);
                }
            }
        }
    }
}

// Row r of an m-row NT product has the bits of the one-row product of A's
// row r, on every tier: a decoded stream does not depend on its batch.
TEST(GemmBitExactTest, NtRowBitsIndependentOfRowCount) {
    std::mt19937 gen(47);
    const std::array<std::size_t, 2> shapes[] = {{128, 1024}, {9, 128}, {1024, 128}, {33, 21}};
    for (const auto& s : shapes) {
        const std::size_t k = s[0], n = s[1];
        const auto b = random_floats(n * k, gen);
        const std::size_t m = 13;
        const auto a = random_floats(m * k, gen);
        for (util::SimdTier tier : all_tiers()) {
            TierGuard guard(tier);
            std::vector<float> c_all(m * n, 0.0f);
            gemm_nt(a.data(), b.data(), c_all.data(), m, k, n);
            for (std::size_t r = 0; r < m; ++r) {
                std::vector<float> c_row(n, 0.0f);
                gemm_nt(a.data() + r * k, b.data(), c_row.data(), 1, k, n);
                EXPECT_EQ(std::memcmp(c_row.data(), c_all.data() + r * n, n * sizeof(float)), 0)
                    << util::simd_tier_name(tier) << " row " << r << " of " << m << " at k=" << k
                    << " n=" << n;
            }
        }
    }
}

std::vector<float> transposed(const std::vector<float>& x, std::size_t rows, std::size_t cols) {
    std::vector<float> t(x.size());
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
    }
    return t;
}

// The TN accumulation contract on the active tier, at the shapes where avx2
// packs A strips (M wide), computes C^T (N wide), or walks both operands
// unpacked: each C element is one ascending-k chain added to C once. So
// gemm_tn equals gemm_nn over the materialized A^T, and the transpose of
// gemm_tn with the operands swapped (fma(a, b, acc) == fma(b, a, acc)), at
// any lane count. A non-zero C pins "added once".
TEST(GemmBitExactTest, TnMatchesNnAndSwappedOperandsOnActiveTier) {
    std::mt19937 gen(61);
    const std::size_t shapes[][3] = {
        {1024, 1000, 128}, {128, 1000, 1024}, {128, 1000, 128}, {1027, 67, 130},
        {130, 67, 1027},   {2048, 33, 9},     {9, 33, 2048},
    };
    util::ThreadPool pool1(1);
    util::ThreadPool pool4(4);
    const char* tier = util::simd_tier_name(util::active_simd_tier());
    for (const auto& s : shapes) {
        const std::size_t m = s[0], k = s[1], n = s[2];
        const auto a = random_floats(k * m, gen);  // [K, M]
        const auto b = random_floats(k * n, gen);  // [K, N]
        const auto at = transposed(a, k, m);       // [M, K]
        for (const bool zero_c : {true, false}) {
            const auto c0 = zero_c ? std::vector<float>(m * n, 0.0f) : random_floats(m * n, gen);
            for (util::ThreadPool* pool : {&pool1, &pool4}) {
                auto c_tn = c0;
                gemm_tn(a.data(), b.data(), c_tn.data(), m, k, n, pool);
                auto c_nn = c0;
                gemm_nn(at.data(), b.data(), c_nn.data(), m, k, n, pool);
                auto c_swap_t = transposed(c0, m, n);
                gemm_tn(b.data(), a.data(), c_swap_t.data(), n, k, m, pool);
                const auto c_swap = transposed(c_swap_t, n, m);
                const std::string what = std::string(tier) + (zero_c ? " zero C, " : " with C, ") +
                                         std::to_string(pool->threads()) + " lanes";
                expect_bitwise_equal(c_tn, c_nn, (what + ": gemm_tn vs gemm_nn(A^T)").c_str(), m,
                                     k, n);
                expect_bitwise_equal(c_tn, c_swap, (what + ": gemm_tn vs swapped^T").c_str(), m,
                                     k, n);
            }
        }
    }
}

}  // namespace
}  // namespace cpt::nn
