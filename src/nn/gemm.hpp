// Cache-blocked, register-tiled, multi-threaded GEMM kernels for the nn
// substrate, dispatched at runtime across three SIMD tiers (scalar, SSE2,
// AVX2+FMA — see util/cpu.hpp), plus the naive reference kernels they are
// tested against. nn/tn matmuls with m == 1 (decode-shaped) route through
// dedicated single-threaded GEMV kernels instead of the blocked drivers.
//
// All kernels ACCUMULATE into C (callers zero it or rely on fresh tensors)
// and share one accumulation contract: the floating-point operations
// producing a C element are a pure function of (element index, shape, active
// tier). Register tiling changes which elements are computed together, and
// threading changes which rows are computed where, but never the per-element
// operation sequence — so every tier is byte-stable across CPT_THREADS, and
// a row's bits do not depend on how many rows share the call (decode batches
// of any size give each stream the bits of a batch of one).
// Tier-relative numerics:
//   * scalar / sse2: a single ascending-k accumulator per element, added to
//     C exactly once — BIT-IDENTICAL to the reference kernels for every
//     shape, m == 1 included (pinned by tests/nn_gemm_test.cpp).
//   * avx2: one FMA chain per element in ascending k, added to C once (NT
//     through transposed B panels, at every m) — tolerance vs the reference,
//     still byte-stable across thread counts (tests/nn_simd_parity_test.cpp).
//     TN walks both operands down their columns, so its loop order follows
//     the strides, decided from (m, k, n) alone: with M >= 512 (A rows 2 KiB
//     or more apart) each 16-column A strip is packed contiguous first; else
//     with N >= 512 it computes C^T = gemm_tn(B, A) strip by strip and adds
//     t[j,i] to c[i,j]. fma(a, b, acc) == fma(b, a, acc) exactly, and the
//     C^T buffer starts at -0.0 (x + -0.0 == x for every x), so each element
//     is still its one chain added to C once: TN equals NN over the
//     materialized A^T, bit for bit, on every tier. The MLP weight gradients
//     (1024 x 1000 x 128, 128 x 1000 x 1024) went from ~15 to ~35-50
//     GFLOP/s on one lane; narrower shapes keep the unpacked walk.
//
// The K dimension is deliberately not split (no Kc accumulation blocking):
// at this project's sizes (d_model <= 128, MLP <= 1024, vocab < 16) a full-K
// micro-panel fits in L1, and keeping K whole is what preserves the
// per-element order above.
#pragma once

#include <cstddef>
#include <vector>

#include "util/thread_pool.hpp"

namespace cpt::nn {

// Blocked/threaded kernels. `pool` defaults to util::global_pool(); pass an
// explicit pool to pin a thread count (benchmarks, tests). Work smaller than
// one grain runs inline on the calling thread.

// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim, util::ThreadPool* pool = nullptr);

// C[M,N] += A[M,K] * B^T where B is stored [N,K]
void gemm_nt(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim, util::ThreadPool* pool = nullptr);

// C[M,N] += A^T * B where A is stored [K,M], B is [K,N]
void gemm_tn(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
             std::size_t n_dim, util::ThreadPool* pool = nullptr);

// The B operand of gemm_nt ([N,K] row-major — a Linear weight) repacked once
// into transposed column panels, which the broadcast micro-kernels of every
// tier read, so callers that multiply by the same matrix many times (decode)
// skip the per-call transpose gemm_nt pays on avx2. A snapshot: later writes
// to the source matrix are not seen. K * (256 + 16) floats per panel.
class PackedNt {
public:
    PackedNt() = default;
    PackedNt(const float* b, std::size_t k_dim, std::size_t n_dim);

    std::size_t k_dim() const { return k_dim_; }
    std::size_t n_dim() const { return n_dim_; }
    // Panel p: 256 columns (fewer in the last) as [K x (width + 16)].
    const float* panel(std::size_t p) const;
    std::size_t bytes() const { return panels_.size() * sizeof(float); }

private:
    std::size_t k_dim_ = 0;
    std::size_t n_dim_ = 0;
    std::vector<float> panels_;
};

// C[M,N] += A[M,K] * B^T with B packed: the same bits as gemm_nt on the
// source matrix, on every tier and at every m (pinned by
// tests/nn_gemm_test.cpp).
void gemm_nt_packed(const float* a, const PackedNt& b, float* c, std::size_t m_dim,
                    util::ThreadPool* pool = nullptr);

// Naive single-threaded reference kernels (triple loop, ascending-k dot
// products). Retained for the bit-exactness tests and the perf baseline in
// bench_micro_nn.
void gemm_nn_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim);
void gemm_nt_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim);
void gemm_tn_ref(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                 std::size_t n_dim);

}  // namespace cpt::nn
