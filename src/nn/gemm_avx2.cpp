// AVX2+FMA GEMM/GEMV tier. Built with -mavx2 -mfma (see src/nn/CMakeLists);
// when the compiler lacks those flags every entry point degrades to a
// CPT_CHECK failure — the dispatcher in gemm.cpp never selects this tier
// unless util::detect_simd_tier() reports it available.
//
// Accumulation contract (same as gemm.cpp): every float C element is one
// FMA chain in ascending k from zero, added to C once — for NN, TN and NT
// (through transposed B panels) at every row count — so results are
// byte-identical across thread counts, and a row's bits do not depend on how
// many rows share the call. Scalar and masked edge paths round exactly like
// the vector lanes.
#include "simd_detail.hpp"

#include "util/check.hpp"
#include "util/thread_pool.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include "simd_avx2_inl.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace cpt::nn::detail {

namespace {

constexpr std::size_t kMinChunkFlops = 1 << 18;

std::size_t row_grain(std::size_t k_dim, std::size_t n_dim) {
    return util::grain_for(2 * k_dim * n_dim, kMinChunkFlops);
}

// ---- Broadcast micro-kernels (NN, TN and panel-packed NT) -------------------
// Per C element: acc = fma(a[i,k], b[k,j], acc) in ascending k from acc = 0,
// then c += acc — one chain whatever tile, row split or thread computes the
// element. Tiles only decide how many A broadcasts and B loads are shared.
// NN and TN differ only in how A is indexed: NN reads a[i*lda + k], TN reads
// a[k*lda + i].

template <bool kATransposed>
inline float a_at(const float* a, std::size_t lda, std::size_t i, std::size_t k) {
    return kATransposed ? a[k * lda + i] : a[i * lda + k];
}

template <bool kATransposed>
inline const float* a_row(const float* a, std::size_t lda, std::size_t i) {
    return kATransposed ? a + i : a + i * lda;
}

// MR rows x NV ymm columns. kTail (NV == 1 only) masks the columns at and
// past `tail` lanes: B and C lanes there are neither read nor written.
template <bool kATransposed, std::size_t MR, std::size_t NV, bool kTail>
void bcast_tile(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                std::size_t ldc, std::size_t k_dim, __m256i tail) {
    static_assert(!kTail || NV == 1);
    __m256 acc[MR][NV];
    for (std::size_t i = 0; i < MR; ++i) {
        for (std::size_t v = 0; v < NV; ++v) acc[i][v] = _mm256_setzero_ps();
    }
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float* brow = b + k * ldb;
        __m256 av[MR];
        for (std::size_t i = 0; i < MR; ++i) {
            av[i] = _mm256_set1_ps(a_at<kATransposed>(a, lda, i, k));
        }
        for (std::size_t v = 0; v < NV; ++v) {
            const __m256 bv =
                kTail ? _mm256_maskload_ps(brow, tail) : _mm256_loadu_ps(brow + 8 * v);
            for (std::size_t i = 0; i < MR; ++i) acc[i][v] = _mm256_fmadd_ps(av[i], bv, acc[i][v]);
        }
    }
    for (std::size_t i = 0; i < MR; ++i) {
        float* crow = c + i * ldc;
        for (std::size_t v = 0; v < NV; ++v) {
            if (kTail) {
                _mm256_maskstore_ps(crow, tail,
                                    _mm256_add_ps(_mm256_maskload_ps(crow, tail), acc[i][v]));
            } else {
                float* cv = crow + 8 * v;
                _mm256_storeu_ps(cv, _mm256_add_ps(_mm256_loadu_ps(cv), acc[i][v]));
            }
        }
    }
}

// One MR-row tile across nb columns: the widest column tile whose MR * NV
// accumulators, MR broadcasts and one B vector fit the 16 ymm registers, then
// narrower tiles, then one masked tile for the last nb % 8 columns.
template <bool kATransposed, std::size_t MR>
void bcast_row_tile(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, std::size_t k_dim, std::size_t nb) {
    constexpr std::size_t kNv = MR == 1 ? 8 : (MR == 4 ? 2 : 4);
    const __m256i none = _mm256_setzero_si256();
    std::size_t j = 0;
    for (; j + 8 * kNv <= nb; j += 8 * kNv) {
        bcast_tile<kATransposed, MR, kNv, false>(a, lda, b + j, ldb, c + j, ldc, k_dim, none);
    }
    if constexpr (kNv > 4) {
        if (j + 32 <= nb) {
            bcast_tile<kATransposed, MR, 4, false>(a, lda, b + j, ldb, c + j, ldc, k_dim, none);
            j += 32;
        }
    }
    if constexpr (kNv > 2) {
        if (j + 16 <= nb) {
            bcast_tile<kATransposed, MR, 2, false>(a, lda, b + j, ldb, c + j, ldc, k_dim, none);
            j += 16;
        }
    }
    if constexpr (kNv > 1) {
        if (j + 8 <= nb) {
            bcast_tile<kATransposed, MR, 1, false>(a, lda, b + j, ldb, c + j, ldc, k_dim, none);
            j += 8;
        }
    }
    if (j < nb) {
        bcast_tile<kATransposed, MR, 1, true>(a, lda, b + j, ldb, c + j, ldc, k_dim,
                                              tail_mask(nb - j));
    }
}

// C[0:rows, 0:nb] += A[0:rows, :] * B[:, 0:nb]: four-row tiles, then one
// tile of the remaining 1-3 rows.
template <bool kATransposed>
void bcast_rows(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                std::size_t ldc, std::size_t k_dim, std::size_t nb, std::size_t rows) {
    std::size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        bcast_row_tile<kATransposed, 4>(a_row<kATransposed>(a, lda, i), lda, b, ldb, c + i * ldc,
                                        ldc, k_dim, nb);
    }
    const float* ar = a_row<kATransposed>(a, lda, i);
    float* cr = c + i * ldc;
    switch (rows - i) {
        case 3: bcast_row_tile<kATransposed, 3>(ar, lda, b, ldb, cr, ldc, k_dim, nb); break;
        case 2: bcast_row_tile<kATransposed, 2>(ar, lda, b, ldb, cr, ldc, k_dim, nb); break;
        case 1: bcast_row_tile<kATransposed, 1>(ar, lda, b, ldb, cr, ldc, k_dim, nb); break;
        default: break;
    }
}

// C[rows, 0:n_dim] += op(A) * B[:, 0:n_dim] panel by panel, op(A) being A's
// first `rows` rows (NN) or columns (TN).
template <bool kATransposed>
void bcast_panels(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                  std::size_t ldc, std::size_t k_dim, std::size_t n_dim, std::size_t rows) {
    for (std::size_t n0 = 0; n0 < n_dim; n0 += kPanelCols) {
        const std::size_t nb = std::min(kPanelCols, n_dim - n0);
        bcast_rows<kATransposed>(a, lda, b + n0, ldb, c + n0, ldc, k_dim, nb, rows);
    }
}

template <bool kATransposed>
void gemm_bcast_rows(const float* a, const float* b, float* c, std::size_t m_dim,
                     std::size_t k_dim, std::size_t n_dim, std::size_t r0, std::size_t r1) {
    const std::size_t lda = kATransposed ? m_dim : k_dim;
    bcast_panels<kATransposed>(a_row<kATransposed>(a, lda, r0), lda, b, n_dim, c + r0 * n_dim,
                               n_dim, k_dim, n_dim, r1 - r0);
}

// ---- TN operand strides --------------------------------------------------------
// A TN tile walks k down both operands: a 4-row tile loads 16 bytes of A per
// k, M floats apart, and 8-64 bytes of B, N floats apart. Once a stride
// reaches kWideStride floats (2 KiB), the walk crosses a 4 KiB page every
// one or two k: the hardware prefetchers stop at page boundaries, and every
// tile re-reads its column from L2 or beyond. On one lane of a 4-vCPU avx2
// host (Xeon, KVM) the plain walk ran 1000-deep products at ~40 GFLOP/s up
// to M = 384, 23 at M = 512 and ~15 at the MLP weight gradients (fc1 dW at
// M = 1024, fc2 dW at N = 1024), a third of the NN rate; the paths below run
// those at 35-50. Narrower shapes, such as the 128 x 1000 x 128 projection
// dW, keep the plain walk, which packing does not speed up.
//   * Wide A: each 16-column strip of A is copied once into a contiguous
//     [K x kStrip] buffer and the unchanged kernel reads it with lda = kStrip.
//   * Wide B only: the lane computes 16 rows of C^T = B^T * A — B's strip
//     packed as above, A (narrow) as the B operand — and adds them back with
//     one c[i,j] += t[j,i] per element. fma(a, b, acc) == fma(b, a, acc)
//     exactly, so t[j,i] is C[i,j]'s own ascending-k chain; t starts at -0.0,
//     the identity of IEEE addition (-0 + x == x for every x, -0 included), so
//     C receives that chain once, as on the plain path.
// Each is a different loop order over the same per-element chains: every
// output bit is the plain walk's.
constexpr std::size_t kStrip = 16;
constexpr std::size_t kWideStride = 512;

// Copies columns [0, w) of a row-major [k_dim x lda] matrix into a
// [k_dim x kStrip] strip; columns w and up are left as they are (and never
// read: the kernel is given w rows).
void pack_strip(const float* a, std::size_t lda, std::size_t k_dim, std::size_t w,
                float* strip) {
    if (w == kStrip) {
        for (std::size_t k = 0; k < k_dim; ++k) {
            const float* src = a + k * lda;
            float* dst = strip + k * kStrip;
            _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
            _mm256_storeu_ps(dst + 8, _mm256_loadu_ps(src + 8));
        }
        return;
    }
    for (std::size_t k = 0; k < k_dim; ++k) {
        std::memcpy(strip + k * kStrip, a + k * lda, w * sizeof(float));
    }
}

// Strips [s0, s1) of C's rows, each with its A strip packed.
void tn_rows_packed(const float* a, const float* b, float* c, std::size_t m_dim,
                    std::size_t k_dim, std::size_t n_dim, std::size_t s0, std::size_t s1) {
    static thread_local std::vector<float> strip;
    strip.resize(k_dim * kStrip);
    for (std::size_t i0 = s0 * kStrip; i0 < std::min(s1 * kStrip, m_dim); i0 += kStrip) {
        const std::size_t w = std::min(kStrip, m_dim - i0);
        pack_strip(a + i0, m_dim, k_dim, w, strip.data());
        bcast_panels<true>(strip.data(), kStrip, b, n_dim, c + i0 * n_dim, n_dim, k_dim, n_dim, w);
    }
}

// Strips [s0, s1) of C's columns, each computed as rows of C^T.
void tn_cols_transposed(const float* a, const float* b, float* c, std::size_t m_dim,
                        std::size_t k_dim, std::size_t n_dim, std::size_t s0, std::size_t s1) {
    static thread_local std::vector<float> strip;
    static thread_local std::vector<float> t;
    strip.resize(k_dim * kStrip);
    t.resize(kStrip * m_dim);
    for (std::size_t j0 = s0 * kStrip; j0 < std::min(s1 * kStrip, n_dim); j0 += kStrip) {
        const std::size_t w = std::min(kStrip, n_dim - j0);
        pack_strip(b + j0, n_dim, k_dim, w, strip.data());
        std::fill_n(t.data(), w * m_dim, -0.0f);
        bcast_panels<true>(strip.data(), kStrip, a, m_dim, t.data(), m_dim, k_dim, m_dim, w);
        for (std::size_t i = 0; i < m_dim; ++i) {
            float* crow = c + i * n_dim + j0;
            for (std::size_t r = 0; r < w; ++r) crow[r] += t[r * m_dim + i];
        }
    }
}

}  // namespace

void gemm_nn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim, util::ThreadPool& pool) {
    pool.parallel_for(m_dim, row_grain(k_dim, n_dim), [&](std::size_t r0, std::size_t r1) {
        gemm_bcast_rows<false>(a, b, c, m_dim, k_dim, n_dim, r0, r1);
    });
}

void gemm_tn_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim, util::ThreadPool& pool) {
    if (m_dim >= kWideStride) {
        const std::size_t strips = (m_dim + kStrip - 1) / kStrip;
        pool.parallel_for(strips, row_grain(k_dim, kStrip * n_dim),
                          [&](std::size_t s0, std::size_t s1) {
                              tn_rows_packed(a, b, c, m_dim, k_dim, n_dim, s0, s1);
                          });
        return;
    }
    if (n_dim >= kWideStride) {
        const std::size_t strips = (n_dim + kStrip - 1) / kStrip;
        pool.parallel_for(strips, row_grain(k_dim, kStrip * m_dim),
                          [&](std::size_t s0, std::size_t s1) {
                              tn_cols_transposed(a, b, c, m_dim, k_dim, n_dim, s0, s1);
                          });
        return;
    }
    pool.parallel_for(m_dim, row_grain(k_dim, n_dim), [&](std::size_t r0, std::size_t r1) {
        gemm_bcast_rows<true>(a, b, c, m_dim, k_dim, n_dim, r0, r1);
    });
}

void gemm_nt_avx2(const float* a, const float* b, float* c, std::size_t m_dim, std::size_t k_dim,
                  std::size_t n_dim, util::ThreadPool& pool) {
    // Dot-style NT kernels pay a horizontal reduction per output element — at
    // decode/training k (64–256) that is ~a third of the work — and their
    // chain differs from the broadcast one. Instead pack each B panel
    // transposed and reuse the broadcast micro-kernels: no reductions, and
    // the per-element chain (one FMA per ascending k) is the NN path's at
    // every m. The pack is not cheap next to the product: it reads and
    // writes all of B, while the micro-kernel retires 16 FMAs a cycle. For a
    // 128 x 1024 weight it took ~70 us on a 4-vCPU avx2 host (Xeon, KVM),
    // about seven one-row products or half a 32-row one. Callers that
    // multiply by one B many times pack it once (PackedNt, gemm_nt_packed).
    // The pack buffer is thread_local and reused across calls.
    static thread_local std::vector<float> bt;
    for (std::size_t n0 = 0; n0 < n_dim; n0 += kPanelCols) {
        const std::size_t nb = std::min(kPanelCols, n_dim - n0);
        const std::size_t ldp = nb + kPanelPad;
        bt.resize(k_dim * ldp);
        // The lambda runs on other lanes too, where `bt` names their own
        // thread_local buffer: hand them this thread's by pointer.
        const float* panel = bt.data();
        pack_nt_panel_avx2(b, k_dim, n0, nb, ldp, bt.data());
        pool.parallel_for(m_dim, row_grain(k_dim, nb), [&](std::size_t r0, std::size_t r1) {
            bcast_rows<false>(a + r0 * k_dim, k_dim, panel, ldp, c + r0 * n_dim + n0, n_dim,
                              k_dim, nb, r1 - r0);
        });
    }
}

void pack_nt_panel_avx2(const float* b, std::size_t k_dim, std::size_t n0, std::size_t nb,
                        std::size_t ldp, float* dst) {
    const float* src = b + n0 * k_dim;
    const std::size_t nb8 = nb & ~std::size_t{7};
    const std::size_t k8 = k_dim & ~std::size_t{7};
    for (std::size_t j = 0; j < nb8; j += 8) {
        const float* rows = src + j * k_dim;
        for (std::size_t k = 0; k < k8; k += 8) {
            // 8 B rows x 8 k in, 8 k rows x 8 B columns out.
            __m256 r[8];
            for (std::size_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(rows + i * k_dim + k);
            __m256 t[8];
            for (std::size_t i = 0; i < 8; i += 2) {
                t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
                t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
            }
            for (std::size_t i = 0; i < 8; i += 4) {
                r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
                r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
                r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
                r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
            }
            for (std::size_t i = 0; i < 4; ++i) {
                _mm256_storeu_ps(dst + (k + i) * ldp + j,
                                 _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
                _mm256_storeu_ps(dst + (k + i + 4) * ldp + j,
                                 _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
            }
        }
        for (std::size_t k = k8; k < k_dim; ++k) {
            for (std::size_t i = 0; i < 8; ++i) dst[k * ldp + j + i] = rows[i * k_dim + k];
        }
    }
    for (std::size_t j = nb8; j < nb; ++j) {
        for (std::size_t k = 0; k < k_dim; ++k) dst[k * ldp + j] = src[j * k_dim + k];
    }
    for (std::size_t k = 0; k < k_dim; ++k) {
        std::fill(dst + k * ldp + nb, dst + (k + 1) * ldp, 0.0f);
    }
}

void gemm_nt_packed_avx2(const float* a, const float* panels, float* c, std::size_t m_dim,
                         std::size_t k_dim, std::size_t n_dim, util::ThreadPool& pool) {
    pool.parallel_for(m_dim, row_grain(k_dim, n_dim), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t n0 = 0; n0 < n_dim; n0 += kPanelCols) {
            const std::size_t nb = std::min(kPanelCols, n_dim - n0);
            const float* panel = panels + (n0 / kPanelCols) * k_dim * (kPanelCols + kPanelPad);
            bcast_rows<false>(a + r0 * k_dim, k_dim, panel, nb + kPanelPad, c + r0 * n_dim + n0,
                              n_dim, k_dim, nb, r1 - r0);
        }
    });
}

void gemv_nn_avx2(const float* a, const float* b, float* c, std::size_t k_dim, std::size_t n_dim) {
    if (n_dim > 512) {
        // Wide rows: the j-tile walk below strides B by n*4 bytes — a full page
        // at n >= 1024, so every load misses unprefetched. Stream B rows
        // sequentially into an L1-resident accumulator chunk instead.
        constexpr std::size_t kChunk = 1024;
        alignas(32) float acc[kChunk];
        for (std::size_t j0 = 0; j0 < n_dim; j0 += kChunk) {
            const std::size_t w = std::min(kChunk, n_dim - j0);
            std::fill_n(acc, w, 0.0f);
            for (std::size_t k = 0; k < k_dim; ++k) {
                const __m256 av = _mm256_set1_ps(a[k]);
                const float* brow = b + k * n_dim + j0;
                std::size_t j = 0;
                for (; j + 32 <= w; j += 32) {
                    for (std::size_t u = 0; u < 4; ++u) {
                        float* aj = acc + j + 8 * u;
                        _mm256_store_ps(
                            aj, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j + 8 * u),
                                                _mm256_load_ps(aj)));
                    }
                }
                for (; j < w; ++j) acc[j] = std::fma(a[k], brow[j], acc[j]);
            }
            float* cj = c + j0;
            for (std::size_t j = 0; j < w; ++j) cj[j] += acc[j];
        }
        return;
    }
    bcast_row_tile<false, 1>(a, k_dim, b, n_dim, c, n_dim, k_dim, n_dim);
}

// ---- Int8 GEMV dots (quantized decode path) -----------------------------------
// VPMADDUBSW multiplies u8 activation codes by s8 weights into saturating i16
// pair sums; with 7-bit codes (<= 127) a pair is at most 2*127*127 = 32258,
// so saturation never fires and VPMADDWD's widening to i32 is exact. Integer
// addition is associative, so any tiling reproduces the scalar tier's result
// bit for bit — no ordering argument needed, unlike the float kernels.

namespace {

inline std::int32_t hsum8_epi32(__m256i v) {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

std::int32_t dot_q8_avx2(const std::uint8_t* a, const std::int8_t* w, std::size_t k_dim) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= k_dim; i += 32) {
        const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, wv), ones));
    }
    std::int32_t r = hsum8_epi32(acc);
    for (; i < k_dim; ++i) {
        r += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(w[i]);
    }
    return r;
}

}  // namespace

void gemv_q8_dots_avx2(const std::uint8_t* a, const std::int8_t* w, std::int32_t* idot,
                       std::size_t k_dim, std::size_t n_dim) {
    const __m256i ones = _mm256_set1_epi16(1);
    const std::size_t k32 = k_dim & ~std::size_t{31};
    std::size_t j = 0;
    // Eight weight rows per pass: the activation block is loaded once, the
    // eight independent i32 accumulators keep the multiply ports busy, and a
    // three-level hadd tree folds them into one register of eight sums in
    // place of eight horizontal reductions.
    for (; j + 8 <= n_dim; j += 8) {
        const std::int8_t* w0 = w + j * k_dim;
        __m256i acc[8];
        for (__m256i& v : acc) v = _mm256_setzero_si256();
        for (std::size_t i = 0; i < k32; i += 32) {
            const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
            for (std::size_t r = 0; r < 8; ++r) {
                const __m256i wv =
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w0 + r * k_dim + i));
                acc[r] = _mm256_add_epi32(
                    acc[r], _mm256_madd_epi16(_mm256_maddubs_epi16(av, wv), ones));
            }
        }
        // hadd(x, y) = [x01 x23 y01 y23 | x45 x67 y45 y67] per 128-bit half, so
        // two levels give [s0..s3 over lanes 0-3 | s0..s3 over lanes 4-7].
        const __m256i h0 = _mm256_hadd_epi32(_mm256_hadd_epi32(acc[0], acc[1]),
                                             _mm256_hadd_epi32(acc[2], acc[3]));
        const __m256i h1 = _mm256_hadd_epi32(_mm256_hadd_epi32(acc[4], acc[5]),
                                             _mm256_hadd_epi32(acc[6], acc[7]));
        const __m256i sums = _mm256_add_epi32(_mm256_permute2x128_si256(h0, h1, 0x20),
                                              _mm256_permute2x128_si256(h0, h1, 0x31));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(idot + j), sums);
        for (std::size_t r = 0; r < 8 && k32 < k_dim; ++r) {
            const std::int8_t* wr = w0 + r * k_dim;
            std::int32_t s = 0;
            for (std::size_t i = k32; i < k_dim; ++i) {
                s += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(wr[i]);
            }
            idot[j + r] += s;
        }
    }
    for (; j < n_dim; ++j) idot[j] = dot_q8_avx2(a, w + j * k_dim, k_dim);
}

// ---- Int8 activation quantizer -------------------------------------------------
// The vector form of quant.cpp's scalar row loop, operation for operation:
// max_ps/min_ps return their SECOND operand when either input is NaN, so
// max_ps(v, acc) is std::max(acc, v) and max_ps(q, lo) / min_ps(q, hi) are
// std::max(lo, q) / std::min(hi, q), NaN cases included; the multiply is a
// lone IEEE product, and VROUNDPS to nearest rounds as std::nearbyintf does in
// the default mode. Max is exact, so the lane-parallel abs-max is order-free.

float absmax_avx2(const float* x, std::size_t n) {
    const __m256 sign = _mm256_set1_ps(-0.0f);
    __m256 m0 = _mm256_setzero_ps();
    __m256 m1 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        m0 = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(x + i)), m0);
        m1 = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(x + i + 8)), m1);
    }
    for (; i + 8 <= n; i += 8) {
        m0 = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(x + i)), m0);
    }
    if (i < n) {  // masked-off lanes load +0, which cannot raise the max
        const __m256 v = _mm256_maskload_ps(x + i, tail_mask(n - i));
        m1 = _mm256_max_ps(_mm256_andnot_ps(sign, v), m1);
    }
    // The accumulators never hold NaN, so the fold order is free.
    const __m256 m = _mm256_max_ps(m0, m1);
    __m128 s = _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
    s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

namespace {

// Eight offset-64 codes as i32 lanes: clamp(round(x * inv), -63, 63) + 64.
inline __m256i q7_codes8(__m256 x, __m256 inv) {
    __m256 q = _mm256_round_ps(_mm256_mul_ps(x, inv),
                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    q = _mm256_min_ps(_mm256_max_ps(q, _mm256_set1_ps(-63.0f)), _mm256_set1_ps(63.0f));
    return _mm256_add_epi32(_mm256_cvtps_epi32(q), _mm256_set1_epi32(64));
}

// Eight i32 codes in [1, 127] narrowed to eight bytes in the low half.
inline __m128i narrow8(__m256i c) {
    const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(c), _mm256_extracti128_si256(c, 1));
    return _mm_packus_epi16(w16, w16);
}

}  // namespace

void q7_codes_avx2(const float* x, std::size_t n, float inv, std::uint8_t* q) {
    const __m256 vinv = _mm256_set1_ps(inv);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i c0 = q7_codes8(_mm256_loadu_ps(x + i), vinv);
        const __m256i c1 = q7_codes8(_mm256_loadu_ps(x + i + 8), vinv);
        const __m256i c2 = q7_codes8(_mm256_loadu_ps(x + i + 16), vinv);
        const __m256i c3 = q7_codes8(_mm256_loadu_ps(x + i + 24), vinv);
        // The in-lane packs leave the dwords as [c0 c1 c2 c3 lo | c0 c1 c2 c3
        // hi] (four codes each); one permute restores element order.
        const __m256i b = _mm256_packus_epi16(_mm256_packs_epi32(c0, c1),
                                              _mm256_packs_epi32(c2, c3));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                            _mm256_permutevar8x32_epi32(b, _mm256_setr_epi32(0, 4, 1, 5, 2, 6,
                                                                             3, 7)));
    }
    for (; i < n; i += 8) {
        const std::size_t w = std::min<std::size_t>(8, n - i);
        alignas(16) std::uint8_t codes[16];
        _mm_store_si128(reinterpret_cast<__m128i*>(codes),
                        narrow8(q7_codes8(_mm256_maskload_ps(x + i, tail_mask(w)), vinv)));
        std::memcpy(q + i, codes, w);
    }
}

}  // namespace cpt::nn::detail

#else  // !(__AVX2__ && __FMA__)

namespace cpt::nn::detail {

namespace {
[[noreturn]] void missing() { CPT_CHECK(false, "AVX2 kernels were not compiled into this binary"); }
}  // namespace

void gemm_nn_avx2(const float*, const float*, float*, std::size_t, std::size_t, std::size_t,
                  util::ThreadPool&) {
    missing();
}
void gemm_nt_avx2(const float*, const float*, float*, std::size_t, std::size_t, std::size_t,
                  util::ThreadPool&) {
    missing();
}
void gemm_tn_avx2(const float*, const float*, float*, std::size_t, std::size_t, std::size_t,
                  util::ThreadPool&) {
    missing();
}
void gemm_nt_packed_avx2(const float*, const float*, float*, std::size_t, std::size_t,
                         std::size_t, util::ThreadPool&) {
    missing();
}
void pack_nt_panel_avx2(const float*, std::size_t, std::size_t, std::size_t, std::size_t,
                        float*) {
    missing();
}
void gemv_nn_avx2(const float*, const float*, float*, std::size_t, std::size_t) { missing(); }
void gemv_q8_dots_avx2(const std::uint8_t*, const std::int8_t*, std::int32_t*, std::size_t,
                       std::size_t) {
    missing();
}
float absmax_avx2(const float*, std::size_t) { missing(); }
void q7_codes_avx2(const float*, std::size_t, float, std::uint8_t*) { missing(); }

}  // namespace cpt::nn::detail

#endif
