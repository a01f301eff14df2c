#include "infer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cpt::nn {

PackedLinear PackedLinear::from(const Linear& fp) {
    PackedLinear p;
    p.weight = PackedNt(fp.weight()->value.data().data(), fp.in_features(), fp.out_features());
    const auto b = fp.bias()->value.data();
    p.bias.assign(b.begin(), b.end());
    return p;
}

void PackedLinear::forward_rows(const float* x, float* y, std::size_t rows,
                                util::ThreadPool* pool) const {
    kernels::fill_bias_rows(y, bias.data(), rows, weight.n_dim(), pool);
    gemm_nt_packed(x, weight, y, rows, pool);
}

PackedMlp PackedMlp::from(const Mlp& fp) {
    PackedMlp p;
    p.fc1 = PackedLinear::from(fp.fc1());
    p.fc2 = PackedLinear::from(fp.fc2());
    return p;
}

void PackedMlp::forward_rows(const float* x, float* hidden, float* y, std::size_t rows,
                             util::ThreadPool* pool) const {
    // Mlp::forward_rows's sequence: zeroed fc1 accumulators, then the fused
    // bias+GELU epilogue.
    const std::size_t h = fc1.weight.n_dim();
    std::fill_n(hidden, rows * h, 0.0f);
    gemm_nt_packed(x, fc1.weight, hidden, rows, pool);
    kernels::bias_gelu_rows(hidden, fc1.bias.data(), rows, h, pool);
    fc2.forward_rows(hidden, y, rows, pool);
}

TransformerPacked TransformerPacked::from(const Transformer& model) {
    TransformerPacked p;
    p.input_proj = PackedLinear::from(model.input_proj());
    p.blocks.reserve(model.blocks().size());
    for (const auto& block : model.blocks()) {
        Block b;
        b.wq = PackedLinear::from(block->attn().wq());
        b.wk = PackedLinear::from(block->attn().wk());
        b.wv = PackedLinear::from(block->attn().wv());
        b.wo = PackedLinear::from(block->attn().wo());
        b.mlp = PackedMlp::from(block->mlp());
        p.blocks.push_back(std::move(b));
    }
    return p;
}

std::size_t TransformerPacked::bytes() const {
    std::size_t total = input_proj.bytes();
    for (const auto& b : blocks) {
        total += b.wq.bytes() + b.wk.bytes() + b.wv.bytes() + b.wo.bytes() + b.mlp.bytes();
    }
    return total;
}

TransformerDecoder::TransformerDecoder(const Transformer& model, std::size_t batch)
    : TransformerDecoder(model, batch, DecodeOptions{}) {}

TransformerDecoder::TransformerDecoder(const Transformer& model, std::size_t batch,
                                       const DecodeOptions& opts)
    : model_(&model), quant_(opts.quant), kv_fp16_(opts.kv_fp16), capacity_(batch),
      batch_(batch), max_window_(std::max<std::size_t>(opts.max_window, 1)) {
    const auto& cfg = model.config();
    CPT_CHECK_GT(batch, std::size_t{0}, " TransformerDecoder: batch must be > 0");
    CPT_CHECK_LE(max_window_, cfg.max_seq_len,
                 " TransformerDecoder: max_window exceeds max_seq_len");
    if (quant_ != nullptr) {
        CPT_CHECK_EQ(quant_->blocks.size(), cfg.blocks,
                     " TransformerDecoder: quantized weights do not match the model");
        CPT_CHECK_EQ(quant_->input_proj.in, cfg.d_token,
                     " TransformerDecoder: quantized weights do not match the model");
    }
    if (quant_ == nullptr) {
        packed_ = opts.packed != nullptr
                      ? opts.packed
                      : std::make_shared<const TransformerPacked>(TransformerPacked::from(model));
        CPT_CHECK(packed_->blocks.size() == cfg.blocks &&
                      packed_->input_proj.weight.k_dim() == cfg.d_token,
                  "TransformerDecoder: packed weights do not match the model");
    }
    caches_.resize(cfg.blocks);
    len_.assign(batch, 0);
    phys_.resize(batch);
    for (std::size_t r = 0; r < batch; ++r) phys_[r] = r;
    free_.reserve(batch);
    const std::size_t dh = cfg.d_model / cfg.heads;
    for (auto& c : caches_) {
        if (kv_fp16_) {
            c.kh.assign(batch * cfg.heads * cfg.max_seq_len * dh, 0);
            c.vh.assign(batch * cfg.heads * cfg.max_seq_len * dh, 0);
        } else {
            c.k = Tensor({batch, cfg.heads, cfg.max_seq_len, dh});
            c.v = Tensor({batch, cfg.heads, cfg.max_seq_len, dh});
        }
    }
    std::size_t mlp_hidden = 0;
    for (const auto& block : model.blocks()) {
        mlp_hidden = std::max(mlp_hidden, block->mlp().fc1().out_features());
    }
    const std::size_t arena_rows = batch * max_window_;
    hstate_full_ = Tensor({arena_rows, cfg.d_model});
    q_full_ = Tensor({arena_rows, cfg.d_model});
    kv_full_ = Tensor({arena_rows, cfg.d_model});
    attn_full_ = Tensor({arena_rows, cfg.d_model});
    scratch_full_ = Tensor({arena_rows, cfg.d_model});
    mlp_hidden_full_ = Tensor({arena_rows, mlp_hidden});
    ones_.assign(batch, 1);
    wrow_.reserve(arena_rows);
    wpos_.reserve(arena_rows);
    bind_rows(batch_);
    // One score row per chunk the attention loop can produce; grain 1 bounds
    // the chunk count from above for any grain a later call picks.
    scores_.resize(util::global_pool().num_chunks(arena_rows * cfg.heads, 1) * cfg.max_seq_len);
}

void TransformerDecoder::bind_rows(std::size_t rows) {
    if (bound_rows_ == rows && hstate_.numel() > 0) return;
    hstate_ = hstate_full_.first_rows(rows);
    q_ = q_full_.first_rows(rows);
    kv_ = kv_full_.first_rows(rows);
    attn_out_ = attn_full_.first_rows(rows);
    scratch_ = scratch_full_.first_rows(rows);
    mlp_hidden_ = mlp_hidden_full_.first_rows(rows);
    bound_rows_ = rows;
}

std::size_t TransformerDecoder::length() const {
    std::size_t longest = 0;
    for (std::size_t r = 0; r < batch_; ++r) longest = std::max(longest, len_[r]);
    return longest;
}

const Tensor& TransformerDecoder::step(const Tensor& x) {
    const auto& cfg = model_->config();
    CPT_CHECK(x.rank() == 2 && x.dim(0) == batch_ && x.dim(1) == cfg.d_token,
              "TransformerDecoder::step: expected [", batch_, ", ", cfg.d_token, "], got ",
              shape_to_string(x.shape()));
    return step_window(x, std::span<const std::size_t>(ones_.data(), batch_));
}

const Tensor& TransformerDecoder::step_window(const Tensor& x,
                                              std::span<const std::size_t> counts) {
    const auto& cfg = model_->config();
    CPT_CHECK_EQ(counts.size(), batch_,
                 " TransformerDecoder::step_window: one window count per live row");
    // Pack the (row, in-window position) map for every incoming token and
    // detect the lockstep fast path (every row advancing one token from the
    // same position — the plain step() case).
    wrow_.clear();
    wpos_.clear();
    bool lockstep = batch_ > 0;
    std::size_t max_n = 0;  // longest attention window this call reads
    for (std::size_t r = 0; r < batch_; ++r) {
        const std::size_t c = counts[r];
        CPT_CHECK_LE(c, max_window_,
                     " TransformerDecoder::step_window: window exceeds max_window");
        CPT_CHECK_LE(len_[r] + c, cfg.max_seq_len, " TransformerDecoder::step: context full");
        lockstep = lockstep && c == 1 && len_[r] == len_[0];
        if (c == 0) continue;
        max_n = std::max(max_n, len_[r] + c);
        for (std::size_t j = 0; j < c; ++j) {
            wrow_.push_back(r);
            wpos_.push_back(j);
        }
    }
    const std::size_t m = wrow_.size();
    CPT_CHECK_GT(m, std::size_t{0}, " TransformerDecoder::step_window: empty window batch");
    CPT_CHECK(x.rank() == 2 && x.dim(0) == m && x.dim(1) == cfg.d_token,
              "TransformerDecoder::step_window: expected [", m, ", ", cfg.d_token, "], got ",
              shape_to_string(x.shape()));
    const std::size_t d = cfg.d_model;
    const std::size_t h = cfg.heads;
    const std::size_t dh = d / h;
    const std::size_t max_t = cfg.max_seq_len;
    util::ThreadPool& pool = util::global_pool();
    bind_rows(m);
    float* ph = hstate_.data().data();
    float* pscratch = scratch_.data().data();
    const std::size_t* wrow = wrow_.data();
    const std::size_t* wpos = wpos_.data();

    // Input projection + positional embedding. The embedding is indexed by
    // the row-local position len(r)+j, so a row admitted mid-decode (or
    // fed a multi-token window) sees exactly the embeddings a fresh
    // sequential decode would; in lockstep the fast path adds one shared
    // bias row.
    if (quant_ != nullptr) {
        quant_->input_proj.forward_rows(x.data().data(), ph, m, qscratch_, &pool);
    } else {
        packed_->input_proj.forward_rows(x.data().data(), ph, m, &pool);
    }
    const float* pos = model_->positions()->value.data().data();
    if (lockstep) {
        kernels::add_bias_rows(ph, pos + len_[0] * d, m, d, &pool);
    } else {
        pool.parallel_for(m, util::grain_for(4 * d), [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                kernels::add_bias_rows(ph + i * d, pos + (len_[wrow[i]] + wpos[i]) * d, 1, d,
                                       nullptr);
            }
        });
    }

    for (std::size_t bi = 0; bi < caches_.size(); ++bi) {
        const auto& block = *model_->blocks()[bi];
        const TransformerQuant::Block* qb = quant_ != nullptr ? &quant_->blocks[bi] : nullptr;
        const TransformerPacked::Block* pb = packed_ != nullptr ? &packed_->blocks[bi] : nullptr;
        BlockCache& cache = caches_[bi];
        // Projection dispatcher: int8 weights when quantized, packed fp32
        // weights otherwise.
        const auto proj = [&](const QuantLinear* q, const PackedLinear* p, const float* in,
                              float* out) {
            if (q != nullptr) {
                q->forward_rows(in, out, m, qscratch_, &pool);
            } else {
                p->forward_rows(in, out, m, &pool);
            }
        };
        // Scatter the fresh K or V rows into the cache at each token's
        // row-local position len(r)+j, converting to fp16 when the cache is
        // half-precision (encoding is round-to-nearest-even — the same bits
        // on every tier).
        const auto append_kv = [&](const float* src_rows, float* dst32, std::uint16_t* dst16) {
            pool.parallel_for(m * h, util::grain_for(dh),
                              [&](std::size_t i0, std::size_t i1) {
                                  for (std::size_t i = i0; i < i1; ++i) {
                                      const std::size_t tok = i / h;
                                      const std::size_t head = i % h;
                                      const std::size_t r = wrow[tok];
                                      const std::size_t p = len_[r] + wpos[tok];
                                      const std::size_t off =
                                          ((phys_[r] * h + head) * max_t + p) * dh;
                                      const float* src = src_rows + tok * d + head * dh;
                                      if (dst16 != nullptr) {
                                          kernels::fp16_encode(src, dst16 + off, dh);
                                      } else {
                                          std::copy_n(src, dh, dst32 + off);
                                      }
                                  }
                              });
        };

        // ---- attention branch: ln1 -> qkv -> cached causal attention -> wo
        kernels::layer_norm_rows(ph, pscratch, block.ln1().gain()->value.data().data(),
                                 block.ln1().bias()->value.data().data(), m, d, 1e-5f,
                                 nullptr, &pool);
        proj(qb != nullptr ? &qb->wq : nullptr,
             pb != nullptr ? &pb->wq : nullptr, pscratch, q_.data().data());
        // New K/V rows go straight into the cache — the whole window before
        // attention runs, so window token j can attend to the window tokens
        // appended before it.
        {
            proj(qb != nullptr ? &qb->wk : nullptr,
                 pb != nullptr ? &pb->wk : nullptr, pscratch, kv_.data().data());
            append_kv(kv_.data().data(), kv_fp16_ ? nullptr : cache.k.data().data(),
                      kv_fp16_ ? cache.kh.data() : nullptr);
            proj(qb != nullptr ? &qb->wv : nullptr,
                 pb != nullptr ? &pb->wv : nullptr, pscratch, kv_.data().data());
            append_kv(kv_.data().data(), kv_fp16_ ? nullptr : cache.v.data().data(),
                      kv_fp16_ ? cache.vh.data() : nullptr);
        }
        // Per-token, per-head attention over the row's own causal window
        // [0, len(r)+j]. K/V live at row-local positions, so the math —
        // dot order, softmax length, axpy order — is bit-identical to a
        // fresh sequential decode of the same stream regardless of when the
        // row was admitted or how the other rows advance. Each (token, head)
        // pair is independent; the score rows live in the arena, one row per
        // chunk, so concurrent lanes never share one and the hot loop stays
        // allocation-free.
        {
            const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
            const float* pq = q_.data().data();
            const float* ck = kv_fp16_ ? nullptr : cache.k.data().data();
            const float* cv = kv_fp16_ ? nullptr : cache.v.data().data();
            const std::uint16_t* ckh = kv_fp16_ ? cache.kh.data() : nullptr;
            const std::uint16_t* cvh = kv_fp16_ ? cache.vh.data() : nullptr;
            float* ctx = pscratch;  // reuse as context output
            const std::size_t grain = util::grain_for(4 * max_n * dh);
            const std::size_t chunks = pool.num_chunks(m * h, grain);
            if (scores_.size() < chunks * max_t) scores_.resize(chunks * max_t);
            float* all_scores = scores_.data();
            pool.parallel_chunks(
                m * h, grain, [&](std::size_t chunk, std::size_t i0, std::size_t i1) {
                    float* scores = all_scores + chunk * max_t;
                    for (std::size_t i = i0; i < i1; ++i) {
                        const std::size_t tok = i / h;
                        const std::size_t head = i % h;
                        const std::size_t r = wrow[tok];
                        const std::size_t n = len_[r] + wpos[tok] + 1;  // window length
                        const std::size_t win = (phys_[r] * h + head) * max_t * dh;
                        const float* qrow = pq + tok * d + head * dh;
                        // The batched kernels are defined as these per-key
                        // dot/axpy loops (kernels.hpp): one dispatch per
                        // (token, head) instead of per key, same bits.
                        if (kv_fp16_) {
                            kernels::attn_scores_f16(qrow, ckh + win, scores, n, dh, scale);
                        } else {
                            kernels::attn_scores(qrow, ck + win, scores, n, dh, scale);
                        }
                        kernels::softmax_row(scores, scores, n, n);
                        float* crow = ctx + tok * d + head * dh;
                        std::fill_n(crow, dh, 0.0f);
                        if (kv_fp16_) {
                            kernels::attn_mix_f16(scores, cvh + win, crow, n, dh);
                        } else {
                            kernels::attn_mix(scores, cv + win, crow, n, dh);
                        }
                    }
                });
        }
        proj(qb != nullptr ? &qb->wo : nullptr,
             pb != nullptr ? &pb->wo : nullptr, pscratch, attn_out_.data().data());
        hstate_.add_(attn_out_);

        // ---- MLP branch: ln2 -> fc1 -> fused bias+gelu -> fc2
        kernels::layer_norm_rows(ph, pscratch, block.ln2().gain()->value.data().data(),
                                 block.ln2().bias()->value.data().data(), m, d, 1e-5f,
                                 nullptr, &pool);
        // attn_out_ doubles as the MLP output buffer.
        if (qb != nullptr) {
            qb->mlp.forward_rows(pscratch, mlp_hidden_.data().data(), attn_out_.data().data(),
                                 m, qscratch_, &pool);
        } else {
            pb->mlp.forward_rows(pscratch, mlp_hidden_.data().data(), attn_out_.data().data(), m,
                                 &pool);
        }
        hstate_.add_(attn_out_);
    }

    kernels::layer_norm_rows(ph, ph, model_->final_ln().gain()->value.data().data(),
                             model_->final_ln().bias()->value.data().data(), m, d, 1e-5f,
                             nullptr, &pool);
    for (std::size_t r = 0; r < batch_; ++r) len_[r] += counts[r];
    return hstate_;
}

void TransformerDecoder::rollback_row(std::size_t r, std::size_t new_len) {
    CPT_CHECK_LT(r, batch_, " TransformerDecoder::rollback_row: row out of range");
    CPT_CHECK_LE(new_len, len_[r],
                 " TransformerDecoder::rollback_row: cannot extend a row's context");
    len_[r] = new_len;
}

std::size_t TransformerDecoder::kv_bytes() const {
    std::size_t total = 0;
    for (const auto& c : caches_) {
        total += c.k.numel() * sizeof(float) + c.v.numel() * sizeof(float);
        total += (c.kh.size() + c.vh.size()) * sizeof(std::uint16_t);
    }
    return total;
}

void TransformerDecoder::compact(const std::vector<std::size_t>& keep_rows) {
    for (std::size_t i = 1; i < keep_rows.size(); ++i) {
        CPT_CHECK_LT(keep_rows[i - 1], keep_rows[i],
                     " TransformerDecoder::compact: rows must be ascending");
    }
    if (!keep_rows.empty()) {
        CPT_CHECK_LT(keep_rows.back(), batch_, " TransformerDecoder::compact: row out of range");
    }
    const std::size_t new_batch = keep_rows.size();
    // O(batch): only the logical->physical map and the per-row metadata move;
    // the KV rows themselves stay where they are (dropped physical rows go on
    // the free list for admit() to hand out). A serving scheduler compacts at
    // nearly every step boundary, so moving KV data here — O(batch * maxT * d)
    // per call — would tax continuous batching far more than the occasional
    // end-of-round compact a drain scheduler performs.
    std::size_t next_keep = 0;
    for (std::size_t i = 0; i < batch_; ++i) {
        if (next_keep < new_batch && keep_rows[next_keep] == i) {
            len_[next_keep] = len_[i];
            phys_[next_keep] = phys_[i];
            ++next_keep;
        } else {
            free_.push_back(phys_[i]);
        }
    }
    batch_ = new_batch;
}

std::size_t TransformerDecoder::admit(std::size_t count) {
    CPT_CHECK_LE(batch_ + count, capacity_,
                 " TransformerDecoder::admit: live rows would exceed capacity");
    const std::size_t first = batch_;
    for (std::size_t i = 0; i < count; ++i) {
        len_[batch_ + i] = 0;
        // compact() returned enough physical rows to the free list: live rows
        // plus freed rows always cover the capacity.
        phys_[batch_ + i] = free_.back();
        free_.pop_back();
    }
    batch_ += count;
    return first;
}

void TransformerDecoder::reset() {
    batch_ = 0;
    std::fill(len_.begin(), len_.end(), 0);
    // Descending so admit() hands out physical rows 0, 1, 2, ... again.
    free_.clear();
    for (std::size_t r = capacity_; r > 0; --r) free_.push_back(r - 1);
}

}  // namespace cpt::nn
