// hub_finetune — the operator's hourly retraining path (Design 3, Table 9):
// core::HubTrainer::fine_tune_all fine-tunes three phone-hour slices
// (synthetic worlds for h8, h12 and h16, 300 UEs each, drawn from the
// workload seed) from the flagship, publish = false, CPT_THREADS = nproc.
// Training GEMMs at batch x window = 1024 rows, the autograd backward pass,
// Adam and per-slice pool scheduling; no decode, serve or router code runs.
//
// Untraced: back-to-back fine_tune_all calls; events_per_s is the upper
// quartile over calls of Σ TrainResult::tokens (one per event position) /
// call wall (as in bulk_generate, so other tenants' slowdowns are
// discounted), peak_rss_mb the median of the calls' own peaks, and
// quality_error the validation perplexity. Traced: pairs of an untraced call
// and a call under a span, with the per-slice TrainResult counters and timed
// GEMMs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/hub_trainer.hpp"
#include "lint/trace_lint.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cpt;

constexpr int kHours[] = {8, 12, 16};
constexpr std::size_t kSliceUes = 300;
constexpr int kSetupReps = 5;

struct State {
    core::CptGpt::Package pkg;
    std::vector<trace::Dataset> worlds;
    std::vector<core::HubSlice> slices;
    std::unique_ptr<core::ModelHub> hub;
    std::unique_ptr<core::HubTrainer> trainer;
};

std::unique_ptr<State> set_up(const Args& args) {
    auto st = std::unique_ptr<State>(new State{load_flagship(args), {}, {}, nullptr, nullptr});
    for (int h : kHours) {
        trace::SyntheticWorldConfig wcfg;
        wcfg.population = {kSliceUes, 0, 0};
        wcfg.hour_of_day = h;
        wcfg.seed = derive_seed(args.seed, 10 + static_cast<std::uint64_t>(h));
        st->worlds.push_back(trace::SyntheticWorldGenerator(wcfg).generate());
    }
    for (std::size_t i = 0; i < std::size(kHours); ++i) {
        st->slices.push_back({trace::DeviceType::kPhone, kHours[i], &st->worlds[i]});
    }
    core::HubTrainOptions opt;
    opt.model = flagship_config();
    opt.train.window = 64;    // x batch 16 = 1024-row training GEMMs
    opt.train.max_epochs = 3;  // x ft_epoch_scale 0.4 -> one fine-tune epoch
    // 90 validation streams per slice: with the default 10% (20 streams) the
    // final validation loss moved with the seed's world far more than with
    // the code under test.
    opt.train.val_fraction = 0.3;
    opt.train.seed = derive_seed(args.seed, 5);
    opt.publish = false;
    st->hub = std::make_unique<core::ModelHub>(args.out_dir + "/ft_hub");
    st->trainer = std::make_unique<core::HubTrainer>(*st->hub, opt);
    util::global_pool();  // start the workers, as every later call finds them
    return st;
}

struct Call {
    std::vector<core::HubSliceResult> results;
    double seconds = 0.0;
    double tokens = 0.0;
};

Call fine_tune(State& st) {
    Call c;
    const auto t0 = Clock::now();
    c.results = st.trainer->fine_tune_all(*st.pkg.model, st.pkg.tokenizer, st.slices);
    c.seconds = since(t0);
    for (const auto& s : c.results) c.tokens += static_cast<double>(s.result.tokens);
    return c;
}

double mean_val_loss(const Call& c) {
    double v = 0.0;
    for (const auto& s : c.results) v += s.result.val_loss.empty() ? NAN : s.result.val_loss.back();
    return v / static_cast<double>(c.results.size());
}

// Every slice trained, with finite losses, identical to the first call's
// (fine-tuning is deterministic for fixed inputs at any CPT_THREADS).
void check_call(const Call& c, const Call& first, Result& r) {
    r.attempted += std::size(kHours);
    bool ok = c.results.size() == std::size(kHours);
    for (std::size_t i = 0; ok && i < c.results.size(); ++i) {
        const auto& t = c.results[i].result;
        bool finite = t.steps > 0 && !t.val_loss.empty() && std::isfinite(t.final_event_ce) &&
                      std::isfinite(t.final_ia_loss) && std::isfinite(t.final_stop_ce);
        for (double x : t.train_loss) finite = finite && std::isfinite(x);
        for (double x : t.val_loss) finite = finite && std::isfinite(x);
        const bool same = t.val_loss == first.results[i].result.val_loss;
        if (!r.check(finite && same, "slice h" + std::to_string(c.results[i].hour_of_day) +
                                         (finite ? ": losses differ from the first call"
                                                 : ": non-finite loss or no steps"))) {
            ++r.failed;
        }
    }
    r.check(ok, "fine_tune_all returned " + std::to_string(c.results.size()) + " slices");
}

}  // namespace

Result run_hub_finetune(const Args& args, Clock::time_point process_start) {
    std::unique_ptr<State> st;
    const double setup_s = median_setup(
        kSetupReps, process_start, [&] { st.reset(); }, [&] { st = set_up(args); });
    const std::size_t lanes = std::min(util::global_pool().threads(), std::size(kHours));
    std::printf("hub_finetune: %zu slices x %zu UEs, %zu lanes\n", std::size(kHours), kSliceUes,
                lanes);
    Result r;

    if (!args.trace) {
        std::vector<Call> calls;
        std::vector<double> rates, peaks;
        double tokens = 0.0;
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        while (calls.empty() || fits(t0, calls.back().seconds, args.seconds)) {
            reset_peak_rss();
            calls.push_back(fine_tune(*st));
            peaks.push_back(peak_rss_mb());
            rates.push_back(calls.back().tokens / calls.back().seconds);
            tokens += calls.back().tokens;
        }
        const double cpu_s = process_cpu_seconds() - cpu0;
        for (const auto& c : calls) check_call(c, calls.front(), r);
        std::printf("calls %zu, tokens per call %.0f, wall per call:", calls.size(),
                    calls.front().tokens);
        for (const auto& c : calls) std::printf(" %.3f", c.seconds);
        std::printf(" s; peak RSS per call:");
        for (double x : peaks) std::printf(" %.1f", x);
        std::printf(" MB\n");
        for (const auto& s : calls.front().results) {
            std::printf("  phone/h%d: %zu steps, %zu tokens, %.3f s, val loss %.5f\n",
                        s.hour_of_day, s.result.steps, s.result.tokens, s.result.seconds,
                        s.result.val_loss.empty() ? NAN : s.result.val_loss.back());
        }
        r.metric("setup_s", setup_s, "s");
        r.metric("peak_rss_mb", median(peaks), "MB");
        r.metric("events_per_s", quantile(rates, 0.75), "1/s");
        r.metric("cpu_us_per_event", cpu_s * 1e6 / tokens, "us");
        // Validation perplexity, exp of the loss: the loss adds a Gaussian NLL
        // of the log-interarrival and is negative for a trained model, so only
        // exp(loss) is a ratio scale on which a relative bound means something.
        r.metric("quality_error", std::exp(mean_val_loss(calls.front())), "ratio");
        return r;
    }

    SpanLog spans;
    std::vector<double> plain_s, traced_s;
    double slice_s = 0.0, steps = 0.0, tokens = 0.0, lane_s = 0.0, covered = 0.0, wall = 0.0;
    std::vector<double> imbalance;
    std::unique_ptr<Call> first;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i == 0 || fits(t0, plain_s.back() + traced_s.back(), args.seconds);
         ++i) {
        const Call a = fine_tune(*st);
        const auto s0 = Clock::now();
        const auto span = spans.open("hub.fine_tune_all", SpanLog::kNoParent, i);
        const Call b = fine_tune(*st);
        spans.close(span);
        spans.add("hub.call", s0, Clock::now(), span, i);
        if (!first) first = std::make_unique<Call>(a);
        check_call(a, *first, r);
        check_call(b, *first, r);
        plain_s.push_back(a.seconds);
        traced_s.push_back(b.seconds);
        double slowest = 0.0, total = 0.0;
        for (const auto& s : b.results) {
            slowest = std::max(slowest, s.result.seconds);
            total += s.result.seconds;
            steps += static_cast<double>(s.result.steps);
            tokens += static_cast<double>(s.result.tokens);
        }
        slice_s += total;
        lane_s += static_cast<double>(lanes) * b.seconds;
        covered += slowest;
        wall += b.seconds;
        imbalance.push_back(slowest / (total / static_cast<double>(b.results.size())));
    }
    // Lint cost on the slices' training worlds (outside every timed region).
    std::size_t linted = 0;
    const auto l0 = Clock::now();
    for (const auto& w : st->worlds) linted += lint::TraceLinter(w.generation).lint(w).total_events;
    const auto l1 = Clock::now();
    spans.add("lint.lint", l0, l1);
    const double gflops_m32 = gemm_gflops(Gemm::kNt, 32, 128, 1024, spans);
    const double gflops_m1024 = gemm_gflops(Gemm::kNn, 1024, 128, 1024, spans);
    std::printf("traced calls %zu: untraced median %.3f s, traced median %.3f s\n",
                traced_s.size(), median(plain_s), median(traced_s));
    // The model layer: one optimizer step (forward, backward, Adam) of a slice.
    r.metric("model.step_ms", slice_s * 1e3 / steps, "ms");
    r.metric("model.rows_per_step", tokens / steps, "rows");
    r.metric("model.us_per_row", slice_s * 1e6 / tokens, "us");
    r.metric("nn.gemm_gflops.m32", gflops_m32, "GFLOP/s");
    r.metric("nn.gemm_gflops.m1024", gflops_m1024, "GFLOP/s");
    // The lanes: pool workers training one slice each.
    r.metric("lanes.busy_share", slice_s / lane_s, "fraction");
    r.metric("lanes.imbalance", median(imbalance), "ratio");
    r.metric("lint.events_per_s", static_cast<double>(linted) / seconds_between(l0, l1), "1/s");
    // Call wall not covered by the slowest slice's own Trainer time.
    r.metric("unexplained_share", 1.0 - covered / wall, "fraction");
    r.metric("trace_overhead_share", median(traced_s) / median(plain_s) - 1.0, "fraction");
    spans.write_json(args.out_dir + "/spans_hub_finetune.json");
    return r;
}

}  // namespace perfbench
