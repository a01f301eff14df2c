// Shared pieces of the CPT-GPT benchmark program: clocks, exact quantiles of
// raw samples, in-memory spans, process memory, SHA-256 and the result record
// every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "util/sync.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
inline double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

// True when one more repetition lasting `next_s` still ends within `budget_s`
// of `t0`: measurement loops stop before they overrun --seconds.
inline bool fits(Clock::time_point t0, double next_s, double budget_s) {
    return since(t0) + next_s <= budget_s;
}

// Exact order statistics of raw samples (util::quantile's ECDF); no bucketing.
double quantile(const std::vector<double>& xs, double q);
inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }
double sum(const std::vector<double>& xs);

// VmHWM of this process in MB (1 MB = 2^20 bytes): the peak resident set
// since the process started or since the last reset_peak_rss().
double peak_rss_mb();

// Resets VmHWM to the current resident set (Linux /proc/self/clear_refs), so
// that each measured repetition's own peak can be read; throws on failure.
void reset_peak_rss();

// User + system CPU time of the whole process so far.
double process_cpu_seconds();

std::string sha256_file(const std::string& path);

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string checkpoint;         // flagship package
    std::string checkpoint_sha256;  // expected digest, hex
    std::string out_dir;            // temporary files, spans
};

// Derives the per-purpose seeds of a workload from its --seed, so that the
// same seed always gives the same inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

// Spans the benchmark records around its own calls into the program: name,
// start, end, parent span and request id. Kept in memory (appends take a
// lock, so several client threads may record) and written out at the end.
class SpanLog {
public:
    static constexpr std::int64_t kNoParent = -1;

    // Records a finished span; returns its id.
    std::int64_t add(const char* name, Clock::time_point start, Clock::time_point end,
                     std::int64_t parent = kNoParent, std::uint64_t request = 0)
        CPT_EXCLUDES(mu_);
    // Starts a span now so children can name it as parent; close() ends it.
    std::int64_t open(const char* name, std::int64_t parent = kNoParent,
                      std::uint64_t request = 0) CPT_EXCLUDES(mu_);
    void close(std::int64_t id) CPT_EXCLUDES(mu_);
    std::size_t size() const CPT_EXCLUDES(mu_);
    void write_json(const std::string& path) const CPT_EXCLUDES(mu_);

private:
    struct Span {
        const char* name;
        Clock::time_point start;
        Clock::time_point end;
        std::int64_t parent;
        std::uint64_t request;
    };
    const Clock::time_point epoch_ = Clock::now();
    mutable cpt::util::Mutex mu_;
    std::vector<Span> spans_ CPT_GUARDED_BY(mu_);
};

// Outcome of one workload run: output checks, operation counts and metrics.
// Every workload returns the same metric names (BENCHMARK.json lists them);
// figures that only one workload has are printed with detail() instead.
class Result {
public:
    void metric(const std::string& name, double value, const char* unit);
    // A figure printed in the report but not returned in json().
    void detail(const std::string& name, double value, const char* unit);
    // Records a failed output check (and prints it) when `ok` is false.
    bool check(bool ok, const std::string& what);
    bool correct() const { return correct_; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
    std::string json() const;

private:
    struct Metric {
        std::string name;
        double value;
        const char* unit;
    };
    bool correct_ = true;
    std::vector<Metric> metrics_;
};

// Runs `setup_once` `reps` times and returns the median duration. Each call
// must rebuild the workload's state from scratch; `teardown` runs untimed
// before every repetition after the first, and the last state stays live.
// The first repetition is timed from `process_start`, so it also carries the
// process's own start-up.
double median_setup(int reps, Clock::time_point process_start,
                    const std::function<void()>& teardown,
                    const std::function<void()>& setup_once);

// Single-lane GFLOP/s of an nn GEMM, FLOPs computed from the shape: kNt is
// C[M,N] += A[M,K] B[N,K]^T (decode), kNn is C[M,N] += A[M,K] B[K,N]
// (training). Model GEMMs run inside one pool lane in every workload, so the
// kernel is timed on a one-lane pool for ~0.25 s.
enum class Gemm { kNt, kNn };
double gemm_gflops(Gemm kind, std::size_t m, std::size_t k, std::size_t n, SpanLog& spans);

// The d=128 flagship every workload runs: d_model 128, 4 heads, MLP 1024,
// 2 blocks, max_seq_len 128, head hidden 128.
cpt::core::CptGptConfig flagship_config();

// Checks the committed checkpoint's SHA-256 against Args and loads it; throws
// on a mismatch. Never trains.
cpt::core::CptGpt::Package load_flagship(const Args& args);

}  // namespace perfbench
