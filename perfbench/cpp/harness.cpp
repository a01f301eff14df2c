#include "harness.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

#include "nn/gemm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double quantile(const std::vector<double>& xs, double q) {
    if (xs.empty()) return 0.0;
    return cpt::util::quantile(xs, q);
}

double sum(const std::vector<double>& xs) {
    double s = 0.0;
    for (double x : xs) s += x;
    return s;
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
        }
    }
    return 0.0;
}

void reset_peak_rss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.close();
    if (!out) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
}

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

namespace {

// FIPS 180-4 SHA-256.
class Sha256 {
public:
    void update(const unsigned char* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            block_[fill_++] = data[i];
            if (fill_ == 64) {
                compress();
                fill_ = 0;
            }
        }
        bytes_ += n;
    }

    std::string hex() {
        const std::uint64_t bits = bytes_ * 8;
        const unsigned char pad = 0x80;
        update(&pad, 1);
        const unsigned char zero = 0;
        while (fill_ != 56) update(&zero, 1);
        unsigned char len[8];
        for (int i = 0; i < 8; ++i) len[i] = static_cast<unsigned char>(bits >> (56 - 8 * i));
        update(len, 8);
        char out[65];
        for (int i = 0; i < 8; ++i) std::snprintf(out + 8 * i, 9, "%08x", h_[i]);
        return std::string(out, 64);
    }

private:
    static std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

    void compress() {
        static constexpr std::uint32_t k[64] = {
            0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
            0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
            0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
            0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
            0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
            0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
            0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
            0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
            0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
            0xc67178f2};
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (std::uint32_t{block_[4 * i]} << 24) | (std::uint32_t{block_[4 * i + 1]} << 16) |
                   (std::uint32_t{block_[4 * i + 2]} << 8) | std::uint32_t{block_[4 * i + 3]};
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4], f = h_[5],
                      g = h_[6], h = h_[7];
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t t1 =
                h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + k[i] + w[i];
            const std::uint32_t t2 =
                (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        h_[0] += a;
        h_[1] += b;
        h_[2] += c;
        h_[3] += d;
        h_[4] += e;
        h_[5] += f;
        h_[6] += g;
        h_[7] += h;
    }

    std::uint32_t h_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                           0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    unsigned char block_[64] = {};
    std::size_t fill_ = 0;
    std::uint64_t bytes_ = 0;
};

}  // namespace

std::string sha256_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    Sha256 sha;
    std::array<char, 1 << 16> buf;
    while (in) {
        in.read(buf.data(), buf.size());
        sha.update(reinterpret_cast<const unsigned char*>(buf.data()),
                   static_cast<std::size_t>(in.gcount()));
    }
    return sha.hex();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
    // splitmix64 finalizer over (seed, purpose).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::int64_t SpanLog::add(const char* name, Clock::time_point start, Clock::time_point end,
                          std::int64_t parent, std::uint64_t request) {
    cpt::util::LockGuard lk(mu_);
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::open(const char* name, std::int64_t parent, std::uint64_t request) {
    const auto now = Clock::now();
    return add(name, now, now, parent, request);
}

void SpanLog::close(std::int64_t id) {
    const auto now = Clock::now();
    cpt::util::LockGuard lk(mu_);
    spans_.at(static_cast<std::size_t>(id)).end = now;
}

std::size_t SpanLog::size() const {
    cpt::util::LockGuard lk(mu_);
    return spans_.size();
}

void SpanLog::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    cpt::util::LockGuard lk(mu_);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                     "\"parent\": %lld, \"request\": %llu}%s\n",
                     i, s.name, seconds_between(epoch_, s.start), seconds_between(epoch_, s.end),
                     static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

void Result::metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
    std::printf("  %-32s %.6g %s\n", name.c_str(), value, unit);
    check(std::isfinite(value), name + " is not a finite number");
}

void Result::detail(const std::string& name, double value, const char* unit) {
    std::printf("  %-32s %.6g %s  (detail)\n", name.c_str(), value, unit);
}

bool Result::check(bool ok, const std::string& what) {
    if (!ok) {
        correct_ = false;
        std::printf("CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
}

std::string Result::json() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        // %.17g keeps every digit of the measured double. A non-finite value
        // has already failed the run's checks and is written as 0.
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                      m.unit);
        out += buf;
    }
    out += "}}";
    return out;
}

double median_setup(int reps, Clock::time_point process_start,
                    const std::function<void()>& teardown,
                    const std::function<void()>& setup_once) {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        if (r > 0) teardown();
        const auto t0 = r == 0 ? process_start : Clock::now();
        setup_once();
        times.push_back(since(t0));
    }
    std::printf("setup: %d repetitions, seconds:", reps);
    for (double t : times) std::printf(" %.4f", t);
    std::printf("\n");
    return median(times);
}

double gemm_gflops(Gemm kind, std::size_t m, std::size_t k, std::size_t n, SpanLog& spans) {
    std::vector<float> a(m * k), b(k * n), c(m * n);
    cpt::util::Rng rng(7);
    for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    cpt::util::ThreadPool lane(1);
    const auto call = [&] {
        if (kind == Gemm::kNt) {
            cpt::nn::gemm_nt(a.data(), b.data(), c.data(), m, k, n, &lane);
        } else {
            cpt::nn::gemm_nn(a.data(), b.data(), c.data(), m, k, n, &lane);
        }
    };
    call();  // warm
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    while (since(t0) < 0.25) {
        call();
        ++calls;
    }
    const auto t1 = Clock::now();
    spans.add(kind == Gemm::kNt ? "nn.gemm_nt" : "nn.gemm_nn", t0, t1);
    return 2.0 * static_cast<double>(m * k * n * calls) / seconds_between(t0, t1) * 1e-9;
}

cpt::core::CptGptConfig flagship_config() {
    cpt::core::CptGptConfig cfg;
    cfg.d_model = 128;
    cfg.heads = 4;
    cfg.mlp_hidden = 1024;
    cfg.blocks = 2;
    cfg.max_seq_len = 128;
    cfg.head_hidden = 128;
    return cfg;
}

cpt::core::CptGpt::Package load_flagship(const Args& args) {
    const std::string digest = sha256_file(args.checkpoint);
    if (digest != args.checkpoint_sha256) {
        throw std::runtime_error("checkpoint " + args.checkpoint + " has SHA-256 " + digest +
                                 ", expected " + args.checkpoint_sha256);
    }
    return cpt::core::CptGpt::load_package(args.checkpoint, cpt::cellular::Generation::kLte4G,
                                           flagship_config());
}

}  // namespace perfbench
