// cpt_perfbench — the CPT-GPT benchmark program (see perfbench/README.md).
//
//   cpt_perfbench --workload=<bulk_generate|serve_mix|hub_finetune> --seed=N
//                 --seconds=S --trace=0|1 --checkpoint=PATH
//                 --checkpoint-sha256=HEX --out-dir=DIR [--source-id=ID]
//   cpt_perfbench --prepare=PATH     (train the flagship once; slow)
//
// Prints a fingerprint line, a human-readable report, and as its last line
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output check
// failed, 2 on a usage or set-up error.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/cli.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

void print_fingerprint(const perfbench::Args& a, const std::string& source_id) {
    std::printf(
        "fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
        "\"cpu_model\": \"%s\", \"nproc\": %u, \"simd_tier\": \"%s\", \"cpt_threads\": %zu, "
        "\"build_type\": \"%s\", \"source\": \"%s\", \"checkpoint_sha256\": \"%s\"}\n",
        a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
        cpu_model().c_str(), std::thread::hardware_concurrency(),
        cpt::util::simd_tier_name(cpt::util::active_simd_tier()),
        cpt::util::configured_threads(), CPT_PERFBENCH_BUILD_TYPE, source_id.c_str(),
        a.checkpoint_sha256.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const auto process_start = perfbench::Clock::now();
    const cpt::util::Options opt(argc, argv);
    if (opt.has("prepare")) return perfbench::run_prepare(opt.get("prepare", ""));

    perfbench::Args args;
    args.workload = opt.get("workload", "");
    args.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    args.seconds = opt.get_double("seconds", 10.0);
    args.trace = opt.get_int("trace", 0) != 0;
    args.checkpoint = opt.get("checkpoint", "");
    args.checkpoint_sha256 = opt.get("checkpoint-sha256", "");
    args.out_dir = opt.get("out-dir", "");
    if (args.checkpoint.empty() || args.checkpoint_sha256.empty() || args.out_dir.empty() ||
        args.seconds <= 0.0) {
        std::fprintf(stderr, "cpt_perfbench: --checkpoint, --checkpoint-sha256, --out-dir and "
                             "a positive --seconds are required\n");
        return 2;
    }
    std::filesystem::create_directories(args.out_dir);
    print_fingerprint(args, opt.get("source-id", "unknown"));
    std::fflush(stdout);

    perfbench::Result result;
    try {
        if (args.workload == "bulk_generate") {
            result = perfbench::run_bulk_generate(args, process_start);
        } else if (args.workload == "serve_mix") {
            result = perfbench::run_serve_mix(args, process_start);
        } else if (args.workload == "hub_finetune") {
            result = perfbench::run_hub_finetune(args, process_start);
        } else {
            std::fprintf(stderr, "cpt_perfbench: unknown workload '%s'\n", args.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cpt_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
        return 2;
    }
    std::printf("%s\n", result.json().c_str());
    return result.correct() ? 0 : 1;
}
