// The benchmark's workloads. Each runs in its own process, sets itself up
// several times (setup_s is the median), measures for Args::seconds, checks
// its outputs and fills a Result: end-to-end metrics untraced, per-layer
// metrics when Args::trace is set.
#pragma once

#include <string>

#include "harness.hpp"

namespace perfbench {

Result run_bulk_generate(const Args& args, Clock::time_point process_start);
Result run_serve_mix(const Args& args, Clock::time_point process_start);
Result run_hub_finetune(const Args& args, Clock::time_point process_start);

// Trains the flagship and writes `checkpoint_path` plus `<path>.sha256`.
int run_prepare(const std::string& checkpoint_path);

}  // namespace perfbench
