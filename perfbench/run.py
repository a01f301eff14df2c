#!/usr/bin/env python3
"""CPT-GPT benchmark: builds cpt_perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload bulk_generate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --prepare     # retrain the committed flagship (slow)

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build). Each workload runs in its own process with its own CPT_THREADS.
The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1, on every
workload. Exits 1 when an output check fails and 2 when the benchmark cannot
run (no source tree, build failure, set-up error, timeout, a metric set that
differs from BENCHMARK.json's).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKPOINT = os.path.join(HERE, "flagship_phone_h10.ckpt")
NPROC = len(os.sched_getaffinity(0))
# CPT_THREADS per workload. serve_mix runs one lane: two slice engines that
# decode at once hang the shared pool at 2+ lanes (README, known defects).
THREADS = {"bulk_generate": NPROC, "serve_mix": 1, "hub_finetune": NPROC}
RUN_LIMIT_S = 175  # every run but the first (which builds) must end in 180 s


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree:" + digest.hexdigest()[:16]


def manifest_metrics(trace):
    """{name: unit} of every metric BENCHMARK.json lists for the mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die("no CPT-GPT source tree next to " + HERE)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "cpt_perfbench", "-j", str(NPROC)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "cpt_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", action="store_true",
                    help="train the flagship and rewrite the committed checkpoint")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    binary = build(build_dir)
    if args.prepare:
        sys.exit(subprocess.run([binary, "--prepare=" + CHECKPOINT]).returncode)
    if args.workload is None:
        die("--workload is required")
    if not os.path.isfile(CHECKPOINT + ".sha256"):
        die("missing " + CHECKPOINT + ".sha256")
    with open(CHECKPOINT + ".sha256") as fh:
        expected = fh.read().split()[0]

    out_dir = os.path.join(build_dir, "runs", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ, CPT_THREADS=str(THREADS[args.workload]))
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--checkpoint=" + CHECKPOINT, "--checkpoint-sha256=" + expected,
           "--out-dir=" + out_dir, "--source-id=" + source_id()]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped cpt_perfbench
        die("%s did not finish within %d s" % (args.workload, RUN_LIMIT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        die("%s exited with code %d" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line: " + lines[-1])
    wanted = manifest_metrics(args.trace)
    if wanted is not None and {k: v.get("unit") for k, v in result["metrics"].items()} != wanted:
        sys.stdout.write(proc.stdout)
        die("%s returned metrics %s, BENCHMARK.json lists %s"
            % (args.workload, sorted(result["metrics"]), sorted(wanted)))
    for line in lines[:-1]:
        print(line)
    print("wall %.1f s; spans and run files in %s" % (time.monotonic() - start, out_dir))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
