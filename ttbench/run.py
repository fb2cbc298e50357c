#!/usr/bin/env python3
"""Build and run the ttsc benchmark, or compare two sets of its results.

Run one workload (builds the benchmark into .bench_build/ttbench first):

    python3 ttbench/run.py --workload grid --seed 7715 --seconds 30 --trace 0

Compare result files (each argument is a result file or a directory of them):

    python3 ttbench/run.py --diff .bench_out-before .bench_out

The last line a run prints is one JSON object with the keys correct,
attempted, failed and metrics. Everything else (build output, metric lines)
comes before it or goes to stderr. See ttbench/README.md.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ttbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("grid", "campaign", "state_faults")
RUN_TIMEOUT_S = 175  # one run must end within 180 s


def fail(message, code=1):
    print("ttbench: " + message, file=sys.stderr)
    sys.exit(code)


def whole_number(lo, hi):
    """argparse type: a plain decimal in [lo, hi] (no sign, space or '_')."""
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                "expected a whole number in [%d, %d], got %r" % (lo, hi, text))
        return int(text)
    return parse


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the ttsc sources (src/) are missing next to ttbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []

    def configure():
        return subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                              + generator, stdout=sys.stderr, stderr=sys.stderr).returncode

    def compile_():
        return subprocess.run(["cmake", "--build", BUILD, "--target", "ttbench", "-j", "4"],
                              stdout=sys.stderr, stderr=sys.stderr).returncode

    # A build directory configured for another source tree (a copied or
    # moved checkout) would silently build that tree's sources: start over.
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as fh:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in fh.read():
                shutil.rmtree(BUILD)
    if not os.path.isfile(cache) and configure() != 0:
        fail("cmake configure failed")
    if compile_() != 0:
        fail("build failed")
    return os.path.join(BUILD, "ttbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def tree_sha256():
    """Digest of the sources the benchmark builds (src/ and ttbench/)."""
    h = hashlib.sha256()
    for top in ("src", "ttbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run(args):
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
           "--root", ROOT, "--git-sha", git_sha(), "--tree-sha256", tree_sha256()]
    if args.iterations:
        cmd += ["--iterations", str(args.iterations)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the run took longer than %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


# ------------------------------------------------------------------ diff

def load_rows(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    rows = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("schema") != "ttbench-result" or doc.get("version") != 1:
            fail("%s is not a ttbench-result v1 file" % f)
        rows += [r for r in doc["rows"] if not r["trace"]]
    if not rows:
        fail("no untraced result rows in %s" % path)
    return rows


def spread(rows, name):
    """(median, q1, q3, n) of one metric: across runs when there are several,
    else the single run's own median and quartiles of its samples."""
    ms = [r["metrics"][name] for r in rows if name in r["metrics"]]
    if not ms:
        return None
    if len(ms) == 1:
        m = ms[0]
        return m["value"], m["q1"], m["q3"], 1
    values = [m["value"] for m in ms]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def diff(a_path, b_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    a_rows, b_rows = load_rows(a_path), load_rows(b_path)
    worse = 0
    for workload in sorted({r["workload"] for r in a_rows + b_rows}):
        a = [r for r in a_rows if r["workload"] == workload]
        b = [r for r in b_rows if r["workload"] == workload]
        print("%s  (runs: %d vs %d)" % (workload, len(a), len(b)))
        print("  %-14s %-34s %-34s %9s" % ("metric", "A median [q1, q3]", "B median [q1, q3]",
                                          "change"))
        for m in metrics:
            sa, sb = spread(a, m["name"]), spread(b, m["name"])
            if sa is None or sb is None:
                print("  %-14s missing on one side" % m["name"])
                continue
            change = (sb[0] - sa[0]) / sa[0] if sa[0] else 0.0
            bad = change > m["bound"] if m["better"] == "lower" else change < -m["bound"]
            worse += bad
            print("  %-14s %-34s %-34s %+8.2f%%%s" % (
                m["name"], "%.6g [%.6g, %.6g]" % sa[:3], "%.6g [%.6g, %.6g]" % sb[:3],
                100.0 * change, "  WORSE than the %g bound" % m["bound"] if bad else ""))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=whole_number(0, 2**64 - 1), default=7715)
    p.add_argument("--seconds", type=whole_number(1, 150), default=30)
    p.add_argument("--iterations", type=whole_number(1, 1000000))
    p.add_argument("--trace", type=whole_number(0, 1), default=0)
    p.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.diff:
        if args.workload:
            p.error("--diff takes no --workload")
        sys.exit(diff(*args.diff))
    if not args.workload:
        p.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
