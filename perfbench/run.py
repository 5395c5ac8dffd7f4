#!/usr/bin/env python3
"""Build and run the sfcmem benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

builds cmd/sfcserved and the perfbench driver from this tree into
.bench_build/ and runs one workload; the last line of standard output is
the JSON result. Two more modes drive that same command repeatedly:

    --spread N          run the workload N times (seeds seed..seed+N-1) and
                        print per metric the median, quartiles,
                        IQR/median and (max-min)/median; --workload all
                        runs every workload.
    --check-counts      two traced runs with one seed must repeat every
                        count exactly; a run with the next seed must give
                        the same per-class op counts.

The Go build cache, temp files and data directories all live under
.bench_build/, so nothing is written outside the checkout.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["kernels", "serve-interactive", "serve-churn"]
RUN_TIMEOUT = 170  # seconds; a run must end within 180


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    return env


def build():
    """Build sfcserved and the driver; returns the two binary paths."""
    for need in ("go.mod", os.path.join("cmd", "sfcserved"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found under {ROOT}; run from a full checkout")
    if shutil.which("go") is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    bindir = os.path.join(BUILD, "bin")
    os.makedirs(bindir, exist_ok=True)
    env = go_env()
    server = os.path.join(bindir, "sfcserved")
    driver = os.path.join(bindir, "perfbench")
    for cwd, out, pkg in ((ROOT, server, "./cmd/sfcserved"), (os.path.join(ROOT, "perfbench"), driver, ".")):
        p = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.exit(f"perfbench: go build {pkg} failed:\n{p.stdout}")
    return server, driver


def pin_one_cpu():
    """Run the driver, sfcserved and every child on one CPU: the closed
    loop does one thing at a time, and the host-speed calibration then
    runs on the CPU that does the work."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_once(bins, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns the parsed result line (or None)."""
    server, driver = bins
    work = os.path.join(BUILD, "work", f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [driver, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-sfcserved", server, "-workdir", work]
    # Its own process group, so a timeout also stops the sfcserved and
    # set-up processes the driver started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=pin_one_cpu)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if trace:  # keep the span dump next to the build, drop data dirs
            spans = os.path.join(work, "spans.json")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(BUILD, f"spans-{workload}-{seed}.json"))
        shutil.rmtree(work, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    else:  # keep the readable table (raw values, sample counts) in the log
        sys.stderr.write("".join(f"| {l}\n" for l in out.splitlines()[:-1]))
    if proc.returncode != 0:
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spread(bins, workloads, n, seed, seconds, trace):
    """Run each workload n times and print the spread of every metric."""
    ok = True
    for w in workloads:
        runs = []
        for i in range(n):
            res = run_once(bins, w, seed + i, seconds, trace, echo=False)
            if res is None or not res["correct"]:
                print(f"perfbench: {w} seed {seed + i} failed", file=sys.stderr)
                ok = False
                continue
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"# {w} seed {seed + i}: {vals}", file=sys.stderr, flush=True)
        if not runs:
            continue
        print(f"\n{w}: {len(runs)} runs, seeds {seed}..{seed + n - 1}")
        print(f"{'metric':<40} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} {'iqr/med':>8} {'range/med':>9}")
        for name, m in runs[0]["metrics"].items():
            xs = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            rel = (lambda d: d / med if med else 0.0)
            print(f"{name:<40} {m['unit']:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{rel(q3 - q1):>8.3f} {rel(max(xs) - min(xs)):>9.3f}")
    return ok


def check_counts(bins, workload, seed, seconds):
    """The exact-count channel: every count repeats for one seed."""
    runs = [run_once(bins, workload, s, seconds, 1, echo=False) for s in (seed, seed, seed + 1)]
    if any(r is None for r in runs):
        print("perfbench: a traced run failed", file=sys.stderr)
        return False
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs]
    bad = [k for k in counts[0] if counts[0][k] != counts[1][k]]
    bad_ratio = [k for k in counts[0] if k.startswith("ops.") and counts[0][k] != counts[2][k]]
    for k in bad:
        print(f"mismatch (same seed {seed}): {k} {counts[0][k]} != {counts[1][k]}")
    for k in bad_ratio:
        print(f"class ratio differs (seed {seed + 1}): {k} {counts[0][k]} != {counts[2][k]}")
    print(f"{workload}: {len(counts[0])} counts, {len(bad)} mismatches; "
          f"op classes at seed {seed + 1}: {len(bad_ratio)} differ")
    return not bad and not bad_ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spread", type=int, default=0, metavar="N")
    ap.add_argument("--check-counts", action="store_true")
    a = ap.parse_args()
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    bins = build()
    if a.spread:
        return 0 if spread(bins, workloads, a.spread, a.seed, a.seconds, a.trace) else 1
    if a.check_counts:
        return 0 if all(check_counts(bins, w, a.seed, a.seconds) for w in workloads) else 1
    results = [run_once(bins, w, a.seed, a.seconds, a.trace) for w in workloads]
    return 0 if all(r is not None for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
