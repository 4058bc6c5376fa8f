#!/usr/bin/env python3
"""Run one workload of the cutfit host-time benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/bench.exe with dune,
runs it in a fresh process (one workload per process), checks its output
digest against perfbench/pins.json when the seed is pinned there (an
unpinned seed is still checked for agreement between repetitions), and
prints:

  * one line per metric: "metric NAME VALUE UNIT";
  * one JSON record line with the environment, the digest and every
    metric with its unit;
  * as the last line, {"correct", "attempted", "failed", "metrics"}:
    the end-to-end metrics of BENCHMARK.json with --trace 0, the
    per-layer metrics with --trace 1.

pins.json is committed data: this script only reads it. Exits 1
without a result line when the program cannot be built or does not
finish.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a cutfit checkout: %s is missing" % need)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0:
        die("build failed with code %d" % proc.returncode)


def source_digest():
    """MD5 over the library, CLI and benchmark sources, in path order."""
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_bench(args):
    """Run bench.exe in its own session; return (result dict, peak RSS in MB)."""
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)

    # The whole session goes on timeout, forked chaos children included.
    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports the peak RSS of the process and of every child it reaped.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    if proc.returncode != 0:
        die("bench.exe exited with code %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        die("bench.exe printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    os.chdir(ROOT)
    spec = load_json("BENCHMARK.json")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %s" % args.workload)
    build()
    res, rss_mb = run_bench(args)

    failures = list(res["failures"])
    pins = load_json(PINS)
    key = str(args.seed)
    pinned = pins["digests"].get(args.workload, {}).get(key)
    mismatch = pinned is not None and pinned != res["digest"]
    if mismatch:
        failures.append("digest %s differs from pinned %s" % (res["digest"], pinned))

    attempted = max(1, int(res["attempted"]))
    # A digest that differs from the pin puts every checked output in doubt.
    failed = attempted if mismatch else min(attempted, len(res["failures"]))
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        die("bench.exe did not report %s" % ", ".join(missing))

    env = dict(res["env"])
    env.update(
        seed=args.seed,
        started_at=started_at,
        seconds=args.seconds,
        trace=args.trace,
        git_commit=git_commit(),
        source_md5=source_digest(),
        digest_pinned=pinned is not None,
    )
    for name, m in sorted(metrics.items()):
        print("metric %s %r %s" % (name, m["value"], m["unit"]))
    if "ops_per_s" in metrics:
        print("metric %s %r 1/s" % (env["ops_name"], metrics["ops_per_s"]["value"]))
    print("metric failed_frac %r ratio" % (failed / attempted))
    for f in failures:
        print("failure " + f)
    record = {
        "workload": args.workload,
        "digest": res["digest"],
        "env": env,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: metrics[n] for n in names},
            }
        )
    )


if __name__ == "__main__":
    main()
