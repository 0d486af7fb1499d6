#!/usr/bin/env python3
"""Repository benchmark front end.

Run one workload (the interface BENCHMARK.json declares):

    python3 swbench/run.py --workload fleet-ts --seed 1 --seconds 10 --trace 0

builds the measuring program (`swbench/`, its own cargo package) in
release mode, runs it, stamps the host, checks the result against
BENCHMARK.json, and prints the detail line, the host line and, last, the
one-line JSON result. Every run is also saved under `.bench_out/runs/`.

Steadiness mode runs each workload on consecutive seeds and prints every
end-to-end metric's median, quartiles and spread against its bound:

    python3 swbench/run.py steady --workloads fleet-ts,mesh-churn --runs 10

Compare mode sets two steadiness summaries side by side. It refuses to
compare them when they were taken on different hosts, on different seeds or run
lengths, or when either summary's repeat of a seed counted differently:

    python3 swbench/run.py compare .bench_out/steady-A.json .bench_out/steady-B.json
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
# Fields that must agree before two summaries may be compared.
HOST_KEYS = ("cpu_model", "nproc", "affinity", "available_parallelism")


def fail(msg):
    print(f"swbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    """Builds the measuring program; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    exe = target_dir() / "release" / "swbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_rev():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or Path(top).resolve() != ROOT:
        return "not a git checkout"
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown"


def source_digest():
    """SHA-256 over the sources the measured program is built from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.lock", ROOT / "Cargo.toml"]
    for base in (ROOT / "crates", BENCH_DIR / "src"):
        files += sorted(base.rglob("*.rs")) + sorted(base.rglob("Cargo.toml"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def host_stamp():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "profile": "release",
    }


def run_once(exe, workload, seed, seconds, trace, host, declared):
    """Runs one measurement; returns (detail, result) or exits."""
    stamp = time.time_ns()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = OUT_DIR / "spans" / f"{workload}-seed{seed}-{stamp}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["swbench_detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        fail(f"unreadable output from {workload}: {e}")
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    if list(result.get("metrics", {})) != names:
        fail(f"{workload} reported {list(result.get('metrics', {}))}, BENCHMARK.json declares {names}")
    record = {"host": dict(host, available_parallelism=detail["available_parallelism"]),
              "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "detail": detail, "result": result}
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload}-seed{seed}-trace{trace}-{stamp}.json").write_text(json.dumps(record, indent=1))
    return detail, result, record["host"]


def measure(args):
    declared = spec()
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {workloads}")
    exe = build()
    host = host_stamp()
    detail, result, host = run_once(exe, args.workload, args.seed, args.seconds,
                                    args.trace, host, declared)
    print(json.dumps({"swbench_detail": detail}))
    print(json.dumps({"swbench_host": host}))
    print(json.dumps(result))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    declared = spec()
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    names = [w["name"] for w in declared["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    for w in chosen:
        if w not in names:
            fail(f"unknown workload {w}; one of {names}")
    seconds = declared["run_seconds"]
    exe = build()
    host = host_stamp()
    summary = {"host": None, "seconds": seconds, "workloads": {}}
    for w in chosen:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        values = {name: [] for name in bounds}
        windows = {}
        for seed in seeds:
            detail, result, stamped = run_once(exe, w, seed, seconds, 0, host, declared)
            summary["host"] = stamped
            if not result["correct"] or result["failed"]:
                fail(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']} "
                     f"{detail.get('failures')}")
            windows[seed] = detail["window"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)
        detail, _, _ = run_once(exe, w, seeds[0], seconds, 0, host, declared)
        repeat = detail["window"] == windows[seeds[0]]
        rows = {}
        print(f"\n{w}: {len(seeds)} runs of {seconds} s, seeds {seeds[0]}..{seeds[-1]}, "
              f"repeat of seed {seeds[0]} " + ("identical" if repeat else "DIFFERENT"))
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  status")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            status = ("ok" if spread <= bound / 3 else
                      "within bound" if spread <= bound else "unresolved")
            rows[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "status": status,
                          "better": bounds[name]["better"], "unit": bounds[name]["unit"]}
            print(f"  {name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f}  {status}")
        summary["workloads"][w] = {"seeds": seeds, "repeat_identical": repeat, "metrics": rows}
        if not repeat:
            fail(f"{w}: a repeated seed counted differently")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary: {path}")


def compare(args):
    a, b = (json.loads(Path(p).read_text()) for p in (args.base, args.change))
    diff = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if diff:
        fail("refusing to compare runs from different hosts: " + ", ".join(
            f"{k}: {a['host'].get(k)!r} vs {b['host'].get(k)!r}" for k in diff))
    if a["seconds"] != b["seconds"]:
        fail(f"refusing to compare runs of {a['seconds']} s with runs of {b['seconds']} s")
    for w, base in a["workloads"].items():
        change = b["workloads"].get(w, base)
        if base["seeds"] != change["seeds"]:
            fail(f"refusing to compare {w} on seeds {base['seeds']} with seeds {change['seeds']}")
        if not (base["repeat_identical"] and change["repeat_identical"]):
            fail(f"refusing to compare {w}: a summary's repeat of a seed counted differently")
    print(f"base {a['host']['git_rev']} ({a['host']['source_digest']}) vs "
          f"change {b['host']['git_rev']} ({b['host']['source_digest']}) on {a['host']['cpu_model']}")
    worse = False
    for w, base in a["workloads"].items():
        change = b["workloads"].get(w)
        if change is None:
            print(f"{w}: missing from {args.change}")
            continue
        print(f"\n{w}")
        for name, m in base["metrics"].items():
            c = change["metrics"][name]
            sign = 1 if m["better"] == "lower" else -1
            delta = sign * (c["median"] - m["median"]) / m["median"]
            lo_better = all(sign * (x - y) < 0 for x in c["values"] for y in m["values"])
            if max(m["spread"], c["spread"]) > m["bound"] and not lo_better:
                verdict = "unresolved"
            elif delta > m["bound"]:
                verdict, worse = "WORSE", True
            else:
                verdict = "better" if delta < 0 else "within bound"
            print(f"  {name:24} {m['median']:12.6g} -> {c['median']:12.6g} "
                  f"{-delta:+8.2%} (bound {m['bound']:.0%})  {verdict}")
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("steady", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "steady":
            p.add_argument("--workloads", default="")
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--first-seed", type=int, default=1)
            steady(p.parse_args(sys.argv[2:]))
        else:
            p.add_argument("base")
            p.add_argument("change")
            compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure(p.parse_args())


if __name__ == "__main__":
    main()
