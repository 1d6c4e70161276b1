#!/usr/bin/env python3
"""Benchmark runner: builds the simulator, runs one workload, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. It builds perfbench/perfbench.exe with
dune, then:

  --trace 0  starts the worker once per repetition (a fresh process, so a
             fresh heap and fresh inputs) until S seconds have been spent,
             times the host-speed reference between repetitions, and
             reports the median of each end-to-end metric, with times at
             the reference host speed (README.md says why);
  --trace 1  makes one traced run of about S seconds and reports every
             per-layer metric.

Every run's simulated output is checked by the worker; a repetition that
fails a check, or whose summary fingerprint differs from the others', counts
as failed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. BENCHMARK.json names every metric
and its unit; a name the worker emits that is not listed there, or a listed
name it does not emit, makes the run incorrect.
"""

import argparse
import collections
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join("perfbench", "out")
WORKLOADS = ["server-bimodal", "server-zippydb", "rack-seq", "raft-3node"]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# A process must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
# Seconds the host-speed reference loop (calibrate.ml) takes on a quiet
# 2-vCPU Xeon VM. Wall and set-up times are reported at this speed.
REF_NOMINAL_S = 0.15


def positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=positive_int)
    p.add_argument("--seconds", required=True, type=positive_int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args(argv)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def host_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    runtime = worker(["host"], 60)
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "recommended_domain_count": runtime["recommended_domain_count"],
        "ocaml": runtime["ocaml"],
        "python": platform.python_version(),
        "commit": commit,
        # Every end-to-end run uses one domain; the rack-seq traced run also
        # times par:1 and par:2.
        "domains": {w: 1 for w in WORKLOADS},
    }


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the root of the tree: nothing to build")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the tree; the build stays inside it.
    proc = subprocess.run([dune, "build", "--root", ".", "--cache=disabled",
                           "./perfbench/perfbench.exe"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def worker(args, timeout):
    proc = subprocess.run([os.path.join(ROOT, WORKER)] + [str(a) for a in args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with {proc.returncode}: {' '.join(map(str, args))}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("worker printed nothing")
    return json.loads(lines[-1])


def listed_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return collections.OrderedDict((m["name"], m["unit"]) for m in spec[section])


def check_names(emitted, listed):
    """Problems with the emitted metric names, as strings."""
    problems = [f"bad metric name {n!r}" for n in emitted if not NAME_RE.fullmatch(n)]
    problems += [f"metric {n!r} is not listed in BENCHMARK.json" for n in emitted
                 if n not in listed]
    problems += [f"listed metric {n!r} was not emitted" for n in listed if n not in emitted]
    return problems


def untraced(args, start):
    """Repeat the worker until the budget is spent; medians of each metric."""
    reps = []
    ref_before = worker(["calibrate"], 60)["ref_s"]
    while True:
        rep = worker(["run", args.workload, args.seed], DEADLINE_S)
        ref_after = worker(["calibrate"], 60)["ref_s"]
        rep["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        reps.append(rep)
        spent = time.monotonic() - start
        longest = max(r["wall_s"] for r in reps) + 2.0
        if spent >= args.seconds or spent + longest > DEADLINE_S:
            break
    counts = collections.Counter(r["fingerprint"] for r in reps)
    reference = counts.most_common(1)[0][0]
    problems = []
    failed = 0
    for i, r in enumerate(reps):
        bad = list(r["failures"])
        if r["fingerprint"] != reference:
            bad.append(f"fingerprint {r['fingerprint']} differs from {reference}")
        if bad:
            failed += 1
            problems += [f"repetition {i}: {b}" for b in bad]
    # Host time at the reference speed: scale each repetition's times by how
    # much slower than nominal the reference loop ran just before and after.
    def at_reference(seconds, r):
        return seconds * REF_NOMINAL_S / r["ref_s"]

    values = {
        "sim_req_per_s": statistics.median(r["arrivals"] / at_reference(r["wall_s"], r)
                                           for r in reps),
        "alloc_bytes_per_req": statistics.median(r["alloc_bytes"] / r["arrivals"] for r in reps),
        "heap_peak_mb": statistics.median(r["heap_peak_bytes"] / 1e6 for r in reps),
        "setup_s": statistics.median(at_reference(r["setup_s"], r) for r in reps),
    }
    uncorrected = {
        "sim_req_per_s": statistics.median(r["arrivals"] / r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "ref_s": statistics.median(r["ref_s"] for r in reps),
    }
    detail = {"repetitions": reps, "fingerprint": reference, "uncorrected": uncorrected}
    return values, len(reps), failed, problems, detail


def traced(args):
    trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    r = worker(["trace", args.workload, args.seed, args.seconds, trace_file], DEADLINE_S)
    detail = {k: r[k] for k in ("rounds", "fingerprint", "span_accounting", "trace_file")}
    return r["metrics"], r["attempted"], r["failed"], list(r["failures"]), detail


def main(argv):
    args = parse_args(argv)
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    build()
    host = host_record()
    print(json.dumps({"host": host}))
    start = time.monotonic()
    if args.trace == 0:
        values, attempted, failed, problems, detail = untraced(args, start)
        listed = listed_metrics("end_to_end")
    else:
        values, attempted, failed, problems, detail = traced(args)
        listed = listed_metrics("per_layer")
    problems += check_names(values, listed)
    for name, v in values.items():
        if not math.isfinite(v):
            problems.append(f"metric {name!r} is not a finite number")
            values[name] = 0.0
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in listed.items() if name in values}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "problems": problems, "metrics": metrics,
              **detail}
    report_file = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    with open(report_file, "w") as f:
        json.dump(report, f, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    held_out = args.seed + 1_000_003
    print(f"report: {report_file}; rerun on a held-out seed with: python3 perfbench/run.py "
          f"--workload {args.workload} --seed {held_out} --seconds {args.seconds} "
          f"--trace {args.trace}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct else max(failed, 1), "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
