#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the source tree:

    python3 perfbench/selftest.py

1. Builds and runs perfbench/selftest.exe (re-hosted run loop vs the
   library, fingerprint sensitivity, trace output validity).
2. Runs run.py for one second, at the workloads' own sizes, on every
   workload in both modes and checks that the last line is a correct result whose metric names match BENCHMARK.json
   exactly and are well formed.
3. Checks that malformed arguments exit non-zero without a result.
4. Checks that run.py fails, without a result, in a tree that holds only
   BENCHMARK.json and the benchmark's own files.

Exits 1 if any test fails. Takes a minute or two.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

failures = 0


def check(name, ok):
    global failures
    if not ok:
        failures += 1
    print(f"{'ok  ' if ok else 'FAIL'} {name}", flush=True)


def run_py(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    os.chdir(ROOT)
    build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                            "./perfbench/perfbench.exe", "./perfbench/selftest.exe"],
                           capture_output=True, text=True)
    check("benchmark builds", build.returncode == 0)
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.exit(1)
    ocaml = subprocess.run([os.path.join("_build", "default", "perfbench", "selftest.exe")],
                           capture_output=True, text=True)
    sys.stdout.write(ocaml.stdout)
    check("OCaml self-tests pass", ocaml.returncode == 0)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    workloads = [w["name"] for w in spec["workloads"]]
    check("BENCHMARK.json lists the four workloads",
          workloads == ["server-bimodal", "server-zippydb", "rack-seq", "raft-3node"])
    for w in workloads:
        for trace in (0, 1):
            proc = run_py(["--workload", w, "--seed", "5", "--seconds", "1", "--trace", str(trace)])
            result = last_json(proc.stdout)
            what = f"{w} --trace {trace}"
            check(f"{what}: exits 0 with a correct result",
                  proc.returncode == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1)
            if result is None:
                continue
            names = list(result["metrics"])
            check(f"{what}: metric names are well formed and listed in BENCHMARK.json",
                  names == listed[trace] and all(NAME_RE.fullmatch(n) for n in names))
            check(f"{what}: every metric carries its unit",
                  all(set(m) == {"value", "unit"} for m in result["metrics"].values()))

    bad = [
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "rack-seq", "--seed", "0", "--seconds", "1", "--trace", "0"],
        ["--workload", "rack-seq", "--seed", "x", "--seconds", "1", "--trace", "0"],
        ["--workload", "rack-seq", "--seed", "1", "--seconds", "-2", "--trace", "0"],
        ["--workload", "rack-seq", "--seed", "1", "--seconds", "1.5", "--trace", "0"],
        ["--workload", "rack-seq", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ["--workload", "rack-seq", "--seed", "1", "--seconds", "1"],
    ]
    for args in bad:
        proc = run_py(args)
        check(f"rejects {' '.join(args)}", proc.returncode != 0 and last_json(proc.stdout) is None)

    bare = os.path.join(ROOT, "perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy("BENCHMARK.json", bare)
    for name in os.listdir("perfbench"):
        if os.path.isfile(os.path.join("perfbench", name)):
            shutil.copy(os.path.join("perfbench", name), os.path.join(bare, "perfbench"))
    proc = run_py(["--workload", "server-bimodal", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=bare)
    check("fails without a result in a tree holding only the benchmark",
          proc.returncode != 0 and last_json(proc.stdout) is None)
    shutil.rmtree(bare)

    if failures:
        print(f"{failures} self-test(s) failed")
        sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
