#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (and the library in src/)
under .bench_build/ at the repository root; later calls only rebuild what
changed. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The library's cycle-truncation
warnings are kept off the terminal and counted instead: the run is correct
only if their number matches the truncated reports the program counted.
--smoke runs fixed op sets and compares their exact counts and digests
with perfbench/pinned.json. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "perfbench"
WARNING = "cycle enumeration truncated"
# The benchmark must finish within 180 s of starting, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not (CMAKE_DIR / "CMakeCache.txt").exists():
                gen = ["-G", "Ninja"] if shutil.which("ninja") else []
                steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                              "-DCMAKE_BUILD_TYPE=Release", *gen])
            steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs])
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=env, cwd=ROOT).returncode != 0:
                    tail = log_path.read_text(errors="replace").splitlines()[-20:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build failed; see {log_path}")


def run_program(args):
    """Runs the program; returns (stdout lines, result dict, warnings seen)."""
    start = time.monotonic()
    proc = subprocess.Popen([str(BINARY), *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"timed out after {time.monotonic() - start:.0f} s")
    warnings = 0
    for line in err.splitlines():
        if WARNING in line:
            warnings += 1
        else:
            print(line, file=sys.stderr)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"program exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("program printed no result")
    return lines[:-1], result, warnings


def check_warnings(result, warnings):
    expected = result.pop("stderr_warnings")
    if warnings != expected:
        print(f"CHECK FAILED: {warnings} truncation warnings on stderr, "
              f"{expected} expected")
        result["correct"] = False
    print(f"truncation warnings: {warnings}")


def smoke():
    lines, result, warnings = run_program(["--smoke"])
    print("\n".join(lines))
    check_warnings(result, warnings)
    pinned = json.loads((HERE / "pinned.json").read_text())
    exact = dict(line.split()[1:3] for line in lines if line.startswith("exact "))
    ok = result["correct"] and result["failed"] == 0
    for key, want in pinned.items():
        got = exact.get(key)
        if got != want:
            print(f"SMOKE MISMATCH {key}: got {got}, pinned {want}")
            ok = False
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   help="screen_k8, sweep_k4f3, sim_k4 or campaign_k8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0:
        p.error("--seed must be >= 0")
    build()
    if a.smoke:
        return smoke()
    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    lines, result, warnings = run_program([
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--trace", str(a.trace),
        "--spans", str(spans / f"{a.workload}-seed{a.seed}.csv")])
    print("\n".join(lines))
    check_warnings(result, warnings)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
