#!/usr/bin/env python3
"""The repository benchmark: job text in, verdict out.

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 40 --trace 0

Builds the library and the benchmark program from this checkout (CMake, in
$CARGO_TARGET_DIR or .bench_build), runs one workload in a fresh private
directory under the build directory, removes that directory, and prints the
program's context line and, as the last line, the result object.  Exits non-zero
without a result when the build or the run fails.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("batch_cold", "deep_single")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    # The Makefile exists only after a configure step that succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        log(f"configuring {build_dir}")
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(root, trace):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(binary, args, workdir, root):
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--source-id", source_id(root)]
    env = dict(os.environ, TMPDIR=workdir)
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"run exited with {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    runs = os.path.join(root, target, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        out = run_bench(binary, args, workdir, root)
    except (OSError, RuntimeError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("the run printed no result line")
        return 1
    want = expected_metrics(root, args.trace)
    if want is not None and set(result["metrics"]) != want:
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ want)}")
        return 1
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
