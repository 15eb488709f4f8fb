#!/usr/bin/env python3
"""Build and run the PECAN serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds the release `serve`
binary and the benchmark (`perfbench/`, a Cargo package of its own) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one measurement, saves
the full result with a host fingerprint under `.perfbench/results/`, and
prints the result; its last line is the JSON object
`{"correct", "attempted", "failed", "metrics"}`.

`--corrupt-reference` flips one bit of one reference answer, which must
make the run fail. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def cargo(args, env):
    """Runs cargo offline with its output on stderr; exits on failure."""
    cmd = ["cargo", *args, "--release", "--offline", "-q"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log(f"build failed: {' '.join(cmd)}")
        sys.exit(2)


def build(env):
    """Builds `serve` and the benchmark; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        log("no Cargo.toml at the repository root: nothing to build")
        sys.exit(2)
    cargo(["build", "-p", "pecan-serve", "--bin", "serve"], env)
    cargo(["build", "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "serve"), os.path.join(release, "perfbench")


def source_digest():
    """SHA-256 over the sources that make up the measured program."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "src", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if not rel.endswith((".rs", ".toml", ".py")) or "/target/" in rel:
                continue
            h.update(rel.encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def fingerprint(seed):
    """Host and build facts recorded with every result."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    try:
        with open("/proc/sys/kernel/osrelease") as fh:
            kernel = fh.read().strip()
    except OSError:
        kernel = os.uname().release
    commit = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": sorted(f for f in flags if f == "avx2" or f.startswith("avx512")),
        "kernel": kernel,
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit or "unknown",
        "source_digest": source_digest(),
        "seed": seed,
    }


def self_test(env):
    """Runs the benchmark's own tests: Rust unit tests and compare.py's."""
    rust = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env,
    ).returncode
    py = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", os.path.join(HERE, "tests"), "-q"], cwd=ROOT,
    ).returncode
    return 0 if rust == 0 and py == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["lenet-threaded", "mlp-pipelined", "lenet-angle-offline"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-reference", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target if os.path.isabs(target) else os.path.join(ROOT, target)
    if args.self_test:
        return self_test(env)
    if not args.workload:
        ap.error("--workload is required")

    serve, bench = build(env)
    out_dir = os.path.join(ROOT, ".perfbench")
    cmd = [
        bench, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--serve-bin", serve, "--out-dir", out_dir,
    ]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # A session of its own, so a timeout can stop the `serve` processes
    # the benchmark started along with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        log(f"benchmark failed (exit {proc.returncode})")
        return proc.returncode or 1

    fp = fingerprint(args.seed)
    result = next((json.loads(l[len("RESULT "):]) for l in lines if l.startswith("RESULT ")), {})
    result["fingerprint"] = fp
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for line in lines[:-1]:
        if not line.startswith("RESULT "):
            print(line)
    print(f"fingerprint: {json.dumps(fp)}")
    print(f"result saved to {os.path.relpath(path, ROOT)}")
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
