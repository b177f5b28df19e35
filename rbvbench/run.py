#!/usr/bin/env python3
"""Build and run the repository benchmark (rbvbench/README.md).

Run from the repository root:

    python3 rbvbench/run.py --workload serve-micromix --seed 1 \
        --seconds 20 --trace 0
    python3 rbvbench/run.py --record   # rewrite rbvbench/expected.txt

The first call configures and builds the benchmark into .bench_build/
(Release, from this checkout's src/). Build output goes to stderr; the
last stdout line is rbvbench's JSON result. Every run is also
appended, with the host and build facts, to .bench_build/ledger.jsonl.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED = HERE / "expected.txt"
WORKLOADS = ("serve-micromix", "serve-tpcc", "cluster-crash")


def fail(msg, code=2):
    print(f"rbvbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ next to {HERE.name}/: nothing to benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", *targets], stdout=sys.stderr, check=True)


def fnv1a64(data):
    """The digest rbvbench computes (fi::stringHash64)."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_id():
    """Hash of the sources the benchmark compiles and runs."""
    h = hashlib.sha256()
    roots = [ROOT / "src", ROOT / "bench", HERE]
    for path in sorted(p for r in roots for p in r.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record():
    """Rewrite expected.txt: digests of the shipped tools' stdout and
    the traced run's work counters, at both committed seeds."""
    build(["rbvbench", "rbv_serve", "rbv_cluster"])
    lines = ["# rbvbench correctness gate: <workload> <seed> <key> <value>.",
             "# Written by `python3 rbvbench/run.py --record`; digests are",
             "# FNV-1a 64 of the shipped tool's stdout with the flags shown."]
    for name in WORKLOADS:
        out = subprocess.run([str(BUILD / "rbvbench"), "--workload", name,
                              "--record"], capture_output=True, text=True,
                             check=True).stdout.splitlines()
        for line in out:
            if line.startswith("# ") and " shipped: " in line:
                _, seed, _, *cmd = line[2:].split()
                shipped = subprocess.run([str(BUILD / cmd[0]), *cmd[1:]],
                                         capture_output=True, check=True)
                digest = fnv1a64(shipped.stdout)
                ours = [l for l in out if l.startswith(f"{name} {seed} "
                                                       "digest ")]
                if ours != [f"{name} {seed} digest {digest}"]:
                    fail(f"{name} seed {seed}: benchmark digest {ours} "
                         f"!= shipped {digest}", 1)
            lines.append(line)
    EXPECTED.write_text("\n".join(lines) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record:
        return record()
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be >= 0")
    build(["rbvbench"])
    proc = subprocess.run(
        [str(BUILD / "rbvbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--expected", str(EXPECTED),
         "--commit", commit_id(), "--source-id", source_id()],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.splitlines()
    facts = [json.loads(l[len("[facts] "):]) for l in lines
             if l.startswith("[facts] ")]
    if lines and lines[-1].startswith("{"):
        entry = {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "facts": facts[0] if facts else {},
                 "result": json.loads(lines[-1])}
        with open(BUILD / "ledger.jsonl", "a") as ledger:
            ledger.write(json.dumps(entry, sort_keys=True) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
