#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload ann_open --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds the measuring binary from the
checkout's sources (`perfbench/Cargo.toml`, which depends on `crates/*` by
path) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it once
in a fresh process. The binary prepares the cached data if missing, boots
the server under test, loads it, checks the answers and prints one JSON
result object as the last line of stdout (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`).

Prepared data (1M-row IVF-PQ indexes, exact oracle, embedding blobs) is
built by the code under test and cached under
`$CARGO_TARGET_DIR/perfbench-data/<key>`, where the key hashes every source
file that could change it, so a different commit never reuses it.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ann_open", "zipf_sharded")
# Source trees whose change must invalidate the prepared data.
KEYED = ("Cargo.toml", "Cargo.lock", "crates", "vendor",
         "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src/data.rs")
RUN_TIMEOUT_S = 870


def data_key(root):
    """SHA-256 over the paths and bytes of every keyed source file."""
    h = hashlib.sha256()
    files = []
    for rel in KEYED:
        p = root / rel
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(f for f in p.rglob("*") if f.is_file())
    for f in sorted(files):
        h.update(str(f.relative_to(root)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()[:20]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    manifest = ROOT / "perfbench" / "Cargo.toml"
    if not (ROOT / "crates").is_dir() or not manifest.is_file():
        print("perfbench: no sources to build here (need crates/ and perfbench/)", file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cache = target / "perfbench-data" / data_key(ROOT)
    cache.mkdir(parents=True, exist_ok=True)
    exe = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(exe), "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace, "--cache", str(cache)],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
