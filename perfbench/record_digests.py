"""Rewrite digests.json: sha256 of every CSV each workload writes, for the
default seed and the held-out seed.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known good; the benchmark then
counts any run whose outputs differ from these digests as failed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench


def main() -> int:
    bench.preflight(next(iter(bench.WORKLOADS.values())))
    digests = {}
    out = bench.OUT_ROOT / "record-digests"
    shutil.rmtree(out, ignore_errors=True)
    try:
        for wl in bench.WORKLOADS.values():
            for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED):
                child = bench.run_child(wl, seed, "none", out / f"{wl.name}-{seed}")
                if not child.ok:
                    print(f"{wl.name} seed {seed}: {child.problems}", file=sys.stderr)
                    return 1
                digests.setdefault(wl.name, {})[str(seed)] = child.digests
                print(f"{wl.name} seed {seed}: {child.wall_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    bench.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
