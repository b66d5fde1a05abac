"""Regenerate ``reference.json``: the digest of every row any seed can produce.

Run from the root of a checkout::

    python3 perfbench/make_reference.py

Each workload's digests are computed over its whole input pool.  A sharded
workload's digests come from the same specs on the single-process
``scheduler`` engine, so its rows must equal the unsharded execution.
Regenerate only when a change is meant to alter what the runs compute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.run import OUT, REFERENCE, _import_repro  # noqa: E402


def main() -> int:
    if not _import_repro():
        print("make_reference: cannot import repro", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, row_digest

    reference: dict[str, dict[str, str]] = {}
    workdir = OUT / "reference-work"
    try:
        for name, workload in WORKLOADS.items():
            if getattr(workload, "shards", None):
                workload = dataclasses.replace(workload, engine="scheduler", shards=None)
            digests: dict[str, str] = {}
            for key in workload.pool:
                for sample in workload.execute(key, workdir / f"{name}-{key}"):
                    if sample.row is None or not sample.row.get("converged"):
                        print(f"make_reference: {name} {sample.key} did not converge", file=sys.stderr)
                        return 1
                    digests[sample.key] = row_digest(sample.row)
            reference[name] = digests
            print(f"{name}: {len(digests)} rows", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as stream:
        json.dump(reference, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
