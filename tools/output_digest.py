#!/usr/bin/env python3
"""One SHA-256 over every file a benchmark workload's ops write.

    PYTHONPATH=src python3 tools/output_digest.py scene 3 5 11
    PYTHONPATH=../parent/src python3 tools/output_digest.py scene 3 5 11

Every pool and census op of each seed goes through perfbench/run.py's
`prepare` and `run_op`, each op in its own directory under one temporary
directory. The one printed line holds the SHA-256 over each written file's
relative name and bytes, in name order, the number of files, and the number
of failed ops. The ops import whichever `subpulse` is on PYTHONPATH, so the
same command run against another checkout's src/ tells whether the two
write byte-identical CSVs, manifests and map files.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402  perfbench/run.py, which imports its workloads beside it


def output_digest(workload: str, seeds) -> tuple[str, int, int]:
    """(SHA-256 hex digest, files written, failed ops) over `seeds`' ops."""
    failed = 0
    digest = hashlib.sha256()
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        configs, outputs = Path(tmp, "configs"), Path(tmp, "outputs")
        try:
            for seed in seeds:
                (configs / str(seed)).mkdir(parents=True)
                pool, census = bench.prepare(workload, seed, configs / str(seed))
                for op, config in pool + census:
                    # the ops of a pool share output names, so each gets a directory
                    op_dir = outputs / str(seed) / config.stem
                    op_dir.mkdir(parents=True)
                    os.chdir(op_dir)
                    failed += bench.run_op(op, config)[1] is not None
        finally:
            os.chdir(previous)
        files = sorted(p for p in outputs.rglob("*") if p.is_file())
        for path in files:
            body = path.read_bytes()
            name = path.relative_to(outputs).as_posix().encode()
            digest.update(b"%s\0%d\0%s" % (name, len(body), body))
    return digest.hexdigest(), len(files), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("scene", "stats"))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    sha, files, failed = output_digest(args.workload, args.seeds)
    print(f"{sha} files={files} failed_ops={failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
