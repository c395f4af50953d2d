"""Smoke test of tools/output_digest.py, the byte-identity check of outputs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_digest  # noqa: E402


def test_a_scene_seed_digests_the_same_twice(capsys):
    sha, files, failed = output_digest.output_digest("scene", [3])
    assert files > 0
    # the second call, through the command line, prints the first's digest
    assert output_digest.main(["scene", "3"]) == 0
    assert capsys.readouterr().out == f"{sha} files={files} failed_ops={failed}\n"
