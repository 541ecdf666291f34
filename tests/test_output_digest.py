"""The output digests that go through no BLAS call, pinned to their values.

``scripts/output_digest.py`` prints eight digests of outputs. Lines 3, 5, 6
and 7 (grids, assignment CSVs, variances, and kd and median-seeded builds
with nodes larger than one variance block) depend on no BLAS library or
thread count, so a change that moves one of them changes an output. Lines 1,
2, 4 and 8 go through threaded matrix-vector products and are compared by
running the script on two checkouts.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


@pytest.fixture(scope="module")
def output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "line, label, sha256",
    [
        ("grid_line", "18 grids", "890b9dd6e36f6981c1488a6d64c4eb8bce5b9cb399ee836d57ed0c6194e3650d"),
        ("csv_line", "36 assignment CSVs", "59ff8c3e329951d62b517d31a076a7862ac0d9bb3711cc02f7319ebe3ecf5c38"),
        ("variance_line", "176 variance datasets", "0c4cf470e67ccba1f3709abe1be2bc524c67943a5ed0aa77d675511196fb71ca"),
        (
            "block_line",
            "4 builds over several variance blocks",
            "fbc66186c594c0a64b28b12dfa7313f36b557966a8f44743ef715b885b2f6cfa",
        ),
    ],
)
def test_blas_free_digest_lines_are_unchanged(output_digest, line, label, sha256):
    assert getattr(output_digest, line)() == f"{label}  sha256 {sha256}"
