"""The demos print exactly their frozen output.

`tests/golden/demos/<demo>.txt` holds the stdout of each script in
`demos/`, UTF-8 encoded.  Each demo runs in a child process whose
PYTHONPATH points at the directory holding the posetlab package this
process imported.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import posetlab

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 4
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    package_root = str(Path(posetlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONIOENCODING": "utf-8"},
        capture_output=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
