"""The demos' stdout, byte for byte: each demo runs as users run it, in a
fresh interpreter, and its output must not change."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import virtbetti

DEMOS = Path(__file__).resolve().parents[1] / "demos"

GOLDEN = {
    "01_homology_basics": "5c6dfba4b4958a149b697f9841863153",
    "02_virtual_poincare": "fc31177fc9cfe93a12096bb900c4e4ab",
    "03_surface_spectral_sequence": "a565b31b9713a0c5f88a6386459808be",
    "04_weight_systems": "1c59358b552f1d2aa8de2e691ba3eb29",
}


def test_every_demo_has_a_golden_md5():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_stdout_md5(demo):
    # the package this process imported, under the same hash seed and warning filters
    package_root = os.path.dirname(os.path.dirname(virtbetti.__file__))
    proc = subprocess.run(
        [sys.executable, *(f"-W{w}" for w in sys.warnoptions), str(DEMOS / f"{demo}.py")],
        capture_output=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.md5(proc.stdout).hexdigest() == GOLDEN[demo]
