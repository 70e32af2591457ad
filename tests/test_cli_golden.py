"""Byte-for-byte output gate: the stdout of these commands, and the bytes
of the built-in scene as dumped to a file, must not change when the engine
underneath is rewritten."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import virtbetti
from virtbetti.cli import main
from virtbetti.cover import Arrangement
from virtbetti.fixtures import builtin_scene
from virtbetti.scene import dump_scene

GOLDEN = {
    ("fixtures", "--json"): "2c6e4f78b65f55bbf9903292c83febd2",
    ("fixtures", "--json", "--quiet"): "58e0494c51d30eb3494f7c9198986bb9",
    ("mvss", "surface-443"): "f980687f5518e2eb09724d0322fe769d",
    ("mvss", "surface-443", "--json"): "5108b223a5f48db97537227d6c3b54bb",
    ("mvss", "tangent-circles"): "f2d681d7ddb9e2fe4f02ebc59a11335f",
    ("mvss", "two-circles", "--json"): "ac8b1300deb2e9edee4fb184e41efadc",
    ("mvss", "circle-alone", "--json"): "4f8e227a3e59b08ace561917a801a540",
    ("weights", "surface-443"): "29733280a18999d177390c4d9bb3ae46",
    ("vbetti", "circle-alone", "--json"): "a596216970ab4454d94d632ed3bf314d",
    ("vbetti", "surface-443", "--json"): "c4c92c7b79338ec31706badcc77f96eb",
    ("vbetti", "tangent-circles", "--json"): "5e770ae3ff866d6e0960b002e74bb0a1",
    ("vbetti", "two-circles", "--json"): "b342357b693f8b8ced11eccd4db40b56",
    # chi_c from the atoms (-1), and from a stratification as beta(-1) (8)
    ("vbetti", "circle-minus-point", "--json", "--chi-c"): "0e43637e67adfee468195b2ce5ed9437",
    ("vbetti", "surface-443", "--json", "--chi-c"): "d259e180c8af26dee95e59aaad9c7bc2",
    ("betti", "projective-plane", "--json"): "90959bd8c882d8097b7f69cdee69d48d",
    ("betti", "surface-443", "--json"): "be7e549d23d4a56ebb0b8551980d7105",
    ("betti", "torus", "--json"): "d2480f5469189631da09c70e78a8e7ef",
}

SCENE_DUMP_MD5 = "56c902c38c6ea14b70971354979064ae"


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_stdout_md5(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(a for a in GOLDEN if a[0] == "mvss"), ids=" ".join)
def test_mvss_reads_beta_off_its_e1_page(capsys, monkeypatch, argv):
    # mvss takes the virtual Betti numbers from the E_1 row sums it has
    # already computed, never from a second inclusion-exclusion
    def refuse(self):
        raise AssertionError("mvss called Arrangement.virtual_betti")

    monkeypatch.setattr(Arrangement, "virtual_betti", refuse)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == GOLDEN[argv]


def test_builtin_scene_dump_md5(tmp_path):
    path = tmp_path / "scene.json"
    dump_scene(builtin_scene(), str(path))
    assert hashlib.md5(path.read_bytes()).hexdigest() == SCENE_DUMP_MD5


def test_fixtures_md5_through_the_module_entry_point():
    # what users and the benchmark run: a fresh ``python -m virtbetti.cli``
    # that imports the package this process imported, under the same hash
    # seed and warning filters
    package_root = os.path.dirname(os.path.dirname(virtbetti.__file__))
    argv = ("fixtures", "--json")
    proc = subprocess.run(
        [sys.executable, *(f"-W{w}" for w in sys.warnoptions), "-m", "virtbetti.cli", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.md5(proc.stdout).hexdigest() == GOLDEN[argv]
