"""Byte-for-byte CLI output gate: the stdout of these commands must not
change when the engine underneath is rewritten."""

from __future__ import annotations

import hashlib

import pytest

from virtbetti.cli import main

GOLDEN = {
    ("fixtures", "--json"): "2c6e4f78b65f55bbf9903292c83febd2",
    ("mvss", "surface-443"): "f980687f5518e2eb09724d0322fe769d",
    ("weights", "surface-443"): "29733280a18999d177390c4d9bb3ae46",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_stdout_md5(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
