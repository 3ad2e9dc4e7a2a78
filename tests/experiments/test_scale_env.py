"""``REPRO_SCALE`` is read when the experiment drivers are imported.

A garbage value must never crash that import, nor a command that
simulates.  ``import repro`` itself no longer reads it: the package
imports its exports lazily.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.common import env_scale


@pytest.mark.parametrize("raw", ["abc", "-1", "0", "inf", "nan"])
def test_invalid_scale_warns_and_defaults(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SCALE", raw)
    with pytest.warns(RuntimeWarning, match="REPRO_SCALE"):
        assert env_scale() == 1.0


@pytest.mark.parametrize("raw, expected", [("", 1.0), ("0.25", 0.25), (" 2 ", 2.0)])
def test_valid_scale_is_used(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_SCALE", raw)
    assert env_scale() == expected


def test_cli_survives_garbage_scale(tmp_path):
    src = str(Path(repro.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, REPRO_SCALE="abc", PYTHONPATH=pythonpath)
    # a one-instance campaign: the cheapest command that imports the
    # experiment drivers, and so reads REPRO_SCALE
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "--kind", "controlled",
         "--instances", "1", "--out", str(tmp_path / "one.pkl")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "REPRO_SCALE" in proc.stderr
    assert "Traceback" not in proc.stderr
