"""Every demo runs to its end in process, with warnings as errors.

The demos use the public API only, so a removed or renamed public name fails
here as it would for a reader running `python3 -W error demos/0N_*.py`.
"""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
