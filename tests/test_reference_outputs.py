"""The committed reference outputs reproduce byte for byte.

Runs `reference/compare.py`'s `generate`, the same ten in-process CLI calls
that the script compares, into a temporary directory.  The fig2 sweep takes
most of the time.
"""

import importlib.util
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parents[1] / "reference"


def _load_compare():
    spec = importlib.util.spec_from_file_location("reference_compare", REFERENCE / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMPARE = _load_compare()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    COMPARE.generate(out)
    return out


@pytest.mark.parametrize("name", list(COMPARE.CASES))
def test_output_matches_reference(generated, name):
    assert (generated / name).read_bytes() == (REFERENCE / name).read_bytes(), (
        f"{name}: differs; `python3 reference/compare.py` names the fields that moved")
