"""The output comparison of tools/same_outputs.py: one source tree run
twice gives the same bytes, and a change of the float renderer shows.
"""

import importlib.util
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", _ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _subset():
    cases = same_outputs.cases()
    return {name: cases[name] for name in ("lattice-open", "stable")}


def test_one_source_tree_gives_identical_outputs(tmp_path):
    src = _ROOT / "src"
    assert same_outputs.same_outputs(src, src, tmp_path, _subset()) == []
    # the compared trees hold each case's files, not only the records
    assert (tmp_path / "change" / "stable" / "trajectory.csv").is_file()


def test_another_float_format_is_reported(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(_ROOT / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    io_py = copy / "pcdnse" / "io.py"
    text = io_py.read_text()
    assert 'FLOAT_FORMAT = "%.17g"' in text
    io_py.write_text(text.replace('FLOAT_FORMAT = "%.17g"',
                                  'FLOAT_FORMAT = "%.16g"'))
    diff = same_outputs.same_outputs(_ROOT / "src", copy, tmp_path / "runs",
                                     _subset())
    assert "stable/trajectory.csv" in diff
    assert "lattice-open/diagnostics.csv" in diff
    assert "commands.json" not in diff
