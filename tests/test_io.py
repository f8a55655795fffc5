"""Serialization: exact round trips, deterministic output, manifests."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_complex
from pcdnse.io import (
    format_float,
    read_field_csv,
    read_field_json,
    sha256_file,
    write_field_csv,
    write_field_json,
    write_json,
    write_manifest,
    write_table_csv,
)
from pcdnse.model_continuum import FieldState
from pcdnse.params import OPEN, PERIODIC


def test_format_float_roundtrips_doubles():
    for value in [0.1, 1.0 / 3.0, math.pi, 1e-300, -2.5e17, 0.0]:
        assert float(format_float(value)) == value


def test_field_csv_roundtrip_is_exact(tmp_path, rng):
    psi = random_complex(rng, 64)
    field = FieldState(psi, 32.0)
    path = write_field_csv(tmp_path / "field.csv", field, t=1.5)
    back = read_field_csv(path)
    assert np.array_equal(back.psi, field.psi)
    assert back.domain_length == 32.0
    assert back.boundary == PERIODIC


def test_field_csv_roundtrip_open_boundary(tmp_path, rng):
    field = FieldState(random_complex(rng, 33), 32.0, OPEN)
    back = read_field_csv(write_field_csv(tmp_path / "field.csv", field))
    assert back.boundary == OPEN
    assert back.dx == field.dx
    assert np.array_equal(back.psi, field.psi)


def _on_line_11(edit):
    """The edit of a file's lines that applies ``edit`` to line 11."""
    return lambda lines: [edit(line) if number == 11 else line
                          for number, line in enumerate(lines, start=1)]


@pytest.mark.parametrize("edit, message", [
    (_on_line_11(lambda row: row.rsplit(",", 1)[0]),
     "line 11: 2 fields, expected 3"),
    (_on_line_11(lambda row: row + ",0"), "line 11: 4 fields, expected 3"),
    (_on_line_11(lambda row: row.split(",")[0] + ",abc,0"),
     "line 11: 'abc' is not a"),
    # Python's float() reads these; np.loadtxt does not
    (_on_line_11(lambda row: row.split(",")[0] + ",1_0,0"),
     "line 11: '1_0' is not a"),
    (_on_line_11(lambda row: row.split(",")[0] + ",\uff11,0"),
     "line 11: '\uff11' is not a"),
    # every row short: the first data row, after 3 comments and the header
    (lambda lines: lines[:4] + [row.rsplit(",", 1)[0] for row in lines[4:]],
     "line 5: 2 fields, expected 3"),
])
def test_malformed_csv_row_is_named_by_its_line(tmp_path, edit, message):
    path = write_field_csv(tmp_path / "field.csv",
                           FieldState(np.ones(16, dtype=complex), 16.0),
                           t=0.0)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as info:
        read_field_csv(path)
    assert str(info.value).startswith(message)
    assert "usecols" not in str(info.value)


@pytest.mark.parametrize("edit", [
    lambda x, re, im: f"{x},nan,{im}",
    lambda x, re, im: f"{x},{re},inf",
    lambda x, re, im: f"{x},-Infinity,{im}",
])
def test_csv_row_with_a_non_finite_psi_is_named_by_its_line(tmp_path, edit):
    path = write_field_csv(tmp_path / "field.csv",
                           FieldState(np.ones(16, dtype=complex), 16.0),
                           t=0.0)
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = edit(*lines[10].rstrip("\n").split(",")) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="^line 11: psi is not finite"):
        read_field_csv(path)


@pytest.mark.parametrize("key, value", [
    ("re_psi", math.nan), ("im_psi", math.inf), ("re_psi", -math.inf),
])
def test_json_snapshot_with_a_non_finite_psi_is_rejected(tmp_path, key,
                                                         value):
    path = write_field_json(tmp_path / "field.json",
                            FieldState(np.ones(16, dtype=complex), 16.0))
    payload = json.loads(path.read_text())
    payload[key][3] = value
    path.write_text(json.dumps(payload))    # NaN, Infinity, -Infinity
    with pytest.raises(ValueError, match="must be finite"):
        read_field_json(path)


def _relabel_x(text, x_of):
    """The CSV text with every data row's x replaced by ``x_of(x)``."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line[0].isdigit():
            x, rest = line.split(",", 1)
            lines[i] = f"{x_of(float(x))!r},{rest}"
    return "".join(lines)


@pytest.mark.parametrize("x_of, boundary, line", [
    (lambda x: math.nan, PERIODIC, 4),
    (lambda x: 1e9, PERIODIC, 4),
    (lambda x: x + 1.0, PERIODIC, 4),           # shifted by one dx
    (lambda x: x, OPEN, 5),                     # a periodic grid, open label
], ids=["nan", "far", "shifted", "relabelled_open"])
def test_csv_x_off_the_metadata_grid_is_named_by_its_line(tmp_path, x_of,
                                                          boundary, line):
    path = write_field_csv(tmp_path / "field.csv",
                           FieldState(np.ones(16, dtype=complex), 16.0))
    path.write_text(_relabel_x(path.read_text().replace(
        "# boundary=periodic", f"# boundary={boundary}"), x_of))
    with pytest.raises(ValueError,
                       match=f"^line {line}: x = .* is not the grid point"):
        read_field_csv(path)


@pytest.mark.parametrize("x", [
    [None] * 16, [math.nan] * 16, [float(i + 1) for i in range(16)],
], ids=["null", "nan", "shifted"])
def test_json_x_off_the_metadata_grid_is_rejected(tmp_path, x):
    path = write_field_json(tmp_path / "field.json",
                            FieldState(np.ones(16, dtype=complex), 16.0))
    payload = json.loads(path.read_text())
    payload["x"] = x
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="x, re_psi and im_psi must hold "
                       "numbers only|^point 0: x = .* is not the grid point"):
        read_field_json(path)


@pytest.mark.parametrize("line, text", [
    (11, "nan_is_not_x,0.1,0.2"),      # a header row after the data
    (5, "x,re_psi,im_psi"),            # a second header row
])
def test_csv_header_row_only_before_the_data(tmp_path, line, text):
    path = write_field_csv(tmp_path / "field.csv",
                           FieldState(np.ones(16, dtype=complex), 16.0),
                           t=0.0)
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = text + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^line {line}: "):
        read_field_csv(path)


def test_field_csv_requires_domain_length(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,re_psi,im_psi\n0,1,0\n1,0,1\n")
    with pytest.raises(ValueError, match="domain_length"):
        read_field_csv(bad)


def test_field_json_roundtrip_is_exact(tmp_path, rng):
    field = FieldState(random_complex(rng, 48), 24.0)
    path = write_field_json(tmp_path / "field.json", field, t=1.5)
    back = read_field_json(path)
    assert np.array_equal(back.psi, field.psi)
    payload = json.loads(path.read_text())
    assert payload["meta"] == {"t": "1.5"}


def test_table_csv_layout_and_validation(tmp_path):
    path = write_table_csv(tmp_path / "t.csv",
                           {"t": np.array([0.0, 0.5]),
                            "n": np.array([4.0, 4.0])})
    lines = path.read_text().splitlines()
    assert lines[0] == "t,n"
    assert lines[1] == "0,4"
    assert len(lines) == 3
    with pytest.raises(ValueError, match="equal length"):
        write_table_csv(tmp_path / "u.csv",
                        {"a": np.zeros(3), "b": np.zeros(2)})


def test_write_json_refuses_what_json_cannot_hold(tmp_path):
    # plain JSON values only: a numpy integer is not one
    with pytest.raises(TypeError, match="int64"):
        write_json(tmp_path / "count.json", {"count": np.int64(3)})
    assert not (tmp_path / "count.json").exists()
    # NaN has no JSON form: refused before anything is written
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"drift": float("nan")})
    assert not (tmp_path / "nan.json").exists()


def test_write_json_is_deterministic(tmp_path):
    a = write_json(tmp_path / "a.json", {"b": 1, "a": 2})
    b = write_json(tmp_path / "b.json", {"a": 2, "b": 1})
    assert a.read_text() == b.read_text()


def test_sha256_matches_known_digest(tmp_path):
    f = tmp_path / "blob"
    f.write_bytes(b"abc")
    assert sha256_file(f) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_manifest_lists_files_with_checksums(tmp_path):
    f1 = tmp_path / "b.txt"
    f2 = tmp_path / "a.txt"
    f1.write_text("one")
    f2.write_text("two")
    path = write_manifest(tmp_path, [f1, f2], extra={"figure": "demo"})
    payload = json.loads(path.read_text())
    assert payload["figure"] == "demo"
    names = [e["path"] for e in payload["files"]]
    assert names == ["a.txt", "b.txt"]      # sorted, relative paths
    for entry in payload["files"]:
        assert entry["sha256"] == sha256_file(tmp_path / entry["path"])
        assert entry["bytes"] == len((tmp_path / entry["path"]).read_bytes())


# Reference renderers: one format_float per value.  The bulk writers must
# reproduce their bytes exactly.

def reference_field_csv(field, t=None) -> bytes:
    lines = [f"# domain_length={format_float(field.domain_length)}",
             f"# boundary={field.boundary}"]
    lines += [] if t is None else [f"# t={format_float(t)}"]
    lines.append("x,re_psi,im_psi")
    lines += [f"{format_float(xi)},{format_float(pi.real)},"
              f"{format_float(pi.imag)}" for xi, pi in zip(field.x, field.psi)]
    return ("\n".join(lines) + "\n").encode()


def reference_field_json(field, t=None) -> bytes:
    """For a finite psi only: ``json.dumps`` writes NaN and Infinity."""
    meta = {} if t is None else {"t": format_float(t)}
    head = json.dumps({"domain_length": field.domain_length,
                       "boundary": field.boundary, "meta": meta})
    lists = [f'"{key}": [{",".join(map(format_float, values))}]'
             for key, values in (("x", field.x), ("re_psi", field.psi.real),
                                 ("im_psi", field.psi.imag))]
    return f"{head[:-1]}, {', '.join(lists)}}}\n".encode()


def reference_table_csv(columns) -> bytes:
    arrays_ = [np.asarray(c) for c in columns.values()]
    lines = [",".join(columns)]
    lines += [",".join(format_float(a[i]) for a in arrays_)
              for i in range(len(arrays_[0]))]
    return ("\n".join(lines) + "\n").encode()


SPECIAL = np.array([-0.0, 5e-324, 1e300, 2.0, np.nan, np.inf, -np.inf,
                    -1e-310, 0.1, 1.0 / 3.0])


def _special_psi(n: int) -> np.ndarray:
    psi = np.empty(n, dtype=complex)
    psi.real = np.resize(SPECIAL, n)
    psi.imag = np.resize(SPECIAL[::-1], n)
    return psi


@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
@pytest.mark.parametrize("n", [16, 17, 4000])
@pytest.mark.parametrize("special", [False, True])
# the writers' keyword arguments
@pytest.mark.parametrize("meta", [None, {"t": 0.1}])
def test_field_writers_match_the_per_value_renderers(tmp_path, rng, boundary,
                                                     n, special, meta):
    psi = _special_psi(n) if special else random_complex(rng, n)
    field = FieldState(psi, 40.0 + n / 3.0, boundary)
    meta = meta or {}
    csv = write_field_csv(tmp_path / "f.csv", field, **meta)
    assert csv.read_bytes() == reference_field_csv(field, **meta)
    text = write_field_json(tmp_path / "f.json", field, **meta).read_text()
    payload = json.loads(text, parse_int=float)
    assert payload["domain_length"] == field.domain_length
    assert payload["boundary"] == boundary
    assert payload["meta"] == {key: format_float(value)
                               for key, value in meta.items()}
    # each list item as written, beside the CSV's cells of its column
    items = json.loads(text, parse_float=str, parse_int=str,
                       parse_constant=str)
    rows = csv.read_text().splitlines()[-n:]
    for j, (key, values) in enumerate((("x", field.x),
                                       ("re_psi", field.psi.real),
                                       ("im_psi", field.psi.imag))):
        assert np.asarray(payload[key]).view(np.uint64).tolist() == \
            values.view(np.uint64).tolist()
        if np.isfinite(values).all():
            assert items[key] == [row.split(",")[j] for row in rows]
    if not special:
        assert text.encode() == reference_field_json(field, **meta)


@pytest.mark.parametrize("n", [0, 1, 2, 4000])
def test_table_csv_matches_the_per_value_renderer(tmp_path, rng, n):
    columns = {
        "t": np.linspace(0.0, 1.0, n),
        "value": np.resize(SPECIAL, n),
        "count": np.arange(n),
        "flag": np.arange(n) % 2 == 0,
        "single": rng.standard_normal(n).astype(np.float32),
    }
    path = write_table_csv(tmp_path / "t.csv", columns)
    assert path.read_bytes() == reference_table_csv(columns)


finite = st.floats(allow_nan=False, allow_infinity=False)
complex_fields = arrays(np.complex128, st.integers(16, 40),
                        elements=st.builds(complex, finite, finite))


@settings(max_examples=60, deadline=None)
@example(psi=np.resize([complex(-0.0, 1e300), complex(5e-324, -1e-310),
                        complex(-1e-310, 5e-324), complex(1e300, -0.0)], 16),
         boundary=PERIODIC)
@given(psi=complex_fields, boundary=st.sampled_from([PERIODIC, OPEN]))
def test_snapshot_round_trips_keep_every_bit(psi, boundary):
    field = FieldState(psi, 10.0, boundary)
    with tempfile.TemporaryDirectory() as tmp:
        for write, read in ((write_field_csv, read_field_csv),
                            (write_field_json, read_field_json)):
            back = read(write(Path(tmp) / "snap", field))
            assert back.psi.view(np.uint64).tolist() == \
                psi.view(np.uint64).tolist()
            assert back.boundary == boundary


@settings(max_examples=40, deadline=None)
@example(a=np.ones(16, dtype=complex), b=np.ones(17, dtype=complex),
         order=("csv A", "json B", "json A", "csv B"))
@example(a=np.ones(16, dtype=complex), b=np.ones(16, dtype=complex),
         order=("csv A", "json A", "csv B", "json B"))
@given(a=complex_fields, b=complex_fields,
       order=st.permutations(("csv A", "json A", "csv B", "json B")))
def test_interleaved_writes_of_two_fields_match_the_references(a, b, order):
    """Both writers share one rendering of psi; A's psi changes in place
    after A's first file is written, so its second file must follow."""
    fields = {"A": FieldState(a.copy(), 10.0), "B": FieldState(b, 12.0)}
    writers = {"csv": (write_field_csv, reference_field_csv),
               "json": (write_field_json, reference_field_json)}
    mutated = False
    with tempfile.TemporaryDirectory() as tmp:
        for step in order:
            kind, name = step.split()
            write, reference = writers[kind]
            field = fields[name]
            path = write(Path(tmp) / f"{name}.{kind}", field, 1.0)
            assert path.read_bytes() == reference(field, 1.0), step
            if name == "A" and not mutated:
                field.psi[::3] = -field.psi[::3]    # flips sign bits
                mutated = True
