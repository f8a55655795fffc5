"""Snapshot, diagnostics, and manifest serialization.

All numeric text output is written with 17 significant digits via the
locale-independent ``%.17g`` format, which round-trips IEEE doubles
exactly.  Identical runs therefore produce byte-identical files.

Values are rendered and parsed in bulk rather than one call per float.  A
CSV body is a single ``%`` operation over ``tolist()`` values, and a grid's
x column, which depends only on the grid, is rendered once per grid.  A
snapshot's JSON float lists hold the same ``%.17g`` strings as its CSV, so
``FLOAT_FORMAT`` is the one float renderer for table values.  A snapshot's
psi is rendered once for both its files: the last rendering is kept, keyed
on every byte of psi (``psi.tobytes()``), so whichever writer runs second
reuses it and a psi changed in place in between is rendered anew.  A
snapshot's metadata are its grid and, optionally, its time ``t``.  The CSV
reader parses all data rows in one ``np.loadtxt`` call.  Both readers raise
``ValueError`` for a malformed file, for a psi value that is not finite and
for an x value off the grid that the file's metadata define.
:func:`write_json` writes plain JSON values only, and no NaN or Infinity.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .model_continuum import FieldState
from .params import PERIODIC

__all__ = [
    "FLOAT_FORMAT",
    "format_float",
    "write_field_csv",
    "read_field_csv",
    "write_field_json",
    "read_field_json",
    "write_table_csv",
    "write_json",
    "sha256_file",
    "write_manifest",
]

FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def _csv_rows(columns: Sequence[np.ndarray | tuple[str, ...]]) -> str:
    """One CSV row per index of the equally long columns.

    An array column is rendered with ``FLOAT_FORMAT``; a tuple column holds
    cells that are rendered already.
    """
    width = len(columns)
    length = len(columns[0])
    cells: list = [None] * (width * length)
    specs = []
    for j, column in enumerate(columns):
        if isinstance(column, tuple):
            specs.append("%s")
            cells[j::width] = column
        else:
            specs.append(FLOAT_FORMAT)
            cells[j::width] = column.tolist()
    return ((",".join(specs) + "\n") * length) % tuple(cells)


@functools.lru_cache(maxsize=1)
def _psi_text(psi_bytes: bytes) -> tuple[str, str]:
    """psi.real and psi.imag of the complex array ``psi_bytes`` holds, each
    as its ``FLOAT_FORMAT`` strings joined with ``","``.

    The key is psi's bytes, not the array, so a psi changed in place misses.
    """
    psi = np.frombuffer(psi_bytes, dtype=complex)
    spec = ",".join([FLOAT_FORMAT] * len(psi))
    return spec % tuple(psi.real.tolist()), spec % tuple(psi.imag.tolist())


def _json_list(values: np.ndarray, text: str) -> str:
    """``values`` as a JSON list of their strings ``text``, or as
    ``json.dumps`` renders them when they hold ``NaN`` or ``Infinity``."""
    if not np.isfinite(values).all():
        return json.dumps(values.tolist())
    return f"[{text}]"


@functools.lru_cache(maxsize=4)
def _x_column(domain_length: float, n_points: int,
              boundary: str) -> tuple[str, ...]:
    """A grid's x column rendered as CSV cells.

    x depends on nothing but the grid, so each grid is rendered once.
    """
    x = FieldState(np.zeros(n_points), domain_length, boundary).x
    return tuple(map(format_float, x.tolist()))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with every bit kept (``re + 1j * im`` turns -0.0 into 0.0)."""
    psi = np.empty(re.shape, dtype=complex)
    psi.real = re
    psi.imag = im
    return psi


def _check_grid(x: np.ndarray, field: FieldState,
                where: Callable[[int], str]) -> None:
    """Raise ``ValueError`` at the first x that is not finite or lies more
    than 1e-9 dx from ``field.x``, the grid the file's metadata define;
    ``where(i)`` names the place of value i in the file.

    The writers render ``field.x`` exactly, so their files always pass.
    """
    off = ~(np.abs(x - field.x) <= 1e-9 * field.dx)     # NaN counts as off
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"{where(i)}: x = {x[i]:.17g} is not the grid "
                         f"point {field.x[i]:.17g}")


def write_field_csv(path: str | Path, field: FieldState,
                    t: float | None = None) -> Path:
    """Write a field snapshot as CSV with grid metadata, and the snapshot
    time ``t`` if given, in header comments."""
    path = Path(path)
    x = _x_column(field.domain_length, field.n_points, field.boundary)
    re, im = _psi_text(field.psi.tobytes())
    with path.open("w", newline="\n") as fh:
        fh.write(f"# domain_length={format_float(field.domain_length)}\n")
        fh.write(f"# boundary={field.boundary}\n")
        if t is not None:
            fh.write(f"# t={format_float(t)}\n")
        fh.write("x,re_psi,im_psi\n")
        fh.write(_csv_rows([x, tuple(re.split(",")),
                            tuple(im.split(","))]))
    return path


def _parse_rows(rows: list[str], line_numbers: list[int]) -> np.ndarray:
    """The data rows as an (n, 3) array, parsed by ``np.loadtxt``.

    A row without 3 fields, or with one ``np.loadtxt`` does not read as a
    number, raises ``ValueError`` naming its line.  The rows are parsed
    one by one only then, since numpy's message counts data rows alone.
    """
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == 3:
            return data
    except ValueError:
        pass
    for row, number in zip(rows, line_numbers):
        cells = row.split(",")
        if len(cells) != 3:
            raise ValueError(f"line {number}: {len(cells)} fields, expected "
                             "3 (x, re_psi, im_psi)")
        for column, cell in enumerate(cells):
            try:
                np.loadtxt([row], delimiter=",", comments=None,
                           usecols=column)
            except ValueError:
                raise ValueError(f"line {number}: {cell.strip()!r} is not "
                                 "a number") from None
    raise ValueError("np.loadtxt rejects the data rows")


def read_field_csv(path: str | Path) -> FieldState:
    """Read a snapshot written by :func:`write_field_csv`.

    One header row (a line that starts with a letter or a quote) may come
    before the data; any other line that is not a ``#`` comment is a data
    row.  A malformed data row, one whose psi is NaN or infinite, or one
    whose x is off the grid the metadata define, raises ``ValueError``
    naming its line in the file.
    """
    path = Path(path)
    meta: dict[str, str] = {}
    rows: list[str] = []
    line_numbers: list[int] = []
    header_seen = False
    with path.open() as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key.strip()] = value.strip()
            elif (not header_seen and not rows
                  and (line[0].isalpha() or line.startswith('"'))):
                header_seen = True
            else:
                rows.append(line)
                line_numbers.append(number)
    if "domain_length" not in meta:
        raise ValueError("missing '# domain_length=...' metadata")
    data = _parse_rows(rows, line_numbers) if rows else np.empty((0, 3))
    finite = np.isfinite(data[:, 1:]).all(axis=1)
    if not finite.all():
        number = line_numbers[int(np.argmin(finite))]
        raise ValueError(f"line {number}: psi is not finite")
    field = FieldState(_complex(data[:, 1], data[:, 2]),
                       float(meta["domain_length"]),
                       meta.get("boundary", PERIODIC))
    _check_grid(data[:, 0], field, lambda i: f"line {line_numbers[i]}")
    return field


def write_field_json(path: str | Path, field: FieldState,
                     t: float | None = None) -> Path:
    """Write a field snapshot as one JSON object whose float lists hold the
    strings :func:`write_field_csv` writes; its ``meta`` object holds the
    snapshot time ``t`` as that string, if given."""
    path = Path(path)
    x = _x_column(field.domain_length, field.n_points, field.boundary)
    meta = {} if t is None else {"t": format_float(t)}
    head = json.dumps({"domain_length": field.domain_length,
                       "boundary": field.boundary, "meta": meta})
    re, im = _psi_text(field.psi.tobytes())
    path.write_text(f'{head[:-1]}, "x": [{",".join(x)}], '
                    f'"re_psi": {_json_list(field.psi.real, re)}, '
                    f'"im_psi": {_json_list(field.psi.imag, im)}}}\n')
    return path


def read_field_json(path: str | Path) -> FieldState:
    """Read a snapshot written by :func:`write_field_json`.

    A missing key, a psi value that is not finite, or an x value off the
    grid the metadata define raises ``ValueError``.
    """
    with Path(path).open() as fh:
        # %.17g writes -0.0 as -0, which int() would read as 0
        payload = json.load(fh, parse_int=float)
    try:
        x = np.asarray(payload["x"])
        re = np.asarray(payload["re_psi"])
        im = np.asarray(payload["im_psi"])
        domain_length = float(payload["domain_length"])
        boundary = payload.get("boundary", PERIODIC)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"not a field snapshot: {exc}") from exc
    if any(a.dtype.kind not in "iuf" for a in (x, re, im)):
        raise ValueError("x, re_psi and im_psi must hold numbers only")
    if not x.shape == re.shape == im.shape:
        raise ValueError("x, re_psi and im_psi differ in shape")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("re_psi and im_psi must be finite")
    field = FieldState(_complex(re, im), domain_length, boundary)
    _check_grid(x, field, lambda i: f"point {i}")
    return field


def write_table_csv(path: str | Path, columns: Mapping[str, np.ndarray]) -> Path:
    """Write named columns of equal length as CSV."""
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValueError("all columns must have equal length")
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(_csv_rows(arrays))
    return path


def write_json(path: str | Path, payload) -> Path:
    """Write JSON deterministically (sorted keys, fixed separators).

    ``payload`` holds plain JSON values only: any other object, a numpy
    integer or array among them, raises ``TypeError``, and a float that is
    not finite, which has no JSON form, ``ValueError``.  Either way nothing
    is written.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(directory: str | Path, files: Iterable[Path],
                   extra: Mapping | None = None) -> Path:
    """Write manifest.json listing every output file with its checksum."""
    directory = Path(directory)
    entries = []
    for f in sorted(Path(f) for f in files):
        entries.append({
            "path": str(f.relative_to(directory)),
            "sha256": sha256_file(f),
            "bytes": f.stat().st_size,
        })
    payload = {"files": entries}
    if extra:
        payload.update(extra)
    return write_json(directory / "manifest.json", payload)
