"""CSV field files and JSON artifacts.

Field CSVs carry a header row, then one node per line with the last key
column varying fastest: space-time fields t,x,value, y-profiles
y,value, and mode bundles an integer k column first.  Output lines end in
CRLF (as the csv module writes them) and floats print as "%.17g", 17
significant digits, so a written field re-reads bitwise identical.  Input
lines may end in LF or CRLF; quoted numeric cells ("1.5") and blank lines
are accepted.

One function pair knows the grid layout: _write_grid_csv and its inverse
_read_grid_csv, which reads a file against the node lists the config
defines (grid.t, grid.x, k = 1..K).  Rows may come in any order; an
off-grid coordinate and a missing or repeated node are rejected with a
DataError naming the file, and so is a non-finite cell in any input file.
The omega profile is the one input whose nodes come from the file:
read_profile_csv.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .grids import Grid, ScalarField
from .sinebasis import ModeFieldSet, SpectralParams


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


#: rows per write of _write_grid_csv.  A piece of text (at most ~100 bytes a
#: row) and its encoded copy stay below glibc's default 128 kB mmap and trim
#: thresholds, so the heap reuses one region for every piece.  A whole slice
#: at once (~240 kB of text for the README config's u_synth.csv, twice with
#: the encoded copy) crosses them: unless an earlier large free has raised the
#: thresholds, every time level is then mapped, or trimmed and faulted in,
#: afresh (about 14 000 extra page faults for that file).
_ROWS_PER_WRITE = 512


def _write_grid_csv(path, header: list[str], axes, values) -> None:
    """One row per node of the product of ``axes`` (last axis fastest):
    coordinates then value, all "%.17g" (so a mode index k prints as an
    integer).  Each leading-index slice is written in pieces of at most
    _ROWS_PER_WRITE rows, each one format string with the trailing
    coordinates as literal text; memory is bounded by one slice."""
    cols = [["%.17g" % c for c in np.asarray(axis, dtype=float).tolist()] for axis in axes]
    values = np.asarray(values, dtype=float)
    if values.shape != tuple(map(len, cols)):
        raise ValueError(f"{path}: values of shape {values.shape} do not match the axes")
    tails = ["".join("," + c for c in node) for node in itertools.product(*cols[1:])]
    pieces = [(i, "".join(["%s" + tail + ",%.17g\r\n" for tail in tails[i:i + _ROWS_PER_WRITE]]))
              for i in range(0, len(tails), _ROWS_PER_WRITE)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for head, block in zip(cols[0], values):
            row = block.ravel().tolist()
            for i, template in pieces:
                part = row[i:i + _ROWS_PER_WRITE]
                fields = [head] * (2 * len(part))
                fields[1::2] = part
                fh.write(template % tuple(fields))


def _read_rows(path, expected_header: list[str]) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header is None or [h.strip() for h in header] != expected_header:
        raise DataError(
            f"{path}: expected header {','.join(expected_header)}, got {header}")
    try:
        # a path, not a handle: loadtxt then reads in its own, faster chunks
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            rows = np.loadtxt(path, delimiter=",", quotechar='"', comments=None,
                              skiprows=1, ndmin=2, dtype=float, encoding="utf-8")
    except ValueError as err:
        raise DataError(f"{path}: malformed data row ({err})") from err
    if rows.size == 0:
        raise DataError(f"{path}: no data rows")
    if rows.shape[1] != len(expected_header):
        raise DataError(f"{path}: data rows have {rows.shape[1]} columns, "
                        f"the header {len(expected_header)}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: non-finite cell in data row "
                        + ",".join(f"{c:.15g}" for c in rows[bad[0]]))
    return rows


def _read_grid_csv(path, header: list[str], axes) -> np.ndarray:
    """The inverse of _write_grid_csv: the values on the product of ``axes``.
    Rows may come in any order, but each coordinate must lie within 1e-9 of
    a node of its uniform axis and each node must appear exactly once."""
    rows = _read_rows(path, header)
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    shape = tuple(map(len, axes))
    flat = np.zeros(len(rows), dtype=np.intp)
    for col, axis in enumerate(axes):
        coord = rows[:, col]
        step = axis[1] - axis[0] if len(axis) > 1 else 1.0  # one node: no step
        with np.errstate(over="ignore"):
            idx = np.rint((coord - axis[0]) / step)
        idx = np.where((idx >= 0) & (idx < len(axis)), idx, 0).astype(np.intp)
        off = np.flatnonzero(np.abs(coord - axis[idx]) > 1e-9)
        if off.size:
            raise DataError(
                f"{path}: {header[col]} = {coord[off[0]]:.15g} is not one of the "
                f"{len(axis)} configured nodes {axis[0]:.15g}..{axis[-1]:.15g}")
        flat = flat * len(axis) + idx
    counts = np.bincount(flat, minlength=math.prod(shape))
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        node = ", ".join(f"{name} = {axis[i]:.15g}" for name, axis, i
                         in zip(header, axes, np.unravel_index(bad[0], shape)))
        raise DataError(f"{path}: node {node} appears {counts[bad[0]]} times; "
                        "every node of the configured grid must appear once")
    values = np.empty(len(rows))
    values[flat] = rows[:, -1]
    return values.reshape(shape)


def write_field_csv(path, field: ScalarField) -> None:
    grid = field.grid
    _write_grid_csv(path, ["t", "x", "value"], [grid.t, grid.x], field.values)


def read_field_csv(path, grid: Grid) -> ScalarField:
    return ScalarField(grid, _read_grid_csv(path, ["t", "x", "value"], [grid.t, grid.x]))


def write_profile_csv(path, y: np.ndarray, values: np.ndarray) -> None:
    _write_grid_csv(path, ["y", "value"], [y], values)


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_rows(path, ["y", "value"])
    y = rows[:, 0]
    if np.any(y[1:] <= y[:-1]):
        raise DataError(f"{path}: y nodes must be strictly increasing")
    return y, rows[:, 1]


def write_modes_csv(path, modes: ModeFieldSet) -> None:
    """Every mode k = 1..K, zero rows included."""
    grid = modes.grid
    _write_grid_csv(path, ["k", "t", "x", "value"],
                    [range(1, modes.K + 1), grid.t, grid.x], modes.full().values)


def read_modes_csv(path, grid: Grid, params: SpectralParams) -> ModeFieldSet:
    return ModeFieldSet(grid, params, _read_grid_csv(
        path, ["k", "t", "x", "value"], [range(1, params.K + 1), grid.t, grid.x]))


def write_mode_profiles_csv(path, phi_modes: np.ndarray, x: np.ndarray) -> None:
    phi_modes = np.asarray(phi_modes)
    _write_grid_csv(path, ["k", "x", "value"], [range(1, phi_modes.shape[0] + 1), x],
                    phi_modes)


def read_mode_profiles_csv(path, grid: Grid, params: SpectralParams) -> np.ndarray:
    return _read_grid_csv(path, ["k", "x", "value"], [range(1, params.K + 1), grid.x])


def write_synth_csv(path, u_synth: np.ndarray, grid: Grid, y: np.ndarray) -> None:
    _write_grid_csv(path, ["t", "x", "y", "value"], [grid.t, grid.x, y], u_synth)


def write_history_csv(path, F_diff_history, ratio_history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "F_diff", "q_hat"])
        for i, f in enumerate(F_diff_history, start=1):
            q = ratio_history[i - 2] if i >= 2 and i - 2 < len(ratio_history) else float("nan")
            writer.writerow([i, _fmt(f), _fmt(q)])


def write_table_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) if isinstance(c, float) else c for c in row])


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
