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

Both directions stream.  Every input is parsed by _row_blocks, _ROWS_PER_READ
rows at a time, and the writer takes one leading-index slice at a time from
any iterable: write_modes_csv passes the stack's rows with one shared zero
slice for each mode it does not hold, and write_synth_csv synthesises
u(t, x, y) one time level at a time.  So a big file costs the arrays it
fills or is written from plus one block or slice, never a copy of the file.
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


#: data rows per np.loadtxt call of _row_blocks, the input-side counterpart of
#: _ROWS_PER_WRITE: a block of a four-column file is 2 MB, so reading holds the
#: destination array plus one block, never a whole file's rows.
_ROWS_PER_READ = 65536


def _write_grid_csv(path, header: list[str], axes, slices) -> None:
    """One row per node of the product of ``axes`` (last axis fastest):
    coordinates then value, all "%.17g" (so a mode index k prints as an
    integer).  ``slices`` is any iterable of the leading-index slices, one
    per node of axes[0], each shaped like the product of the other axes; an
    array of the whole product is one.  Each slice is written in pieces of
    at most _ROWS_PER_WRITE rows, each one format string with the trailing
    coordinates as literal text; memory is bounded by one slice."""
    cols = [["%.17g" % c for c in np.asarray(axis, dtype=float).tolist()] for axis in axes]
    shape = tuple(map(len, cols[1:]))
    tails = ["".join("," + c for c in node) for node in itertools.product(*cols[1:])]
    pieces = [(i, "".join(["%s" + tail + ",%.17g\r\n" for tail in tails[i:i + _ROWS_PER_WRITE]]))
              for i in range(0, len(tails), _ROWS_PER_WRITE)]
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in slices:
            block = np.asarray(block, dtype=float)
            if count == len(cols[0]) or block.shape != shape:
                raise ValueError(f"{path}: slice {count} of shape {block.shape} does not "
                                 f"match the {len(cols[0])} slices of shape {shape}")
            head = cols[0][count]
            count += 1
            row = block.ravel().tolist()
            for i, template in pieces:
                part = row[i:i + _ROWS_PER_WRITE]
                fields = [head] * (2 * len(part))
                fields[1::2] = part
                fh.write(template % tuple(fields))
    if count != len(cols[0]):
        raise ValueError(f"{path}: {count} slices for {len(cols[0])} nodes of {header[0]}")


def _row_blocks(path, expected_header: list[str]):
    """The data rows of an input file as float arrays of at most
    _ROWS_PER_READ rows each, in file order.  Checks the header, then each
    block's column count and cells; a file without data rows is an error."""
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None or [h.strip() for h in header] != expected_header:
            raise DataError(
                f"{path}: expected header {','.join(expected_header)}, got {header}")
        first = 1  # data row number of the block's first row
        while True:
            try:
                with warnings.catch_warnings():
                    # an empty last block, and blank lines (not counted as rows)
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    warnings.filterwarnings("ignore", "Input line .* contained no data",
                                            UserWarning)
                    rows = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                      ndmin=2, dtype=float, max_rows=_ROWS_PER_READ)
            except ValueError as err:
                raise DataError(f"{path}: malformed data row ({err}; numpy counts the rows "
                                f"of a block that starts at data row {first})") from err
            if not len(rows):
                if first == 1:
                    raise DataError(f"{path}: no data rows")
                return
            if rows.shape[1] != len(expected_header):
                raise DataError(f"{path}: data rows have {rows.shape[1]} columns, "
                                f"the header {len(expected_header)}")
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if bad.size:
                raise DataError(f"{path}: non-finite cell in data row "
                                + ",".join(f"{c:.15g}" for c in rows[bad[0]]))
            count = len(rows)
            yield rows
            del rows  # free this block before the next one is read
            if count < _ROWS_PER_READ:
                return
            first += count


def _read_grid_csv(path, header: list[str], axes) -> np.ndarray:
    """The inverse of _write_grid_csv: the values on the product of ``axes``.
    Rows may come in any order, but each coordinate must lie within 1e-9 of
    a node of its uniform axis and each node must appear exactly once.  The
    file is read a block at a time: memory is the values, a node count and
    one block with its node indices."""
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    shape = tuple(map(len, axes))
    values = np.empty(math.prod(shape))
    counts = np.zeros(len(values), dtype=np.intp)
    for rows in _row_blocks(path, header):
        flat = _block_nodes(path, header, axes, rows)
        values[flat] = rows[:, -1]
        # in file order a block covers a run of nodes: count over that window
        lo = flat.min()
        flat -= lo
        window = np.bincount(flat)
        counts[lo:lo + len(window)] += window
        del rows, flat, window  # free this block before the next one is read
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        node = ", ".join(f"{name} = {axis[i]:.15g}" for name, axis, i
                         in zip(header, axes, np.unravel_index(bad[0], shape)))
        raise DataError(f"{path}: node {node} appears {counts[bad[0]]} times; "
                        "every node of the configured grid must appear once")
    return values.reshape(shape)


def _block_nodes(path, header: list[str], axes, rows: np.ndarray) -> np.ndarray:
    """The flat node index on the product of ``axes`` of each row of a block:
    each coordinate rounded to its axis's nearest node, which must lie within
    1e-9.  Names the block's first off-grid coordinate of the first column
    that has one."""
    flat = np.zeros(len(rows), dtype=np.intp)
    node = np.empty(len(rows), dtype=np.intp)
    work = np.empty(len(rows))
    for col, axis in enumerate(axes):
        coord = rows[:, col]
        step = axis[1] - axis[0] if len(axis) > 1 else 1.0  # one node: no step
        with np.errstate(over="ignore"):
            np.subtract(coord, axis[0], out=work)
            work /= step
        np.rint(work, out=work)
        np.clip(work, 0, len(axis) - 1, out=work)  # a clipped node fails the check below
        np.copyto(node, work, casting="unsafe")
        np.take(axis, node, out=work)
        work -= coord
        off = np.flatnonzero(np.abs(work, out=work) > 1e-9)
        if off.size:
            raise DataError(
                f"{path}: {header[col]} = {coord[off[0]]:.15g} is not one of the "
                f"{len(axis)} configured nodes {axis[0]:.15g}..{axis[-1]:.15g}")
        flat *= len(axis)
        flat += node
    return flat


def write_field_csv(path, field: ScalarField) -> None:
    grid = field.grid
    _write_grid_csv(path, ["t", "x", "value"], [grid.t, grid.x], field.values)


def read_field_csv(path, grid: Grid) -> ScalarField:
    return ScalarField(grid, _read_grid_csv(path, ["t", "x", "value"], [grid.t, grid.x]))


def write_profile_csv(path, y: np.ndarray, values: np.ndarray) -> None:
    _write_grid_csv(path, ["y", "value"], [y], values)


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = np.concatenate(list(_row_blocks(path, ["y", "value"])))
    y = rows[:, 0]
    if np.any(y[1:] <= y[:-1]):
        raise DataError(f"{path}: y nodes must be strictly increasing")
    return y, rows[:, 1]


def write_modes_csv(path, modes: ModeFieldSet) -> None:
    """Every mode k = 1..K, zero rows included: each mode the stack does not
    hold is written from one shared zero slice."""
    grid = modes.grid
    held = dict(zip(modes.modes.tolist(), modes.values))
    zero = np.zeros(grid.field_shape)
    _write_grid_csv(path, ["k", "t", "x", "value"], [range(1, modes.K + 1), grid.t, grid.x],
                    (held.get(k, zero) for k in range(1, modes.K + 1)))


def read_modes_csv(path, grid: Grid, params: SpectralParams) -> ModeFieldSet:
    return ModeFieldSet(grid, params, _read_grid_csv(
        path, ["k", "t", "x", "value"], [range(1, params.K + 1), grid.t, grid.x]))


def write_mode_profiles_csv(path, phi_modes: np.ndarray, x: np.ndarray) -> None:
    phi_modes = np.asarray(phi_modes)
    _write_grid_csv(path, ["k", "x", "value"], [range(1, phi_modes.shape[0] + 1), x],
                    phi_modes)


def read_mode_profiles_csv(path, grid: Grid, params: SpectralParams) -> np.ndarray:
    return _read_grid_csv(path, ["k", "x", "value"], [range(1, params.K + 1), grid.x])


def write_synth_csv(path, u: ModeFieldSet, y: np.ndarray) -> None:
    """u(t, x, y) = sum_k u_k(t, x) sin(k y) on the y nodes, synthesised and
    written one time level at a time, so u(t, x, y) is never held whole."""
    grid = u.grid
    _write_grid_csv(path, ["t", "x", "y", "value"], [grid.t, grid.x, y],
                    (u.synthesize_y(y, level=n) for n in range(grid.Nt + 1)))


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
