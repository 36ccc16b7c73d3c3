"""CSV field files and JSON artifacts.

Field CSVs carry a header row, then one node per line with the last key
column varying fastest: space-time fields t,x,value, y-profiles
y,value, and mode bundles an integer k column first.  Output lines end in
CRLF (as the csv module writes them) and floats print as "%.17g", 17
significant digits, so a written field re-reads bitwise identical.  Input
lines may end in LF or CRLF; a leading UTF-8 byte-order mark, quoted
numeric cells ("1.5") and blank lines are accepted.

One function pair knows the grid layout: _write_grid_csv and its inverse
_read_grid_csv, which reads every input file against the node lists the
config defines (grid.t, grid.x, k = 1..K, and the y quadrature nodes
params.y for the omega profile).  Rows may come in any order; an off-grid
coordinate and a missing or repeated node are rejected with a DataError
naming the file, and so are a non-finite cell and bytes that are not UTF-8
text in any input file.

Both directions stream.  Every input is parsed by _row_blocks in blocks of
_ROWS_PER_READ = 4,096 rows: 128 kB for the widest input, a four-column mode
file, which is glibc's default mmap threshold.  Reading the README-size
f.csv so peaks at 1.13 times its value stack (1.50 in blocks of 16,384
rows).  A grid reader checks "every node once" with a row count and its
value array, whose NaN start records the nodes not read.  The writer
takes the values as one array or as a function of the leading index that
returns one slice (write_modes_csv looks up the stack's rows, and
write_synth_csv synthesises u(t, x, y) one time level at a time), and
writes bytes from templates built once, with no text layer to encode.  So a
big file costs the arrays it fills or is written from plus one block or
slice, never a copy of the file.

A grid file is written on two CPUs when it has two or more pieces, the
process runs one thread and it may run on two or more CPUs: a forked helper
(diffid.forked) formats the second half of the pieces into a temporary file
that is then appended to the first.  numpy's BLAS pool is a thread, so this
needs OPENBLAS_NUM_THREADS=1 (or OMP_/MKL_NUM_THREADS=1 for the BLAS in
use), as the benchmark sets it.  The bytes are the same either way.
"""

from __future__ import annotations

import csv
import functools
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


#: rows per write of _write_grid_csv.  A piece's spliced template and its
#: formatted bytes (at most ~100 bytes a row) are each under 64 kB, below
#: glibc's default 128 kB mmap and trim thresholds, so the heap reuses one
#: region for every piece.  A whole slice at once (~240 kB for the README
#: config's u_synth.csv) crosses them: unless an earlier large free has raised
#: the thresholds, every time level is then mapped, or trimmed and faulted in,
#: afresh (about 14 000 extra page faults for that file).
_ROWS_PER_WRITE = 512


#: data rows per np.loadtxt call of _row_blocks, the input-side counterpart of
#: _ROWS_PER_WRITE: a block of the widest input, a four-column mode file, is
#: 128 kB, glibc's default mmap threshold, and reading holds the destination
#: array plus one block, never a whole file's rows.  At K = 16,
#: Nx = Nt = 128 the traced peak of read_modes_csv is 1.13 times its 2.15 MB
#: value stack (1.50 at 16,384 rows; 1.07 at 2,048 and 1.04 at 1,024 rows,
#: which read about 5 % slower), and the peak resident memory of a data-mode
#: forward run is 0.2-0.75 MB lower than at 16,384 rows, a figure that also
#: follows heap layout.
_ROWS_PER_READ = 4096


def _write_grid_csv(path, header: list[str], axes, slices) -> None:
    """One row per node of the product of ``axes`` (last axis fastest):
    coordinates then value, all "%.17g" (so a mode index k prints as an
    integer).  ``slices`` is an array of the whole product, or a function of
    the leading index that returns one slice, shaped like the product of the
    other axes.  The file is written in pieces of at most _ROWS_PER_WRITE
    rows of one slice, each from a bytes template built once from the
    trailing coordinates' text, whose rows read NUL, trailing coordinates,
    ",%.17g" and CRLF; per slice the NUL is replaced by the leading
    coordinate (coordinate text holds no NUL and no "%") and the values are
    formatted into that copy.  So memory is one slice, the templates, and
    one spliced template and formatted piece at a time.

    With forked.can_fork(), a file of two or more pieces splits at
    total // 2: a forked helper formats the second half, building only its
    slices, while this process formats the first half and then appends the
    helper's file.  If the helper does not exit 0, this process formats the
    second half itself, so the bytes, and the ValueError of a bad slice,
    are the same either way."""
    cols = [[b"%.17g" % c for c in np.asarray(axis, dtype=float).tolist()] for axis in axes]
    shape = tuple(map(len, cols[1:]))
    if not callable(slices):
        values = np.asarray(slices, dtype=float)
        if values.shape != (len(cols[0]),) + shape:
            raise ValueError(f"{path}: values of shape {values.shape} do not match the axes "
                             f"{','.join(header[:-1])} of shape {(len(cols[0]),) + shape}")
        slices = values.__getitem__
    # the trailing coordinates of each row, last axis fastest
    tails = map(b"".join, itertools.product(*[[b"," + c for c in col] for col in cols[1:]]))
    batches = iter(lambda: list(itertools.islice(tails, _ROWS_PER_WRITE)), [])
    pieces = [b"".join([b"\0" + tail + b",%.17g\r\n" for tail in batch]) for batch in batches]
    texts = functools.partial(_texts, path, cols[0], shape, pieces, slices)
    total = len(cols[0]) * len(pieces)
    with open(path, "wb") as fh:
        helper = None
        if total >= 2:
            from .forked import Helper  # here, so a run without such a file never loads it
            helper = Helper.start(path, texts(total // 2, total))
        try:
            fh.write((",".join(header) + "\r\n").encode("utf-8"))
            fh.writelines(texts(0, total // 2))
            if not (helper and helper.append_to(fh)):
                fh.writelines(texts(total // 2, total))
        finally:
            if helper:
                helper.close()


def _texts(path, lead: list[bytes], shape: tuple, pieces, slices, start: int, stop: int):
    """Pieces start to stop - 1 of the file in order, piece j being the piece
    j % len(pieces) of slice j // len(pieces); each slice built once, checked."""
    for j in range(start, stop):
        n, p = divmod(j, len(pieces))
        if p == 0 or j == start:
            block = np.asarray(slices(n), dtype=float)
            if block.shape != shape:
                raise ValueError(f"{path}: slice {n} of shape {block.shape} does not "
                                 f"match the {len(lead)} slices of shape {shape}")
            row = block.ravel()
        i = p * _ROWS_PER_WRITE
        yield pieces[p].replace(b"\0", lead[n]) % tuple(row[i:i + _ROWS_PER_WRITE].tolist())


def _row_blocks(path, expected_header: list[str]):
    """The data rows of an input file as float arrays of at most
    _ROWS_PER_READ rows each, in file order.  Checks the header, then each
    block's column count and cells; a file without data rows, and one that
    is not UTF-8 text, is an error."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
                except ValueError as err:  # a UnicodeDecodeError too, which _bad_row meets again
                    raise DataError(f"{path}: " + (_bad_row(path, len(expected_header), first)
                                                   or f"malformed data row ({err})")) from err
                if not len(rows):
                    if first == 1:
                        raise DataError(f"{path}: no data rows")
                    return
                if rows.shape[1] != len(expected_header):
                    raise DataError(f"{path}: data rows have {rows.shape[1]} columns, "
                                    f"the header {len(expected_header)}, from data row {first}")
                bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
                if bad.size:
                    raise DataError(f"{path}: non-finite cell in data row {first + bad[0]}: "
                                    + ",".join(f"{c:.15g}" for c in rows[bad[0]]))
                count = len(rows)
                yield rows
                del rows  # free this block before the next one is read
                if count < _ROWS_PER_READ:
                    return
                first += count
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text: byte 0x{err.object[err.start]:02x} "
                        f"({err.reason})") from err


def _bad_row(path, columns: int, first: int) -> str | None:
    """What is wrong with the first malformed data row from data row ``first``
    on, named by its 1-based number among the file's non-blank rows, or None
    if none is found.  The error path of _row_blocks: numpy's own row index
    counts from the block, 0-based for a cell it cannot convert and 1-based
    for a changed column count."""
    with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
        # numpy's warning for an empty cell, reported here as not a number
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        reader = csv.reader(fh)
        next(reader)   # the header, checked already
        for number, cells in enumerate((cells for cells in reader if cells), start=1):
            if number < first:
                continue
            if len(cells) != columns:
                return f"malformed data row {number}: {len(cells)} columns, the header {columns}"
            for cell in cells:
                if not _is_number(cell):
                    return f"malformed data row {number}: {cell!r} is not a number"
    return None


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt, as _row_blocks calls it, reads the cell as one
    float: numpy's own parse of the cell alone."""
    try:
        return np.loadtxt([cell], delimiter=",", quotechar='"', comments=None,
                          ndmin=2, dtype=float).shape == (1, 1)
    except ValueError:
        return False


def _read_grid_csv(path, header: list[str], axes) -> np.ndarray:
    """The inverse of _write_grid_csv: the values on the product of ``axes``.
    Rows may come in any order, but each coordinate must lie within 1e-9 of
    a node of its uniform axis and each node must appear exactly once.  The
    file is read a block at a time into values that start as NaN; every cell
    read is finite, so as many rows as nodes and no NaN left means each node
    appeared once.  Memory is the values and one block with its node indices;
    only a file that fails is read again, for each node's count (_bad_count)."""
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    shape = tuple(map(len, axes))
    values = np.full(math.prod(shape), np.nan)
    rows_read = 0
    for rows in _row_blocks(path, header):
        flat = _block_nodes(path, header, axes, rows)
        values[flat] = rows[:, -1]
        rows_read += len(rows)
        del rows, flat  # free this block before the next one is read
    if rows_read != len(values) or np.isnan(values.min()):
        raise DataError(_bad_count(path, header, axes))
    return values.reshape(shape)


def _bad_count(path, header: list[str], axes) -> str:
    """What is wrong with a grid file whose rows do not cover each node of
    ``axes`` exactly once: the lowest node that does not appear once, with
    its count.  The error path of _read_grid_csv, which reads the file again
    to count each node's rows."""
    shape = tuple(map(len, axes))
    counts = np.zeros(math.prod(shape), dtype=np.intp)
    for rows in _row_blocks(path, header):
        np.add.at(counts, _block_nodes(path, header, axes, rows), 1)
    bad = np.flatnonzero(counts != 1)[0]
    node = ", ".join(f"{name} = {axis[i]:.15g}" for name, axis, i
                     in zip(header, axes, np.unravel_index(bad, shape)))
    return (f"{path}: node {node} appears {counts[bad]} times; "
            "every node of the configured grid must appear once")


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


def read_profile_csv(path, params: SpectralParams) -> np.ndarray:
    """The profile on the y quadrature nodes params.y."""
    return _read_grid_csv(path, ["y", "value"], [params.y])


def write_modes_csv(path, modes: ModeFieldSet) -> None:
    """Every mode k = 1..K, zero rows included: each mode the stack does not
    hold is written from one shared zero slice."""
    grid = modes.grid
    held = dict(zip(modes.modes.tolist(), modes.values))
    zero = np.zeros(grid.field_shape)
    _write_grid_csv(path, ["k", "t", "x", "value"], [range(1, modes.K + 1), grid.t, grid.x],
                    lambda n: held.get(n + 1, zero))


def read_modes_csv(path, grid: Grid, params: SpectralParams) -> ModeFieldSet:
    # every value comes from a row _row_blocks has checked finite
    modes = np.arange(1, params.K + 1)
    return ModeFieldSet(grid, params, _read_grid_csv(
        path, ["k", "t", "x", "value"], [modes, grid.t, grid.x]), modes, check_finite=False)


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
                    functools.partial(u.synthesize_y, y))


def write_table_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) if isinstance(c, float) else c for c in row])


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
