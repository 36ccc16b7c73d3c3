"""CSV field files and JSON artifacts.

Field CSVs carry a header row, then one node per line with the last key
column varying fastest: space-time fields t,x,value, y-profiles
y,value, and mode bundles an integer k column first.  Output lines end in
CRLF (as the csv module writes them) and floats print as "%.17g", 17
significant digits, so a written field re-reads bitwise identical.  Input
lines may end in LF or CRLF; quoted numeric cells ("1.5") and blank lines
are accepted.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .grids import Grid, ScalarField
from .sinebasis import ModeFieldSet, SpectralParams


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_grid_csv(path, header: list[str], axes, values) -> None:
    """One row per node of the product of ``axes`` (last axis fastest):
    coordinates then value, all "%.17g" (so a mode index k prints as an
    integer).  Each leading-index slice is one format string with the
    trailing coordinates as literal text; memory is bounded by one slice."""
    cols = [["%.17g" % c for c in np.asarray(axis, dtype=float).tolist()] for axis in axes]
    values = np.asarray(values, dtype=float)
    if values.shape != tuple(map(len, cols)):
        raise ValueError(f"{path}: values of shape {values.shape} do not match the axes")
    tails = ["".join("," + c for c in node) for node in itertools.product(*cols[1:])]
    template = "".join(["%s" + tail + ",%.17g\r\n" for tail in tails])
    fields = [None] * (2 * len(tails))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for head, block in zip(cols[0], values):
            fields[0::2] = [head] * len(tails)
            fields[1::2] = block.ravel().tolist()
            fh.write(template % tuple(fields))


def _axis_from_column(values: np.ndarray, name: str) -> np.ndarray:
    nodes = np.unique(values)
    if len(nodes) < 2:
        raise DataError(f"column {name} has fewer than 2 distinct nodes")
    steps = np.diff(nodes)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(nodes[-1]), 1.0):
        raise DataError(f"column {name} is not uniformly spaced")
    return nodes


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
    return rows


def write_field_csv(path, field: ScalarField) -> None:
    grid = field.grid
    _write_grid_csv(path, ["t", "x", "value"], [grid.t, grid.x], field.values)


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a space-time field; returns (t_nodes, x_nodes, values)."""
    rows = _read_rows(path, ["t", "x", "value"])
    t_nodes = _axis_from_column(rows[:, 0], "t")
    x_nodes = _axis_from_column(rows[:, 1], "x")
    if len(rows) != len(t_nodes) * len(x_nodes):
        raise DataError(f"{path}: grid has missing or duplicate cells")
    values = np.full((len(t_nodes), len(x_nodes)), np.nan)
    ti = np.searchsorted(t_nodes, rows[:, 0])
    xi = np.searchsorted(x_nodes, rows[:, 1])
    values[ti, xi] = rows[:, 2]
    if np.any(np.isnan(values)):
        raise DataError(f"{path}: grid has missing cells")
    return t_nodes, x_nodes, values


def write_profile_csv(path, y: np.ndarray, values: np.ndarray) -> None:
    _write_grid_csv(path, ["y", "value"], [y], values)


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_rows(path, ["y", "value"])
    y = rows[:, 0]
    if np.any(np.diff(y) <= 0):
        raise DataError(f"{path}: y nodes must be strictly increasing")
    return y, rows[:, 1]


def write_modes_csv(path, modes: ModeFieldSet) -> None:
    grid = modes.grid
    _write_grid_csv(path, ["k", "t", "x", "value"],
                    [range(1, modes.K + 1), grid.t, grid.x], modes.values)


def read_modes_csv(path, grid: Grid, params: SpectralParams) -> ModeFieldSet:
    rows = _read_rows(path, ["k", "t", "x", "value"])
    ks = np.unique(rows[:, 0]).astype(int)
    if ks[0] != 1 or ks[-1] != len(ks):
        raise DataError(f"{path}: mode indices must be 1..K, got {ks.tolist()}")
    if len(ks) != params.K:
        raise DataError(f"{path}: {len(ks)} modes in file, config says K={params.K}")
    t_nodes = _axis_from_column(rows[:, 1], "t")
    x_nodes = _axis_from_column(rows[:, 2], "x")
    _check_axes(path, grid, t_nodes, x_nodes)
    values = np.full((params.K,) + grid.field_shape, np.nan)
    ki = rows[:, 0].astype(int) - 1
    ti = np.searchsorted(t_nodes, rows[:, 1])
    xi = np.searchsorted(x_nodes, rows[:, 2])
    values[ki, ti, xi] = rows[:, 3]
    if np.any(np.isnan(values)):
        raise DataError(f"{path}: mode grid has missing cells")
    return ModeFieldSet(grid, params, values)


def write_mode_profiles_csv(path, phi_modes: np.ndarray, x: np.ndarray) -> None:
    phi_modes = np.asarray(phi_modes)
    _write_grid_csv(path, ["k", "x", "value"], [range(1, phi_modes.shape[0] + 1), x],
                    phi_modes)


def read_mode_profiles_csv(path, grid: Grid, params: SpectralParams) -> np.ndarray:
    rows = _read_rows(path, ["k", "x", "value"])
    ks = np.unique(rows[:, 0]).astype(int)
    if len(ks) != params.K:
        raise DataError(f"{path}: {len(ks)} modes in file, config says K={params.K}")
    x_nodes = _axis_from_column(rows[:, 1], "x")
    _check_axes(path, grid, None, x_nodes)
    values = np.full((params.K,) + grid.space_shape, np.nan)
    ki = rows[:, 0].astype(int) - 1
    xi = np.searchsorted(x_nodes, rows[:, 1])
    values[ki, xi] = rows[:, 2]
    if np.any(np.isnan(values)):
        raise DataError(f"{path}: profile grid has missing cells")
    return values


def _check_axes(path, grid: Grid, t_nodes, x_nodes) -> None:
    if t_nodes is not None:
        if len(t_nodes) != grid.Nt + 1 or np.max(np.abs(t_nodes - grid.t)) > 1e-9:
            raise DataError(f"{path}: time nodes do not match the configured grid")
    if len(x_nodes) != grid.Nx + 2 or np.max(np.abs(x_nodes - grid.x)) > 1e-9:
        raise DataError(f"{path}: space nodes do not match the configured grid")


def read_field_as_scalar(path, grid: Grid) -> ScalarField:
    t_nodes, x_nodes, values = read_field_csv(path)
    _check_axes(path, grid, t_nodes, x_nodes)
    return ScalarField(grid, values)


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
