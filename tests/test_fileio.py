import csv
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diffid import Grid, ModeFieldSet, ScalarField, SpectralParams, fileio, forked
from diffid.errors import DataError
from diffid.fileio import (
    _ROWS_PER_WRITE,
    _write_grid_csv,
    read_field_csv,
    read_mode_profiles_csv,
    read_modes_csv,
    read_profile_csv,
    write_field_csv,
    write_mode_profiles_csv,
    write_modes_csv,
    write_profile_csv,
    write_synth_csv,
    write_table_csv,
)


@pytest.fixture
def grid():
    return Grid(np.pi, 0.5, Nx=6, Nt=4)


def test_field_roundtrip_bitwise(tmp_path, grid):
    rng = np.random.default_rng(0)
    field = ScalarField(grid, rng.standard_normal(grid.field_shape))
    path = tmp_path / "field.csv"
    write_field_csv(path, field)
    back = read_field_csv(path, grid)
    assert np.array_equal(back.values, field.values)


def test_field_deterministic_bytes(tmp_path, grid):
    rng = np.random.default_rng(1)
    field = ScalarField(grid, rng.standard_normal(grid.field_shape))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(p1, field)
    write_field_csv(p2, field)
    assert p1.read_bytes() == p2.read_bytes()


def test_profile_roundtrip(tmp_path):
    params = SpectralParams(K=3, Ny=64)
    y = params.y
    vals = np.sin(y) * np.exp(y / 10)
    path = tmp_path / "omega.csv"
    write_profile_csv(path, y, vals)
    assert np.array_equal(read_profile_csv(path, params), vals)


def test_modes_roundtrip(tmp_path, grid):
    params = SpectralParams(K=3, Ny=64)
    rng = np.random.default_rng(2)
    modes = ModeFieldSet(grid, params, rng.standard_normal((3,) + grid.field_shape),
                         np.arange(1, params.K + 1))
    path = tmp_path / "f.csv"
    write_modes_csv(path, modes)
    back = read_modes_csv(path, grid, params)
    assert np.array_equal(back.values, modes.values)


def test_mode_profiles_roundtrip(tmp_path, grid):
    params = SpectralParams(K=2, Ny=64)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((2, grid.Nx + 2))
    path = tmp_path / "phi.csv"
    write_mode_profiles_csv(path, phi, grid.x)
    back = read_mode_profiles_csv(path, grid, params)
    assert np.array_equal(back, phi)


def test_read_rejects_bad_header(tmp_path, grid):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad.csv: expected header t,x,value"):
        read_field_csv(path, grid)


def test_read_rejects_missing_cells(tmp_path, grid):
    field = ScalarField(grid, np.ones(grid.field_shape))
    path = tmp_path / "field.csv"
    write_field_csv(path, field)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"field.csv: node t = 0.5, x = 3.14\S* appears 0 times"):
        read_field_csv(path, grid)


def test_grid_mismatch_detected(tmp_path, grid):
    other = Grid(np.pi, 0.5, Nx=8, Nt=4)
    field = ScalarField(other, np.ones(other.field_shape))
    path = tmp_path / "field.csv"
    write_field_csv(path, field)
    with pytest.raises(DataError, match="field.csv: x = .* is not one of the 8 configured nodes"):
        read_field_csv(path, grid)


def test_history_format(tmp_path):
    # history.csv is a table: integers as they are, floats "%.17g", CRLF
    path = tmp_path / "history.csv"
    write_table_csv(path, ["iter", "F_diff", "q_hat"],
                    [[1, 1.0, float("nan")], [2, 0.25, 0.25], [3, 0.05, 0.2]])
    assert path.read_bytes() == (b"iter,F_diff,q_hat\r\n1,1,nan\r\n2,0.25,0.25\r\n"
                                 b"3,0.050000000000000003,0.20000000000000001\r\n")


def reference_grid_csv(path, header, axes, values):
    """The per-cell csv.writer loop the grid writers must match byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for node, v in zip(itertools.product(*axes), np.ravel(values)):
            writer.writerow([c if isinstance(c, int) else format(float(c), ".17g")
                             for c in node] + [format(float(v), ".17g")])


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1 / 3]
any_float = st.one_of(st.sampled_from(EXTREMES + [np.nan, np.inf, -np.inf]), st.floats())
finite_float = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False,
                                                              allow_infinity=False))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@st.composite
def grid_case(draw, elements=any_float):
    grid = Grid(np.pi, draw(st.sampled_from([0.5, 1.0, 0.3])),
                Nx=draw(st.integers(2, 6)), Nt=draw(st.integers(2, 5)))
    K = draw(st.integers(1, 4))
    values = draw(hnp.arrays(np.float64, (K,) + grid.field_shape, elements=elements))
    return grid, values


@settings(max_examples=40, deadline=None)
@given(case=grid_case(),
       y=hnp.arrays(np.float64, st.integers(4, 7), elements=any_float), data=st.data())
def test_writers_match_reference_bytes(tmp_path_factory, case, y, data):
    tmp = tmp_path_factory.mktemp("bytes")
    grid, values = case
    K = values.shape[0]
    ks = range(1, K + 1)
    # a leading axis of any floats, so the leading coordinate spliced into
    # each row's template is checked against the reference text too
    lead = data.draw(hnp.arrays(np.float64, len(grid.t), elements=any_float))
    # a stand-in for ScalarField and an unchecked ModeFieldSet, so non-finite
    # cells reach the writer; one row of mode K for u_synth.csv
    modes = ModeFieldSet(grid, SpectralParams(K=K), values, np.arange(1, K + 1), check_finite=False)
    one_row = ModeFieldSet(grid, SpectralParams(K=K), values[-1:], np.array([K]),
                           check_finite=False)
    with np.errstate(all="ignore"):
        synth = np.stack([one_row.synthesize_y(y, n) for n in range(grid.Nt + 1)])
    cases = [
        (write_field_csv, (SimpleNamespace(grid=grid, values=values[0]),),
         ["t", "x", "value"], [grid.t, grid.x], values[0]),
        (write_profile_csv, (y, y[::-1]), ["y", "value"], [y], y[::-1]),
        (write_modes_csv, (modes,),
         ["k", "t", "x", "value"], [ks, grid.t, grid.x], values),
        (write_mode_profiles_csv, (values[:, 0], grid.x),
         ["k", "x", "value"], [ks, grid.x], values[:, 0]),
        (write_synth_csv, (one_row, y),
         ["t", "x", "y", "value"], [grid.t, grid.x, y], synth),
        (_write_grid_csv, (["t", "x", "y", "value"], [lead, grid.x, y[:K]],
                           values.transpose(1, 2, 0)),
         ["t", "x", "y", "value"], [lead, grid.x, y[:K]], values.transpose(1, 2, 0)),
    ]
    for n, (writer, args, header, axes, expected) in enumerate(cases):
        got, ref = tmp / f"got{n}.csv", tmp / f"ref{n}.csv"
        with np.errstate(all="ignore"):
            writer(got, *args)
        reference_grid_csv(ref, header, axes, expected)
        assert got.read_bytes() == ref.read_bytes(), writer.__name__


def test_slices_longer_than_one_write_match_reference_bytes(tmp_path):
    # 42 x nodes times 30 y nodes: 1260 rows per time level, written in
    # pieces of _ROWS_PER_WRITE rows with a partial last piece
    grid = Grid(np.pi, 1.0, Nx=40, Nt=3)
    y = np.linspace(0.0, np.pi, 30)
    u = ModeFieldSet(grid, SpectralParams(K=3), np.random.default_rng(5).standard_normal(
        (1,) + grid.field_shape), np.array([2]))
    assert len(grid.x) * len(y) % _ROWS_PER_WRITE and len(grid.x) * len(y) > 2 * _ROWS_PER_WRITE
    write_synth_csv(tmp_path / "got.csv", u, y)
    reference_grid_csv(tmp_path / "ref.csv", ["t", "x", "y", "value"], [grid.t, grid.x, y],
                       np.stack([u.synthesize_y(y, n) for n in range(grid.Nt + 1)]))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_writer_checks_each_slice_and_the_slice_count(tmp_path, grid):
    path = tmp_path / "psi.csv"
    axes = [grid.t, grid.x]
    good = np.zeros(grid.Nx + 2)
    for slices, message in ((lambda n: good[:-1] if n == 4 else good, r"slice 4 of shape \(7,\)"),
                            (np.zeros((6, grid.Nx + 2)), r"psi\.csv: values of shape \(6, 8\) "
                             r"do not match the axes t,x of shape \(5, 8\)"),
                            (np.zeros((4, grid.Nx + 2)), r"values of shape \(4, 8\)")):
        with pytest.raises(ValueError, match=message):
            _write_grid_csv(path, ["t", "x", "value"], axes, slices)


def test_write_synth_csv_never_holds_u_of_t_x_y(tmp_path):
    grid = Grid(np.pi, 0.5, Nx=64, Nt=64)
    params = SpectralParams(K=16, Ny=64)
    y = np.linspace(0.0, np.pi, 33)
    u = ModeFieldSet(grid, params, np.random.default_rng(7).standard_normal(
        (16,) + grid.field_shape), np.arange(1, params.K + 1))
    whole_bytes = 8 * (grid.Nt + 1) * (grid.Nx + 2) * len(y)
    tracemalloc.start()
    try:
        write_synth_csv(tmp_path / "u_synth.csv", u, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_bytes, f"peak {peak} B, u(t, x, y) {whole_bytes} B"


@settings(max_examples=40, deadline=None)
@given(case=grid_case(elements=finite_float),
       omega=hnp.arrays(np.float64, st.integers(5, 9), elements=finite_float))
def test_readers_roundtrip_bitwise(tmp_path_factory, case, omega):
    tmp = tmp_path_factory.mktemp("roundtrip")
    grid, values = case
    params = SpectralParams(K=values.shape[0], Ny=64)

    write_field_csv(tmp / "psi.csv", ScalarField(grid, values[0]))
    assert np.array_equal(_bits(read_field_csv(tmp / "psi.csv", grid).values),
                          _bits(values[0]))

    write_modes_csv(tmp / "f.csv", ModeFieldSet(grid, params, values, np.arange(1, params.K + 1)))
    assert np.array_equal(_bits(read_modes_csv(tmp / "f.csv", grid, params).values),
                          _bits(values))

    write_mode_profiles_csv(tmp / "phi.csv", values[:, 0], grid.x)
    assert np.array_equal(_bits(read_mode_profiles_csv(tmp / "phi.csv", grid, params)),
                          _bits(values[:, 0]))

    profile = SpectralParams(K=1, Ny=len(omega) - 1)
    write_profile_csv(tmp / "omega.csv", profile.y, omega)
    assert np.array_equal(_bits(read_profile_csv(tmp / "omega.csv", profile)), _bits(omega))


# t = 0, 1, 2 and x = 0, 1, 2, 3 with value 10 t + x + 0.5
FIELD_GRID = Grid(3.0, 2.0, Nx=2, Nt=2)
FIELD_ROWS = [f"{t},{x},{10 * t + x + 0.5}" for t in range(3) for x in range(4)]
FIELD_VALUES = 10 * FIELD_GRID.t[:, None] + FIELD_GRID.x + 0.5

#: a block size below every test file's row count; each reader test that
#: runs with the default block size runs again with it (*_in_small_blocks)
SMALL_BLOCK = 5

#: the omega profile's y nodes 0, pi/4, ..., pi and their text as written
PROFILE = SpectralParams(K=1, Ny=4)
Y = [format(y, ".17g") for y in PROFILE.y]


@pytest.fixture
def small_blocks(monkeypatch):
    """Read inputs SMALL_BLOCK data rows at a time, so files span blocks."""
    monkeypatch.setattr(fileio, "_ROWS_PER_READ", SMALL_BLOCK)


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_reader_accepts_lf_and_crlf(tmp_path, newline):
    path = tmp_path / "psi.csv"
    path.write_bytes(newline.join(["t,x,value"] + FIELD_ROWS + [""]).encode())
    values = read_field_csv(path, FIELD_GRID).values
    assert np.array_equal(values, FIELD_VALUES)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_reader_accepts_lf_and_crlf_in_small_blocks(tmp_path, newline):
    test_reader_accepts_lf_and_crlf(tmp_path, newline)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.filterwarnings("error::UserWarning")
def test_blank_lines_across_a_block_boundary(tmp_path):
    # data rows 5 and 6 sit in different blocks, with blank lines between
    # them and at the start of the second block's read
    rows = FIELD_ROWS[:SMALL_BLOCK] + ["", "", ""] + FIELD_ROWS[SMALL_BLOCK:]
    path = tmp_path / "psi.csv"
    path.write_bytes("\r\n".join(["t,x,value", ""] + rows + ["", ""]).encode())
    assert np.array_equal(read_field_csv(path, FIELD_GRID).values, FIELD_VALUES)


@pytest.mark.usefixtures("small_blocks")
def test_duplicate_in_another_block_is_rejected(tmp_path):
    # data row 2 (t = 0, x = 1) again as data row 9, in the second block
    # (rows 6-10), in place of t = 2, x = 0
    rows = FIELD_ROWS[:8] + [FIELD_ROWS[1]] + FIELD_ROWS[9:]
    path = tmp_path / "psi.csv"
    path.write_text("\n".join(["t,x,value"] + rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"psi.csv: node t = 0, x = 1 appears 2 times"):
        read_field_csv(path, FIELD_GRID)


@pytest.mark.usefixtures("small_blocks")
def test_malformed_row_in_a_later_block_is_located(tmp_path):
    # data row 9 is the fourth row of the block from row 6; a blank line
    # before it does not count as a data row
    rows = FIELD_ROWS[:6] + [""] + FIELD_ROWS[6:8] + ["2,0,abc"] + FIELD_ROWS[9:]
    path = tmp_path / "psi.csv"
    path.write_text("\n".join(["t,x,value"] + rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"psi.csv: malformed data row 9: 'abc' is not a "
                       r"number$"):
        read_field_csv(path, FIELD_GRID)


@pytest.mark.usefixtures("small_blocks")
def test_short_row_in_a_later_block_is_located(tmp_path):
    # data row 8 is the third row of the block from row 6, after a blank line
    rows = FIELD_ROWS[:7] + ["", "1,3"] + FIELD_ROWS[8:]
    path = tmp_path / "psi.csv"
    path.write_text("\n".join(["t,x,value"] + rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"psi.csv: malformed data row 8: 2 columns, the "
                       r"header 3$"):
        read_field_csv(path, FIELD_GRID)


def test_reader_skips_a_byte_order_mark(tmp_path, grid):
    psi, omega = tmp_path / "psi.csv", tmp_path / "omega.csv"
    _write_grid_file(psi, grid, K=1)
    write_profile_csv(omega, PROFILE.y, np.sin(PROFILE.y))
    for path in (psi, omega):
        (tmp_path / f"bom-{path.name}").write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(_bits(read_field_csv(tmp_path / "bom-psi.csv", grid).values),
                          _bits(read_field_csv(psi, grid).values))
    assert np.array_equal(_bits(read_profile_csv(tmp_path / "bom-omega.csv", PROFILE)),
                          _bits(read_profile_csv(omega, PROFILE)))


@pytest.mark.parametrize("cell", ["abc", "1_0", "\u0661", "1d5", '"1,5"'])
def test_unreadable_cell_is_named(tmp_path, cell):
    # float() reads "1_0" and the Arabic-Indic digit one, numpy does not
    path = tmp_path / "omega.csv"
    path.write_text(f"y,value\n{Y[0]},0\n\n{Y[1]},{cell}\n{Y[2]},0\n", encoding="utf-8")
    with pytest.raises(DataError, match="omega.csv: malformed data row 2: "):
        read_profile_csv(path, PROFILE)


@pytest.mark.filterwarnings("error::UserWarning")
def test_reader_accepts_quoted_cells_and_blank_lines(tmp_path):
    path = tmp_path / "omega.csv"
    path.write_bytes(f'y,value\r\n\r\n"{Y[0]}","1.5"\r\n\n{Y[1]},"-2e-3"\r\n\r\n"{Y[2]}",0\r\n'
                     f'{Y[3]},1\n\n{Y[4]},"2"\r\n\r\n'.encode())
    assert np.array_equal(read_profile_csv(path, PROFILE), [1.5, -2e-3, 0.0, 1.0, 2.0])


MALFORMED = [
    pytest.param("", "no data rows", id="empty"),
    pytest.param("\r\n\r\n", "no data rows", id="blank-lines"),
    pytest.param(f"{Y[0]},1\r\n{Y[1]}\r\n",
                 "omega.csv: malformed data row 2: 1 columns, the header 2", id="short-row"),
    pytest.param(f"{Y[0]},1\r\n{Y[1]},abc\r\n",
                 "omega.csv: malformed data row 2: 'abc' is not a number", id="text-cell"),
    pytest.param(f"{Y[0]},1\r\n{Y[1]},\r\n",
                 "omega.csv: malformed data row 2: '' is not a number", id="empty-cell"),
    pytest.param(f"{Y[0]}\r\n{Y[1]}\r\n", "omega.csv: data rows have 1 columns, the header 2",
                 id="one-column"),
    # numpy reads a cell with a leading no-break space, float() less ASCII
    # does not: the row named is the one numpy cannot read
    pytest.param(f"{Y[0]},\xa00\r\n{Y[1]},abc\r\n",
                 "omega.csv: malformed data row 2: 'abc' is not a number",
                 id="non-ascii-space-then-text-cell"),
    # a non-finite cell's row is named by its data row number, blank lines skipped
    pytest.param(f"{Y[0]},0\r\n\r\n{Y[1]},2\r\n{Y[2]},nan\r\n{Y[3]},0\r\n",
                 r"omega.csv: non-finite cell in data row 3: 1\.5707963267949,nan$", id="nan-cell"),
    pytest.param(f"{Y[0]},1\r\ninf,0\r\n", "omega.csv: non-finite cell in data row 2: inf,0$",
                 id="inf-cell"),
    # every node once, in any order: a node given twice is named with its
    # count, an extreme y as off the configured nodes
    pytest.param("".join(f"{Y[i]},0\r\n" for i in (4, 0, 1, 3, 1)),
                 r"omega.csv: node y = 0.785398163397448 appears 2 times; every node of the "
                 "configured grid must appear once$", id="repeated-y"),
    pytest.param(f"{Y[0]},0\r\n-1.7976931348623157e308,0\r\n1.7976931348623157e308,0\r\n",
                 r"omega.csv: y = -1.79769313486232e\+308 is not one of the 5 configured nodes "
                 r"0\.\.3\.14159265358979$", id="extreme-y-out-of-order"),
    # a short row after SMALL_BLOCK rows: a parse error in one block, a block
    # of short rows in small blocks
    pytest.param("\r\n".join([f"{Y[0]},0"] * SMALL_BLOCK + [Y[1]]) + "\r\n",
                 r"omega.csv: (malformed data row 6: 1 columns, the header 2"
                 r"|data rows have 1 columns, the header 2, from data row 6)",
                 id="short-row-after-a-block"),
    pytest.param("\r\n".join([f"{Y[0]},0"] * SMALL_BLOCK + ["0,nan"]) + "\r\n",
                 "omega.csv: non-finite cell in data row 6: 0,nan$", id="nan-cell-after-a-block"),
    # in small blocks, the third row of the second block, after a blank line
    pytest.param("\r\n".join([f"{Y[0]},0"] * 7 + ["", "0,nan", f"{Y[1]},0"]) + "\r\n",
                 "omega.csv: non-finite cell in data row 8: 0,nan$",
                 id="nan-cell-inside-a-later-block"),
]


@pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
@pytest.mark.parametrize("body, message", MALFORMED)
def test_reader_rejects_malformed_data(tmp_path, body, message):
    path = tmp_path / "omega.csv"
    path.write_text("y,value\r\n" + body, encoding="utf-8", newline="")
    with pytest.raises(DataError, match=message):
        read_profile_csv(path, PROFILE)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
@pytest.mark.parametrize("body, message", MALFORMED)
def test_reader_rejects_malformed_data_in_small_blocks(tmp_path, body, message):
    test_reader_rejects_malformed_data(tmp_path, body, message)


@pytest.mark.parametrize("body", [
    pytest.param(b"0,\xff\r\n", id="in-the-header-read"),
    pytest.param(b"0,0\r\n" * 5000 + b"1,\xff\r\n", id="past-the-header-read"),
])
def test_reader_rejects_input_that_is_not_utf8(tmp_path, body):
    path = tmp_path / "omega.csv"
    path.write_bytes(b"y,value\r\n" + body)
    with pytest.raises(DataError, match=r"omega\.csv: not UTF-8 text: byte 0xff"):
        read_profile_csv(path, PROFILE)


def _write_grid_file(path, grid, K):
    """Write psi.csv, f.csv or phi.csv (by name) with random values; return the
    reader call and the written array."""
    rng = np.random.default_rng(4)
    params = SpectralParams(K=K, Ny=64)
    if path.name == "psi.csv":
        values = rng.standard_normal(grid.field_shape)
        write_field_csv(path, ScalarField(grid, values))
        return lambda: read_field_csv(path, grid).values, values
    if path.name == "f.csv":
        values = rng.standard_normal((K,) + grid.field_shape)
        write_modes_csv(path, ModeFieldSet(grid, params, values, np.arange(1, params.K + 1)))
        return lambda: read_modes_csv(path, grid, params).values, values
    values = rng.standard_normal((K, grid.Nx + 2))
    write_mode_profiles_csv(path, values, grid.x)
    return lambda: read_mode_profiles_csv(path, grid, params), values


def _edit_rows(path, edit):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = edit([row.split(",") for row in rows])
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n",
                    encoding="utf-8")


def _relabel(label):
    def edit(rows):
        for row in rows:
            row[0] = label(row[0])
        return rows
    return edit


def _set(row, col, cell):
    def edit(rows):
        rows[row][col] = cell(rows[row][col]) if callable(cell) else cell
        return rows
    return edit


BAD_ROWS = [
    (_relabel(lambda k: str(int(k) - 1)), r"k = 0 is not one of the 3 configured nodes 1\.\.3"),
    (_relabel(lambda k: str(int(k) + 1)), r"k = 4 is not one of the 3 configured nodes 1\.\.3"),
    (_relabel(lambda k: "2.7" if k == "2" else k),
     r"k = 2\.7 is not one of the 3 configured nodes"),
    (_set(7, -2, lambda x: repr(float(x) + 1e-6)),
     r"x = \S+ is not one of the 8 configured nodes 0\.\.3\.14"),
    (_set(7, -2, "-1.7976931348623157e308"), r"x = -1\.79769313486232e\+308 is not one of"),
    (lambda rows: rows + rows[3:4], r"node k = 1, (t = 0, )?x = 1\.34\S* appears 2 times"),
    (lambda rows: rows[:-1], r"node k = 3, (t = 0\.5, )?x = 3\.14\S* appears 0 times"),
    (_set(5, -1, "nan"), r"non-finite cell in data row 6: 1,(0,)?\d\S*,nan$"),
]
BAD_ROW_IDS = ["k-from-0", "k-from-2", "k-2.7", "off-grid", "huge", "duplicate", "missing",
               "nan"]


@pytest.mark.parametrize("name", ["f.csv", "phi.csv"])
@pytest.mark.parametrize("edit, message", BAD_ROWS, ids=BAD_ROW_IDS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_readers_reject_bad_rows(tmp_path, grid, name, edit, message):
    path = tmp_path / name
    read, _ = _write_grid_file(path, grid, K=3)
    _edit_rows(path, edit)
    with pytest.raises(DataError, match=rf"{name}: {message}"):
        read()


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("name", ["f.csv", "phi.csv"])
@pytest.mark.parametrize("edit, message", BAD_ROWS, ids=BAD_ROW_IDS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_readers_reject_bad_rows_in_small_blocks(tmp_path, grid, name, edit, message):
    test_grid_readers_reject_bad_rows(tmp_path, grid, name, edit, message)


@pytest.mark.parametrize("name", ["f.csv", "phi.csv"])
@pytest.mark.parametrize("lost, kept, count", [(3, 17, 0), (17, 3, 2)],
                         ids=["missing-first", "repeated-first"])
def test_grid_readers_name_the_lowest_node_not_seen_once(tmp_path, grid, name, lost, kept,
                                                         count):
    # row `kept` in place of row `lost`: as many rows as nodes, node 3 seen 0
    # or 2 times and node 17 the other; the lowest, node 3, is named
    path = tmp_path / name
    read, _ = _write_grid_file(path, grid, K=3)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    node = ", ".join(f"{h} = {float(c):.15g}"
                     for h, c in zip(header.split(",")[:-1], rows[3].split(",")[:-1]))

    def edit(rows):
        rows[lost] = rows[kept]
        return rows

    _edit_rows(path, edit)
    with pytest.raises(DataError, match=rf"{name}: node {node} appears {count} times; every "
                       "node of the configured grid must appear once$"):
        read()


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("name", ["f.csv", "phi.csv"])
@pytest.mark.parametrize("lost, kept, count", [(3, 17, 0), (17, 3, 2)],
                         ids=["missing-first", "repeated-first"])
def test_grid_readers_name_the_lowest_node_not_seen_once_in_small_blocks(
        tmp_path, grid, name, lost, kept, count):
    test_grid_readers_name_the_lowest_node_not_seen_once(tmp_path, grid, name, lost, kept,
                                                         count)


@pytest.mark.parametrize("name", ["psi.csv", "f.csv", "phi.csv"])
@pytest.mark.parametrize("K", [1, 3])
def test_grid_readers_accept_shuffled_rows(tmp_path, grid, name, K):
    path = tmp_path / name
    read, values = _write_grid_file(path, grid, K)
    _edit_rows(path, lambda rows: [rows[i] for i in np.random.default_rng(5).permutation(len(rows))])
    assert np.array_equal(_bits(read()), _bits(values))


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("name", ["psi.csv", "f.csv", "phi.csv"])
@pytest.mark.parametrize("K", [1, 3])
def test_grid_readers_accept_shuffled_rows_in_small_blocks(tmp_path, grid, name, K):
    test_grid_readers_accept_shuffled_rows(tmp_path, grid, name, K)


def test_read_modes_csv_holds_one_block_not_the_file(tmp_path):
    # K = 16, N = 64: 68,640 rows, 17 blocks of the default 4,096 rows (one
    # block is 131 kB, the value stack 549 kB); the whole file's rows alone
    # are 4 stacks
    grid = Grid(np.pi, 0.5, Nx=64, Nt=64)
    params = SpectralParams(K=16, Ny=64)
    values = np.random.default_rng(8).standard_normal((16,) + grid.field_shape)
    write_modes_csv(tmp_path / "f.csv",
                    ModeFieldSet(grid, params, values, np.arange(1, params.K + 1)))
    tracemalloc.start()
    try:
        back = read_modes_csv(tmp_path / "f.csv", grid, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, values)
    assert peak < 3 * values.nbytes, f"peak {peak} B, value stack {values.nbytes} B"


def _readme_stack():
    """A random dense mode stack of the README size, K = 16, Nx = Nt = 128
    (2.15 MB)."""
    grid = Grid(np.pi, 0.5, Nx=128, Nt=128)
    params = SpectralParams(K=16, Ny=64)
    values = np.random.default_rng(10).standard_normal((16,) + grid.field_shape)
    return ModeFieldSet(grid, params, values, np.arange(1, params.K + 1))


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_modes_csv_at_the_default_block_holds_no_node_count(tmp_path):
    # besides the values a read holds one 4,096-row block with its node
    # indices and loadtxt's buffers (2.4 MB in all, 1.13 stacks; 1.50 in
    # 16,384-row blocks), never a count per node as large as the values
    stack = _readme_stack()
    write_modes_csv(tmp_path / "f.csv", stack)
    back, peak = _traced_peak(lambda: read_modes_csv(tmp_path / "f.csv", stack.grid,
                                                     stack.params))
    assert np.array_equal(back.values, stack.values)
    assert peak < 1.3 * stack.values.nbytes, f"peak {peak} B, stack {stack.values.nbytes} B"


def test_read_field_csv_at_the_default_block_holds_one_block(tmp_path):
    # a 3-column psi.csv of the README grid (16,770 rows, a 134 kB field):
    # one 4,096-row block with its node indices and loadtxt's buffers is
    # 1.85 fields more (2.85 fields in all; 7.97 in 16,384-row blocks)
    grid = _readme_stack().grid
    field = ScalarField(grid, np.random.default_rng(11).standard_normal(grid.field_shape))
    write_field_csv(tmp_path / "psi.csv", field)
    back, peak = _traced_peak(lambda: read_field_csv(tmp_path / "psi.csv", grid))
    assert np.array_equal(back.values, field.values)
    assert peak < 4 * field.values.nbytes, f"peak {peak} B, field {field.values.nbytes} B"


def test_file_of_whole_default_blocks_reads_back_and_names_a_missing_node(tmp_path):
    # 64 time levels of _ROWS_PER_READ / 64 x-nodes (64 at the default
    # 4,096 rows) fill one block exactly, so the reader's next read is empty;
    # the file without its last row is short
    grid = Grid(np.pi, 0.5, Nx=fileio._ROWS_PER_READ // 64 - 2, Nt=63)
    assert math.prod(grid.field_shape) == fileio._ROWS_PER_READ
    path = tmp_path / "psi.csv"
    read, values = _write_grid_file(path, grid, K=1)
    assert np.array_equal(_bits(read()), _bits(values))
    _edit_rows(path, lambda rows: rows[:-1])
    node = f"t = {grid.T:.15g}, x = {grid.Lx:.15g}"
    with pytest.raises(DataError, match=rf"psi\.csv: node {node} appears 0 times"):
        read()


def test_write_modes_csv_never_holds_all_coordinate_text(tmp_path):
    # the format strings of one slice (16,770 rows) and one piece's floats,
    # 0.9 MB, never the coordinate text of every row or a whole slice's
    # floats at once
    stack = _readme_stack()
    _, peak = _traced_peak(lambda: write_modes_csv(tmp_path / "u_modes.csv", stack))
    assert peak < 0.6 * stack.values.nbytes, f"peak {peak} B, stack {stack.values.nbytes} B"
    assert np.array_equal(read_modes_csv(tmp_path / "u_modes.csv", stack.grid,
                                         stack.params).values, stack.values)


# The two-CPU writer.  pytest's own process may hold a BLAS pool, in which
# _write_grid_csv never forks, so the helper path runs in a child interpreter
# with BLAS pinned to one thread, as bench/run.py pins it.

#: a child interpreter's environment in which numpy starts no thread
PINNED_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
                  [str(Path(fileio.__file__).resolve().parents[1]), str(Path(__file__).parent)]),
              "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WRITERS = ["write_field_csv", "write_profile_csv", "write_modes_csv",
           "write_mode_profiles_csv", "write_synth_csv"]
#: a one-piece file; 600 x-nodes, so a slice of one row per x-node is two
#: pieces with a ragged last one; 1,100 x-nodes, three pieces and more
PIECE_CASES = {"one-piece": (6, 1, 1), "ragged": (598, 2, 2), "many-pieces": (1098, 3, 3)}
#: the ValueError of a five-slice psi.csv (one piece a slice, split at piece
#: 2) whose slice 4, in the helper's half, or slice 1, in the parent's half,
#: is short, and of an array of four slices, rejected before any fork
SLICE_MESSAGES = [r"slice 4 of shape \(7,\)", r"slice 1 of shape", r"values of shape"]
#: 5 time levels of 1,100 x-nodes: three pieces a slice, 15 in all, split
#: at piece 7, the second piece of slice 2
SPLIT_GRID = Grid(np.pi, 0.5, Nx=1098, Nt=4)


def _writer_cases(case: str):
    """(writer, args, header, axes, values) of each grid writer on one of
    PIECE_CASES: Nx, K and the number of y nodes.  Values hold every
    EXTREMES float, NaN and both infinities.  A one-piece file of a
    space-time field or of u_synth.csv needs one time level, which no Grid
    has, so those writers get a one-level stand-in for the grid."""
    Nx, K, ny = PIECE_CASES[case]
    grid = Grid(np.pi, 0.5, Nx=Nx, Nt=2)
    values = np.random.default_rng(Nx).standard_normal((K,) + grid.field_shape)
    values.flat[:12] = EXTREMES + [np.nan, np.inf, -np.inf]
    ks = range(1, K + 1)
    y = np.linspace(0.0, np.pi, ny)
    profile_y = grid.x[:1] if case == "one-piece" else grid.x
    one_row = ModeFieldSet(grid, SpectralParams(K=K), values[-1:], np.array([K]),
                           check_finite=False)
    levels = 1 if case == "one-piece" else grid.Nt + 1
    # the grid's first `levels` time levels
    levels_grid = SimpleNamespace(t=grid.t[:levels], x=grid.x, Nt=levels - 1)
    with np.errstate(all="ignore"):
        synth = np.stack([one_row.synthesize_y(y, n) for n in range(levels)])
    return {
        "write_field_csv": ((SimpleNamespace(grid=levels_grid, values=values[0, :levels]),),
                            ["t", "x", "value"], [levels_grid.t, grid.x], values[0, :levels]),
        "write_profile_csv": ((profile_y, values[0, 0, :len(profile_y)]), ["y", "value"],
                              [profile_y], values[0, 0, :len(profile_y)]),
        "write_modes_csv": ((ModeFieldSet(grid, SpectralParams(K=K), values, np.arange(1, K + 1),
                                          check_finite=False),),
                            ["k", "t", "x", "value"], [ks, grid.t, grid.x], values),
        "write_mode_profiles_csv": ((values[:, 0], grid.x), ["k", "x", "value"],
                                    [ks, grid.x], values[:, 0]),
        "write_synth_csv": ((SimpleNamespace(grid=levels_grid, synthesize_y=one_row.synthesize_y),
                             y), ["t", "x", "y", "value"], [levels_grid.t, grid.x, y], synth),
    }


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _open_files() -> list[str]:
    """What each of this process's file descriptors refers to; an unlinked
    temporary file still open reads as "<directory>/#<inode> (deleted)"."""
    files = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            files.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the descriptor of the listing itself, closed by now
            pass
    return sorted(files)


def two_cpu_run(out: str) -> dict:
    """The child interpreter's part: writes each case under ``out``, beside
    its reference file, and reports for each how often the writer forked,
    what it raised, whether a child was left and whether it left a file
    open.  A case whose name ends in "-one-cpu" runs with every fork
    refused, as on one CPU."""
    parent = os.getpid()
    state = {"forks": 0, "refuse": False}
    real_fork = os.fork

    def counted_fork():
        if state["refuse"]:
            raise OSError("fork refused")
        state["forks"] += 1
        return real_fork()

    os.fork = counted_fork
    report = {"can_fork": forked.can_fork()}

    def run(name, call):
        state.update(forks=0, refuse=name.endswith("-one-cpu"))
        error = None
        files = _open_files()
        try:
            with np.errstate(all="ignore"):
                call()
        except (ValueError, OSError) as err:
            error = [type(err).__name__, str(err)]
        report[name] = {"forks": state["forks"], "error": error,
                        "no_child_left": _no_child_left(), "no_file_left": _open_files() == files}

    for case in PIECE_CASES:
        for writer, (args, header, axes, values) in _writer_cases(case).items():
            run(f"{case}-{writer}", lambda: getattr(fileio, writer)(f"{out}/{case}-{writer}.csv",
                                                                    *args))
            reference_grid_csv(f"{out}/{case}-{writer}.ref", header, axes, values)
    grid = Grid(np.pi, 0.5, Nx=6, Nt=4)
    good = np.zeros(grid.Nx + 2)
    for n, slices in enumerate((lambda m: good[:-1] if m == 4 else good,
                                lambda m: good[:-1] if m == 1 else good, np.zeros((4, 8)))):
        for cpus in ("two-cpu", "one-cpu"):
            run(f"message-{n}-{cpus}", lambda: _write_grid_csv(
                f"{out}/psi.csv", ["t", "x", "value"], [grid.t, grid.x], slices))
    # which process builds each slice, and a helper that kills itself or exits 1
    values = np.random.default_rng(3).standard_normal(SPLIT_GRID.field_shape)
    axes = [SPLIT_GRID.t, SPLIT_GRID.x]
    reference_grid_csv(f"{out}/split.ref", ["t", "x", "value"], axes, values)
    builders = {n: [] for n in range(len(SPLIT_GRID.t))}

    def logged(n):  # a helper's list is its own copy, so it writes its pid to the pipe
        os.write(pipe_w, b"%d %d\n" % (n, os.getpid()))
        return values[n]

    pipe_r, pipe_w = os.pipe()
    run("split", lambda: _write_grid_csv(f"{out}/split.csv", ["t", "x", "value"], axes, logged))
    os.close(pipe_w)
    with open(pipe_r, "rb") as log:
        for line in log:
            n, pid = map(int, line.split())
            builders[n].append("parent" if pid == parent else "helper")
    report["builders"] = {n: sorted(who) for n, who in builders.items()}
    for death, die in (("killed", lambda: os.kill(os.getpid(), signal.SIGKILL)),
                       ("exit-1", lambda: os._exit(1))):
        def dying(n):
            if os.getpid() != parent:
                die()
            return values[n]

        run(f"{death}-helper", lambda: _write_grid_csv(f"{out}/{death}.csv", ["t", "x", "value"],
                                                       axes, dying))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        run("second-thread", lambda: write_field_csv(
            f"{out}/thread.csv", ScalarField(grid, np.ones(grid.field_shape))))
    finally:
        release.set()
        thread.join(timeout=10)
    report["files"] = sorted(os.listdir(out))
    return report


@pytest.fixture(scope="module")
def two_cpu(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_cpu")
    probe = "import json, sys, test_fileio; print(json.dumps(test_fileio.two_cpu_run(sys.argv[1])))"
    run = subprocess.run([sys.executable, "-c", probe, str(out)], capture_output=True, text=True,
                         env=PINNED_ENV, timeout=300)
    assert run.returncode == 0, run.stderr
    return out, json.loads(run.stdout.splitlines()[-1])


def _clean(result) -> bool:
    return result["no_child_left"] and result["no_file_left"]


@pytest.mark.parametrize("case", list(PIECE_CASES))
@pytest.mark.parametrize("writer", WRITERS)
def test_two_cpu_writers_match_reference_bytes(two_cpu, case, writer):
    out, report = two_cpu
    name = f"{case}-{writer}"
    assert report[name]["error"] is None
    assert (out / f"{name}.csv").read_bytes() == (out / f"{name}.ref").read_bytes()
    assert _clean(report[name])
    # a one-piece file has nothing to share; every other file forks one helper
    assert report[name]["forks"] == (report["can_fork"] and case != "one-piece")


def test_two_cpu_writer_forks_with_blas_pinned(two_cpu):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the writer never forks")
    assert two_cpu[1]["can_fork"]


def test_two_cpu_writer_builds_each_slice_in_one_process(two_cpu):
    out, report = two_cpu
    assert (out / "split.csv").read_bytes() == (out / "split.ref").read_bytes()
    assert report["split"]["error"] is None and _clean(report["split"])
    if not report["can_fork"]:
        pytest.skip("the writer cannot fork here")
    # slice 2 holds the split: its first piece is the parent's, the rest the helper's
    assert report["builders"] == {"0": ["parent"], "1": ["parent"], "2": ["helper", "parent"],
                                  "3": ["helper"], "4": ["helper"]}


@pytest.mark.parametrize("n, message", enumerate(SLICE_MESSAGES))
def test_two_cpu_writer_checks_each_slice_and_the_slice_count(two_cpu, n, message):
    two, one = two_cpu[1][f"message-{n}-two-cpu"], two_cpu[1][f"message-{n}-one-cpu"]
    assert two["error"] == one["error"] and one["error"][0] == "ValueError"
    assert re.search(message, one["error"][1]) and "psi.csv: " in one["error"][1]
    # an array of the wrong shape is rejected before any fork
    assert two["forks"] == (two_cpu[1]["can_fork"] and n != 2) and one["forks"] == 0
    assert _clean(two) and _clean(one)


@pytest.mark.parametrize("death", ["killed", "exit-1"])
def test_a_helper_that_dies_costs_time_not_the_file(two_cpu, death):
    out, report = two_cpu
    result = report[f"{death}-helper"]
    assert result["error"] is None and _clean(result)
    assert result["forks"] == report["can_fork"]
    assert (out / f"{death}.csv").read_bytes() == (out / "split.ref").read_bytes()
    # no temporary file was ever left under a name beside the outputs
    assert all(name.endswith((".csv", ".ref")) for name in report["files"])


def test_two_cpu_writer_never_forks_beside_a_second_thread(two_cpu):
    out, report = two_cpu
    assert report["second-thread"] == {"forks": 0, "error": None, "no_child_left": True,
                                       "no_file_left": True}
    assert (out / "thread.csv").read_bytes().count(b"\r\n") == 1 + 5 * 8


def test_writer_never_forks_beside_a_second_thread(tmp_path, grid, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called while a second thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        write_field_csv(tmp_path / "psi.csv", ScalarField(grid, np.full(grid.field_shape, 0.5)))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    reference_grid_csv(tmp_path / "ref.csv", ["t", "x", "value"], [grid.t, grid.x],
                       np.full(grid.field_shape, 0.5))
    assert (tmp_path / "psi.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
