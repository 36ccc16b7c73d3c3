import csv
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diffid import Domain, ModeFieldSet, ScalarField, SpectralParams, build_grid
from diffid.errors import DataError
from diffid.fileio import (
    _ROWS_PER_WRITE,
    read_field_csv,
    read_mode_profiles_csv,
    read_modes_csv,
    read_profile_csv,
    write_field_csv,
    write_history_csv,
    write_mode_profiles_csv,
    write_modes_csv,
    write_profile_csv,
    write_synth_csv,
)


@pytest.fixture
def grid():
    return build_grid(Domain((np.pi,), 0.5), Nx=6, Nt=4)


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
    y = np.linspace(0, np.pi, 65)
    vals = np.sin(y) * np.exp(y / 10)
    path = tmp_path / "omega.csv"
    write_profile_csv(path, y, vals)
    y2, v2 = read_profile_csv(path)
    assert np.array_equal(y2, y)
    assert np.array_equal(v2, vals)


def test_modes_roundtrip(tmp_path, grid):
    params = SpectralParams(K=3, Ny=64)
    rng = np.random.default_rng(2)
    modes = ModeFieldSet(grid, params, rng.standard_normal((3,) + grid.field_shape))
    path = tmp_path / "f.csv"
    write_modes_csv(path, modes)
    back = read_modes_csv(path, grid, params)
    assert np.array_equal(back.values, modes.values)


def test_mode_profiles_roundtrip(tmp_path, grid):
    params = SpectralParams(K=2, Ny=64)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((2,) + grid.space_shape)
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
    other = build_grid(Domain((np.pi,), 0.5), Nx=8, Nt=4)
    field = ScalarField(other, np.ones(other.field_shape))
    path = tmp_path / "field.csv"
    write_field_csv(path, field)
    with pytest.raises(DataError, match="field.csv: x = .* is not one of the 8 configured nodes"):
        read_field_csv(path, grid)


def test_history_format(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(path, [1.0, 0.25, 0.05], [0.25, 0.2])
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "iter,F_diff,q_hat"
    assert lines[1].startswith("1,1,")  # nan ratio for the first sweep
    assert float(lines[2].split(",")[2]) == 0.25


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
    grid = build_grid(Domain((np.pi,), draw(st.sampled_from([0.5, 1.0, 0.3]))),
                      Nx=draw(st.integers(2, 6)), Nt=draw(st.integers(2, 5)))
    K = draw(st.integers(1, 4))
    values = draw(hnp.arrays(np.float64, (K,) + grid.field_shape, elements=elements))
    return grid, values


@settings(max_examples=40, deadline=None)
@given(case=grid_case(),
       y=hnp.arrays(np.float64, st.integers(4, 7), elements=any_float))
def test_writers_match_reference_bytes(tmp_path_factory, case, y):
    tmp = tmp_path_factory.mktemp("bytes")
    grid, values = case
    K = values.shape[0]
    ks = range(1, K + 1)
    # a stand-in for ScalarField and an unchecked ModeFieldSet, so non-finite
    # cells reach the writer
    modes = ModeFieldSet(grid, SpectralParams(K=K), values, check_finite=False)
    cases = [
        (write_field_csv, (SimpleNamespace(grid=grid, values=values[0]),),
         ["t", "x", "value"], [grid.t, grid.x], values[0]),
        (write_profile_csv, (y, y[::-1]), ["y", "value"], [y], y[::-1]),
        (write_modes_csv, (modes,),
         ["k", "t", "x", "value"], [ks, grid.t, grid.x], values),
        (write_mode_profiles_csv, (values[:, 0], grid.x),
         ["k", "x", "value"], [ks, grid.x], values[:, 0]),
        (write_synth_csv, (values.transpose(1, 2, 0), grid, y[:K]),
         ["t", "x", "y", "value"], [grid.t, grid.x, y[:K]], values.transpose(1, 2, 0)),
    ]
    for n, (writer, args, header, axes, expected) in enumerate(cases):
        got, ref = tmp / f"got{n}.csv", tmp / f"ref{n}.csv"
        writer(got, *args)
        reference_grid_csv(ref, header, axes, expected)
        assert got.read_bytes() == ref.read_bytes(), writer.__name__


def test_slices_longer_than_one_write_match_reference_bytes(tmp_path):
    # 42 x nodes times 30 y nodes: 1260 rows per time level, written in
    # pieces of _ROWS_PER_WRITE rows with a partial last piece
    grid = build_grid(Domain((np.pi,), 1.0), Nx=40, Nt=3)
    y = np.linspace(0.0, np.pi, 30)
    values = np.random.default_rng(5).standard_normal(grid.field_shape + (30,))
    assert len(grid.x) * len(y) % _ROWS_PER_WRITE and len(grid.x) * len(y) > 2 * _ROWS_PER_WRITE
    write_synth_csv(tmp_path / "got.csv", values, grid, y)
    reference_grid_csv(tmp_path / "ref.csv", ["t", "x", "y", "value"], [grid.t, grid.x, y], values)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=40, deadline=None)
@given(case=grid_case(elements=finite_float),
       y=st.lists(finite_float, min_size=2, max_size=8, unique=True))
def test_readers_roundtrip_bitwise(tmp_path_factory, case, y):
    tmp = tmp_path_factory.mktemp("roundtrip")
    grid, values = case
    params = SpectralParams(K=values.shape[0], Ny=64)

    write_field_csv(tmp / "psi.csv", ScalarField(grid, values[0]))
    assert np.array_equal(_bits(read_field_csv(tmp / "psi.csv", grid).values),
                          _bits(values[0]))

    write_modes_csv(tmp / "f.csv", ModeFieldSet(grid, params, values))
    assert np.array_equal(_bits(read_modes_csv(tmp / "f.csv", grid, params).values),
                          _bits(values))

    write_mode_profiles_csv(tmp / "phi.csv", values[:, 0], grid.x)
    assert np.array_equal(_bits(read_mode_profiles_csv(tmp / "phi.csv", grid, params)),
                          _bits(values[:, 0]))

    y = np.array(sorted(y))  # unique=True draws no -0.0 next to 0.0
    write_profile_csv(tmp / "omega.csv", y, y[::-1])
    y_back, v_back = read_profile_csv(tmp / "omega.csv")
    assert np.array_equal(_bits(y_back), _bits(y))
    assert np.array_equal(_bits(v_back), _bits(y[::-1]))


# t = 0, 1, 2 and x = 0, 1, 2, 3 with value 10 t + x + 0.5
FIELD_GRID = build_grid(Domain((3.0,), 2.0), Nx=2, Nt=2)
FIELD_ROWS = [f"{t},{x},{10 * t + x + 0.5}" for t in range(3) for x in range(4)]


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_reader_accepts_lf_and_crlf(tmp_path, newline):
    path = tmp_path / "psi.csv"
    path.write_bytes(newline.join(["t,x,value"] + FIELD_ROWS + [""]).encode())
    values = read_field_csv(path, FIELD_GRID).values
    assert np.array_equal(values, 10 * FIELD_GRID.t[:, None] + FIELD_GRID.x + 0.5)


@pytest.mark.filterwarnings("error::UserWarning")
def test_reader_accepts_quoted_cells_and_blank_lines(tmp_path):
    path = tmp_path / "omega.csv"
    path.write_bytes(b'y,value\r\n\r\n"0","1.5"\r\n\n1,"-2e-3"\r\n\r\n')
    y, values = read_profile_csv(path)
    assert np.array_equal(y, [0.0, 1.0])
    assert np.array_equal(values, [1.5, -2e-3])


@pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
@pytest.mark.parametrize("body, message", [
    ("", "no data rows"),
    ("\r\n\r\n", "no data rows"),
    ("0,1\r\n1\r\n", "omega.csv"),
    ("0,1\r\n1,abc\r\n", "omega.csv"),
    ("0\r\n1\r\n", "omega.csv: data rows have 1 columns, the header 2"),
    ("0,1\r\n1,nan\r\n", "omega.csv: non-finite cell in data row 1,nan"),
    ("0,1\r\ninf,0\r\n", "omega.csv: non-finite cell in data row inf,0"),
    ("0,0\r\n1,0\r\n1,0\r\n", "omega.csv: y nodes must be strictly increasing"),
    ("-1.7976931348623157e308,0\r\n1.7976931348623157e308,0\r\n0,0\r\n",
     "omega.csv: y nodes must be strictly increasing"),
])
def test_reader_rejects_malformed_data(tmp_path, body, message):
    path = tmp_path / "omega.csv"
    path.write_text("y,value\r\n" + body, encoding="utf-8", newline="")
    with pytest.raises(DataError, match=message):
        read_profile_csv(path)


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
        write_modes_csv(path, ModeFieldSet(grid, params, values))
        return lambda: read_modes_csv(path, grid, params).values, values
    values = rng.standard_normal((K,) + grid.space_shape)
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


@pytest.mark.parametrize("name", ["f.csv", "phi.csv"])
@pytest.mark.parametrize("edit, message", [
    (_relabel(lambda k: str(int(k) - 1)), r"k = 0 is not one of the 3 configured nodes 1\.\.3"),
    (_relabel(lambda k: str(int(k) + 1)), r"k = 4 is not one of the 3 configured nodes 1\.\.3"),
    (_relabel(lambda k: "2.7" if k == "2" else k),
     r"k = 2\.7 is not one of the 3 configured nodes"),
    (_set(7, -2, lambda x: repr(float(x) + 1e-6)),
     r"x = \S+ is not one of the 8 configured nodes 0\.\.3\.14"),
    (_set(7, -2, "-1.7976931348623157e308"), r"x = -1\.79769313486232e\+308 is not one of"),
    (lambda rows: rows + rows[3:4], r"node k = 1, (t = 0, )?x = 1\.34\S* appears 2 times"),
    (lambda rows: rows[:-1], r"node k = 3, (t = 0\.5, )?x = 3\.14\S* appears 0 times"),
    (_set(5, -1, "nan"), r"non-finite cell in data row 1,(0,)?\d\S*,nan$"),
], ids=["k-from-0", "k-from-2", "k-2.7", "off-grid", "huge", "duplicate", "missing", "nan"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_readers_reject_bad_rows(tmp_path, grid, name, edit, message):
    path = tmp_path / name
    read, _ = _write_grid_file(path, grid, K=3)
    _edit_rows(path, edit)
    with pytest.raises(DataError, match=rf"{name}: {message}"):
        read()


@pytest.mark.parametrize("name", ["psi.csv", "f.csv", "phi.csv"])
@pytest.mark.parametrize("K", [1, 3])
def test_grid_readers_accept_shuffled_rows(tmp_path, grid, name, K):
    path = tmp_path / name
    read, values = _write_grid_file(path, grid, K)
    _edit_rows(path, lambda rows: [rows[i] for i in np.random.default_rng(5).permutation(len(rows))])
    assert np.array_equal(_bits(read()), _bits(values))
