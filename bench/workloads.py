"""The benchmark's workloads: the config each one runs, the inputs it makes
from the seed, and the output checks that decide whether an operation
succeeded.

A check reads the files a CLI run left in its output directory and raises
CheckError on the first thing that is wrong.  It returns the workload's
accuracy figure, `rel_err`, which it computes itself from the output files
against the manufactured truth, so a corrupted output is caught even when the
program's own summary still looks right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PI = math.pi
T_FINAL = 0.5
K_MODES = 16
NY_QUAD = 256
SYNTH_NY = 32
MARGIN = 2  # certify.boundary_margin: nodes nearer the boundary are copied, not solved


class CheckError(Exception):
    """An output of the CLI run is missing, malformed or inaccurate."""


def base_config(N: int, out_dir: Path) -> dict:
    """The README config at Nx = Nt = N, writing into out_dir."""
    return {
        "domain": {"dim": 1, "Lx": PI, "T": T_FINAL},
        "grid": {"Nx": N, "Nt": N, "Ny_quad": NY_QUAD},
        "spectral": {"K": K_MODES, "epsilon": 1.0},
        "scheme": {"theta": 0.5},
        "certify": {"C_S": 1.0, "boundary_margin": MARGIN, "psi_floor": 1e-12},
        "picard": {"tol_F": 1e-10, "max_iters": 30, "force_on_failed_certificate": False},
        "scenario": {"name": "MMS-A"},
        "output": {"dir": str(out_dir), "synth_ny": SYNTH_NY},
    }


def _nodes(N: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(0.0, T_FINAL, N + 1), np.linspace(0.0, PI, N + 2)


def _interior_rel_l2(values: np.ndarray, truth: np.ndarray) -> float:
    """Relative RMS over space nodes at least MARGIN cells from the boundary,
    the same measure as the program's recovery_error."""
    diff = (values - truth)[..., MARGIN:-MARGIN]
    ref = truth[..., MARGIN:-MARGIN]
    return float(np.sqrt(np.mean(diff**2)) / np.sqrt(np.mean(ref**2)))


# ---------------------------------------------------------------- file checks

def _header_and_rows(path: Path, header: str) -> tuple[bytes, int]:
    """File bytes and data-row count, after checking the header and that the
    file ends on a complete line."""
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    raw = path.read_bytes()
    first = raw.split(b"\n", 1)[0].rstrip(b"\r").decode("utf-8", "replace")
    if first != header:
        raise CheckError(f"{path.name}: header {first!r}, expected {header!r}")
    if not raw.endswith(b"\n"):
        raise CheckError(f"{path.name}: last line is incomplete")
    return raw, raw.count(b"\n") - 1


def _table(path: Path, header: str, rows: int) -> np.ndarray:
    """Parse a numeric CSV and check its header and row count."""
    raw, count = _header_and_rows(path, header)
    if count != rows:
        raise CheckError(f"{path.name}: {count} rows, expected {rows}")
    width = header.count(",") + 1
    try:
        table = np.loadtxt(raw.decode("utf-8").splitlines()[1:], delimiter=",", ndmin=2)
    except ValueError as err:
        raise CheckError(f"{path.name}: unparsable row ({err})") from err
    if table.shape != (rows, width):
        raise CheckError(f"{path.name}: table shape {table.shape}, expected {(rows, width)}")
    return table


def _check_column(path: Path, got: np.ndarray, expected: np.ndarray, name: str) -> None:
    if got.shape != expected.shape or not np.allclose(got, expected, rtol=0.0, atol=1e-9):
        raise CheckError(f"{path.name}: column {name} does not follow the grid")


def _check_synth(path: Path, N: int, truth: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                 scale: float) -> None:
    """u_synth.csv: header, exact row count, and the first and last rows
    against truth(n, i, j), the exact u at node (t_n, x_i, y_j).  The file is
    ~38 MB, so only its ends are parsed; a truncated file fails the count or
    the last rows."""
    t, x = _nodes(N)
    y = np.linspace(0.0, PI, SYNTH_NY + 1)
    rows = (N + 1) * (N + 2) * (SYNTH_NY + 1)
    raw, count = _header_and_rows(path, "t,x,y,value")
    if count != rows:
        raise CheckError(f"{path.name}: {count} rows, expected {rows}")
    lines = raw.split(b"\n")[1:-1]
    sample = 2000
    for offset, part in ((0, lines[:sample]), (rows - sample, lines[-sample:])):
        try:
            table = np.loadtxt([ln.decode() for ln in part], delimiter=",", ndmin=2)
        except ValueError as err:
            raise CheckError(f"{path.name}: unparsable row ({err})") from err
        if table.shape != (sample, 4):
            raise CheckError(f"{path.name}: malformed rows near row {offset}")
        idx = np.arange(offset, offset + sample)
        n, i, j = idx // ((N + 2) * (SYNTH_NY + 1)), (idx // (SYNTH_NY + 1)) % (N + 2), idx % (SYNTH_NY + 1)
        _check_column(path, table[:, 0], t[n], "t")
        _check_column(path, table[:, 1], x[i], "x")
        _check_column(path, table[:, 2], y[j], "y")
        err = np.max(np.abs(table[:, 3] - truth(n, i, j)))
        if not err <= 1e-3 * scale:
            raise CheckError(f"{path.name}: value differs from the truth by {err:.3e}")


def _json(path: Path) -> dict:
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CheckError(f"{path.name}: not valid JSON ({err})") from err


# ------------------------------------------------------------------ workloads

@dataclass
class Prepared:
    """What one run of a workload needs: the CLI arguments, the config and
    output directory, and the check to apply after each operation."""

    argv: list[str]
    config: Path
    out_dir: Path
    check: Callable[[Path, str], float]
    seed_used: bool


def _write_config(run_dir: Path, cfg: dict) -> Path:
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def prepare_invert_readme(run_dir: Path, seed: int) -> Prepared:
    """README config (MMS-A, N = 128), inverted with --force."""
    N = 128
    out = run_dir / "out"
    config = _write_config(run_dir, base_config(N, out))
    t, x = _nodes(N)
    y = np.linspace(0.0, PI, SYNTH_NY + 1)
    u_truth = np.exp(-t)[:, None] * np.sin(x)[None, :]

    def check(out_dir: Path, stdout: str) -> float:
        a = _table(out_dir / "a.csv", "t,x,value", (N + 1) * (N + 2))
        _check_column(out_dir / "a.csv", a[:, 0], np.repeat(t, N + 2), "t")
        _check_column(out_dir / "a.csv", a[:, 1], np.tile(x, N + 1), "x")
        rel = _interior_rel_l2(a[:, 2].reshape(N + 1, N + 2), np.ones((N + 1, N + 2)))
        summary = _json(out_dir / "summary.json")
        if summary.get("converged") is not True:
            raise CheckError("summary.json: run did not converge")
        reported = summary.get("recovery_error_a")
        if not isinstance(reported, float) or not math.isclose(rel, reported, rel_tol=1e-9):
            raise CheckError(f"a.csv gives rel_err {rel:.6e}, summary.json says {reported}")
        if not rel <= 1e-4:
            raise CheckError(f"rel_err {rel:.3e} exceeds 1e-4")
        iters = summary.get("iterations")
        hist = _table(out_dir / "history.csv", "iter,F_diff,q_hat", iters)
        if not hist[-1, 1] <= 1e-10:
            raise CheckError(f"history.csv: last F_diff {hist[-1, 1]:.3e} above tol_F")
        if "q_local" not in _json(out_dir / "certificate.json"):
            raise CheckError("certificate.json: no q_local")
        _check_synth(out_dir / "u_synth.csv", N,
                     lambda n, i, j: u_truth[n, i] * np.sin(y[j]), scale=1.0)
        return rel

    return Prepared(["invert", "--config", str(config), "--force"], config, out, check, False)


def prepare_mms_study(run_dir: Path, seed: int) -> Prepared:
    """MMS-B at N = 192: levels 48/96/192, uniqueness probe, strong diagnostics."""
    N = 192
    out = run_dir / "out"
    cfg = base_config(N, out)
    cfg["scenario"] = {"name": "MMS-B"}
    config = _write_config(run_dir, cfg)
    # exact squared norms of u* = e^{-t} sin x sin y and a* = 1 + t sin x
    u_sq_Q = (1.0 - math.exp(-2.0 * T_FINAL)) / 2.0 * (PI / 2.0) ** 2
    a_sq_GT = PI * T_FINAL + 2.0 * T_FINAL**2 + PI * T_FINAL**3 / 6.0

    def check(out_dir: Path, stdout: str) -> float:
        conv = _table(out_dir / "convergence.csv",
                      "N,err_a,err_u,residual,iterations,converged,order_a", 3)
        if conv[:, 0].tolist() != [48.0, 96.0, 192.0]:
            raise CheckError(f"convergence.csv: levels {conv[:, 0].tolist()}")
        if not np.all(conv[:, 5] == 1.0):
            raise CheckError("convergence.csv: a level did not converge")
        err_a = conv[:, 1]
        if not np.all(np.isfinite(err_a) & (err_a > 0)):
            raise CheckError("convergence.csv: err_a not finite and positive")
        orders = conv[1:, 6]
        if not np.allclose(orders, np.log2(err_a[:-1] / err_a[1:]), rtol=1e-9, atol=0.0):
            raise CheckError("convergence.csv: order_a does not follow err_a")
        if not np.all(np.abs(orders - 2.0) <= 0.2):
            raise CheckError(f"convergence.csv: order_a {orders.tolist()} not near 2")
        rel = float(err_a[-1])
        if not rel <= 4e-5:
            raise CheckError(f"rel_err {rel:.3e} exceeds 4e-5")
        raw, count = _header_and_rows(out_dir / "uniqueness.csv", "scenario,distance")
        fields = raw.decode().splitlines()[1].split(",") if count == 1 else []
        try:
            probe_ok = len(fields) == 2 and fields[0] == "MMS-B" and float(fields[1]) <= 1e-8
        except ValueError:
            probe_ok = False
        if not probe_ok:
            raise CheckError(f"uniqueness.csv: unexpected row {fields}")
        strong = _table(out_dir / "strong_diagnostics.csv",
                        "N,u_sq_Q,lap_u_sq_Q,u_t_sq_Q,u_yy_sq_Q,a_sq_GT", 2)
        if strong[:, 0].tolist() != [96.0, 192.0]:
            raise CheckError(f"strong_diagnostics.csv: levels {strong[:, 0].tolist()}")
        for col, exact in ((1, u_sq_Q), (2, u_sq_Q), (3, u_sq_Q), (4, u_sq_Q), (5, a_sq_GT)):
            if not np.all(np.abs(strong[:, col] / exact - 1.0) <= 1e-3):
                raise CheckError(f"strong_diagnostics.csv: column {col} far from {exact:.6g}")
        return rel

    return Prepared(["mms", "--config", str(config)], config, out, check, False)


def manufactured_pair(seed: int, N: int) -> dict[str, np.ndarray]:
    """Seeded smooth coefficient a >= 0 and band-limited modes u*_k, with the
    data derived from them: f_k = u_t - u_xx + k^2 u + a u, phi_k = u_k(0),
    psi = (pi/2) sum_k omega_k u_k for omega = sin y + c2 sin 2y + c3 sin 3y.

    u*_k = A_k e^{-r_k t} sum_{m<=4} (+-1/m^2) sin(m x): the seed draws a, the
    signs, and A_k and r_k within 10%.  The magnitudes per x-frequency stay
    fixed because they set the discretisation error; drawing them too would
    spread rel_err by ~8% between seeds."""
    rng = np.random.default_rng(seed)
    t, x = _nodes(N)
    tt, xx = t[:, None], x[None, :]
    r = rng.uniform(-1.0, 1.0, 3)
    a = (1.0 + 0.25 * r[0] * (1.0 + tt) * np.sin(xx)
         + 0.25 * r[1] * np.exp(-tt) * np.cos(2.0 * xx + PI * r[2]))

    m = np.arange(1, 5, dtype=float)
    u = np.empty((K_MODES, N + 1, N + 2))
    f = np.empty_like(u)
    for k in range(1, K_MODES + 1):
        amp = rng.choice([-1.0, 1.0]) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0)) / k**2
        rate = 1.0 + 0.1 * rng.uniform(-1.0, 1.0)
        b = rng.choice([-1.0, 1.0], m.size) / m**2
        profile = b @ np.sin(np.outer(m, x))          # s_k(x)
        curvature = (b * m**2) @ np.sin(np.outer(m, x))  # -s_k''(x)
        decay = amp * np.exp(-rate * tt)
        u[k - 1] = decay * profile
        f[k - 1] = decay * ((k * k - rate + a) * profile + curvature)

    c = np.concatenate([[1.0], rng.uniform(-0.2, 0.2, 2)])
    y = np.linspace(0.0, PI, NY_QUAD + 1)
    omega = c @ np.sin(np.outer(np.arange(1, 4), y))
    psi = (PI / 2.0) * np.tensordot(c, u[:3], axes=(0, 0))
    return {"t": t, "x": x, "y": y, "a": a, "u": u, "f": f, "phi": u[:, 0, :].copy(),
            "omega": omega, "psi": psi}


def _write_csv(path: Path, header: str, columns: list[np.ndarray], lead_int: bool = False) -> None:
    """Rows with 17 significant digits, so the program reads the exact values."""
    fmt = ",".join(["%d" if lead_int and c == 0 else "%.17g" for c in range(len(columns))])
    rows = np.column_stack([np.ravel(col) for col in columns]).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(fmt % tuple(row) for row in rows))
        fh.write("\n")


def prepare_forward_data(run_dir: Path, seed: int) -> Prepared:
    """Data-mode forward solve on CSV inputs generated from the seed."""
    N = 128
    pair = manufactured_pair(seed, N)
    t, x, u = pair["t"], pair["x"], pair["u"]
    K, nt, nx = u.shape
    data_dir = run_dir / "data"
    data_dir.mkdir(parents=True)
    T, X = np.meshgrid(t, x, indexing="ij")
    kk = np.repeat(np.arange(1, K + 1), nt * nx)
    _write_csv(data_dir / "psi.csv", "t,x,value", [T, X, pair["psi"]])
    _write_csv(data_dir / "a.csv", "t,x,value", [T, X, pair["a"]])
    _write_csv(data_dir / "f.csv", "k,t,x,value",
               [kk, np.tile(T.ravel(), K), np.tile(X.ravel(), K), pair["f"]], lead_int=True)
    _write_csv(data_dir / "phi.csv", "k,x,value",
               [np.repeat(np.arange(1, K + 1), nx), np.tile(x, K), pair["phi"]], lead_int=True)
    _write_csv(data_dir / "omega.csv", "y,value", [pair["y"], pair["omega"]])

    out = run_dir / "out"
    cfg = base_config(N, out)
    del cfg["scenario"]
    cfg["data"] = {name: f"data/{name.removesuffix('_file')}.csv"
                   for name in ("psi_file", "f_file", "phi_file", "omega_file", "a_file")}
    config = _write_config(run_dir, cfg)
    scale = float(np.max(np.abs(u.sum(axis=0))))
    sines = np.sin(np.outer(np.arange(1, K + 1), np.linspace(0.0, PI, SYNTH_NY + 1)))

    def check(out_dir: Path, stdout: str) -> float:
        if "forward solve done" not in stdout:
            raise CheckError("stdout: no completion line")
        modes = _table(out_dir / "u_modes.csv", "k,t,x,value", K * nt * nx)
        path = out_dir / "u_modes.csv"
        _check_column(path, modes[:, 0], kk.astype(float), "k")
        _check_column(path, modes[:, 1], np.tile(T.ravel(), K), "t")
        _check_column(path, modes[:, 2], np.tile(X.ravel(), K), "x")
        rel = _interior_rel_l2(modes[:, 3].reshape(u.shape), u)
        if not rel <= 1e-4:
            raise CheckError(f"rel_err {rel:.3e} exceeds 1e-4")
        res = _table(out_dir / "residual.csv", "t,x,value", nt * nx)
        if not np.max(np.abs(res[:, 2])) <= 1e-2 * np.max(np.abs(pair["psi"])):
            raise CheckError("residual.csv: overdetermination residual is not small")
        _check_synth(out_dir / "u_synth.csv", N,
                     lambda n, i, j: np.einsum("kr,kr->r", u[:, n, i], sines[:, j]), scale=scale)
        return rel

    return Prepared(["forward", "--config", str(config)], config, out, check, True)


WORKLOADS = {
    "invert-readme": prepare_invert_readme,
    "mms-study": prepare_mms_study,
    "forward-data": prepare_forward_data,
}
