import json

import numpy as np
import pytest

from diffid import Domain, SpectralParams, build_grid, build_scenario
from diffid.cli import main
from diffid.config import load_config
from diffid.errors import ConfigurationError
from diffid.fileio import (
    read_field_csv,
    write_field_csv,
    write_mode_profiles_csv,
    write_modes_csv,
    write_profile_csv,
)


def base_config(out_dir, scenario="MMS-A", N=24, T=0.5, K=3, **overrides):
    cfg = {
        "domain": {"dim": 1, "Lx": np.pi, "T": T},
        "grid": {"Nx": N, "Nt": N, "Ny_quad": 128},
        "spectral": {"K": K, "epsilon": 1.0},
        "scheme": {"theta": 0.5},
        "certify": {"C_S": 1.0, "boundary_margin": 2, "psi_floor": 1e-12},
        "picard": {"tol_F": 1e-10, "max_iters": 40,
                   "force_on_failed_certificate": False},
        "scenario": {"name": scenario},
        "output": {"dir": str(out_dir), "synth_ny": 8},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_certify_null_passes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="NULL")
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["local_pass"] and cert["global_pass"]
    assert "local verdict:  PASS" in capsys.readouterr().out


def test_certify_scaled_mmsa_passes(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=32, T=0.1)
    cfg["scenario"]["scale"] = 1e-3
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 0


def test_certify_failure_names_condition(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=32, T=0.5)
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 2
    assert "4*R*B < 1" in capsys.readouterr().out


def test_missing_config_key_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    del cfg["domain"]["Lx"]
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1
    assert "domain.Lx" in capsys.readouterr().err


def test_missing_grid_Ny_for_2d_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["domain"] = {"dim": 2, "Lx": np.pi, "Ly": np.pi, "T": 0.5}
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1
    assert "grid.Ny" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("picard", "tol_F", float("nan")),
    ("certify", "psi_floor", float("nan")),
    ("domain", "T", float("nan")),
    ("grid", "Nx", 16.9),
])
def test_config_rejects_nan_and_non_integral_numbers(tmp_path, section, key, value):
    cfg = base_config(tmp_path / "out")
    cfg[section][key] = value
    with pytest.raises(ConfigurationError, match=rf"{section}\.{key}"):
        load_config(write_config(tmp_path, cfg))


@pytest.mark.parametrize("section, key, value", [
    ("scheme", "theta", 0.3),
    ("spectral", "epsilon", 0.0),
])
def test_config_rejects_out_of_range_values(tmp_path, section, key, value):
    cfg = base_config(tmp_path / "out")
    cfg[section][key] = value
    with pytest.raises(ConfigurationError, match=rf"{section}\.{key}"):
        load_config(write_config(tmp_path, cfg))


def test_config_accepts_integral_float(tmp_path):
    cfg = base_config(tmp_path / "out", N=16)
    cfg["grid"]["Nx"] = 16.0
    assert load_config(write_config(tmp_path, cfg)).grid.Nx == 16


def test_config_ignores_removed_output_formats_key(tmp_path):
    for formats in ("csv", ["csv", "json"], ["xml"]):
        cfg = base_config(tmp_path / "out")
        cfg["output"]["formats"] = formats
        assert load_config(write_config(tmp_path, cfg)).synth_ny == 8


def test_both_scenario_and_data_rejected(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["data"] = {"psi_file": "x", "f_file": "x", "phi_file": "x", "omega_file": "x"}
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1


def test_forward_null_zero_fields(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="NULL")
    code = main(["forward", "--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    rows = np.loadtxt(out / "u_modes.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 3])) == 0.0


def test_forward_mmsa_residual_refines(tmp_path):
    norms = {}
    for N in (24, 48):
        out = tmp_path / f"out{N}"
        cfg = base_config(out, scenario="MMS-A", N=N)
        code = main(["forward", "--config", str(write_config(tmp_path, cfg, f"c{N}.json"))])
        assert code == 0
        _, _, res = read_field_csv(out / "residual.csv")
        grid = build_grid(Domain((np.pi,), 0.5), Nx=N, Nt=N)
        from diffid import ScalarField, l2_norm_GT

        norms[N] = l2_norm_GT(ScalarField(grid, res))
    assert norms[24] <= 1e-3
    assert norms[24] / norms[48] >= 3.0


def test_invert_requires_certificate_or_force(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=24)
    path = write_config(tmp_path, cfg)
    assert main(["invert", "--config", str(path)]) == 2
    assert (out / "certificate.json").exists()

    assert main(["invert", "--config", str(path), "--force"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert summary["recovery_error_a"] <= 0.05
    for name in ("a.csv", "u_synth.csv", "history.csv", "certificate.json"):
        assert (out / name).exists()


def test_invert_force_via_config_flag(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=24)
    cfg["picard"]["force_on_failed_certificate"] = True
    assert main(["invert", "--config", str(write_config(tmp_path, cfg))]) == 0


def test_invert_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=24)
    cfg["picard"]["max_iters"] = 1
    cfg["picard"]["tol_F"] = 1e-30
    code = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"])
    assert code == 3
    assert (out / "history.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["converged"]


def test_invert_divergence_is_a_result(tmp_path, capsys):
    # the sweep energy grows without bound (2e53 by sweep 8, inf by sweep 11)
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=32, K=4)
    cfg["scenario"]["scale"] = 10
    code = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"])
    assert code == 3
    assert "diverged after" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["converged"]
    assert 1 <= summary["iterations"] < cfg["picard"]["max_iters"]
    history = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1, ndmin=2)
    assert history.shape[0] == summary["iterations"]
    assert np.all(np.isfinite(history[:, 1]))
    _, _, a = read_field_csv(out / "a.csv")
    assert np.all(np.isfinite(a))


def test_invert_data_file_mode_matches_scenario(tmp_path):
    # write the MMS-A fields to CSV, run in data mode, compare to scenario mode
    N, K = 24, 3
    grid = build_grid(Domain((np.pi,), 0.5), Nx=N, Nt=N)
    params = SpectralParams(K=K, Ny=128)
    scn = build_scenario("MMS-A", grid, params)
    write_field_csv(tmp_path / "psi.csv", scn.data.psi)
    write_modes_csv(tmp_path / "f.csv", scn.data.f_modes)
    write_mode_profiles_csv(tmp_path / "phi.csv", scn.data.phi_modes, grid.x)
    write_profile_csv(tmp_path / "omega.csv", scn.omega.y, scn.omega.omega)

    out_data = tmp_path / "out_data"
    cfg = base_config(out_data, N=N, K=K)
    del cfg["scenario"]
    cfg["data"] = {"psi_file": "psi.csv", "f_file": "f.csv",
                   "phi_file": "phi.csv", "omega_file": "omega.csv"}
    assert main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"]) == 0

    out_scn = tmp_path / "out_scn"
    cfg2 = base_config(out_scn, N=N, K=K)
    assert main(["invert", "--config", str(write_config(tmp_path, cfg2, "c2.json")),
                 "--force"]) == 0

    _, _, a_data = read_field_csv(out_data / "a.csv")
    _, _, a_scn = read_field_csv(out_scn / "a.csv")
    assert np.max(np.abs(a_data - a_scn)) <= 1e-8


def test_invert_data_mode_grid_mismatch(tmp_path):
    N, K = 24, 3
    grid = build_grid(Domain((np.pi,), 0.5), Nx=N, Nt=N)
    params = SpectralParams(K=K, Ny=128)
    scn = build_scenario("MMS-A", grid, params)
    write_field_csv(tmp_path / "psi.csv", scn.data.psi)
    write_modes_csv(tmp_path / "f.csv", scn.data.f_modes)
    write_mode_profiles_csv(tmp_path / "phi.csv", scn.data.phi_modes, grid.x)
    write_profile_csv(tmp_path / "omega.csv", scn.omega.y, scn.omega.omega)

    cfg = base_config(tmp_path / "out", N=32, K=K)  # config grid disagrees
    del cfg["scenario"]
    cfg["data"] = {"psi_file": "psi.csv", "f_file": "f.csv",
                   "phi_file": "phi.csv", "omega_file": "omega.csv"}
    assert main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"]) == 1


def test_byte_identical_reruns(tmp_path):
    cfgs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = base_config(out, scenario="MMS-A", N=16, K=2)
        cfgs.append((out, write_config(tmp_path, cfg, f"{tag}.json")))
    for out, path in cfgs:
        assert main(["invert", "--config", str(path), "--force"]) == 0
    a1 = (cfgs[0][0] / "a.csv").read_bytes()
    a2 = (cfgs[1][0] / "a.csv").read_bytes()
    assert a1 == a2
    h1 = (cfgs[0][0] / "history.csv").read_bytes()
    h2 = (cfgs[1][0] / "history.csv").read_bytes()
    assert h1 == h2


def test_mms_command_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=32, K=3)
    code = main(["mms", "--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    conv = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    errs = conv[:, 1]
    assert np.all(np.diff(errs) < 0)
    uniq = (out / "uniqueness.csv").read_text().splitlines()
    assert float(uniq[1].split(",")[1]) <= 1e-8
    strong = np.loadtxt(out / "strong_diagnostics.csv", delimiter=",", skiprows=1)
    assert strong.shape[0] == 2
    assert np.all(np.isfinite(strong))


def test_mms_null_zeros(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="NULL", N=24, K=2)
    code = main(["mms", "--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    conv = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    assert np.max(conv[:, 1]) <= 1e-10
