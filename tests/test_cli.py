import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffid
from diffid import Domain, SpectralParams, build_grid, build_scenario
from diffid.cli import main
from diffid.config import load_config
from diffid.problem import COMPATIBILITY_RTOL
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


def test_certify_readme_config_prints_failing_conditions(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", N=128, K=16)
    cfg["grid"]["Ny_quad"] = 256
    cfg["picard"]["max_iters"] = 30
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "failing conditions: 4*R*B < 1; 4*R1*B < 1"
    table = {line.split("] ")[1].rsplit(None, 2)[0]: line.rsplit(None, 1)[1]
             for line in lines if line.startswith("[")}
    assert table == {"2*Psi_M*T <= A_eps*C_S": "yes", "T <= 1": "yes", "4*R*B < 1": "NO",
                     "2*Psi_M^2*C_P <= A_eps^2*C_S^2": "yes", "4*R1*B < 1": "NO"}


@pytest.mark.parametrize("scenario, incompatible", [("MMS-A", False), ("NULL", True)])
def test_certify_reports_data_compatibility(tmp_path, capsys, scenario, incompatible):
    out = tmp_path / "out"
    main(["certify", "--config", str(write_config(tmp_path, base_config(out, scenario)))])
    data = build_scenario(scenario, build_grid(Domain((np.pi,), 0.5), Nx=24, Nt=24),
                          SpectralParams(K=3, Ny=128)).data
    residual = data.compatibility_residual()
    assert json.loads((out / "certificate.json").read_text())["compatibility_residual"] == residual
    captured = capsys.readouterr()
    assert f"data compatibility residual: {residual:.6e}" in captured.out.splitlines()
    bound = COMPATIBILITY_RTOL * diffid.l2_norm_G(data.psi.values[0], data.grid)
    if incompatible:
        assert residual > bound
        assert captured.err == f"warning: {data.compatibility_warning()}\n"
    else:
        assert residual <= 1e-12 * bound
        assert captured.err == ""


def test_missing_config_key_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    del cfg["domain"]["Lx"]
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1
    assert "domain.Lx" in capsys.readouterr().err


def test_domain_dim_2_exits_one_on_every_command(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["domain"]["dim"] = 2
    path = str(write_config(tmp_path, cfg))
    for command in ("certify", "forward", "invert", "mms"):
        assert main([command, "--config", path, "--force"]) == 1, command
        assert "domain.dim" in capsys.readouterr().err, command


def test_cli_import_loads_no_scipy():
    src = str(Path(diffid.__file__).resolve().parents[1])
    probe = ("import sys, diffid.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "[]"


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


DATA_FILES = {"psi_file": "psi.csv", "f_file": "f.csv", "phi_file": "phi.csv",
              "omega_file": "omega.csv"}


@pytest.mark.parametrize("section, key, value", [
    # one range check per key
    ("domain", "dim", 2),
    ("domain", "Lx", -1.0),
    ("domain", "T", 0.0),
    ("grid", "Nx", 1),
    ("grid", "Nt", 1),
    ("spectral", "K", 0),
    ("spectral", "epsilon", 0.0),
    ("scheme", "theta", 0.3),
    ("scheme", "theta", 1.5),
    ("certify", "C_S", -1.0),
    ("certify", "boundary_margin", 0),
    ("certify", "psi_floor", 0.0),
    ("picard", "tol_F", 0.0),
    ("picard", "max_iters", 0),
    ("scenario", "name", "MMS-C"),
    ("scenario", "scale", 0.0),
    ("output", "synth_ny", 1),
    # rules that span keys (base_config has K = 3, Nx = 24)
    ("grid", "Ny_quad", 8),
    ("certify", "boundary_margin", 13),
    ("domain", "Lx", 3.0),
    ("scenario", None, None),
    ("data", None, DATA_FILES),
    # paths and names must be JSON strings
    ("output", "dir", None),
    ("output", "dir", 5),
    ("scenario", "name", 1),
    ("data", "psi_file", None),
    ("data", "f_file", 5),
    ("data", "phi_file", ["phi.csv"]),
    ("data", "omega_file", None),
    ("data", "a_file", None),
    ("grid", "Nx", "16"),
    ("spectral", "K", True),
])
def test_config_rejects_out_of_range_values(tmp_path, capsys, section, key, value):
    """A bad value fails load_config and exits 1 with one error line, each
    naming the dotted key (or, for scenario-vs-data, both sections)."""
    cfg = base_config(tmp_path / "out")
    if key is None:
        cfg[section] = value
    else:
        if section == "data":
            del cfg["scenario"]
            cfg["data"] = dict(DATA_FILES)
        cfg[section][key] = value
    name = re.escape(section if key is None else f"{section}.{key}")
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigurationError, match=name):
        load_config(path)
    assert main(["certify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: config: [^\n]*{name}[^\n]*\n", err), err
    assert not (tmp_path / "out").exists()


def test_readme_example_config_loads(tmp_path):
    """The README's example config loads to the grid, K and theta it
    documents, and its key table lists exactly the keys load_config reads."""
    from diffid.config import _SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = load_config(write_config(tmp_path, json.loads(example)))
    assert (cfg.grid.Nx, cfg.grid.Nt, cfg.grid.domain.T) == (128, 128, 0.5)
    assert (cfg.params.K, cfg.params.Ny, cfg.theta) == (16, 256, 0.5)
    assert cfg.scenario_name == "MMS-A"
    documented = re.findall(r"^\| `(\w+\.\w+)` \|", readme, re.M)
    assert documented == [f"{s}.{k}" for s, keys in _SCHEMA.items() for k in keys]


@pytest.mark.parametrize("section, key, hint", [
    ("domain", "Ly", None),
    ("grid", "Ny", None),
    ("spectral", "eps", "spectral.epsilon"),
    ("scheme", "thetta", "scheme.theta"),
    ("certify", "C_s", "certify.C_S"),
    ("picard", "max_iter", "picard.max_iters"),
    ("scenario", "nme", "scenario.name"),
    ("data", "a_files", "data.a_file"),
    ("output", "directory", None),
])
def test_config_rejects_unknown_key(tmp_path, capsys, section, key, hint):
    cfg = base_config(tmp_path / "out")
    if section == "data":
        del cfg["scenario"]
        cfg["data"] = {"psi_file": "psi.csv", "f_file": "f.csv", "phi_file": "phi.csv",
                       "omega_file": "omega.csv"}
    cfg[section][key] = 1
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigurationError, match=rf"unknown key {section}\.{key}\b") as err:
        load_config(path)
    if hint is not None:
        assert f"did you mean {hint}?" in str(err.value)
    assert main(["invert", "--config", str(path)]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_rejects_unknown_section(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["scenarios"] = {"name": "MMS-A"}
    with pytest.raises(ConfigurationError, match=r"unknown section 'scenarios' \(did you mean scenario\?\)"):
        load_config(write_config(tmp_path, cfg))


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_config_force_flag_must_be_boolean(tmp_path, value):
    cfg = base_config(tmp_path / "out")
    cfg["picard"]["force_on_failed_certificate"] = value
    with pytest.raises(ConfigurationError, match=r"picard\.force_on_failed_certificate"):
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
        grid = build_grid(Domain((np.pi,), 0.5), Nx=N, Nt=N)
        norms[N] = diffid.l2_norm_GT(read_field_csv(out / "residual.csv", grid))
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
    assert summary["stop_reason"] == "converged"
    assert summary["recovery_error_a"] <= 0.05
    for name in ("a.csv", "u_synth.csv", "history.csv", "certificate.json"):
        assert (out / name).exists()


def test_invert_summary_keeps_warnings(tmp_path):
    cfg = base_config(tmp_path / "forced", N=128, K=16)
    cfg["grid"]["Ny_quad"] = 256
    cfg["picard"]["max_iters"] = 30
    assert main(["invert", "--config", str(write_config(tmp_path, cfg, "forced.json")),
                 "--force"]) == 0
    summary = json.loads((tmp_path / "forced" / "summary.json").read_text())
    assert len(summary["warnings"]) == 1
    assert re.fullmatch(r"running despite failed certificate \(q_local = \S+\)",
                        summary["warnings"][0])

    # a passing certificate needs scaled data (phi scaled, psi kept), which
    # disagrees with psi(0): its one warning is the compatibility report
    cfg = base_config(tmp_path / "passing", N=32, T=0.1)
    cfg["scenario"]["scale"] = 1e-3
    assert main(["invert", "--config", str(write_config(tmp_path, cfg, "passing.json"))]) == 0
    summary = json.loads((tmp_path / "passing" / "summary.json").read_text())
    assert len(summary["warnings"]) == 1
    assert summary["warnings"][0].startswith("data compatibility residual")


@pytest.mark.parametrize("scenario, force, incompatible", [
    ("MMS-A", True, False),
    ("NULL", False, True),
])
def test_invert_reports_data_compatibility(tmp_path, scenario, force, incompatible):
    """summary.json carries the compatibility residual; above the relative
    bound the run warns, and still runs."""
    out = tmp_path / "out"
    args = ["invert", "--config", str(write_config(tmp_path, base_config(out, scenario)))]
    assert main(args + ["--force"] * force) == 0
    summary = json.loads((out / "summary.json").read_text())
    data = build_scenario(scenario, build_grid(Domain((np.pi,), 0.5), Nx=24, Nt=24),
                          SpectralParams(K=3, Ny=128)).data
    assert summary["compatibility_residual"] == data.compatibility_residual()
    bound = COMPATIBILITY_RTOL * diffid.l2_norm_G(data.psi.values[0], data.grid)
    compat = [w for w in summary["warnings"] if w.startswith("data compatibility residual")]
    if incompatible:
        assert summary["compatibility_residual"] > bound
        assert summary["warnings"] == compat
        assert re.fullmatch(r"data compatibility residual \S+ exceeds 1e-06 \* \|\|psi\(0, \.\)\|\| "
                            r"= \S+: phi and psi\(0\) disagree", compat[0])
    else:
        assert summary["compatibility_residual"] <= 1e-12 * bound
        assert compat == []


@pytest.mark.parametrize("scenario, edit", [
    ("MMS-A", lambda cfg: cfg["scenario"].update(scale=1e200)),
    ("NULL", lambda cfg: cfg["domain"].update(T=1e-200)),
    ("NULL", lambda cfg: cfg["domain"].update(T=5e-324)),
], ids=["scale-1e200", "T-1e-200", "T-5e-324"])
def test_extreme_magnitudes_exit_1(tmp_path, capsys, scenario, edit):
    """Finite data beyond float range for the certificate constants, or a
    time step below the smallest normal float, fail with one named error."""
    cfg = base_config(tmp_path / "out", scenario)
    edit(cfg)
    assert main(["certify", "--config", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: (certificate constant \w+ = (inf|nan) is not a finite "
                        r"nonnegative number|config: domain\.T [^\n]*)\n", err), err


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
    assert summary["stop_reason"] == "max_iters"


def test_invert_divergence_is_a_result(tmp_path, capsys):
    # the sweep energy grows without bound (2e53 by sweep 8, inf by sweep 11)
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=32, K=4)
    cfg["scenario"]["scale"] = 10
    path = write_config(tmp_path, cfg)
    code = main(["invert", "--config", str(path), "--force"])
    assert code == 3
    assert "diverged after" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["converged"]
    assert summary["stop_reason"] == "diverged"
    assert 1 <= summary["iterations"] < cfg["picard"]["max_iters"]
    history = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1, ndmin=2)
    assert history.shape[0] == summary["iterations"]
    assert np.all(np.isfinite(history[:, 1]))
    a = read_field_csv(out / "a.csv", load_config(path).grid).values
    assert np.all(np.isfinite(a))


def write_mmsa_data(tmp_path, out, N=24, K=3):
    """Write the MMS-A data as CSV files; return a data-mode config for them."""
    grid = build_grid(Domain((np.pi,), 0.5), Nx=N, Nt=N)
    scn = build_scenario("MMS-A", grid, SpectralParams(K=K, Ny=128))
    write_field_csv(tmp_path / "psi.csv", scn.data.psi)
    write_modes_csv(tmp_path / "f.csv", scn.data.f_modes)
    write_mode_profiles_csv(tmp_path / "phi.csv", scn.data.phi_modes, grid.x)
    write_profile_csv(tmp_path / "omega.csv", scn.omega.y, scn.omega.omega)
    cfg = base_config(out, N=N, K=K)
    del cfg["scenario"]
    cfg["data"] = {"psi_file": "psi.csv", "f_file": "f.csv",
                   "phi_file": "phi.csv", "omega_file": "omega.csv"}
    return cfg


def test_invert_data_file_mode_matches_scenario(tmp_path):
    # write the MMS-A fields to CSV, run in data mode, compare to scenario mode
    out_data = tmp_path / "out_data"
    cfg = write_mmsa_data(tmp_path, out_data)
    assert main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"]) == 0

    out_scn = tmp_path / "out_scn"
    cfg2 = base_config(out_scn, N=24, K=3)
    path2 = write_config(tmp_path, cfg2, "c2.json")
    assert main(["invert", "--config", str(path2), "--force"]) == 0

    grid = load_config(path2).grid
    a_data = read_field_csv(out_data / "a.csv", grid).values
    a_scn = read_field_csv(out_scn / "a.csv", grid).values
    assert np.max(np.abs(a_data - a_scn)) <= 1e-8


def test_forward_data_mode_matches_scenario(tmp_path, capsys):
    cfg = write_mmsa_data(tmp_path, tmp_path / "out_data")
    cfg_path = write_config(tmp_path, cfg)
    psi = (tmp_path / "psi.csv").read_bytes()
    (tmp_path / "psi.csv").unlink()  # the a_file check comes before any read
    assert main(["forward", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: forward runs in data mode need data.a_file\n"

    (tmp_path / "psi.csv").write_bytes(psi)
    grid = load_config(cfg_path).grid
    truth = build_scenario("MMS-A", grid, SpectralParams(K=3, Ny=128)).truth_a
    write_field_csv(tmp_path / "a.csv", truth)
    cfg["data"]["a_file"] = "a.csv"
    assert main(["forward", "--config", str(write_config(tmp_path, cfg))]) == 0
    scn_cfg = base_config(tmp_path / "out_scn", N=24, K=3)
    assert main(["forward", "--config", str(write_config(tmp_path, scn_cfg, "c2.json"))]) == 0
    assert ((tmp_path / "out_data" / "u_modes.csv").read_bytes()
            == (tmp_path / "out_scn" / "u_modes.csv").read_bytes())


def _shift_mode_labels(shift):
    def edit(tmp_path, cfg):
        path = tmp_path / "phi.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = [f"{int(k) + shift},{rest}" for k, rest in (row.split(",", 1) for row in rows)]
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return edit


def _nonuniform_omega(tmp_path, cfg):
    s = np.linspace(0.0, 1.0, 129)
    y = np.pi * (s + 0.05 * np.sin(2 * np.pi * s))  # strictly increasing, spans [0, pi]
    write_profile_csv(tmp_path / "omega.csv", y, np.sin(y))


def _config_grid_disagrees(tmp_path, cfg):
    cfg["grid"]["Nx"] = cfg["grid"]["Nt"] = 32


@pytest.mark.parametrize("edit, message", [
    (_config_grid_disagrees, r"psi\.csv: t = \S+ is not one of the 33 configured nodes"),
    (_shift_mode_labels(-1), r"phi\.csv: k = 0 is not one of the 3 configured nodes"),
    (_shift_mode_labels(+1), r"phi\.csv: k = 4 is not one of the 3 configured nodes"),
    (_nonuniform_omega, r"omega's y nodes must be uniformly spaced"),
], ids=["grid", "k-from-0", "k-from-2", "omega-nonuniform"])
def test_invert_data_mode_bad_input_exits_1(tmp_path, capsys, edit, message):
    cfg = write_mmsa_data(tmp_path, tmp_path / "out")
    edit(tmp_path, cfg)
    assert main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: .*{message}.*\n", err), err
    assert not (tmp_path / "out" / "a.csv").exists()


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


def test_mms_summary_keeps_warnings(tmp_path):
    # MMS-B fails the certificate at every level, and each run says so once
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-B", N=32, K=3)
    assert main(["mms", "--config", str(write_config(tmp_path, cfg))]) == 0
    warned = json.loads((out / "summary.json").read_text())["warnings"]
    failed = [w for w in warned if w.startswith("running despite failed certificate")]
    assert failed and len(set(warned)) == len(warned)


def test_mms_null_zeros(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="NULL", N=24, K=2)
    code = main(["mms", "--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    conv = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    assert np.max(conv[:, 1]) <= 1e-10


@pytest.mark.parametrize("N", [6, 8, 16])
def test_mms_rejects_grid_with_fewer_than_three_levels(tmp_path, capsys, N):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=N, K=2)
    code = main(["mms", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1
    assert f"grid.Nx = {N}" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()
