import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import diffid
from diffid import (CertifyOptions, Grid, ModeFieldSet, OmegaData, ProblemData, ScalarField,
                    SpectralParams, build_scenario, compute_certificate, run_inversion)
from diffid.certificates import Certificate
from diffid.cli import main
from diffid.config import assemble_data, load_config
from diffid.problem import COMPATIBILITY_RTOL
from diffid.errors import ConfigurationError
from diffid.grids import l2_sq_G, l2_sq_GT
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


def test_certify_with_an_overflowing_zero_mode_weight_is_a_verdict(tmp_path, capsys):
    # MMS-B at K = 2 leaves mode 2 zero; at eps = 2000 its weight overflows,
    # which made R = nan and exit 1 before zero rows were skipped
    cfg = base_config(tmp_path / "out", scenario="MMS-B", N=16, K=2)
    cfg["spectral"]["epsilon"] = 2000.0
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    captured = capsys.readouterr()
    assert code == 2 and "error:" not in captured.out + captured.err
    assert np.isfinite(json.loads((tmp_path / "out" / "certificate.json").read_text())["R"])


def test_certify_readme_config_prints_failing_conditions(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", N=128, K=16)
    cfg["grid"]["Ny_quad"] = 256
    cfg["picard"]["max_iters"] = 30
    code = main(["certify", "--config", str(write_config(tmp_path, cfg))])
    assert code == 2
    assert capsys.readouterr().out == (
        "condition                                      margin  holds\n"
        "[local] 2*Psi_M*T <= A_eps*C_S          +5.665284e+01  yes\n"
        "[local] T <= 1                          +5.000000e-01  yes\n"
        "[local] 4*R*B < 1                       -1.040019e+06  NO\n"
        "[global] 2*Psi_M^2*C_P <= A_eps^2*C_S^2  +3.432161e+03  yes\n"
        "[global] 4*R1*B < 1                      -3.482974e+05  NO\n"
        "local verdict:  FAIL\n"
        "global verdict: FAIL\n"
        "data compatibility residual: 0.000000e+00\n"
        "failing conditions: 4*R*B < 1; 4*R1*B < 1\n")


def _compatibility(scenario, N=24, K=3, scale=1.0):
    """The scenario's compatibility residual and the messages it warns with."""
    data = build_scenario(scenario, Grid(np.pi, 0.5, Nx=N, Nt=N),
                          SpectralParams(K=K, Ny=128), scale=scale).data
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        residual = data.compatibility()
    bound = COMPATIBILITY_RTOL * np.sqrt(l2_sq_G(data.psi.values[0], data.grid))
    return residual, bound, [str(w.message) for w in caught]


@pytest.mark.parametrize("scenario, incompatible", [("MMS-A", False), ("NULL", True)])
def test_certify_reports_data_compatibility(tmp_path, capsys, scenario, incompatible):
    """certify prints the residual, and above the bound one warning line."""
    out = tmp_path / "out"
    main(["certify", "--config", str(write_config(tmp_path, base_config(out, scenario)))])
    residual, bound, messages = _compatibility(scenario)
    assert json.loads((out / "certificate.json").read_text())["compatibility_residual"] == residual
    captured = capsys.readouterr()
    assert f"data compatibility residual: {residual:.6e}" in captured.out.splitlines()
    if incompatible:
        assert residual > bound and len(messages) == 1
        assert captured.err == f"warning: {messages[0]}\n"
    else:
        assert residual <= 1e-12 * bound
        assert messages == []
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
        assert main([command, "--config", path] + ["--force"] * (command == "invert")) == 1
        assert "domain.dim" in capsys.readouterr().err, command


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["certify"], "the following arguments are required: --config"),
    (["frob", "--config", "{path}"], "invalid choice: 'frob'"),
    (["certify", "--config", "{path}", "--force"], "unrecognized arguments: --force"),
    (["forward", "--config", "{path}", "--force"], "unrecognized arguments: --force"),
    (["mms", "--config", "{path}", "--force"], "unrecognized arguments: --force"),
], ids=["no-command", "no-config", "unknown-command", "certify-force", "forward-force",
        "mms-force"])
def test_usage_errors_exit_one(tmp_path, capsys, argv, message):
    path = str(write_config(tmp_path, base_config(tmp_path / "out")))
    assert main([arg.format(path=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: diffid")
    assert message in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["invert", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: diffid")
    assert ("--force" in out) == (argv[0] == "invert")


def test_cli_import_loads_no_scipy():
    src = str(Path(diffid.__file__).resolve().parents[1])
    probe = ("import sys, diffid.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "[]"


#: modules no run needs: importing numpy.ma, numpy.random, numpy.polynomial
#: or numpy.fft costs 1.3, 6.3, 0.6 or 0.2 MB of peak memory (np.unique, so
#: np.union1d, imports numpy.ma), and difflib serves only a config error
UNUSED_MODULES = ("numpy.ma", "numpy.random", "numpy.polynomial", "numpy.fft", "difflib")


@pytest.mark.parametrize("command", ["setup", "certify", "forward-data", "invert-force", "mms"])
def test_runs_load_no_unused_modules(tmp_path, command):
    src = str(Path(diffid.__file__).resolve().parents[1])
    config = str(write_config(tmp_path, base_config(tmp_path / "out", N=32, K=2)))
    if command == "setup":  # the import and config load that bench times as setup_s
        run = f"from diffid.config import load_config; load_config({config!r}); code = 0"
    else:
        if command == "certify":  # NULL passes the certificate
            config = str(write_config(tmp_path, base_config(tmp_path / "out", scenario="NULL")))
        elif command == "forward-data":
            cfg = write_mms_data(tmp_path, tmp_path / "out")
            grid = load_config(write_config(tmp_path, cfg)).grid
            write_field_csv(tmp_path / "a.csv", ScalarField(grid, np.ones(grid.field_shape)))
            cfg["data"]["a_file"] = "a.csv"
            config = str(write_config(tmp_path, cfg))
        argv = {"certify": ["certify"], "forward-data": ["forward"],
                "invert-force": ["invert", "--force"], "mms": ["mms"]}[command]
        run = f"code = diffid.cli.main({argv + ['--config', config]!r})"
    probe = (f"import sys, diffid.cli; {run}; "
             f"print(code, [m for m in {UNUSED_MODULES!r} if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip().splitlines()[-1] == "0 []"


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
    # a data path must name a file: "" would resolve to the config's directory
    ("data", "psi_file", ""),
    ("data", "a_file", ""),
    # "" would make the working directory the output directory
    ("output", "dir", ""),
    ("grid", "Nx", "16"),
    ("spectral", "K", True),
    # sizes that give an array of over sys.maxsize bytes, where numpy raises
    # ValueError before it allocates anything (output.synth_ny's only after
    # invert has written a.csv)
    ("grid", "Nx", 1e300),
    ("grid", "Nt", 1e300),
    ("grid", "Ny_quad", 1e300),
    ("output", "synth_ny", 1e300),
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


@pytest.mark.parametrize("edits, name, shown", [
    ({("grid", "Ny_quad"): 1e300, ("spectral", "K"): 1e300}, "grid.Ny_quad",
     "4 * spectral.K = 4e+300, got 1e+300"),
    # 4 * spectral.K beyond float range
    ({("grid", "Ny_quad"): 1e300, ("spectral", "K"): 1e308}, "grid.Ny_quad",
     "4 * spectral.K = 4e+308, got 1e+300"),
    ({("grid", "Nx"): 1e300, ("certify", "boundary_margin"): 1e300}, "certify.boundary_margin",
     "(grid.Nx + 1) // 2 = 5e+299 to leave interior nodes, got 1e+300"),
], ids=["Ny_quad-K", "Ny_quad-K-past-float", "margin-Nx"])
def test_config_prints_huge_integers_of_cross_key_rules_compactly(tmp_path, capsys, edits,
                                                                  name, shown):
    """A rule that spans keys prints the integers beyond 2**53 that it names
    in .6g, not in full: one short error line naming the key."""
    cfg = base_config(tmp_path / "out")
    for (section, key), value in edits.items():
        cfg[section][key] = value
    assert main(["certify", "--config", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: config: {re.escape(name)} [^\n]*\n", err), err
    assert shown in err and len(err) < 200, err


def test_readme_example_config_loads(tmp_path):
    """The README's example config loads to the grid, K and theta it
    documents, and its key table lists exactly the keys load_config reads."""
    from diffid.config import _SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = load_config(write_config(tmp_path, json.loads(example)))
    assert (cfg.grid.Nx, cfg.grid.Nt, cfg.grid.T) == (128, 128, 0.5)
    assert (cfg.params.K, cfg.params.Ny, cfg.theta) == (16, 256, 0.5)
    assert cfg.scenario_name == "MMS-A"
    documented = re.findall(r"^\| `(\w+\.\w+)` \|", readme, re.M)
    assert documented == [f"{s}.{k}" for s, keys in _SCHEMA.items() for k in keys]


def test_readme_library_example_runs(capsys):
    """The README's python block runs as written; it forces the run past the
    failing certificate of the README grid, which warns."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    with pytest.warns(RuntimeWarning, match="running despite failed certificate"):
        exec(example, {})
    assert capsys.readouterr().out.splitlines()[1] == "[1]"


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


def test_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"domain": \xff}')
    assert main(["certify", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: config file is not UTF-8 text: {path}: "
                                       "byte 0xff (invalid start byte)\n")


def test_config_with_a_byte_order_mark_loads(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_config(marked) == load_config(path)


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


def test_config_rejects_output_formats_key(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["output"]["formats"] = ["csv"]
    with pytest.raises(ConfigurationError, match=r"unknown key output\.formats"):
        load_config(write_config(tmp_path, cfg))


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


def test_forward_scaled_scenario_exits_1(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", scenario="MMS-A")
    cfg["scenario"]["scale"] = 0.5
    assert main(["forward", "--config", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == ("error: forward needs scenario.scale = 1: a scaled "
                                       "scenario carries no coefficient to solve with, "
                                       "got 0.5\n")


def test_forward_mmsa_residual_refines(tmp_path):
    norms = {}
    for N in (24, 48):
        out = tmp_path / f"out{N}"
        cfg = base_config(out, scenario="MMS-A", N=N)
        code = main(["forward", "--config", str(write_config(tmp_path, cfg, f"c{N}.json"))])
        assert code == 0
        grid = Grid(np.pi, 0.5, Nx=N, Nt=N)
        norms[N] = np.sqrt(l2_sq_GT(read_field_csv(out / "residual.csv", grid).values, grid))
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


def _reference_json(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def test_certificate_and_history_bytes(tmp_path):
    # every certificate.json is json.dumps(indent=2) of the certificate's
    # fields, and history.csv a csv-module table with floats as "%.17g"
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out, scenario="MMS-A", N=24))
    cfg = load_config(path)
    data, _ = assemble_data(cfg)
    cert = compute_certificate(data, cfg.certify)

    assert main(["certify", "--config", str(path)]) == 2
    assert (out / "certificate.json").read_bytes() == _reference_json(
        {**asdict(cert), "compatibility_residual": data.compatibility()})

    assert main(["invert", "--config", str(path)]) == 2
    assert (out / "certificate.json").read_bytes() == _reference_json(asdict(cert))

    assert main(["invert", "--config", str(path), "--force"]) == 0
    assert (out / "certificate.json").read_bytes() == _reference_json(asdict(cert))
    with pytest.warns(RuntimeWarning, match="running despite failed certificate"):
        result = run_inversion(data, cfg.certify, tol_F=cfg.tol_F, max_iters=cfg.max_iters,
                               theta=cfg.theta, force=True)
    reference = tmp_path / "history.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "F_diff", "q_hat"])
        for i, f in enumerate(result.F_diff_history, start=1):
            q = result.ratio_history[i - 2] if i >= 2 else float("nan")
            writer.writerow([i, format(f, ".17g"), format(q, ".17g")])
    assert result.iterations >= 3
    assert (out / "history.csv").read_bytes() == reference.read_bytes()


def test_certify_and_invert_write_one_certificate(tmp_path):
    """certify and invert --force on one data-mode config write the same
    certificate.json but for certify's compatibility_residual, and each
    rebuilds from its constants through Certificate."""
    out_certify, out_invert = tmp_path / "certify", tmp_path / "invert"
    cfg = write_mms_data(tmp_path, out_certify, "MMS-B")
    assert main(["certify", "--config", str(write_config(tmp_path, cfg))]) == 2
    cfg["output"]["dir"] = str(out_invert)
    assert main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"]) == 0
    certified = json.loads((out_certify / "certificate.json").read_text())
    inverted = json.loads((out_invert / "certificate.json").read_text())
    assert certified.pop("compatibility_residual") >= 0.0
    assert certified == inverted
    init = [f.name for f in fields(Certificate) if f.init]
    assert asdict(Certificate(**{k: inverted[k] for k in init})) == inverted


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
    residual, bound, messages = _compatibility(scenario)
    assert summary["compatibility_residual"] == residual
    compat = [w for w in summary["warnings"] if w.startswith("data compatibility residual")]
    if incompatible:
        assert summary["compatibility_residual"] > bound
        assert summary["warnings"] == compat == messages
        assert re.fullmatch(r"data compatibility residual \S+ exceeds 1e-06 \* \|\|psi\(0, \.\)\|\| "
                            r"= \S+: phi and psi\(0\) disagree", compat[0])
    else:
        assert summary["compatibility_residual"] <= 1e-12 * bound
        assert compat == messages == []
    if scenario == "NULL":
        # zero truth u, zero result u: an absolute error of exactly 0
        assert summary["recovery_error_u"] == 0.0


def test_failed_certificate_prints_the_compatibility_warning(tmp_path, capsys):
    """invert without --force stops at the failed certificate (exit 2) with
    no summary.json, so the compatibility warning is printed on stderr."""
    out = tmp_path / "out"
    cfg = base_config(out, N=32)
    cfg["scenario"]["scale"] = 2.0
    assert main(["invert", "--config", str(write_config(tmp_path, cfg))]) == 2
    _, _, messages = _compatibility("MMS-A", N=32, scale=2.0)
    err = capsys.readouterr().err.splitlines()
    assert len(messages) == 1 and messages[0].startswith("data compatibility residual")
    assert [line for line in err if line.startswith("warning:")] == [f"warning: {messages[0]}"]
    assert err[0].startswith("certificate failed:")
    assert not (out / "summary.json").exists()


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


def write_mms_data(tmp_path, out, name="MMS-A", N=24, K=3, Ny=128):
    """Write the data of scenario name, with omega on Ny + 1 nodes, as CSV
    files; return a data-mode config for them."""
    grid = Grid(np.pi, 0.5, Nx=N, Nt=N)
    scn = build_scenario(name, grid, SpectralParams(K=K, Ny=Ny))
    write_field_csv(tmp_path / "psi.csv", scn.data.psi)
    write_modes_csv(tmp_path / "f.csv", scn.data.f_modes)
    write_mode_profiles_csv(tmp_path / "phi.csv", scn.data.phi_modes, grid.x)
    y = scn.data.params.y
    write_profile_csv(tmp_path / "omega.csv", y, np.sin(y))
    cfg = base_config(out, N=N, K=K)
    cfg["grid"]["Ny_quad"] = Ny
    del cfg["scenario"]
    cfg["data"] = {"psi_file": "psi.csv", "f_file": "f.csv",
                   "phi_file": "phi.csv", "omega_file": "omega.csv"}
    return cfg


def test_data_paths_resolve_against_the_config_file(tmp_path, monkeypatch):
    # a relative data path names a file from the config file's directory,
    # whatever the working directory; an absolute one is taken as is
    cfg = write_mms_data(tmp_path, tmp_path / "out")
    plain = write_config(tmp_path, cfg)
    for sub in ("configs", "elsewhere"):
        (tmp_path / sub).mkdir()
    cfg["data"] = {k: f"../{v}" for k, v in DATA_FILES.items()}
    cfg["data"]["omega_file"] = str(tmp_path / "omega.csv")
    cfg["output"]["dir"] = str(tmp_path / "out_nested")
    nested = write_config(tmp_path / "configs", cfg)
    files = load_config(nested).data_files
    assert {k: v.resolve() for k, v in files.items()} == {
        k: (tmp_path / v).resolve() for k, v in DATA_FILES.items()}

    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["certify", "--config", str(plain)]) == 2
    assert main(["certify", "--config", "../configs/config.json"]) == 2
    assert ((tmp_path / "out_nested" / "certificate.json").read_bytes()
            == (tmp_path / "out" / "certificate.json").read_bytes())


def test_relative_output_dir_is_under_the_working_directory(tmp_path, monkeypatch):
    # unlike a data path, a relative output.dir is taken as given: it names a
    # directory under the working directory, not under the config file's
    for sub in ("configs", "elsewhere"):
        (tmp_path / sub).mkdir()
    write_config(tmp_path / "configs", base_config("rel_out", scenario="NULL", K=2))
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["certify", "--config", "../configs/config.json"]) == 0
    assert (tmp_path / "elsewhere" / "rel_out" / "certificate.json").is_file()
    assert not (tmp_path / "configs" / "rel_out").exists()


@pytest.mark.parametrize("name, N, K, Ny", [
    pytest.param(name, N, K, Ny, id=name + tag)
    for N, K, Ny, tag in ((24, 3, 128, ""), (48, 4, 64, "-Ny64"))
    for name in ("MMS-A", "MMS-B")])
def test_invert_data_file_mode_matches_scenario(tmp_path, capsys, name, N, K, Ny):
    # write the scenario's fields to CSV, run in data mode, compare to
    # scenario mode: both reduce omega to the same sine coefficients, from
    # which the couplings and the certificate's ||omega''|| both come, so
    # certify and invert agree byte for byte
    out_data, out_scn = tmp_path / "out_data", tmp_path / "out_scn"
    cfg_data = write_config(tmp_path, write_mms_data(tmp_path, out_data, name, N, K, Ny))
    cfg_scn = base_config(out_scn, scenario=name, N=N, K=K)
    cfg_scn["grid"]["Ny_quad"] = Ny
    cfg_scn = write_config(tmp_path, cfg_scn, "c2.json")

    printed = []
    for cfg in (cfg_data, cfg_scn):
        code = main(["certify", "--config", str(cfg)])
        printed.append((code, capsys.readouterr()))
    assert printed[0] == printed[1]
    certificates = [(out / "certificate.json").read_bytes() for out in (out_data, out_scn)]
    assert certificates[0] == certificates[1]

    for cfg in (cfg_data, cfg_scn):
        assert main(["invert", "--config", str(cfg), "--force"]) == 0
    for file in ("a.csv", "u_synth.csv", "history.csv", "certificate.json"):
        assert (out_data / file).read_bytes() == (out_scn / file).read_bytes(), file
    summary_data = json.loads((out_data / "summary.json").read_text())
    summary_scn = json.loads((out_scn / "summary.json").read_text())
    for key in ("stop_reason", "warnings"):
        assert summary_data[key] == summary_scn[key], key


def test_forward_data_mode_matches_scenario(tmp_path, capsys):
    cfg = write_mms_data(tmp_path, tmp_path / "out_data")
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
    for file in ("u_modes.csv", "u_synth.csv", "residual.csv", "summary.json"):
        assert ((tmp_path / "out_data" / file).read_bytes()
                == (tmp_path / "out_scn" / file).read_bytes()), file


def test_invert_data_mode_matches_the_library_on_compact_rows(tmp_path):
    # f and phi excite modes 1, 3, 6 and 8 of K = 8; read_modes_csv returns
    # the dense stack of f, zero rows included, and every sum over its rows
    # skips them, so data mode writes the a and certificate of the compact
    # data.  Seed 1 fails where the measurement of f was a BLAS contraction
    grid = Grid(np.pi, 0.5, Nx=24, Nt=24)
    params = SpectralParams(K=8, Ny=64)
    rng = np.random.default_rng(1)
    modes = np.array([1, 3, 6, 8])
    envelope = np.sin(grid.x) * (1.0 + grid.t[:, None])
    f = ModeFieldSet(grid, params, 1e-2 * rng.standard_normal((4, 1, 1)) * envelope, modes)
    phi = np.zeros((8, grid.Nx + 2))
    phi[modes - 1] = 1e-2 * rng.standard_normal((4, 1)) * np.sin(grid.x)
    psi = ScalarField(grid, 1.0 + 0.1 * rng.random() * np.sin(grid.x) * grid.t[:, None])
    y = params.y
    omega_profile = np.sin(y) + 0.5 * np.sin(3 * y) + 0.25 * np.sin(6 * y)
    data = ProblemData(psi=psi, f_modes=f, phi_modes=phi,
                       omega=OmegaData.from_profiles(y, omega_profile, params.K))
    write_field_csv(tmp_path / "psi.csv", psi)
    write_modes_csv(tmp_path / "f.csv", f)
    write_mode_profiles_csv(tmp_path / "phi.csv", phi, grid.x)
    write_profile_csv(tmp_path / "omega.csv", y, omega_profile)
    cfg = base_config(tmp_path / "out", N=24, K=8)
    cfg["grid"]["Ny_quad"] = 64
    del cfg["scenario"]
    cfg["data"] = dict(DATA_FILES)
    assert main(["invert", "--config", str(write_config(tmp_path, cfg)), "--force"]) == 0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_inversion(data, tol_F=1e-10, max_iters=40, force=True)
    assert result.converged
    write_field_csv(tmp_path / "library_a.csv", result.a)
    assert (tmp_path / "out" / "a.csv").read_bytes() == (tmp_path / "library_a.csv").read_bytes()
    cert = asdict(compute_certificate(data, CertifyOptions()))
    written = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert {key: written[key] for key in cert} == cert


def test_forward_summary_keeps_reaction_warning(tmp_path):
    # a = -60 with dt = 0.5/24: dt*max(-a) = 1.25 > 1, which the march warns about
    out = tmp_path / "out"
    cfg = write_mms_data(tmp_path, out)
    grid = load_config(write_config(tmp_path, cfg)).grid
    write_field_csv(tmp_path / "a.csv", diffid.ScalarField(grid, np.full(grid.field_shape, -60.0)))
    cfg["data"]["a_file"] = "a.csv"
    assert main(["forward", "--config", str(write_config(tmp_path, cfg))]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"warnings": ["dt*max(-a) = 1.25 > 1; negative reaction may be "
                                    "under-resolved"]}

    # a clean run keeps an empty list
    scn_out = tmp_path / "out_scn"
    assert main(["forward", "--config",
                 str(write_config(tmp_path, base_config(scn_out), "c2.json"))]) == 0
    assert json.loads((scn_out / "summary.json").read_text()) == {"warnings": []}


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


def _omega_on(y, at_zero=0.0):
    """Write omega = sin y on the given nodes, with omega(0) = at_zero."""
    def edit(tmp_path, cfg):
        write_profile_csv(tmp_path / "omega.csv", y, np.sin(y) + at_zero * (y == 0))
    return edit


def _tiny_cos_omega(tmp_path, cfg):
    # the end check is relative to max|omega|: a tiny weight gets no pass
    y = np.linspace(0.0, np.pi, 129)
    write_profile_csv(tmp_path / "omega.csv", y, 1e-10 * np.cos(y))


def _config_grid_disagrees(tmp_path, cfg):
    cfg["grid"]["Nx"] = cfg["grid"]["Nt"] = 32


def _config_ny_quad_256(tmp_path, cfg):
    cfg["grid"]["Ny_quad"] = 256  # omega.csv keeps its 129 nodes


@pytest.mark.parametrize("edit, message", [
    (_config_grid_disagrees, r"psi\.csv: t = \S+ is not one of the 33 configured nodes"),
    (_shift_mode_labels(-1), r"phi\.csv: k = 0 is not one of the 3 configured nodes"),
    (_shift_mode_labels(+1), r"phi\.csv: k = 4 is not one of the 3 configured nodes"),
    (_nonuniform_omega, r"omega\.csv: y = 0\.0322512248659579 is not one of the 129 "
     r"configured nodes 0\.\.3\.14159265358979 \(grid\.Ny_quad = 128 sets omega's y nodes\)"),
    (_config_ny_quad_256, r"omega\.csv: node y = 0\.0122718463030851 appears 0 times; every "
     r"node of the configured grid must appear once \(grid\.Ny_quad = 256 sets omega's y "
     r"nodes\)"),
    (_omega_on(np.linspace(0.0, np.pi, 33)), r"omega\.csv: node y = 0\.0245436926061703 "
     r"appears 0 times; .* \(grid\.Ny_quad = 128 sets omega's y nodes\)"),
    (_omega_on(np.linspace(0.0, 3.0, 129)), r"omega\.csv: y = 0\.0234375 is not one of the "
     r"129 configured nodes .* \(grid\.Ny_quad = 128 sets omega's y nodes\)"),
    (_omega_on(np.linspace(0.0, np.pi, 129), at_zero=0.01),
     r"omega\.csv: omega must vanish at y=0 and y=pi, got 1\.000e-02, \S+"),
    (_tiny_cos_omega,
     r"omega\.csv: omega must vanish at y=0 and y=pi, got 1\.000e-10, -1\.000e-10"),
], ids=["grid", "k-from-0", "k-from-2", "omega-nonuniform", "omega-129-nodes-Ny_quad-256",
        "omega-33-nodes", "omega-y-0-to-3", "omega-nonzero-at-0", "omega-1e-10-cos"])
def test_invert_data_mode_bad_input_exits_1(tmp_path, capsys, edit, message):
    cfg = write_mms_data(tmp_path, tmp_path / "out")
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


def test_mms_holds_one_level_at_a_time(tmp_path):
    # once convergence.csv is written, mms keeps only the top level's data
    # and coefficient for the uniqueness probe, and the two finest levels'
    # mode stacks and norms for the strong diagnostics.  MMS-B at N = 64
    # peaks near 16 fields of (Nt+1)(Nx+2) doubles; holding every finished
    # level through the probe peaked near 22
    warm = base_config(tmp_path / "warm", scenario="MMS-B", N=32)
    # a first run imports modules lazily (locale, codecs), which the trace would count
    assert main(["mms", "--config", str(write_config(tmp_path, warm, "warm.json"))]) == 0
    N = 64
    cfg = write_config(tmp_path, base_config(tmp_path / "out", scenario="MMS-B", N=N))
    tracemalloc.start()
    try:
        code = main(["mms", "--config", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = (N + 1) * (N + 2) * 8
    assert code == 0
    assert peak < 18.5 * field, f"peak {peak / field:.2f} fields of {field} B"


def test_mms_null_zeros(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, scenario="NULL", N=32, K=2)
    code = main(["mms", "--config", str(write_config(tmp_path, cfg))])
    assert code == 0
    conv = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    assert np.max(conv[:, 1]) <= 1e-10
    # NULL's truth u and recovered u both hold no rows: err_u is exactly 0
    assert np.array_equal(conv[:, 2], np.zeros(3))
    assert json.loads((out / "summary.json").read_text())["warnings"] == []


def test_mms_data_config_exits_1(tmp_path, capsys):
    cfg = write_mms_data(tmp_path, tmp_path / "out")
    assert main(["mms", "--config", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == "error: mms studies need a 'scenario' section, not 'data'\n"


@pytest.mark.parametrize("command", [["certify"], ["invert", "--force"]])
def test_psi_below_its_floor_names_the_key_and_node(tmp_path, capsys, command):
    # one zero interior node in psi.csv: the error line names certify.psi_floor
    # and the node by its indices, t and x
    cfg = write_mms_data(tmp_path, tmp_path / "out", N=16, K=2)
    grid = Grid(np.pi, 0.5, Nx=16, Nt=16)
    psi = read_field_csv(tmp_path / "psi.csv", grid).values.copy()
    psi[3, 5] = 0.0
    write_field_csv(tmp_path / "psi.csv", ScalarField(grid, psi))
    assert main([command[0], "--config", str(write_config(tmp_path, cfg)), *command[1:]]) == 1
    assert capsys.readouterr().err == (
        f"error: |psi| < certify.psi_floor = 1e-12 at grid node (3, 5), "
        f"t = {grid.t[3]:.6g}, x = {grid.x[5]:.6g}; cannot divide\n")


@pytest.mark.parametrize("Nx, Nt, named", [
    (6, 6, "grid.Nx = 6"), (8, 8, "grid.Nx = 8"), (16, 16, "grid.Nx = 16"),
    (24, 24, "grid.Nx = 24"), (64, 16, "grid.Nt = 16")], ids=["6", "8", "16", "24", "Nx64-Nt16"])
def test_mms_rejects_grid_with_fewer_than_three_levels(tmp_path, capsys, Nx, Nt, named):
    # levels Nx//4, Nx//2, Nx, with Nt in proportion, each need Nx and Nt of at least 8
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", K=2)
    cfg["grid"].update(Nx=Nx, Nt=Nt)
    code = main(["mms", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and named in err
    assert not (out / "convergence.csv").exists()


def test_mms_rejects_a_margin_that_leaves_the_coarsest_level_no_node(tmp_path, capsys):
    # Nx = 32 has the coarsest level Nx = 8, whose margin may be at most 4
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-A", N=32, K=3)
    cfg["certify"]["boundary_margin"] = 5
    assert main(["mms", "--config", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: certify\.boundary_margin = 5 [^\n]*Nx = 8[^\n]*\[0, 4\]\n",
                        err), err
    assert not (out / "convergence.csv").exists()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
                 "and data type float64"),
     "error: out of memory: Unable to allocate 8.00 TiB for an array with shape "
     "(1099511627776,) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_one_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                              error, line):
    def assemble(cfg):
        raise error

    monkeypatch.setattr("diffid.cli.assemble_data", assemble)
    cfg = base_config(tmp_path / "out", N=16, K=2)
    assert main(["certify", "--config", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("text, message", [
    (None, "config file not found"),
    ("{\"domain\": ", "config is not valid JSON"),
    ("[1, 2]", "config: the top level must be an object"),
    ("{\"domain\": [1]}", "config: section 'domain' must be an object"),
], ids=["missing", "not-json", "top-level-list", "section-list"])
def test_config_that_cannot_be_read_exits_one(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["certify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(message)}[^\n]*\n", err), err


def test_mms_on_a_scaled_scenario_reports_nan_errors(tmp_path):
    # a scaled scenario has no truth pair: every level runs, with no error to report
    out = tmp_path / "out"
    cfg = base_config(out, scenario="MMS-B", N=32, K=3)
    cfg["scenario"]["scale"] = 0.5
    assert main(["mms", "--config", str(write_config(tmp_path, cfg))]) == 0
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["N"] for row in rows] == ["8", "16", "32"]
    assert all(row[key] == "nan" for row in rows for key in ("err_a", "err_u", "order_a"))


def _child_pids(pid: int) -> list[int]:
    """The pids whose parent is pid: from /proc/<pid>/task/<pid>/children
    where the kernel provides it, else from every process's stat line."""
    try:
        return [int(p) for p in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except FileNotFoundError:
        pass
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()  # after "pid (comm)"
        except OSError:  # the process has gone
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited: a zombie, which waits
    for its new parent to reap it, has exited."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc and two CPUs, where the writer forks its helper")
def test_killing_invert_mid_write_leaves_no_process(tmp_path):
    """A CLI killed while its helper writes u_synth.csv leaves neither
    process running: the helper's next write to the pipe fails."""
    out = tmp_path / "out"
    cfg = base_config(out, N=32, K=2)
    cfg["output"]["synth_ny"] = 550  # 618,222 rows, about 43 MB
    src = str(Path(diffid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "diffid.cli", "invert", "--force", "--config",
                             str(write_config(tmp_path, cfg))], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        synth = out / "u_synth.csv"
        deadline = time.monotonic() + 60
        while not (synth.exists() and synth.stat().st_size) and proc.poll() is None:
            assert time.monotonic() < deadline, "u_synth.csv never started"
            time.sleep(0.002)
        helpers = _child_pids(proc.pid)
        written = synth.stat().st_size
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert len(helpers) == 1 and written < 40e6, (helpers, written)
    deadline = time.monotonic() + 2
    while _running(helpers[0]) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(helpers[0])
    assert not _running(proc.pid)
