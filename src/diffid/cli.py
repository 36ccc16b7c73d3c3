"""Command-line front end: certify | forward | invert | mms, each driven by a
JSON config.  Exit codes: 0 success, 1 usage/data error, 2 certificate
failure, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .certificates import check_global, check_local, compute_certificate
from .config import RunConfig, assemble_data, assemble_scenario, load_config
from .errors import CertificateFailure, DiffidError
from .fileio import (
    write_field_csv,
    write_history_csv,
    write_json,
    write_modes_csv,
    write_synth_csv,
    write_table_csv,
)
from .grids import build_grid
from .inversion import run_inversion
from .parabolic import overdetermination_residual, solve_forward
from .scenarios import build_scenario, recovery_error, strong_diagnostics, uniqueness_probe

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAIL = 2
EXIT_NO_CONVERGENCE = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffid",
        description="Recover the reaction coefficient of a diffusion equation "
                    "from an integral measurement.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("certify", "evaluate the solvability certificate"),
        ("forward", "solve the forward problem with a known coefficient"),
        ("invert", "run the inverse solver"),
        ("mms", "run the manufactured-solution verification studies"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--force", action="store_true",
                       help="run the inversion even if the certificate fails")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = cfg.output_dir
        out.mkdir(parents=True, exist_ok=True)
        base_dir = Path(args.config).resolve().parent
        handler = {
            "certify": _cmd_certify,
            "forward": _cmd_forward,
            "invert": _cmd_invert,
            "mms": _cmd_mms,
        }[args.command]
        return handler(cfg, base_dir, force=args.force)
    except DiffidError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def _print_margin_table(cert) -> None:
    local_pass, local_margins = check_local(cert)
    global_pass, global_margins = check_global(cert)
    print(f"{'condition':38s} {'margin':>14s}  holds")
    for scope, margins in (("local", local_margins), ("global", global_margins)):
        for cond, margin in margins.items():
            print(f"[{scope}] {cond:30s} {margin:+14.6e}  {'yes' if margin >= 0 else 'NO'}")
    print(f"local verdict:  {'PASS' if local_pass else 'FAIL'}")
    print(f"global verdict: {'PASS' if global_pass else 'FAIL'}")


def _failing_conditions(cert) -> list[str]:
    names = []
    for label, ok in (
        ("2*Psi_M*T <= A_eps*C_S", cert.cond_local_T),
        ("T <= 1", cert.cond_T_le_1),
        ("4*R*B < 1", cert.cond_local_q),
        ("2*Psi_M^2*C_P <= A_eps^2*C_S^2", cert.cond_global_poincare),
        ("4*R1*B < 1", cert.cond_global_q),
    ):
        if not ok:
            names.append(label)
    return names


def _cmd_certify(cfg: RunConfig, base_dir: Path, force: bool) -> int:
    data = assemble_data(cfg, base_dir)
    cert = compute_certificate(data, cfg.certify)
    (cfg.output_dir / "certificate.json").write_text(cert.to_json() + "\n", encoding="utf-8")
    _print_margin_table(cert)
    if cert.local_pass or cert.global_pass:
        return EXIT_OK
    print("failing conditions: " + "; ".join(_failing_conditions(cert)))
    return EXIT_CERT_FAIL


def _synth_y(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, np.pi, cfg.synth_ny + 1)


def _cmd_forward(cfg: RunConfig, base_dir: Path, force: bool) -> int:
    if cfg.scenario_name is not None:
        scn = assemble_scenario(cfg)
        if scn.truth_a is None:
            print("error: a scaled scenario carries no coefficient to solve with",
                  file=sys.stderr)
            return EXIT_ERROR
        data, a = scn.data, scn.truth_a
    else:
        data = assemble_data(cfg, base_dir)
        if "a_file" not in cfg.data_files:
            print("error: forward runs in data mode need data.a_file", file=sys.stderr)
            return EXIT_ERROR
        from .fileio import read_field_as_scalar

        a = read_field_as_scalar(base_dir / cfg.data_files["a_file"], cfg.grid)

    u = solve_forward(a, data.f_modes, data.phi_modes, cfg.grid, cfg.params,
                      theta=cfg.theta)
    res_field, res_norm = overdetermination_residual(u, data.omega, data.psi)
    y = _synth_y(cfg)
    write_modes_csv(cfg.output_dir / "u_modes.csv", u)
    write_synth_csv(cfg.output_dir / "u_synth.csv", u.synthesize_y(y), cfg.grid, y)
    write_field_csv(cfg.output_dir / "residual.csv", res_field)
    print(f"forward solve done; overdetermination residual = {res_norm:.6e}")
    return EXIT_OK


def _cmd_invert(cfg: RunConfig, base_dir: Path, force: bool) -> int:
    data = assemble_data(cfg, base_dir)
    scn = assemble_scenario(cfg) if cfg.scenario_name is not None else None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_inversion(
                data, cfg.certify, tol_F=cfg.tol_F, max_iters=cfg.max_iters,
                theta=cfg.theta, force=force or cfg.force, synth_y=_synth_y(cfg))
    except CertificateFailure as err:
        (cfg.output_dir / "certificate.json").write_text(
            err.certificate.to_json() + "\n", encoding="utf-8")
        print(f"certificate failed: {err}", file=sys.stderr)
        print("failing conditions: " + "; ".join(_failing_conditions(err.certificate)),
              file=sys.stderr)
        return EXIT_CERT_FAIL

    write_field_csv(cfg.output_dir / "a.csv", result.a)
    write_synth_csv(cfg.output_dir / "u_synth.csv", result.u_synth, cfg.grid,
                    result.synth_y)
    write_history_csv(cfg.output_dir / "history.csv", result.F_diff_history,
                      result.ratio_history)
    (cfg.output_dir / "certificate.json").write_text(
        result.certificate.to_json() + "\n", encoding="utf-8")

    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "certificate_local_pass": result.certificate.local_pass,
        "certificate_global_pass": result.certificate.global_pass,
        "norms": result.norms,
    }
    if scn is not None and scn.truth_a is not None:
        summary["recovery_error_a"] = recovery_error(result, scn, which="a")
        summary["recovery_error_u"] = recovery_error(result, scn, which="u")
    write_json(cfg.output_dir / "summary.json", summary)

    if not result.converged:
        # run_inversion stops short of max_iters only when the sweeps run away
        verdict = "diverged after" if result.iterations < cfg.max_iters else "did not converge in"
        last = f"{result.F_diff_history[-1]:.3e}" if result.F_diff_history else "none"
        print(f"{verdict} {result.iterations} sweeps (last kept F_diff = {last})",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {result.iterations} sweeps; "
          f"residual = {result.residual_norm:.6e}")
    return EXIT_OK


def _cmd_mms(cfg: RunConfig, base_dir: Path, force: bool) -> int:
    if cfg.scenario_name is None:
        print("error: mms studies need a scenario config", file=sys.stderr)
        return EXIT_ERROR

    levels = sorted({max(8, cfg.grid.Nx // 4), max(8, cfg.grid.Nx // 2), cfg.grid.Nx})
    conv_rows = []
    results = {}
    prev_err = None
    for N in levels:
        grid = build_grid(cfg.grid.domain, Nx=N, Nt=max(8, round(cfg.grid.Nt * N / cfg.grid.Nx)))
        scn = build_scenario(cfg.scenario_name, grid, cfg.params, scale=cfg.scenario_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_inversion(scn.data, cfg.certify, tol_F=cfg.tol_F,
                                   max_iters=cfg.max_iters, theta=cfg.theta, force=True)
        results[N] = (scn, result)
        if scn.truth_a is not None:
            err_a = recovery_error(result, scn, which="a")
            err_u = recovery_error(result, scn, which="u")
        else:
            err_a = err_u = float("nan")
        order = float("nan")
        if prev_err is not None and prev_err > 0 and err_a > 0:
            order = float(np.log2(prev_err / err_a))
        conv_rows.append([N, err_a, err_u, result.residual_norm,
                          result.iterations, int(result.converged), order])
        prev_err = err_a
    write_table_csv(cfg.output_dir / "convergence.csv",
                    ["N", "err_a", "err_u", "residual", "iterations", "converged", "order_a"],
                    conv_rows)

    scn_top, result_top = results[levels[-1]]
    distance = uniqueness_probe(scn_top, cfg.certify, tol_F=cfg.tol_F,
                                max_iters=cfg.max_iters, theta=cfg.theta,
                                zero_start=result_top)
    write_table_csv(cfg.output_dir / "uniqueness.csv",
                    ["scenario", "distance"], [[cfg.scenario_name, distance]])

    strong_rows = []
    for N in levels[-2:]:
        scn, result = results[N]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            d = strong_diagnostics(result, result.a.grid)
        strong_rows.append([N, d["u_sq_Q"], d["lap_u_sq_Q"], d["u_t_sq_Q"],
                            d["u_yy_sq_Q"], d["a_sq_GT"]])
    write_table_csv(cfg.output_dir / "strong_diagnostics.csv",
                    ["N", "u_sq_Q", "lap_u_sq_Q", "u_t_sq_Q", "u_yy_sq_Q", "a_sq_GT"],
                    strong_rows)

    print(f"mms studies written for {cfg.scenario_name}: "
          f"levels {levels}, uniqueness distance {distance:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
