"""Command-line front end: certify | forward | invert | mms, each driven by a
JSON config.  Exit codes: 0 success, 1 usage/data error, 2 certificate
failure, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .certificates import check_global, check_local, compute_certificate
from .config import RunConfig, assemble_data, assemble_scenario, load_config
from .errors import CertificateFailure, DiffidError
from .fileio import (
    read_field_csv,
    write_field_csv,
    write_history_csv,
    write_json,
    write_modes_csv,
    write_synth_csv,
    write_table_csv,
)
from .inversion import run_inversion
from .parabolic import overdetermination_residual, solve_forward
from .scenarios import convergence_study, recovery_error, strong_diagnostics, uniqueness_probe

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


def _conditions(cert) -> list[tuple[str, str, float, bool]]:
    """(scope, label, margin, holds) of every certificate condition, local first."""
    return [(scope, label, margin, holds)
            for scope, check in (("local", check_local), ("global", check_global))
            for label, (margin, holds) in check(cert)[1].items()]


def _print_margin_table(cert) -> None:
    print(f"{'condition':38s} {'margin':>14s}  holds")
    for scope, label, margin, holds in _conditions(cert):
        print(f"[{scope}] {label:30s} {margin:+14.6e}  {'yes' if holds else 'NO'}")
    print(f"local verdict:  {'PASS' if cert.local_pass else 'FAIL'}")
    print(f"global verdict: {'PASS' if cert.global_pass else 'FAIL'}")


def _failing_line(cert) -> str:
    return "failing conditions: " + "; ".join(
        label for _, label, _, holds in _conditions(cert) if not holds)


def _cmd_certify(cfg: RunConfig, base_dir: Path, force: bool) -> int:
    data = assemble_data(cfg, base_dir)
    cert = compute_certificate(data, cfg.certify)
    residual = data.compatibility_residual()
    write_json(cfg.output_dir / "certificate.json",
               {**asdict(cert), "compatibility_residual": residual})
    _print_margin_table(cert)
    print(f"data compatibility residual: {residual:.6e}")
    message = data.compatibility_warning()
    if message is not None:
        print(f"warning: {message}", file=sys.stderr)
    if cert.local_pass or cert.global_pass:
        return EXIT_OK
    print(_failing_line(cert))
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
        if "a_file" not in cfg.data_files:
            print("error: forward runs in data mode need data.a_file", file=sys.stderr)
            return EXIT_ERROR
        data = assemble_data(cfg, base_dir)
        a = read_field_csv(base_dir / cfg.data_files["a_file"], cfg.grid)

    with _recording_warnings() as caught:
        _warn_compatibility(data)
        u = solve_forward(a, data.f_modes, data.phi_modes, cfg.grid, cfg.params,
                          theta=cfg.theta)
        res_field, res_norm = overdetermination_residual(u, data.omega, data.psi)
    y = _synth_y(cfg)
    write_modes_csv(cfg.output_dir / "u_modes.csv", u)
    write_synth_csv(cfg.output_dir / "u_synth.csv", u, y)
    write_field_csv(cfg.output_dir / "residual.csv", res_field)
    write_json(cfg.output_dir / "summary.json", {"warnings": _recorded_warnings(caught)})
    print(f"forward solve done; overdetermination residual = {res_norm:.6e}")
    return EXIT_OK


def _cmd_invert(cfg: RunConfig, base_dir: Path, force: bool) -> int:
    scn = assemble_scenario(cfg) if cfg.scenario_name is not None else None
    data = scn.data if scn is not None else assemble_data(cfg, base_dir)
    try:
        with _recording_warnings() as caught:
            _warn_compatibility(data)
            result = run_inversion(
                data, cfg.certify, tol_F=cfg.tol_F, max_iters=cfg.max_iters,
                theta=cfg.theta, force=force or cfg.force)
    except CertificateFailure as err:
        (cfg.output_dir / "certificate.json").write_text(
            err.certificate.to_json() + "\n", encoding="utf-8")
        print(f"certificate failed: {err}", file=sys.stderr)
        print(_failing_line(err.certificate), file=sys.stderr)
        return EXIT_CERT_FAIL

    write_field_csv(cfg.output_dir / "a.csv", result.a)
    y = _synth_y(cfg)
    write_synth_csv(cfg.output_dir / "u_synth.csv", result.u_modes, y)
    write_history_csv(cfg.output_dir / "history.csv", result.F_diff_history,
                      result.ratio_history)
    (cfg.output_dir / "certificate.json").write_text(
        result.certificate.to_json() + "\n", encoding="utf-8")

    summary = {
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "compatibility_residual": data.compatibility_residual(),
        "certificate_local_pass": result.certificate.local_pass,
        "certificate_global_pass": result.certificate.global_pass,
        "norms": result.norms,
    }
    if scn is not None and scn.truth_a is not None:
        summary["recovery_error_a"] = recovery_error(result, scn, which="a")
        summary["recovery_error_u"] = recovery_error(result, scn, which="u")
    summary["warnings"] = _recorded_warnings(caught)
    write_json(cfg.output_dir / "summary.json", summary)

    if not result.converged:
        verdict = "diverged after" if result.stop_reason == "diverged" else "did not converge in"
        last = f"{result.F_diff_history[-1]:.3e}" if result.F_diff_history else "none"
        print(f"{verdict} {result.iterations} sweeps (last kept F_diff = {last})",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {result.iterations} sweeps; "
          f"residual = {result.residual_norm:.6e}")
    return EXIT_OK


@contextlib.contextmanager
def _recording_warnings():
    """Record every RuntimeWarning raised in the block into the yielded list."""
    with warnings.catch_warnings(record=True) as caught:
        # "always": a message already shown in this process is kept too
        warnings.simplefilter("always", RuntimeWarning)
        yield caught


def _recorded_warnings(caught) -> list[str]:
    """Each distinct warning message once, in the order first raised."""
    return list(dict.fromkeys(str(w.message) for w in caught))


def _warn_compatibility(data) -> None:
    message = data.compatibility_warning()
    if message is not None:
        warnings.warn(message, RuntimeWarning)


def _cmd_mms(cfg: RunConfig, base_dir: Path, force: bool) -> int:
    if cfg.scenario_name is None:
        print("error: mms studies need a scenario config", file=sys.stderr)
        return EXIT_ERROR

    with _recording_warnings() as caught:
        _mms_studies(cfg)
    write_json(cfg.output_dir / "summary.json", {"warnings": _recorded_warnings(caught)})
    return EXIT_OK


def _mms_studies(cfg: RunConfig) -> None:
    rows = convergence_study(cfg.scenario_name, cfg.grid, cfg.params,
                             scale=cfg.scenario_scale, options=cfg.certify, tol_F=cfg.tol_F,
                             max_iters=cfg.max_iters, theta=cfg.theta)
    write_table_csv(cfg.output_dir / "convergence.csv",
                    ["N", "err_a", "err_u", "residual", "iterations", "converged", "order_a"],
                    [[row["N"], row["err_a"], row["err_u"], row["residual"], row["iterations"],
                      int(row["converged"]), row["order_a"]] for row in rows])

    top = rows[-1]
    distance = uniqueness_probe(top["scenario"], cfg.certify, tol_F=cfg.tol_F,
                                max_iters=cfg.max_iters, theta=cfg.theta,
                                zero_start=top["result"])
    write_table_csv(cfg.output_dir / "uniqueness.csv",
                    ["scenario", "distance"], [[cfg.scenario_name, distance]])

    strong_rows = []
    for row in rows[-2:]:
        result = row["result"]
        d = strong_diagnostics(result, result.a.grid)
        strong_rows.append([row["N"], d["u_sq_Q"], d["lap_u_sq_Q"], d["u_t_sq_Q"],
                            d["u_yy_sq_Q"], d["a_sq_GT"]])
    write_table_csv(cfg.output_dir / "strong_diagnostics.csv",
                    ["N", "u_sq_Q", "lap_u_sq_Q", "u_t_sq_Q", "u_yy_sq_Q", "a_sq_GT"],
                    strong_rows)

    print(f"mms studies written for {cfg.scenario_name}: "
          f"levels {[row['N'] for row in rows]}, uniqueness distance {distance:.3e}")


if __name__ == "__main__":
    sys.exit(main())
