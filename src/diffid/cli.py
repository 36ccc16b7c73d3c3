"""Command-line front end: certify | forward | invert | mms, each driven by a
JSON config.  Exit codes: 0 success, 1 usage/data error, 2 certificate
failure, 3 non-convergence.

Each command returns (exit code, summary), and main records every
RuntimeWarning the command raises, each distinct message once, in the order
first raised.  A summary dict (forward, invert, mms) goes to summary.json with
the messages appended under "warnings"; a summary of None (certify, and invert
at a failed certificate) prints them on stderr as "warning: <message>" lines.
A usage, data or I/O error, and running out of memory, prints one
"error: <message>" line instead.
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .certificates import compute_certificate, conditions
from .config import RunConfig, assemble_data, load_config
from .errors import CertificateFailure, ConfigurationError, DiffidError
from .fileio import (
    read_field_csv,
    write_field_csv,
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
        if name == "invert":
            p.add_argument("--force", action="store_true",
                           help="run the inversion even if the certificate fails")

    try:
        args = parser.parse_args(argv)
    except SystemExit as done:  # argparse has printed the help or the usage error
        return EXIT_OK if done.code == 0 else EXIT_ERROR
    options = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        handler = {
            "certify": _cmd_certify,
            "forward": _cmd_forward,
            "invert": _cmd_invert,
            "mms": _cmd_mms,
        }[args.command]
        with warnings.catch_warnings(record=True) as caught:
            # "always": a message already shown in this process is kept too
            warnings.simplefilter("always", RuntimeWarning)
            code, summary = handler(cfg, **options)
        recorded = list(dict.fromkeys(str(w.message) for w in caught))
        if summary is None:
            for message in recorded:
                print(f"warning: {message}", file=sys.stderr)
        else:
            write_json(cfg.output_dir / "summary.json", {**summary, "warnings": recorded})
        return code
    except (DiffidError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as err:  # numpy's names the array it could not allocate
        print(f"error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return EXIT_ERROR


def _print_margin_table(cert) -> None:
    print(f"{'condition':38s} {'margin':>14s}  holds")
    for scope, label, margin, holds in conditions(cert):
        print(f"[{scope}] {label:30s} {margin:+14.6e}  {'yes' if holds else 'NO'}")
    print(f"local verdict:  {'PASS' if cert.local_pass else 'FAIL'}")
    print(f"global verdict: {'PASS' if cert.global_pass else 'FAIL'}")


def _failing_line(cert) -> str:
    return "failing conditions: " + "; ".join(
        label for _, label, _, holds in conditions(cert) if not holds)


def _cmd_certify(cfg: RunConfig) -> tuple[int, None]:
    data, _ = assemble_data(cfg)
    cert = compute_certificate(data, cfg.certify)
    residual = data.compatibility()
    write_json(cfg.output_dir / "certificate.json",
               {**asdict(cert), "compatibility_residual": residual})
    _print_margin_table(cert)
    print(f"data compatibility residual: {residual:.6e}")
    if cert.local_pass or cert.global_pass:
        return EXIT_OK, None
    print(_failing_line(cert))
    return EXIT_CERT_FAIL, None


def _synth_y(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, np.pi, cfg.synth_ny + 1)


def _cmd_forward(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.data_files is not None and "a_file" not in cfg.data_files:
        raise ConfigurationError("forward runs in data mode need data.a_file")
    data, scn = assemble_data(cfg)
    if scn is None:
        a = read_field_csv(cfg.data_files["a_file"], cfg.grid)
    elif scn.truth_a is None:
        raise ConfigurationError("forward needs scenario.scale = 1: a scaled scenario carries "
                                 f"no coefficient to solve with, got {cfg.scenario_scale!r}")
    else:
        a = scn.truth_a

    data.compatibility()
    # marches into f's stack, which nothing reads after the solve
    u = solve_forward(a, data.f_modes, data.phi_modes, theta=cfg.theta)
    res_field, res_norm = overdetermination_residual(u, data.omega, data.psi)
    y = _synth_y(cfg)
    write_modes_csv(cfg.output_dir / "u_modes.csv", u)
    write_synth_csv(cfg.output_dir / "u_synth.csv", u, y)
    write_field_csv(cfg.output_dir / "residual.csv", res_field)
    print(f"forward solve done; overdetermination residual = {res_norm:.6e}")
    return EXIT_OK, {}


def _cmd_invert(cfg: RunConfig, force: bool) -> tuple[int, dict | None]:
    data, scn = assemble_data(cfg)
    residual = data.compatibility()
    try:
        result = run_inversion(data, cfg.certify, tol_F=cfg.tol_F, max_iters=cfg.max_iters,
                               theta=cfg.theta, force=force or cfg.force)
    except CertificateFailure as err:
        write_json(cfg.output_dir / "certificate.json", asdict(err.certificate))
        print(f"certificate failed: {err}", file=sys.stderr)
        print(_failing_line(err.certificate), file=sys.stderr)
        return EXIT_CERT_FAIL, None

    write_field_csv(cfg.output_dir / "a.csv", result.a)
    y = _synth_y(cfg)
    write_synth_csv(cfg.output_dir / "u_synth.csv", result.u_modes, y)
    # q_hat of sweep i is F_diff_i / F_diff_{i-1}: none for the first sweep
    q_hat = [float("nan"), *result.ratio_history]
    write_table_csv(cfg.output_dir / "history.csv", ["iter", "F_diff", "q_hat"],
                    [[i, f, q] for i, (f, q) in enumerate(zip(result.F_diff_history, q_hat),
                                                          start=1)])
    write_json(cfg.output_dir / "certificate.json", asdict(result.certificate))

    summary = {
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "compatibility_residual": residual,
        "certificate_local_pass": result.certificate.local_pass,
        "certificate_global_pass": result.certificate.global_pass,
        "norms": result.norms,
    }
    if scn is not None and scn.truth_a is not None:
        summary["recovery_error_a"], summary["recovery_error_u"] = recovery_error(result, scn)

    if not result.converged:
        verdict = "diverged after" if result.stop_reason == "diverged" else "did not converge in"
        last = f"{result.F_diff_history[-1]:.3e}" if result.F_diff_history else "none"
        print(f"{verdict} {result.iterations} sweeps (last kept F_diff = {last})",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE, summary
    print(f"converged in {result.iterations} sweeps; "
          f"residual = {result.residual_norm:.6e}")
    return EXIT_OK, summary


def _cmd_mms(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.scenario_name is None:
        raise ConfigurationError("mms studies need a 'scenario' section, not 'data'")
    rows = convergence_study(cfg.scenario_name, cfg.grid, cfg.params,
                             scale=cfg.scenario_scale, options=cfg.certify, tol_F=cfg.tol_F,
                             max_iters=cfg.max_iters, theta=cfg.theta)
    write_table_csv(cfg.output_dir / "convergence.csv",
                    ["N", "err_a", "err_u", "residual", "iterations", "converged", "order_a"],
                    [[row["N"], row["err_a"], row["err_u"], row["residual"], row["iterations"],
                      int(row["converged"]), row["order_a"]] for row in rows])

    # the probe reads only the top level's data and coefficient, and the strong
    # diagnostics (run after it, so the recorded warnings keep their order) the
    # two finest levels' mode stacks and norms: the rest of the finished levels
    # is released before the probe runs
    levels = [row["N"] for row in rows]
    data, a = rows[-1]["scenario"].data, rows[-1]["result"].a
    finest = [(row["N"], row["result"].u_modes, row["result"].norms) for row in rows[-2:]]
    del rows
    distance = uniqueness_probe(data, a, cfg.certify, tol_F=cfg.tol_F,
                                max_iters=cfg.max_iters, theta=cfg.theta)
    write_table_csv(cfg.output_dir / "uniqueness.csv",
                    ["scenario", "distance"], [[cfg.scenario_name, distance]])
    write_table_csv(cfg.output_dir / "strong_diagnostics.csv",
                    ["N", "u_sq_Q", "lap_u_sq_Q", "u_t_sq_Q", "u_yy_sq_Q", "a_sq_GT"],
                    [[N, *strong_diagnostics(u, norms).values()] for N, u, norms in finest])

    print(f"mms studies written for {cfg.scenario_name}: "
          f"levels {levels}, uniqueness distance {distance:.3e}")
    return EXIT_OK, {}


def entry() -> None:
    """The process entry point, of the diffid console script and of python -m
    diffid.cli: exits with main's code.  It first freezes the collector, so
    the interpreter's teardown leaves every object the run made to the
    process exit instead of collecting it (about 6 ms against 30-40 ms after
    a run).  main never freezes: a caller that runs it in process keeps
    collecting its own garbage."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
