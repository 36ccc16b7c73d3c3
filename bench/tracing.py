"""Traced diffid run and the per-layer metrics derived from its spans.

Run as a script, it starts the diffid CLI in this process with every public
function of each layer module wrapped by a timer, and writes the spans to a
JSON file when the CLI returns:

    PYTHONPATH=src python3 bench/tracing.py SPANS.json invert --config cfg.json --force

Nothing under src/ changes: the wrappers are bound in place of the originals
in every diffid module namespace that holds them.  Calls nest strictly (the
benchmark runs the CLI single-threaded), so a span's self time is its
duration minus the durations of its direct children.

Hot helpers, called thousands of times per sweep, keep only a count and total
and self time; every other function also keeps one span record per call.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import threading
import time
from importlib import import_module

LAYERS = ("config", "scenarios", "certificates", "inversion", "parabolic",
          "tridiag", "sinebasis", "grids", "fileio")
# leaf helpers: aggregated, never one span per call
HOT = frozenset({
    "tridiag.thomas_solve", "grids.integrate_G", "grids.grad_x", "grids.grad_sq",
    "grids.laplacian_x", "grids.l2_sq_GT", "grids.l2_norm_G", "grids.l2_norm_GT",
    "grids.interior_margin_mask", "sinebasis.eigenvalue", "sinebasis.eigenvalues",
    "sinebasis.sine_coeff",
})
METHODS = (("sinebasis", "ModeFieldSet", "synthesize_y"),)


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except (OSError, TypeError):
        return 0.0


def _mode_cells(args, kwargs) -> float:
    """Unknowns times time steps of one mode solve, from the grid argument."""
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return float(grid.Nx * (grid.Ny or 1) * grid.Nt)


class Tracer:
    """Spans and per-name aggregates, kept in memory until write()."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []          # [id, parent, name, start, end, self, extra]
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.top_s = 0.0                     # time covered by top-level calls
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        hot = name in HOT
        measure_in = _file_mb if name.startswith("fileio.read") else None
        measure_out = _file_mb if name.startswith("fileio.write") else None
        cells = _mode_cells if name == "parabolic.solve_mode" else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [None if hot else len(self.spans), 0.0]
            if not hot:
                parent = stack[-1][0] if stack else None
                record = [frame[0], parent, name, 0.0, 0.0, 0.0, None]
                self.spans.append(record)
                if measure_in is not None:
                    record[6] = measure_in(_path_arg(args, kwargs))
                elif cells is not None:
                    record[6] = cells(args, kwargs)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_s += duration
                if not hot:
                    record[3], record[4] = start - self.t0, end - self.t0
                    record[5] = duration - frame[1]
                    if measure_out is not None:
                        record[6] = measure_out(_path_arg(args, kwargs))

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and bind the wrappers wherever
        diffid modules hold the originals (including `from .x import y`)."""
        import diffid.cli  # noqa: F401  (loads every layer module)

        replacements = {}
        for layer in LAYERS:
            module = import_module(f"diffid.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    replacements[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "diffid" or name.startswith("diffid."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replacements:
                        setattr(module, attr, replacements[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(import_module(f"diffid.{layer}"), cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{method}", getattr(cls, method)))

    def write(self, path, exit_code: int) -> None:
        payload = {
            "exit_code": exit_code,
            "top_s": self.top_s,
            "aggregates": self.aggregates,
            "span_fields": ["id", "parent", "name", "start", "end", "self", "extra"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ------------------------------------------------------- per-layer metrics

def _outer(spans: list, names) -> list:
    """Spans of the given names that have no ancestor among those names, so
    nested calls (assemble_data -> assemble_scenario) count once."""
    parents = {s[0]: s for s in spans}
    chosen = []
    for span in spans:
        if span[2] not in names:
            continue
        parent = span[1]
        while parent is not None and parents[parent][2] not in names:
            parent = parents[parent][1]
        if parent is None:
            chosen.append(span)
    return chosen


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json.
    cli.cpu_s and cli.trace_overhead come from the child processes and are
    added by the caller."""
    agg = trace["aggregates"]
    spans = trace["spans"]

    def calls(name):
        return float(agg.get(name, (0, 0.0, 0.0))[0])

    def total(name):
        return float(agg.get(name, (0, 0.0, 0.0))[1])

    def outer_total(names):
        return float(sum(s[4] - s[3] for s in _outer(spans, names)))

    read_names = {n for n in agg if n.startswith("fileio.read")}
    write_names = {n for n in agg if n.startswith("fileio.write")}
    reads, writes = _outer(spans, read_names), _outer(spans, write_names)
    read_s, write_s = outer_total(read_names), outer_total(write_names)
    read_mb = float(sum(s[6] or 0.0 for s in reads))
    write_mb = float(sum(s[6] or 0.0 for s in writes))
    sweeps = [s[4] - s[3] for s in spans if s[2] == "inversion.iterate"]
    solves = [s for s in spans if s[2] == "parabolic.solve_mode"]
    mode_cells = float(sum(s[6] for s in solves))
    mode_solve_s = total("parabolic.solve_mode")

    return {
        "config.load_s": total("config.load_config"),
        "config.assemble_s": outer_total({"config.assemble_data", "config.assemble_scenario"}),
        "scenarios.build_s": outer_total({"scenarios.build_scenario"}),
        "scenarios.uniqueness_s": total("scenarios.uniqueness_probe"),
        "scenarios.strong_diag_s": total("scenarios.strong_diagnostics"),
        "certificates.certify_s": total("certificates.compute_certificate"),
        "certificates.calls": calls("certificates.compute_certificate"),
        "certificates.psi_lift_s": total("certificates.compute_Psi"),
        "inversion.run_s": outer_total({"inversion.run_inversion"}),
        "inversion.runs": calls("inversion.run_inversion"),
        "inversion.sweeps": calls("inversion.iterate"),
        "inversion.sweep_s": float(statistics.median(sweeps)) if sweeps else 0.0,
        "inversion.sweep_self_s": float(agg.get("inversion.iterate", (0, 0.0, 0.0))[2]),
        "inversion.source_s": total("inversion.picard_source"),
        "inversion.reconstruct_s": total("inversion.reconstruct_a"),
        "inversion.norms_s": total("inversion.solution_norms"),
        "parabolic.mode_solve_s": mode_solve_s,
        "parabolic.mode_solves": calls("parabolic.solve_mode"),
        "parabolic.mode_cells": mode_cells,
        "parabolic.cells_per_s": mode_cells / mode_solve_s if mode_solve_s > 0 else 0.0,
        "parabolic.forward_s": total("parabolic.solve_forward"),
        "parabolic.residual_s": total("parabolic.overdetermination_residual"),
        "tridiag.solves": calls("tridiag.thomas_solve"),
        "tridiag.solve_s": total("tridiag.thomas_solve"),
        "sinebasis.F_s": total("sinebasis.F_functional"),
        "sinebasis.F_calls": calls("sinebasis.F_functional"),
        "sinebasis.frac_norm_s": total("sinebasis.frac_norm"),
        "sinebasis.synth_s": total("sinebasis.synthesize_y"),
        "grids.integrate_G_calls": calls("grids.integrate_G"),
        "fileio.read_s": read_s,
        "fileio.read_mb": read_mb,
        "fileio.read_mb_per_s": read_mb / read_s if read_s > 0 else 0.0,
        "fileio.write_s": write_s,
        "fileio.write_mb": write_mb,
        "fileio.write_mb_per_s": write_mb / write_s if write_s > 0 else 0.0,
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from diffid.cli import main as cli_main

    code = cli_main(cli_args)
    tracer.write(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
