"""JSON run configuration: schema validation and assembly of problem data."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .certificates import CertifyOptions
from .errors import ConfigurationError
from .fileio import read_field_csv, read_mode_profiles_csv, read_modes_csv, read_profile_csv
from .grids import Domain, Grid, build_grid
from .problem import ProblemData
from .scenarios import SCENARIO_NAMES, Scenario, build_scenario
from .sinebasis import OmegaData, SpectralParams


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: SpectralParams
    theta: float
    certify: CertifyOptions
    tol_F: float
    max_iters: int
    force: bool
    scenario_name: str | None
    scenario_scale: float
    data_files: dict | None
    output_dir: Path
    synth_ny: int


def _number(value) -> float:
    """A finite JSON number; a boolean is not one."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise ValueError("must be a finite number")


def _int(value) -> int:
    """An integral JSON number (16.0 is accepted, 16.9 is not)."""
    number = _number(value)
    if not number.is_integer():
        raise ValueError("must be an integer")
    return int(number)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


_REQUIRED = object()
_POSITIVE = (lambda v: v > 0, "must be positive")

# section -> key -> (parser, default or _REQUIRED, (check, requirement) or
# None).  A parser raises ValueError(requirement); the parser and the check
# apply to given values only, a default is taken as is.  Checks that span
# keys follow in load_config.
_SCHEMA = {
    "domain": {
        "dim": (_int, 1, (lambda v: v == 1, "must be 1 (G is an interval)")),
        "Lx": (_number, _REQUIRED, _POSITIVE),
        "T": (_number, _REQUIRED, _POSITIVE),
    },
    "grid": {
        "Nx": (_int, _REQUIRED, (lambda v: v >= 2, "must be >= 2")),
        "Nt": (_int, _REQUIRED, (lambda v: v >= 2, "must be >= 2")),
        "Ny_quad": (_int, None, None),
    },
    "spectral": {
        "K": (_int, _REQUIRED, (lambda v: v >= 1, "must be >= 1")),
        "epsilon": (_number, 1.0, _POSITIVE),
    },
    "scheme": {"theta": (_number, 0.5, (lambda v: 0.5 <= v <= 1.0, "must lie in [0.5, 1]"))},
    "certify": {
        "C_S": (_number, 1.0, _POSITIVE),
        "boundary_margin": (_int, 2, (lambda v: v >= 1, "must be >= 1")),
        "psi_floor": (_number, 1e-12, _POSITIVE),
    },
    "picard": {
        "tol_F": (_number, 1e-10, _POSITIVE),
        "max_iters": (_int, 50, (lambda v: v >= 1, "must be >= 1")),
        "force_on_failed_certificate": (_bool, False, None),
    },
    "scenario": {
        "name": (_string, _REQUIRED,
                 (lambda v: v in SCENARIO_NAMES, f"must be one of {', '.join(SCENARIO_NAMES)}")),
        "scale": (_number, 1.0, _POSITIVE),
    },
    "data": {
        "psi_file": (_string, _REQUIRED, None),
        "f_file": (_string, _REQUIRED, None),
        "phi_file": (_string, _REQUIRED, None),
        "omega_file": (_string, _REQUIRED, None),
        "a_file": (_string, None, None),
    },
    "output": {
        "dir": (_string, _REQUIRED, None),
        "synth_ny": (_int, 32, (lambda v: v >= 2, "must be >= 2")),
        "formats": (lambda v: v, None, None),  # retired and ignored; old configs carry it
    },
}


def _invalid(key: str, requirement: str, value) -> ConfigurationError:
    return ConfigurationError(f"config: {key} {requirement}, got {value!r}")


def _hint(name: str, known, prefix: str = "") -> str:
    import difflib

    match = difflib.get_close_matches(name, list(known), n=1)
    return f" (did you mean {prefix}{match[0]}?)" if match else ""


def _read_section(section: str, body: dict) -> dict:
    """Every key of the section's schema: parsed and range-checked when
    given, its default otherwise."""
    values = {}
    for key, (parse, default, check) in _SCHEMA[section].items():
        if key not in body:
            if default is _REQUIRED:
                raise ConfigurationError(f"config: missing required key {section}.{key}")
            values[key] = default
            continue
        value = body[key]
        try:
            values[key] = parse(value)
        except ValueError as err:
            raise _invalid(f"{section}.{key}", str(err), value) from None
        if check is not None and not check[0](values[key]):
            raise _invalid(f"{section}.{key}", check[1], value)
    return values


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise ConfigurationError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigurationError("config: the top level must be an object")
    for section, body in raw.items():
        if section not in _SCHEMA:
            raise ConfigurationError(
                f"config: unknown section '{section}'{_hint(section, _SCHEMA)}")
        if body is not None and not isinstance(body, dict):
            raise ConfigurationError(f"config: section '{section}' must be an object")
        for key in body or ():
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"config: unknown key {section}.{key}"
                    f"{_hint(key, _SCHEMA[section], prefix=section + '.')}")
    if (raw.get("scenario") is None) == (raw.get("data") is None):
        raise ConfigurationError("config: exactly one of 'scenario' or 'data' must be present")

    cfg = {section: _read_section(section, raw.get(section) or {}) for section in _SCHEMA
           if raw.get(section) is not None or section not in ("scenario", "data")}
    domain, grid, spectral = cfg["domain"], cfg["grid"], cfg["spectral"]
    margin = cfg["certify"]["boundary_margin"]
    if grid["Ny_quad"] is not None and grid["Ny_quad"] < 4 * spectral["K"]:
        raise _invalid("grid.Ny_quad", f"must be >= 4 * spectral.K = {4 * spectral['K']}",
                       grid["Ny_quad"])
    if 2 * margin >= grid["Nx"] + 2:
        raise _invalid("certify.boundary_margin", "must be <= (grid.Nx + 1) // 2 = "
                       f"{(grid['Nx'] + 1) // 2} to leave interior nodes", margin)
    if domain["T"] / grid["Nt"] < sys.float_info.min:
        raise _invalid("domain.T", f"must be >= grid.Nt * {sys.float_info.min:.6g} so that the "
                       "time step T / grid.Nt is a normal float", domain["T"])
    scenario = cfg.get("scenario")
    if scenario is not None and not math.isclose(domain["Lx"], math.pi, rel_tol=1e-9):
        raise _invalid("domain.Lx", "must be pi for a scenario", domain["Lx"])

    data = cfg.get("data")
    return RunConfig(
        grid=build_grid(Domain((domain["Lx"],), domain["T"]), Nx=grid["Nx"], Nt=grid["Nt"]),
        params=SpectralParams(K=spectral["K"], epsilon=spectral["epsilon"], Ny=grid["Ny_quad"]),
        theta=cfg["scheme"]["theta"],
        certify=CertifyOptions(**cfg["certify"]),
        tol_F=cfg["picard"]["tol_F"],
        max_iters=cfg["picard"]["max_iters"],
        force=cfg["picard"]["force_on_failed_certificate"],
        scenario_name=None if scenario is None else scenario["name"],
        scenario_scale=1.0 if scenario is None else scenario["scale"],
        data_files=None if data is None else {k: v for k, v in data.items() if v is not None},
        output_dir=Path(cfg["output"]["dir"]),
        synth_ny=cfg["output"]["synth_ny"],
    )


def assemble_scenario(cfg: RunConfig) -> Scenario:
    if cfg.scenario_name is None:
        raise ConfigurationError("config: this command needs a scenario, not data files")
    return build_scenario(cfg.scenario_name, cfg.grid, cfg.params, scale=cfg.scenario_scale)


def assemble_data(cfg: RunConfig, base_dir: Path) -> ProblemData:
    """Problem data from either the named scenario or the data files."""
    if cfg.scenario_name is not None:
        return assemble_scenario(cfg).data

    files = {k: _resolve(base_dir, v) for k, v in cfg.data_files.items()}
    psi = read_field_csv(files["psi_file"], cfg.grid)
    f_modes = read_modes_csv(files["f_file"], cfg.grid, cfg.params)
    phi_modes = read_mode_profiles_csv(files["phi_file"], cfg.grid, cfg.params)
    y, omega_vals = read_profile_csv(files["omega_file"])
    if not math.isclose(y[0], 0.0, abs_tol=1e-12) or not math.isclose(y[-1], math.pi, rel_tol=1e-9):
        raise ConfigurationError("omega profile must span [0, pi]")
    if len(y) - 1 < 4 * cfg.params.K:
        raise ConfigurationError(
            f"omega profile has {len(y) - 1} subintervals; need at least 4K = {4 * cfg.params.K}")
    omega = OmegaData.from_profiles(y, omega_vals, cfg.params.K)
    return ProblemData(grid=cfg.grid, psi=psi, f_modes=f_modes,
                       phi_modes=phi_modes, omega=omega, params=cfg.params)


def _resolve(base_dir: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base_dir / p
