"""JSON run configuration: schema validation and assembly of problem data."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .certificates import CertifyOptions
from .errors import ConfigurationError, DataError
from .fileio import read_field_csv, read_mode_profiles_csv, read_modes_csv, read_profile_csv
from .grids import Grid
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
    data_files: dict[str, Path] | None  # resolved against the config file's directory
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
_PATH = (lambda v: v != "", "must be a non-empty path")

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
        "psi_file": (_string, _REQUIRED, _PATH),
        "f_file": (_string, _REQUIRED, _PATH),
        "phi_file": (_string, _REQUIRED, _PATH),
        "omega_file": (_string, _REQUIRED, _PATH),
        "a_file": (_string, None, _PATH),
    },
    "output": {
        "dir": (_string, _REQUIRED, _PATH),
        "synth_ny": (_int, 32, (lambda v: v >= 2, "must be >= 2")),
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


def _check_array_sizes(Nx: int, Nt: int, params: SpectralParams, synth_ny: int) -> None:
    """Reject sizes that make one of a run's arrays larger than numpy can
    address.  numpy raises MemoryError for an array this machine cannot hold,
    which the CLI reports, but ValueError ("Maximum allowed size exceeded")
    for one of more than sys.maxsize bytes, so such a size must fail here,
    naming its keys.  These are the largest arrays each size enters."""
    K, Ny = params.K, params.Ny
    for array, keys, shape in (
            ("a mode stack", "spectral.K x (grid.Nt + 1) x (grid.Nx + 2)", (K, Nt + 1, Nx + 2)),
            ("the x sine transform", "grid.Nx x grid.Nx", (Nx, Nx)),
            ("omega's sine table", "spectral.K x (grid.Ny_quad + 1)", (K, Ny + 1)),
            ("a u_synth time level", "(grid.Nx + 2) x (output.synth_ny + 1)",
             (Nx + 2, synth_ny + 1)),
            ("u_synth's sine table", "spectral.K x (output.synth_ny + 1)", (K, synth_ny + 1))):
        if 8 * math.prod(shape) > sys.maxsize:
            raise ConfigurationError(
                f"config: {keys} = {' x '.join(f'{n:.6g}' for n in shape)} makes {array} "
                f"of over sys.maxsize = {sys.maxsize} bytes, which numpy cannot address")


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError as err:
        raise ConfigurationError(f"config file not found: {path}") from err
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"config file is not UTF-8 text: {path}: byte "
                                 f"0x{err.object[err.start]:02x} ({err.reason})") from err
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
    params = SpectralParams(K=spectral["K"], epsilon=spectral["epsilon"], Ny=grid["Ny_quad"])
    _check_array_sizes(grid["Nx"], grid["Nt"], params, cfg["output"]["synth_ny"])

    data = cfg.get("data")
    config_dir = Path(path).resolve().parent
    return RunConfig(
        grid=Grid(domain["Lx"], domain["T"], grid["Nx"], grid["Nt"]),
        params=params,
        theta=cfg["scheme"]["theta"],
        certify=CertifyOptions(**cfg["certify"]),
        tol_F=cfg["picard"]["tol_F"],
        max_iters=cfg["picard"]["max_iters"],
        force=cfg["picard"]["force_on_failed_certificate"],
        scenario_name=None if scenario is None else scenario["name"],
        scenario_scale=1.0 if scenario is None else scenario["scale"],
        data_files=None if data is None else {k: config_dir / v for k, v in data.items()
                                              if v is not None},
        output_dir=Path(cfg["output"]["dir"]),
        synth_ny=cfg["output"]["synth_ny"],
    )


def assemble_data(cfg: RunConfig) -> tuple[ProblemData, Scenario | None]:
    """Problem data from either the named scenario or the data files, with
    the scenario (None in data mode)."""
    if cfg.scenario_name is not None:
        scn = build_scenario(cfg.scenario_name, cfg.grid, cfg.params, scale=cfg.scenario_scale)
        return scn.data, scn

    files = cfg.data_files
    psi = read_field_csv(files["psi_file"], cfg.grid)
    f_modes = read_modes_csv(files["f_file"], cfg.grid, cfg.params)
    phi_modes = read_mode_profiles_csv(files["phi_file"], cfg.grid, cfg.params)
    try:
        omega_vals = read_profile_csv(files["omega_file"], cfg.params)
    except DataError as err:
        raise DataError(f"{err} (grid.Ny_quad = {cfg.params.Ny} sets omega's y nodes)") from err
    try:
        omega = OmegaData.from_profiles(cfg.params.y, omega_vals, cfg.params.K)
    except DataError as err:
        raise DataError(f"{files['omega_file']}: {err}") from err
    return ProblemData(psi=psi, f_modes=f_modes, phi_modes=phi_modes, omega=omega), None
