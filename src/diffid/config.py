"""JSON run configuration: schema validation and assembly of problem data."""

from __future__ import annotations

import json
import math
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


# Every key load_config reads, per section, plus output.formats: retired and
# ignored, but older configs still carry it.
_KNOWN_KEYS = {
    "domain": ("dim", "Lx", "T"),
    "grid": ("Nx", "Nt", "Ny_quad"),
    "spectral": ("K", "epsilon"),
    "scheme": ("theta",),
    "certify": ("C_S", "boundary_margin", "psi_floor"),
    "picard": ("tol_F", "max_iters", "force_on_failed_certificate"),
    "scenario": ("name", "scale"),
    "data": ("psi_file", "f_file", "phi_file", "omega_file", "a_file"),
    "output": ("dir", "synth_ny", "formats"),
}


def _check_known_keys(raw) -> None:
    """Reject a section or key load_config does not read, naming the dotted
    key and the closest known one."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config: the top level must be an object")
    for section, body in raw.items():
        known = _KNOWN_KEYS.get(section)
        if known is None:
            raise ConfigurationError(
                f"config: unknown section '{section}'{_hint(section, _KNOWN_KEYS)}")
        for key in body if isinstance(body, dict) else ():
            if key not in known:
                raise ConfigurationError(
                    f"config: unknown key {section}.{key}"
                    f"{_hint(key, known, prefix=section + '.')}")


def _hint(name: str, known, prefix: str = "") -> str:
    import difflib

    match = difflib.get_close_matches(name, list(known), n=1)
    return f" (did you mean {prefix}{match[0]}?)" if match else ""


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"config: missing required key {where}.{key}")
    return section[key]


def _float(value, key: str) -> float:
    """A finite number; the error names the dotted config key."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigurationError(f"config: {key} must be a number, got {value!r}") from err
    if not math.isfinite(number):
        raise ConfigurationError(f"config: {key} must be finite, got {value!r}")
    return number


def _int(value, key: str) -> int:
    """An integral number (JSON 16.0 is accepted, 16.9 is not)."""
    number = _float(value, key)
    if not number.is_integer():
        raise ConfigurationError(f"config: {key} must be an integer, got {value!r}")
    return int(number)


def _section(raw: dict, key: str, required: bool = True) -> dict:
    sec = raw.get(key)
    if sec is None:
        if required:
            raise ConfigurationError(f"config: missing required section '{key}'")
        return {}
    if not isinstance(sec, dict):
        raise ConfigurationError(f"config: section '{key}' must be an object")
    return sec


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise ConfigurationError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from err
    _check_known_keys(raw)

    dom_sec = _section(raw, "domain")
    dim = _int(dom_sec.get("dim", 1), "domain.dim")
    if dim != 1:
        raise ConfigurationError(f"config: domain.dim must be 1 (G is an interval), got {dim}")
    Lx = _float(_require(dom_sec, "Lx", "domain"), "domain.Lx")
    T = _float(_require(dom_sec, "T", "domain"), "domain.T")
    domain = Domain((Lx,), T)

    grid_sec = _section(raw, "grid")
    Nx = _int(_require(grid_sec, "Nx", "grid"), "grid.Nx")
    Nt = _int(_require(grid_sec, "Nt", "grid"), "grid.Nt")
    grid = build_grid(domain, Nx=Nx, Nt=Nt)

    spec_sec = _section(raw, "spectral")
    epsilon = _float(spec_sec.get("epsilon", 1.0), "spectral.epsilon")
    if epsilon <= 0:
        raise ConfigurationError(f"config: spectral.epsilon must be positive, got {epsilon!r}")
    params = SpectralParams(
        K=_int(_require(spec_sec, "K", "spectral"), "spectral.K"),
        epsilon=epsilon,
        Ny=_int(grid_sec["Ny_quad"], "grid.Ny_quad") if "Ny_quad" in grid_sec else None,
    )

    theta = _float(_section(raw, "scheme", required=False).get("theta", 0.5), "scheme.theta")
    if not 0.5 <= theta <= 1.0:
        raise ConfigurationError(f"config: scheme.theta must lie in [0.5, 1], got {theta!r}")

    cert_sec = _section(raw, "certify", required=False)
    certify = CertifyOptions(
        C_S=_float(cert_sec.get("C_S", 1.0), "certify.C_S"),
        boundary_margin=_int(cert_sec.get("boundary_margin", 2), "certify.boundary_margin"),
        psi_floor=_float(cert_sec.get("psi_floor", 1e-12), "certify.psi_floor"),
    )

    pic_sec = _section(raw, "picard", required=False)
    tol_F = _float(pic_sec.get("tol_F", 1e-10), "picard.tol_F")
    max_iters = _int(pic_sec.get("max_iters", 50), "picard.max_iters")
    force = pic_sec.get("force_on_failed_certificate", False)
    if not isinstance(force, bool):
        raise ConfigurationError(
            f"config: picard.force_on_failed_certificate must be true or false, got {force!r}")
    if tol_F <= 0 or max_iters < 1:
        raise ConfigurationError("config: picard.tol_F must be > 0 and max_iters >= 1")

    scn_sec = raw.get("scenario")
    data_sec = raw.get("data")
    if (scn_sec is None) == (data_sec is None):
        raise ConfigurationError("config: exactly one of 'scenario' or 'data' must be present")

    scenario_name = None
    scenario_scale = 1.0
    data_files = None
    if scn_sec is not None:
        scenario_name = str(_require(scn_sec, "name", "scenario"))
        if scenario_name not in SCENARIO_NAMES:
            raise ConfigurationError(
                f"config: unknown scenario {scenario_name!r}; choose from {SCENARIO_NAMES}")
        scenario_scale = _float(scn_sec.get("scale", 1.0), "scenario.scale")
        if scenario_scale <= 0:
            raise ConfigurationError("config: scenario.scale must be positive")
    else:
        data_files = {}
        for key in ("psi_file", "f_file", "phi_file", "omega_file"):
            data_files[key] = str(_require(data_sec, key, "data"))
        if "a_file" in data_sec:
            data_files["a_file"] = str(data_sec["a_file"])

    out_sec = _section(raw, "output")
    output_dir = Path(str(_require(out_sec, "dir", "output")))
    synth_ny = _int(out_sec.get("synth_ny", 32), "output.synth_ny")
    if synth_ny < 2:
        raise ConfigurationError("config: output.synth_ny must be >= 2")

    return RunConfig(
        grid=grid,
        params=params,
        theta=theta,
        certify=certify,
        tol_F=tol_F,
        max_iters=max_iters,
        force=force,
        scenario_name=scenario_name,
        scenario_scale=scenario_scale,
        data_files=data_files,
        output_dir=output_dir,
        synth_ny=synth_ny,
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
