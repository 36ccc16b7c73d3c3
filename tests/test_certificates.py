import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffid import (
    SCENARIO_NAMES,
    CertifyOptions,
    ConfigurationError,
    Grid,
    ModeFieldSet,
    OmegaData,
    ProblemData,
    ScalarField,
    SpectralParams,
    build_scenario,
    compute_Psi,
    compute_certificate,
    conditions,
    first_dirichlet_eigenvalue,
)
from diffid.certificates import Certificate
from diffid.errors import DataError, DivisionHazardError
from diffid.fileio import write_json
from diffid.sinebasis import frac_norm


def constant_psi_data(Lx=np.pi, T=1.0, Nx=32, Nt=16, f_const=0.0, K=2, epsilon=1.0):
    """psi = 1 everywhere with a constant first source mode: every certificate
    constant is hand-computable."""
    grid = Grid(Lx, T, Nx=Nx, Nt=Nt)
    params = SpectralParams(K=K, epsilon=epsilon, Ny=64)
    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    f_vals = np.zeros((K,) + grid.field_shape)
    f_vals[0] = f_const
    return ProblemData(
        psi=ScalarField(grid, np.ones(grid.field_shape)),
        f_modes=ModeFieldSet(grid, params, f_vals),
        phi_modes=np.zeros((K, grid.Nx + 2)),
        omega=om,
    )


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda g, p: {"f_modes": ModeFieldSet.empty(Grid(np.pi, 1.0, Nx=32, Nt=8), p)},
                 "f grid .* does not match psi grid", id="f-grid"),
    pytest.param(lambda g, p: {"phi_modes": np.zeros((3, g.Nx + 2))},
                 r"phi mode stack shape \(3, 34\) != \(2, 34\)", id="phi-shape"),
    pytest.param(lambda g, p: {"phi_modes": np.full((2, g.Nx + 2), np.nan)},
                 "phi modes contain non-finite values", id="phi-nan"),
    pytest.param(lambda g, p: {"omega": OmegaData.from_profiles(p.y, np.sin(p.y), 3)},
                 "omega carries 3 sine coefficients, need K = 2", id="omega-K-above"),
    pytest.param(lambda g, p: {"omega": OmegaData.from_profiles(p.y, np.sin(p.y), 1)},
                 "omega carries 1 sine coefficients, need K = 2", id="omega-K-below"),
])
def test_problem_data_rejects_mismatched_parts(change, message):
    """ProblemData's grid is psi's and its K is f's; every other part must
    agree with them."""
    base = constant_psi_data()
    parts = {"psi": base.psi, "f_modes": base.f_modes, "phi_modes": base.phi_modes,
             "omega": base.omega}
    with pytest.raises(DataError, match=message):
        ProblemData(**{**parts, **change(base.grid, base.params)})


def test_Psi_mmsa_equals_two():
    grid = Grid(np.pi, 1.0, Nx=128, Nt=128)
    scn = build_scenario("MMS-A", grid, SpectralParams(K=4, Ny=256))
    Psi = compute_Psi(scn.data, 1e-12)
    inner = grid.interior(2)
    assert np.max(np.abs(Psi.values[:, inner] - 2.0)) <= 1e-2


def test_Psi_caloric_measurement_vanishes():
    # psi = e^{-t} cos(x - pi/2) = e^{-t} sin x satisfies psi_t = psi_xx, so
    # with f = 0 the numerator vanishes up to FD error
    grid = Grid(np.pi, 1.0, Nx=128, Nt=128)
    params = SpectralParams(K=2, Ny=64)
    data = replace(build_scenario("NULL", grid, params).data,
                   psi=ScalarField(grid, np.exp(-grid.t)[:, None] * np.sin(grid.x)[None, :]))
    Psi = compute_Psi(data, 1e-12)
    inner = grid.interior(2)
    assert np.max(np.abs(Psi.values[:, inner])) <= 1e-3


def test_Psi_scale_invariance():
    grid = Grid(np.pi, 0.5, Nx=48, Nt=24)
    params = SpectralParams(K=2, Ny=64)
    scn = build_scenario("MMS-A", grid, params)
    Psi1 = compute_Psi(scn.data, 1e-12)
    s = 7.3
    scaled = replace(scn.data, psi=ScalarField(grid, s * scn.data.psi.values),
                     f_modes=ModeFieldSet(grid, params, s * scn.data.f_modes.values,
                                          scn.data.f_modes.modes))
    Psi2 = compute_Psi(scaled, 1e-12)
    assert np.max(np.abs(Psi1.values - Psi2.values)) <= 1e-12


def test_Psi_division_hazard_names_node():
    grid = Grid(np.pi, 1.0, Nx=16, Nt=8)
    params = SpectralParams(K=1, Ny=64)
    data = replace(build_scenario("NULL", grid, params).data,
                   psi=ScalarField(grid, np.zeros(grid.field_shape)))
    with pytest.raises(DivisionHazardError) as err:
        compute_Psi(data, 1e-12)
    assert err.value.node is not None


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(SCENARIO_NAMES), N=st.integers(8, 32), K=st.integers(1, 4),
       T=st.floats(0.1, 2.0), s=st.floats(1e-3, 1e3))
def test_q_invariant_under_rescaling_whole_data_set(name, N, K, T, s):
    # psi, f and phi all times s: A_eps and B scale by 1/s and 1/s^2, R and
    # R1 by s^2, and Psi is a ratio, so q_local and q_global are unchanged
    grid = Grid(np.pi, T, Nx=N, Nt=N)
    data = build_scenario(name, grid, SpectralParams(K=K, Ny=64)).data
    rescaled = replace(data.scaled(s), psi=ScalarField(grid, s * data.psi.values))
    base = compute_certificate(data, CertifyOptions())
    cert = compute_certificate(rescaled, CertifyOptions())
    assert cert.q_local == pytest.approx(base.q_local, rel=1e-10, abs=0.0)
    assert cert.q_global == pytest.approx(base.q_global, rel=1e-10, abs=0.0)


def test_poincare_constant_of_interval():
    g1 = Grid(np.pi, 1.0, Nx=8, Nt=4)
    assert abs(1.0 / first_dirichlet_eigenvalue(g1) - 1.0) <= 1e-12
    g2 = Grid(2.0, 1.0, Nx=8, Nt=4)
    assert 1.0 / first_dirichlet_eigenvalue(g2) == pytest.approx(
        (2.0 / np.pi) ** 2, abs=1e-12)


def test_A_eps_closed_form():
    # eps = 1, omega = sin y, psi = 1: A = sqrt(pi) sqrt(3/2) sqrt(pi/2) = pi sqrt(0.75)
    data = constant_psi_data()
    cert = compute_certificate(data, CertifyOptions())
    assert abs(cert.A_eps - np.pi * np.sqrt(0.75)) <= 1e-12
    assert abs(cert.C_P - 1.0) <= 1e-12


def test_zero_Psi_M_local_time_condition_any_T():
    data = constant_psi_data(T=5.0, f_const=0.0)
    cert = compute_certificate(data, CertifyOptions())
    assert cert.Psi_M <= 1e-12
    assert cert.cond_local_T  # holds for every T when Psi_M = 0
    assert not cert.cond_T_le_1  # but the T <= 1 hypothesis still gates the verdict


def test_failing_q_names_condition():
    grid = Grid(np.pi, 0.5, Nx=32, Nt=16)
    scn = build_scenario("MMS-A", grid, SpectralParams(K=4, Ny=64))
    cert = compute_certificate(scn.data, CertifyOptions())
    assert cert.q_local > 1.0
    assert not cert.local_pass
    local = {label: (margin, holds) for scope, label, margin, holds in conditions(cert)
             if scope == "local"}
    assert local["4*R*B < 1"] == (1.0 - cert.q_local, False)
    margin, holds = local["2*Psi_M*T <= A_eps*C_S"]
    assert margin > 0 and holds


def test_homothety_flips_global_poincare_condition():
    # constant psi = 1 with unit first source mode: Psi_M = pi/2, A_1 = pi sqrt(0.75);
    # the global inequality fails on (0, 4) by less than 4x and holds on (0, 2)
    certs = {}
    for L in (4.0, 2.0):
        data = constant_psi_data(Lx=L, f_const=1.0)
        certs[L] = compute_certificate(data, CertifyOptions())
    assert certs[4.0].Psi_M == pytest.approx(np.pi / 2, abs=1e-10)
    assert not certs[4.0].cond_global_poincare
    lhs = 2.0 * certs[4.0].Psi_M**2 * certs[4.0].C_P
    rhs = certs[4.0].A_eps**2
    assert lhs / rhs < 4.0
    assert certs[2.0].cond_global_poincare
    assert certs[2.0].C_P == pytest.approx(certs[4.0].C_P / 4.0, rel=1e-12)


def test_R_terms_scale_quadratically():
    grid = Grid(np.pi, 0.5, Nx=32, Nt=16)
    params = SpectralParams(K=3, Ny=64)
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((3, grid.Nx + 2))
    s = 3.0
    for tau, level in ((params.tau1, 1), (params.tau1, 0), (params.tau2, 0)):
        base = frac_norm(phi, grid, tau, level=level)
        scaled = frac_norm(s * phi, grid, tau, level=level)
        assert scaled == pytest.approx(s**2 * base, rel=1e-12)


def test_q_local_scale_covariance_with_fixed_Psi():
    # with f = 0 the lifted source is unaffected by data scaling, so scaling
    # phi alone multiplies every R-term, hence q, by s^2 exactly
    grid = Grid(np.pi, 0.5, Nx=32, Nt=16)
    params = SpectralParams(K=2, Ny=64)
    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((2, grid.Nx + 2))
    psi = ScalarField(grid, np.ones(grid.field_shape))

    def cert_for(scale):
        data = ProblemData(psi=psi, f_modes=ModeFieldSet.empty(grid, params),
                           phi_modes=scale * phi, omega=om)
        return compute_certificate(data, CertifyOptions())

    c1, c2 = cert_for(1.0), cert_for(2.5)
    assert c2.q_local == pytest.approx(2.5**2 * c1.q_local, rel=1e-12)
    assert c2.q_global == pytest.approx(2.5**2 * c1.q_global, rel=1e-12)


def test_increasing_T_never_rescues_local_verdict():
    params = SpectralParams(K=4, Ny=64)
    certs = []
    for T in (0.25, 0.5, 1.0):
        grid = Grid(np.pi, T, Nx=32, Nt=16)
        scn = build_scenario("MMS-A", grid, params)
        certs.append(compute_certificate(scn.data, CertifyOptions()))
    for prev, cur in zip(certs, certs[1:]):
        assert cur.R >= prev.R - 1e-9
        assert not (cur.local_pass and not prev.local_pass)


def _init_fields(written: dict) -> dict:
    """The constructor arguments of a Certificate among a certificate.json's keys."""
    return {f.name: written[f.name] for f in fields(Certificate) if f.init}


def test_certificate_json_roundtrip(tmp_path):
    data = constant_psi_data(f_const=0.5)
    cert = compute_certificate(data, CertifyOptions())
    path = tmp_path / "certificate.json"
    write_json(path, asdict(cert))
    written = json.loads(path.read_text(encoding="utf-8"))
    back = Certificate(**_init_fields(written))
    assert back == cert
    assert asdict(back) == written
    assert list(asdict(back)) == list(written)
    # floats survive the round trip exactly (repr carries 17 significant
    # digits), and the derived constants are the float64 products
    A, C, R, R1 = (np.float64(written[k]) for k in ("A_eps", "C_S", "R", "R1"))
    B = 2.0 * A**2 * C**2
    assert (back.B, back.q_local, back.q_global) == (B, 4.0 * R * B, 4.0 * R1 * B)


@pytest.mark.parametrize("key", ["q_local", "cond_local_q", "cond_global_poincare",
                                 "local_pass", "global_pass"])
def test_certificate_read_back_rederives_edited_fields(tmp_path, key):
    """Certificate(**init fields) of an edited certificate.json derives its
    verdicts from the constants again, so the edit shows as a difference."""
    original = asdict(compute_certificate(constant_psi_data(f_const=0.5), CertifyOptions()))
    value = original[key]
    edited = {**original, key: (not value) if isinstance(value, bool) else 2.0 * value + 1.0}
    path = tmp_path / "certificate.json"
    write_json(path, edited)
    written = json.loads(path.read_text(encoding="utf-8"))
    back = Certificate(**_init_fields(written))
    assert asdict(back) != written
    assert asdict(back) == original


def test_check_global_margins():
    data = constant_psi_data(f_const=1.0, Lx=2.0)
    cert = compute_certificate(data, CertifyOptions())
    assert [row[1:] for row in conditions(cert) if row[0] == "global"] == [
        ("2*Psi_M^2*C_P <= A_eps^2*C_S^2",
         cert.A_eps**2 * cert.C_S**2 - 2.0 * cert.Psi_M**2 * cert.C_P, cert.cond_global_poincare),
        ("4*R1*B < 1", 1.0 - cert.q_global, cert.cond_global_q),
    ]



def test_condition_side_beyond_float_range_fails_the_condition():
    """A finite Psi_M whose square leaves float range fails the Poincare
    condition with a margin of -inf, and is not an error."""
    cert = Certificate(epsilon=1.0, A_eps=1.0, C_S=1.0, C_P=1.0, Psi_M=1e200, R=1e-3,
                       R1=1e-3, T=0.5, boundary_margin=2, provenance="")
    assert not cert.cond_global_poincare and not cert.global_pass
    rows = {label: (margin, holds) for _, label, margin, holds in conditions(cert)}
    assert rows["2*Psi_M^2*C_P <= A_eps^2*C_S^2"] == (-np.inf, False)
    assert rows["4*R1*B < 1"] == (1.0 - cert.q_global, True)


@pytest.mark.parametrize("C_P", [0.0, -1.0])
def test_certificate_rejects_a_poincare_constant_that_is_not_positive(C_P):
    # C_P = 1/lambda_1 > 0; a zero would read 2*Psi_M^2*C_P as inf * 0 = nan
    with pytest.raises(ConfigurationError, match=r"^certificate constant C_P = "):
        Certificate(epsilon=1.0, A_eps=1.0, C_S=1.0, C_P=C_P, Psi_M=1e200, R=1e-3,
                    R1=1e-3, T=0.5, boundary_margin=2, provenance="")

def _separate_checks(cert):
    """The local and the global condition table, label -> (margin, verdict),
    as two separate checks, flattened local first: the reference order."""
    local = {
        "2*Psi_M*T <= A_eps*C_S": (cert.A_eps * cert.C_S - 2.0 * cert.Psi_M * cert.T,
                                   cert.cond_local_T),
        "T <= 1": (1.0 - cert.T, cert.cond_T_le_1),
        "4*R*B < 1": (1.0 - cert.q_local, cert.cond_local_q),
    }
    glob = {
        "2*Psi_M^2*C_P <= A_eps^2*C_S^2": (cert.A_eps**2 * cert.C_S**2
                                           - 2.0 * cert.Psi_M**2 * cert.C_P,
                                           cert.cond_global_poincare),
        "4*R1*B < 1": (1.0 - cert.q_global, cert.cond_global_q),
    }
    return [(scope, label, margin, holds) for scope, table in (("local", local), ("global", glob))
            for label, (margin, holds) in table.items()]


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(SCENARIO_NAMES), N=st.integers(8, 24), T=st.floats(0.1, 2.0),
       scale=st.sampled_from([1e-3, 1.0, 10.0]), C_S=st.floats(0.1, 10.0))
def test_conditions_match_separate_checks(name, N, T, scale, C_S):
    grid = Grid(np.pi, T, Nx=N, Nt=N)
    data = build_scenario(name, grid, SpectralParams(K=2, Ny=64), scale=scale).data
    cert = compute_certificate(data, CertifyOptions(C_S=C_S))
    rows = conditions(cert)
    assert rows == _separate_checks(cert)
    assert cert.local_pass == all(holds for scope, _, _, holds in rows if scope == "local")
    assert cert.global_pass == all(holds for scope, _, _, holds in rows if scope == "global")


def test_invalid_options():
    with pytest.raises(ConfigurationError):
        CertifyOptions(C_S=0.0)
    with pytest.raises(ConfigurationError):
        CertifyOptions(boundary_margin=0)
