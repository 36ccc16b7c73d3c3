import json
import re
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
)
from diffid.certificates import Certificate
from diffid.errors import DataError, DivisionHazardError
from diffid.fileio import write_json
from diffid.grids import diff, l2_sq_G, l2_sq_GT


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
    with pytest.raises(DivisionHazardError, match=re.escape(
            f"|psi| < certify.psi_floor = 1e-12 at grid node (0, 1), t = 0, "
            f"x = {grid.x[1]:.6g}; cannot divide")):
        compute_Psi(data, 1e-12)


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
    cert = compute_certificate(constant_psi_data(Nx=8, Nt=4), CertifyOptions())
    assert abs(cert.C_P - 1.0) <= 1e-12
    cert = compute_certificate(constant_psi_data(Lx=2.0, Nx=8, Nt=4), CertifyOptions())
    assert cert.C_P == pytest.approx((2.0 / np.pi) ** 2, abs=1e-12)


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


def _ref_frac_norm(v, grid, tau, level, measure, modes=None):
    """sum_k lambda_k^{2 tau} (|v_k|^2 [+ |grad v_k|^2]) as a per-mode loop:
    rows of modes 1..K unless modes are given, over G (level 0 or 1) or
    over G_T (level 0)."""
    lam = (np.arange(1, len(v) + 1) if modes is None else np.asarray(modes)).astype(float) ** 2
    total = 0.0
    for k in range(len(v)):
        if measure == "G":
            part = l2_sq_G(v[k], grid)
            if level == 1:
                part += l2_sq_G(diff(v[k], grid.hx, axis=-1), grid)
        else:
            part = l2_sq_GT(v[k], grid)
        total += lam[k] ** (2.0 * tau) * part
    return float(total)


def _ref_R_R1(data, Psi_M):
    """R and R1 of the data from the per-mode reference, at the certificate's
    own Psi_M: phi's rows over G, f's over G_T."""
    grid, p = data.grid, data.params
    phi, f = data.phi_modes, data.f_modes
    phi_1_tau1 = _ref_frac_norm(phi, grid, p.tau1, 1, "G")
    phi_0_tau1 = _ref_frac_norm(phi, grid, p.tau1, 0, "G")
    phi_0_tau2 = _ref_frac_norm(phi, grid, p.tau2, 0, "G")
    f_tau1 = _ref_frac_norm(f.values, grid, p.tau1, 0, "GT", f.modes)
    R = (phi_1_tau1 + 8.0 * np.float64(Psi_M)**2 * grid.T * phi_0_tau1 + phi_0_tau2
         + 4.0 * f_tau1)
    return float(R), phi_1_tau1 + phi_0_tau2 + 4.0 * f_tau1


def random_data(rng, Nx, Nt, K, f_modes, epsilon=1.0):
    """psi in [1, 2), random phi over several decades and f rows of the given
    modes, on (0, pi) x (0, 0.5)."""
    grid = Grid(np.pi, 0.5, Nx=Nx, Nt=Nt)
    params = SpectralParams(K=K, epsilon=epsilon, Ny=max(64, 4 * K))
    f = ModeFieldSet(grid, params, rng.standard_normal((len(f_modes),) + grid.field_shape)
                     * 10.0 ** rng.uniform(-3, 3), np.asarray(f_modes, dtype=int))
    phi = rng.standard_normal((K, Nx + 2)) * 10.0 ** rng.uniform(-5, 5, size=(K, 1))
    return ProblemData(psi=ScalarField(grid, 1.0 + rng.random(grid.field_shape)), f_modes=f,
                       phi_modes=phi, omega=OmegaData(rng.standard_normal(K)))


@settings(max_examples=40, deadline=None)
@given(Nx=st.integers(4, 40), Nt=st.integers(4, 40), K=st.integers(1, 16),
       eps=st.floats(0.05, 6.0), seed=st.integers(0, 2**32 - 1))
def test_R_terms_match_per_mode_reference(Nx, Nt, K, eps, seed):
    # R and R1 have the bits of the per-mode loop, for a compact f (of no
    # rows too) and for its full() stack
    rng = np.random.default_rng(seed)
    modes = np.sort(rng.choice(np.arange(1, K + 1), size=rng.integers(0, K + 1), replace=False))
    data = random_data(rng, Nx, Nt, K, modes, epsilon=eps)
    options = CertifyOptions(boundary_margin=1)
    cert = compute_certificate(data, options)
    assert (cert.R, cert.R1) == _ref_R_R1(data, cert.Psi_M)
    dense = replace(data, f_modes=data.f_modes.full())
    dense_cert = compute_certificate(dense, options)
    assert (dense_cert.R, dense_cert.R1) == _ref_R_R1(dense, dense_cert.Psi_M)
    assert dense_cert.R1 == cert.R1


def test_R_terms_of_single_modes():
    # phi_k = sqrt(2/pi) sin x has unit norm over G and a gradient of norm ~1,
    # so with psi = 1 and f = 0 (Psi_M = 0) R = R1 = lambda_k^{2 tau1} * 2 +
    # lambda_k^{2 tau2}; eps = 1 gives tau1 = 1/2, tau2 = 1
    grid = Grid(np.pi, 0.5, Nx=256, Nt=8)
    params = SpectralParams(K=2, Ny=64)
    psi = ScalarField(grid, np.ones(grid.field_shape))
    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    unit = np.sqrt(2.0 / np.pi) * np.sin(grid.x)
    for rows, expected in (([1, 0], 2.0 + 1.0), ([0, 1], 4.0 * 2.0 + 16.0),
                           ([1, 1], 3.0 + 24.0)):
        phi = np.array(rows, dtype=float)[:, None] * unit
        data = ProblemData(psi=psi, f_modes=ModeFieldSet.empty(grid, params),
                           phi_modes=phi, omega=om)
        cert = compute_certificate(data, CertifyOptions())
        assert cert.Psi_M == 0.0
        assert cert.R == cert.R1 == pytest.approx(expected, rel=1e-4)


def test_zero_mode_with_an_overflowing_weight_adds_nothing_to_R():
    # MMS-B excites mode 1 only; at eps = 2000 mode 2's weight 4^(2 tau1) is
    # beyond float range, and its zero phi row must not make R inf * 0 = NaN
    grid = Grid(np.pi, 0.5, Nx=16, Nt=16)
    certs = [compute_certificate(build_scenario("MMS-B", grid, SpectralParams(
        K=K, epsilon=2000.0, Ny=64)).data, CertifyOptions()) for K in (1, 2)]
    assert np.isfinite(certs[1].R) and certs[1].R == certs[0].R
    assert certs[1].R1 == certs[0].R1


def test_R1_nondecreasing_in_epsilon():
    # lambda_k >= 1 and tau1, tau2 grow with eps, so every R1-term does
    rng = np.random.default_rng(5)
    data = random_data(rng, 24, 12, 4, [2, 3])
    R1 = []
    for eps in (0.1, 0.5, 1.0, 3.0):
        params = SpectralParams(K=4, epsilon=eps, Ny=64)
        f = ModeFieldSet(data.grid, params, data.f_modes.values, data.f_modes.modes)
        R1.append(compute_certificate(replace(data, f_modes=f), CertifyOptions()).R1)
    assert all(a <= b for a, b in zip(R1, R1[1:]))


def test_R_terms_scale_quadratically():
    # phi and f times s with psi kept: R1 is a sum of squared norms of phi and
    # f, so it scales by s^2; with f = 0, Psi does not move and R does too
    rng = np.random.default_rng(13)
    s = 3.0
    for f_modes in ([1, 3], []):
        data = random_data(rng, 32, 16, 3, f_modes)
        base = compute_certificate(data, CertifyOptions())
        scaled = compute_certificate(data.scaled(s), CertifyOptions())
        assert scaled.R1 == pytest.approx(s**2 * base.R1, rel=1e-12)
        if not f_modes:
            assert scaled.R == pytest.approx(s**2 * base.R, rel=1e-12)


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
