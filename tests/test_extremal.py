"""Equality-case constructions and the canonical-form diagnostic.

Witness gradients are pinned by hand: the zero case attains
1 / (1 - |p|^2) at p, the nonzero case (1 - |a|^2) / (1 - |p|^2).
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from holoball import (
    Diagnosis,
    ExtremalSpec,
    InputError,
    AffineMap,
    MobiusMap,
    Pipeline,
    PolyMap,
    PreconditionError,
    diagnose_equality_form,
    disk_slice,
    equality_gap,
    extremal_nonzero_case,
    extremal_zero_case,
    mod_grad,
    sp_bound,
    vnorm,
)
from holoball import complexcore, extremal, geometry, holomap

E1 = np.array([1.0, 0.0])
P_HALF = np.array([0.5, 0.0])


def test_zero_case_two_dims():
    f = extremal_zero_case(ExtremalSpec.zero(P_HALF, E1, [1.0]))
    assert np.abs(f.eval(P_HALF)).max() <= 1e-15
    g = mod_grad(f, P_HALF)
    assert g.branch == "zero"
    assert g.value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(equality_gap(f, P_HALF)) <= 1e-12


def test_zero_case_vector_target():
    f = extremal_zero_case(ExtremalSpec.zero([0.5], [1.0], [0.0, 1.0]))
    assert f.m == 2
    assert mod_grad(f, 0.5).value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(equality_gap(f, [0.5])) <= 1e-12


def test_zero_case_at_origin_is_rotated_identity():
    f = extremal_zero_case(ExtremalSpec.zero([0.0], [1.0], [1.0]))
    assert f.eval(0.3)[0] == pytest.approx(-0.3, abs=1e-15)
    rep = sp_bound(f, 0.0)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == 1.0


def test_nonzero_case_disk_example():
    f = extremal_nonzero_case(ExtremalSpec.nonzero([0.0], [1.0], [0.5], 0.0))
    assert f.eval(0.0)[0] == pytest.approx(0.5, abs=1e-15)
    # f(z) = (1/2 - z) / (1 - z/2)
    for z in (0.2, -0.3j, 0.1 + 0.4j):
        expected = (0.5 - z) / (1.0 - 0.5 * z)
        assert f.eval(z)[0] == pytest.approx(expected, abs=1e-14)
    g = mod_grad(f, 0.0)
    assert g.value == pytest.approx(0.75, abs=1e-13)
    assert abs(equality_gap(f, [0.0])) <= 1e-13


def test_nonzero_case_target_value_and_gradient():
    for na in (0.2, 0.5, 0.8):
        a = na * np.array([0.6, 0.8])
        f = extremal_nonzero_case(ExtremalSpec.nonzero([0.0, 0.0], E1, a, 0.7))
        assert np.abs(f.eval([0.0, 0.0]) - a).max() <= 1e-15
        assert mod_grad(f, [0.0, 0.0]).value == pytest.approx(1.0 - na**2, abs=1e-13)


def test_nonzero_case_gap_is_theta_independent():
    for k in range(8):
        theta = 2.0 * np.pi * k / 8.0
        f = extremal_nonzero_case(ExtremalSpec.nonzero(P_HALF, E1, [0.3, 0.4j], theta))
        assert abs(equality_gap(f, P_HALF)) <= 1e-12


def test_direction_phase_freedom():
    # any unit phase of p/|p| is collinear and gives the same gap
    u = np.exp(0.7j) * E1
    f = extremal_zero_case(ExtremalSpec.zero(P_HALF, u, [1.0]))
    assert abs(equality_gap(f, P_HALF)) <= 1e-12


def test_witnesses_map_into_the_ball():
    rng = np.random.default_rng(61)
    maps = [
        extremal_zero_case(ExtremalSpec.zero(P_HALF, E1, [1.0])),
        extremal_nonzero_case(ExtremalSpec.nonzero(P_HALF, E1, [0.3, 0.4j], 1.2)),
    ]
    dirs = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    dirs /= np.sqrt((np.abs(dirs) ** 2).sum(axis=1))[:, None]
    pts = dirs * rng.uniform(0.0, 1.0, size=1000)[:, None] ** 0.25
    for f in maps:
        vals = f.eval_many(pts)
        assert (np.sqrt((np.abs(vals) ** 2).sum(axis=1)) < 1.0).all()


def random_witness_inputs(seed, count):
    """``count`` (p, u, beta, a, theta) tuples, every third p with
    |p| = 1 - 10^-k for k uniform in [2, 6]; u, beta and a/|a| are
    normalized in float, as a caller would."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d /= np.sqrt((np.abs(d) ** 2).sum())
        r = 1.0 - 10.0 ** -rng.uniform(2, 6) if i % 3 == 0 else rng.uniform(0.0, 0.99)
        p = r * d
        u = p / np.sqrt((np.abs(p) ** 2).sum()) * np.exp(2j * np.pi * rng.random())
        beta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        beta /= np.sqrt((np.abs(beta) ** 2).sum())
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        a *= rng.uniform(0.05, 0.95) / np.sqrt((np.abs(a) ** 2).sum())
        out.append((p, u, beta, a, float(2 * np.pi * rng.random())))
    return out


def exact_sq_norm(v) -> Fraction:
    """sum |v_j|^2 of the binary values of v, exactly."""
    parts = np.asarray(v, dtype=np.complex128).reshape(-1).view(np.float64)
    return sum(Fraction(x) ** 2 for x in parts.tolist())


def test_stored_witness_vectors_lie_in_the_closed_ball_exactly():
    # conj(u) is the first stage's matrix; beta and a/|a| the last stage's
    for k, (p, u, beta, a, theta) in enumerate(random_witness_inputs(71, 500)):
        if k % 2:
            f = extremal_nonzero_case(ExtremalSpec.nonzero(p, u, a, theta))
        else:
            f = extremal_zero_case(ExtremalSpec.zero(p, u, beta))
        first, last = f.stages[0], f.stages[-1]
        assert exact_sq_norm(first.M) <= 1
        assert exact_sq_norm(last.M) <= 1
        # the inward rounding moves each part by a few ulps at most
        assert np.abs(first.M[0] - np.conj(u) / np.sqrt((np.abs(u) ** 2).sum())).max() <= 1e-15


def test_stored_zero_witness_satisfies_the_bound_near_the_sphere():
    # closed form of the stored map f(z) = beta phi_z0(<z, u>) at 50 digits:
    # |grad|f||(z) = |phi_z0'(<z, u>)| |u| |beta|
    mp = pytest.importorskip("mpmath")

    def mpf(q: Fraction):
        return mp.mpf(q.numerator) / q.denominator

    rng = np.random.default_rng(73)
    with mp.workdps(50):
        for p, u, beta, _, _ in random_witness_inputs(72, 200):
            f = extremal_zero_case(ExtremalSpec.zero(p, u, beta))
            us, z0, bs = np.conj(f.stages[0].M[0]), f.stages[1].b, f.stages[2].M[:, 0]
            # a probe on the equality slice, 1 - |z| log-uniform in [1e-12, 1e-3]
            z = (1.0 - 10.0 ** rng.uniform(-12, -3)) * np.exp(2j * np.pi * rng.random()) * u
            sq_u, sq_beta, sq_z = (mpf(exact_sq_norm(v)) for v in (us, bs, z))
            zeta = mp.fsum(mp.mpc(x) * mp.conj(mp.mpc(y)) for x, y in zip(z.tolist(), us.tolist()))
            a = mp.mpc(complex(z0))
            den = 1 - mp.conj(a) * zeta
            phi = (a - zeta) / den
            lhs = (1 - abs(a) ** 2) / abs(den) ** 2 * mp.sqrt(sq_u * sq_beta)
            rhs = (1 - abs(phi) ** 2 * sq_beta) / (1 - sq_z)
            assert rhs - lhs >= 0


def test_projection_identity_along_slice():
    # <f(L(z)), a/|a|> is exactly the Moebius quotient in the slice variable
    a = np.array([0.3, 0.4j])
    na = float(np.sqrt((np.abs(a) ** 2).sum()))
    theta = 1.2
    f = extremal_nonzero_case(ExtremalSpec.nonzero(P_HALF, E1, a, theta))
    q = np.array([0.75, 0.0])
    ds = disk_slice(P_HALF, q)
    zs = ds.c + 0.9 * ds.r * np.exp(2j * np.pi * np.arange(64) / 64)
    pts = ds.line().eval_many(zs[:, None])
    proj = f.eval_many(pts) @ np.conj(a / na)
    scalar = Pipeline([MobiusMap(-1.0, 0.5), MobiusMap(np.exp(1j * theta), na)])
    expected = scalar.eval_many((pts @ np.conj(E1))[:, None])[:, 0]
    assert np.abs(proj - expected).max() <= 1e-12


def test_one_dim_witnesses_match_direct_formulas():
    # with n = 1 and u = 1 the constructions reduce to the disk forms
    rng = np.random.default_rng(67)
    p = 0.4 - 0.2j
    beta = np.exp(0.3j)
    fz = extremal_zero_case(ExtremalSpec.zero([p], [1.0], [beta]))
    a = 0.35 * np.exp(1.1j)
    theta = 2.2
    fn = extremal_nonzero_case(ExtremalSpec.nonzero([p], [1.0], [a], theta))
    for _ in range(50):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        phi = (p - z) / (1.0 - np.conj(p) * z)
        assert abs(fz.eval(z)[0] - beta * phi) <= 1e-12
        na = abs(a)
        M = (na + np.exp(1j * theta) * phi) / (1.0 + na * np.exp(1j * theta) * phi)
        assert abs(fn.eval(z)[0] - M * a / na) <= 1e-12


def test_non_collinear_direction_rejected():
    with pytest.raises(InputError, match="collinear"):
        extremal_zero_case(ExtremalSpec.zero(P_HALF, [0.0, 1.0], [1.0]))
    with pytest.raises(InputError, match="collinear"):
        extremal_nonzero_case(ExtremalSpec.nonzero(P_HALF, [0.0, 1.0], [0.5, 0.0], 0.0))


def test_non_collinear_construction_misses_equality():
    # the same formula with a non-collinear direction stays strictly below
    # the bound at p: this is why the constructor refuses it
    f = Pipeline([AffineMap([[0.0, 1.0]], [0.0]), MobiusMap(-1.0, 0.0), AffineMap([[1.0]], [0.0])])
    assert np.abs(f.eval(P_HALF)).max() == 0.0
    assert equality_gap(f, P_HALF) >= 0.3


def test_spec_validation():
    with pytest.raises(InputError):
        extremal_zero_case(ExtremalSpec.zero(P_HALF, [0.5, 0.0], [1.0]))  # u not unit
    with pytest.raises(InputError):
        extremal_zero_case(ExtremalSpec.zero(P_HALF, E1, [1.0, 1.0]))  # beta not unit
    with pytest.raises(InputError):
        extremal_zero_case(ExtremalSpec.zero([1.0, 0.0], E1, [1.0]))  # p on sphere
    with pytest.raises(InputError):
        extremal_nonzero_case(ExtremalSpec.nonzero(P_HALF, E1, [0.0, 0.0], 0.0))  # a = 0
    with pytest.raises(InputError):
        extremal_nonzero_case(ExtremalSpec.nonzero(P_HALF, E1, [1.0, 0.0], 0.0))  # |a| = 1
    with pytest.raises(InputError):
        extremal_nonzero_case(ExtremalSpec.zero(P_HALF, E1, [1.0]))  # wrong case
    with pytest.raises(InputError):
        extremal_zero_case(ExtremalSpec(case="zero", p=P_HALF, u=E1))  # beta missing
    # a huge direction is reported with its finite length
    with pytest.raises(InputError, match=r"\|u\| = 1e\+200"):
        extremal_zero_case(ExtremalSpec.zero([0.1], [1e200], [1.0]))


def test_a_judged_spec_cannot_be_reassigned():
    # a reassigned beta used to reach the construction unjudged and raise TypeError
    s = ExtremalSpec.zero([0.3, 0.0], [1.0, 0.0], [1.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.beta = [1.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExtremalSpec.nonzero([0.0], [1.0], [0.5], 0.7).theta = "0.7"
    assert s.beta.tobytes() == np.array([1.0 + 0j]).tobytes()


def test_a_witness_coerces_each_vector_once(monkeypatch):
    seen = []

    def counting(x):
        seen.append(x)
        return as_carray(x)

    as_carray = complexcore._as_carray
    for module in (complexcore, holomap):
        monkeypatch.setattr(module, "_as_carray", counting)
    # complex128 vectors come back as they are, so a second coercion of a
    # stored vector would pass the same object again
    p, u, beta, a = (np.array(v, dtype=np.complex128) for v in
                     ([0.3, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0], [0.5j]))
    for build, vectors in [
        (lambda: extremal_zero_case(ExtremalSpec.zero(p, u, beta)), (p, u, beta)),
        (lambda: extremal_nonzero_case(ExtremalSpec.nonzero(p, u, a, 0.7)), (p, u, a)),
    ]:
        seen.clear()
        build()
        assert [sum(x is v for x in seen) for v in vectors] == [1, 1, 1]


def test_diagnose_zero_case_round_trip():
    f = extremal_zero_case(ExtremalSpec.zero(P_HALF, E1, [1.0]))
    d = diagnose_equality_form(f, P_HALF, [0.75, 0.0])
    assert d.matches
    assert d.max_residual <= 1e-10
    assert d.points_tested == 64
    assert np.abs(d.fitted_beta - np.array([1.0])).max() <= 1e-10
    assert d.fitted_theta is None


def test_diagnose_nonzero_round_trip_recovers_theta():
    f = extremal_nonzero_case(ExtremalSpec.nonzero([0.0], [1.0], [0.5], np.pi / 3.0))
    d = diagnose_equality_form(f, [0.0], [0.5])
    assert d.matches
    assert d.fitted_theta == pytest.approx(np.pi / 3.0, abs=1e-12)
    assert d.fitted_a[0] == pytest.approx(0.5, abs=1e-15)
    assert d.orthogonal_max <= 1e-12


def test_diagnose_vector_nonzero_case():
    a = np.array([0.3, 0.4j])
    f = extremal_nonzero_case(ExtremalSpec.nonzero(P_HALF, E1, a, 0.9))
    d = diagnose_equality_form(f, P_HALF, [0.625, 0.0])
    assert d.matches
    assert d.fitted_theta == pytest.approx(0.9, abs=1e-10)
    assert np.abs(d.fitted_a - a).max() <= 1e-14
    # square root of a cancelling difference of squares: sqrt(eps) scale
    assert d.orthogonal_max <= 1e-7


def test_diagnose_reads_f_and_its_slice_derivative_at_p_from_one_pass():
    # f(p) and g'(0) = Df(p) (q - p) equal what the slice map g = f o L gives
    p, q = np.array([0.3, 0.4j]), np.array([0.45, 0.6j])
    f = extremal_nonzero_case(ExtremalSpec.nonzero(p, [0.6, 0.8j], [0.3, -0.4j], 0.9))
    d = diagnose_equality_form(f, p, q)
    assert np.array_equal(d.fitted_a, f.eval(p))
    g = Pipeline([AffineMap((q - p)[:, None], p), f])
    ds = disk_slice(p, q)
    nfp = vnorm(d.fitted_a)
    hprime = complex(g.jacobian([0.0])[:, 0] @ np.conj(d.fitted_a / nfp))
    wprime = -ds.r / ((ds.r - abs(ds.c)) * (ds.r + abs(ds.c)))
    assert d.fitted_theta == float(np.angle(hprime / (((1.0 - nfp) * (1.0 + nfp)) * wprime)))


def test_diagnose_builds_one_disk_slice(monkeypatch):
    slices = []

    def counting(p, q):
        slices.append(build(p, q))
        return slices[-1]

    build = geometry.disk_slice
    monkeypatch.setattr(extremal, "disk_slice", counting)
    monkeypatch.setattr(geometry, "disk_slice", counting)
    f = extremal_zero_case(ExtremalSpec.zero(P_HALF, E1, [1.0]))
    assert diagnose_equality_form(f, P_HALF, [0.75, 0.0]).matches
    assert len(slices) == 1


def test_diagnose_rejects_broken_hypothesis():
    square = PolyMap.from_scalar_coeffs([0.0, 0.0, 1.0])
    with pytest.raises(PreconditionError):
        diagnose_equality_form(square, [0.0], [0.5])


def test_diagnose_rejects_non_collinear_slice():
    f = extremal_zero_case(ExtremalSpec.zero(P_HALF, E1, [1.0]))
    with pytest.raises(InputError, match="collinear"):
        diagnose_equality_form(f, P_HALF, [0.5, 0.25])


def test_diagnose_flags_perturbed_map():
    # -z + eps z^2 attains equality at 0 but is not of the canonical form
    s = PolyMap.from_scalar_coeffs([0.0, -1.0, 1e-3])
    assert equality_gap(s, 0.0) == 0.0
    d = diagnose_equality_form(s, [0.0], [0.5])
    assert not d.matches
    assert d.max_residual > 1e-4


def test_diagnose_validation():
    f = extremal_zero_case(ExtremalSpec.zero([0.0], [1.0], [1.0]))
    with pytest.raises(InputError):
        diagnose_equality_form(f, [0.0], [0.5], samples=1)
    # a fractional count would sample ceil(samples) points and report fewer
    with pytest.raises(InputError, match="samples must be an integer"):
        diagnose_equality_form(f, [0.0], [0.5], samples=2.5)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(InputError, match="tol must be a positive real"):
            diagnose_equality_form(f, [0.0], [0.5], tol=tol)
    with pytest.raises(InputError):
        diagnose_equality_form(f, [0.0, 0.0], [0.5, 0.0])


def test_diagnosis_serialization():
    d = Diagnosis(matches=True, max_residual=1e-12, points_tested=64,
                  fitted_beta=np.array([1.0 + 0.0j]))
    out = d.to_dict()
    assert out["matches"] is True
    assert out["fitted_beta"] == [[1.0, 0.0]]
    assert out["fitted_theta"] is None
    assert out["orthogonal_max"] is None
