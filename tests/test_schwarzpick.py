"""Two-branch modulus gradient, its finite-difference realization, and the
bound checks, pinned to hand-computed values.

Frozen cases:
* identity at 0: branch zero, value 1
* (z, 1)/sqrt(2) at 0: branch nonzero, A = (0,), value 0
* (z1 + z2)/2 at (1/2, 0): A = (1/8, 1/8), value sqrt(2)/2, slack
  1.25 - sqrt(2)/2
* z^2 at 1/2: equality gap exactly 0.25
"""

import warnings

import numpy as np
import pytest

from holoball import (
    CertificationError,
    ExtremalSpec,
    InputError,
    MobiusMap,
    Pipeline,
    PolyMap,
    AffineMap,
    disk_slice,
    equality_gap,
    extremal_zero_case,
    force_zero_at,
    gen_random_polymap,
    mod_grad,
    mod_grad_fd,
    mod_grad_fd_many,
    sample_ball_points,
    sp_bound,
    sp_bound_many,
    sp_bound_slice,
    spectral_norm,
    vnorm,
)
from holoball import holomap, schwarzpick
from holoball.complexcore import sphere_rows
from holoball.holomap import _contract
from holoball.schwarzpick import FD_STEPS, ZERO_BRANCH_TOL, _grad_many, _row_norms

S = 1.0 / np.sqrt(2.0)
HALFSUM = PolyMap(2, 1, {(1, 0): [0.5], (0, 1): [0.5]})
COUNTEREXAMPLE = PolyMap(1, 2, {(0,): [0.0, S], (1,): [S, 0.0]})


def test_defaults_pinned():
    assert ZERO_BRANCH_TOL == 1e-13
    assert FD_STEPS == (1e-4, 5e-5)


def test_mod_grad_identity_zero_branch():
    g = mod_grad(PolyMap.identity(1), 0.0)
    assert g.branch == "zero"
    assert g.value == pytest.approx(1.0, abs=1e-12)
    assert g.A is None
    assert g.top_dir is not None
    assert not g.ambiguous


def test_mod_grad_counterexample():
    g = mod_grad(COUNTEREXAMPLE, 0.0)
    assert g.branch == "nonzero"
    assert g.value == 0.0
    assert np.array_equal(g.A, [0.0])


def test_mod_grad_halfsum():
    g = mod_grad(HALFSUM, [0.5, 0.0])
    assert g.branch == "nonzero"
    assert np.allclose(g.A, [0.125, 0.125], atol=1e-16)
    assert g.value == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)


def test_nonzero_branch_invariant():
    f = gen_random_polymap(2, 3, max_degree=3, margin=0.25, seed=9)
    z = np.array([0.3 - 0.1j, 0.2j])
    g = mod_grad(f, z)
    assert g.branch == "nonzero"
    v = f.eval(z)
    recomputed = np.sqrt((np.abs(g.A) ** 2).sum()) / np.sqrt((np.abs(v) ** 2).sum())
    assert abs(g.value - recomputed) <= 1e-14


def test_ambiguous_band_reports_both_branches():
    # |f(0)| = 5e-14 sits in (tol/10, tol]: zero-branch value with the
    # nonzero quotient as alternative
    f = PolyMap(1, 2, {(0,): [5e-14, 0.0], (1,): [1.0, 1.0]})
    g = mod_grad(f, 0.0)
    assert g.branch == "zero"
    assert g.ambiguous
    assert g.value == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert g.alt_value == pytest.approx(1.0, abs=1e-10)

    below = mod_grad(PolyMap(1, 2, {(0,): [5e-15, 0.0], (1,): [1.0, 1.0]}), 0.0)
    assert below.branch == "zero" and not below.ambiguous and below.alt_value is None

    above = mod_grad(PolyMap(1, 2, {(0,): [5e-13, 0.0], (1,): [1.0, 1.0]}), 0.0)
    assert above.branch == "nonzero" and not above.ambiguous


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 4), (4, 2)])
def test_ambiguous_band_agrees_with_the_fd_oracle(n, m):
    # a forced zero at p, then a step along the top singular direction that
    # puts |f| inside the ambiguous band (tol/10, tol]
    seed = 700 + 10 * n + m
    p = 0.5 * sample_ball_points(n, 1, seed=seed)[0]
    f = force_zero_at(gen_random_polymap(n, m, 3, 0.25, seed=seed), p, 0.25)
    sigma, d = spectral_norm(f.jacobian(p))
    for target in (2e-14, 5e-14, 9e-14):
        z = p + target / sigma * d
        assert ZERO_BRANCH_TOL / 10.0 < vnorm(f.eval(z)) <= ZERO_BRANCH_TOL
        g = mod_grad(f, z)
        assert g.branch == "zero" and g.ambiguous
        assert abs(g.value - mod_grad_fd(f, z, seed=seed)) <= 1e-4


def test_grad_result_serialization():
    d = mod_grad(COUNTEREXAMPLE, 0.0).to_dict()
    assert d["branch"] == "nonzero"
    assert d["A"] == [[0.0, 0.0]]
    assert d["top_dir"] is None
    assert d["alt_value"] is None
    z = mod_grad(PolyMap.identity(2), [0.0, 0.0]).to_dict()
    assert z["branch"] == "zero" and z["A"] is None and len(z["top_dir"]) == 2


def test_mod_grad_validation():
    with pytest.raises(InputError):
        mod_grad(PolyMap.identity(2), np.zeros((2, 2), dtype=complex))


def test_fd_identity():
    assert mod_grad_fd(PolyMap.identity(1), 0.3) == pytest.approx(1.0, abs=1e-6)


def test_fd_counterexample_converges_to_zero():
    assert abs(mod_grad_fd(COUNTEREXAMPLE, 0.0)) <= 1e-4


def test_fd_halfsum():
    got = mod_grad_fd(HALFSUM, [0.5, 0.0])
    assert got == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-5)


def test_fd_zero_branch_uses_top_direction():
    f = extremal_zero_case(ExtremalSpec.zero([0.5, 0.0], [1.0, 0.0], [1.0]))
    got = mod_grad_fd(f, [0.5, 0.0])
    assert got == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_fd_validation():
    f = PolyMap.identity(1)
    with pytest.raises(InputError):
        mod_grad_fd(f, 0.0, dirs=8)
    with pytest.raises(InputError):
        mod_grad_fd(f, 0.0, dirs=64.0)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        mod_grad_fd(f, 0.0, seed=-1)


def refused_without_a_warning(call) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as exc:
            call()
    assert type(exc.value) is InputError
    return str(exc.value)


def test_a_value_that_overflows_is_refused():
    # f(1e120) overflows: the gradient and the FD oracle refuse the point
    # with the bound's error, and no numpy warning escapes
    f = PolyMap.from_scalar_coeffs([0.1, 0.2, 0.3, 0.1])
    for call in (lambda: mod_grad(f, 1e120), lambda: mod_grad_fd(f, 1e120),
                 lambda: mod_grad_fd_many(f, [[0.5], [1e120], [0.25]], [0, 1, 2])):
        with pytest.raises(InputError) as exc:
            call()
        assert type(exc.value) is InputError
        assert str(exc.value) == "map value is not finite at the point"


def test_rows_ahead_of_a_point_outside_the_ball_are_read_without_a_warning():
    # the rows before the first point outside the ball are evaluated, so that
    # an image which is not finite there is refused first; that evaluation
    # runs under the same errstate as the batch's kernel call
    f = PolyMap(1, 1, {(1,): [1e308], (2,): [1e308]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as exc:
            sp_bound_many(f, [[0.99], [2.0]])
    assert type(exc.value) is InputError
    assert str(exc.value) == "map value is not finite at the point"


def test_a_derivative_that_overflows_is_refused():
    # the last stage is constant, so Df = 0, but the chain-rule product at
    # 1e-311 is 0 * inf: every verdict refuses the point, and so does the FD
    # oracle where f = 0, since it reads Df there, and so do the map's own
    # Jacobian entries; no numpy warning escapes
    g = Pipeline([MobiusMap(1e308, 0.0), AffineMap([[10.0]], [0.0]), AffineMap([[0.0]], [0.5])])
    g0 = Pipeline([*g.stages[:2], AffineMap([[0.0]], [0.0])])
    for call in (lambda: sp_bound(g, 1e-311), lambda: sp_bound_many(g, [[2e-311], [1e-311]]),
                 lambda: mod_grad(g, 1e-311), lambda: mod_grad(g0, 1e-311),
                 lambda: mod_grad_fd(g0, 1e-311), lambda: g.jac_many([[1e-311]]),
                 lambda: g.eval_jac_many([[1e-311]]), lambda: g.jacobian(1e-311)):
        assert refused_without_a_warning(call) == "map derivative is not finite at the point"


def test_a_pipeline_batch_raises_what_its_first_bad_row_raises():
    # at 1e-300 the stages stay finite and the image leaves the ball; at 0.5
    # 5e199 * 1e200 overflows between two stages, and the row's value is not
    # finite. No stage judges its input, so the first bad row decides
    big = AffineMap([[1e200]], [0.0])
    pipe = Pipeline([big, big, MobiusMap(-1.0, 0.1)])
    with pytest.raises(CertificationError) as want:
        sp_bound(pipe, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertificationError) as got:
            sp_bound_many(pipe, [[1e-300], [0.5]])
    assert str(got.value) == str(want.value)
    assert refused_without_a_warning(lambda: sp_bound_many(pipe, [[0.5], [1e-300]])) == (
        "map value is not finite at the point")


# 1.7976e308 z: at 1e-10 its value and derivative are finite but A = conj(f) Df
# is not; at 0.9999999 its value is finite but the FD oracle's rows z +- t e
# are not
HUGE_LINEAR = PolyMap(1, 1, {(1,): [1.7976e308]})


def test_an_A_that_overflows_is_refused():
    assert refused_without_a_warning(lambda: mod_grad(HUGE_LINEAR, 1e-10)) == (
        "A = conj(f) Df is not finite at the point")


def test_fd_rows_that_overflow_are_refused():
    assert np.isfinite(HUGE_LINEAR.eval(0.9999999)).all()
    for call in (lambda: mod_grad_fd(HUGE_LINEAR, 0.9999999),
                 lambda: mod_grad_fd_many(HUGE_LINEAR, [[0.5], [0.9999999], [0.25]], [0, 1, 2])):
        assert refused_without_a_warning(call) == "map value is not finite at the point"


@pytest.mark.parametrize("kind", ["poly", "affine", "mobius", "witness"])
def test_a_batch_calls_the_kernels_once(monkeypatch, kind):
    # sp_bound_many evaluates the map in one kernel call: on the whole batch,
    # or on the rows ahead of its first point outside the ball, which are
    # none when that is the first row; a kernel that calls another of the
    # same map, as AffineMap's Jacobian kernel calls its value kernel, is one
    # call
    p = np.array([0.3 - 0.1j, 0.2j])
    f = {
        "poly": gen_random_polymap(2, 2, max_degree=3, margin=0.25, seed=5),
        "affine": AffineMap([[0.5, 0.25j]], [0.1]),
        "mobius": MobiusMap(-1.0, 0.3 + 0.1j),
        "witness": extremal_zero_case(ExtremalSpec.zero(p, p / vnorm(p), [0.6, 0.8j])),
    }[kind]
    calls, open_calls = [], []
    for name in ("_value", "_value_jac"):
        def counting(self, X, kernel=getattr(type(f), name), name=name):
            if not open_calls:
                calls.append((name, X.shape[0]))
            open_calls.append(name)
            try:
                return kernel(self, X)
            finally:
                open_calls.pop()

        monkeypatch.setattr(type(f), name, counting)
    inside = sample_ball_points(f.n, 4, seed=6)
    outside = np.full((1, f.n), 1.2)
    for zs, rows in ((inside, 4), (np.concatenate([inside[:2], outside, inside[2:]]), 2),
                     (np.concatenate([outside, inside]), 0)):
        calls.clear()
        if rows == zs.shape[0]:
            sp_bound_many(f, zs)
        else:
            with pytest.raises(InputError, match="point must lie strictly inside"):
                sp_bound_many(f, zs)
        assert calls == [("_value_jac", rows)]


def test_a_derivative_coefficient_past_the_float_range():
    # 2 * 1e308 overflows, yet f'(1e-110) = 2e198 and A = 2e286 are finite;
    # the column without an overflow keeps the plain product's bits
    f = PolyMap(1, 1, {(2,): [1e308]})
    g = mod_grad(f, 1e-110)
    assert g.branch == "nonzero"
    assert abs(g.value - 2e198) <= 1e-15 * 2e198
    h = PolyMap(2, 1, {(2, 0): [1e308], (0, 3): [0.25 + 0.5j]})
    z = np.array([1e-110, 0.3 - 0.2j])
    assert abs(h.jacobian(z)[0, 0] - 2e198) <= 1e-15 * 2e198
    assert h.jacobian(z)[0, 1] == PolyMap(2, 1, {(0, 3): [0.25 + 0.5j]}).jacobian(z)[0, 1]


def test_one_dim_scalar_specialization():
    # n = m = 1: the modulus gradient is |f'|
    rng = np.random.default_rng(43)
    for seed in range(5):
        f = gen_random_polymap(1, 1, max_degree=4, margin=0.3, seed=seed)
        for _ in range(20):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            g = mod_grad(f, z)
            if g.branch != "nonzero":
                continue
            assert abs(g.value - abs(f.jacobian(z)[0, 0])) <= 1e-13


def test_one_dim_vector_specialization():
    # n = 1, m > 1, f(z) != 0: the gradient is |<f'(z), f(z)>| / |f(z)|
    rng = np.random.default_rng(47)
    for seed in range(5):
        f = gen_random_polymap(1, 3, max_degree=3, margin=0.3, seed=seed)
        for _ in range(20):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            v = f.eval(z)
            nv = np.sqrt((np.abs(v) ** 2).sum())
            if nv <= ZERO_BRANCH_TOL:
                continue
            manual = abs(np.vdot(v, f.jacobian(z)[:, 0])) / nv
            assert abs(mod_grad(f, z).value - manual) <= 1e-13


def test_real_gradient_identity():
    # off the zero set, the value equals the Euclidean norm of the real
    # 2n-gradient of |f|, estimated by central differences
    h = 1e-6
    rng = np.random.default_rng(53)
    maps = [HALFSUM, gen_random_polymap(2, 2, max_degree=3, margin=0.25, seed=3)]
    for f in maps:
        for _ in range(5):
            z = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0)
            acc = 0.0
            for j in range(2):
                for step in (h, 1j * h):
                    e = np.zeros(2, dtype=np.complex128)
                    e[j] = step
                    gp = np.sqrt((np.abs(f.eval(z + e)) ** 2).sum())
                    gm = np.sqrt((np.abs(f.eval(z - e)) ** 2).sum())
                    acc += ((gp - gm) / (2.0 * h)) ** 2
            assert abs(np.sqrt(acc) - mod_grad(f, z).value) <= 1e-6


def test_zero_branch_limit_has_first_order():
    # at a zero of f the one-sided quotient tends to |Df(z) beta| with O(t)
    f = extremal_zero_case(ExtremalSpec.zero([0.5, 0.0], [1.0, 0.0], [1.0]))
    p = np.array([0.5, 0.0], dtype=np.complex128)
    beta = np.array([0.6, 0.8j])
    target = np.sqrt((np.abs(f.jacobian(p) @ beta) ** 2).sum())
    errs = []
    for t in (1e-3, 1e-4, 1e-5):
        quot = np.sqrt((np.abs(f.eval(p + t * beta)) ** 2).sum()) / t
        errs.append(abs(quot - target))
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9


def test_sp_bound_identity_equality():
    rep = sp_bound(PolyMap.identity(1), 0.0)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == 1.0
    assert abs(rep.slack) <= 1e-12
    assert rep.holds


def test_sp_bound_counterexample():
    rep = sp_bound(COUNTEREXAMPLE, 0.0)
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(0.5, abs=1e-15)
    assert rep.holds
    assert rep.branch == "nonzero"


def test_sp_bound_halfsum_slack():
    rep = sp_bound(HALFSUM, [0.5, 0.0])
    assert rep.rhs == pytest.approx(1.25, abs=1e-15)
    assert rep.slack == pytest.approx(1.25 - np.sqrt(2.0) / 2.0, abs=1e-14)


def test_sp_bound_serialization():
    d = sp_bound(HALFSUM, [0.5, 0.0]).to_dict()
    assert set(d) == {"point", "lhs", "rhs", "slack", "holds", "branch"}
    assert d["point"] == [[0.5, 0.0], [0.0, 0.0]]


def test_sp_bound_validation():
    with pytest.raises(InputError):
        sp_bound(PolyMap.identity(1), 1.0)
    # an int past the float range is no more a tolerance than inf
    for tol in (0.0, np.nan, np.inf, 10**400):
        with pytest.raises(InputError, match="tol must be a positive real"):
            sp_bound(PolyMap.identity(1), 0.0, tol=tol)
    doubler = PolyMap.from_scalar_coeffs([0.0, 2.0])
    with pytest.raises(CertificationError):
        sp_bound(doubler, 0.6)


def test_disk_automorphisms_attain_equality_everywhere():
    rng = np.random.default_rng(59)
    for _ in range(5):
        z0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        omega = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        f = Pipeline([MobiusMap(-1.0, z0), AffineMap([[omega]], [0.0])])
        for _ in range(20):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            assert abs(sp_bound(f, z).slack) <= 1e-12


def test_slice_bound_reduces_to_unit_disk_case():
    f = MobiusMap(-1.0, 0.2)
    direct = sp_bound(f, 0.3)
    sliced = sp_bound_slice(f, 0.3, 0.0, 1.0)
    assert sliced.lhs == direct.lhs
    assert sliced.rhs == direct.rhs
    assert sliced.slack == direct.slack


def test_slice_bound_scaled_disk():
    g = PolyMap.from_scalar_coeffs([0.0, 0.5])
    rep = sp_bound_slice(g, 0.0, 0.0, 2.0)
    assert rep.lhs == pytest.approx(0.5, abs=1e-15)
    assert rep.rhs == pytest.approx(0.5, abs=1e-15)
    assert abs(rep.slack) <= 1e-15


def test_slice_bound_on_extremal_restriction():
    # restricting a witness to its own line attains the slice bound at 0
    p = np.array([0.5, 0.0])
    q = np.array([0.75, 0.0])
    f = extremal_zero_case(ExtremalSpec.zero(p, [1.0, 0.0], [1.0]))
    ds = disk_slice(p, q)
    g = Pipeline([ds.line(), f])
    rep = sp_bound_slice(g, 0.0, ds.c, ds.r)
    assert abs(rep.slack) <= 1e-12


def test_slice_bound_validation():
    g = PolyMap.from_scalar_coeffs([0.0, 0.5])
    with pytest.raises(InputError):
        sp_bound_slice(g, 2.0, 0.0, 2.0)
    with pytest.raises(InputError):
        sp_bound_slice(HALFSUM, 0.0, 0.0, 1.0)
    with pytest.raises(InputError):
        sp_bound_slice(g, 0.0, 0.0, -1.0)
    with pytest.raises(InputError):
        sp_bound_slice(g, 0.1, float("nan"), 1.0)
    with pytest.raises(InputError, match="takes a single point"):
        sp_bound_slice(g, [0.1, 5.0], 0.0, 1.0)


def test_equality_gap_values():
    assert equality_gap(PolyMap.identity(1), 0.0) == pytest.approx(0.0, abs=1e-12)
    square = PolyMap.from_scalar_coeffs([0.0, 0.0, 1.0])
    assert equality_gap(square, 0.5) == pytest.approx(0.25, abs=1e-15)


# -- batches: row i is the point checked alone, bit for bit ------------------


def assert_same_report(a, b):
    assert np.array_equal(a.point, b.point)
    assert (a.lhs, a.rhs, a.slack, a.holds, a.tol, a.branch) == (
        b.lhs, b.rhs, b.slack, b.holds, b.tol, b.branch)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
def test_sp_bound_many_rows_equal_single_point(n, m):
    f = gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=100 + 10 * n + m)
    zs = sample_ball_points(n, 100, seed=200 + 10 * n + m)
    reports = sp_bound_many(f, zs)
    assert len(reports) == 100
    for i in range(100):
        assert_same_report(reports[i], sp_bound(f, zs[i]))
        assert reports[i].lhs == mod_grad(f, zs[i]).value
        # the per-point formulas in plain float arithmetic, as the reference
        v, J = f.eval(zs[i]), f.jacobian(zs[i])
        nv, nz = vnorm(v), vnorm(zs[i])
        assert reports[i].branch == "nonzero"
        assert reports[i].lhs == vnorm(J.T @ np.conj(v)) / nv
        assert reports[i].rhs == (1.0 - nv) * (1.0 + nv) / ((1.0 - nz) * (1.0 + nz))


def mixed_batch():
    """Nonzero rows around a zero of f (forced at p) and a row in the
    ambiguous band (1e-14, 1e-13] next to it."""
    p = np.array([0.3 - 0.1j, 0.2j])
    f = force_zero_at(gen_random_polymap(2, 3, max_degree=3, margin=0.25, seed=17), p, 0.25)
    d = np.array([0.6, 0.8j])
    near = p + 5e-14 / np.sqrt((np.abs(f.jacobian(p) @ d) ** 2).sum()) * d
    zs = np.concatenate([sample_ball_points(2, 3, seed=1), [p, near], sample_ball_points(2, 2, seed=2)])
    return f, zs


def test_mixed_batch_keeps_every_branch_bit_identical():
    f, zs = mixed_batch()
    singles = [mod_grad(f, z) for z in zs]
    assert [g.branch for g in singles] == ["nonzero"] * 3 + ["zero", "zero"] + ["nonzero"] * 2
    assert [g.ambiguous for g in singles] == [False] * 4 + [True, False, False]
    for rep, z, g in zip(sp_bound_many(f, zs), zs, singles):
        assert_same_report(rep, sp_bound(f, z))
        assert rep.lhs == g.value


def test_fd_many_rows_equal_single_point():
    f, zs = mixed_batch()
    seeds = [7 * i + 1 for i in range(zs.shape[0])]
    got = mod_grad_fd_many(f, zs, seeds)
    for i, z in enumerate(zs):
        assert got[i] == mod_grad_fd(f, z, seed=seeds[i])
    # rows past one kernel chunk off the zero set: 8n = 24 rows per point at
    # n = 3, so 1600 // 24 = 66 points per chunk and 150 points take 3 chunks
    assert schwarzpick._FD_MAX_ROWS // (8 * 3) == 66
    g = gen_random_polymap(3, 2, max_degree=3, margin=0.25, seed=4)
    ws = sample_ball_points(3, 150, seed=5)
    got = mod_grad_fd_many(g, ws, range(150))
    for i, w in enumerate(ws):
        assert got[i] == mod_grad_fd(g, w, seed=i)
    # and on it: (140 + 1) * 2 rows per point, 5 points per chunk, so the 8
    # zero rows of a witness (which vanishes on a hyperplane) take 2 chunks
    # between the nonzero rows
    assert schwarzpick._FD_MAX_ROWS // ((140 + 1) * len(FD_STEPS)) == 5
    p = np.array([0.3 - 0.1j, 0.2j])
    u = p / vnorm(p)
    h = extremal_zero_case(ExtremalSpec.zero(p, u, [0.6, 0.8j]))
    v = np.array([np.conj(u[1]), -np.conj(u[0])])  # orthogonal to u
    steps = [0.0, 0.3, -0.2j, 0.1 + 0.1j, -0.25, 0.2j, 0.4, -0.3 + 0.2j]
    ws = np.concatenate([sample_ball_points(2, 3, seed=6), [p + s * v for s in steps],
                         sample_ball_points(2, 3, seed=7)])
    assert (_row_norms(h.eval_many(ws)) <= ZERO_BRANCH_TOL).sum() == len(steps)
    got = mod_grad_fd_many(h, ws, range(len(ws)), dirs=140)
    for i, w in enumerate(ws):
        assert got[i] == mod_grad_fd(h, w, dirs=140, seed=i)


def several_zeros_batch(case):
    """A batch with several zero-branch rows, an ambiguous-band row and
    nonzero rows. "tied": a polynomial map vanishing at 0 and at (c, 0),
    with tied singular values |c|/4 there. "witness": a zero witness, which
    vanishes on the whole hyperplane <w, u> = <p, u>."""
    if case == "tied":
        c = 0.5 + 0.3j
        f = PolyMap(2, 2, {(2, 0): [0.25, 0.0], (1, 0): [-c / 4, 0.0], (0, 1): [0.0, abs(c) / 4]})
        zeros = np.array([[0.0, 0.0], [c, 0.0]])
    else:
        p = np.array([0.3 - 0.1j, 0.2j])
        u = p / vnorm(p)
        f = extremal_zero_case(ExtremalSpec.zero(p, u, [0.6, 0.8j]))
        v = np.array([np.conj(u[1]), -np.conj(u[0])])  # orthogonal to u
        zeros = np.array([p, p + 0.3 * v, p - 0.2j * v])
    d = np.array([0.6, 0.8j])
    near = zeros[0] + 5e-14 / vnorm(f.jacobian(zeros[0]) @ d) * d
    zs = np.concatenate([sample_ball_points(2, 2, seed=3), zeros[:1], [near],
                         zeros[1:], sample_ball_points(2, 2, seed=4)])
    return f, zs, len(zeros)


@pytest.mark.parametrize("case", ["tied", "witness"])
def test_batches_with_several_zero_rows_match_single_points(case):
    f, zs, zero_count = several_zeros_batch(case)
    V, J = f.eval_jac_many(zs)
    nv = _row_norms(V)
    A = _contract(V, J)
    quotient, value, zero, top = _grad_many(J, A, nv)
    singles = [mod_grad(f, z) for z in zs]
    assert [s.branch for s in singles].count("zero") == zero_count + 1
    assert [s.ambiguous for s in singles] == [False] * 3 + [True] + [False] * (zero_count + 1)
    assert zero.tolist() == [s.branch == "zero" for s in singles]
    assert value.tolist() == [s.value for s in singles]
    ambiguous = zero & (nv > ZERO_BRANCH_TOL / 10)
    assert ambiguous.tolist() == [s.ambiguous for s in singles]
    for i, (z, single) in enumerate(zip(zs, singles)):
        if single.branch == "nonzero":
            assert np.array_equal(A[i], single.A)
            assert not top[i].any()
            continue
        assert (quotient[i] if ambiguous[i] else None) == single.alt_value
        # a top singular direction is fixed only up to a unit phase
        J = f.jacobian(z)
        for d in (top[i], single.top_dir):
            assert abs(vnorm(d) - 1.0) <= 1e-14
            assert abs(vnorm(J @ d) - single.value) <= 1e-13 * single.value
    for rep, z in zip(sp_bound_many(f, zs), zs):
        assert_same_report(rep, sp_bound(f, z))
    seeds = [5 * i + 3 for i in range(zs.shape[0])]
    got = mod_grad_fd_many(f, zs, seeds)
    for i, z in enumerate(zs):
        assert got[i] == mod_grad_fd(f, z, seed=seeds[i])


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_batch_raises_what_the_first_bad_row_raises():
    doubler = PolyMap.from_scalar_coeffs([0.0, 2.0])
    # |z| >= 1 at row 2; the image leaves the ball at row 3
    zs = np.array([0.1, 0.2j, 1.0, 0.6])
    assert raised(sp_bound_many, doubler, zs) == raised(sp_bound, doubler, 1.0)
    assert raised(sp_bound_many, doubler, zs)[0] is InputError
    # the image leaves the ball at row 1, before the point outside it
    zs = np.array([0.1, -0.6, 1.5j])
    assert raised(sp_bound_many, doubler, zs) == raised(sp_bound, doubler, -0.6)
    assert raised(sp_bound_many, doubler, zs)[0] is CertificationError
    f = gen_random_polymap(2, 2, max_degree=3, margin=0.25, seed=3)
    zs = np.array([[0.1, 0.2], [0.8, 0.8j], [0.9, 0.9]])
    assert raised(sp_bound_many, f, zs) == raised(sp_bound, f, zs[1])
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(InputError, match="tol must be a positive real"):
            sp_bound_many(f, zs[:1], tol=tol)
    with pytest.raises(InputError):
        mod_grad_fd_many(f, zs[:1], [1, 2])


def fd_reference(f, z, dirs, seed):
    """The FD oracle at one point written out in plain loops, as the
    reference for the batched code. Off the zero set: per real axis e_j and
    i e_j and per step t, the central difference
    (|f(z + t e)| - |f(z - t e)|) / (2t), the two steps Richardson-
    extrapolated to step 0, and the Euclidean norm of the 2n results. On
    it: the largest Richardson-extrapolated one-sided quotient over the
    seeded sphere samples and the top singular direction of Df."""
    z = np.asarray(z, dtype=np.complex128).reshape(f.n)
    t0, t1 = FD_STEPS
    base = vnorm(f.eval(z))
    if base > ZERO_BRANCH_TOL:
        total = 0.0
        for unit in (1.0, 1j):
            for j in range(f.n):
                d = []
                for t in (t0, t1):
                    plus, minus = z.copy(), z.copy()
                    plus[j] += unit * t
                    minus[j] += unit * -t
                    d.append((vnorm(f.eval(plus)) - vnorm(f.eval(minus))) / (2.0 * t))
                r = (t0 * t0 * d[1] - t1 * t1 * d[0]) / (t0 * t0 - t1 * t1)
                total += r * r
        return np.sqrt(total)
    directions = list(sphere_rows(f.n, dirs, [seed])[0]) + [spectral_norm(f.jacobian(z)).direction]
    best = -np.inf
    for d in directions:
        q0, q1 = ((vnorm(f.eval(z + t * d)) - base) / t for t in (t0, t1))
        best = max(best, (t0 * q1 - t1 * q0) / (t0 - t1))
    return best


def test_fd_many_equals_per_point_candidate_lists():
    f, zs = mixed_batch()
    seeds = [3 * i + 2 for i in range(zs.shape[0])]
    got = mod_grad_fd_many(f, zs, seeds)
    # n = 2: four gradient components, which numpy sums left to right too
    for i, z in enumerate(zs):
        assert got[i] == fd_reference(f, z, 64, seeds[i])
    # the seeds may also come as one uint64 array
    assert np.array_equal(mod_grad_fd_many(f, zs, np.array(seeds, dtype=np.uint64)), got)
    # the counterexample at 0 is off the zero set, the identity on it
    for g, z in ((COUNTEREXAMPLE, [0.0]), (PolyMap.identity(2), [0.0, 0.0])):
        for seed in range(3):
            got = mod_grad_fd_many(g, [z], [seed], dirs=65)[0]
            assert got == fd_reference(g, z, 65, seed)


def test_fd_off_the_zero_set_reads_values_only(monkeypatch):
    f = gen_random_polymap(3, 2, max_degree=3, margin=0.25, seed=8)
    zs = sample_ball_points(3, 30, seed=9)
    want = mod_grad_fd_many(f, zs, range(30))

    def refuse(*args):
        raise AssertionError("the oracle read a derivative")

    monkeypatch.setattr(PolyMap, "_value_jac", refuse)
    monkeypatch.setattr(schwarzpick, "spectral_norm", refuse)
    monkeypatch.setattr(holomap, "_contract", refuse)
    assert np.array_equal(mod_grad_fd_many(f, zs, range(30)), want)


def test_each_public_call_validates_its_points_once(monkeypatch):
    calls = []

    def counting(Z, n):
        calls.append(n)
        return as_batch(Z, n)

    as_batch = holomap._as_batch
    monkeypatch.setattr(holomap, "_as_batch", counting)
    monkeypatch.setattr(schwarzpick, "_as_batch", counting)
    f, zs = mixed_batch()
    g = PolyMap.from_scalar_coeffs([0.0, 0.5])
    for call, count in [
        (lambda: sp_bound(f, zs[0]), 1),
        (lambda: equality_gap(f, zs[0]), 1),
        (lambda: sp_bound_many(f, zs), 1),
        (lambda: sp_bound_slice(g, 0.1, 0.0, 2.0), 1),
        (lambda: mod_grad(f, zs[0]), 1),
        (lambda: mod_grad_fd(f, zs[0]), 1),
        (lambda: mod_grad_fd_many(f, zs, range(len(zs))), 1),
    ]:
        calls.clear()
        call()
        assert len(calls) == count
