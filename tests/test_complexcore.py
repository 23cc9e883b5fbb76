"""Primitives: inner product conventions, the spectral norm (one batched
``np.linalg.svd``) against ``np.linalg.norm(M, 2)`` and on hostile inputs,
seeded sphere sampling, and the counter-based sphere stream against a
pure-Python splitmix64 and Box-Muller reference.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoball import (
    InputError,
    herm_inner,
    sample_unit_sphere,
    spectral_norm,
    vnorm,
)
from holoball.complexcore import (
    _open_unit,
    _row_norms,
    _stream_words,
    complex_to_pair,
    sphere_rows,
    vector_to_pairs,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _rand_cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_herm_inner_first_slot_linear():
    x = np.array([1.0 + 2.0j, 0.5j])
    y = np.array([0.25, 1.0 - 1.0j])
    # linear in x, conjugate-linear in y
    assert herm_inner(2.0j * x, y) == pytest.approx(2.0j * herm_inner(x, y))
    assert herm_inner(x, 2.0j * y) == pytest.approx(-2.0j * herm_inner(x, y))
    assert herm_inner(x, y) == pytest.approx((1.0 + 2.0j) * 0.25 + 0.5j * (1.0 + 1.0j))


def test_herm_inner_counterexample_column():
    # the A-vector entry of the (z, 1)/sqrt(2) map at 0 vanishes
    s = 1.0 / np.sqrt(2.0)
    col = np.array([s, 0.0])
    val = np.array([0.0, s])
    assert herm_inner(col, val) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_herm_inner_conj_symmetry_and_cauchy_schwarz(seed, n):
    rng = np.random.default_rng(seed)
    x = _rand_cvec(rng, n)
    y = _rand_cvec(rng, n)
    ip = herm_inner(x, y)
    assert abs(ip - np.conj(herm_inner(y, x))) <= 1e-15 * (1.0 + abs(ip))
    assert abs(ip) <= vnorm(x) * vnorm(y) * (1.0 + 1e-12)


def test_herm_inner_shape_mismatch():
    with pytest.raises(InputError):
        herm_inner([1.0, 2.0], [1.0])


def test_vnorm_matches_inner_product():
    v = np.array([3.0, 4.0j])
    assert vnorm(v) == pytest.approx(5.0)
    assert vnorm(v) == pytest.approx(np.sqrt(herm_inner(v, v).real))


def test_vnorm_survives_overflow_and_underflow_of_the_squares():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big, small = vnorm([3e200, 4e200j]), vnorm([3e-200, 4e-200])
        # past the float range the norm itself is inf, still without a warning
        assert vnorm([1.7e308, 1.7e308]) == np.inf
    assert big == pytest.approx(5e200, rel=1e-15)
    assert small == pytest.approx(5e-200, rel=1e-15)
    assert vnorm([0.0, 0.0]) == 0.0


@pytest.mark.parametrize("n", range(1, 10))
def test_row_norms_equal_the_plain_formula_in_range(n):
    rng = np.random.default_rng(n)
    for B in (0, 1, 3, 1320):
        X = _rand_cvec(rng, B * n).reshape(B, n) * 10.0 ** rng.uniform(-5, 5, (B, 1))
        plain = np.sqrt((np.abs(X) ** 2).sum(axis=1))
        assert np.array_equal(_row_norms(X), plain)
        assert [vnorm(x) for x in X[:3]] == plain[:3].tolist()


def test_row_norms_rescale_only_the_rows_out_of_range():
    rng = np.random.default_rng(8)
    X = _rand_cvec(rng, 30).reshape(10, 3)
    X[2] *= 1e250
    X[5] *= 1e-250
    X[7] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _row_norms(X)
    plain = [2, 5]
    ok = np.setdiff1d(np.arange(10), plain)
    # in-range rows keep the plain formula bit for bit
    assert np.array_equal(got[ok], np.sqrt((np.abs(X[ok]) ** 2).sum(axis=1)))
    for i in plain:
        with mpmath.workprec(200):
            exact = float(mpmath.sqrt(sum(mpmath.mpf(float(abs(x))) ** 2 for x in X[i])))
        assert got[i] == pytest.approx(exact, rel=1e-15)
    assert got[7] == 0.0
    assert np.array_equal(_row_norms(np.zeros((0, 3), dtype=np.complex128)), np.zeros(0))


@pytest.mark.parametrize("n", range(1, 10))
def test_one_row_norms_at_the_edges_of_the_plain_formula(n):
    # a lone row takes the plain formula after one range test on its largest
    # entry; at and past each end of that range it must still read what the
    # same row reads in a batch, and vnorm is that row's norm
    rng = np.random.default_rng(40 + n)
    # entries of modulus at most 1/2, and a largest entry of exactly 1
    x = _rand_cvec(rng, n)
    x /= 2.0 * np.abs(x).max()
    x[n // 2] = 1.0
    rows = {
        "top 2^-500": x * 2.0**-500,
        "top just below 2^500": x * np.nextafter(2.0**500, 0.0),
        "top 2^500": x * 2.0**500,
        "zero": np.zeros(n, dtype=np.complex128),
        "subnormal": x * 2.0**-1060,
    }
    other = _rand_cvec(rng, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, row in rows.items():
            alone = _row_norms(row[None])
            assert alone.shape == (1,), name
            for k, batch in enumerate((np.stack([row, other]), np.stack([other, row]))):
                assert alone.tobytes() == _row_norms(batch)[k : k + 1].tobytes(), name
            assert vnorm(row) == alone[0] and isinstance(vnorm(row), float), name
    assert _row_norms(rows["zero"][None])[0] == 0.0
    assert _row_norms(rows["subnormal"][None])[0] > 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-310, 1e250])
def test_row_norms_with_zero_rows(scale, monkeypatch):
    # exact-zero rows mixed with ordinary, subnormal-range or huge rows: the
    # zero rows read 0, the others as in a batch without them; a batch whose
    # only rows below the normal range are zero skips the rescaling
    rng = np.random.default_rng(9)
    X = _rand_cvec(rng, 24).reshape(8, 3) * scale
    X[[1, 4, 5]] = 0.0
    rest = [0, 2, 3, 6, 7]
    alone = np.array([_row_norms(X[i : i + 1])[0] for i in rest])
    rescaled = []

    def counting(**kw):
        # the rescaling path is the only caller of np.errstate
        rescaled.append(kw)
        return errstate(**kw)

    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", counting)
    got = _row_norms(X)
    assert np.array_equal(got[rest], alone)
    assert np.array_equal(_row_norms(X[rest]), alone)
    assert (got[[1, 4, 5]] == 0.0).all()
    if scale == 1.0:
        assert np.array_equal(got, np.sqrt((np.abs(X) ** 2).sum(axis=1)))
        assert not rescaled


def test_non_finite_rejected():
    with pytest.raises(InputError):
        vnorm([np.nan, 1.0])
    with pytest.raises(InputError):
        herm_inner([np.inf], [1.0])


def test_spectral_norm_shear():
    sigma, d = spectral_norm([[1.0, 1.0], [0.0, 1.0]])
    assert sigma == pytest.approx(GOLDEN, abs=1e-10)
    assert vnorm(d) == pytest.approx(1.0, abs=1e-12)
    assert vnorm(np.array([[1.0, 1.0], [0.0, 1.0]]) @ d) == pytest.approx(sigma, abs=1e-10)


def test_spectral_norm_restart_catches_orthogonal_start():
    # all-ones is an exact singular vector of the smaller singular value
    # here, so a power iteration started from it never sees the top pair
    M = np.array([[1.5, -0.5], [-0.5, 1.5]])
    sigma, d = spectral_norm(M)
    assert sigma == pytest.approx(2.0, abs=1e-10)
    top = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(herm_inner(d, top)) == pytest.approx(1.0, abs=1e-8)


def test_spectral_norm_against_svd_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        M = _rand_cvec(rng, m * n).reshape(m, n)
        sigma = spectral_norm(M).value
        oracle = np.linalg.svd(M, compute_uv=False)[0]
        assert sigma == pytest.approx(oracle, abs=1e-9 * max(1.0, oracle))


def test_spectral_norm_adjoint_and_scaling():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = _rand_cvec(rng, 12).reshape(3, 4)
        s = spectral_norm(M).value
        assert spectral_norm(M.conj().T).value == pytest.approx(s, abs=1e-9)
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert spectral_norm(c * M).value == pytest.approx(abs(c) * s, abs=1e-9)


def test_spectral_norm_sup_property():
    rng = np.random.default_rng(13)
    M = _rand_cvec(rng, 20).reshape(4, 5)
    sigma = spectral_norm(M).value
    for beta in sample_unit_sphere(5, 200, seed=3):
        assert vnorm(M @ beta) <= sigma + 1e-12


def test_spectral_norm_zero_and_column():
    sigma, d = spectral_norm(np.zeros((3, 2)))
    assert sigma == 0.0
    assert d.shape == (2,)
    assert spectral_norm([[3.0], [4.0]]).value == pytest.approx(5.0, abs=1e-12)


def test_spectral_norm_validation():
    with pytest.raises(InputError):
        spectral_norm([1.0, 2.0])


def _unitary(rng, n):
    q, r = np.linalg.qr(_rand_cvec(rng, n * n).reshape(n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hostile_matrices(seed):
    """Matrices with tied top singular values, rank deficiency, zeros and
    1 x n / m x 1 shapes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    s, t = rng.uniform(0.1, 3.0, 2)
    U, V = _unitary(rng, 3), _unitary(rng, 3)
    u, v = _rand_cvec(rng, int(rng.integers(1, 5))), _rand_cvec(rng, n)
    return [
        s * _unitary(rng, n),
        np.diag([s, s, t]).astype(complex),
        U @ np.diag([s, s, t]) @ V.conj().T,
        np.array([[1.5, -0.5], [-0.5, 1.5]], dtype=complex),
        np.outer(u, v),
        np.zeros((int(rng.integers(1, 5)), n), dtype=complex),
        _rand_cvec(rng, n)[None, :],
        _rand_cvec(rng, n)[:, None],
        _rand_cvec(rng, n * 3).reshape(n, 3) @ np.diag([1.0, 0.0, 1.0]),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spectral_norm_hostile_inputs(seed):
    for M in _hostile_matrices(seed):
        sigma, d = spectral_norm(M)
        oracle = np.linalg.norm(M, 2)
        assert abs(sigma - oracle) <= 1e-14 * oracle
        assert abs(vnorm(d) - 1.0) <= 1e-14
        if oracle > 0:
            assert abs(vnorm(M @ d) - sigma) <= 1e-13 * sigma


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 9))
def test_spectral_norm_stack_rows_equal_single_calls(seed, m, n, k):
    rng = np.random.default_rng(seed)
    stack = _rand_cvec(rng, k * m * n).reshape(k, m, n)
    stack[0] = 0.0
    if k > 1:
        stack[1] = np.outer(_rand_cvec(rng, m), _rand_cvec(rng, n))
    sigmas, dirs = spectral_norm(stack)
    assert sigmas.shape == (k,) and dirs.shape == (k, n)
    for i in range(k):
        sigma, d = spectral_norm(stack[i])
        assert sigmas[i] == sigma
        assert np.array_equal(dirs[i], d)


def test_sample_unit_sphere_deterministic_unit_rows():
    a = sample_unit_sphere(3, 100, seed=42)
    b = sample_unit_sphere(3, 100, seed=42)
    assert a.shape == (100, 3)
    assert np.array_equal(a, b)
    assert np.abs(np.sqrt((np.abs(a) ** 2).sum(axis=1)) - 1.0).max() <= 1e-12
    assert not np.array_equal(a, sample_unit_sphere(3, 100, seed=43))


def test_sample_unit_sphere_validation():
    with pytest.raises(InputError):
        sample_unit_sphere(0, 1, seed=0)
    with pytest.raises(InputError):
        sample_unit_sphere(1, 0, seed=0)
    with pytest.raises(InputError):
        sample_unit_sphere(1, 1, seed=-1)
    with pytest.raises(InputError):
        sample_unit_sphere(1, 1, seed=0.5)


def test_pair_serialization_round_trip():
    assert complex_to_pair(1.0 + 2.0j) == [1.0, 2.0]
    v = np.array([0.25 - 0.5j, 3.0])
    assert vector_to_pairs(v) == [[0.25, -0.5], [3.0, 0.0]]


# -- the counter-based sphere stream ------------------------------------------

MASK64 = 2**64 - 1
SM_GAMMA, SM_M1, SM_M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix64_words(seed, k):
    """The first k outputs of the splitmix64 generator seeded with ``seed``,
    in Python integers."""
    out, x = [], seed
    for _ in range(k):
        x = (x + SM_GAMMA) & MASK64
        z = ((x ^ (x >> 30)) * SM_M1) & MASK64
        z = ((z ^ (z >> 27)) * SM_M2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def splitmix64_seed_for(word):
    """The seed whose first splitmix64 output is ``word``: the output
    function is a bijection of 64-bit words, inverted step by step."""
    z = word ^ (word >> 31) ^ (word >> 62)
    z = (z * pow(SM_M2, -1, 2**64)) & MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(SM_M1, -1, 2**64)) & MASK64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - SM_GAMMA) & MASK64


def sphere_rows_reference(n, count, seed):
    """One seed's rows entry by entry with the math module: entry (d, j)
    uses words 2(dn + j) and 2(dn + j) + 1 as the Box-Muller uniforms."""
    words = splitmix64_words(seed, 2 * count * n)
    rows = []
    for d in range(count):
        row = []
        for j in range(n):
            c = 2 * (d * n + j)
            u1, u2 = (((words[c + t] >> 12) + 0.5) / 2**52 for t in (0, 1))
            theta = 2.0 * math.pi * u2
            row.append(math.sqrt(-2.0 * math.log(u1)) * complex(math.cos(theta), math.sin(theta)))
        norm = math.sqrt(sum(abs(z) ** 2 for z in row))
        rows.append([z / norm for z in row])
    return np.array(rows)


def test_stream_words_equal_splitmix64_reference():
    # output 0 of splitmix64 seeded with 0, as published with the generator
    assert splitmix64_words(0, 1) == [0xE220A8397B1DCDAF]
    seeds = [0, 1, 12345, 2**63, 2**64 - 1]
    words = _stream_words(np.array(seeds, dtype=np.uint64), 9)
    assert words.dtype == np.uint64
    for i, seed in enumerate(seeds):
        assert words[i].tolist() == splitmix64_words(seed, 9)


@pytest.mark.parametrize("n,count", [(1, 3), (2, 4), (3, 2)])
def test_sphere_rows_equal_box_muller_reference(n, count):
    seeds = [0, 7, 2**64 - 1]
    got = sphere_rows(n, count, seeds)
    assert got.shape == (3, count, n)
    for i, seed in enumerate(seeds):
        assert np.abs(got[i] - sphere_rows_reference(n, count, seed)).max() <= 1e-15


def test_sphere_rows_batch_independence():
    seeds = np.array(splitmix64_words(99, 37), dtype=np.uint64)
    for n, count in [(2, 64), (3, 5)]:
        for size in range(1, 38):
            batch = sphere_rows(n, count, seeds[:size])
            for i in range(size):
                assert np.array_equal(batch[i], sphere_rows(n, count, seeds[i : i + 1])[0])
    # a list of ints and a uint64 array give the same rows
    assert np.array_equal(sphere_rows(2, 8, seeds[:5].tolist()), sphere_rows(2, 8, seeds[:5]))


def test_sphere_rows_radius_floor():
    # the largest and the smallest top-52-bit value k of a word
    top, bottom = MASK64, 0
    u = _open_unit(np.array([top, bottom], dtype=np.uint64))
    assert u.tolist() == [1.0 - 2.0**-53, 2.0**-53]
    r = np.sqrt(-2.0 * np.log(u))
    assert np.isfinite(r).all() and (r >= 1.4e-8).all()
    # rows whose first entry takes those words as its radius uniform
    for word in (top, bottom):
        seed = splitmix64_seed_for(word)
        assert splitmix64_words(seed, 1) == [word]
        row = sphere_rows(2, 1, [seed])[0, 0]
        assert np.isfinite(row).all()
        assert abs(np.sqrt((np.abs(row) ** 2).sum()) - 1.0) <= 1e-15
        assert np.abs(row - sphere_rows_reference(2, 1, seed)[0]).max() <= 1e-15
    assert abs(sphere_rows(2, 1, [splitmix64_seed_for(top)])[0, 0, 0]) <= 1e-7


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_rows_distribution(n):
    rows = sphere_rows(n, 100, range(200)).reshape(-1, n)
    assert rows.shape == (20000, n)
    assert np.abs(np.sqrt((np.abs(rows) ** 2).sum(axis=1)) - 1.0).max() <= 1e-12
    assert np.abs(rows.mean(axis=0)).max() <= 0.02
    assert np.abs((np.abs(rows) ** 2).mean(axis=0) - 1.0 / n).max() <= 0.02


@pytest.mark.parametrize("seed", [-1, 1.5, 2**64, np.int64(-3), "1"])
def test_sphere_rows_seed_rejection(seed):
    with pytest.raises(InputError) as exc:
        sphere_rows(2, 3, [0, seed])
    too_large = isinstance(seed, int) and seed == 2**64
    assert str(exc.value) == (f"seed = {2**64} is too large" if too_large
                              else "seed must be a non-negative integer")


def test_sphere_rows_validation():
    with pytest.raises(InputError):
        sphere_rows(0, 1, [0])
    with pytest.raises(InputError):
        sphere_rows(1, 0, [0])
