"""Map algebra: exact evaluation and Jacobians against a central-difference
oracle, holomorphy of every node kind, and the document format round trip."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoball import (
    AffineMap,
    DomainError,
    ExtremalSpec,
    InputError,
    MobiusMap,
    Pipeline,
    PolyMap,
    SchemaError,
    disk_slice,
    emit_spec,
    extremal_nonzero_case,
    extremal_zero_case,
    force_zero_at,
    gen_random_polymap,
    parse_spec,
    sample_ball_points,
    sp_bound,
    vector_to_pairs,
)
from holoball import harness, holomap
from holoball.harness import _multi_indices
from holoball.holomap import _KINDS, MAX_DEGREE
from holoball.schwarzpick import FD_STEPS

S = 1.0 / np.sqrt(2.0)


def fd_jacobian(f, z, h=1e-6):
    """Central differences over the real and imaginary parts of each
    coordinate; returns (d/dz, d/dzbar) estimates."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    J = np.empty((f.m, z.size), dtype=np.complex128)
    Jbar = np.empty_like(J)
    for j in range(z.size):
        e = np.zeros(z.size, dtype=np.complex128)
        e[j] = h
        dx = (f.eval(z + e) - f.eval(z - e)) / (2.0 * h)
        e[j] = 1j * h
        dy = (f.eval(z + e) - f.eval(z - e)) / (2.0 * h)
        J[:, j] = (dx - 1j * dy) / 2.0
        Jbar[:, j] = (dx + 1j * dy) / 2.0
    return J, Jbar


def poly_halfsum():
    return PolyMap(2, 1, {(1, 0): [0.5], (0, 1): [0.5]})


def poly_counterexample():
    return PolyMap(1, 2, {(0,): [0.0, S], (1,): [S, 0.0]})


def test_counterexample_eval_and_jacobian():
    f = poly_counterexample()
    assert np.allclose(f.eval(0.0), [0.0, S])
    assert np.allclose(f.jacobian(0.0), [[S], [0.0]])
    assert np.allclose(f.eval(0.5j), [0.5j * S, S])


def test_halfsum_eval_and_jacobian():
    f = poly_halfsum()
    assert f.eval([0.5, 0.0])[0] == 0.25
    assert np.array_equal(f.jacobian([0.5, 0.0]), [[0.5, 0.5]])


def test_poly_matches_naive_term_sum():
    rng = np.random.default_rng(5)
    terms = {
        (0, 0): rng.standard_normal(2) + 1j * rng.standard_normal(2),
        (2, 1): rng.standard_normal(2) + 1j * rng.standard_normal(2),
        (0, 3): rng.standard_normal(2) + 1j * rng.standard_normal(2),
    }
    f = PolyMap(2, 2, terms)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        naive = sum(c * z[0] ** a[0] * z[1] ** a[1] for a, c in terms.items())
        assert np.allclose(f.eval(z), naive, atol=1e-12)


def legacy(kind, **fields):
    """The map of a document of one of the six kinds that ``AffineMap`` and
    ``MobiusMap`` replaced, with complex values given as Python numbers."""
    def value(v):
        if isinstance(v, list):
            return vector_to_pairs(v)
        return [v.real, v.imag] if isinstance(v, complex) else v

    return parse_spec({"kind": kind, **{k: value(v) for k, v in fields.items()}})


def functional(u):
    return legacy("linear_functional", u=list(u))


def disk(z0):
    return legacy("mobius_scalar", z0=complex(z0))


def times(beta):
    return legacy("scalar_times_vector", beta=list(beta))


# (name, map, point): a case of a retired kind is named by the repr of the
# class it was written for, which its test ids keep
CASES = [
    (repr(poly_halfsum()), poly_halfsum(), [0.3 + 0.1j, -0.2j]),
    (repr(poly_counterexample()), poly_counterexample(), [0.4 - 0.3j]),
    ("MobiusDisk(z0=(0.3+0.2j))", disk(0.3 + 0.2j), [0.1 - 0.4j]),
    ("MobiusQuotient(a_abs=0.5, theta=1.1)", legacy("mobius_quotient", a_abs=0.5, theta=1.1),
     [0.2 + 0.1j]),
    ("LineEmbed(dim=2)", legacy("line_embed", p=[0.1, 0.2j], q=[0.3 - 0.1j, 0.05]), [0.4 + 0.2j]),
    ("LinearFunctional(dim=2)", functional([0.5, 1.0 - 0.5j]), [0.2j, 0.3]),
    ("ScalarTimesVector(dim=2)", times([1.0j, 0.25]), [0.3 - 0.2j]),
    ("AffineScalar(r=(0.5-0.25j), c=0.1j)", legacy("affine_scalar", r=0.5 - 0.25j, c=0.1j),
     [0.7 + 0.1j]),
    (
        "Pipeline([LinearFunctional(dim=2), MobiusDisk(z0=(0.4+0j)), ScalarTimesVector(dim=2)])",
        Pipeline([functional([S, S]), disk(0.4), times([0.6, 0.8j])]),
        [0.2 + 0.1j, -0.3j],
    ),
    ("AffineMap(n=2, m=3)", AffineMap([[0.2, -0.1j], [0.3 + 0.1j, 0.0], [0.1, 0.25]],
                                      [0.1j, -0.2, 0.05 + 0.05j]), [0.3 - 0.2j, 0.1j]),
    ("MobiusMap(M=(0.4+0.7j), b=(0.3-0.5j))", MobiusMap(0.4 + 0.7j, 0.3 - 0.5j), [0.2 - 0.6j]),
]
# as pytest spells a map's class and the index of its point
CASE_IDS = [f"{name.split('(')[0]}-z{i}" for i, (name, _, _) in enumerate(CASES)]
MAP_POINTS = [(f, z) for _, f, z in CASES]


@pytest.mark.parametrize("f,z", MAP_POINTS, ids=CASE_IDS)
def test_jacobian_matches_finite_differences(f, z):
    J, Jbar = fd_jacobian(f, z)
    scale = max(1.0, float(np.abs(J).max()))
    assert np.abs(f.jacobian(z) - J).max() <= 1e-6 * scale
    # Cauchy-Riemann: the anti-holomorphic derivative vanishes
    assert np.abs(Jbar).max() <= 1e-6 * scale


def axis_jacobians(f, Z):
    """Two FD Jacobians of f at the rows of Z from its values alone: central
    differences along the real axes e_j (d/dx_j) and i e_j (d/dy_j) at the
    FD oracle's two steps, Richardson-extrapolated to step 0."""
    t0, t1 = FD_STEPS
    out = []
    for unit in (1.0, 1j):
        D = np.empty((Z.shape[0], f.m, f.n), dtype=np.complex128)
        for j in range(f.n):
            d = []
            for t in (t0, t1):
                E = np.zeros(f.n, dtype=np.complex128)
                E[j] = unit * t
                d.append((f.eval_many(Z + E) - f.eval_many(Z - E)) / (2.0 * t))
            D[:, :, j] = (t0 * t0 * d[1] - t1 * t1 * d[0]) / (t0 * t0 - t1 * t1)
        out.append(D)
    return out


def test_cauchy_riemann_cases_cover_every_kind():
    assert {type(f) for f, _ in MAP_POINTS} == set(_KINDS.values())


@pytest.mark.parametrize("f,z", MAP_POINTS, ids=CASE_IDS)
def test_axis_jacobians_satisfy_cauchy_riemann_and_match_the_kernel(f, z):
    # the differences read only values; their rounding error is about
    # eps / step (at most 3.5e-12 relative to the largest derivative here)
    Z = np.concatenate([np.asarray(z, dtype=np.complex128)[None, :],
                        sample_ball_points(f.n, 8, seed=60 + f.n)])
    Jx, Jy = axis_jacobians(f, Z)
    J = f._value_jac(Z)[1]
    tol = 1e-10 * max(1.0, float(np.abs(J).max()))
    assert np.abs(Jy - 1j * Jx).max() <= tol
    assert np.abs(Jx - J).max() <= tol
    assert np.abs(Jy - 1j * J).max() <= tol


@pytest.mark.parametrize("f,z", MAP_POINTS, ids=CASE_IDS)
def test_batch_agrees_with_single_point(f, z):
    zs = np.array([z, [0.5 * c for c in z], [0.25j * c for c in z]], dtype=np.complex128)
    V = f.eval_many(zs)
    J = f.jac_many(zs)
    for i in range(zs.shape[0]):
        assert np.array_equal(V[i], f.eval(zs[i]))
        assert np.array_equal(J[i], f.jacobian(zs[i]))


def named(maps) -> dict:
    return {repr(f): f for f in maps}


# maps by name, as the CASES name them
BATCH_MAPS = {
    **named(gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=10 * n + m)
            for n in range(1, 5) for m in range(1, 5)),
    **named([Pipeline([gen_random_polymap(2, 3, 3, 0.25, seed=5),
                       gen_random_polymap(3, 2, 2, 0.25, seed=6)])]),
    "Pipeline([LinearFunctional(dim=2), MobiusDisk(z0=(0.3-0.2j)), ScalarTimesVector(dim=2)])":
        Pipeline([functional([0.6, 0.8j]), disk(0.3 - 0.2j), times([0.6, 0.8j])]),
    "LinearFunctional(dim=3)": functional([0.5, -0.5j, 0.5 + 0.5j]),
    # one term, or one derivative term, that is a product of two powers
    **named([PolyMap(2, 1, {(1, 1): [0.5 + 0.25j]}),
             PolyMap(2, 2, {(3, 1): [0.3, 0.1j], (0, 2): [0.2 - 0.1j, -0.4]})]),
    **named([AffineMap([[0.2, -0.1j, 0.3], [0.1, 0.25j, -0.2]], [0.1, 0.2j]),
             MobiusMap(0.6 - 0.3j, 0.1 + 0.4j)]),
}


@pytest.mark.parametrize("f", BATCH_MAPS.values(), ids=BATCH_MAPS.keys())
def test_batch_rows_are_bit_identical_to_one_row_calls(f):
    # row i of a batch is the point evaluated alone, bit for bit, at any batch size
    zs = sample_ball_points(f.n, 101, seed=f.n + 7 * f.m)
    V = f.eval_many(zs)
    J = f.jac_many(zs)
    for i in range(zs.shape[0]):
        assert np.array_equal(V[i], f.eval_many(zs[i : i + 1])[0])
        assert np.array_equal(J[i], f.jac_many(zs[i : i + 1])[0])
    assert np.array_equal(V[:40], f.eval_many(zs[:40]))


FUSED_MAPS = {
    **{name: f for name, f, _ in CASES},
    **named(gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=500 + 10 * n + m)
            for n in range(1, 5) for m in range(1, 5)),
    "Pipeline([LinearFunctional(dim=2), MobiusDisk(z0=(0.5+0j)), ScalarTimesVector(dim=2)])":
        extremal_zero_case(ExtremalSpec.zero([0.3, 0.4j], [0.6, 0.8j], [0.6, -0.8j])),
    "Pipeline([LinearFunctional(dim=2), MobiusDisk(z0=(0.5+0j)), "
    "MobiusQuotient(a_abs=0.5, theta=0.7), ScalarTimesVector(dim=2)])":
        extremal_nonzero_case(ExtremalSpec.nonzero([0.3, 0.4j], [0.6, 0.8j], [0.3, 0.4j], 0.7)),
}


@pytest.mark.parametrize("f", FUSED_MAPS.values(), ids=FUSED_MAPS.keys())
@pytest.mark.parametrize("B", [1, 7])
def test_eval_jac_many_equals_the_separate_entries(f, B):
    zs = 0.9 * sample_ball_points(f.n, B, seed=60 + B + f.n)
    V, J = f.eval_jac_many(zs)
    assert V.shape == (B, f.m) and J.shape == (B, f.m, f.n)
    assert np.array_equal(V, f.eval_many(zs))
    assert np.array_equal(J, f.jac_many(zs))
    # a fresh, writable Jacobian per call and per row, also for the
    # constant-Jacobian kinds, which fill theirs from the map's own vector
    V2, J2 = f.eval_jac_many(zs)
    assert J.flags.writeable and J2.flags.writeable
    assert not np.shares_memory(J, J2) and not np.shares_memory(V, V2)
    J[0] += 1.0
    assert np.array_equal(J[1:], J2[1:])
    assert np.array_equal(J2, f.jac_many(zs))


def test_map_kinds_implement_only_the_kernels():
    for cls in _KINDS.values():
        assert {"_value", "_value_jac"} <= set(vars(cls))
        assert not {"eval_many", "jac_many", "eval_jac_many"} & set(vars(cls))


def test_pipeline_rejects_a_non_finite_intermediate():
    # 5e199 * 1e200 overflows inside the pipeline; the next stage refuses it
    big = AffineMap([[1e200]], [0.0])
    pipe = Pipeline([big, big, MobiusMap(-1.0, 0.1)])
    z = np.array([[0.5 + 0.0j]])
    for entry in (pipe.eval_many, pipe.jac_many, pipe.eval_jac_many,
                  lambda Z: sp_bound(pipe, Z[0])):
        with np.errstate(over="ignore"), pytest.raises(InputError, match="non-finite"):
            entry(z)


@pytest.mark.parametrize(
    "f,z",
    [
        (MobiusMap(-1.0, 0.5), 2.0),
        (MobiusMap(1.0, 0.5), -2.0),
        (Pipeline([AffineMap([[4.0]], [0.0]), MobiusMap(-1.0, 0.5)]), 0.5),
    ],
    ids=["disk", "quotient", "pipeline"],
)
def test_pole_raises_on_every_entry(f, z):
    for entry in (f.eval_many, f.jac_many, f.eval_jac_many):
        with pytest.raises(DomainError):
            entry([[z]])


def test_one_public_call_validates_once(monkeypatch):
    calls = []

    def counting(Z, n):
        calls.append(n)
        return as_batch(Z, n)

    as_batch = holomap._as_batch
    monkeypatch.setattr(holomap, "_as_batch", counting)
    pipe = extremal_nonzero_case(ExtremalSpec.nonzero([0.3, 0.4j], [0.6, 0.8j], [0.3, 0.4j], 0.7))
    zs = sample_ball_points(2, 5, seed=3)
    for entry, Z in ((pipe.eval_many, zs), (pipe.jac_many, zs), (pipe.eval_jac_many, zs),
                     (pipe.eval, zs[0]), (pipe.jacobian, zs[0])):
        calls.clear()
        entry(Z)
        assert calls == [2]


def test_single_point_entries_refuse_more_points():
    # a length-3 vector is three points of a one-variable map: a single-point
    # entry refuses them rather than use the first
    f = PolyMap.identity(1)
    for entry in (f.eval, f.jacobian):
        with pytest.raises(InputError, match="takes a single point"):
            entry([0.1, 0.2, 0.3])
    with pytest.raises(InputError, match="takes a single point"):
        PolyMap.identity(2).eval(np.zeros((2, 2)))
    with pytest.raises(InputError, match="takes a single point"):
        force_zero_at(gen_random_polymap(1, 2, 3, 0.25, seed=4), [0.1, 0.2], 0.25)
    assert f.eval([0.1]).tobytes() == f.eval(0.1).tobytes() == f.eval_many([[0.1]])[0].tobytes()


def test_mobius_involution():
    rng = np.random.default_rng(17)
    for _ in range(100):
        z0 = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        phi = MobiusMap(-1.0, z0)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        assert abs(phi.eval(phi.eval(z)[0])[0] - z) <= 1e-12
    assert abs(MobiusMap(-1.0, 0.5).eval(0.5)[0]) == 0.0


def test_mobius_pole_raises():
    with pytest.raises(DomainError):
        MobiusMap(-1.0, 0.5).eval(2.0)
    with pytest.raises(DomainError):
        MobiusMap(1.0, 0.5).eval(-2.0)


def test_mobius_z0_validation():
    for b in (1.0, 1j, -0.6 - 0.8j, 1e308 + 1e308j, np.nan):
        with pytest.raises(InputError) as exc:
            MobiusMap(-1.0, b)
        assert exc.value.field == "b"
    # the last one is finite, but M conj(b) is past the float range
    for M, b in ((np.inf, 0.5), (complex(0.0, np.nan), 0.5), (1.7e308 + 1.7e308j, 0.7 - 0.7j)):
        with pytest.raises(InputError) as exc:
            MobiusMap(M, b)
        assert exc.value.field == "M"


def test_chain_rule_exact_on_poly_pipeline():
    h = PolyMap.from_scalar_coeffs([0.0, 0.0, 1.0])  # z^2
    g = PolyMap.from_scalar_coeffs([0.0, 1.0, 0.0, 1.0])  # w + w^3
    pipe = Pipeline([h, g])
    Z = np.array([[0.3 + 0.2j], [0.7j], [-0.5]])
    inner = h.eval_many(Z)
    product = np.matmul(g.jac_many(inner), h.jac_many(Z))
    assert np.array_equal(pipe.jac_many(Z), product)
    # symbolic composite: (z^2) + (z^2)^3 = z^2 + z^6
    composite = PolyMap(1, 1, {(2,): [1.0], (6,): [1.0]})
    assert np.allclose(pipe.eval_many(Z), composite.eval_many(Z), atol=1e-15)
    assert np.allclose(pipe.jac_many(Z), composite.jac_many(Z), atol=1e-14)


def test_chain_rule_on_mixed_pipeline():
    u = np.array([S, S * 1.0j])
    stages = [AffineMap(np.conj(u)[None, :], [0.0]), MobiusMap(-1.0, 0.3)]
    pipe = Pipeline(stages)
    z = np.array([0.2 - 0.1j, 0.3j])
    inner = stages[0].eval(z)
    product = stages[1].jacobian(inner) @ stages[0].jacobian(z)
    assert np.abs(pipe.jacobian(z) - product).max() <= 1e-12


def test_line_embed_endpoints():
    p = np.array([0.1, 0.2j])
    q = np.array([0.3, -0.1])
    for L in (legacy("line_embed", p=list(p), q=list(q)), disk_slice(p, q).line()):
        assert np.array_equal(L.eval(0.0), p)
        assert np.allclose(L.eval(1.0), q, atol=1e-16)
    with pytest.raises(InputError):
        disk_slice(p, p + 1e-15)


def test_poly_validation():
    with pytest.raises(InputError):
        PolyMap(2, 1, [((1, 0), [1.0]), ((1, 0), [2.0])])
    with pytest.raises(InputError):
        PolyMap(2, 1, {(-1, 0): [1.0]})
    with pytest.raises(InputError):
        PolyMap(2, 1, {(1, 0, 0): [1.0]})
    with pytest.raises(InputError):
        PolyMap(2, 2, {(1, 0): [1.0]})
    with pytest.raises(InputError):
        PolyMap(1, 1, {(0,): [np.nan]})


def test_poly_terms_round_trip():
    f = poly_counterexample()
    g = PolyMap(f.n, f.m, f.terms)
    Z = np.array([[0.3 + 0.4j], [-0.2]])
    assert np.array_equal(f.eval_many(Z), g.eval_many(Z))
    assert np.array_equal(PolyMap.identity(3).jacobian([0.1, 0.2, 0.3j]), np.eye(3))


def test_point_coercion():
    f = MobiusMap(-1.0, 0.2)
    assert f.eval(0.1).shape == (1,)
    assert f.eval_many([0.1, 0.2, 0.3]).shape == (3, 1)
    g = poly_halfsum()
    with pytest.raises(InputError):
        g.eval([0.1, 0.2, 0.3])
    with pytest.raises(InputError):
        g.eval([np.nan, 0.0])


def test_pipeline_validation():
    with pytest.raises(InputError):
        Pipeline([])
    with pytest.raises(InputError):
        Pipeline([poly_halfsum(), poly_halfsum()])
    with pytest.raises(InputError):
        Pipeline([poly_halfsum(), "not a map"])


ROUND_TRIP_DOCS = [
    {
        "kind": "poly",
        "n": 2,
        "m": 1,
        "terms": [
            {"alpha": [0, 1], "coef": [[0.5, 0.0]]},
            {"alpha": [1, 0], "coef": [[0.5, -0.25]]},
        ],
    },
    {"kind": "mobius_scalar", "z0": [0.3, 0.2]},
    {"kind": "mobius_quotient", "a_abs": 0.5, "theta": 1.1},
    {"kind": "line_embed", "p": [[0.1, 0.0], [0.0, 0.2]], "q": [[0.3, 0.0], [0.05, 0.0]]},
    {"kind": "linear_functional", "u": [[0.5, 0.0], [1.0, -0.5]]},
    {"kind": "scalar_times_vector", "beta": [[0.0, 1.0], [0.25, 0.0]]},
    {"kind": "affine_scalar", "r": [0.5, -0.25], "c": [0.0, 0.1]},
    {
        "kind": "pipeline",
        "stages": [
            {"kind": "linear_functional", "u": [[1.0, 0.0], [0.0, 0.0]]},
            {"kind": "mobius_scalar", "z0": [0.5, 0.0]},
            {"kind": "scalar_times_vector", "beta": [[1.0, 0.0]]},
        ],
    },
    {"kind": "affine", "M": [[[0.5, 0.0], [0.0, -0.25]], [[-0.0, 1.0], [1e-300, 3.0]],
                             [[0.1, 0.2], [0.3, 0.4]]],
     "b": [[-0.0, -0.0], [0.25, 0.0], [0.0, 1e16]]},
    {"kind": "mobius", "M": [0.6, -0.8], "b": [-0.3, 0.2]},
]
LEGACY_KINDS = {"mobius_scalar", "mobius_quotient", "line_embed", "linear_functional",
                "scalar_times_vector", "affine_scalar"}


@pytest.mark.parametrize("doc", ROUND_TRIP_DOCS, ids=lambda d: d["kind"])
def test_document_round_trip_bit_exact(doc):
    f = parse_spec(doc)
    emitted = emit_spec(f)
    # a document of a retired kind is emitted as the kind that replaced it
    kinds = {s["kind"] for s in emitted.get("stages", [emitted])}
    if doc["kind"] in LEGACY_KINDS or doc["kind"] == "pipeline":
        assert kinds <= {"affine", "mobius"}
    else:
        assert emitted == doc
        assert json.dumps(emitted) == json.dumps(doc)
    g = parse_spec(json.loads(json.dumps(emitted)))
    assert json.dumps(emit_spec(g)) == json.dumps(emitted)
    # float repr round-trips: equal text is equal bits, signs of zeros included
    Z = 0.5 * sample_ball_points(f.n, 9, seed=5)
    for a, b in zip(f.eval_jac_many(Z), g.eval_jac_many(Z)):
        assert a.tobytes() == b.tobytes()


def test_poly_document_sorted_lexicographically():
    doc = {
        "kind": "poly",
        "n": 2,
        "m": 1,
        "terms": [
            {"alpha": [1, 0], "coef": [[1.0, 0.0]]},
            {"alpha": [0, 1], "coef": [[2.0, 0.0]]},
        ],
    }
    emitted = emit_spec(parse_spec(doc))
    assert [t["alpha"] for t in emitted["terms"]] == [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"kind": "mobius_scalar", "z0": [1.5, 0.0]}, "/z0"),
        ({"kind": "warp"}, "/kind"),
        ({"kind": "mobius_scalar"}, "/"),
        ({"kind": "mobius_scalar", "z0": [0.1, 0.0], "extra": 1}, "/"),
        ({"kind": "mobius_quotient", "a_abs": True, "theta": 0.0}, "/a_abs"),
        ({"kind": "poly", "n": 2, "m": 1, "terms": [{"alpha": [1], "coef": [[1.0, 0.0]]}]},
         "/terms/0/alpha"),
        ({"kind": "poly", "n": 1, "m": 2, "terms": [{"alpha": [1], "coef": [[1.0, 0.0]]}]},
         "/terms/0/coef"),
        ({"kind": "pipeline", "stages": [{"kind": "mobius_scalar", "z0": [2.0, 0.0]}]},
         "/stages/0/z0"),
        ({"kind": "pipeline", "stages": []}, "/stages"),
        # q == p parses (a constant affine map); a dimension mismatch fails at /q
        ({"kind": "line_embed", "p": [[0.0, 0.0]], "q": [[0.0, 0.0], [0.5, 0.0]]}, "/q"),
        ({"kind": "poly", "n": 1, "m": 1, "terms": [{"alpha": [10**30], "coef": [[0.5, 0]]}]},
         "/terms/0/alpha"),
        ({"kind": "poly", "n": 2, "m": 1, "terms": [{"alpha": [2**40, 0], "coef": [[0.5, 0]]}]},
         "/terms/0/alpha"),
        ({"kind": "mobius_quotient", "a_abs": 0.5, "theta": True}, "/theta"),
        ({"kind": "mobius_scalar", "z0": ["0.3", 0.1]}, "/z0/0"),
        ({"kind": "affine_scalar", "r": [1.0, 0.0], "c": [True, 0.0]}, "/c/0"),
        ({"kind": "mobius_quotient", "a_abs": 1.0, "theta": 0.0}, "/a_abs"),
        ({"kind": "line_embed", "p": [[-1e308, 0.0]], "q": [[1e308, 0.0]]}, "/q"),
        ({"kind": "mobius", "M": [1.0, 0.0], "b": [0.6, 0.8]}, "/b"),
        ({"kind": "mobius", "M": [1.0, 0.0, 0.0], "b": [0.5, 0.0]}, "/M"),
        ({"kind": "affine", "M": [[[1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]], "b": [[0.0, 0.0]]},
         "/M/1"),
        ({"kind": "affine", "M": [[[1.0, 0.0]], [[1.0, "0"]]], "b": [[0.0, 0.0]]}, "/M/1/0/1"),
        ({"kind": "affine", "M": [], "b": [[0.0, 0.0]]}, "/M"),
        ({"kind": "affine", "M": [[[1.0, 0.0]]], "b": [[0.0, 0.0], [0.0, 0.0]]}, "/b"),
        ({"kind": "pipeline", "stages": [{"kind": "mobius_scalar", "z0": [0.5, 0]},
                                         {"kind": "affine_scalar", "r": [1.0, 0.0]}]}, "/stages/1"),
    ],
)
def test_schema_errors_carry_paths(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse_spec(doc)
    assert exc.value.path == path


def test_schema_error_message_names_path():
    with pytest.raises(SchemaError, match="/z0"):
        parse_spec({"kind": "mobius_scalar", "z0": [1.5, 0.0]})


@pytest.mark.parametrize(
    "doc",
    [
        # a_abs is the offset b of a Moebius map, which may be negative
        {"kind": "mobius_quotient", "a_abs": -0.5, "theta": 1.0},
        # q == p makes the constant affine map z -> p
        {"kind": "line_embed", "p": [[0.1, 0.0], [0.0, 0.2]], "q": [[0.1, 0.0], [0.0, 0.2]]},
    ],
    ids=["negative a_abs", "q equal to p"],
)
def test_legacy_documents_once_refused_now_parse(doc):
    f = parse_spec(doc)
    assert json.dumps(emit_spec(parse_spec(emit_spec(f)))) == json.dumps(emit_spec(f))


def test_writers_spell_each_float_as_the_per_entry_writer():
    # one tolist() per array against [float(z.real), float(z.imag)] per entry
    vals = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 1.7976931348623157e308, 0.1 + 0.2,
            0.30000000000000004, 2.220446049250313e-16, 123456.78901234567, -0.7071067811865476]
    rng = np.random.default_rng(8)
    parts = np.array(vals + list(rng.standard_normal(21) * 10.0 ** rng.integers(-300, 300, 21)))
    z = np.empty(parts.shape[0], dtype=np.complex128)
    z.real, z.imag = parts, parts[::-1]
    per_entry = [[float(c.real), float(c.imag)] for c in z]
    assert json.dumps(vector_to_pairs(z)) == json.dumps(per_entry)
    assert json.dumps(vector_to_pairs(z[::2])) == json.dumps(per_entry[::2])
    M = z[:30].reshape(5, 6)
    doc = emit_spec(AffineMap(M, z[27:]))
    assert json.dumps(doc["M"]) == json.dumps([per_entry[6 * i: 6 * i + 6] for i in range(5)])
    assert json.dumps(doc["b"]) == json.dumps(per_entry[27:])
    poly = emit_spec(PolyMap(1, 8, {(1,): z[:8], (2,): z[8:16]}))
    assert json.dumps([t["coef"] for t in poly["terms"]]) == json.dumps([per_entry[:8], per_entry[8:16]])
    assert parse_spec(doc).M.tobytes() == M.tobytes()


# -- PolyMap terms: one validator for the mapping and the array path ---------


@pytest.mark.parametrize(
    "n,m,terms,message",
    [
        (2, 1, {(1, 0, 0): [1.0]}, "multi-index (1, 0, 0) has length 3, expected 2"),
        (2, 1, [((1, 0), [1.0]), ((1,), [1.0])], "multi-index (1,) has length 1, expected 2"),
        (2, 1, {(1, -1): [1.0]}, "multi-index (1, -1) has a negative entry"),
        (2, 1, [((1, 0), [1.0]), ((0, 1), [1.0]), ((1, 0), [2.0])],
         "duplicate multi-index (1, 0)"),
        (2, 2, {(0, 0): [1.0, 0.0], (1, 0): [1.0]},
         "coefficient for (1, 0) has length 1, expected 2"),
        (2, 2, {(0, 0): [1.0, 2.0], (1, 0): [1.0, np.inf]}, "coefficient for (1, 0) is not finite"),
        # the first faulty term in input order, with its first failing check
        (2, 1, [((1, 0), [1.0]), ((-1, 0), [np.nan, 2.0])],
         "multi-index (-1, 0) has a negative entry"),
        (2, 1, [((1, 0), [1.0, 2.0]), ((1,), [1.0])],
         "coefficient for (1, 0) has length 2, expected 1"),
        (3, 2, [((0, 0, 0), [1, 2]), ((2, 1, 0), [1j, 2]), ((0, 3, 0), [1, 2]),
                ((2, 1, 0), [1j, 2])],
         "duplicate multi-index (2, 1, 0)"),
        (0, 1, {}, "n must be a positive integer"),
        (1, 0, {}, "m must be a positive integer"),
        (2.0, 1, {}, "n must be a positive integer"),
        (2, 1, {(0, 1): [1.0], (MAX_DEGREE + 1, 0): [1.0]},
         f"multi-index ({MAX_DEGREE + 1}, 0) has an entry above MAX_DEGREE = {MAX_DEGREE}"),
    ],
)
def test_poly_error_messages(n, m, terms, message):
    with pytest.raises(InputError) as exc:
        PolyMap(n, m, terms)
    assert str(exc.value) == message


def test_max_degree_is_the_largest_exponent_accepted():
    f = PolyMap(2, 1, {(MAX_DEGREE, 0): [0.5], (0, 1): [0.25]})
    # 0.5 * 0.5**MAX_DEGREE is far below the rounding of 0.25 * 0.5
    assert f.eval([0.5, 0.5])[0] == 0.125
    with pytest.raises(InputError, match="MAX_DEGREE"):
        PolyMap.from_arrays(2, 1, [[0, MAX_DEGREE + 1]], [[0.5]])


def test_from_arrays_reports_the_same_errors():
    alphas = np.array([[1, 0], [0, 1], [1, 0]])
    with pytest.raises(InputError) as exc:
        PolyMap.from_arrays(2, 1, alphas, np.ones((3, 1)))
    assert str(exc.value) == "duplicate multi-index (1, 0)"
    with pytest.raises(InputError) as exc:
        PolyMap.from_arrays(2, 2, alphas[:2], np.ones((2, 3)))
    assert str(exc.value) == "coefficient for (1, 0) has length 3, expected 2"
    with pytest.raises(InputError):
        PolyMap.from_arrays(2, 1, alphas, np.ones((2, 1)))
    empty = PolyMap.from_arrays(2, 3, np.zeros((0, 2)), np.zeros((0, 3)))
    assert np.array_equal(empty.eval([0.1, 0.2]), np.zeros(3))


@pytest.mark.parametrize("entry", [1.5, 2.9, -0.5, np.nan, "2", None, True, 1j])
def test_non_integer_exponents_are_rejected_by_both_constructors(entry):
    # the entry used to be truncated or parsed: 1.5 and 2.9 stored as 1 and 2
    terms = [((1, 0), [0.5]), ((0, entry), [0.25])]
    for make in (lambda: PolyMap(2, 1, terms),
                 lambda: PolyMap.from_arrays(2, 1, [[1, 0], [0, entry]], [[0.5], [0.25]])):
        with pytest.raises(InputError) as exc:
            make()
        assert exc.value.field == "terms/1/alpha"
        # the entry as the caller gave it, not as the NaN it is judged as
        assert str(exc.value) == f"multi-index {(0, entry)!r} has an entry that is not an integer"


def test_integral_float_exponents_are_accepted():
    f = PolyMap(2, 1, {(2.0, 0): [0.5], (0, 1): [0.25]})
    g = PolyMap.from_arrays(2, 1, np.array([[2.0, 0.0], [0.0, 1.0]]), [[0.5], [0.25]])
    h = PolyMap(2, 1, {(2, 0): [0.5], (0, 1): [0.25]})
    for other in (f, g):
        assert other._alphas.dtype == np.int64
        assert emit_spec(other) == emit_spec(h)


def test_from_arrays_and_mapping_sort_shuffled_terms_alike():
    rng = np.random.default_rng(11)
    f = gen_random_polymap(3, 2, max_degree=4, margin=0.25, seed=8)
    perm = rng.permutation(f._alphas.shape[0])
    alphas, coefs = f._alphas[perm], f._coefs[perm]
    g = PolyMap.from_arrays(3, 2, alphas, coefs)
    h = PolyMap(3, 2, {tuple(a): c for a, c in zip(alphas.tolist(), coefs)})
    k = PolyMap(3, 2, zip(alphas, coefs))
    for other in (g, h, k):
        assert np.array_equal(other._alphas, f._alphas)
        assert np.array_equal(other._coefs, f._coefs)
        assert other._alphas.dtype == np.int64 and other._coefs.dtype == np.complex128
        assert not other._alphas.flags.writeable and not other._coefs.flags.writeable
    # the map keeps its own copy of the coefficients
    coefs[:] = 0.0
    assert np.array_equal(g._coefs, f._coefs)


# multi-index sets that are not downward closed, a map without terms, and one
# in which z_1 occurs in no term
SPARSE_MAPS = [
    PolyMap(2, 2, {(3, 1): [0.3, 0.1j], (0, 2): [0.2 - 0.1j, -0.4]}),
    PolyMap(3, 1, {(0, 0, 4): [0.7 + 0.1j]}),
    PolyMap(3, 2, {}),
    PolyMap(3, 2, {(2, 0, 1): [0.25, 0.5j], (0, 0, 3): [-0.3j, 0.1], (1, 0, 0): [0.2, 0.2]}),
]
KERNEL_MAPS = [
    gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=300 + 10 * n + m)
    for n in range(1, 5)
    for m in range(1, 5)
] + SPARSE_MAPS
KERNEL_IDS = [f"{n}-{m}" for n in range(1, 5) for m in range(1, 5)] + [repr(f) for f in SPARSE_MAPS]


@pytest.mark.parametrize("f", KERNEL_MAPS, ids=KERNEL_IDS)
def test_jacobian_columns_equal_derivative_maps(f):
    zs = sample_ball_points(f.n, 40, seed=400 + 10 * f.n + f.m)
    J = f.jac_many(zs)
    for j in range(f.n):
        # d/dz_j term by term: alpha_j * c z^(alpha - e_j) for alpha_j >= 1
        terms = {}
        for alpha, c in f.terms.items():
            if alpha[j]:
                terms[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]] = c * alpha[j]
        assert np.array_equal(J[:, :, j], PolyMap(f.n, f.m, terms).eval_many(zs))


# the monomial kernel before the levels, kept as the reference: a power table
# per variable, and every monomial multiplied out in full, from a table of ones
def ref_powers(Z, degrees):
    """Per column j of the ``(B, n)`` batch, the table ``Z[:, j] ** k`` for
    k = 0..degrees[j], by repeated multiplication (None where the degree is 0)."""
    tables = []
    for j, dj in enumerate(degrees):
        if dj == 0:
            tables.append(None)
            continue
        P = np.empty((Z.shape[0], dj + 1), dtype=np.complex128)
        P[:, 0] = 1.0
        for k in range(1, dj + 1):
            P[:, k] = P[:, k - 1] * Z[:, j]
        tables.append(P)
    return tables


def ref_monomials(tables, B, alphas):
    """The ``(B, T)`` monomials ``prod_j z_j ** alphas[t, j]``, a factor per
    variable that has a table, in variable order, never multiplied in place."""
    mono, spare, factor = np.empty((3, B, alphas.shape[0]), dtype=np.complex128)
    mono[...] = 1.0
    for j, P in enumerate(tables):
        if P is not None:
            np.take(P, alphas[:, j], axis=1, out=factor, mode="clip")
            np.multiply(mono, factor, out=spare)
            mono, spare = spare, mono
    return mono


def column_by_column(f, Z):
    """A PolyMap's value and Jacobian from one reference monomial table per
    term set: the map's terms and those of each partial derivative, each
    table reading only the variables that occur in its set."""
    tables = ref_powers(Z, f._alphas.max(axis=0, initial=0).tolist())

    def eval_terms(alphas, coefs):
        active = alphas.max(axis=0, initial=0)
        own = [P if d else None for P, d in zip(tables, active.tolist())]
        return holomap._sum_terms(ref_monomials(own, Z.shape[0], alphas), coefs)

    V = eval_terms(f._alphas, f._coefs)
    cols = []
    for j in range(f.n):
        rows = f._alphas[:, j] >= 1
        alphas = f._alphas[rows].copy()
        coefs = f._coefs[rows] * alphas[:, j][:, None]
        alphas[:, j] -= 1
        cols.append(eval_terms(alphas, coefs))
    return V, np.stack(cols, axis=2)


@pytest.mark.parametrize("f", KERNEL_MAPS, ids=KERNEL_IDS)
@pytest.mark.parametrize("B", [1, 7, 1400, 1600])
def test_fused_kernel_is_bit_identical_to_one_table_per_set(f, B):
    zs = sample_ball_points(f.n, B, seed=900 + B + 10 * f.n + f.m)
    V, J = f.eval_jac_many(zs)
    V_ref, J_ref = column_by_column(f, zs)
    for got, ref in ((V, V_ref), (J, J_ref)):
        assert got.shape == ref.shape and got.dtype == ref.dtype == np.complex128
        assert got.tobytes() == ref.tobytes()
    # the value-only kernel, the FD oracle's path, over the map's own terms
    assert f._value(zs).tobytes() == V_ref.tobytes()
    assert V.tobytes() == f.eval_many(zs).tobytes()
    # fresh, writable results on every call
    V2, J2 = f.eval_jac_many(zs)
    assert V.flags.writeable and J.flags.writeable
    assert not np.shares_memory(J, J2) and not np.shares_memory(V, V2)
    J[...] = 1.0
    assert J2.tobytes() == J_ref.tobytes()


def plan_arrays(plan):
    """Every array of a term plan, those of its levels included."""
    levels = [v for lv in plan.levels for v in lv]
    return [v for v in (*plan, *levels) if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("f", KERNEL_MAPS, ids=KERNEL_IDS)
def test_an_empty_batch_has_empty_results(f):
    V, J = f.eval_jac_many(np.zeros((0, f.n)))
    assert V.shape == (0, f.m) and J.shape == (0, f.m, f.n)
    assert f.eval_many(np.zeros((0, f.n))).shape == (0, f.m)


def test_maps_share_the_term_plan_of_their_multi_indices():
    holomap._term_plan.cache_clear()
    harness._template.cache_clear()
    f = gen_random_polymap(2, 3, max_degree=4, margin=0.25, seed=1)
    hits = holomap._term_plan.cache_info().hits
    g = gen_random_polymap(2, 3, max_degree=4, margin=0.25, seed=2)
    # the second map is built on the generator's template of the shape
    assert holomap._term_plan.cache_info().hits == hits
    assert g._plan is f._plan and g._alphas is f._alphas
    zs = sample_ball_points(2, 9, seed=3)
    for h in (f, g):
        V, J = h.eval_jac_many(zs)
        V_ref, J_ref = column_by_column(h, zs)
        assert V.tobytes() == V_ref.tobytes() and J.tobytes() == J_ref.tobytes()
    assert not np.array_equal(f.eval_many(zs), g.eval_many(zs))
    # equal bytes in another shape make another plan
    a = PolyMap.from_arrays(2, 1, np.array([[0, 1], [2, 3]]), [[0.5], [0.25]])
    b = PolyMap.from_arrays(1, 1, np.array([[0], [1], [2], [3]]), [[0.5], [0.25], [0.1], [0.1]])
    assert a._plan is not b._plan
    assert a._alphas.shape == (2, 2) and b._alphas.shape == (4, 1)
    for plan in (f._plan, a._plan, b._plan, SPARSE_MAPS[0]._plan):
        arrays = plan_arrays(plan)
        assert len(arrays) >= 6 and not any(v.flags.writeable for v in arrays)
    # a map built on a cold cache evaluates bit for bit as before
    V, J = f.eval_jac_many(zs)
    holomap._term_plan.cache_clear()
    harness._template.cache_clear()
    cold = gen_random_polymap(2, 3, max_degree=4, margin=0.25, seed=1)
    assert cold._plan is not f._plan
    V2, J2 = cold.eval_jac_many(zs)
    assert V.tobytes() == V2.tobytes() and J.tobytes() == J2.tobytes()


@pytest.mark.parametrize("n, m, d", [(1, 1, 0), (1, 2, 4), (2, 2, 3), (3, 1, 2), (4, 4, 4)])
def test_generated_maps_equal_their_validated_terms(n, m, d):
    harness._template.cache_clear()
    f = gen_random_polymap(n, m, max_degree=d, margin=0.25, seed=17 * n + m)
    g = PolyMap.from_arrays(n, m, _multi_indices(n, d), f._coefs)
    assert g._plan is f._plan
    # the template's table is _multi_indices as it stands, and its own union
    assert np.array_equal(f._alphas, _multi_indices(n, d))
    assert f._plan.value is None and np.array_equal(f._plan.union, f._alphas)
    assert f._coefs.tobytes() == g._coefs.tobytes() and not f._coefs.flags.writeable
    assert emit_spec(f) == emit_spec(g)
    zs = sample_ball_points(n, 50, seed=d)
    for h in (f, g):
        assert not any(v.flags.writeable for v in plan_arrays(h._plan))
    for got, ref in zip(f.eval_jac_many(zs), g.eval_jac_many(zs)):
        assert got.tobytes() == ref.tobytes()
    assert f.eval_many(zs).tobytes() == g.eval_many(zs).tobytes()


@pytest.mark.parametrize(
    "terms",
    [
        # a bad coefficient on a valid table
        [((1, 0), [1.0]), ((0, 1), [np.nan]), ((2, 0), [1.0, 2.0])],
        # a duplicate multi-index, and a bad coefficient before or on it
        [((1, 0), [1.0]), ((0, 1), [1.0]), ((1, 0), [2.0])],
        [((1, 0), [1.0]), ((0, 1), [np.inf]), ((1, 0), [2.0])],
        [((1, 0), [1.0]), ((0, 1), [1.0]), ((1, 0), [np.inf])],
    ],
)
def test_cached_plans_raise_what_a_cold_cache_raises(terms):
    def error():
        with pytest.raises(InputError) as exc:
            PolyMap(2, 1, terms)
        return exc.value.field, str(exc.value)

    holomap._term_plan.cache_clear()
    cold = error()
    assert error() == cold
    PolyMap(2, 1, [(alpha, [0.5]) for alpha, _ in terms[:2]])  # plans a valid table
    assert error() == cold


@pytest.mark.parametrize("f", KERNEL_MAPS, ids=KERNEL_IDS)
def test_terms_in_any_order_share_one_plan(f):
    perm = np.random.default_rng(f.n + 10 * f.m).permutation(f._alphas.shape[0])[::-1]
    sorted_ = PolyMap.from_arrays(f.n, f.m, f._alphas, f._coefs)
    g = PolyMap.from_arrays(f.n, f.m, f._alphas[perm], f._coefs[perm])
    h = PolyMap(f.n, f.m, [(tuple(a), c) for a, c in zip(f._alphas[perm].tolist(), f._coefs[perm])])
    assert g._plan is sorted_._plan and h._plan is sorted_._plan
    assert g._coefs.tobytes() == h._coefs.tobytes() == f._coefs.tobytes()
    for B in (1, 7, 100):
        zs = sample_ball_points(f.n, B, seed=B + f.n)
        for got, ref in zip(g.eval_jac_many(zs), f.eval_jac_many(zs)):
            assert got.tobytes() == ref.tobytes()
        assert g._value(zs).tobytes() == f._value(zs).tobytes()


@pytest.mark.parametrize("f", SPARSE_MAPS, ids=repr)
@pytest.mark.parametrize("B", [1, 7, 100, 1400, 1600])
def test_the_value_kernel_reads_the_fused_kernels_table(f, B):
    # _value sums the columns of the map's own terms from the union's table
    zs = sample_ball_points(f.n, B, seed=1300 + B)
    assert f._value(zs).tobytes() == f.eval_jac_many(zs)[0].tobytes()


# one faulty term, after a valid one, per check of _normalise_terms
REFUSED_TERMS = {
    "length": ([((1,), [0.5])], "terms/1/alpha"),
    "integer": ([((1.5, 0), [0.5])], "terms/1/alpha"),
    "negative": ([((-1, 0), [0.5])], "terms/1/alpha"),
    "MAX_DEGREE": ([((MAX_DEGREE + 1, 0), [0.5])], "terms/1/alpha"),
    "duplicate": ([((0, 1), [0.25])], "terms/1/alpha"),
    "coefficient length": ([((1, 0), [0.5, 0.5])], "terms/1/coef"),
    "coefficient finiteness": ([((1, 0), [np.nan])], "terms/1/coef"),
}


@pytest.mark.parametrize("check", REFUSED_TERMS)
def test_a_refused_construction_never_touches_the_plan_cache(check):
    bad, field = REFUSED_TERMS[check]
    terms = [((0, 1), [0.5])] + bad
    builds = [lambda: PolyMap(2, 1, terms)]
    if check not in ("length", "coefficient length"):  # arrays of one width
        builds.append(lambda: PolyMap.from_arrays(2, 1, [a for a, _ in terms], [c for _, c in terms]))
    holomap._term_plan.cache_clear()
    for build in builds:
        with pytest.raises(InputError) as exc:
            build()
        assert exc.value.field == field
        info = holomap._term_plan.cache_info()
        assert info.currsize == info.hits == info.misses == 0


# -- documents: property tests ------------------------------------------------


@st.composite
def poly_maps(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), unique=True, max_size=8))
    coefs = [draw(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                           min_size=m, max_size=m)) for _ in alphas]
    return PolyMap(n, m, zip(alphas, coefs))


@settings(max_examples=200, deadline=None)
@given(poly_maps())
def test_random_poly_documents_round_trip_bit_exact(f):
    text = json.dumps(emit_spec(f))
    g = parse_spec(json.loads(text))
    assert json.dumps(emit_spec(g)) == text
    assert g._alphas.tobytes() == f._alphas.tobytes()
    assert g._coefs.tobytes() == f._coefs.tobytes()


COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def affine_and_mobius_maps(draw):
    if draw(st.booleans()):
        b = draw(st.complex_numbers(max_magnitude=0.9999))
        # an M near the float maximum makes M conj(b) overflow, which the constructor refuses
        return MobiusMap(draw(st.complex_numbers(max_magnitude=1e300)), b)
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    M = draw(st.lists(COMPLEX, min_size=n * m, max_size=n * m))
    return AffineMap(np.reshape(np.array(M, dtype=np.complex128), (m, n)),
                     draw(st.lists(COMPLEX, min_size=m, max_size=m)))


@settings(max_examples=200, deadline=None)
@given(affine_and_mobius_maps())
def test_random_affine_and_mobius_documents_round_trip_bit_exact(f):
    text = json.dumps(emit_spec(f))
    g = parse_spec(json.loads(text))
    assert json.dumps(emit_spec(g)) == text
    for name in ("M", "b"):
        assert np.asarray(getattr(g, name)).tobytes() == np.asarray(getattr(f, name)).tobytes()


# values a mutation puts into a document: numbers out of every kind's range,
# beyond int64 and beyond the float range, non-finite floats, every other
# JSON type, and nested containers
NUMBERS = st.sampled_from(
    [10**400, 2**63, -(10**30), 1.7e308, 2**59, 2**62, -1, 0, 1.0, -0.1, 0.999999, 1.5]
)
VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=4), st.integers(-(2**70), 2**70), st.floats(),
        NUMBERS,
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=5), kids, max_size=3)
    ),
    max_leaves=6,
)
MUTATION_BASES = ROUND_TRIP_DOCS + [
    emit_spec(gen_random_polymap(2, 3, max_degree=2, margin=0.25, seed=9)),
    # pipelines nested in pipelines
    {"kind": "pipeline", "stages": [ROUND_TRIP_DOCS[-1], ROUND_TRIP_DOCS[1],
                                    {"kind": "pipeline", "stages": ROUND_TRIP_DOCS[1:3]}]},
]


def _slots(node):
    """Every (container, key) pair inside a decoded JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_slots(value))
    return out


@st.composite
def mutated_documents(draw):
    """A valid document with one or two mutations: a field or list entry
    dropped or added, a value replaced by one of ``VALUES``, or a number by
    one of ``NUMBERS``."""
    doc = copy.deepcopy(draw(st.sampled_from(MUTATION_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        slots = _slots(doc)
        if not slots:
            break
        action = draw(st.sampled_from(["drop", "add", "replace", "number"]))
        if action == "number":
            slots = [(c, k) for c, k in slots if type(c[k]) in (int, float)] or slots
        container, key = draw(st.sampled_from(slots))
        if action == "drop":
            del container[key]
        elif action == "add" and isinstance(container, dict):
            container[draw(st.text(max_size=5))] = draw(VALUES)
        elif action == "add":
            container.insert(key, draw(VALUES))
        else:
            container[key] = draw(NUMBERS if action == "number" else VALUES)
    return doc


@settings(max_examples=600, deadline=None)
@given(mutated_documents())
def test_mutated_documents_raise_only_schema_errors(doc):
    try:
        f = parse_spec(doc)
    except SchemaError as e:
        assert e.path.startswith("/")
        assert str(e).startswith(e.path + ": ")
    else:
        # the mutation left a valid document: it round-trips
        emitted = emit_spec(f)
        assert emit_spec(parse_spec(json.loads(json.dumps(emitted)))) == emitted
