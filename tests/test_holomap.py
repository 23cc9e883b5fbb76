"""Map algebra: exact evaluation and Jacobians against a central-difference
oracle, holomorphy of every node kind, and the document format round trip."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoball import (
    AffineScalar,
    DomainError,
    ExtremalSpec,
    InputError,
    LineEmbed,
    LinearFunctional,
    MobiusDisk,
    MobiusQuotient,
    Pipeline,
    PolyMap,
    ScalarTimesVector,
    SchemaError,
    emit_spec,
    extremal_nonzero_case,
    extremal_zero_case,
    gen_random_polymap,
    parse_spec,
    sample_ball_points,
    sp_bound,
)
from holoball import holomap
from holoball.holomap import _KINDS, MAX_DEGREE

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


CASES = [
    (poly_halfsum(), [0.3 + 0.1j, -0.2j]),
    (poly_counterexample(), [0.4 - 0.3j]),
    (MobiusDisk(0.3 + 0.2j), [0.1 - 0.4j]),
    (MobiusQuotient(0.5, 1.1), [0.2 + 0.1j]),
    (LineEmbed([0.1, 0.2j], [0.3 - 0.1j, 0.05]), [0.4 + 0.2j]),
    (LinearFunctional([0.5, 1.0 - 0.5j]), [0.2j, 0.3]),
    (ScalarTimesVector([1.0j, 0.25]), [0.3 - 0.2j]),
    (AffineScalar(0.5 - 0.25j, 0.1j), [0.7 + 0.1j]),
    (
        Pipeline([LinearFunctional([S, S]), MobiusDisk(0.4), ScalarTimesVector([0.6, 0.8j])]),
        [0.2 + 0.1j, -0.3j],
    ),
]


@pytest.mark.parametrize("f,z", CASES, ids=lambda v: type(v).__name__ if hasattr(v, "n") else None)
def test_jacobian_matches_finite_differences(f, z):
    J, Jbar = fd_jacobian(f, z)
    scale = max(1.0, float(np.abs(J).max()))
    assert np.abs(f.jacobian(z) - J).max() <= 1e-6 * scale
    # Cauchy-Riemann: the anti-holomorphic derivative vanishes
    assert np.abs(Jbar).max() <= 1e-6 * scale


@pytest.mark.parametrize("f,z", CASES, ids=lambda v: type(v).__name__ if hasattr(v, "n") else None)
def test_batch_agrees_with_single_point(f, z):
    zs = np.array([z, [0.5 * c for c in z], [0.25j * c for c in z]], dtype=np.complex128)
    V = f.eval_many(zs)
    J = f.jac_many(zs)
    for i in range(zs.shape[0]):
        assert np.array_equal(V[i], f.eval(zs[i]))
        assert np.array_equal(J[i], f.jacobian(zs[i]))


BATCH_MAPS = [
    gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=10 * n + m)
    for n in range(1, 5)
    for m in range(1, 5)
] + [
    Pipeline([gen_random_polymap(2, 3, 3, 0.25, seed=5), gen_random_polymap(3, 2, 2, 0.25, seed=6)]),
    Pipeline([LinearFunctional([0.6, 0.8j]), MobiusDisk(0.3 - 0.2j), ScalarTimesVector([0.6, 0.8j])]),
    LinearFunctional([0.5, -0.5j, 0.5 + 0.5j]),
]


@pytest.mark.parametrize("f", BATCH_MAPS, ids=repr)
def test_batch_rows_are_bit_identical_to_one_row_calls(f):
    # row i of a batch is the point evaluated alone, bit for bit, at any batch size
    zs = sample_ball_points(f.n, 101, seed=f.n + 7 * f.m)
    V = f.eval_many(zs)
    J = f.jac_many(zs)
    for i in range(zs.shape[0]):
        assert np.array_equal(V[i], f.eval_many(zs[i : i + 1])[0])
        assert np.array_equal(J[i], f.jac_many(zs[i : i + 1])[0])
    assert np.array_equal(V[:40], f.eval_many(zs[:40]))


FUSED_MAPS = [f for f, _ in CASES] + [
    gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=500 + 10 * n + m)
    for n in range(1, 5)
    for m in range(1, 5)
] + [
    extremal_zero_case(ExtremalSpec.zero([0.3, 0.4j], [0.6, 0.8j], [0.6, -0.8j])),
    extremal_nonzero_case(ExtremalSpec.nonzero([0.3, 0.4j], [0.6, 0.8j], [0.3, 0.4j], 0.7)),
]


@pytest.mark.parametrize("f", FUSED_MAPS, ids=repr)
@pytest.mark.parametrize("B", [1, 7])
def test_eval_jac_many_equals_the_separate_entries(f, B):
    zs = 0.9 * sample_ball_points(f.n, B, seed=60 + B + f.n)
    V, J = f.eval_jac_many(zs)
    assert V.shape == (B, f.m) and J.shape == (B, f.m, f.n)
    assert np.array_equal(V, f.eval_many(zs))
    assert np.array_equal(J, f.jac_many(zs))
    # a fresh, writable Jacobian per row, also for the constant-Jacobian kinds
    assert J.flags.writeable
    J[0] += 1.0
    assert np.array_equal(J[1:], f.jac_many(zs)[1:])


def test_map_kinds_implement_only_the_kernels():
    for cls in _KINDS.values():
        assert {"_value", "_value_jac"} <= set(vars(cls))
        assert not {"eval_many", "jac_many", "eval_jac_many"} & set(vars(cls))


def test_pipeline_rejects_a_non_finite_intermediate():
    # 5e199 * 1e200 overflows inside the pipeline; the next stage refuses it
    pipe = Pipeline([AffineScalar(1e200, 0.0), AffineScalar(1e200, 0.0), MobiusDisk(0.1)])
    z = np.array([[0.5 + 0.0j]])
    for entry in (pipe.eval_many, pipe.jac_many, pipe.eval_jac_many,
                  lambda Z: sp_bound(pipe, Z[0])):
        with np.errstate(over="ignore"), pytest.raises(InputError, match="non-finite"):
            entry(z)


@pytest.mark.parametrize(
    "f,z",
    [
        (MobiusDisk(0.5), 2.0),
        (MobiusQuotient(0.5, 0.0), -2.0),
        (Pipeline([AffineScalar(4.0, 0.0), MobiusDisk(0.5)]), 0.5),
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
    pipe = Pipeline([LinearFunctional([0.6, 0.8j]), MobiusDisk(0.3 - 0.2j),
                     MobiusQuotient(0.4, 1.0), ScalarTimesVector([0.6, 0.8j])])
    zs = sample_ball_points(2, 5, seed=3)
    for entry in (pipe.eval_many, pipe.jac_many, pipe.eval_jac_many, pipe.eval, pipe.jacobian):
        calls.clear()
        entry(zs)
        assert calls == [2]


def test_mobius_involution():
    rng = np.random.default_rng(17)
    for _ in range(100):
        z0 = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        phi = MobiusDisk(z0)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        assert abs(phi.eval(phi.eval(z)[0])[0] - z) <= 1e-12
    assert abs(MobiusDisk(0.5).eval(0.5)[0]) == 0.0


def test_mobius_pole_raises():
    with pytest.raises(DomainError):
        MobiusDisk(0.5).eval(2.0)
    with pytest.raises(DomainError):
        MobiusQuotient(0.5, 0.0).eval(-2.0)


def test_mobius_z0_validation():
    with pytest.raises(InputError):
        MobiusDisk(1.0)
    with pytest.raises(InputError):
        MobiusQuotient(1.0, 0.0)
    with pytest.raises(InputError):
        MobiusQuotient(-0.1, 0.0)


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
    stages = [LinearFunctional(u), MobiusDisk(0.3)]
    pipe = Pipeline(stages)
    z = np.array([0.2 - 0.1j, 0.3j])
    inner = stages[0].eval(z)
    product = stages[1].jacobian(inner) @ stages[0].jacobian(z)
    assert np.abs(pipe.jacobian(z) - product).max() <= 1e-12


def test_frechet_apply():
    f = poly_halfsum()
    z = np.array([0.2, 0.1j])
    beta = np.array([1.0, -1.0j])
    assert np.array_equal(f.frechet_apply(z, beta), f.jacobian(z) @ beta)
    with pytest.raises(InputError):
        f.frechet_apply(z, [1.0])


def test_line_embed_endpoints():
    p = np.array([0.1, 0.2j])
    q = np.array([0.3, -0.1])
    L = LineEmbed(p, q)
    assert np.array_equal(L.eval(0.0), p)
    assert np.allclose(L.eval(1.0), q, atol=1e-16)
    with pytest.raises(InputError):
        LineEmbed(p, p + 1e-15)


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
    f = MobiusDisk(0.2)
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
]


@pytest.mark.parametrize("doc", ROUND_TRIP_DOCS, ids=lambda d: d["kind"])
def test_document_round_trip_bit_exact(doc):
    f = parse_spec(doc)
    emitted = emit_spec(f)
    assert emitted == doc
    assert json.dumps(emitted) == json.dumps(doc)
    assert emit_spec(parse_spec(emitted)) == emitted


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
        ({"kind": "line_embed", "p": [[0.0, 0.0]], "q": [[0.0, 0.0]]}, "/q"),
        ({"kind": "poly", "n": 1, "m": 1, "terms": [{"alpha": [10**30], "coef": [[0.5, 0]]}]},
         "/terms/0/alpha"),
        ({"kind": "poly", "n": 2, "m": 1, "terms": [{"alpha": [2**40, 0], "coef": [[0.5, 0]]}]},
         "/terms/0/alpha"),
    ],
)
def test_schema_errors_carry_paths(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse_spec(doc)
    assert exc.value.path == path


def test_schema_error_message_names_path():
    with pytest.raises(SchemaError, match="/z0"):
        parse_spec({"kind": "mobius_scalar", "z0": [1.5, 0.0]})


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


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
def test_jacobian_columns_equal_derivative_maps(n, m):
    f = gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=300 + 10 * n + m)
    zs = sample_ball_points(n, 40, seed=400 + 10 * n + m)
    J = f.jac_many(zs)
    for j in range(n):
        d = PolyMap.from_arrays(n, m, *f._deriv_arrays(j))
        assert np.array_equal(J[:, :, j], d.eval_many(zs))


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
