"""The six map kinds that ``AffineMap`` and ``MobiusMap`` replaced, written
out here as reference kernels with the formulas and operand order of their
old classes. A stored document of each kind parses into a map whose values
and Jacobians equal the reference bit for bit, and so do the equality
witnesses, which are pipelines of these kinds.

Two values may differ in their last bits, within a few ulp: the old
``AffineScalar`` computed ``r * X + c``, the new kind ``c + X * r``, and
numpy's complex product is not bitwise commutative; and at n = 1 the old
``LinearFunctional`` took a one-term matrix product where the new kind
takes an elementwise one.
"""

import numpy as np
import pytest

from holoball import (
    ExtremalSpec,
    emit_spec,
    extremal_nonzero_case,
    extremal_zero_case,
    parse_spec,
    vector_to_pairs,
)

EPS = np.finfo(np.float64).eps


def constant(A, B):
    """B copies of the Jacobian A."""
    return np.broadcast_to(A, (B, *A.shape)).copy()


def ref_mobius_scalar(z0, X):
    den = 1.0 - z0.conjugate() * X
    return (z0 - X) / den, ((abs(z0) ** 2 - 1.0) / den**2)[:, :, None]


def ref_mobius_quotient(a, theta, X):
    rot = complex(np.exp(1j * theta))
    den = 1.0 + (a * rot) * X
    return (a + rot * X) / den, (rot * (1.0 - a**2) / den**2)[:, :, None]


def ref_line_embed(p, q, X):
    d = q - p
    return p[None, :] + X * d[None, :], constant(d[:, None], X.shape[0])


def ref_linear_functional(u, X):
    cu = np.conj(u)
    return np.matmul(X[:, None, :], cu[:, None])[:, 0, :], constant(cu[None, :], X.shape[0])


def ref_scalar_times_vector(beta, X):
    return X * beta[None, :], constant(beta[:, None], X.shape[0])


def ref_affine_scalar(r, c, X):
    return r * X + c, constant(np.array([[r]]), X.shape[0])


def cvec(rng, k, scale=1.0):
    return scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))


def cnum(rng, scale=1.0):
    return complex(cvec(rng, 1, scale)[0])


def draw(kind, rng):
    """Random parameters of a kind: (document fields, reference kernel of X,
    n, scale of the value for the ulp bound or None for an exact match)."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    if kind == "mobius_scalar":
        z0 = cnum(rng, 0.4)
        z0 *= min(1.0, 0.95 / abs(z0))
        return {"z0": [z0.real, z0.imag]}, lambda X: ref_mobius_scalar(z0, X), 1, None
    if kind == "mobius_quotient":
        a, theta = float(rng.uniform(0.0, 0.95)), float(rng.uniform(-10.0, 10.0))
        return {"a_abs": a, "theta": theta}, lambda X: ref_mobius_quotient(a, theta, X), 1, None
    if kind == "line_embed":
        p, q = cvec(rng, m, 0.4), cvec(rng, m, 0.4)
        return ({"p": vector_to_pairs(p), "q": vector_to_pairs(q)},
                lambda X: ref_line_embed(p, q, X), 1, None)
    if kind == "linear_functional":
        u = cvec(rng, n)
        return ({"u": vector_to_pairs(u)}, lambda X: ref_linear_functional(u, X), n,
                (lambda X: np.abs(X) @ np.abs(u)[:, None]) if n == 1 else None)
    if kind == "scalar_times_vector":
        beta = cvec(rng, m)
        return {"beta": vector_to_pairs(beta)}, lambda X: ref_scalar_times_vector(beta, X), 1, None
    r, c = cnum(rng), cnum(rng)
    return ({"r": [r.real, r.imag], "c": [c.real, c.imag]}, lambda X: ref_affine_scalar(r, c, X),
            1, lambda X: abs(r) * np.abs(X) + abs(c))


@pytest.mark.parametrize("kind", ["mobius_scalar", "mobius_quotient", "line_embed",
                                  "linear_functional", "scalar_times_vector", "affine_scalar"])
def test_legacy_documents_evaluate_as_their_old_kernels(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(300):
        fields, ref, n, ulp_scale = draw(kind, rng)
        f = parse_spec({"kind": kind, **fields})
        g = parse_spec(emit_spec(f))
        for B in (1, 2, 100):
            # inside the disk of radius 0.95 at n = 1, away from every pole
            X = cvec(rng, B * n, 0.5).reshape(B, n)
            X *= np.minimum(1.0, 0.95 / np.abs(X))
            V_ref, J_ref = ref(X)
            for h in (f, g):
                V, J = h.eval_jac_many(X)
                assert J.tobytes() == J_ref.tobytes()
                assert V.tobytes() == h.eval_many(X).tobytes()
                if ulp_scale is None:
                    assert V.tobytes() == V_ref.tobytes()
                else:
                    assert V.shape == V_ref.shape
                    assert (np.abs(V - V_ref) <= 4 * EPS * ulp_scale(X)).all()


def ref_witness(f, case, theta, X):
    """The witness pipeline f through the reference kernels of the kinds it
    was built of, with the stored parameters read back from f."""
    first, disk, *rest = f.stages
    u = np.conj(first.M[0])  # conj is exact, so this is the stored u
    assert first.b.tobytes() == np.array([complex(-0.0, -0.0)]).tobytes()
    assert disk.M == -1.0
    stages = [lambda X: ref_linear_functional(u, X), lambda X: ref_mobius_scalar(disk.b, X)]
    if case == "nonzero":
        quotient = rest[0]
        assert quotient.M == complex(np.exp(1j * theta)) and quotient.b.imag == 0.0
        stages.append(lambda X: ref_mobius_quotient(quotient.b.real, theta, X))
    stages.append(lambda X: ref_scalar_times_vector(rest[-1].M[:, 0], X))
    V, J = stages[0](X)
    for stage in stages[1:]:
        V, Ji = stage(V)
        J = np.matmul(Ji, J)
    return V, J


@pytest.mark.parametrize("case", ["zero", "nonzero"])
def test_equality_witnesses_evaluate_as_their_old_kernels(case):
    rng = np.random.default_rng(11 if case == "zero" else 12)
    for n in (2, 3):
        for m in (1, 2, 3):
            for _ in range(25):
                p = cvec(rng, n)
                p *= rng.uniform(0.0, 0.95) / np.linalg.norm(p)
                u = p / np.linalg.norm(p) * np.exp(2j * np.pi * rng.random())
                beta = cvec(rng, m)
                beta /= np.linalg.norm(beta)
                a = beta * rng.uniform(0.05, 0.95)
                theta = float(rng.uniform(0.0, 2.0 * np.pi))
                if case == "zero":
                    f = extremal_zero_case(ExtremalSpec.zero(p, u, beta))
                else:
                    f = extremal_nonzero_case(ExtremalSpec.nonzero(p, u, a, theta))
                # points on the equality slice with 1 - |z| in [1e-9, 1e-3],
                # points of the ball, and p itself
                radii = 1.0 - 10.0 ** rng.uniform(-9, -3, 6)
                near = (radii * np.exp(2j * np.pi * rng.random(6)))[:, None] * u[None, :]
                inner = cvec(rng, 6 * n, 0.3).reshape(6, n)
                X = np.vstack([near, inner, p[None, :]])
                V_ref, J_ref = ref_witness(f, case, theta, X)
                g = parse_spec(emit_spec(f))
                for B in (1, 2, X.shape[0]):
                    for h in (f, g):
                        V, J = h.eval_jac_many(X[:B])
                        assert V.tobytes() == V_ref[:B].tobytes()
                        assert J.tobytes() == J_ref[:B].tobytes()
