"""Equality cases of the modulus-gradient bound: construction and diagnosis.

The bound |grad|f||(p) <= (1 - |f(p)|^2) / (1 - |p|^2) is attained exactly
by maps that factor through a disk automorphism of a complex line through p.
With ``u`` a unit vector collinear with p (any unit vector when p = 0) and
``z0 = herm_inner(p, u)``:

* zero case, ``f(p) = 0``: ``f(w) = beta * phi_z0(herm_inner(w, u))`` with
  ``|beta| = 1`` and ``phi_z0`` the disk automorphism swapping z0 and 0;
* nonzero case, ``f(p) = a != 0``: ``f(w) = M(herm_inner(w, u)) * a/|a|``
  where ``M(zeta) = (|a| + e^{i theta} phi_z0(zeta))
  / (1 + |a| e^{i theta} phi_z0(zeta))``.

Collinearity of u with p is what makes |z0| = |p|; any other choice of u
produces a strictly smaller gradient at p. The stored unit vectors u, beta
and a/|a| are rounded toward 0 until sum |v_j|^2 <= 1 holds exactly, so
the stored witness maps the ball into the ball in binary too.

``diagnose_equality_form`` inverts the construction: given a map attaining
equality at p and a second point q with q - p collinear with p, it restricts
f to the line through p and q, fits the free parameter of the canonical form
on the slice disk D(c, r) (beta from one sample in the zero case, e^{i theta}
from the derivative at the slice origin in the nonzero case), and reports the
worst residual over sampled slice points. The choice of q is the caller's;
any admissible q tests the same canonical form. In the nonzero case only the
projection onto a/|a| is pinned down by equality, so the diagnosis checks
that projection and reports the largest orthogonal component seen without
judging it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .complexcore import (_as_float, _integer, _norm, _positive_real, _row_norms, _to_json,
                          as_cvector)
from .errors import InputError, PreconditionError
from .geometry import _ball_point, disk_slice
from .holomap import (AffineMap, HoloMap, MobiusMap, Pipeline, _freeze, _functional, _rotation,
                      _times)
from .schwarzpick import DEFAULT_BOUND_TOL, _bound_batch, _one_minus_sq

__all__ = [
    "ExtremalSpec",
    "extremal_zero_case",
    "extremal_nonzero_case",
    "Diagnosis",
    "diagnose_equality_form",
    "UNIT_TOL",
]

UNIT_TOL = 1e-12
DEFAULT_DIAGNOSE_SAMPLES = 64
DEFAULT_DIAGNOSE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ExtremalSpec:
    """Parameters of an equality-case construction.

    ``case`` is "zero" or "nonzero"; ``p`` the equality point, ``u`` a unit
    direction collinear with p (free when p = 0). The zero case carries a
    unit target direction ``beta``; the nonzero case carries the target value
    ``a`` (0 < |a| < 1) and a rotation angle ``theta``. The spec is judged
    when it is built: each vector its case uses as ``as_cvector`` of it, theta
    as a finite real. It is frozen, so a judged field cannot be replaced.
    """

    case: str
    p: np.ndarray
    u: np.ndarray
    beta: np.ndarray | None = None
    a: np.ndarray | None = None
    theta: float | None = None

    def __post_init__(self):
        nonzero = self.case == "nonzero"
        for name in ("p", "u", "a" if nonzero else "beta"):
            object.__setattr__(self, name, as_cvector(getattr(self, name), name))
        if nonzero:
            object.__setattr__(self, "theta", _as_float(self.theta))
            if not math.isfinite(self.theta):
                raise InputError("theta must be a finite real")

    @classmethod
    def zero(cls, p, u, beta) -> "ExtremalSpec":
        return cls(case="zero", p=p, u=u, beta=beta)

    @classmethod
    def nonzero(cls, p, u, a, theta: float) -> "ExtremalSpec":
        return cls(case="nonzero", p=p, u=u, a=a, theta=theta)


def _inside_unit_ball(v: np.ndarray) -> bool:
    """Whether sum |v_j|^2 <= 1 holds exactly for the binary values of v:
    each part is num/d with d a power of two, so over the largest d the
    test is one integer comparison."""
    ratios = [x.as_integer_ratio() for x in v.view(np.float64).tolist()]
    den = max(d for _, d in ratios)
    return sum((num * (den // d)) ** 2 for num, d in ratios) <= den * den


def _round_inward(w: np.ndarray) -> np.ndarray:
    """The float unit vector ``w`` with every real and imaginary part rounded
    one ulp toward 0 at a time until sum |w_j|^2 <= 1 holds exactly, so the
    stored witness maps the ball into the ball in binary, not only up to
    rounding."""
    while not _inside_unit_ball(w):
        w = np.nextafter(w.view(np.float64), 0.0).view(np.complex128)
    return w


def _checked_direction(p: np.ndarray, npv: float, uv: np.ndarray) -> tuple[np.ndarray, complex]:
    """``uv`` as a unit vector collinear with p (whose norm is ``npv``),
    rounded inward, and ``z0 = herm_inner(p, u)`` of the rounded vector."""
    if uv.shape != p.shape:
        raise InputError("u must have the same dimension as p")
    nu = _norm(uv)
    if abs(nu - 1.0) > UNIT_TOL:
        raise InputError(f"u must be a unit vector, |u| = {nu}")
    uv = _round_inward(uv / nu)
    z0 = complex(np.vdot(uv, p))  # vdot conjugates its first argument
    if npv > 0.0:
        cosine = abs(z0) / npv
        if cosine < 1.0 - UNIT_TOL:
            raise InputError(
                f"u must be collinear with p (|<u, p/|p|>| = {cosine}); "
                "a non-collinear direction cannot attain equality at p"
            )
    return uv, z0


def extremal_zero_case(spec: ExtremalSpec) -> Pipeline:
    """Equality witness with f(p) = 0; |grad|f||(p) = 1 / (1 - |p|^2)."""
    if spec.case != "zero":
        raise InputError(f"spec.case must be 'zero', got {spec.case!r}")
    p, npv = _ball_point(spec.p, "p")
    u, z0 = _checked_direction(p, npv, spec.u)
    nb = _norm(spec.beta)
    if abs(nb - 1.0) > UNIT_TOL:
        raise InputError(f"beta must be a unit vector, |beta| = {nb}")
    return Pipeline([_functional(u), MobiusMap(-1.0, z0), _times(_round_inward(spec.beta / nb))])


def extremal_nonzero_case(spec: ExtremalSpec) -> Pipeline:
    """Equality witness with f(p) = a != 0;
    |grad|f||(p) = (1 - |a|^2) / (1 - |p|^2)."""
    if spec.case != "nonzero":
        raise InputError(f"spec.case must be 'nonzero', got {spec.case!r}")
    p, npv = _ball_point(spec.p, "p")
    u, z0 = _checked_direction(p, npv, spec.u)
    na = _norm(spec.a)
    if na == 0.0:
        raise InputError("a must be nonzero; use the zero case for f(p) = 0")
    if na >= 1.0:
        raise InputError(f"|a| must be < 1, got {na}")
    return Pipeline([_functional(u), MobiusMap(-1.0, z0), MobiusMap(_rotation(spec.theta), na),
                     _times(_round_inward(spec.a / na))])


@dataclass(eq=False)
class Diagnosis:
    """Result of fitting the canonical equality form along a slice.

    ``matches`` holds when the worst residual over the sampled slice points
    is within tolerance. The fitted parameter is ``fitted_beta`` in the zero
    case and ``fitted_theta`` (with ``fitted_a = f(p)``) in the nonzero case,
    where ``orthogonal_max`` additionally reports the largest component of f
    orthogonal to a/|a| seen on the samples (not judged).
    """

    matches: bool
    max_residual: float
    points_tested: int
    fitted_theta: float | None = None
    fitted_a: np.ndarray | None = None
    fitted_beta: np.ndarray | None = None
    orthogonal_max: float | None = None

    to_dict = _to_json


@functools.lru_cache(maxsize=8)
def _roots_of_unity(samples: int) -> np.ndarray:
    """``exp(2 pi i k / samples)`` for k = 0..samples-1, read-only. The default
    count's is built at import, not among a verdict's short-lived arrays,
    where this long-lived one would keep their allocator arena alive."""
    return _freeze(np.exp(2j * np.pi * np.arange(samples) / samples))


_roots_of_unity(DEFAULT_DIAGNOSE_SAMPLES)


def diagnose_equality_form(
    f: HoloMap,
    p,
    q,
    samples: int = DEFAULT_DIAGNOSE_SAMPLES,
    tol: float = DEFAULT_DIAGNOSE_TOL,
) -> Diagnosis:
    """Fit the canonical equality form to f along the line through p and q.

    Requires |equality_gap(f, p)| <= tol (the equality hypothesis) and q - p
    collinear with p; both are verified. Samples sit on the circle of radius
    0.9 r about c in the slice disk.
    """
    samples = _integer(samples, "samples", 2)
    tol = _positive_real(tol, "tol")
    pv = as_cvector(p, "p")
    qv = as_cvector(q, "q")
    if pv.shape[0] != f.n or qv.shape[0] != f.n:
        raise InputError(f"p and q must have dimension {f.n}")
    # the equality gap, f(p) and Df(p) from one pass over p
    at_p = _bound_batch(f, pv[None, :], DEFAULT_BOUND_TOL)
    gap = at_p.slack.item()
    if abs(gap) > tol:
        raise PreconditionError(
            f"equality hypothesis fails at p: |gap| = {abs(gap)} > tol = {tol}"
        )
    ds = disk_slice(pv, qv)
    if not ds.collinear:
        raise InputError("q - p must be collinear with p for a diagnosable slice")
    g = Pipeline([ds.line(), f])
    # canonical disk factor on the slice: w(z) = phi_{-c/r}((z - c)/r), from its finite constants
    canonical = Pipeline([AffineMap._of(np.array([[1.0 / ds.r]]), -ds.c / ds.r),
                          MobiusMap(-1.0, -ds.c / ds.r)])
    zs = ds.c + 0.9 * ds.r * _roots_of_unity(samples)
    W = canonical.eval_many(zs[:, None])[:, 0]
    G = g.eval_many(zs[:, None])

    fp = at_p.values[0]
    if at_p.zero[0]:
        k = int(np.argmax(np.abs(W)))
        fit = {"fitted_beta": G[k] / W[k]}
        resid = float(_row_norms(G - W[:, None] * fit["fitted_beta"][None, :]).max())
    else:
        nfp = _norm(fp)
        unit_a = fp / nfp
        h = G @ np.conj(unit_a)
        # g'(0) = Df(p) (q - p), the chain rule of g at its origin
        gprime = np.matmul(at_p.jacobians, (qv - pv)[None, :, None])[0][:, 0]
        hprime = complex(gprime @ np.conj(unit_a))
        wprime = -ds.r / ((ds.r - abs(ds.c)) * (ds.r + abs(ds.c)))
        efit = hprime / (float(_one_minus_sq(nfp)) * wprime)
        theta_fit = float(np.angle(efit))
        rot = complex(np.exp(1j * theta_fit))
        model = (nfp + rot * W) / (1.0 + nfp * rot * W)
        resid = float(np.abs(h - model).max())
        orth_sq = (np.abs(G) ** 2).sum(axis=1) - np.abs(h) ** 2
        orth = float(np.sqrt(np.maximum(orth_sq, 0.0)).max())
        fit = {"fitted_theta": theta_fit, "fitted_a": fp, "orthogonal_max": orth}
    return Diagnosis(
        matches=bool(resid <= tol), max_residual=resid, points_tested=samples, **fit
    )
