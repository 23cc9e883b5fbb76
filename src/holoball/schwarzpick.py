"""Gradient of the modulus of a holomorphic ball map and its sharp bound.

For holomorphic ``f`` from the unit ball of C^n into the unit ball of C^m,
the gradient of ``|f|`` (defined directionally as the supremum over unit
directions beta of the one-sided derivative of ``t -> |f(z + t beta)|``)
has the closed form

    |grad|f||(z) = |A| / |f(z)|          if f(z) != 0,
                   sigma_max(Df(z))      if f(z) == 0,

where ``A_j = herm_inner(df/dz_j, f(z))``. It satisfies the sharp
Schwarz-Pick-type bound

    |grad|f||(z) <= (1 - |f(z)|^2) / (1 - |z|^2),

which survives vector-valued targets where the classical bound on
``|f'(z)|`` fails (witness ``f(z) = (z, 1)/sqrt(2)`` at 0). On a disk
D(c, r) the bound scales to ``r (1 - |g|^2) / (r^2 - |z - c|^2)``.

``mod_grad_fd`` realizes the directional definition numerically and serves
as an independent oracle for the closed form; off the zero set it reads
values of f alone. There |f| is differentiable, so the supremum is the norm
of its real gradient in R^{2n}: central differences of |f| along the 2n
real axes ``e_j`` and ``i e_j`` at the two steps ``FD_STEPS``,
Richardson-extrapolated to step 0, 8n values of f per point. On and near
the zero set |f| has a cone; there the oracle takes the largest one-sided
difference quotient, extrapolated the same way, over sampled unit
directions plus the top singular direction of Df. The sampled directions
of a point come from ``complexcore.sphere_rows``, a counter-based
splitmix64 stream keyed by the point's seed, so a batch draws the
directions of all its points in a few array operations. Both readings
take their values of |f| from one loop, ``_fd_moduli``, and differ only in
how they combine them. |f| at the points themselves is an argument of the
oracle's core, so a campaign passes the norms its bound check computed.

Every check runs on a ``(B, n)`` batch of points: ``sp_bound_many`` and
``mod_grad_fd_many`` evaluate the map once per batch and vectorise the
nonzero branch. Row i of a batch is bit for bit the same point checked
alone; ``mod_grad``, ``mod_grad_fd``, ``sp_bound``, ``sp_bound_slice`` and
``equality_gap`` run the same code at B = 1. Each public entry validates
its points once; the cores below it take the validated batch and call the
map's kernels ``_value`` and ``_value_jac`` directly. The closed-form core
``_grad_many`` returns arrays, and ``mod_grad`` is the one place that
builds a ``GradResult`` from them.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

from .complexcore import (_as_complex, _integer, _positive_real, _row_norms, _seed_words,
                          _to_json, spectral_norm, sphere_rows)
from .errors import CertificationError, InputError
from .holomap import HoloMap, _as_batch, _freeze, _one_point, _sum_terms

__all__ = [
    "ZERO_BRANCH_TOL",
    "FD_STEPS",
    "GradResult",
    "BoundReport",
    "mod_grad",
    "mod_grad_fd",
    "mod_grad_fd_many",
    "sp_bound",
    "sp_bound_many",
    "sp_bound_slice",
    "equality_gap",
]

# |f(z)| at or below this is treated as a zero of f; the decade just below it
# is reported as ambiguous
ZERO_BRANCH_TOL = 1e-13
# it, the floor of |f| in the nonzero quotient, 1 and the unit ball's centre as
# 0-d arrays, which numpy does not convert on every call as it does a Python float
_ZERO_TOL, _FLOOR, _UNIT, _ORIGIN = map(
    _freeze, map(np.array, (ZERO_BRANCH_TOL, ZERO_BRANCH_TOL / 10.0, 1.0, 0.0)))

# the FD oracle's two steps; its quotients are extrapolated to step 0 from them
FD_STEPS = (1e-4, 5e-5)
_FD_TS = _freeze(np.array(FD_STEPS))
DEFAULT_FD_DIRS = 64
DEFAULT_BOUND_TOL = 1e-9
# rows per kernel call in the FD oracle, which keeps its peak memory small:
# 1600 // (8n) points off the zero set (100 at n = 2, a default trial in one
# call), and 1600 // (2 (dirs + 1)) on it (12 at the default directions)
_FD_MAX_ROWS = 1600


@dataclass(eq=False)
class GradResult:
    """Value of |grad|f|| at a point, with the branch that produced it.

    ``A`` is present exactly on the nonzero branch, ``top_dir`` exactly on
    the zero branch: a top right-singular vector of Df(z), a maximizing unit
    direction defined up to a unit phase. ``ambiguous`` marks |f(z)| inside
    (ZERO_BRANCH_TOL/10, ZERO_BRANCH_TOL]; there the zero-branch value is
    reported as ``value`` (an upper bound for the nonzero reading) and the
    nonzero-branch quotient |A|/|f(z)| as ``alt_value``.
    """

    value: float
    branch: str
    A: np.ndarray | None = None
    top_dir: np.ndarray | None = None
    ambiguous: bool = False
    alt_value: float | None = None

    to_dict = _to_json


@dataclass(eq=False)
class BoundReport:
    """One bound check: lhs = |grad|f||(z), rhs = (1-|f(z)|^2)/(1-|z|^2)."""

    point: np.ndarray
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tol: float = field(metadata={"json": False})
    branch: str

    to_dict = _to_json


def _contract(V: np.ndarray, J: np.ndarray) -> np.ndarray:
    """``A = conj(f(z)) . Df(z)`` per row, by ``_sum_terms``."""
    return _sum_terms(np.conj(V), J)


def _grad_many(V: np.ndarray, J: np.ndarray, nv: np.ndarray):
    """Closed form for the batch ``f = V``, ``Df = J``, ``|f| = nv``, as
    arrays ``(A, quotient, value, zero, top)``: ``A = conj(f) . Df`` and the
    nonzero-branch quotient |A|/|f| of every row, vectorised; the value of
    every row; the mask of the rows at or below ``ZERO_BRANCH_TOL``, whose
    value is sigma_max(Df) from one ``spectral_norm`` call on their stacked
    Jacobians; and ``top``, the top singular direction on those rows and 0
    elsewhere (None when no row is a zero row, and ``value`` is then
    ``quotient`` itself). A Jacobian that is not finite is refused."""
    A = _contract(V, _all_finite(J, "derivative"))
    # rows at or below ZERO_BRANCH_TOL/10 use only the zero branch; the
    # floor just keeps 0/0 out of their unused quotient
    quotient = _row_norms(A) / np.maximum(nv, _FLOOR)
    value = quotient
    zero = nv <= _ZERO_TOL
    top = None
    if np.logical_or.reduce(zero, axis=None):
        value = quotient.copy()
        top = np.zeros((J.shape[0], J.shape[2]), dtype=np.complex128)
        value[zero], top[zero] = spectral_norm(J[zero])
    return A, quotient, value, zero, top


def _all_finite(A: np.ndarray, what: str = "value") -> np.ndarray:
    """``A``, values or derivatives of f; raises when an entry is not finite."""
    if np.count_nonzero(np.isfinite(A)) != A.size:
        raise InputError(f"map {what} is not finite at the point")
    return A


def mod_grad(f: HoloMap, z) -> GradResult:
    """Closed-form |grad|f||(z) with branch selection on |f(z)| against
    ``ZERO_BRANCH_TOL``; a value of f or an entry of Df that is not finite
    is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        V, J = f._value_jac(_one_point(z, f.n, "mod_grad"))
    nv = _row_norms(_all_finite(V))
    A, quotient, value, zero, top = _grad_many(V, J, nv)
    if not zero[0]:
        return GradResult(value=float(value[0]), branch="nonzero", A=A[0])
    ambiguous = bool(nv[0] > ZERO_BRANCH_TOL / 10.0)
    return GradResult(
        value=float(value[0]),
        branch="zero",
        top_dir=top[0],
        ambiguous=ambiguous,
        alt_value=float(quotient[0]) if ambiguous else None,
    )


def _fd_moduli(f: HoloMap, Z: np.ndarray, D: np.ndarray) -> np.ndarray:
    """|f(z + t d)| at every row z of ``Z``, each unit direction d and each
    step t of ``FD_STEPS``, shape ``(B, k, 2)``: the ``(k, n)`` directions
    ``D`` serve every row, a ``(B, k, n)`` stack gives row i the block
    ``D[i]``. The steps ``t d`` are formed once, so a chunk of rows is one
    broadcast sum ``z + t d``; the evaluations go to ``f._value``, up to
    ``_FD_MAX_ROWS`` rows per call."""
    count, n = Z.shape
    k = D.shape[-2]
    steps = _FD_TS[:, None] * D[..., None, :]
    out = np.empty((count, k, _FD_TS.size))
    chunk = max(1, _FD_MAX_ROWS // (k * _FD_TS.size))
    for lo in range(0, count, chunk):
        hi = min(count, lo + chunk)
        pts = Z[lo:hi, None, None, :] + (steps if D.ndim == 2 else steps[lo:hi])
        out[lo:hi] = _row_norms(f._value(pts.reshape(-1, n))).reshape(hi - lo, k, _FD_TS.size)
    return out


@functools.lru_cache(maxsize=None)
def _axis_table(n: int) -> np.ndarray:
    """The oracle's ``(4n, n)`` directions off the zero set, read-only: the
    real axes ``e_j``, then ``i e_j``, then their negatives."""
    axes = np.concatenate([np.eye(n), 1j * np.eye(n)])
    return _freeze(np.concatenate([axes, -axes]))


def _fd_axes(f: HoloMap, Z: np.ndarray) -> np.ndarray:
    """|grad|f|| off the zero set, as the norm of the real gradient of |f| in
    R^{2n}: component k is the central difference of |f| along the real axis
    ``e_k`` (k < n) or ``i e_{k-n}``, taken at both ``FD_STEPS`` and
    Richardson-extrapolated to step 0, from 8n values of f per point."""
    n = Z.shape[1]
    t0, t1 = FD_STEPS
    mods = _fd_moduli(f, Z, _axis_table(n))
    d = (mods[:, : 2 * n] - mods[:, 2 * n :]) / (2.0 * _FD_TS)
    # Richardson extrapolation of the two central differences to step 0
    return _row_norms((t0 * t0 * d[..., 1] - t1 * t1 * d[..., 0]) / (t0 * t0 - t1 * t1))


def _fd_sampled(
    f: HoloMap, Z: np.ndarray, seeds: np.ndarray, base: np.ndarray, dirs: int
) -> np.ndarray:
    """|grad|f|| on and near the zero set, where |f| has a cone: the largest
    one-sided difference quotient of |f| at both ``FD_STEPS``,
    Richardson-extrapolated to step 0, over each point's ``dirs`` seeded
    sphere samples (``sphere_rows(n, dirs, seeds)``) and the top singular
    direction of its Jacobian. ``base`` is |f| at the points."""
    t0, t1 = FD_STEPS
    with np.errstate(over="ignore", invalid="ignore"):
        J = f._value_jac(Z)[1]
    top = spectral_norm(_all_finite(J, "derivative")).direction
    D = np.concatenate([sphere_rows(Z.shape[1], dirs, seeds), top[:, None, :]], axis=1)
    q = (_fd_moduli(f, Z, D) - base[:, None, None]) / _FD_TS
    # Richardson extrapolation of the two quotients to step 0
    return ((t0 * q[..., 1] - t1 * q[..., 0]) / (t0 - t1)).max(axis=1)


def _fd_many(f: HoloMap, Z: np.ndarray, base: np.ndarray, seeds, dirs) -> np.ndarray:
    """The core of the FD oracle, on a finite ``(B, n)`` batch its caller has
    validated, with ``base``, |f| at its rows: its two entries take it from
    ``_value_norms``, a campaign from its bound core. The oracle's rows
    ``z + t d`` with finite z and unit d are finite, and go to the map's
    kernels directly."""
    dirs = _integer(dirs, "dirs", 64)
    count = Z.shape[0]
    seeds = _seed_words(seeds)
    if len(seeds) != count:
        raise InputError(f"{len(seeds)} seeds for {count} points")

    out = np.empty(count)
    zero = base <= ZERO_BRANCH_TOL
    rows = np.flatnonzero(~zero)
    if rows.size:
        out[rows] = _fd_axes(f, Z[rows])
    rows = np.flatnonzero(zero)
    if rows.size:
        out[rows] = _fd_sampled(f, Z[rows], seeds[rows], base[rows], dirs)
    return out


def _value_norms(f: HoloMap, Z: np.ndarray) -> np.ndarray:
    """|f| at every row of a validated batch; a value that is not finite is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        V = f._value(Z)
    return _row_norms(_all_finite(V))


def mod_grad_fd_many(f: HoloMap, Z, seeds, dirs: int = DEFAULT_FD_DIRS) -> np.ndarray:
    """``mod_grad_fd`` at every row of a ``(B, n)`` batch, row i with direction
    seed ``seeds[i]`` (a uint64 array or any iterable of integers in
    [0, 2^64)); entry i is bit for bit ``mod_grad_fd(f, Z[i], dirs, seeds[i])``."""
    Z = _as_batch(Z, f.n)
    return _fd_many(f, Z, _value_norms(f, Z), seeds, dirs)


def mod_grad_fd(f: HoloMap, z, dirs: int = DEFAULT_FD_DIRS, seed: int = 0) -> float:
    """Finite-difference realization of the directional definition of
    |grad|f||(z), the supremum over unit directions of the one-sided
    derivative of ``|f|``.

    Where |f(z)| > ``ZERO_BRANCH_TOL``, |f| is differentiable and the
    supremum is the norm of its real gradient in R^{2n}: central differences
    along the 2n real axes ``e_j`` and ``i e_j`` at the steps ``FD_STEPS``,
    Richardson-extrapolated to step 0, from values of f alone. At or below
    the tolerance, it is the maximum of the one-sided quotients,
    extrapolated the same way, over ``dirs`` uniform samples of the unit
    sphere (the rows of ``sphere_rows(f.n, dirs, [seed])``) and the top
    singular direction of the Jacobian; ``seed`` keys only those samples.
    """
    Z = _one_point(z, f.n, "mod_grad_fd")
    return float(_fd_many(f, Z, _value_norms(f, Z), [seed], dirs)[0])


def _one_minus_sq(x):
    # compensated 1 - x^2 to keep accuracy near the boundary
    return (_UNIT - x) * (_UNIT + x)


def _image_norms(V: np.ndarray) -> np.ndarray:
    """|f(z)| per row; raises for the first row whose image leaves the ball."""
    nv = _row_norms(V)
    inside = nv < _UNIT
    if not np.logical_and.reduce(inside, axis=None):
        k = int(inside.argmin())
        _all_finite(V[k])
        raise CertificationError("map value leaves the unit ball at the point, "
                                 f"|f(z)| = {float(nv[k])}")
    return nv


@dataclass(eq=False)
class _BoundBatch:
    """The bound at every row of a batch, as arrays, with the map's values,
    their norms |f| and its Jacobians there; ``zero`` marks the rows whose
    gradient took the zero branch."""

    points: np.ndarray
    values: np.ndarray
    norms: np.ndarray
    jacobians: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    holds: np.ndarray
    zero: np.ndarray
    tol: float

    def reports(self, rows) -> list[BoundReport]:
        """The ``BoundReport`` of each row index in ``rows``, in their order."""
        lhs, rhs, slack = self.lhs.tolist(), self.rhs.tolist(), self.slack.tolist()
        holds, zero = self.holds.tolist(), self.zero.tolist()
        return [
            BoundReport(
                point=self.points[i],
                lhs=lhs[i],
                rhs=rhs[i],
                slack=slack[i],
                holds=holds[i],
                tol=self.tol,
                branch="zero" if zero[i] else "nonzero",
            )
            for i in rows
        ]


def _bound_batch(f: HoloMap, Z, tol: float, c=_ORIGIN, r=_UNIT) -> _BoundBatch:
    """The array core of the bound checks: the bound
    ``|grad|f||(z) <= r (1 - |f(z)|^2) / (r^2 - |z - c|^2)`` on the ball
    |z - c| < r (the unit ball is c = 0, r = 1) at every row of ``Z``, a
    finite ``(B, n)`` complex batch its caller has validated."""
    tol = _positive_real(tol, "tol")
    dist = _row_norms(Z - c)
    outside = dist >= r
    if np.logical_or.reduce(outside, axis=None):
        k = int(outside.argmax())
        if k:
            with np.errstate(over="ignore", invalid="ignore"):
                V = f._value(Z[:k])
            _image_norms(V)
        raise InputError(
            f"point must lie strictly inside |z - c| < r = {r}, c = {c}: |z - c| = {float(dist[k])}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        V, J = f._value_jac(Z)
    nv = _image_norms(V)
    _, _, lhs, zero, _ = _grad_many(V, J, nv)
    rhs = r * _one_minus_sq(nv) / ((r - dist) * (r + dist))
    slack = rhs - lhs
    return _BoundBatch(Z.copy(), V, nv, J, lhs, rhs, slack, slack >= -tol, zero, tol)


def sp_bound_many(f: HoloMap, Z, tol: float = DEFAULT_BOUND_TOL) -> list[BoundReport]:
    """Check the bound at every row of a ``(B, n)`` batch; report i is bit for
    bit ``sp_bound(f, Z[i], tol)``. A row outside the ball, or one whose
    image leaves it, raises what ``sp_bound`` raises for the first such row."""
    b = _bound_batch(f, _as_batch(Z, f.n), tol)
    return b.reports(range(b.lhs.shape[0]))


def sp_bound(f: HoloMap, z, tol: float = DEFAULT_BOUND_TOL) -> BoundReport:
    """Check the bound |grad|f||(z) <= (1 - |f(z)|^2) / (1 - |z|^2)."""
    return _bound_batch(f, _one_point(z, f.n, "sp_bound"), tol).reports([0])[0]


def sp_bound_slice(g: HoloMap, xi, c, r: float, tol: float = DEFAULT_BOUND_TOL) -> BoundReport:
    """Check the scaled bound |grad|g||(xi) <= r (1 - |g(xi)|^2) / (r^2 - |xi - c|^2)
    for ``g`` holomorphic on the disk D(c, r) into the unit ball.

    With c = 0, r = 1 this is exactly ``sp_bound`` on the unit disk.
    """
    if g.n != 1:
        raise InputError("sp_bound_slice expects a map of one complex variable")
    c = _as_complex(c)
    if not cmath.isfinite(c):
        raise InputError("c must be a finite complex number")
    r = _positive_real(r, "r")
    b = _bound_batch(g, _one_point(xi, 1, "sp_bound_slice"), tol, c, r)
    return b.reports([0])[0]


def equality_gap(f: HoloMap, p) -> float:
    """Slack of the bound at p; zero exactly on the equality cases."""
    return sp_bound(f, p).slack
