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
as an independent oracle for the closed form: one-sided difference
quotients, Richardson-extrapolated to step 0, maximized over sampled unit
directions plus the analytic maximizer candidates. The sampled directions
of a point come from ``complexcore.sphere_rows``, a counter-based
splitmix64 stream keyed by the point's seed, so a batch draws the
directions of all its points in a few array operations.

Every check runs on a ``(B, n)`` batch of points: ``sp_bound_many`` and
``mod_grad_fd_many`` evaluate the map once per batch and vectorise the
nonzero branch. Row i of a batch is bit for bit the same point checked
alone; ``mod_grad``, ``mod_grad_fd``, ``sp_bound``, ``sp_bound_slice`` and
``equality_gap`` run the same code at B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexcore import _row_norms, _seed_words, spectral_norm, sphere_rows, vector_to_pairs
from .errors import CertificationError, InputError
from .holomap import HoloMap, _as_batch

__all__ = [
    "ZERO_BRANCH_TOL",
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

DEFAULT_FD_STEPS = (1e-4, 5e-5)
DEFAULT_FD_DIRS = 64
DEFAULT_BOUND_TOL = 1e-9
# rows per eval_many call in the FD oracle: about ten points at the default
# steps and directions, which keeps the oracle's peak memory small
_FD_MAX_ROWS = 1400


@dataclass(eq=False)
class GradResult:
    """Value of |grad|f|| at a point, with the branch that produced it.

    ``A`` is present exactly on the nonzero branch, ``top_dir`` exactly on
    the zero branch: a top right-singular vector of Df(z), a maximizing unit
    direction defined up to a unit phase. ``ambiguous`` marks |f(z)|
    inside (tol/10, tol]; there the zero-branch value is reported as ``value``
    (an upper bound for the nonzero reading) and the nonzero-branch quotient
    |A|/|f(z)| as ``alt_value``.
    """

    value: float
    branch: str
    A: np.ndarray | None = None
    top_dir: np.ndarray | None = None
    ambiguous: bool = False
    alt_value: float | None = None

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "branch": self.branch,
            "A": None if self.A is None else vector_to_pairs(self.A),
            "top_dir": None if self.top_dir is None else vector_to_pairs(self.top_dir),
            "ambiguous": bool(self.ambiguous),
            "alt_value": None if self.alt_value is None else float(self.alt_value),
        }


@dataclass(eq=False)
class BoundReport:
    """One bound check: lhs = |grad|f||(z), rhs = (1-|f(z)|^2)/(1-|z|^2)."""

    point: np.ndarray
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tol: float
    branch: str

    def to_dict(self) -> dict:
        return {
            "point": vector_to_pairs(self.point),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "slack": float(self.slack),
            "holds": bool(self.holds),
            "branch": self.branch,
        }


def _contract(V: np.ndarray, J: np.ndarray) -> np.ndarray:
    """``A = conj(f(z)) . Df(z)`` per row. One vector-matrix product per row
    keeps ``A[i] == J[i].T @ conj(V[i])`` bit for bit at any batch size."""
    return np.matmul(np.conj(V)[:, None, :], J)[:, 0, :]


def _one_point(z, n: int, name: str) -> np.ndarray:
    Z = _as_batch(z, n)
    if Z.shape[0] != 1:
        raise InputError(f"{name} takes a single point")
    return Z


@dataclass(eq=False)
class _GradBatch:
    """|grad|f|| over a batch: ``value`` and ``A`` for every row, plus the
    full result of each row at or below the zero tolerance, keyed by row."""

    value: np.ndarray
    A: np.ndarray
    zero: dict

    def result(self, i: int) -> GradResult:
        g = self.zero.get(i)
        if g is None:
            g = GradResult(value=float(self.value[i]), branch="nonzero", A=self.A[i])
        return g


def _grad_many(V: np.ndarray, J: np.ndarray, nv: np.ndarray, zero_tol: float) -> _GradBatch:
    """Closed form for the batch ``f = V``, ``Df = J``, ``|f| = nv``: the
    nonzero branch vectorised, the zero and ambiguous rows in one
    ``spectral_norm`` call on their stacked Jacobians."""
    A = _contract(V, J)
    # rows at or below zero_tol/10 use only the zero branch; the floor just
    # keeps 0/0 out of their unused quotient
    value = _row_norms(A) / np.maximum(nv, zero_tol / 10.0)
    zero = {}
    rows = np.flatnonzero(nv <= zero_tol)
    if rows.size:
        sigma, top = spectral_norm(J[rows])
        for k, i in enumerate(rows.tolist()):
            g = GradResult(value=float(sigma[k]), branch="zero", top_dir=top[k])
            if nv[i] > zero_tol / 10.0:
                g.ambiguous = True
                g.alt_value = float(value[i])
            zero[i] = g
        value[rows] = sigma
    return _GradBatch(value, A, zero)


def mod_grad(f: HoloMap, z, zero_tol: float = ZERO_BRANCH_TOL) -> GradResult:
    """Closed-form |grad|f||(z) with branch selection on |f(z)|."""
    if zero_tol <= 0:
        raise InputError("zero_tol must be positive")
    V, J = f.eval_jac_many(_one_point(z, f.n, "mod_grad"))
    return _grad_many(V, J, _row_norms(V), zero_tol).result(0)


def _extrapolate_to_zero(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Neville polynomial extrapolation of ``ys`` (last axis indexed by the
    steps ``ts``) to step 0."""
    p = [ys[..., i] for i in range(ts.shape[0])]
    t = list(ts)
    for level in range(1, len(t)):
        nxt = []
        for i in range(len(t) - level):
            ti, tj = t[i], t[i + level]
            nxt.append((ti * p[i + 1] - tj * p[i]) / (ti - tj))
        p = nxt
    return p[0]


def _fd_steps(steps) -> np.ndarray:
    """The FD oracle's steps as a float array; raises unless they are
    positive and strictly decreasing."""
    ts = np.asarray(steps, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise InputError("steps must be a non-empty sequence")
    if (ts <= 0).any() or (np.diff(ts) >= 0).any():
        raise InputError("steps must be positive and strictly decreasing")
    return ts


def _fd_directions(n, dirs, seeds, A, nA, J, base) -> np.ndarray:
    """The ``(P, dirs + 2, n)`` directions of P points: per point its ``dirs``
    seeded sphere samples (``sphere_rows(n, dirs, seeds)``, drawn for all P
    points at once), then the direction conjugate to A/|A| and the top
    singular direction of the Jacobian. A point without one of those
    candidates repeats its first direction there, which leaves the maximum
    over its directions unchanged."""
    D = np.empty((len(seeds), dirs + 2, n), dtype=np.complex128)
    D[:, :dirs] = sphere_rows(n, dirs, seeds)
    D[:, dirs:] = D[:, :1]
    has_a = nA > 0
    D[has_a, dirs] = np.conj(A[has_a]) / nA[has_a, None]
    zero = np.flatnonzero(base <= ZERO_BRANCH_TOL)
    if zero.size:
        D[zero, dirs + 1] = spectral_norm(J[zero]).direction
    return D


def mod_grad_fd_many(
    f: HoloMap,
    Z,
    seeds,
    steps=DEFAULT_FD_STEPS,
    dirs: int = DEFAULT_FD_DIRS,
) -> np.ndarray:
    """``mod_grad_fd`` at every row of a ``(B, n)`` batch, row i with direction
    seed ``seeds[i]`` (a uint64 array or any iterable of integers in
    [0, 2^64)); entry i is bit for bit
    ``mod_grad_fd(f, Z[i], steps, dirs, seeds[i])``.

    The (point, direction, step) evaluations of up to ``_FD_MAX_ROWS`` rows
    go to ``f.eval_many`` together.
    """
    ts = _fd_steps(steps)
    if not isinstance(dirs, (int, np.integer)):
        raise InputError("dirs must be an integer")
    if dirs < 64:
        raise InputError("dirs must be at least 64")
    Z = _as_batch(Z, f.n)
    count = Z.shape[0]
    seeds = _seed_words(seeds)
    if len(seeds) != count:
        raise InputError(f"{len(seeds)} seeds for {count} points")

    V, J = f.eval_jac_many(Z)
    base = _row_norms(V)
    A = _contract(V, J)
    nA = _row_norms(A)
    out = np.empty(count)
    chunk = max(1, _FD_MAX_ROWS // ((dirs + 2) * ts.size))
    for lo in range(0, count, chunk):
        hi = min(count, lo + chunk)
        D = _fd_directions(f.n, dirs, seeds[lo:hi], A[lo:hi], nA[lo:hi], J[lo:hi], base[lo:hi])
        # all (point, direction, step) evaluations of the chunk in one batch
        pts = Z[lo:hi, None, None, :] + ts[None, None, :, None] * D[:, :, None, :]
        mods = _row_norms(f.eval_many(pts.reshape(-1, f.n))).reshape(D.shape[:2] + ts.shape)
        quotients = (mods - base[lo:hi, None, None]) / ts
        out[lo:hi] = _extrapolate_to_zero(ts, quotients).max(axis=1)
    return out


def mod_grad_fd(
    f: HoloMap,
    z,
    steps=DEFAULT_FD_STEPS,
    dirs: int = DEFAULT_FD_DIRS,
    seed: int = 0,
) -> float:
    """Finite-difference realization of the directional definition of
    |grad|f||(z): the maximum over unit directions of the one-sided
    difference quotient of ``|f|``, Richardson-extrapolated over ``steps``.

    Directions are ``dirs`` uniform samples of the unit sphere, the rows of
    ``sphere_rows(f.n, dirs, [seed])``, plus the analytic maximizer
    candidates: the direction conjugate to A/|A| when
    A != 0, and the top singular direction of the Jacobian when the zero
    branch is in play.
    """
    Z = _one_point(z, f.n, "mod_grad_fd")
    return float(mod_grad_fd_many(f, Z, [seed], steps, dirs)[0])


def _one_minus_sq(x):
    # compensated 1 - x^2 to keep accuracy near the boundary
    return (1.0 - x) * (1.0 + x)


def _image_norms(V: np.ndarray) -> np.ndarray:
    """|f(z)| per row; raises for the first row whose image leaves the ball."""
    nv = _row_norms(V)
    inside = nv < 1.0
    if not inside.all():
        k = int(inside.argmin())
        if not np.isfinite(V[k]).all():
            raise InputError("map value is not finite at the point")
        raise CertificationError(
            f"map value leaves the unit ball at the point, |f(z)| = {float(nv[k])}"
        )
    return nv


@dataclass(eq=False)
class _BoundBatch:
    """The bound at every row of a batch, as arrays, with the map's values and
    Jacobians there; ``zero`` marks the rows whose gradient took the zero branch."""

    points: np.ndarray
    values: np.ndarray
    jacobians: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    holds: np.ndarray
    zero: np.ndarray
    tol: float

    def reports(self, rows: np.ndarray) -> list[BoundReport]:
        """The ``BoundReport`` of each of the given rows, in their order."""
        lhs, rhs = self.lhs[rows].tolist(), self.rhs[rows].tolist()
        slack, holds = self.slack[rows].tolist(), self.holds[rows].tolist()
        zero = self.zero[rows].tolist()
        return [
            BoundReport(
                point=self.points[i],
                lhs=lhs[k],
                rhs=rhs[k],
                slack=slack[k],
                holds=holds[k],
                tol=self.tol,
                branch="zero" if zero[k] else "nonzero",
            )
            for k, i in enumerate(rows.tolist())
        ]


def _bound_batch(f: HoloMap, Z, tol: float, c: complex = 0.0, r: float = 1.0) -> _BoundBatch:
    """The array core of ``sp_bound_many`` and ``sp_bound_slice``: the bound
    ``|grad|f||(z) <= r (1 - |f(z)|^2) / (r^2 - |z - c|^2)`` on the ball
    |z - c| < r; the unit ball is c = 0, r = 1."""
    if tol <= 0:
        raise InputError("tol must be positive")
    Z = _as_batch(Z, f.n)
    dist = _row_norms(Z - c)
    outside = dist >= r
    if outside.any():
        k = int(outside.argmax())
        if k:
            _image_norms(f.eval_many(Z[:k]))
        raise InputError(
            f"point must lie strictly inside |z - c| < r = {r}, c = {c}: |z - c| = {float(dist[k])}"
        )
    V, J = f.eval_jac_many(Z)
    nv = _image_norms(V)
    g = _grad_many(V, J, nv, ZERO_BRANCH_TOL)
    rhs = r * _one_minus_sq(nv) / ((r - dist) * (r + dist))
    slack = rhs - g.value
    zero = np.zeros(Z.shape[0], dtype=bool)
    zero[list(g.zero)] = True
    return _BoundBatch(Z.copy(), V, J, g.value, rhs, slack, slack >= -tol, zero, float(tol))


def sp_bound_many(f: HoloMap, Z, tol: float = DEFAULT_BOUND_TOL) -> list[BoundReport]:
    """Check the bound at every row of a ``(B, n)`` batch; report i is bit for
    bit ``sp_bound(f, Z[i], tol)``. A row outside the ball, or one whose
    image leaves it, raises what ``sp_bound`` raises for the first such row."""
    b = _bound_batch(f, Z, tol)
    return b.reports(np.arange(b.lhs.shape[0]))


def sp_bound(f: HoloMap, z, tol: float = DEFAULT_BOUND_TOL) -> BoundReport:
    """Check the bound |grad|f||(z) <= (1 - |f(z)|^2) / (1 - |z|^2)."""
    return sp_bound_many(f, _one_point(z, f.n, "sp_bound"), tol)[0]


def sp_bound_slice(g: HoloMap, xi, c, r: float, tol: float = DEFAULT_BOUND_TOL) -> BoundReport:
    """Check the scaled bound |grad|g||(xi) <= r (1 - |g(xi)|^2) / (r^2 - |xi - c|^2)
    for ``g`` holomorphic on the disk D(c, r) into the unit ball.

    With c = 0, r = 1 this is exactly ``sp_bound`` on the unit disk.
    """
    if g.n != 1:
        raise InputError("sp_bound_slice expects a map of one complex variable")
    c, r = complex(c), float(r)
    if not np.isfinite(c):
        raise InputError("c must be finite")
    if not np.isfinite(r) or r <= 0:
        raise InputError("r must be a positive real")
    b = _bound_batch(g, _one_point(xi, 1, "sp_bound_slice"), tol, c, r)
    return b.reports(np.arange(1))[0]


def equality_gap(f: HoloMap, p) -> float:
    """Slack of the bound at p; zero exactly on the equality cases."""
    return sp_bound(f, p).slack
