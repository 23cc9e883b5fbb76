"""Complex vector and matrix primitives.

Conventions used throughout the package:

* The Hermitian inner product ``herm_inner(x, y) = sum_j x_j * conj(y_j)`` is
  linear in its first argument and conjugate-linear in the second.
* Complex vectors are 1-D ``complex128`` arrays, matrices 2-D. Serialized
  complex scalars are ``[re, im]`` pairs; vectors are lists of pairs.
* No NaN or Inf is admitted into any public operation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "as_cvector",
    "as_cmatrix",
    "herm_inner",
    "vnorm",
    "SpectralPair",
    "spectral_norm",
    "sample_unit_sphere",
    "complex_to_pair",
    "pair_to_complex",
    "vector_to_pairs",
    "pairs_to_vector",
]

_RESTART_SEED = 0x5EED


def as_cvector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1 or a.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D complex array")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def as_cmatrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    a = np.asarray(M, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise InputError(f"{name} must be a non-empty 2-D complex array")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def herm_inner(x, y) -> complex:
    """Hermitian inner product, linear in ``x`` and conjugate-linear in ``y``."""
    xv = as_cvector(x, "x")
    yv = as_cvector(y, "y")
    if xv.shape != yv.shape:
        raise InputError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    # vdot conjugates its first argument
    return complex(np.vdot(yv, xv))


def vnorm(x) -> float:
    """Euclidean norm of a complex vector."""
    xv = as_cvector(x, "x")
    return float(np.sqrt((np.abs(xv) ** 2).sum()))


class SpectralPair(NamedTuple):
    value: float
    direction: np.ndarray


def _power_run(H: np.ndarray, v0: np.ndarray, tol: float, max_iter: int, scale: float):
    v = v0 / np.sqrt((np.abs(v0) ** 2).sum())
    lam = 0.0
    for _ in range(max_iter):
        w = H @ v
        lam = float(np.real(np.vdot(v, w)))
        resid = w - lam * v
        if float(np.sqrt((np.abs(resid) ** 2).sum())) <= tol * scale:
            return lam, v, True
        nw = float(np.sqrt((np.abs(w) ** 2).sum()))
        if nw == 0.0:
            # v lies in the null space; stationary at eigenvalue 0
            return 0.0, v, True
        v = w / nw
    return lam, v, False


def spectral_norm(M, tol: float = 1e-12, max_iter: int = 10_000) -> SpectralPair:
    """Largest singular value of ``M`` with an attaining unit direction.

    Power iteration on the Hermitian product ``M^H M``, started from the
    all-ones vector, with one seeded random restart so a start vector that is
    orthogonal to the top singular space cannot go unnoticed. Returns
    ``(sigma, direction)`` where ``direction`` is a unit top right-singular
    vector; ``M @ direction`` attains the norm.
    """
    A = as_cmatrix(M, "M")
    if tol <= 0:
        raise InputError("tol must be positive")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")
    n = A.shape[1]
    H = A.conj().T @ A
    scale = float(np.sqrt((np.abs(H) ** 2).sum()))
    if scale == 0.0:
        e0 = np.zeros(n, dtype=np.complex128)
        e0[0] = 1.0
        return SpectralPair(0.0, e0)

    rng = np.random.default_rng(_RESTART_SEED)
    r0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    runs = [
        _power_run(H, np.ones(n, dtype=np.complex128), tol, max_iter, scale),
        _power_run(H, r0, tol, max_iter, scale),
    ]
    runs.sort(key=lambda t: t[0], reverse=True)
    best_lam, best_v, best_ok = runs[0]
    if not best_ok:
        # accept a converged run whose Rayleigh quotient is within tolerance of the best
        for lam, v, ok in runs[1:]:
            if ok and lam >= best_lam - tol * scale:
                best_lam, best_v, best_ok = lam, v, ok
                break
    if not best_ok:
        raise NumericalError(
            f"power iteration did not converge within {max_iter} iterations",
            value=float(np.sqrt(max(best_lam, 0.0))),
            witness=best_v,
        )
    return SpectralPair(float(np.sqrt(max(best_lam, 0.0))), best_v)


def _gaussian_rows(n: int, count: int, seed: int):
    """A generator seeded with ``seed`` and the first ``count`` standard
    complex Gaussian rows of length n it draws; the draws behind
    ``sample_unit_sphere``."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError("seed must be a non-negative integer")
    rng = np.random.default_rng(int(seed))
    return rng, rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def sample_unit_sphere(n: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points uniformly on the unit sphere of C^n.

    Standard complex Gaussians normalized to unit length; deterministic for a
    given seed. Returns an array of shape ``(count, n)``.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError("n must be a positive integer")
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise InputError("count must be a positive integer")
    rng, z = _gaussian_rows(n, count, seed)
    norms = np.sqrt((np.abs(z) ** 2).sum(axis=1))
    # redraw the (measure-zero) rows that are too short to normalize stably
    while (norms < 1e-12).any():
        bad = norms < 1e-12
        k = int(bad.sum())
        z[bad] = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        norms = np.sqrt((np.abs(z) ** 2).sum(axis=1))
    return z / norms[:, None]


def complex_to_pair(z) -> list:
    """Serialize one complex scalar as ``[re, im]``."""
    zc = complex(z)
    return [float(zc.real), float(zc.imag)]


def pair_to_complex(v) -> complex:
    return complex(float(v[0]), float(v[1]))


def vector_to_pairs(x) -> list:
    """Serialize a complex vector as a list of ``[re, im]`` pairs."""
    return [complex_to_pair(z) for z in as_cvector(x)]


def pairs_to_vector(pairs) -> np.ndarray:
    return as_cvector([pair_to_complex(p) for p in pairs])
