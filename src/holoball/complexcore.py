"""Complex vector and matrix primitives.

Conventions used throughout the package:

* The Hermitian inner product ``herm_inner(x, y) = sum_j x_j * conj(y_j)`` is
  linear in its first argument and conjugate-linear in the second.
* Complex vectors are 1-D ``complex128`` arrays, matrices 2-D. Serialized
  complex scalars are ``[re, im]`` pairs; vectors are lists of pairs.
* No NaN or Inf is admitted into any public operation.
* An integer argument is a Python or numpy integer; a real argument is one
  of those or a Python or numpy float. A ``bool`` is neither, and a string
  is never parsed. A complex argument is a real or a Python or numpy
  complex, and so is each entry of a complex array argument. ``_is_int``,
  ``_is_real``, ``_as_float`` and ``_as_complex`` below, and the checks
  built on them, are the one home of these rules. ``_integer``, the one
  integer-range check, judges each integer argument; ``_carray``, the array
  gate, judges each complex array argument: it reads the array by
  ``_as_carray``, checks its shape, and refuses an entry that is not a
  finite number. Their ``InputError`` has a ``field`` only when a map
  constructor asks for one.
* A result's ``to_dict`` is ``_to_json`` of it: a dataclass is written as an
  object of its fields in declaration order, less those marked
  ``metadata={"json": False}``; complex values are written as above, and
  numpy scalars as Python scalars.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import InputError

__all__ = [
    "as_cvector",
    "herm_inner",
    "vnorm",
    "SpectralPair",
    "spectral_norm",
    "sample_unit_sphere",
    "sphere_rows",
    "complex_to_pair",
    "vector_to_pairs",
]


def _is_int(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; a ``bool`` is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """Whether ``v`` is a Python or numpy integer or float; a ``bool`` is not."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _as_float(v) -> float:
    """``v`` as a float: NaN unless it is a real, and +-inf for an int past
    the float range."""
    if not _is_real(v):
        return math.nan
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _as_complex(v) -> complex:
    """``v`` as a complex: ``_as_float`` of a real, NaN unless it is a real
    or a Python or numpy complex."""
    if isinstance(v, (complex, np.complexfloating)):
        return complex(v)
    return complex(_as_float(v))


def _as_carray(x) -> np.ndarray:
    """A caller's array argument as a complex128 array of ``_as_complex`` of
    each entry, so that an entry that is not a number reads as NaN: a
    numeric array whole, a complex128 one as it is, and any other entry by
    entry. Sub-arrays of unequal shapes read as one NaN."""
    if type(x) is np.ndarray:  # a subclass (np.matrix) reads entry by entry, as a base array
        if x.dtype == np.complex128:
            return x
        if x.dtype.kind in "iufc":
            return x.astype(np.complex128)
    try:
        a = np.asarray(x, dtype=object)
    except ValueError:  # sub-arrays of unequal shapes
        return np.array(complex(math.nan, 0.0))
    return np.array([_as_complex(v) for v in a.reshape(-1).tolist()], np.complex128).reshape(a.shape)


def _positive_real(v, name: str) -> float:
    """``v`` as a float; raises unless it is a real in (0, inf)."""
    x = _as_float(v)
    if not 0.0 < x < math.inf:
        raise InputError(f"{name} must be a positive real")
    return x


def _unit_interval(v, name: str) -> None:
    """Raises unless ``v`` is a real in (0, 1)."""
    if not 0.0 < _as_float(v) < 1.0:
        raise InputError(f"{name} must lie in (0, 1)")


# how the integer check spells a lower bound
_AT_LEAST = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def _integer(v, name: str, lo: int | None = None, hi: int | None = None, *,
             field: bool = False) -> int:
    """``v`` as an int; raises ``InputError`` unless it is an integer in
    ``[lo, hi)``, a bound of None being no bound. With ``field``, the
    error's ``field`` is ``name``."""
    if type(v) is not int:  # a Python int, the common case, skips the type tests
        v = int(v) if _is_int(v) else None
    if v is None or lo is not None and v < lo:
        raise InputError(f"{name} must be {_AT_LEAST.get(lo, f'an integer >= {lo}')}",
                         field=name if field else None)
    if hi is not None and v >= hi:
        raise InputError(f"{name} = {v} is too large", field=name if field else None)
    return v


def _carray(x, name: str, what: str = "", ok=None, *, field: bool = False) -> np.ndarray:
    """The array gate: ``_as_carray`` of a caller's array argument ``x``.
    Raises ``InputError`` when ``ok`` is given and fails on the array
    (``name`` must be ``what``), or when an entry is not a finite number;
    with ``field``, the error's ``field`` is ``name``."""
    a = _as_carray(x)
    if ok is not None and not ok(a):
        raise InputError(f"{name} must be {what}", field=name if field else None)
    # count_nonzero is a Python dispatcher too in numpy 2, but at about half
    # the cost of .all() on a short vector
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise InputError(f"an entry of {name} is not a finite number",
                         field=name if field else None)
    return a


def as_cvector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D complex128 array; a number is a vector of one."""
    a = _carray(x, name, "a non-empty 1-D complex array", lambda a: a.ndim < 2 and a.size > 0)
    return a.reshape(1) if a.ndim == 0 else a


def herm_inner(x, y) -> complex:
    """Hermitian inner product, linear in ``x`` and conjugate-linear in ``y``."""
    xv = as_cvector(x, "x")
    yv = as_cvector(y, "y")
    if xv.shape != yv.shape:
        raise InputError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    # vdot conjugates its first argument
    return complex(np.vdot(yv, xv))


# below this no square of an entry, nor a sum of fewer than 2^20, overflows;
# a vector with an entry at or above _ROOT_TINY has a normal sum of squares
_SQUARE_SAFE = 2.0**500
_ROOT_TINY = 2.0**-500
_TINY = np.finfo(np.float64).tiny


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D complex batch, the one norm
    routine of the package: a finite row whose sum of squares leaves the
    normal range is scaled exactly, by a power of two, first; every other row
    is ``sqrt(sum |x_j|^2)`` as it stands. A single row whose largest entry
    lies in ``[_ROOT_TINY, _SQUARE_SAFE)`` has a normal sum, so it takes the
    plain formula after one range test."""
    a = np.abs(X)
    # ufunc reductions: the ndarray methods add a Python call each
    top = np.maximum.reduce(a, axis=None, initial=0.0)
    if a.shape[0] == 1 and _ROOT_TINY <= top < _SQUARE_SAFE:
        return np.sqrt(np.add.reduce(a * a, axis=1))
    if top < _SQUARE_SAFE:
        # below 8 terms numpy's row sum adds left to right; a column loop
        # gives the same bits for a fraction of the cost on long batches
        q = a * a
        many_short = q.shape[0] >= 64 and q.shape[1] < 8
        s = functools.reduce(np.add, q.T) if many_short else np.add.reduce(q, axis=1)
        # rows below the normal range need rescaling unless they are zero
        if np.minimum.reduce(s, initial=_TINY) >= _TINY or not a[s < _TINY].any():
            return np.sqrt(s)
    with np.errstate(over="ignore"):
        s = np.add.reduce(a * a, axis=1)
        e = np.frexp(np.maximum.reduce(a, axis=1, initial=0.0))[1][:, None]
        t = np.ldexp(a, -e)
        scaled = np.ldexp(np.sqrt(np.add.reduce(t * t, axis=1)), e[:, 0])
    return np.where((s >= _TINY) & (s < np.inf), np.sqrt(s), scaled)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a finite 1-D complex128 vector: ``_row_norms`` of it
    as one row."""
    return float(_row_norms(v[None])[0])


def vnorm(x) -> float:
    """Euclidean norm of a complex vector: ``_norm`` of it once validated,
    so ``vnorm(x) == _row_norms(x[None])[0]`` bit for bit."""
    return _norm(as_cvector(x, "x"))


class SpectralPair(NamedTuple):
    value: float | np.ndarray
    direction: np.ndarray


def spectral_norm(M) -> SpectralPair:
    """Largest singular value of ``M`` with an attaining unit direction.

    ``M`` is one ``(m, n)`` matrix or a ``(k, m, n)`` stack; a 2-D input is
    the k = 1 view of the stack. One ``np.linalg.svd`` call (LAPACK's
    bidiagonal SVD, run once per matrix) gives ``sigma = s[..., 0]`` and the
    direction ``conj(vh[..., 0, :])``, a unit top right-singular vector, so
    ``M @ direction`` attains the norm. The direction is defined up to a unit
    phase, and when the top singular value is repeated, up to a unit vector
    of its singular space. A zero matrix gives sigma = 0 and e0. A stack
    gives a float array of sigmas and a ``(k, n)`` array of directions; row
    i of a stack equals the 2-D call on ``M[i]``.
    """
    A = _carray(M, "M", "a non-empty 2-D complex array or a stack of them",
                lambda a: a.ndim in (2, 3) and a.size > 0)
    _, s, vh = np.linalg.svd(A if A.ndim == 3 else A[None], full_matrices=False)
    sigma = s[:, 0]
    direction = np.conj(vh[:, 0, :])
    if not sigma.all():
        direction[sigma == 0.0] = np.eye(1, A.shape[-1], dtype=np.complex128)
    if A.ndim == 2:
        return SpectralPair(float(sigma[0]), direction[0])
    return SpectralPair(sigma, direction)


def sample_unit_sphere(n: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points uniformly on the unit sphere of C^n.

    Standard complex Gaussians normalized to unit length; deterministic for a
    given seed. Returns an array of shape ``(count, n)``.
    """
    n, count = _integer(n, "n", 1), _integer(count, "count", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    norms = _row_norms(z)
    # redraw the (measure-zero) rows that are too short to normalize stably
    while (bad := norms < 1e-12).any():
        k = int(bad.sum())
        z[bad] = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        norms = _row_norms(z)
    return z / norms[:, None]


# splitmix64 constants (Steele, Lea and Flood, OOPSLA 2014); uint64 scalars,
# because a Python int mixed into uint64 arithmetic promotes to float64
# before numpy 2
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S12, _S27, _S30, _S31 = (np.uint64(s) for s in (12, 27, 30, 31))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 output function of each word of a uint64 array."""
    x = (x ^ (x >> _S30)) * _MIX1
    x = (x ^ (x >> _S27)) * _MIX2
    return x ^ (x >> _S31)


def _seed_words(seeds) -> np.ndarray:
    """Seeds as a 1-D uint64 array; each must be an integer in [0, 2^64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1:
        return seeds
    return np.array([_integer(s, "seed", 0, 2**64) for s in seeds], dtype=np.uint64)


def _stream_words(seeds: np.ndarray, k: int) -> np.ndarray:
    """Words 0..k-1 of each seed's stream, shape ``(len(seeds), k)``: word c
    is output c of the splitmix64 generator seeded with the seed, a pure
    function of (seed, c)."""
    counters = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN
    return _splitmix64(seeds[:, None] + counters)


def _open_unit(words: np.ndarray) -> np.ndarray:
    """The top 52 bits k of each word as the uniform ``(k + 0.5) 2^-52``,
    which lies strictly inside (0, 1). (With 53 bits, k + 0.5 would round
    up to 2^53 at the top and give 1.)"""
    return ((words >> _S12).astype(np.float64) + 0.5) * 2.0**-52


def sphere_rows(n: int, count: int, seeds) -> np.ndarray:
    """``count`` uniform unit rows of C^n per seed, shape
    ``(len(seeds), count, n)``; row block i depends on ``seeds[i]`` alone.

    Entry (d, j) of a seed's block takes words ``2 (d n + j)`` and
    ``2 (d n + j) + 1`` of the seed's counter-based stream (``_stream_words``)
    as uniforms u1, u2 and is the Box-Muller Gaussian
    ``sqrt(-2 log u1) e^{2 pi i u2}``, scaled to a unit row. Since
    u1 <= 1 - 2^-53, every entry has modulus at least 2^-26 before scaling,
    so every row normalizes stably. The integer stream is exactly portable;
    the floats go through numpy's log, cos and sin, so their last bits are
    fixed only on one machine and numpy build.
    """
    n, count = _integer(n, "n", 1), _integer(count, "count", 1)
    S = _seed_words(seeds)
    u = _open_unit(_stream_words(S, 2 * count * n)).reshape(S.shape[0], count, n, 2)
    r2 = -2.0 * np.log(u[..., 0])
    theta = (2.0 * np.pi) * u[..., 1]
    # a column loop: numpy's sum over a short last axis costs several times more
    norm2 = r2[..., 0].copy()
    for j in range(1, n):
        norm2 += r2[..., j]
    scale = np.sqrt(r2 / norm2[..., None])
    out = np.empty(r2.shape, dtype=np.complex128)
    out.real = scale * np.cos(theta)
    out.imag = scale * np.sin(theta)
    return out


def complex_to_pair(z) -> list:
    """Serialize one complex scalar as ``[re, im]``."""
    zc = complex(z)
    return [float(zc.real), float(zc.imag)]


def _array_to_pairs(a: np.ndarray) -> list:
    """Any complex array as nested lists of ``[z.real, z.imag]`` pairs, by one ``tolist()``."""
    return np.ascontiguousarray(a).view(np.float64).reshape(*a.shape, 2).tolist()


def vector_to_pairs(x) -> list:
    """Serialize a complex vector as a list of ``[re, im]`` pairs."""
    return _array_to_pairs(as_cvector(x))


def _to_json(x):
    """The JSON value of a result, by the rule in the module docstring;
    lists and dicts are written entry by entry, anything else as it is."""
    if dataclasses.is_dataclass(x):
        names = [f.name for f in dataclasses.fields(x) if f.metadata.get("json", True)]
        return {k: _to_json(getattr(x, k)) for k in names}
    if isinstance(x, np.ndarray):
        return vector_to_pairs(x)
    if isinstance(x, (complex, np.complexfloating)):
        return complex_to_pair(x)
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, list):
        return [_to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: _to_json(v) for k, v in x.items()}
    return x
