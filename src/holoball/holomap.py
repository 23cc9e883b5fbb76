"""Holomorphic map algebra and its JSON document format.

Every map kind evaluates by plain arithmetic on its description and
differentiates exactly: term by term for polynomials, rational-derivative
formulas for the Moebius kinds, chain rule for pipelines, with no numerical
differentiation. A kind implements the kernels ``_value`` and ``_value_jac``
(see ``HoloMap``) on points the public entries have already validated. A
polynomial's terms share a cached term plan with every map of the same
multi-indices: their sort order and checks, and the union of the map's
multi-indices with those of its n partial derivatives. ``_value_jac``
builds one table of monomials over that union and sums the value and every
Jacobian column from its columns; a pipeline threads values and Jacobians
through its stages at once.

Maps are immutable after construction. Domain membership is not enforced at
evaluation time; a map may be evaluated anywhere its poles permit (slices of
the ball live on disks larger than the unit disk). Ball containment is
asserted by the bound-checking and harness layers instead.

Document format (``parse_spec`` / ``emit_spec``): a JSON object whose
``kind`` field names the map class; complex scalars are ``[re, im]`` pairs,
vectors lists of pairs. Each class owns its format: its ``kind`` and its
``_fields``, which the inherited ``to_spec`` and ``from_spec`` follow.
``from_spec`` checks only the JSON shape; the constructor is the one place
a value is judged, and its ``InputError`` comes back as a ``SchemaError``
at the field the error names.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .complexcore import (_as_float, _is_int, _is_real, as_cvector, complex_to_pair,
                          vector_to_pairs, vnorm)
from .errors import DomainError, InputError, SchemaError

__all__ = [
    "HoloMap",
    "PolyMap",
    "MobiusDisk",
    "MobiusQuotient",
    "LineEmbed",
    "LinearFunctional",
    "ScalarTimesVector",
    "AffineScalar",
    "Pipeline",
    "parse_spec",
    "emit_spec",
    "POLE_TOL",
    "MAX_DEGREE",
]

POLE_TOL = 1e-15
# largest exponent of one variable in a PolyMap term; evaluation builds a
# (B, degree + 1) power table per variable, so a document asking for far
# more would exhaust memory at its first point instead of being rejected
MAX_DEGREE = 1024


class _FieldError(InputError):
    """A constructor's ``InputError`` naming the faulty argument by its
    document path relative to the map, such as ``z0`` or ``terms/3/alpha``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_batch(Z, n: int) -> np.ndarray:
    """Coerce evaluation points to a finite ``(B, n)`` complex batch."""
    A = np.asarray(Z, dtype=np.complex128)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        if A.shape[0] == n:
            A = A.reshape(1, n)
        elif n == 1:
            A = A.reshape(-1, 1)
        else:
            raise InputError(f"point has dimension {A.shape[0]}, map expects {n}")
    if A.ndim != 2 or A.shape[1] != n:
        raise InputError(f"points must have shape (B, {n}), got {A.shape}")
    return _finite(A)


def _finite(A: np.ndarray) -> np.ndarray:
    """``A`` itself; raises ``InputError`` when it has a non-finite entry."""
    if np.count_nonzero(np.isfinite(A)) != A.size:
        raise InputError("points contain non-finite entries")
    return A


# document fields: JSON shape checks, each raising SchemaError at its path


def _expect_object(doc, path, keys):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    extra = set(doc) - set(keys)
    if extra:
        raise SchemaError(path, f"unexpected field(s) {sorted(extra)}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise SchemaError(path, f"missing field(s) {missing}")


def _list(v, path) -> list:
    if not isinstance(v, list):
        raise SchemaError(path, "expected a list")
    return v


def _real(v, path) -> float:
    if not _is_real(v):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    f = _as_float(v)
    if not np.isfinite(f):
        raise SchemaError(path, "number must be finite")
    return f


def _int(v, path) -> int:
    if not _is_int(v):
        raise SchemaError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _pair(v, path) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(path, "expected a [re, im] pair")
    return complex(_real(v[0], f"{path}/0"), _real(v[1], f"{path}/1"))


def _pairs(v, path) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or len(v) == 0:
        raise SchemaError(path, "expected a non-empty list of [re, im] pairs")
    return np.array([_pair(x, f"{path}/{i}") for i, x in enumerate(v)], dtype=np.complex128)


def _terms(v, path) -> list:
    """A poly document's terms as ``(alpha, coef)`` pairs."""
    terms = []
    for i, t in enumerate(_list(v, path)):
        _expect_object(t, f"{path}/{i}", ("alpha", "coef"))
        alpha = _list(t["alpha"], f"{path}/{i}/alpha")
        alpha = [_int(a, f"{path}/{i}/alpha/{j}") for j, a in enumerate(alpha)]
        terms.append((alpha, _pairs(t["coef"], f"{path}/{i}/coef")))
    return terms


def _stages(v, path) -> list:
    """A pipeline document's stages, parsed."""
    return [_parse(s, f"{path}/{i}") for i, s in enumerate(_list(v, path))]


# a document field's reader (JSON value, path -> constructor argument) and
# writer (attribute -> JSON value)
_INT = (_int, int)
_REAL = (_real, float)
_PAIR = (_pair, complex_to_pair)
_VECTOR = (_pairs, vector_to_pairs)
_TERMS = (_terms, lambda terms: [{"alpha": list(a), "coef": vector_to_pairs(c)}
                                 for a, c in terms.items()])
_STAGES = (_stages, lambda stages: [s.to_spec() for s in stages])


class HoloMap:
    """Base class: a holomorphic map C^n -> C^m given by exact formulas.

    A map kind implements two kernels on a finite ``(B, n)`` complex128
    batch X, row i of each result depending on row i of X alone:
    ``_value(X)``, the ``(B, m)`` values, and ``_value_jac(X)``, the values
    with the ``(B, m, n)`` Jacobians from one pass. The public entries below
    validate the points once, with ``_as_batch``, and a kernel coerces nothing.

    A class with a document format is listed in ``_KINDS`` under its
    ``kind``. Its ``_fields`` are the document's fields after ``kind``, each
    with its reader and writer, in the order of the constructor's arguments;
    the map keeps each as an attribute of the same name.
    """

    n: int
    m: int
    kind: str
    _fields: tuple = ()

    def eval_many(self, Z) -> np.ndarray:
        """Evaluate at a batch of points, ``(B, n) -> (B, m)``."""
        return self._value(_as_batch(Z, self.n))

    def jac_many(self, Z) -> np.ndarray:
        """Complex Jacobians at a batch of points, ``(B, n) -> (B, m, n)``;
        column j holds the partial derivatives with respect to z_j."""
        return self._value_jac(_as_batch(Z, self.n))[1]

    def eval_jac_many(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """``(eval_many(Z), jac_many(Z))``, computed in one pass."""
        return self._value_jac(_as_batch(Z, self.n))

    def eval(self, z) -> np.ndarray:
        """Evaluate at one point, returns a vector of length m."""
        return self.eval_many(z)[0]

    def jacobian(self, z) -> np.ndarray:
        """Complex Jacobian at one point, shape ``(m, n)``."""
        return self.jac_many(z)[0]

    def to_spec(self) -> dict:
        """The map's document; ``parse_spec`` of it rebuilds the map."""
        if not hasattr(self, "kind"):
            raise InputError(f"cannot serialize {type(self).__name__}")
        return {"kind": self.kind, **{k: write(getattr(self, k)) for k, (_, write) in self._fields}}

    @classmethod
    def from_spec(cls, doc, path: str) -> "HoloMap":
        """The map of a document of this kind, ``path`` locating the document
        in ``SchemaError``; checks only the JSON shape."""
        _expect_object(doc, path, ("kind", *(k for k, _ in cls._fields)))
        return cls(*(read(doc[k], f"{path}/{k}") for k, (read, _) in cls._fields))


def _powers(Z: np.ndarray, degrees) -> list[np.ndarray]:
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


def _monomials(tables, B: int, alphas: np.ndarray) -> np.ndarray:
    """The ``(B, T)`` monomials ``prod_j z_j ** alphas[t, j]`` over the power
    tables of a batch of B points, a factor per variable that has a table, in
    variable order; the tables must reach each variable's largest exponent."""
    # one block for the three (B, T) arrays: glibc trims the heap top only above
    # twice its largest freed block, so large batches then stop re-faulting pages
    mono, spare, factor = np.empty((3, B, alphas.shape[0]), dtype=np.complex128)
    mono[...] = 1.0
    # never in place: numpy multiplies a single complex element in place with
    # its scalar loop, whose last bits differ from the SIMD loop's, so one
    # monomial at one point would round unlike the same monomial in a batch;
    # the exponents are in range, and "clip" spares ``take`` a copy of ``out``
    for j, P in enumerate(tables):
        if P is not None:
            np.take(P, alphas[:, j], axis=1, out=factor, mode="clip")
            np.multiply(mono, factor, out=spare)
            mono, spare = spare, mono
    return mono


def _sum_terms(mono: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """``sum_t coefs[t] * mono[:, t]``, zero where there are no terms."""
    # one vector-matrix product per row: ``mono @ coefs`` switches kernels
    # with the batch size, which changes the last bits of row i
    return np.matmul(mono[:, None, :], coefs)[:, 0, :]


def _stack_rows(rows, dtype) -> tuple[np.ndarray, np.ndarray]:
    """1-D arrays of any lengths as the rows of one zero-padded 2-D array,
    with the length of each row."""
    lens = np.array([r.shape[0] for r in rows], dtype=np.int64)
    out = np.zeros((lens.shape[0], int(lens.max(initial=0))), dtype=dtype)
    if rows:
        out[np.arange(out.shape[1]) < lens[:, None]] = np.concatenate(rows)
    return out, lens


def _dims(n, m) -> tuple[int, int]:
    for name, v in (("n", n), ("m", m)):
        if not _is_int(v) or v < 1:
            raise _FieldError(name, f"{name} must be a positive integer")
        if v >= 2**59:  # past the largest dimension of a complex128 array
            raise _FieldError(name, f"{name} = {v} is too large")
    return int(n), int(m)


def _exponents(alpha) -> np.ndarray:
    """Multi-index entries as float64, exact at every integer up to
    ``MAX_DEGREE``, for ``_normalise_terms`` to judge. Anything but an
    integer or float array goes through ``_as_float`` entry by entry, since
    numpy would coerce ``[1, True]`` to ints and ``[1, "2"]`` to strings."""
    if isinstance(alpha, np.ndarray) and alpha.dtype.kind in "iuf":
        return alpha.astype(np.float64)
    a = np.asarray(alpha, dtype=object)
    return np.array([_as_float(x) for x in a.reshape(-1).tolist()], np.float64).reshape(a.shape)


def _key(row: np.ndarray) -> tuple:
    """A multi-index as it reads in a message: integers up to 2^53 as ints."""
    return tuple(int(a) if a.is_integer() and abs(a) <= 2**53 else a for a in row.tolist())


class _TermPlan(NamedTuple):
    """What a polynomial's terms share with every map of the same
    multi-indices; all arrays are read-only.

    ``order`` sorts the terms lexicographically into ``alphas`` (int64),
    with the largest exponent of each variable in ``degrees``. ``union`` is
    the sorted union of the rows of ``alphas`` with the multi-indices of the
    n partial derivatives; ``value`` indexes the rows of ``alphas`` in it
    (None when that is every row, in order). The partial derivative along
    z_j has the terms ``lo:hi`` of ``columns`` entry ``(j, lo, hi)``: term k
    has multi-index ``union[deriv[k]]`` and coefficient ``w[k]`` times the
    one of term ``src[k]``. Variables that occur in no term have no entry.
    """

    order: np.ndarray
    alphas: np.ndarray
    degrees: list
    union: np.ndarray
    value: np.ndarray | None
    deriv: np.ndarray
    src: np.ndarray
    w: np.ndarray
    columns: tuple


@functools.lru_cache(maxsize=64)
def _term_plan(n: int, shape: tuple, table: bytes, lens: bytes) -> _TermPlan:
    """The term plan of the float64 multi-index table with the given shape
    and bytes, row t of which has ``lens[t]`` (int64 bytes) entries; raises
    the ``_FieldError`` of the first term with a faulty multi-index."""
    alphas = np.frombuffer(table, dtype=np.float64).reshape(shape)
    alpha_lens = np.frombuffer(lens, dtype=np.int64)
    T = alphas.shape[0]
    order = np.lexsort(alphas.T[::-1]) if alphas.shape[1] else np.arange(T)
    ranked = alphas[order]
    dup = np.zeros(T, dtype=bool)
    # the sort is stable, so the later rows of a run of equal rows are the
    # later occurrences in input order
    dup[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
    checks = (
        alpha_lens != n,
        (np.floor(alphas) != alphas).any(axis=1),
        (alphas < 0).any(axis=1),
        (alphas > MAX_DEGREE).any(axis=1),
        dup,
    )
    bad = np.logical_or.reduce(checks)
    if bad.any():
        t = int(bad.argmax())
        key = _key(alphas[t, : alpha_lens[t]])
        messages = (
            f"multi-index {key} has length {len(key)}, expected {n}",
            f"multi-index {key} has an entry that is not an integer",
            f"multi-index {key} has a negative entry",
            f"multi-index {key} has an entry above MAX_DEGREE = {MAX_DEGREE}",
            f"duplicate multi-index {key}",
        )
        raise _FieldError(f"terms/{t}/alpha", next(msg for c, msg in zip(checks, messages) if c[t]))
    ranked = ranked.reshape(T, n).astype(np.int64)
    # derivative term k: d/dz_jj[k] of term src[k], in the map's term order
    jj, src = np.nonzero(ranked.T)
    w = ranked[src, jj]
    lowered = ranked[src]
    lowered[np.arange(jj.shape[0]), jj] -= 1
    union, inverse = ranked, np.arange(T)
    if T:  # np.unique of an empty table along axis 0 takes time in its width
        union, inverse = np.unique(np.vstack([ranked, lowered]), axis=0, return_inverse=True)
        # the shape of the inverse changed within the numpy 2.0 releases
        inverse = inverse.reshape(-1)
    value = inverse[:T] if union.shape[0] > T else None
    counts = np.bincount(jj).tolist()
    return _TermPlan(
        order=_freeze(order),
        alphas=_freeze(ranked),
        # a map without terms needs no power tables, whatever its n
        degrees=ranked.max(axis=0).tolist() if T else [],
        union=_freeze(union),
        value=None if value is None else _freeze(value),
        deriv=_freeze(inverse[T:]),
        src=_freeze(src),
        w=_freeze(w),
        columns=tuple(
            (j, end - k, end) for j, (k, end) in enumerate(zip(counts, itertools.accumulate(counts))) if k
        ),
    )


def _normalise_terms(n: int, m: int, alphas, coefs, alpha_lens, coef_lens):
    """Validate T polynomial terms and sort them lexicographically.

    Row t of the float64 array ``alphas`` (from ``_exponents``) holds
    multi-index t in its first ``alpha_lens[t]`` entries, row t of the
    complex128 array ``coefs`` its coefficient vector in the first
    ``coef_lens[t]`` entries; any further entries are zero padding. An error
    names the first faulty term t in input order, checked for length,
    entries that are not integers, negative entries, entries above
    ``MAX_DEGREE``, an earlier duplicate, coefficient length and finiteness
    in that order, and its field is ``terms/t/alpha`` or ``terms/t/coef``.
    The multi-index checks come from the cached term plan. Returns the plan
    and the frozen ``(T, m)`` coefficients in its order.
    """
    bad = (coef_lens != m) | ~np.isfinite(coefs).all(axis=1)
    # with a faulty coefficient only the terms up to it are planned, so that
    # a faulty multi-index among them raises first
    T = int(bad.argmax()) + 1 if bad.any() else alphas.shape[0]
    plan = _term_plan(n, alphas[:T].shape, alphas[:T].tobytes(), alpha_lens[:T].tobytes())
    if bad.any():
        t = T - 1
        key = _key(alphas[t, : alpha_lens[t]])
        if coef_lens[t] != m:
            raise _FieldError(
                f"terms/{t}/coef", f"coefficient for {key} has length {coef_lens[t]}, expected {m}"
            )
        raise _FieldError(f"terms/{t}/coef", f"coefficient for {key} is not finite")
    return plan, _freeze(coefs[plan.order].reshape(T, m))


class PolyMap(HoloMap):
    """Polynomial map C^n -> C^m with explicit multi-index terms.

    ``terms`` maps a multi-index tuple (length n, integers in
    [0, MAX_DEGREE]; an integral float such as 2.0 counts, 1.5 or "2" does
    not) to a coefficient vector of length m; an iterable of
    ``(alpha, coef)`` pairs is also accepted, and ``from_arrays`` takes the
    terms as two arrays. Terms are stored in lexicographic multi-index
    order and coefficients are kept exactly as given.

    Document: ``{"kind": "poly", "n", "m", "terms": [{"alpha": [int, ...],
    "coef": [[re, im], ...]}, ...]}``, terms in that order.
    """

    kind = "poly"
    _fields = (("n", _INT), ("m", _INT), ("terms", _TERMS))

    def __init__(self, n: int, m: int, terms):
        n, m = _dims(n, m)
        items = terms.items() if hasattr(terms, "items") else list(terms)
        alphas, alpha_lens = _stack_rows(
            [_exponents(alpha).reshape(-1) for alpha, _ in items], np.float64
        )
        coefs, coef_lens = _stack_rows(
            [np.asarray(coef, dtype=np.complex128).reshape(-1) for _, coef in items],
            np.complex128,
        )
        self._setup(n, m, alphas, coefs, alpha_lens, coef_lens)

    @classmethod
    def from_arrays(cls, n: int, m: int, alphas, coefs) -> "PolyMap":
        """Map with term t given by row t of a ``(T, n)`` integer multi-index
        array and of a ``(T, m)`` complex coefficient array; validated and
        sorted exactly as the terms passed to the constructor."""
        n, m = _dims(n, m)
        alphas = _exponents(alphas)
        coefs = np.asarray(coefs, dtype=np.complex128)
        if alphas.ndim != 2 or coefs.ndim != 2 or alphas.shape[0] != coefs.shape[0]:
            raise InputError(
                f"terms must be (T, n) and (T, m) arrays, got {alphas.shape} and {coefs.shape}"
            )
        T = alphas.shape[0]
        f = cls.__new__(cls)
        f._setup(
            n,
            m,
            alphas,
            coefs,
            np.full(T, alphas.shape[1], dtype=np.int64),
            np.full(T, coefs.shape[1], dtype=np.int64),
        )
        return f

    def _setup(self, n: int, m: int, alphas, coefs, alpha_lens, coef_lens) -> None:
        self._plan, self._coefs = _normalise_terms(n, m, alphas, coefs, alpha_lens, coef_lens)
        self._alphas = self._plan.alphas
        self.n = n
        self.m = m

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls.from_arrays(n, n, np.eye(n, dtype=np.int64), np.eye(n))

    @classmethod
    def from_scalar_coeffs(cls, coeffs) -> "PolyMap":
        """One-variable scalar polynomial ``sum_k coeffs[k] z^k``."""
        return cls(1, 1, {(k,): [c] for k, c in enumerate(coeffs)})

    @property
    def terms(self) -> dict:
        return {tuple(a): c.copy() for a, c in zip(self._alphas.tolist(), self._coefs)}

    def __repr__(self):
        return f"PolyMap(n={self.n}, m={self.m}, terms={self._alphas.shape[0]})"

    @functools.cached_property
    def _dcoefs(self) -> np.ndarray:
        """The coefficients of the partial derivatives' terms, in the plan's
        order; a coefficient past the float range overflows here."""
        return _freeze(self._coefs[self._plan.src] * self._plan.w[:, None])

    def _value(self, X: np.ndarray) -> np.ndarray:
        mono = _monomials(_powers(X, self._plan.degrees), X.shape[0], self._alphas)
        return _sum_terms(mono, self._coefs)

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the derivative terms never exceed the map's own degrees, so one
        # table of monomials over the plan's union serves the value and every
        # column; a monomial only gains factors 1.0 for variables it lacks,
        # which change no bit but the sign of a zero part, so each column
        # sums what a table of its own terms would hold
        plan, B = self._plan, X.shape[0]
        mono = _monomials(_powers(X, plan.degrees), B, plan.union)
        V = _sum_terms(mono if plan.value is None else mono.take(plan.value, axis=1), self._coefs)
        J = np.zeros((B, self.m, self.n), dtype=np.complex128)
        for j, lo, hi in plan.columns:
            J[:, :, j] = _sum_terms(mono.take(plan.deriv[lo:hi], axis=1), self._dcoefs[lo:hi])
        return V, J


class MobiusDisk(HoloMap):
    """Disk automorphism ``z -> (z0 - z) / (1 - conj(z0) z)`` with |z0| < 1.

    Swaps z0 and 0 and is its own inverse. Derivative
    ``(|z0|^2 - 1) / (1 - conj(z0) z)^2``.
    """

    n = 1
    m = 1
    kind = "mobius_scalar"
    _fields = (("z0", _PAIR),)

    def __init__(self, z0):
        z0 = complex(z0)
        if not (np.isfinite(z0.real) and np.isfinite(z0.imag)):
            raise _FieldError("z0", "z0 must be finite")
        z0_abs = float(np.abs(z0))  # abs(z0) raises OverflowError past the float range
        if z0_abs >= 1:
            raise _FieldError("z0", f"|z0| must be < 1, got {z0_abs}")
        self.z0 = z0

    def __repr__(self):
        return f"MobiusDisk(z0={self.z0})"

    def _den(self, Z: np.ndarray) -> np.ndarray:
        den = 1.0 - np.conj(self.z0) * Z
        if (np.abs(den) < POLE_TOL).any():
            raise DomainError(f"evaluation at a pole of the Moebius factor z0={self.z0}")
        return den

    def _value(self, X: np.ndarray) -> np.ndarray:
        return (self.z0 - X) / self._den(X)

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        den = self._den(X)
        return (self.z0 - X) / den, ((abs(self.z0) ** 2 - 1.0) / den**2)[:, :, None]


class MobiusQuotient(HoloMap):
    """Scalar quotient ``z -> (a + e^{i theta} z) / (1 + a e^{i theta} z)``
    with real ``a = a_abs`` in [0, 1). Maps the unit disk into itself;
    derivative ``e^{i theta} (1 - a^2) / (1 + a e^{i theta} z)^2``.
    """

    n = 1
    m = 1
    kind = "mobius_quotient"
    _fields = (("a_abs", _REAL), ("theta", _REAL))

    def __init__(self, a_abs: float, theta: float):
        a_abs = float(a_abs)
        theta = float(theta)
        if not np.isfinite(a_abs) or not (0.0 <= a_abs < 1.0):
            raise _FieldError("a_abs", f"a_abs must lie in [0, 1), got {a_abs}")
        if not np.isfinite(theta):
            raise _FieldError("theta", "theta must be finite")
        self.a_abs = a_abs
        self.theta = theta
        self._rot = complex(np.exp(1j * theta))

    def __repr__(self):
        return f"MobiusQuotient(a_abs={self.a_abs}, theta={self.theta})"

    def _den(self, Z: np.ndarray) -> np.ndarray:
        den = 1.0 + self.a_abs * self._rot * Z
        if (np.abs(den) < POLE_TOL).any():
            raise DomainError("evaluation at a pole of the Moebius quotient")
        return den

    def _value(self, X: np.ndarray) -> np.ndarray:
        return (self.a_abs + self._rot * X) / self._den(X)

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        den = self._den(X)
        return (
            (self.a_abs + self._rot * X) / den,
            (self._rot * (1.0 - self.a_abs**2) / den**2)[:, :, None],
        )


class LineEmbed(HoloMap):
    """Affine embedding of a complex line, ``z -> p + z (q - p)``; L(0) = p,
    L(1) = q."""

    n = 1
    kind = "line_embed"
    _fields = (("p", _VECTOR), ("q", _VECTOR))

    def __init__(self, p, q):
        self.p = _freeze(as_cvector(p, "p").copy())
        self.q = _freeze(as_cvector(q, "q").copy())
        if self.p.shape != self.q.shape:
            raise _FieldError("q", "p and q must have the same dimension")
        with np.errstate(over="ignore"):  # a q - p past the float range is refused
            self._d = _freeze(as_cvector(self.q - self.p, "q - p"))
        if vnorm(self._d) < 1e-14:
            raise _FieldError("q", "q must differ from p")
        self.m = self.p.shape[0]

    def __repr__(self):
        return f"LineEmbed(dim={self.m})"

    def _value(self, X: np.ndarray) -> np.ndarray:
        return self.p[None, :] + X * self._d[None, :]

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._value(X), np.full((X.shape[0], self.m, 1), self._d[:, None])


class LinearFunctional(HoloMap):
    """Inner product against a fixed vector, ``w -> herm_inner(w, u)``."""

    m = 1
    kind = "linear_functional"
    _fields = (("u", _VECTOR),)

    def __init__(self, u):
        self.u = _freeze(as_cvector(u, "u").copy())
        self.n = self.u.shape[0]
        self._cu = _freeze(np.conj(self.u))

    def __repr__(self):
        return f"LinearFunctional(dim={self.n})"

    def _value(self, X: np.ndarray) -> np.ndarray:
        # one product per row, as in _sum_terms: ``X @ cu`` switches kernels
        # with the batch size, which changes the last bits of row i
        return np.matmul(X[:, None, :], self._cu[:, None])[:, 0, :]

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._value(X), np.full((X.shape[0], 1, self.n), self._cu)


class ScalarTimesVector(HoloMap):
    """Scale a fixed vector by the scalar argument, ``z -> z * beta``."""

    n = 1
    kind = "scalar_times_vector"
    _fields = (("beta", _VECTOR),)

    def __init__(self, beta):
        self.beta = _freeze(as_cvector(beta, "beta").copy())
        self.m = self.beta.shape[0]

    def __repr__(self):
        return f"ScalarTimesVector(dim={self.m})"

    def _value(self, X: np.ndarray) -> np.ndarray:
        return X * self.beta[None, :]

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._value(X), np.full((X.shape[0], self.m, 1), self.beta[:, None])


class AffineScalar(HoloMap):
    """Scalar affine map ``z -> r z + c``."""

    n = 1
    m = 1
    kind = "affine_scalar"
    _fields = (("r", _PAIR), ("c", _PAIR))

    def __init__(self, r, c):
        r = complex(r)
        c = complex(c)
        for name, v in (("r", r), ("c", c)):
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise _FieldError(name, f"{name} must be finite")
        self.r = r
        self.c = c

    def __repr__(self):
        return f"AffineScalar(r={self.r}, c={self.c})"

    def _value(self, X: np.ndarray) -> np.ndarray:
        return self.r * X + self.c

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._value(X), np.full((X.shape[0], 1, 1), self.r, dtype=np.complex128)


class Pipeline(HoloMap):
    """Composition of maps, applied first to last; the Jacobian is the
    (batched) chain-rule product of the stage Jacobians. A non-finite value
    between two stages raises ``InputError``."""

    kind = "pipeline"
    _fields = (("stages", _STAGES),)

    def __init__(self, stages):
        stages = tuple(stages)
        if not stages:
            raise _FieldError("stages", "pipeline needs at least one stage")
        for s in stages:
            if not isinstance(s, HoloMap):
                raise _FieldError("stages", f"pipeline stage {s!r} is not a map")
        for a, b in itertools.pairwise(stages):
            if a.m != b.n:
                raise _FieldError(
                    "stages",
                    f"stage output dimension {a.m} does not match next input dimension {b.n}",
                )
        self.stages = stages
        self.n = stages[0].n
        self.m = stages[-1].m

    def __repr__(self):
        inner = ", ".join(repr(s) for s in self.stages)
        return f"Pipeline([{inner}])"

    def _value(self, X: np.ndarray) -> np.ndarray:
        X = self.stages[0]._value(X)
        for stage in self.stages[1:]:
            X = stage._value(_finite(X))
        return X

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X, J = self.stages[0]._value_jac(X)
        for stage in self.stages[1:]:
            X, Ji = stage._value_jac(_finite(X))
            J = np.matmul(Ji, J)
        return X, J


# ---------------------------------------------------------------------------
# document format


_KINDS = {cls.kind: cls for cls in (PolyMap, MobiusDisk, MobiusQuotient, LineEmbed,
                                    LinearFunctional, ScalarTimesVector, AffineScalar, Pipeline)}


def _parse(doc, path) -> HoloMap:
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"{path}/kind", f"unknown kind {kind!r}")
    try:
        return cls.from_spec(doc, path)
    except SchemaError:
        raise
    except _FieldError as e:
        raise SchemaError(f"{path}/{e.field}", str(e)) from e
    except InputError as e:
        raise SchemaError(path, str(e)) from e


def parse_spec(doc) -> HoloMap:
    """Build a map from its (already JSON-decoded) document."""
    return _parse(doc, "")


def emit_spec(f: HoloMap) -> dict:
    """Serialize a map to its document; inverse of ``parse_spec``."""
    return f.to_spec()
