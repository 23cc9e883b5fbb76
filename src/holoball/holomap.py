"""Holomorphic map algebra and its JSON document format.

Four map kinds: polynomials, affine maps, the disk maps of ``MobiusMap``
and pipelines. Each evaluates by plain arithmetic on its description and
differentiates exactly: term by term for polynomials, the quotient rule for
``MobiusMap``, the chain rule for pipelines. A kind implements the kernels
``_value`` and ``_value_jac`` (see ``HoloMap``) on points the public
entries have already validated. A polynomial's terms are judged once per
construction; their sorted table keys a cached term plan that every map of
the same multi-indices shares: the union of the multi-indices with those
of the n partial derivatives, and the levels that build one table of
monomials over it a variable at a time, each shared prefix multiplied out
once. Both kernels build that table and sum the value from its columns,
``_value_jac`` every Jacobian column too; a pipeline threads values and
Jacobians through its stages at once.

Maps are immutable after construction. Domain membership is not enforced at
evaluation time; a map may be evaluated anywhere its poles permit (slices of
the ball live on disks larger than the unit disk). Ball containment is
asserted by the bound-checking and harness layers instead.

Document format (``parse_spec`` / ``emit_spec``): a JSON object whose
``kind`` field names the map class; complex scalars are ``[re, im]`` pairs,
vectors lists of pairs. Each class owns its format: its ``kind`` and its
``_fields``, which the inherited ``to_spec`` follows. One reader,
``_parse``, reads all ten kinds from one registry, ``_READERS``: the four
classes by their ``_fields``, and the six kinds that the affine and Moebius
kinds replaced, into the new kinds. It checks only the JSON shape; the
constructor is the one place a value is judged, and its ``InputError``
comes back as a ``SchemaError`` at the field the kind's row charges.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .complexcore import (_array_to_pairs, _as_carray, _as_complex, _as_float, _carray, _integer,
                          _is_int, _is_real, complex_to_pair)
from .errors import DomainError, InputError, SchemaError

__all__ = [
    "HoloMap",
    "PolyMap",
    "AffineMap",
    "MobiusMap",
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# 1 as a 0-d array: numpy converts a Python scalar operand on every call, a 0-d
# array not, with the same bits
_ONE = _freeze(np.array(1.0 + 0.0j))


def _as_batch(Z, n: int) -> np.ndarray:
    """Coerce evaluation points to a finite ``(B, n)`` complex batch."""
    A = _carray(Z, "points")
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
    return A


def _one_point(z, n: int, name: str) -> np.ndarray:
    """``_as_batch`` of one point; more points raise ``InputError``."""
    Z = _as_batch(z, n)
    if Z.shape[0] != 1:
        raise InputError(f"{name} takes a single point")
    return Z


def _finite(A: np.ndarray) -> np.ndarray:
    """A pipeline's intermediate values ``A`` themselves; raises
    ``InputError`` when one is not finite."""
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
    if not math.isfinite(f):
        raise SchemaError(path, "number must be finite")
    return f


def _int(v, path) -> int:
    if not _is_int(v):
        raise SchemaError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _pair(v, path, i=None) -> complex:
    """A ``[re, im]`` pair at ``path``, or its entry i; spelled only for an error."""
    # JSON numbers with a point or an exponent: the common case
    if type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float:
        z = complex(*v)
        if cmath.isfinite(z):
            return z
    path = path if i is None else f"{path}/{i}"
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(path, "expected a [re, im] pair")
    return complex(_real(v[0], f"{path}/0"), _real(v[1], f"{path}/1"))


def _pairs(v, path) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or len(v) == 0:
        raise SchemaError(path, "expected a non-empty list of [re, im] pairs")
    return np.array([_pair(x, path, i) for i, x in enumerate(v)], dtype=np.complex128)


def _matrix(v, path) -> np.ndarray:
    """Rows of pairs, each as long as the first, as one complex128 array."""
    rows = [_pairs(row, f"{path}/{i}") for i, row in enumerate(_list(v, path))]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise SchemaError(f"{path}/{i}", f"row has {len(row)} pairs, row 0 has {len(rows[0])}")
    return np.array(rows, dtype=np.complex128)


def _terms(v, path) -> list:
    """A poly document's terms as ``(alpha, coef)`` pairs."""
    terms = []
    for i, t in enumerate(_list(v, path)):
        _expect_object(t, f"{path}/{i}", ("alpha", "coef"))
        alpha = _list(t["alpha"], f"{path}/{i}/alpha")
        alpha = [_int(a, f"{path}/{i}/alpha/{j}") for j, a in enumerate(alpha)]
        terms.append((alpha, _pairs(t["coef"], f"{path}/{i}/coef")))
    return terms


# a document field's reader (JSON value, path -> constructor argument) and
# writer (attribute -> JSON value)
_INT = (_int, int)
_PAIR = (_pair, complex_to_pair)
_VECTOR = (_pairs, _array_to_pairs)
_MATRIX = (_matrix, _array_to_pairs)
_TERMS = (_terms, lambda terms: [{"alpha": list(a), "coef": _array_to_pairs(c)}
                                 for a, c in terms.items()])
_STAGES = (lambda v, path: [_parse(s, f"{path}/{i}") for i, s in enumerate(_list(v, path))],
           lambda stages: [s.to_spec() for s in stages])


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
        return self._value(_one_point(z, self.n, "eval"))[0]

    def jacobian(self, z) -> np.ndarray:
        """Complex Jacobian at one point, shape ``(m, n)``."""
        return self._value_jac(_one_point(z, self.n, "jacobian"))[1][0]

    def to_spec(self) -> dict:
        """The map's document; ``parse_spec`` of it rebuilds the map."""
        if not hasattr(self, "kind"):
            raise InputError(f"cannot serialize {type(self).__name__}")
        return {"kind": self.kind, **{k: write(getattr(self, k)) for k, (_, write) in self._fields}}


def _monomials(X: np.ndarray, levels: tuple, rows: int) -> np.ndarray:
    """The ``(B, rows)`` monomials of a table of multi-indices at the batch X,
    one level of the table (see ``_TermPlan``) at a time: the powers of z_j up
    to its degree by repeated multiplication, then each column of its level as
    its parent column times a power. Monomial t is the product
    ``((1 z_0^a_0) z_1^a_1) ...`` over the variables of positive degree, and a
    prefix that several monomials share is multiplied out once."""
    B = X.shape[0]
    if not levels:  # no variable of positive degree: all ones, or empty
        return np.ones((B, rows), dtype=np.complex128)
    # one block for a level's table, parents and powers: glibc trims the heap top
    # only above twice its largest freed block, so large batches then stop
    # re-faulting pages. No product overlaps its output, which numpy would send to
    # its scalar loop, whose last bits differ from the SIMD loop's; "clip" spares
    # ``take`` a copy of ``out``, and the exponents are in range.
    block, mono = np.empty(3 * B * rows, dtype=np.complex128), _ONE
    for j, degree, parent, exp in levels:
        P = np.empty((B, degree + 1), dtype=np.complex128)
        P[:, 0] = 1.0
        for k in range(1, degree + 1):
            P[:, k] = P[:, k - 1] * X[:, j]
        table, parents, powers = block[: 3 * B * exp.size].reshape(3, B, exp.size)
        if parent is not None:
            mono = mono.take(parent, axis=1, out=parents, mode="clip")
        mono = np.multiply(mono, P.take(exp, axis=1, out=powers, mode="clip"), out=table)
    return mono


def _sum_terms(mono: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """``sum_t mono[i, t] * coefs[t]`` per row i of ``mono``, zero without terms;
    ``coefs`` is one ``(T, k)`` matrix or a ``(B, T, k)`` stack of one per row."""
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
    # 2^59 is past the largest dimension of a complex128 array
    return _integer(n, "n", 1, 2**59, field=True), _integer(m, "m", 1, 2**59, field=True)


def _key(row: np.ndarray, given) -> tuple:
    """A complex multi-index as it reads in a message: integers up to 2^53 as
    ints; one with an entry that is not a real number as the caller gave it."""
    if np.isnan(row).any() or row.imag.any():
        given = given.tolist() if isinstance(given, np.ndarray) else given
        return tuple(given) if isinstance(given, (list, tuple)) else (given,)
    return tuple(int(a) if a.is_integer() and abs(a) <= 2**53 else a for a in row.real.tolist())


class _TermPlan(NamedTuple):
    """What a polynomial's terms share with every map of the same
    multi-indices, in any input order; all arrays are read-only.

    ``alphas`` holds the multi-indices in lexicographic order (int64).
    ``union`` is the sorted union of its rows with the multi-indices of the
    n partial derivatives; ``value`` indexes the rows of ``alphas`` in it
    (None when that is every row, in order). The partial derivative along
    z_j has the terms ``lo:hi`` of ``columns`` entry ``(j, lo, hi)``: term k
    has multi-index ``union[deriv[k]]`` and coefficient ``w[k]`` times the
    one of term ``src[k]``. Variables that occur in no term have no entry.

    ``levels`` build the monomials of ``union``, one level ``(j, degree,
    parent, exp)`` per variable z_j of positive degree (its largest
    exponent), in variable order: column c of a level, a distinct prefix up
    to z_j of the rows of ``union``, is column ``parent[c]`` of the level
    before (None at the first) times ``z_j ** exp[c]``, and the last level's
    columns are the rows. ``alphas`` has a level for the same variables, so
    each of its monomials is the same product chain in the union's table.
    """

    alphas: np.ndarray
    union: np.ndarray
    levels: tuple
    value: np.ndarray | None
    deriv: np.ndarray
    src: np.ndarray
    w: np.ndarray
    columns: tuple


@functools.lru_cache(maxsize=64)
def _term_plan(n: int, table: bytes) -> _TermPlan:
    """The term plan of a table of multi-indices of length n, given as its
    int64 bytes: a lexicographic table of distinct rows with entries in
    [0, MAX_DEGREE], as ``_normalise_terms`` passes it."""
    alphas = np.frombuffer(table, dtype=np.int64).reshape(-1, n)
    T = alphas.shape[0]
    # derivative term k: d/dz_jj[k] of term src[k], in the map's term order
    jj, src = np.nonzero(alphas.T)
    w = alphas[src, jj]
    lowered = alphas[src]
    lowered[np.arange(jj.shape[0]), jj] -= 1
    union, inverse = alphas, np.arange(T)
    if T:  # np.unique of an empty table along axis 0 takes time in its width
        union, inverse = np.unique(np.vstack([alphas, lowered]), axis=0, return_inverse=True)
        # the shape of the inverse changed within the numpy 2.0 releases
        inverse = inverse.reshape(-1)
    # the levels of the union (a table without rows needs no power tables)
    degrees = union.max(axis=0).tolist() if T else []
    levels, prefix = [], np.zeros(union.shape[0], dtype=np.int64)
    for j in np.flatnonzero(degrees).tolist():
        # the rows that start a new prefix up to z_j, then each row's prefix
        new = np.ones(union.shape[0], dtype=bool)
        new[1:] = (prefix[1:] != prefix[:-1]) | (union[1:, j] != union[:-1, j])
        first = np.flatnonzero(new)
        parent = _freeze(prefix[first]) if levels else None
        levels.append((j, degrees[j], parent, _freeze(union[first, j])))
        prefix = np.cumsum(new) - 1
    counts = np.bincount(jj).tolist()
    return _TermPlan(
        alphas=alphas,
        union=_freeze(union),
        levels=tuple(levels),
        value=_freeze(inverse[:T]) if union.shape[0] > T else None,
        deriv=_freeze(inverse[T:]),
        src=_freeze(src),
        w=_freeze(w),
        columns=tuple(
            (j, end - k, end) for j, (k, end) in enumerate(zip(counts, itertools.accumulate(counts))) if k
        ),
    )


def _normalise_terms(n: int, m: int, alphas, coefs, alpha_lens, coef_lens, given):
    """Judge T polynomial terms and sort them lexicographically.

    Row t of the complex128 arrays ``alphas`` and ``coefs`` (from
    ``_as_carray``) holds multi-index t, which the caller gave as
    ``given[t]``, in its first ``alpha_lens[t]`` entries and its coefficient
    vector in the first ``coef_lens[t]``; any further entries are zero
    padding. Seven checks run over all terms at once: length, an entry that
    is not an integer, a negative entry, an entry above ``MAX_DEGREE``, an
    earlier duplicate, coefficient length and finiteness. An error names
    the first faulty term t in input order and the first check it fails,
    at field ``terms/t/alpha`` or ``terms/t/coef``, and plans nothing.
    Returns the cached plan of the sorted table, which every map of the same
    multi-indices shares, and the frozen ``(T, m)`` coefficients in its order.
    """
    # an entry off the real axis is not a number, so not an integer either
    real = np.where(alphas.imag == 0.0, alphas.real, np.nan)
    T = real.shape[0]
    order = np.lexsort(real.T[::-1]) if real.shape[1] else np.arange(T)
    ranked = real[order]
    dup = np.zeros(T, dtype=bool)
    # the sort is stable, so the later rows of a run of equal rows are the
    # later occurrences in input order
    dup[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
    checks = (
        alpha_lens != n,
        (np.floor(real) != real).any(axis=1),
        (real < 0).any(axis=1),
        (real > MAX_DEGREE).any(axis=1),
        dup,
        coef_lens != m,
        ~np.isfinite(coefs).all(axis=1),
    )
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        table = ranked.reshape(T, n).astype(np.int64)
        return _term_plan(n, table.tobytes()), _freeze(coefs[order].reshape(T, m))
    t = int(bad.argmax())
    k = next(k for k, c in enumerate(checks) if c[t])
    key = _key(alphas[t, : alpha_lens[t]], given[t])
    messages = (
        f"multi-index {key} has length {len(key)}, expected {n}",
        f"multi-index {key} has an entry that is not an integer",
        f"multi-index {key} has a negative entry",
        f"multi-index {key} has an entry above MAX_DEGREE = {MAX_DEGREE}",
        f"duplicate multi-index {key}",
        f"coefficient for {key} has length {coef_lens[t]}, expected {m}",
        f"coefficient for {key} is not finite",
    )
    raise InputError(messages[k], field=f"terms/{t}/{'alpha' if k < 5 else 'coef'}")


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
        given = [alpha for alpha, _ in items]
        alphas, alpha_lens = _stack_rows([_as_carray(a).reshape(-1) for a in given], np.complex128)
        coefs, coef_lens = _stack_rows([_as_carray(c).reshape(-1) for _, c in items], np.complex128)
        self._own(*_normalise_terms(n, m, alphas, coefs, alpha_lens, coef_lens, given))

    @classmethod
    def from_arrays(cls, n: int, m: int, alphas, coefs) -> "PolyMap":
        """Map with term t given by row t of a ``(T, n)`` integer multi-index
        array and of a ``(T, m)`` complex coefficient array; validated and
        sorted exactly as the terms passed to the constructor."""
        n, m = _dims(n, m)
        given, alphas, coefs = alphas, _as_carray(alphas), _as_carray(coefs)
        if alphas.ndim != 2 or coefs.ndim != 2 or alphas.shape[0] != coefs.shape[0]:
            raise InputError(
                f"terms must be (T, n) and (T, m) arrays, got {alphas.shape} and {coefs.shape}",
                field="terms",
            )
        T = alphas.shape[0]
        lens = (np.full(T, a.shape[1], dtype=np.int64) for a in (alphas, coefs))
        return cls._of(*_normalise_terms(n, m, alphas, coefs, *lens, given))

    @classmethod
    def _of(cls, plan: _TermPlan, coefs: np.ndarray) -> "PolyMap":
        """A map on a validated plan, unchecked: ``coefs`` is a finite ``(T, m)``
        complex128 array in the plan's order, which the map takes as its own."""
        f = cls.__new__(cls)
        f._own(plan, _freeze(coefs))
        return f

    def _own(self, plan: _TermPlan, coefs: np.ndarray) -> None:
        self._plan, self._coefs, self._alphas = plan, coefs, plan.alphas
        self.n, self.m = plan.alphas.shape[1], coefs.shape[1]

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
    def _dcoefs(self) -> tuple[np.ndarray, list]:
        """The partial derivatives' term coefficients in the plan's order, and
        the scale of each entry of ``columns`` ([] when all are 1): a column
        where some ``coef * exponent`` overflows holds ``coef * (exponent /
        MAX_DEGREE)``, the bits of a normal product, at scale MAX_DEGREE = 2^10."""
        plan = self._plan
        with np.errstate(over="ignore"):
            dc = self._coefs[plan.src] * plan.w[:, None]
        if np.count_nonzero(np.isfinite(dc)) == dc.size:
            return _freeze(dc), []
        scales = [1.0 if np.isfinite(dc[lo:hi]).all() else float(MAX_DEGREE)
                  for _, lo, hi in plan.columns]
        w = plan.w / np.repeat(scales, [hi - lo for _, lo, hi in plan.columns])
        return _freeze(self._coefs[plan.src] * w[:, None]), scales

    def _table(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The monomials of the plan's union at X, and the values from them."""
        plan = self._plan
        mono = _monomials(X, plan.levels, plan.union.shape[0])
        own = mono if plan.value is None else mono.take(plan.value, axis=1)
        return mono, _sum_terms(own, self._coefs)

    def _value(self, X: np.ndarray) -> np.ndarray:
        return self._table(X)[1]

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the derivative terms never exceed the map's degrees, so the value's
        # table over the union serves every column too; a monomial gains only
        # factors 1.0 for variables it lacks, which change no bit but the sign
        # of a zero part, so each column sums what its own terms' table holds
        plan = self._plan
        mono, V = self._table(X)
        dcoefs, scales = self._dcoefs
        J = np.zeros((X.shape[0], self.m, self.n), dtype=np.complex128)
        for j, lo, hi in plan.columns:
            J[:, :, j] = _sum_terms(mono.take(plan.deriv[lo:hi], axis=1), dcoefs[lo:hi])
        if scales:
            J[:, :, [j for j, _, _ in plan.columns]] *= scales
        return V, J


class AffineMap(HoloMap):
    """Affine map ``z -> b + M z`` with M an m×n matrix and b in C^m. Document:
    ``{"kind": "affine", "M": [[[re, im], ...], ...], "b": [[re, im], ...]}``."""

    kind = "affine"
    _fields = (("M", _MATRIX), ("b", _VECTOR))

    def __init__(self, M, b):
        M = _carray(M, "M", "a non-empty 2-D complex array", lambda a: a.ndim == 2 and a.size > 0,
                    field=True)
        m = M.shape[0]
        b = _carray(b, "b", f"a 1-D complex array of length {m}", lambda a: a.shape == (m,),
                    field=True)
        self._own(M, b)

    @classmethod
    def _of(cls, M: np.ndarray, b) -> "AffineMap":
        """``AffineMap(M, b)`` unchecked, for a finite 2-D M and a finite b or number."""
        f = cls.__new__(cls)
        f._own(M, b)
        return f

    def _own(self, M: np.ndarray, b) -> None:
        """Copy M and b into one buffer, the map's own."""
        self.m, self.n = M.shape
        K = np.empty(M.size + self.m, dtype=np.complex128)
        K[: M.size], K[M.size :] = M.reshape(-1), b
        self.M, self.b = _freeze(K)[: M.size].reshape(M.shape), K[M.size :]
        self._MT = self.M.T

    def __repr__(self):
        return f"AffineMap(n={self.n}, m={self.m})"

    def _value(self, X: np.ndarray) -> np.ndarray:
        # the products of the replaced kinds, whose bits verdicts keep: X times a
        # 2-D row at n = 1 (a 1-D row rounds differently at B = 1), else _sum_terms
        V = X * self._MT if self.n == 1 else _sum_terms(X, self._MT)
        V += self.b  # in place, which rounds as a fresh sum does
        return V

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        J = np.empty((X.shape[0], self.m, self.n), dtype=np.complex128)
        J[...] = self.M  # np.full without its Python wrapper
        return self._value(X), J


class MobiusMap(HoloMap):
    """Disk map ``z -> (b + M z) / (1 + M conj(b) z)`` with |b| < 1, the
    automorphism ``w -> (b + w) / (1 + conj(b) w)`` after ``w = M z``;
    derivative ``M (1 - |b|^2) / (1 + M conj(b) z)^2``. M = -1 gives the
    involution swapping b and 0; |M| = 1 a disk automorphism. Document:
    ``{"kind": "mobius", "M": [re, im], "b": [re, im]}``.
    """

    n = 1
    m = 1
    kind = "mobius"
    _fields = (("M", _PAIR), ("b", _PAIR))

    def __init__(self, M, b):
        M, b = _as_complex(M), _as_complex(b)
        # parts below 1 first, so that abs(b) cannot overflow; NaN fails too
        if not (abs(b.real) < 1.0 and abs(b.imag) < 1.0 and abs(b) < 1.0):
            raise InputError(f"b must be a complex number with |b| < 1, got {b!r}", field="b")
        mcb = M * b.conjugate()
        if not (cmath.isfinite(M) and cmath.isfinite(mcb)):
            raise InputError("M and M conj(b) must be finite complex numbers", field="M")
        self.M, self.b = M, b
        # the kernels' M, b, M conj(b) and M (1 - |b|^2) as 0-d arrays, as _ONE
        self._k = tuple(map(np.array, (M, b, mcb, M * (1.0 - abs(b) ** 2))))

    def __repr__(self):
        return f"MobiusMap(M={self.M}, b={self.b})"

    def _den(self, X: np.ndarray) -> np.ndarray:
        den = _ONE + self._k[2] * X
        # one reduction, which skips NaN as a comparison would
        if np.fmin.reduce(np.abs(den), axis=None, initial=np.inf) < POLE_TOL:
            raise DomainError(f"evaluation at a pole of {self!r}")
        return den

    def _value(self, X: np.ndarray) -> np.ndarray:
        M, b, _, _ = self._k
        return (b + M * X) / self._den(X)

    def _value_jac(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        M, b, _, dnum = self._k
        den = self._den(X)
        return (b + M * X) / den, (dnum / den**2)[:, :, None]


class Pipeline(HoloMap):
    """Composition of maps, applied first to last; the Jacobian is the
    (batched) chain-rule product of the stage Jacobians. A non-finite value
    between two stages raises ``InputError``."""

    kind = "pipeline"
    _fields = (("stages", _STAGES),)

    def __init__(self, stages):
        stages = tuple(stages)
        if not stages:
            raise InputError("pipeline needs at least one stage", field="stages")
        for s in stages:
            if not isinstance(s, HoloMap):
                raise InputError(f"pipeline stage {s!r} is not a map", field="stages")
        for a, b in itertools.pairwise(stages):
            if a.m != b.n:
                raise InputError(
                    f"stage output dimension {a.m} does not match next input dimension {b.n}",
                    field="stages",
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


_KINDS = {cls.kind: cls for cls in (PolyMap, AffineMap, MobiusMap, Pipeline)}


# w -> herm_inner(w, u) and zeta -> zeta v for finite vectors u and v, whose
# offset b is -0.0 - 0.0j: -0.0 + x is x for every x, while 0.0 + -0.0 is 0.0
def _functional(u) -> AffineMap:
    return AffineMap._of(np.conj(u)[None, :], complex(-0.0, -0.0))


def _times(v) -> AffineMap:
    return AffineMap._of(v[:, None], complex(-0.0, -0.0))


def _rotation(theta: float) -> complex:  # by np.exp, as stored rotations were computed
    return complex(np.exp(1j * theta))


def _line_embed(p: list, q: list) -> AffineMap:
    if len(p) != len(q):
        raise InputError("p and q must have the same dimension", field="q")
    with np.errstate(over="ignore"):  # a q - p past the float range is refused
        return AffineMap(np.subtract(q, p)[:, None], p)


# each kind's fields with their readers, the map their values make, and the field a
# constructor's error is charged to (None: the field it names); the pair readers of
# the replaced kinds refuse non-finite numbers, the one check _functional and _times skip
_READERS = {
    **{kind: (tuple((k, read) for k, (read, _) in cls._fields), cls, None)
       for kind, cls in _KINDS.items()},
    "mobius_scalar": ((("z0", _pair),), lambda z0: MobiusMap(-1.0, z0), "z0"),
    "mobius_quotient": ((("a_abs", _real), ("theta", _real)),
                        lambda a_abs, theta: MobiusMap(_rotation(theta), a_abs), "a_abs"),
    "line_embed": ((("p", _pairs), ("q", _pairs)), _line_embed, "q"),
    "linear_functional": ((("u", _pairs),), _functional, "u"),
    "scalar_times_vector": ((("beta", _pairs),), _times, "beta"),
    "affine_scalar": ((("r", _pair), ("c", _pair)), lambda r, c: AffineMap([[r]], [c]), "r"),
}


def _parse(doc, path) -> HoloMap:
    """The map of a document at ``path``, by its kind's row of ``_READERS``."""
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    row = _READERS.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise SchemaError(f"{path}/kind", f"unknown kind {kind!r}")
    fields, build, charge = row
    _expect_object(doc, path, ("kind", *dict(fields)))
    args = [read(doc[k], f"{path}/{k}") for k, read in fields]
    try:
        return build(*args)
    except InputError as e:
        field = charge or e.field
        raise SchemaError(path if field is None else f"{path}/{field}", str(e)) from e


def parse_spec(doc) -> HoloMap:
    """Build a map from its (already JSON-decoded) document."""
    return _parse(doc, "")


def emit_spec(f: HoloMap) -> dict:
    """Serialize a map to its document; inverse of ``parse_spec``."""
    return f.to_spec()
