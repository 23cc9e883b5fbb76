"""The package-wide rules: integer, real and complex array arguments, result
JSON and the public names the package re-exports."""

import ast
import importlib
import json
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holoball
from holoball import (
    AffineMap,
    BoundReport,
    CampaignReport,
    Diagnosis,
    DiskSlice,
    ExtremalSpec,
    FuzzConfig,
    GradResult,
    InputError,
    MobiusMap,
    Pipeline,
    PolyMap,
    as_cvector,
    bound_factor,
    diagnose_equality_form,
    disk_slice,
    equality_gap,
    extremal_nonzero_case,
    extremal_zero_case,
    force_zero_at,
    gen_random_polymap,
    herm_inner,
    mod_grad,
    mod_grad_fd,
    mod_grad_fd_many,
    sample_ball_points,
    sample_unit_sphere,
    sp_bound,
    sp_bound_many,
    sp_bound_slice,
    spectral_norm,
    sphere_rows,
    vector_to_pairs,
    vnorm,
)
from holoball import errors, holomap

IDENTITY = PolyMap.identity(1)
WITNESS = extremal_zero_case(ExtremalSpec.zero([0.0], [1.0], [1.0]))
POLY = gen_random_polymap(2, 2, 3, 0.25, 1)
FUZZ_INTS = ("trials", "points_per_trial", "n", "m", "max_degree", "fd_dirs", "seed")

# each call takes a bool where an integer belongs, a bool or a string where
# a real belongs, or something else than a bool where a bool belongs
REFUSED = {
    **{f"FuzzConfig({k}=True)": lambda k=k: FuzzConfig(**{k: True}).validate() for k in FUZZ_INTS},
    "sample_unit_sphere(n=True)": lambda: sample_unit_sphere(True, 3, 0),
    "sample_unit_sphere(count=True)": lambda: sample_unit_sphere(2, True, 0),
    "sample_unit_sphere(seed=True)": lambda: sample_unit_sphere(2, 3, True),
    "sphere_rows(n=True)": lambda: sphere_rows(True, 3, [0]),
    "sphere_rows(count=True)": lambda: sphere_rows(2, True, [0]),
    "sphere_rows(seeds=[True])": lambda: sphere_rows(2, 3, [True]),
    "sample_ball_points(n=True)": lambda: sample_ball_points(True, 3, 0),
    "sample_ball_points(count=True)": lambda: sample_ball_points(2, True, 0),
    "sample_ball_points(seed=True)": lambda: sample_ball_points(2, 3, True),
    "gen_random_polymap(n=True)": lambda: gen_random_polymap(True, 2, 3, 0.25, 1),
    "gen_random_polymap(m=True)": lambda: gen_random_polymap(2, True, 3, 0.25, 1),
    "gen_random_polymap(max_degree=True)": lambda: gen_random_polymap(2, 2, True, 0.25, 1),
    "gen_random_polymap(seed=True)": lambda: gen_random_polymap(2, 2, 3, 0.25, True),
    "PolyMap(n=True)": lambda: PolyMap(True, 1, {(1,): [0.5]}),
    "PolyMap(m=True)": lambda: PolyMap(1, True, {(1,): [0.5]}),
    "mod_grad_fd(dirs=True)": lambda: mod_grad_fd(IDENTITY, 0.5, dirs=True),
    "mod_grad_fd(seed=True)": lambda: mod_grad_fd(IDENTITY, 0.5, seed=True),
    "diagnose(samples=True)": lambda: diagnose_equality_form(WITNESS, [0.0], [0.5], samples=True),
    **{
        f"{name}(tol={tol!r})": call
        for tol in (True, "1e-9")
        for name, call in (
            ("sp_bound", lambda tol=tol: sp_bound(IDENTITY, 0.5, tol=tol)),
            ("FuzzConfig", lambda tol=tol: FuzzConfig(tol=tol).validate()),
            ("diagnose", lambda tol=tol: diagnose_equality_form(WITNESS, [0.0], [0.5], tol=tol)),
        )
    },
    "gen_random_polymap(margin='0.5')": lambda: gen_random_polymap(2, 2, 3, "0.5", 1),
    "force_zero_at(margin='0.5')": lambda: force_zero_at(POLY, [0.1, 0.2], "0.5"),
    "FuzzConfig(margin='0.5')": lambda: FuzzConfig(margin="0.5").validate(),
    "sp_bound_slice(r='0.5')": lambda: sp_bound_slice(IDENTITY, 0.25, 0.0, "0.5"),
    **{
        f"FuzzConfig(pin_counterexample={v!r})":
            lambda v=v: FuzzConfig(trials=0, fd_dirs=0, pin_counterexample=v).validate()
        for v in ("no", None, 1)
    },
}
# the map constructor refusals among them, with the field each names
REFUSED_FIELDS = {"PolyMap(n=True)": "n", "PolyMap(m=True)": "m"}


@pytest.mark.parametrize("call, field", [(call, REFUSED_FIELDS.get(name))
                                         for name, call in REFUSED.items()], ids=REFUSED.keys())
def test_bools_and_strings_are_not_numbers(call, field):
    with pytest.raises(InputError) as exc:
        call()
    assert exc.value.field == field


# the integer check's message at each of its bounds
INTEGER_MESSAGES = {
    "mod_grad_fd(dirs=63)": (lambda: mod_grad_fd(IDENTITY, 0.5, dirs=63),
                             "dirs must be an integer >= 64"),
    "diagnose(samples=1)": (lambda: diagnose_equality_form(WITNESS, [0.0], [0.5], samples=1),
                            "samples must be an integer >= 2"),
    "FuzzConfig(trials=-1)": (lambda: FuzzConfig(trials=-1).validate(),
                              "trials must be a non-negative integer"),
    "FuzzConfig(trials=1.0)": (lambda: FuzzConfig(trials=1.0).validate(),
                               "trials must be a non-negative integer"),
    "FuzzConfig(fd_dirs=8)": (lambda: FuzzConfig(fd_dirs=8).validate(),
                              "fd_dirs must be 0 (disabled) or at least 64"),
    "sample_unit_sphere(count=0)": (lambda: sample_unit_sphere(2, 0, 1),
                                    "count must be a positive integer"),
    "gen_random_polymap(seed='1')": (lambda: gen_random_polymap(2, 2, 3, 0.25, "1"),
                                     "seed must be an integer"),
    "PolyMap(n=2**59)": (lambda: PolyMap(2**59, 1, {}), f"n = {2**59} is too large"),
}


@pytest.mark.parametrize("call, message", INTEGER_MESSAGES.values(), ids=INTEGER_MESSAGES.keys())
def test_integer_refusals_name_their_bound(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


# each call takes a bool or a string where a real or complex scalar belongs;
# a map constructor names the field, where a document's SchemaError points
SCALARS = {
    "MobiusMap(b='0.5')": (lambda: MobiusMap(1.0, "0.5"), "b"),
    "MobiusMap(M=True)": (lambda: MobiusMap(True, 0.5), "M"),
    "MobiusMap(b='0.3+0.1j')": (lambda: MobiusMap(-1.0, "0.3+0.1j"), "b"),
    "MobiusMap(M='1j')": (lambda: MobiusMap("1j", 0.5), "M"),
    "MobiusMap(b=True)": (lambda: MobiusMap(-1.0, True), "b"),
    "ExtremalSpec.nonzero(theta='0.7')":
        (lambda: ExtremalSpec.nonzero([0.0], [1.0], [0.5], "0.7"), None),
    "sp_bound_slice(c='0.1')": (lambda: sp_bound_slice(IDENTITY, 0.25, "0.1", 0.5), None),
}


@pytest.mark.parametrize("call, field", SCALARS.values(), ids=SCALARS.keys())
def test_bools_and_strings_are_not_scalars(call, field):
    with pytest.raises(InputError) as exc:
        call()
    assert exc.value.field == field


def test_numpy_integers_and_floats_are_numbers():
    assert np.array_equal(sample_unit_sphere(np.int64(2), np.int32(3), np.uint64(7)),
                          sample_unit_sphere(2, 3, 7))
    assert np.array_equal(sphere_rows(np.int16(2), np.uint8(3), [np.int64(5)]),
                          sphere_rows(2, 3, [5]))
    assert np.array_equal(sample_ball_points(np.int64(2), np.int64(4), np.uint32(1)),
                          sample_ball_points(2, 4, 1))
    f = gen_random_polymap(np.int64(2), np.int8(2), np.int64(3), np.float64(0.25), np.int64(1))
    assert holoball.emit_spec(f) == holoball.emit_spec(POLY)
    assert PolyMap(np.int64(1), np.int32(1), {(1,): [0.5]}).n == 1
    assert (mod_grad_fd(IDENTITY, 0.5, dirs=np.int64(64), seed=np.uint64(3))
            == mod_grad_fd(IDENTITY, 0.5, dirs=64, seed=3))
    assert sp_bound(IDENTITY, 0.5, tol=np.float32(1e-9)).holds
    assert sp_bound(IDENTITY, 0.5, tol=np.int64(1)).holds
    a = sp_bound_slice(IDENTITY, 0.25, 0.0, np.float64(0.5))
    assert a.to_dict() == sp_bound_slice(IDENTITY, 0.25, 0.0, 0.5).to_dict()
    d = diagnose_equality_form(WITNESS, [0.0], [0.5], samples=np.int64(8), tol=np.float64(1e-10))
    assert d.matches and d.points_tested == 8
    assert MobiusMap(np.int64(-1), np.complex64(0.5 + 0.25j)).b == 0.5 + 0.25j
    assert MobiusMap(np.float32(0.5), np.int64(0)).to_spec() == MobiusMap(0.5, 0.0).to_spec()
    affine = AffineMap(np.array([[2]]), np.array([0.25j], dtype=np.complex64))
    assert (affine.M[0, 0], affine.b[0]) == (2.0, 0.25j)
    assert ExtremalSpec.nonzero([0.0], [1.0], [0.5], np.float64(0.7)).theta == 0.7
    assert (sp_bound_slice(IDENTITY, 0.25, np.complex128(0.1), 0.5).to_dict()
            == sp_bound_slice(IDENTITY, 0.25, 0.1, 0.5).to_dict())
    FuzzConfig(**{k: np.int64(getattr(FuzzConfig(), k)) for k in FUZZ_INTS},
               margin=np.float32(0.25), tol=np.float64(1e-9),
               pin_counterexample=np.bool_(True)).validate()
    # arrays and lists of numpy numbers read as the same complex128 values
    z = np.array([0.5, -0.25j])
    for w in (np.array([0.5, -0.25j], np.complex64), [np.float32(0.5), np.complex64(-0.25j)]):
        assert POLY.eval(w).tobytes() == POLY.eval(z).tobytes()
        assert sp_bound(POLY, w).to_dict() == sp_bound(POLY, z).to_dict()
        assert as_cvector(w).tobytes() == z.tobytes()
    x = np.array([0.5, 0.25])
    for w in (x.astype(np.float32), [np.float32(0.5), np.float64(0.25)]):
        assert POLY.eval_many([w]).tobytes() == POLY.eval_many([x.astype(complex)]).tobytes()
        assert disk_slice(w, [0.0, 0.5]).to_dict() == disk_slice(x, [0.0, 0.5]).to_dict()
    M = np.array([[3, -4]], dtype=np.complex128)
    for N in (M.real.astype(np.int8), [[np.int8(3), np.int64(-4)]], M.astype(np.complex64)):
        assert AffineMap(N, [np.int8(1)]).M.tobytes() == AffineMap(M, [1.0 + 0j]).M.tobytes()
        assert spectral_norm(N).direction.tobytes() == spectral_norm(M).direction.tobytes()
        assert vnorm(N[0]) == vnorm(M[0]) == 5.0
        c = PolyMap.from_arrays(1, 2, np.array([[1]], np.int8), N)._coefs
        assert c.tobytes() == PolyMap(1, 2, {(1,): M[0]})._coefs.tobytes()
    assert vector_to_pairs(np.float32(0.5)) == vector_to_pairs(0.5 + 0j) == [[0.5, 0.0]]
    assert sp_bound(IDENTITY, np.float32(0.5)).to_dict() == sp_bound(IDENTITY, 0.5).to_dict()


# -- complex array arguments -------------------------------------------------

WITNESS2 = extremal_zero_case(ExtremalSpec.zero([0.0, 0.0], [1.0, 0.0], [1.0]))


def _first(good, v):
    """The nested list ``good`` with its first entry replaced by ``v``."""
    return [_first(good[0], v), *good[1:]] if isinstance(good, list) else v


# each value is wrong for any complex array argument; "None" and "ragged
# list" also give the argument another shape
BAD_ARRAYS = {
    "string entry": lambda good: _first(good, "0.5"),
    "bool entry": lambda good: _first(good, True),
    "bool array": lambda good: np.zeros(np.shape(good), dtype=bool),
    "None": lambda good: None,
    "ragged list": lambda good: [[0.5, 0.25], [0.5]],
    "int past the float range": lambda good: _first(good, 2**1100),
}
# argument -> (call taking it, a value it accepts, the field a map
# constructor names, or for a reshaped value and for one, if it differs, the
# name a ragged value is refused under, or None where a term's message stays)
ARRAYS = {
    "eval(z)": (lambda v: POLY.eval(v), [0.1, 0.2], None, "points"),
    "eval_many(Z)": (lambda v: POLY.eval_many(v), [[0.1, 0.2]], None, "points"),
    "jac_many(Z)": (lambda v: POLY.jac_many(v), [[0.1, 0.2]], None, "points"),
    "eval_jac_many(Z)": (lambda v: POLY.eval_jac_many(v), [[0.1, 0.2]], None, "points"),
    "jacobian(z)": (lambda v: POLY.jacobian(v), [0.1, 0.2], None, "points"),
    "sp_bound(z)": (lambda v: sp_bound(POLY, v), [0.1, 0.2], None, "points"),
    "sp_bound_many(Z)": (lambda v: sp_bound_many(POLY, v), [[0.1, 0.2]], None, "points"),
    "sp_bound_slice(xi)": (lambda v: sp_bound_slice(IDENTITY, v, 0.0, 0.5), [0.25], None, "points"),
    "mod_grad(z)": (lambda v: mod_grad(POLY, v), [0.1, 0.2], None, "points"),
    "mod_grad_fd(z)": (lambda v: mod_grad_fd(POLY, v), [0.1, 0.2], None, "points"),
    "mod_grad_fd_many(Z)": (lambda v: mod_grad_fd_many(POLY, v, [0]), [[0.1, 0.2]], None, "points"),
    "equality_gap(p)": (lambda v: equality_gap(POLY, v), [0.1, 0.2], None, "points"),
    "force_zero_at(p)": (lambda v: force_zero_at(POLY, v, 0.25), [0.1, 0.2], None, "points"),
    "spectral_norm(M)": (lambda v: spectral_norm(v), [[3.0, 4.0]], None, "M"),
    "as_cvector(x)": (lambda v: as_cvector(v), [3.0, 4.0], None, "vector"),
    "vnorm(x)": (lambda v: vnorm(v), [3.0, 4.0], None, "x"),
    "herm_inner(x)": (lambda v: herm_inner(v, [0.5, 0.25]), [3.0, 4.0], None, "x"),
    "herm_inner(y)": (lambda v: herm_inner([0.5, 0.25], v), [3.0, 4.0], None, "y"),
    "vector_to_pairs(x)": (lambda v: vector_to_pairs(v), [3.0, 4.0], None, "vector"),
    "AffineMap(M)": (lambda v: AffineMap(v, [0.0]), [[0.5, 0.25]], "M", "M"),
    "AffineMap(b)": (lambda v: AffineMap([[0.5, 0.25]], v), [0.25], "b", "b"),
    "PolyMap(coef)": (lambda v: PolyMap(1, 1, {(1,): v}), [0.5], "terms/0/coef", None),
    # from_arrays refuses arrays of the wrong shape as a whole
    "PolyMap.from_arrays(coefs)":
        (lambda v: PolyMap.from_arrays(1, 2, [[1]], v), [[0.5, 0.25]], ("terms/0/coef", "terms"),
         None),
    "ExtremalSpec(p)": (lambda v: ExtremalSpec.zero(v, [1.0, 0.0], [1.0]), [0.1, 0.0], None, "p"),
    "ExtremalSpec(u)": (lambda v: ExtremalSpec.zero([0.1, 0.0], v, [1.0]), [1.0, 0.0], None, "u"),
    "ExtremalSpec(beta)":
        (lambda v: ExtremalSpec.zero([0.1, 0.0], [1.0, 0.0], v), [1.0, 0.0], None, "beta"),
    "ExtremalSpec(a)":
        (lambda v: ExtremalSpec.nonzero([0.1, 0.0], [1.0, 0.0], v, 0.5), [0.5, 0.0], None, "a"),
    "disk_slice(p)": (lambda v: disk_slice(v, [0.0, 0.5]), [0.1, 0.2], None, "p"),
    "disk_slice(q)": (lambda v: disk_slice([0.0, 0.5], v), [0.1, 0.2], None, "q"),
    "bound_factor(p)": (lambda v: bound_factor(v, [0.0, 0.5]), [0.1, 0.2], None, "p"),
    "diagnose(p)":
        (lambda v: diagnose_equality_form(WITNESS2, v, [0.5, 0.0]), [0.0, 0.0], None, "p"),
    "diagnose(q)":
        (lambda v: diagnose_equality_form(WITNESS2, [0.0, 0.0], v), [0.5, 0.0], None, "q"),
}


@pytest.mark.parametrize("name", ARRAYS)
def test_array_arguments_take_their_good_value(name):
    call, good, _, _ = ARRAYS[name]
    call(good)


@pytest.mark.parametrize("bad", BAD_ARRAYS)
@pytest.mark.parametrize("name", ARRAYS)
def test_array_entries_that_are_not_numbers_are_refused(name, bad):
    call, good, field, _ = ARRAYS[name]
    if isinstance(field, tuple):
        field = field[bad in ("None", "ragged list")]
    with pytest.raises(InputError) as exc:
        call(BAD_ARRAYS[bad](good))
    assert exc.value.field == field


@pytest.mark.parametrize("name", ARRAYS)
def test_a_ragged_array_is_refused_as_a_shape_fault(name):
    # a nesting of unequal lengths is not read as entries that are not numbers
    call, good, field, arg = ARRAYS[name]
    for ragged in ([[0.5, 0.25], [0.5]], [[[0.5, 0.25]], [[0.5]]], [np.zeros(2), np.zeros(3)]):
        with pytest.raises(InputError) as exc:
            call(ragged)
        if arg is not None:
            assert str(exc.value) == f"{arg} has sub-arrays of unequal shapes"
            assert exc.value.field == (field if isinstance(field, str) else None)


def test_an_entry_that_is_not_a_number_is_named_so():
    # "not a finite number" covers a string, a bool or None as well as NaN
    # and infinity, which alone "contains non-finite entries" named
    for call, name in [
        (lambda: vnorm(["3", "4"]), "x"),
        (lambda: sp_bound(IDENTITY, [True]), "points"),
        (lambda: spectral_norm([[None]]), "M"),
        (lambda: AffineMap([["1j"]], [0.0]), "M"),
        (lambda: as_cvector([0.5, np.nan], "p"), "p"),
    ]:
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == f"an entry of {name} is not a finite number"


# every refusal of a map constructor, with the field it names; the refusals
# in REFUSED and ARRAYS that are not a map constructor's name none
FIELDS = {
    "PolyMap(n=0)": (lambda: PolyMap(0, 1, {}), "n"),
    "PolyMap(m=2**59)": (lambda: PolyMap(1, 2**59, {}), "m"),
    "PolyMap(alpha)": (lambda: PolyMap(1, 1, {(-1,): [0.5]}), "terms/0/alpha"),
    "PolyMap(coef)": (lambda: PolyMap(1, 1, {(0,): [0.5], (1,): [0.5, 0.5]}), "terms/1/coef"),
    "PolyMap.from_arrays(n=0)": (lambda: PolyMap.from_arrays(0, 1, [[1]], [[0.5]]), "n"),
    "PolyMap.from_arrays(shape)": (lambda: PolyMap.from_arrays(1, 2, [[1]], None), "terms"),
    "PolyMap.from_arrays(T)":
        (lambda: PolyMap.from_arrays(1, 1, [[1], [2]], [[0.5]]), "terms"),
    "PolyMap.from_arrays(alpha)":
        (lambda: PolyMap.from_arrays(1, 1, [[1], [1.5]], [[0.5], [0.5]]), "terms/1/alpha"),
    "AffineMap(M shape)": (lambda: AffineMap([], [0.0]), "M"),
    "AffineMap(M entry)": (lambda: AffineMap([[np.inf]], [0.0]), "M"),
    "AffineMap(b shape)": (lambda: AffineMap([[0.5]], [0.0, 0.0]), "b"),
    "AffineMap(b entry)": (lambda: AffineMap([[0.5]], [np.nan]), "b"),
    "MobiusMap(b)": (lambda: MobiusMap(1.0, 1.0), "b"),
    "MobiusMap(M)": (lambda: MobiusMap(np.inf, 0.5), "M"),
    "Pipeline(no stage)": (lambda: Pipeline([]), "stages"),
    "Pipeline(stage)": (lambda: Pipeline([IDENTITY, "f"]), "stages"),
    "Pipeline(dimensions)": (lambda: Pipeline([POLY, IDENTITY]), "stages"),
    "line_embed(q)": (lambda: holomap._line_embed([0.5], [0.5, 0.0]), "q"),
    # a reader of a replaced kind charges its constructor's error to one field
    "mobius_quotient(a_abs)": (lambda: holomap._READERS["mobius_quotient"](
        {"kind": "mobius_quotient", "a_abs": 1.0, "theta": 0.0}, ""), "a_abs"),
}


@pytest.mark.parametrize("call, field", FIELDS.values(), ids=FIELDS.keys())
def test_map_constructors_name_the_faulty_field(call, field):
    with pytest.raises(InputError) as exc:
        call()
    assert type(exc.value) is InputError
    assert exc.value.field == field

VIOLATION = BoundReport(point=np.array([0.5 + 0.25j]), lhs=2.0, rhs=1.5, slack=-0.5,
                        holds=False, tol=1e-9, branch="zero")
SCHEMAS = [
    (GradResult(value=0.5, branch="nonzero", A=np.array([0.25 + 0.5j, -1.0])),
     '{"value": 0.5, "branch": "nonzero", "A": [[0.25, 0.5], [-1.0, 0.0]], "top_dir": null, '
     '"ambiguous": false, "alt_value": null}'),
    (GradResult(value=np.float64(1.5), branch="zero", top_dir=np.array([1j, 0.0]),
                ambiguous=np.bool_(True), alt_value=np.float64(1.25)),
     '{"value": 1.5, "branch": "zero", "A": null, "top_dir": [[0.0, 1.0], [0.0, 0.0]], '
     '"ambiguous": true, "alt_value": 1.25}'),
    (BoundReport(point=np.array([0.5, -0.25j]), lhs=1.0, rhs=2.0, slack=1.0, holds=True,
                 tol=1e-9, branch="nonzero"),
     '{"point": [[0.5, 0.0], [-0.0, -0.25]], "lhs": 1.0, "rhs": 2.0, "slack": 1.0, '
     '"holds": true, "branch": "nonzero"}'),
    (Diagnosis(matches=True, max_residual=1e-12, points_tested=64,
               fitted_beta=np.array([0.6, 0.8j])),
     '{"matches": true, "max_residual": 1e-12, "points_tested": 64, "fitted_theta": null, '
     '"fitted_a": null, "fitted_beta": [[0.6, 0.0], [0.0, 0.8]], "orthogonal_max": null}'),
    (Diagnosis(matches=np.bool_(False), max_residual=np.float64(0.125),
               points_tested=np.int64(8), fitted_theta=0.75,
               fitted_a=np.array([0.3 + 0.1j]), orthogonal_max=0.0),
     '{"matches": false, "max_residual": 0.125, "points_tested": 8, "fitted_theta": 0.75, '
     '"fitted_a": [[0.3, 0.1]], "fitted_beta": null, "orthogonal_max": 0.0}'),
    (DiskSlice(c=0.5 - 0.25j, r=2.0, p=np.array([0.1]), q=np.array([0.2]), collinear=True),
     '{"c": [0.5, -0.25], "r": 2.0}'),
    (CampaignReport(trials_run=np.int64(3), points_checked=np.int64(301),
                    violations=[VIOLATION], worst_slack=-math.inf,
                    oracle_max_dev=math.nan, fd_anomalies=np.int64(0),
                    fd_undecided=np.int64(2), runtime_ms=math.inf,
                    counterexample={"classical_lhs": 0.75, "rhs": 0.5,
                                    "classical_violated": True, "modulus_lhs": 0.0,
                                    "holds": True}),
     '{"trials_run": 3, "points_checked": 301, "violations": [{"point": [[0.5, 0.25]], '
     '"lhs": 2.0, "rhs": 1.5, "slack": -0.5, "holds": false, "branch": "zero"}], '
     '"worst_slack": -Infinity, "oracle_max_dev": NaN, "fd_anomalies": 0, "fd_undecided": 2, '
     '"runtime_ms": Infinity, "counterexample": {"classical_lhs": 0.75, "rhs": 0.5, '
     '"classical_violated": true, "modulus_lhs": 0.0, "holds": true}}'),
]


@pytest.mark.parametrize("result, text", SCHEMAS,
                         ids=[f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(SCHEMAS)])
def test_result_json_schema_is_pinned(result, text):
    assert json.dumps(result.to_dict()) == text


# every error class, and a constructor's error that names its field; a
# SchemaError takes a path and a message
ERRORS = [
    errors.SchemaError("/terms/0", "bad") if name == "SchemaError" else getattr(errors, name)("bad")
    for name in errors.__all__
] + [errors.SchemaError("", "bad"), InputError("b must be finite", field="b")]


@pytest.mark.parametrize("error", ERRORS, ids=repr)
def test_errors_survive_a_pickle_round_trip(error):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(error, protocol))
        assert type(back) is type(error)
        assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))
    assert getattr(back, "field", None) == getattr(error, "field", None)


# -- public names ------------------------------------------------------------

LIBRARY = [
    importlib.import_module(f"holoball.{m.name}")
    for m in pkgutil.iter_modules(holoball.__path__)
    if m.name not in ("cli", "__main__")
]


def test_package_exports_every_module_public_name():
    public = [name for module in LIBRARY for name in module.__all__]
    assert len(public) == len(set(public)), "two modules export the same name"
    assert set(holoball.__all__) == {"__version__", *public}
    assert len(holoball.__all__) == len(set(holoball.__all__))
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(holoball, name) is getattr(module, name), (module.__name__, name)


def test_importing_the_package_loads_no_command_line():
    src = str(Path(holoball.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = "import sys, holoball; print('holoball.cli' in sys.modules, 'argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _assigned(tree, name):
    """The literal value assigned to ``name`` at the top of a module."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned")


def _hb_chains(tree):
    """Each attribute chain ``hb.a.b`` in a module, as its names."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "hb":
            chains.add(tuple(names))
    return chains


def test_every_name_the_benchmark_looks_up_exists():
    # the tracer wraps functions by module and attribute name, and methods of
    # the map classes by name; the workloads call hb.<name>
    tracer = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    spans = _assigned(tracer, "FUNCTION_SPANS")
    assert spans
    for _, module, attr in spans:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    methods = _assigned(tracer, "METHOD_SPANS")
    assert methods and set(methods) <= set(vars(holoball.HoloMap))
    workloads = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    assert "import holoball as hb" in ast.unparse(workloads)
    chains = _hb_chains(workloads)
    assert chains
    for chain in chains:
        obj = holoball
        for name in chain:
            assert hasattr(obj, name), "hb." + ".".join(chain)
            obj = getattr(obj, name)
