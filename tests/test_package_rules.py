"""The package-wide rules: integer and real arguments, result JSON and the
public names the package re-exports."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holoball
from holoball import (
    BoundReport,
    CampaignReport,
    Diagnosis,
    DiskSlice,
    ExtremalSpec,
    FuzzConfig,
    GradResult,
    InputError,
    PolyMap,
    diagnose_equality_form,
    extremal_zero_case,
    force_zero_at,
    gen_random_polymap,
    mod_grad_fd,
    sample_ball_points,
    sample_unit_sphere,
    sp_bound,
    sp_bound_slice,
    sphere_rows,
)

IDENTITY = PolyMap.identity(1)
WITNESS = extremal_zero_case(ExtremalSpec.zero([0.0], [1.0], [1.0]))
POLY = gen_random_polymap(2, 2, 3, 0.25, 1)
FUZZ_INTS = ("trials", "points_per_trial", "n", "m", "max_degree", "fd_dirs", "seed")

# each call takes a bool where an integer belongs, or a bool or a string
# where a real belongs
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
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_bools_and_strings_are_not_numbers(call):
    with pytest.raises(InputError):
        call()


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
    FuzzConfig(**{k: np.int64(getattr(FuzzConfig(), k)) for k in FUZZ_INTS},
               margin=np.float32(0.25), tol=np.float64(1e-9)).validate()


# -- result JSON -------------------------------------------------------------

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
