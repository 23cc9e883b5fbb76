"""Command line behavior: output JSON, exit codes, and error reporting.

Exit codes: 0 clean, 1 mathematical finding (violated bound, form
mismatch, campaign violation), 2 usage or input error.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoball
from holoball import (
    PolyMap,
    counterexample_map,
    disk_slice,
    emit_spec,
    mod_grad,
    parse_spec,
    sp_bound,
)
from holoball.cli import _build_parser, run
from holoball.schwarzpick import DEFAULT_BOUND_TOL


def write_map(tmp_path, f, name="map.json"):
    path = tmp_path / name
    path.write_text(json.dumps(emit_spec(f)))
    return str(path)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_grad_identity(tmp_path, capsys):
    path = write_map(tmp_path, PolyMap.identity(2))
    code = run(["grad", "--map", path, "--point", "0,0;0,0"])
    rec = out_json(capsys)
    assert code == 0
    assert rec["value"] == pytest.approx(1.0, abs=1e-12)
    assert rec["branch"] == "zero"
    assert rec["ambiguous"] is False


def test_grad_output_is_the_library_record(tmp_path, capsys):
    f = PolyMap.from_scalar_coeffs([0.1, 0.5, 0.0, 0.2])
    path = write_map(tmp_path, f)
    code = run(["grad", "--map", path, "--point", "0.3,-0.1"])
    captured = capsys.readouterr().out
    z = np.array([0.3 - 0.1j])
    assert captured == json.dumps(mod_grad(f, z).to_dict()) + "\n"
    assert code == 0


def test_bound_counterexample_holds(tmp_path, capsys):
    path = write_map(tmp_path, counterexample_map())
    code = run(["bound", "--map", path, "--point", "0,0"])
    rec = out_json(capsys)
    assert code == 0
    assert rec["holds"] is True
    assert rec["lhs"] == 0.0
    assert rec["rhs"] == pytest.approx(0.5, abs=1e-15)


def test_bound_violation_exits_one(tmp_path, capsys):
    # 2z leaves the ball, and at 0.4 the bound fails: lhs 2, rhs < 1
    path = write_map(tmp_path, PolyMap.from_scalar_coeffs([0.0, 2.0]))
    code = run(["bound", "--map", path, "--point", "0.4,0"])
    rec = out_json(capsys)
    assert code == 1
    assert rec["holds"] is False
    assert rec["lhs"] == pytest.approx(2.0, abs=1e-12)
    assert rec["rhs"] == pytest.approx((1 - 0.64) / (1 - 0.16), abs=1e-12)


def test_bound_outside_target_ball_is_an_error(tmp_path, capsys):
    path = write_map(tmp_path, PolyMap.from_scalar_coeffs([0.0, 2.0]))
    code = run(["bound", "--map", path, "--point", "0.6,0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_tol_outside_the_positive_reals_is_an_error(tmp_path, capsys, tol):
    # a NaN tol once passed the check and read every point as violated
    path = write_map(tmp_path, PolyMap.from_scalar_coeffs([0.0, 0.5]))
    for argv in (["bound", "--map", path, "--point", "0.1,0"],
                 ["diagnose", "--map", path, "--p", "0,0", "--q", "0.5,0"],
                 ["fuzz", "--trials", "1"]):
        assert run(argv + ["--tol", tol]) == 2
        assert "tol must be a positive real" in capsys.readouterr().err


def test_grad_where_the_map_overflows_is_an_input_error(tmp_path):
    # 0.5 z^3 overflows at 1e120: one error line and exit 2, no numpy warning
    path = write_map(tmp_path, PolyMap.from_scalar_coeffs([0.0, 0.0, 0.0, 0.5]))
    proc = _python_m("holoball", "grad", "--map", path, "--point", "1e120,0")
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: map value is not finite at the point\n")


def test_bound_where_the_derivative_overflows_is_an_input_error(tmp_path):
    # a constant last stage, whose chain-rule product at 1e-311 is 0 * inf:
    # one error line and exit 2, not a NaN verdict, no numpy warning
    doc = {"kind": "pipeline", "stages": [
        {"kind": "mobius", "M": [1e308, 0.0], "b": [0.0, 0.0]},
        {"kind": "affine", "M": [[[10.0, 0.0]]], "b": [[0.0, 0.0]]},
        {"kind": "affine", "M": [[[0.0, 0.0]]], "b": [[0.5, 0.0]]},
    ]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    proc = _python_m("holoball", "bound", "--map", str(path), "--point", "1e-311,0")
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: map derivative is not finite at the point\n")


def test_bad_map_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["grad", "--map", str(path), "--point", "0,0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["grad", "--map", str(tmp_path / "missing.json"), "--point", "0,0"]) == 2


def test_oversized_multi_index_is_a_schema_error(tmp_path, capsys):
    # a bad document exits 2, never 1 (the "bound violated" code)
    doc = {"kind": "poly", "n": 1, "m": 1, "terms": [{"alpha": [10**30], "coef": [[0.5, 0]]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run(["bound", "--map", str(path), "--point", "0.1,0"]) == 2
    assert "error: /terms/0/alpha:" in capsys.readouterr().err


def test_huge_exponent_is_a_schema_error(tmp_path, capsys):
    # a valid-looking exponent past MAX_DEGREE is rejected when the document
    # is read, instead of failing to allocate its power table at the point
    doc = {"kind": "poly", "n": 2, "m": 1, "terms": [{"alpha": [2**40, 0], "coef": [[0.5, 0]]}]}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    assert run(["bound", "--map", str(path), "--point", "0.1,0;0,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /terms/0/alpha: ")
    assert err.count("\n") == 1


def test_unexpected_failure_exits_2(tmp_path, capsys, monkeypatch):
    # exit 1 means a verdict; any other failure is an error, exit 2
    path = write_map(tmp_path, PolyMap.identity(1))

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(holoball.cli, "sp_bound", out_of_memory)
    assert run(["bound", "--map", path, "--point", "0.1,0"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 16.0 TiB\n"


@st.composite
def poly_documents_with_large_exponents(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    exponent = st.one_of(st.integers(0, 8), st.integers(1000, 1100), st.integers(0, 2**62))
    alphas = draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=4, unique=True))
    coef = [[0.1, 0.0]] * m
    return {"kind": "poly", "n": n, "m": m,
            "terms": [{"alpha": list(a), "coef": coef} for a in alphas]}


@settings(max_examples=60, deadline=None)
@given(poly_documents_with_large_exponents())
def test_large_exponents_never_escape_the_exit_codes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("deg") / "map.json"
    path.write_text(json.dumps(doc))
    point = ";".join(["0.1,0"] * doc["n"])
    assert run(["bound", "--map", str(path), "--point", point]) in (0, 1, 2)


def test_bad_point_string(tmp_path, capsys):
    path = write_map(tmp_path, PolyMap.identity(1))
    assert run(["grad", "--map", path, "--point", "0.1,oops"]) == 2
    assert "error:" in capsys.readouterr().err


def _joined(argv):
    """``--flag value`` pairs whose value starts with ``-`` as ``--flag=value``."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def test_vector_values_may_start_with_minus(tmp_path, capsys):
    path = write_map(tmp_path, PolyMap.from_scalar_coeffs([0.1, 0.5, 0.0, 0.2]))
    calls = [
        ["bound", "--map", path, "--point", "-0.3,0.1"],
        ["grad", "--map", path, "--point", "-0.3,-0.1"],
        ["slice", "--p", "-0.5,0;0,0", "--q", "-0.1,0.5;0,0"],
        ["extremal", "--case", "zero", "--p", "-0.5,0", "--u", "-1,0", "--beta", "-1,0"],
        ["extremal", "--case", "nonzero", "--p", "-0.2,0", "--u", "-1,0",
         "--a", "-0.5,0", "--theta", "-1.0"],
    ]
    for argv in calls:
        assert run(argv) == 0, argv
        spaced = capsys.readouterr().out
        assert run(_joined(argv)) == 0
        assert capsys.readouterr().out == spaced
    f = parse_spec(json.loads(spaced))
    assert f.eval(-0.2)[0] == pytest.approx(-0.5, abs=1e-15)


def test_any_flag_value_may_start_with_minus(capsys):
    # a real in exponent form after a flag that takes no vector
    argv = ["extremal", "--case", "nonzero", "--p", "0.3,0", "--u", "1,0", "--a", "0.5,0"]
    assert run([*argv, "--theta", "-1e-3"]) == 0
    spaced = capsys.readouterr().out
    assert run([*argv, "--theta=-0.001"]) == 0
    assert capsys.readouterr().out == spaced
    f = parse_spec(json.loads(spaced))
    assert f.stages[2].M == np.exp(-1e-3j)


def _python_m(module, *args):
    src = str(Path(holoball.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["holoball", "holoball.cli"])
def test_python_dash_m_runs_the_command(tmp_path, module):
    path = write_map(tmp_path, counterexample_map())
    proc = _python_m(module, "bound", "--map", path, "--point", "-0.25,0")
    assert proc.returncode == 0, proc.stderr
    z = np.array([-0.25 + 0.0j])
    assert proc.stdout == json.dumps(sp_bound(counterexample_map(), z).to_dict()) + "\n"
    proc = _python_m(module)
    assert proc.returncode == 2
    assert "usage: holoball" in proc.stderr


def test_slice_matches_library(capsys):
    code = run(["slice", "--p", "0.5,0;0,0", "--q", "0,0.5;0,0"])
    captured = capsys.readouterr().out
    ds = disk_slice([0.5, 0.0], [0.5j, 0.0])
    assert captured == json.dumps(ds.to_dict()) + "\n"
    assert code == 0


def test_extremal_zero_round_trip(tmp_path, capsys):
    code = run(["extremal", "--case", "zero", "--p", "0.5,0;0,0",
                "--u", "1,0;0,0", "--beta", "1,0"])
    assert code == 0
    spec = out_json(capsys)
    f = parse_spec(spec)
    rep = sp_bound(f, np.array([0.5, 0.0]))
    assert abs(rep.slack) <= 1e-12


def test_extremal_nonzero_round_trip(tmp_path, capsys):
    code = run(["extremal", "--case", "nonzero", "--p", "0,0", "--u", "1,0",
                "--a", "0.5,0", "--theta", "0.0"])
    assert code == 0
    f = parse_spec(out_json(capsys))
    assert f.eval(0.0)[0] == pytest.approx(0.5, abs=1e-15)
    assert abs(sp_bound(f, np.zeros(1)).slack) <= 1e-13


def test_extremal_missing_parameter(capsys):
    assert run(["extremal", "--case", "nonzero", "--p", "0,0", "--u", "1,0",
                "--a", "0.5,0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["extremal", "--case", "zero", "--p", "0,0", "--u", "1,0"]) == 2


def test_diagnose_witness(tmp_path, capsys):
    run(["extremal", "--case", "zero", "--p", "0.5,0;0,0",
         "--u", "1,0;0,0", "--beta", "1,0"])
    spec = out_json(capsys)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(spec))
    code = run(["diagnose", "--map", str(path), "--p", "0.5,0;0,0",
                "--q", "0.75,0;0,0"])
    rec = out_json(capsys)
    assert code == 0
    assert rec["matches"] is True
    assert rec["max_residual"] <= 1e-10


def test_diagnose_mismatch_exits_one(tmp_path, capsys):
    path = write_map(tmp_path, PolyMap.from_scalar_coeffs([0.0, -1.0, 1e-3]))
    code = run(["diagnose", "--map", path, "--p", "0,0", "--q", "0.5,0"])
    rec = out_json(capsys)
    assert code == 1
    assert rec["matches"] is False


def test_fuzz_smoke(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    code = run(["fuzz", "--trials", "2", "--points", "5", "--fd-dirs", "0",
                "--seed", "77", "--out", str(log)])
    rec = out_json(capsys)
    assert code == 0
    assert rec["trials_run"] == 2
    assert rec["points_checked"] == 10
    assert rec["violations"] == []
    assert len(log.read_text().splitlines()) == 10


def test_fuzz_pinned_counterexample(capsys):
    code = run(["fuzz", "--trials", "0", "--fd-dirs", "0", "--pin-counterexample"])
    rec = out_json(capsys)
    assert code == 0
    assert rec["points_checked"] == 1
    assert rec["counterexample"]["classical_violated"] is True
    assert rec["counterexample"]["holds"] is True


def test_fuzz_flag_defaults_are_the_config_defaults(monkeypatch, capsys):
    seen = []

    def campaign(cfg, log_path=None):
        seen.append((cfg, log_path))
        return holoball.CampaignReport(trials_run=0, points_checked=0)

    monkeypatch.setattr("holoball.cli.fuzz_campaign", campaign)
    assert run(["fuzz"]) == 0
    assert seen == [(holoball.FuzzConfig(), None)]
    assert run(["fuzz", "--points", "7"]) == 0
    assert seen[1][0] == holoball.FuzzConfig(points_per_trial=7)
    args = _build_parser().parse_args(["bound", "--map", "-", "--point", "0,0"])
    assert args.tol == DEFAULT_BOUND_TOL


def test_diagnose_flag_defaults_are_the_library_defaults(tmp_path, monkeypatch, capsys):
    params = inspect.signature(holoball.diagnose_equality_form).parameters
    seen = []

    def diagnose(f, p, q, samples, tol):
        seen.append((samples, tol))
        return holoball.Diagnosis(matches=True, max_residual=0.0, points_tested=samples)

    monkeypatch.setattr("holoball.cli.diagnose_equality_form", diagnose)
    path = write_map(tmp_path, PolyMap.identity(1))
    assert run(["diagnose", "--map", path, "--p", "0,0", "--q", "0.5,0"]) == 0
    assert seen == [(params["samples"].default, params["tol"].default)]


def test_fuzz_log_to_dev_null(capsys):
    code = run(["fuzz", "--trials", "2", "--points", "5", "--out", os.devnull])
    rec = out_json(capsys)
    assert code == 0
    assert rec["points_checked"] == 10


def test_fuzz_rejects_bad_config(capsys):
    assert run(["fuzz", "--trials", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
