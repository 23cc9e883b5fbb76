"""Random map generation, ball sampling, and campaign determinism."""

import itertools
import json
import math
import os
import stat

import numpy as np
import pytest

from holoball import (
    CampaignReport,
    FuzzConfig,
    InputError,
    PolyMap,
    counterexample_map,
    emit_spec,
    force_zero_at,
    fuzz_campaign,
    gen_random_polymap,
    mod_grad,
    mod_grad_fd,
    mod_grad_fd_many,
    sample_ball_points,
    sp_bound,
    sp_bound_many,
    vnorm,
)
from holoball import harness
from holoball.harness import (
    FD_ANOMALY_TOL,
    _absorb,
    _mix,
    _mix_range,
    _multi_indices,
    _record_lines,
)
from holoball.schwarzpick import FD_STEPS, _bound_batch, _BoundBatch


def l1_certificate(f):
    rows = np.zeros(f.m)
    for coef in f.terms.values():
        rows += np.abs(np.asarray(coef))
    return float(np.sqrt((rows**2).sum()))


def test_generated_maps_carry_containment_certificate():
    for seed in range(20):
        f = gen_random_polymap(2, 3, max_degree=3, margin=0.25, seed=seed)
        assert l1_certificate(f) <= 0.75
        # the certificate really does contain the closed ball
        pts = sample_ball_points(2, 50, seed=seed + 1000)
        vals = f.eval_many(pts)
        assert (np.sqrt((np.abs(vals) ** 2).sum(axis=1)) <= 0.75).all()


def test_generation_is_deterministic():
    f = gen_random_polymap(2, 2, max_degree=3, margin=0.25, seed=42)
    g = gen_random_polymap(2, 2, max_degree=3, margin=0.25, seed=42)
    assert f.terms.keys() == g.terms.keys()
    for alpha, c1 in f.terms.items():
        assert np.array_equal(c1, g.terms[alpha])
    h = gen_random_polymap(2, 2, max_degree=3, margin=0.25, seed=43)
    assert any(
        not np.array_equal(c1, h.terms[alpha]) for alpha, c1 in f.terms.items()
    )


def test_generation_validation():
    with pytest.raises(InputError):
        gen_random_polymap(0, 2, max_degree=3, margin=0.25, seed=1)
    with pytest.raises(InputError):
        gen_random_polymap(2, 2, max_degree=-1, margin=0.25, seed=1)
    with pytest.raises(InputError):
        gen_random_polymap(2, 2, max_degree=3, margin=0.0, seed=1)
    with pytest.raises(InputError):
        gen_random_polymap(2, 2, max_degree=3, margin=1.0, seed=1)


def test_force_zero_preserves_certificate():
    f = gen_random_polymap(2, 2, max_degree=3, margin=0.25, seed=7)
    p = np.array([0.3, -0.2 + 0.1j])
    g = force_zero_at(f, p, margin=0.25)
    assert np.abs(g.eval(p)).max() <= 1e-14
    assert l1_certificate(g) <= 0.75
    assert mod_grad(g, p).branch == "zero"


def test_ball_sampling_moments_and_determinism():
    for n in (1, 2, 3):
        pts = sample_ball_points(n, 10_000, seed=5)
        norms = np.sqrt((np.abs(pts) ** 2).sum(axis=1))
        assert norms.max() <= 0.999
        # E|z|^2 = n/(n+1) for the uniform ball in C^n (real dim 2n)
        assert (norms**2).mean() == pytest.approx(n / (n + 1.0), rel=0.02)
    a = sample_ball_points(2, 100, seed=9)
    b = sample_ball_points(2, 100, seed=9)
    assert np.array_equal(a, b)
    with pytest.raises(InputError):
        sample_ball_points(0, 10, seed=1)
    with pytest.raises(InputError):
        sample_ball_points(2, 0, seed=1)


def test_counterexample_map_values():
    f = counterexample_map()
    s = 1.0 / np.sqrt(2.0)
    assert np.abs(f.eval(0.0) - np.array([0.0, s])).max() == 0.0
    assert np.array_equal(f.jacobian(0.0), np.array([[s], [0.0]]))


def test_config_validation():
    with pytest.raises(InputError):
        FuzzConfig(trials=-1).validate()
    with pytest.raises(InputError):
        FuzzConfig(margin=1.0).validate()
    with pytest.raises(InputError):
        FuzzConfig(fd_dirs=3).validate()
    with pytest.raises(InputError):
        FuzzConfig(points_per_trial=0).validate()
    with pytest.raises(InputError, match="tol must be a positive real"):
        FuzzConfig(tol=10**400).validate()
    FuzzConfig().validate()


def test_empty_campaign():
    rep = fuzz_campaign(FuzzConfig(trials=0, fd_dirs=0))
    assert rep.trials_run == 0
    assert rep.points_checked == 0
    assert rep.worst_slack is None
    d = rep.to_dict()
    assert d["worst_slack"] is None
    assert d["oracle_max_dev"] is None
    assert d["violations"] == []


def test_small_campaign_records_are_auditable(tmp_path):
    cfg = FuzzConfig(trials=3, points_per_trial=20, fd_dirs=0, seed=11)
    log = tmp_path / "run.jsonl"
    rep = fuzz_campaign(cfg, log)
    assert rep.trials_run == 3
    assert rep.points_checked == 60
    assert rep.violations == []
    assert rep.worst_slack > 0.0
    assert rep.oracle_max_dev is None
    lines = log.read_text().splitlines()
    assert len(lines) == 60
    # every record reproduces from the documented seed derivation
    rec = json.loads(lines[41])
    trial, idx = 2, 1
    assert rec["trial"] == trial
    f = gen_random_polymap(cfg.n, cfg.m, cfg.max_degree, cfg.margin, _mix(cfg.seed, trial, 0))
    pts = sample_ball_points(cfg.n, cfg.points_per_trial, _mix(cfg.seed, trial, 1))
    check = sp_bound(f, pts[idx], cfg.tol)
    assert rec["lhs"] == check.lhs
    assert rec["rhs"] == check.rhs
    assert rec["slack"] == check.slack
    assert rec["branch"] == check.branch
    assert rec["fd"] is None
    assert rec["fd_dev"] is None
    assert list(rec) == ["trial", "point", "lhs", "rhs", "slack", "branch", "fd", "fd_dev"]


def test_fd_campaign_records_are_replayable(tmp_path):
    cfg = FuzzConfig(trials=2, points_per_trial=15, fd_dirs=64, seed=19)
    log = tmp_path / "fd.jsonl"
    rep = fuzz_campaign(cfg, log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == rep.points_checked == 30
    for trial in range(cfg.trials):
        f = gen_random_polymap(cfg.n, cfg.m, cfg.max_degree, cfg.margin, _mix(cfg.seed, trial, 0))
        pts = sample_ball_points(cfg.n, cfg.points_per_trial, _mix(cfg.seed, trial, 1))
        for idx in range(cfg.points_per_trial):
            rec = records[trial * cfg.points_per_trial + idx]
            fd = mod_grad_fd(f, pts[idx], cfg.fd_dirs, seed=_mix(cfg.seed, trial, 2, idx))
            check = sp_bound(f, pts[idx], cfg.tol)
            assert rec["trial"] == trial
            assert rec["fd"] == fd
            assert rec["fd_dev"] == abs(check.lhs - fd)
            assert (rec["lhs"], rec["rhs"], rec["slack"]) == (check.lhs, check.rhs, check.slack)


def test_campaign_log_is_byte_identical(tmp_path):
    cfg = FuzzConfig(trials=2, points_per_trial=10, fd_dirs=0, seed=3)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    fuzz_campaign(cfg, p1)
    fuzz_campaign(cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fd_oracle_in_campaign(tmp_path):
    cfg = FuzzConfig(trials=1, points_per_trial=5, fd_dirs=64, seed=13)
    log = tmp_path / "fd.jsonl"
    rep = fuzz_campaign(cfg, log)
    assert rep.oracle_max_dev is not None
    assert rep.oracle_max_dev <= 1e-4
    assert rep.fd_anomalies == 0
    for line in log.read_text().splitlines():
        rec = json.loads(line)
        assert rec["fd"] is not None
        assert rec["fd_dev"] == pytest.approx(abs(rec["lhs"] - rec["fd"]), abs=0.0)


def test_points_near_a_zero_are_fd_undecided():
    p = 0.5 * sample_ball_points(2, 1, seed=41)[0]
    f = force_zero_at(gen_random_polymap(2, 2, 3, 0.25, seed=42), p, 0.25)
    # the forced zero itself (zero branch, never undecided), 6 points 1e-5
    # from it, then 4 far from it
    near = sample_ball_points(2, 6, seed=43)
    near = p + 1e-5 * near / np.linalg.norm(near, axis=1, keepdims=True)
    zs = np.concatenate([[p], near, sample_ball_points(2, 4, seed=44)])
    b = _bound_batch(f, zs, 1e-9)
    assert b.zero.tolist() == [True] + [False] * 10
    want = sum(sp_bound(f, z).branch == "nonzero"
               and vnorm(f.eval(z)) < 10 * FD_STEPS[0] * np.linalg.norm(f.jacobian(z))
               for z in zs)
    assert want == 6
    for fds, count in ((None, None), (mod_grad_fd_many(f, zs, range(11)), want)):
        rep = CampaignReport(trials_run=0, points_checked=0,
                             fd_undecided=None if fds is None else 0)
        _absorb(rep, b, fds)
        assert rep.fd_undecided == rep.to_dict()["fd_undecided"] == count


def test_default_campaign_has_no_fd_undecided_points():
    assert fuzz_campaign(FuzzConfig()).fd_undecided == 0
    assert fuzz_campaign(FuzzConfig(trials=1, fd_dirs=0)).fd_undecided is None


def test_pinned_counterexample_record(tmp_path):
    cfg = FuzzConfig(trials=1, points_per_trial=5, fd_dirs=0, seed=2,
                     pin_counterexample=True)
    log = tmp_path / "pin.jsonl"
    rep = fuzz_campaign(cfg, log)
    assert rep.points_checked == 6
    ce = rep.counterexample
    assert ce["classical_lhs"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert ce["rhs"] == pytest.approx(0.5, abs=1e-15)
    assert ce["classical_violated"] is True
    assert ce["modulus_lhs"] == 0.0
    assert ce["holds"] is True
    first = json.loads(log.read_text().splitlines()[0])
    assert first["trial"] == -1
    assert first["lhs"] == 0.0


def test_pinned_record_is_trial_minus_one_of_the_campaign(tmp_path):
    # the witness's point is off the zero set, so the FD oracle reads only
    # the real axes there; its direction seed is still the trial -1 one
    cfg = FuzzConfig(trials=1, points_per_trial=3, seed=23, pin_counterexample=True)
    log = tmp_path / "pin.jsonl"
    fuzz_campaign(cfg, log)
    rec = json.loads(log.read_text().splitlines()[0])
    f, z = counterexample_map(), np.zeros(1)
    seed = _mix_range((cfg.seed, -1, 2), 1)
    assert seed.tolist() == [_mix(cfg.seed, -1, 2, 0)]
    check = sp_bound(f, z, cfg.tol)
    fd = mod_grad_fd(f, z, cfg.fd_dirs, seed=int(seed[0]))
    assert rec["trial"] == -1
    assert (rec["lhs"], rec["rhs"], rec["slack"], rec["branch"]) == (
        check.lhs, check.rhs, check.slack, check.branch)
    assert rec["fd"] == fd
    assert rec["fd_dev"] == abs(check.lhs - fd)


@pytest.mark.parametrize("seed", [1.5, 2.0, "1", None])
def test_non_integer_seeds_are_rejected(seed):
    # 1.5 used to run as seed 1
    with pytest.raises(InputError, match="seed must be an integer"):
        gen_random_polymap(2, 2, 3, 0.25, seed)
    with pytest.raises(InputError, match="seed must be an integer"):
        sample_ball_points(2, 4, seed)


def test_integer_seeds_keep_their_draws():
    f = gen_random_polymap(2, 2, 3, 0.25, 1)
    for seed in (np.int64(1), np.uint32(1)):
        assert emit_spec(gen_random_polymap(2, 2, 3, 0.25, seed)) == emit_spec(f)
        assert np.array_equal(sample_ball_points(2, 4, seed), sample_ball_points(2, 4, 1))


def test_mix_is_a_stable_hash():
    assert _mix(1, 2, 3) == _mix(1, 2, 3)
    assert _mix(1, 2, 3) != _mix(1, 2, 4)
    assert _mix(0) != _mix(1)
    assert 0 <= _mix(20250817, 999, 2, 99) < 2**63


def test_mix_range_equals_per_point_mix():
    rng = np.random.default_rng(5)
    cases = [(20250817, 999), (0, 0), (-7, -1), (2**64 + 3, 2**70)]
    cases += [(int(rng.integers(0, 2**63)), int(rng.integers(0, 10**6))) for _ in range(8)]
    for seed, trial in cases:
        got = _mix_range((seed, trial, 2), 1000)
        assert got.dtype == np.uint64
        assert got.tolist() == [_mix(seed, trial, 2, idx) for idx in range(1000)]


def record_lines_reference(trial, b, fds):
    """One ``json.dumps`` call per record, as the reference for the log."""
    lines = []
    for i in range(b.lhs.shape[0]):
        fd = None if fds is None else float(fds[i])
        rec = {
            "trial": trial,
            "point": [[float(z.real), float(z.imag)] for z in b.points[i]],
            "lhs": float(b.lhs[i]),
            "rhs": float(b.rhs[i]),
            "slack": float(b.slack[i]),
            "branch": "zero" if b.zero[i] else "nonzero",
            "fd": fd,
            "fd_dev": None if fd is None else abs(float(b.lhs[i]) - fd),
        }
        lines.append(json.dumps(rec) + "\n")
    return "".join(lines)


# every spelling json gives a float: non-finite, signed zero, subnormal, and
# both sides of the switch from positional to exponent notation
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-05, 1e16, 1e22]


def special_batch(n):
    """A hand-built batch, and FD readings for it, in which every float field
    runs through all of ``SPECIAL_FLOATS``; the rows alternate branches."""
    k = len(SPECIAL_FLOATS)

    def col(j):
        return np.array([SPECIAL_FLOATS[(i + j) % k] for i in range(k)])

    points = np.empty((k, n), dtype=np.complex128)
    points.real = np.column_stack([col(2 * j) for j in range(n)])
    points.imag = np.column_stack([col(2 * j + 1) for j in range(n)])
    b = _BoundBatch(
        points=points,
        values=np.zeros((k, 1), dtype=np.complex128),
        jacobians=np.zeros((k, 1, n), dtype=np.complex128),
        lhs=col(1),
        rhs=col(2),
        slack=col(3),
        holds=np.ones(k, dtype=bool),
        zero=np.arange(k) % 2 == 1,
        tol=1e-9,
    )
    return b, col(4)


def test_record_lines_equal_per_record_dumps():
    batches = []
    for n, m in [(1, 2), (2, 3), (3, 1), (4, 2)]:
        f = gen_random_polymap(n, m, max_degree=3, margin=0.25, seed=4 + n)
        pts = sample_ball_points(n, 12, seed=6 + n)
        seeds = _mix_range((1, n, 2), 12)
        g = force_zero_at(f, pts[4], 0.25)
        assert _bound_batch(g, pts, 1e-9).zero[4]
        batches += [
            (3, _bound_batch(g, pts, 1e-9), None),
            (2, _bound_batch(g, pts, 1e-9), mod_grad_fd_many(g, pts, seeds)),
            (0, _bound_batch(f, pts, 1e-9), mod_grad_fd_many(f, pts, seeds)),
            (1, _bound_batch(f, pts[:1], 1e-9), None),
        ]
    ce = counterexample_map()
    zero = np.zeros((1, 1), dtype=np.complex128)
    batches += [
        (-1, _bound_batch(ce, zero, 1e-9), mod_grad_fd_many(ce, zero, [5])),
        (-1, _bound_batch(ce, zero, 1e-9), None),
    ]
    for n in range(1, 5):
        b, fds = special_batch(n)
        batches += [(7, b, fds), (7, b, None)]
    for trial, b, fds in batches:
        assert _record_lines(trial, b, fds) == record_lines_reference(trial, b, fds)


def test_special_batch_spells_every_float_in_every_field():
    b, fds = special_batch(2)
    spellings = {json.dumps(v) for v in SPECIAL_FLOATS}
    assert spellings == {
        "NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e-05", "1e+16", "1e+22"
    }
    records = [json.loads(line) for line in _record_lines(7, b, fds).splitlines()]
    fields = [[r[key] for r in records] for key in ("lhs", "rhs", "slack", "fd")]
    fields += [[r["point"][j][k] for r in records] for j in range(2) for k in range(2)]
    for values in fields:
        assert {json.dumps(v) for v in values} == spellings


# -- the log is rewritten in place -------------------------------------------

SMALL = FuzzConfig(trials=5, points_per_trial=4, seed=31)


def test_log_over_a_longer_file_equals_a_fresh_log(tmp_path):
    fresh, old = tmp_path / "fresh.jsonl", tmp_path / "old.jsonl"
    fuzz_campaign(SMALL, fresh)
    fuzz_campaign(FuzzConfig(trials=20, points_per_trial=4, seed=32), old)
    assert old.stat().st_size > fresh.stat().st_size
    inode = old.stat().st_ino
    fuzz_campaign(SMALL, old)
    assert old.read_bytes() == fresh.read_bytes()
    assert old.stat().st_ino == inode


def test_raising_campaign_leaves_the_lines_it_wrote(tmp_path, monkeypatch):
    log = tmp_path / "run.jsonl"
    fuzz_campaign(FuzzConfig(trials=20, points_per_trial=4, seed=32), log)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("trial 3 fails")
        return mod_grad_fd_many(*args, **kwargs)

    monkeypatch.setattr(harness, "mod_grad_fd_many", failing)
    with pytest.raises(RuntimeError, match="trial 3 fails"):
        fuzz_campaign(SMALL, log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["trial"] for r in records] == [0] * 4 + [1] * 4 + [2] * 4
    monkeypatch.undo()
    fresh = tmp_path / "fresh.jsonl"
    fuzz_campaign(FuzzConfig(trials=3, points_per_trial=4, seed=31), fresh)
    assert log.read_bytes() == fresh.read_bytes()


def test_log_to_dev_null():
    rep = fuzz_campaign(SMALL, os.devnull)
    assert rep.points_checked == 20
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_symlinked_log_rewrites_its_target(tmp_path):
    target, link, fresh = tmp_path / "target.jsonl", tmp_path / "link.jsonl", tmp_path / "f.jsonl"
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    fuzz_campaign(SMALL, link)
    fuzz_campaign(SMALL, fresh)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_existing_log_keeps_its_mode(tmp_path):
    log = tmp_path / "run.jsonl"
    log.write_text("x" * 100_000)
    log.chmod(0o640)
    fuzz_campaign(SMALL, log)
    assert stat.S_IMODE(log.stat().st_mode) == 0o640
    assert len(log.read_text().splitlines()) == 20


# -- array-built maps and array-read campaigns against per-term references ---


def dict_polymap(n, m, max_degree, margin, seed):
    """The generator built term by term through a dict, as the reference."""
    alphas = [
        a for a in itertools.product(range(max_degree + 1), repeat=n) if sum(a) <= max_degree
    ]
    rng = np.random.default_rng(_mix(seed))
    raw = rng.standard_normal((len(alphas), m)) + 1j * rng.standard_normal((len(alphas), m))
    cert = float(np.sqrt(((np.abs(raw).sum(axis=0)) ** 2).sum()))
    scale = (1.0 - margin) / cert * (1.0 - 1e-13)
    return PolyMap(n, m, dict(zip(alphas, raw * scale)))


def dict_force_zero(f, p, margin):
    terms = f.terms
    zero_alpha = (0,) * f.n
    const = terms.get(zero_alpha, np.zeros(f.m, dtype=np.complex128)).copy()
    const -= f.eval(p)
    terms[zero_alpha] = const
    mat = np.array(list(terms.values()), dtype=np.complex128)
    cert = float(np.sqrt(((np.abs(mat).sum(axis=0)) ** 2).sum()))
    scale = (1.0 - margin) / cert * (1.0 - 1e-13)
    return PolyMap(f.n, f.m, {a: c * scale for a, c in terms.items()})


def assert_same_terms(f, g):
    assert np.array_equal(f._alphas, g._alphas)
    assert np.array_equal(f._coefs, g._coefs)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
def test_generated_arrays_equal_dict_reference(n, m):
    for seed in (0, 1000 + 16 * n + m):
        assert_same_terms(
            gen_random_polymap(n, m, 4, 0.25, seed), dict_polymap(n, m, 4, 0.25, seed)
        )


def test_multi_indices_are_cached_read_only():
    a = _multi_indices(3, 4)
    assert a is _multi_indices(3, 4)
    assert a.shape == (35, 3) and a.dtype == np.int64
    assert not a.flags.writeable
    with pytest.raises(InputError):
        gen_random_polymap(2.0, 2, max_degree=3, margin=0.25, seed=1)
    with pytest.raises(InputError):
        gen_random_polymap(2, 2, max_degree=3.0, margin=0.25, seed=1)


@pytest.mark.parametrize("n", range(1, 7))
def test_multi_indices_equal_the_filtered_product(n):
    for d in range(6):
        rows = [a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d]
        a = _multi_indices(n, d)
        assert a.dtype == np.int64
        assert np.array_equal(a, np.array(rows, dtype=np.int64))


def test_multi_indices_grow_with_their_count_not_with_the_cube():
    # the filtered product would walk 4^24 tuples for these 2925 rows
    a = _multi_indices(24, 3)
    assert a.shape == (math.comb(27, 3), 24) == (2925, 24)
    assert (a.sum(axis=1) <= 3).all()


def test_force_zero_equals_dict_reference():
    p = np.array([0.2, 0.1j])
    f = gen_random_polymap(2, 3, max_degree=3, margin=0.25, seed=5)
    assert_same_terms(force_zero_at(f, p, 0.3), dict_force_zero(f, p, 0.3))
    # no constant term: the reference sums it last in the certificate
    g = PolyMap(2, 2, {(1, 0): [0.3, 0.1j], (0, 2): [0.2, -0.1]})
    assert_same_terms(force_zero_at(g, p, 0.25), dict_force_zero(g, p, 0.25))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (4, 2)])
def test_force_zero_keeps_the_plan_of_a_generated_map(n, m):
    f = gen_random_polymap(n, m, max_degree=3, margin=0.25, seed=60 + n + m)
    p = sample_ball_points(n, 1, seed=61)[0]
    g = force_zero_at(f, p, 0.3)
    assert g._plan is f._plan and not g._coefs.flags.writeable
    # bit for bit the map the constructor builds from the shifted terms
    coefs = f._coefs.copy()
    coefs[0] -= f.eval(p)
    ref = PolyMap.from_arrays(n, m, f._alphas, harness._certified(coefs, 0.3))
    assert g._coefs.tobytes() == ref._coefs.tobytes()
    assert emit_spec(g) == emit_spec(ref)
    for B in (1, 7, 100, 1400):
        zs = sample_ball_points(n, B, seed=B)
        for got, want in zip(g.eval_jac_many(zs), ref.eval_jac_many(zs)):
            assert got.tobytes() == want.tobytes()
        assert g._value(zs).tobytes() == ref._value(zs).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_force_zero_refuses_a_shift_that_is_not_finite(n):
    f = gen_random_polymap(n, 2, max_degree=3, margin=0.25, seed=62)
    coefs = f._coefs.copy()
    coefs[0] = np.inf
    with pytest.raises(InputError) as want:
        PolyMap.from_arrays(n, 2, f._alphas, coefs)
    # f overflows far outside the ball, and its value there is the shift
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InputError) as got:
        force_zero_at(f, [1e120] * n, 0.25)
    assert type(got.value) is InputError and got.value.field == "terms/0/coef"
    assert (str(got.value), got.value.field) == (str(want.value), want.value.field)


def absorb_reference(report, rep, fd):
    """The per-point campaign aggregate, as the reference."""
    report.points_checked += 1
    if report.worst_slack is None or rep.slack < report.worst_slack:
        report.worst_slack = rep.slack
    if not rep.holds:
        report.violations.append(rep)
    if fd is not None:
        dev = abs(rep.lhs - fd)
        if report.oracle_max_dev is None or dev > report.oracle_max_dev:
            report.oracle_max_dev = dev
        if fd > rep.lhs + FD_ANOMALY_TOL:
            report.fd_anomalies += 1


def unitary_for(seeds):
    """A map generator that returns a unitary map of C^2 for the given
    seeds. A unitary map attains equality everywhere, so a tiny tol turns
    its rounding-level negative slacks into violations."""

    def gen(n, m, max_degree, margin, seed):
        if seed in seeds:
            c, s = np.cos(0.7), np.sin(0.7)
            return PolyMap(2, 2, {(1, 0): [c, s * 1j], (0, 1): [s * 1j, c]})
        return gen_random_polymap(n, m, max_degree, margin, seed)

    return gen


@pytest.mark.parametrize("fd_dirs", [0, 64])
def test_campaign_report_equals_per_point_loop(monkeypatch, fd_dirs):
    cfg = FuzzConfig(trials=4, points_per_trial=30, n=2, m=2, seed=23, tol=1e-300,
                     fd_dirs=fd_dirs, pin_counterexample=True)
    gen = unitary_for({_mix(cfg.seed, t, 0) for t in (1, 3)})
    monkeypatch.setattr(harness, "gen_random_polymap", gen)
    got = fuzz_campaign(cfg)

    want = CampaignReport(trials_run=cfg.trials, points_checked=0)
    ce = counterexample_map()
    zero = np.zeros(1, dtype=np.complex128)
    fd = None
    if fd_dirs:
        fd = mod_grad_fd(ce, zero, cfg.fd_dirs, seed=_mix(cfg.seed, 0xCE))
    ce_rep = sp_bound(ce, zero, cfg.tol)
    absorb_reference(want, ce_rep, fd)
    for trial in range(cfg.trials):
        seed = _mix(cfg.seed, trial, 0)
        f = gen(cfg.n, cfg.m, cfg.max_degree, cfg.margin, seed)
        pts = sample_ball_points(cfg.n, cfg.points_per_trial, _mix(cfg.seed, trial, 1))
        seeds = [_mix(cfg.seed, trial, 2, idx) for idx in range(cfg.points_per_trial)]
        fds = mod_grad_fd_many(f, pts, seeds, cfg.fd_dirs) if fd_dirs else None
        for idx, rep in enumerate(sp_bound_many(f, pts, cfg.tol)):
            absorb_reference(want, rep, None if fds is None else float(fds[idx]))

    assert want.violations, "the unitary trials must give violations"
    assert got.trials_run == want.trials_run
    assert got.points_checked == want.points_checked == 1 + 4 * 30
    assert got.worst_slack == want.worst_slack
    assert got.oracle_max_dev == want.oracle_max_dev
    assert got.fd_anomalies == want.fd_anomalies
    assert [v.to_dict() for v in got.violations] == [v.to_dict() for v in want.violations]
    assert [v.tol for v in got.violations] == [v.tol for v in want.violations]
    assert all(isinstance(v.slack, float) and isinstance(v.holds, bool) for v in got.violations)
    assert type(got.worst_slack) is float
    assert (got.counterexample["modulus_lhs"], got.counterexample["rhs"]) == (ce_rep.lhs, ce_rep.rhs)
    assert got.counterexample["holds"] is ce_rep.holds is True


@pytest.mark.parametrize(
    "bad",
    [
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": 0.0},
        {"n": 2.0},
        {"m": 2.0},
        {"points_per_trial": 2.5},
        {"trials": 1.5},
        {"max_degree": 3.0},
        {"fd_dirs": 64.0},
        {"seed": 1.5},
    ],
    ids=lambda d: next(iter(d)),
)
def test_bad_config_raises_before_the_log_is_touched(tmp_path, bad):
    log = tmp_path / "keep.jsonl"
    log.write_bytes(b"earlier run\n")
    with pytest.raises(InputError):
        fuzz_campaign(FuzzConfig(**{"trials": 2, "points_per_trial": 5, **bad}), log)
    assert log.read_bytes() == b"earlier run\n"
