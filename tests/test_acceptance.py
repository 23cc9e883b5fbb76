"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Each test prints ``[criterion k] PASS/FAIL: ...`` through a
capture-disabled fixture so the line shows up in a normal pytest run,
then asserts. Tolerances are fixed here and are not derived from the code
under test.
"""

import itertools
import time

import numpy as np
import pytest

from holoball import (
    ExtremalSpec,
    FuzzConfig,
    MobiusMap,
    AffineMap,
    Pipeline,
    bound_factor,
    counterexample_map,
    disk_slice,
    extremal_nonzero_case,
    extremal_zero_case,
    equality_gap,
    diagnose_equality_form,
    force_zero_at,
    fuzz_campaign,
    gen_random_polymap,
    mod_grad,
    mod_grad_fd,
    sample_ball_points,
    sp_bound,
)
from holoball.complexcore import spectral_norm

DIMS = tuple(itertools.product((1, 2, 3, 4), repeat=2))


_capfd = None


@pytest.fixture(autouse=True)
def _stash_capture(capfd):
    global _capfd
    _capfd = capfd
    yield
    _capfd = None


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    with _capfd.disabled():
        print(line, flush=True)


def test_criterion_1_randomized_bound_checks():
    t0 = time.perf_counter()
    maps = points = violations = 0
    worst = np.inf
    for n, m in DIMS:
        cfg = FuzzConfig(trials=63, points_per_trial=100, n=n, m=m, max_degree=4,
                         margin=0.25, seed=1000 + 16 * n + m, tol=1e-9, fd_dirs=0)
        rep = fuzz_campaign(cfg)
        maps += rep.trials_run
        points += rep.points_checked
        violations += len(rep.violations)
        worst = min(worst, rep.worst_slack)
    dt = time.perf_counter() - t0
    ok = violations == 0 and points >= 100_000
    report(1, ok, f"{violations} violations in {points} bound checks "
                  f"({maps} maps, dims 1..4, degree <= 4, tol 1e-9, "
                  f"worst slack {worst:.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_2_closed_form_vs_finite_differences():
    max_dev = 0.0
    zero_branch = 0
    checked = 0
    for k in range(480):
        n, m = DIMS[k % 16]
        f = gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=9000 + k)
        pts = sample_ball_points(n, 10, seed=9500 + k)
        for i in range(10):
            g = mod_grad(f, pts[i])
            fd = mod_grad_fd(f, pts[i], seed=9900 + 10 * k + i)
            max_dev = max(max_dev, abs(g.value - fd))
            zero_branch += g.branch == "zero"
            checked += 1
    for j in range(200):
        n, m = DIMS[j % 16]
        f = gen_random_polymap(n, m, max_degree=4, margin=0.25, seed=12000 + j)
        p = sample_ball_points(n, 1, seed=12500 + j)[0]
        f0 = force_zero_at(f, p, margin=0.25)
        g = mod_grad(f0, p)
        fd = mod_grad_fd(f0, p, seed=12900 + j)
        max_dev = max(max_dev, abs(g.value - fd))
        zero_branch += g.branch == "zero"
        checked += 1
    ok = checked == 5000 and max_dev <= 1e-4 and zero_branch >= 100
    report(2, ok, f"closed form vs FD oracle max dev {max_dev:.2e} <= 1e-4 "
                  f"on {checked} (map, point) pairs, {zero_branch} zero-branch (>= 100)")
    assert ok


def test_criterion_3_counterexample_to_the_classical_form():
    f = counterexample_map()
    z = np.zeros(1, dtype=np.complex128)
    classical = spectral_norm(f.jacobian(z)).value
    rep = sp_bound(f, z)
    excess = classical - rep.rhs
    camp = fuzz_campaign(FuzzConfig(trials=0, fd_dirs=0, pin_counterexample=True))
    ce = camp.counterexample
    ok = (excess > 0.2 and rep.lhs == 0.0 and rep.holds
          and ce["classical_violated"] and ce["holds"])
    report(3, ok, f"classical lhs {classical:.6f} exceeds rhs {rep.rhs:.6f} "
                  f"by {excess:.6f} (> 0.2) while modulus gradient {rep.lhs:.1f} "
                  f"satisfies the bound")
    assert ok


def _ball_draw(rng, n, rmax=0.85):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.sqrt((np.abs(v) ** 2).sum()) * rng.uniform(0.05, rmax)


def test_criterion_4_slice_geometry():
    rng = np.random.default_rng(41)
    angles = np.exp(2j * np.pi * np.arange(256) / 256)
    max_boundary = 0.0
    interior = 0
    for k in range(500):
        n = 1 + k % 4
        p, q = _ball_draw(rng, n), _ball_draw(rng, n)
        ds = disk_slice(p, q)
        line = ds.line()
        bvals = line.eval_many((ds.c + ds.r * angles)[:, None])
        dev = np.abs(np.sqrt((np.abs(bvals) ** 2).sum(axis=1)) - 1.0).max()
        max_boundary = max(max_boundary, dev)
        zs = ds.c + ds.r * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        ivals = line.eval_many(zs[:, None])
        interior += int((np.sqrt((np.abs(ivals) ** 2).sum(axis=1)) < 1.0).sum())
    ok = max_boundary <= 1e-12 and interior == 500 * 200
    report(4, ok, f"500 slices: max boundary deviation {max_boundary:.2e} <= 1e-12, "
                  f"{interior}/100000 interior samples inside the ball")
    assert ok


def test_criterion_5_bound_factor():
    rng = np.random.default_rng(51)

    def draw_pair(n):
        while True:
            p, q = _ball_draw(rng, n), _ball_draw(rng, n)
            if np.abs(q - p).max() > 1e-6:
                return p, q

    over = 0
    for k in range(10_000):
        p, q = draw_pair(1 + k % 4)
        bf = bound_factor(p, q)
        if bf.factor > bf.rhs * (1 + 1e-12) + 1e-15:
            over += 1

    eq_dev = 0.0
    for k in range(1000):
        n = 1 + k % 4
        p = _ball_draw(rng, n, rmax=0.6)
        q = p * (1.0 + rng.uniform(0.05, 0.5))
        bf = bound_factor(p, q)
        eq_dev = max(eq_dev, abs(bf.factor - bf.rhs))

    min_gap = np.inf
    kept = 0
    while kept < 1000:
        p, q = draw_pair(2 + kept % 3)
        np_, d = np.sqrt((np.abs(p) ** 2).sum()), q - p
        nd = np.sqrt((np.abs(d) ** 2).sum())
        if np_ < 0.2:
            continue
        defect = 1.0 - abs(np.vdot(d, p)) / (np_ * nd)
        if defect < 1e-3:
            continue
        bf = bound_factor(p, q)
        min_gap = min(min_gap, bf.rhs - bf.factor)
        kept += 1

    ok = over == 0 and eq_dev <= 1e-12 and min_gap >= 1e-9
    report(5, ok, f"factor <= bound on 10000 pairs ({over} over); collinear max dev "
                  f"{eq_dev:.2e} <= 1e-12 (1000 pairs); min gap {min_gap:.2e} >= 1e-9 "
                  f"at defect >= 1e-3 (1000 pairs)")
    assert ok


def test_criterion_6_equality_witnesses():
    rng = np.random.default_rng(61)
    witness_dims = ((1, 1), (2, 2), (3, 4), (4, 4))
    max_gap = 0.0
    max_theta_dev = 0.0
    witnesses = 0
    all_hold = all_match = True
    seed = itertools.count(6100)

    def check(f, p, u, pnorm, theta=None):
        nonlocal max_gap, max_theta_dev, witnesses, all_hold, all_match
        witnesses += 1
        max_gap = max(max_gap, abs(equality_gap(f, p)))
        pts = sample_ball_points(len(p), 100, next(seed))
        all_hold &= all(sp_bound(f, pts[i]).holds for i in range(100))
        q = p + 0.5 * (1.0 - pnorm) * u
        d = diagnose_equality_form(f, p, q)
        all_match &= d.matches
        if theta is not None:
            dev = abs(np.exp(1j * d.fitted_theta) - np.exp(1j * theta))
            max_theta_dev = max(max_theta_dev, dev)

    for n, m in witness_dims:
        for pnorm in (0.0, 0.3, 0.7, 0.9):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u /= np.sqrt((np.abs(u) ** 2).sum())
            p = pnorm * u
            beta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            beta /= np.sqrt((np.abs(beta) ** 2).sum())
            check(extremal_zero_case(ExtremalSpec.zero(p, u, beta)), p, u, pnorm)
            for anorm in (0.2, 0.5, 0.8):
                adir = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                adir /= np.sqrt((np.abs(adir) ** 2).sum())
                for theta in (0.0, np.pi / 3.0, np.pi):
                    f = extremal_nonzero_case(
                        ExtremalSpec.nonzero(p, u, anorm * adir, theta))
                    check(f, p, u, pnorm, theta)

    ok = (witnesses == 160 and max_gap <= 1e-12 and all_hold and all_match
          and max_theta_dev <= 1e-10)
    report(6, ok, f"{witnesses} witnesses: max equality gap {max_gap:.2e} <= 1e-12, "
                  f"bound holds at 100 points each ({all_hold}), diagnose matches "
                  f"({all_match}), theta recovered within {max_theta_dev:.2e} <= 1e-10")
    assert ok


def test_criterion_7_one_dim_specializations_and_automorphisms():
    rng = np.random.default_rng(71)
    max_slack = 0.0
    for _ in range(20):
        z0 = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        omega = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        f = Pipeline([MobiusMap(-1.0, z0), AffineMap([[omega]], [0.0])])
        for _ in range(100):
            z = complex(rng.uniform(-0.65, 0.65), rng.uniform(-0.65, 0.65))
            max_slack = max(max_slack, abs(sp_bound(f, [z]).slack))

    max_scalar = max_vector = 0.0
    for k in range(5):
        f1 = gen_random_polymap(1, 1, max_degree=4, margin=0.2, seed=7100 + k)
        f3 = gen_random_polymap(1, 3, max_degree=4, margin=0.2, seed=7200 + k)
        pts = sample_ball_points(1, 20, seed=7300 + k)
        for i in range(20):
            z = pts[i]
            g1 = mod_grad(f1, z)
            max_scalar = max(max_scalar, abs(g1.value - abs(f1.jacobian(z)[0, 0])))
            g3 = mod_grad(f3, z)
            assert g3.branch == "nonzero"
            v, J = f3.eval(z), f3.jacobian(z)
            direct = abs(np.vdot(v, J[:, 0])) / np.sqrt((np.abs(v) ** 2).sum())
            max_vector = max(max_vector, abs(g3.value - direct))

    ok = max_slack <= 1e-12 and max_scalar <= 1e-13 and max_vector <= 1e-13
    report(7, ok, f"20 disk automorphisms x 100 points: max |slack| {max_slack:.2e} "
                  f"<= 1e-12; 1-D specializations max dev "
                  f"{max(max_scalar, max_vector):.2e} <= 1e-13")
    assert ok


def test_criterion_8_campaign_determinism(tmp_path):
    t0 = time.perf_counter()
    log1, log2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    rep1 = fuzz_campaign(FuzzConfig(), log1)
    rep2 = fuzz_campaign(FuzzConfig(), log2)
    dt = time.perf_counter() - t0
    b1, b2 = log1.read_bytes(), log2.read_bytes()
    records = b1.count(b"\n")
    ok = (b1 == b2 and records == 100_000 and rep1.violations == []
          and rep2.violations == [] and rep1.worst_slack == rep2.worst_slack)
    report(8, ok, f"two default campaigns byte-identical JSONL "
                  f"({records} records each, 0 violations, {dt:.1f}s)")
    assert ok
