"""Randomized stress harness: certified map generation, ball sampling, and
deterministic fuzz campaigns with a JSONL audit log.

Generated polynomial maps carry an l1 containment certificate: after the
global rescale, ``sum_k (sum_alpha |c_{k,alpha}|)^2 <= (1 - margin)^2``,
which forces ``|f(z)| <= 1 - margin`` on the closed ball since every
monomial has modulus at most 1 there. The maps of one (n, max_degree) share
a template: the term plan of ``_multi_indices``, validated once by
``PolyMap.from_arrays`` and cached. Each map is built on it from its
certified coefficients alone, bit for bit the map ``from_arrays`` gives,
as ``force_zero_at`` builds its map on the plan of its argument.

Campaigns derive one sub-seed per (trial, purpose, point) by splitmix64
hashing of the config seed, so trials are independent and the whole run is
reproducible; identical configs produce byte-identical JSONL (the summary's
``runtime_ms`` is the only non-deterministic output). A trial is checked in
one batch: the array core of ``sp_bound_many`` over its sampled points,
which pass in without a second validation, and one ``mod_grad_fd_many``
call when the oracle is on. Each point keeps its own direction seed
``_mix(seed, trial, 2, idx)`` (derived for the whole trial as one uint64
array); the seed keys the sampled directions in ``complexcore.sphere_rows``
that the oracle uses only at points on or near the zero set of f, where it
cannot differentiate along the real axes. The aggregate and the log lines
are read off the result arrays. A trial's lines are spelled from one float
matrix and one row template per branch, byte for byte what ``json.dumps``
gives each record, and the log is rewritten in place: opened without
truncation, written from its start and cut to the written length on exit
(a regular file only), so an existing file keeps its inode, mode and links.
Since row i of a batch equals the point checked alone, every record can be
re-derived with ``sp_bound`` and ``mod_grad_fd``. Each log line is

    {"trial": int, "point": [[re, im], ...], "lhs": real, "rhs": real,
     "slack": real, "branch": "zero"|"nonzero", "fd": real, "fd_dev": real}

with ``fd`` fields null when the finite-difference oracle is disabled. The
pinned witness (the map ``(z, 1)/sqrt(2)`` at 0, where the classical
derivative bound fails while the modulus-gradient bound holds) runs through
the same loop as trial -1, ahead of the random trials: one point with
direction seed ``_mix(seed, -1, 2, 0)``, logged with trial index -1.
"""

from __future__ import annotations

import functools
import itertools
import os
import stat
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .complexcore import (_GOLDEN, _integer, _positive_real, _row_norms, _splitmix64, _to_json,
                          _unit_interval, sample_unit_sphere, spectral_norm)
from .errors import InputError
from .holomap import PolyMap, _TermPlan
from .schwarzpick import (
    DEFAULT_BOUND_TOL,
    DEFAULT_FD_DIRS,
    FD_STEPS,
    BoundReport,
    _bound_batch,
    _BoundBatch,
    mod_grad_fd_many,
)

__all__ = [
    "FuzzConfig",
    "CampaignReport",
    "gen_random_polymap",
    "force_zero_at",
    "sample_ball_points",
    "fuzz_campaign",
    "counterexample_map",
]

_MASK = (1 << 64) - 1
# FD sample exceeding the closed form by more than this is counted as an
# anomaly instead of silently accepted
FD_ANOMALY_TOL = 1e-6
_RADIUS_CAP = 0.999


def _mix_state(parts) -> int:
    """The splitmix64 chain over the parts, before ``_mix``'s final shift."""
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = (x ^ (int(part) & _MASK)) & _MASK
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        x = z ^ (z >> 31)
    return x


def _mix(*parts: int) -> int:
    """splitmix64 over the parts; stable non-negative sub-seed."""
    return _mix_state(parts) >> 1


def _mix_range(prefix, count: int) -> np.ndarray:
    """``[_mix(*prefix, idx) for idx in range(count)]`` as one uint64 array:
    the prefix is hashed once, the last round runs over all idx at once."""
    x = np.arange(count, dtype=np.uint64) ^ np.uint64(_mix_state(prefix))
    return _splitmix64(x + _GOLDEN) >> np.uint64(1)


@functools.lru_cache(maxsize=64)
def _multi_indices(n: int, max_degree: int) -> np.ndarray:
    """The multi-indices of total degree <= max_degree in n variables, in
    lexicographic order, as one read-only ``(T, n)`` int64 array: each row
    is extended by every exponent that keeps its degree <= max_degree."""
    rows = [()]
    for _ in range(n):
        rows = [r + (k,) for r in rows for k in range(max_degree + 1 - sum(r))]
    alphas = np.array(rows, dtype=np.int64)
    alphas.setflags(write=False)
    return alphas


@functools.lru_cache(maxsize=64)
def _template(n: int, max_degree: int) -> _TermPlan:
    """The term plan of ``_multi_indices(n, max_degree)``, validated once by
    ``PolyMap.from_arrays``."""
    alphas = _multi_indices(n, max_degree)
    return PolyMap.from_arrays(n, 1, alphas, np.zeros((alphas.shape[0], 1)))._plan


def _certified(coefs: np.ndarray, margin: float) -> np.ndarray:
    """The coefficients rescaled to the l1 containment certificate."""
    cert = float(np.sqrt(((np.abs(coefs).sum(axis=0)) ** 2).sum()))
    if cert == 0.0:
        return coefs
    # tiny deflation keeps the certificate strict under rounding
    scale = (1.0 - margin) / cert * (1.0 - 1e-13)
    return coefs * scale


def gen_random_polymap(n: int, m: int, max_degree: int, margin: float, seed: int) -> PolyMap:
    """Seeded Gaussian polynomial map rescaled to the l1 containment
    certificate ``sum_k (sum_alpha |c_{k,alpha}|)^2 <= (1 - margin)^2``."""
    n, m = _integer(n, "n", 1), _integer(m, "m", 1)
    max_degree = _integer(max_degree, "max_degree", 0)
    _unit_interval(margin, "margin")
    rng = np.random.default_rng(_mix(_integer(seed, "seed")))
    plan = _template(n, max_degree)
    T = plan.alphas.shape[0]
    raw = rng.standard_normal((T, m)) + 1j * rng.standard_normal((T, m))
    # finite draws, fresh, in the order of the template's terms
    return PolyMap._of(plan, _certified(raw, margin))


def force_zero_at(f: PolyMap, p, margin: float) -> PolyMap:
    """Shift ``f`` by ``-f(p)`` and rescale so the containment certificate is
    restored; the result vanishes at p (up to roundoff well below the
    zero-branch threshold). A map with a constant term, as every generated
    map has, keeps its plan, and only the shifted row is judged."""
    _unit_interval(margin, "margin")
    alphas, coefs = f._alphas, f._coefs.copy()
    # the zero multi-index sorts first when present; a missing one is
    # appended as the last row, and the certificate's sum over the rows
    # rounds according to that order
    if alphas.shape[0] and not alphas[0].any():
        coefs[0] -= f.eval(p)
        if np.count_nonzero(np.isfinite(coefs[0])) == f.m:
            return PolyMap._of(f._plan, _certified(coefs, margin))
        return PolyMap.from_arrays(f.n, f.m, alphas, coefs)  # raises the constructor's error
    alphas = np.vstack([alphas, np.zeros((1, f.n), dtype=np.int64)])
    coefs = np.vstack([coefs, 0.0 - f.eval(p)[None, :]])
    return PolyMap.from_arrays(f.n, f.m, alphas, _certified(coefs, margin))


def sample_ball_points(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform samples of the unit ball of C^n: uniform sphere direction
    times inverse-CDF radius ``U^(1/(2n))``; radii above 0.999 are redrawn."""
    seed = _integer(seed, "seed")
    dirs = sample_unit_sphere(n, count, _mix(seed, 0xD12))
    rng = np.random.default_rng(_mix(seed, 0x2AD))
    radii = rng.random(count) ** (1.0 / (2 * n))
    while (bad := radii > _RADIUS_CAP).any():
        radii[bad] = rng.random(int(bad.sum())) ** (1.0 / (2 * n))
    return dirs * radii[:, None]


def counterexample_map() -> PolyMap:
    """The map ``f(z) = (z, 1)/sqrt(2)``: |f'(0)| exceeds 1 - |f(0)|^2 while
    the modulus gradient at 0 is 0."""
    s = 1.0 / np.sqrt(2.0)
    return PolyMap(1, 2, {(0,): [0.0, s], (1,): [s, 0.0]})


@dataclass
class FuzzConfig:
    """Configuration of one campaign; defaults give the standard 10^5-point
    run. ``fd_dirs = 0`` disables the per-point finite-difference oracle."""

    trials: int = 1000
    points_per_trial: int = 100
    n: int = 2
    m: int = 2
    max_degree: int = 3
    margin: float = 0.25
    seed: int = 20250817
    tol: float = DEFAULT_BOUND_TOL
    fd_dirs: int = DEFAULT_FD_DIRS
    pin_counterexample: bool = False

    def validate(self) -> None:
        """Raise ``InputError`` for a field the campaign cannot run with;
        ``fuzz_campaign`` calls this before it opens its log."""
        for name, lo in (("trials", 0), ("points_per_trial", 1), ("n", 1), ("m", 1),
                         ("max_degree", 0), ("seed", None), ("fd_dirs", 0)):
            _integer(getattr(self, name), name, lo)
        if 0 < self.fd_dirs < 64:
            raise InputError("fd_dirs must be 0 (disabled) or at least 64")
        _unit_interval(self.margin, "margin")
        _positive_real(self.tol, "tol")
        if not isinstance(self.pin_counterexample, (bool, np.bool_)):
            raise InputError("pin_counterexample must be a bool")


@dataclass
class CampaignReport:
    """Aggregate of one campaign. ``violations`` holds the failing bound
    reports; ``worst_slack`` and ``oracle_max_dev`` are None when no point
    was checked (or the FD oracle was off). ``fd_undecided`` counts the
    nonzero-branch points so close to a zero of f, |f(z)| below
    ``10 FD_STEPS[0] |Df(z)|_F``, that the oracle's steps reach the cone of
    |f| there and its reading decides nothing; their ``fd`` and ``fd_dev``
    are still logged and still count in ``oracle_max_dev`` and
    ``fd_anomalies``. It is None when the oracle is off."""

    trials_run: int
    points_checked: int
    violations: list[BoundReport] = field(default_factory=list)
    worst_slack: float | None = None
    oracle_max_dev: float | None = None
    fd_anomalies: int = 0
    fd_undecided: int | None = None
    runtime_ms: float = 0.0
    counterexample: dict | None = None

    to_dict = _to_json


# json's spellings of the non-finite floats, keyed by their ``repr``
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _record_lines(trial: int, b: _BoundBatch, fds: np.ndarray | None) -> str:
    """The JSONL records of one checked batch, one line per row, with the
    bytes of ``json.dumps`` per record: every float field goes into one
    matrix and is spelled by ``%s``, which is ``float.__repr__`` as in
    json's encoder, and every row fills the template of its branch."""
    n = b.points.shape[1]
    cols = [b.points.view(np.float64), b.lhs, b.rhs, b.slack]
    fd = '"fd": null, "fd_dev": null'
    if fds is not None:
        cols += [fds, np.abs(b.lhs - fds)]
        fd = '"fd": %s, "fd_dev": %s'
    M = np.column_stack(cols)
    vals = M.ravel().tolist()
    for i in np.flatnonzero(~np.isfinite(M)).tolist():
        vals[i] = _JSON_NONFINITE[repr(vals[i])]
    point = ", ".join(["[%s, %s]"] * n)
    rows = [
        f'{{"trial": {trial}, "point": [{point}], "lhs": %s, "rhs": %s, "slack": %s, '
        f'"branch": "{branch}", {fd}}}\n'
        for branch in ("nonzero", "zero")
    ]
    return "".join([rows[z] for z in b.zero.tolist()]) % tuple(vals)


@contextmanager
def _rewrite(path: str | Path):
    """A UTF-8 text stream that writes ``path`` from its start, in place:
    the file is opened without truncation and, when it is a regular file,
    cut to the length written on exit, also when the body raises. An
    existing file keeps its inode, mode and links; a device or FIFO such
    as ``/dev/null`` is written and never truncated. A truncating open would
    cost more: on ext4 (``auto_da_alloc``) closing a file truncated from
    data starts its writeback, and the next truncating open waits for it."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as out:
        try:
            yield out
        finally:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()


def _absorb(report: CampaignReport, b: _BoundBatch, fds: np.ndarray | None) -> None:
    """Fold one checked batch, in row order, into the campaign aggregate."""
    report.points_checked += b.lhs.shape[0]
    worst = float(b.slack.min())
    if report.worst_slack is None or worst < report.worst_slack:
        report.worst_slack = worst
    if not b.holds.all():
        report.violations += b.reports(np.flatnonzero(~b.holds).tolist())
    if fds is not None:
        dev = float(np.abs(b.lhs - fds).max())
        if report.oracle_max_dev is None or dev > report.oracle_max_dev:
            report.oracle_max_dev = dev
        report.fd_anomalies += int((fds > b.lhs + FD_ANOMALY_TOL).sum())
        B = b.points.shape[0]
        near = _row_norms(b.values) < 10.0 * FD_STEPS[0] * _row_norms(b.jacobians.reshape(B, -1))
        report.fd_undecided += int((near & ~b.zero).sum())


def fuzz_campaign(cfg: FuzzConfig, log_path: str | Path | None = None) -> CampaignReport:
    """Run a campaign: per trial, generate one certified map and check the
    bound (plus the FD oracle when enabled) at sampled ball points as one
    batch, streaming one JSONL record per point to ``log_path`` in trial
    order. A config that fails ``validate`` raises before the log is
    opened."""
    cfg.validate()
    t0 = time.perf_counter()
    report = CampaignReport(
        trials_run=0, points_checked=0, fd_undecided=0 if cfg.fd_dirs else None
    )

    # the pinned witness runs as trial -1, ahead of the random trials
    trials = itertools.chain([-1] if cfg.pin_counterexample else [], range(cfg.trials))
    log = _rewrite(log_path) if log_path is not None else nullcontext()
    with log as out:
        for trial in trials:
            if trial < 0:
                f, points = counterexample_map(), np.zeros((1, 1), dtype=np.complex128)
            else:
                f = gen_random_polymap(
                    cfg.n, cfg.m, cfg.max_degree, cfg.margin, _mix(cfg.seed, trial, 0)
                )
                points = sample_ball_points(cfg.n, cfg.points_per_trial, _mix(cfg.seed, trial, 1))
            b = _bound_batch(f, points, cfg.tol)
            fds = None
            if cfg.fd_dirs:
                seeds = _mix_range((cfg.seed, trial, 2), points.shape[0])
                fds = mod_grad_fd_many(f, points, seeds, cfg.fd_dirs)
            if out is not None:
                out.write(_record_lines(trial, b, fds))
            _absorb(report, b, fds)
            if trial >= 0:
                report.trials_run += 1
            else:
                classical = spectral_norm(b.jacobians[0]).value
                rhs = b.rhs.item()
                report.counterexample = {
                    "classical_lhs": float(classical),
                    "rhs": rhs,
                    "classical_violated": bool(classical > rhs),
                    "modulus_lhs": b.lhs.item(),
                    "holds": b.holds.item(),
                }

    report.runtime_ms = (time.perf_counter() - t0) * 1e3
    return report
