"""Randomized stress harness: certified map generation, ball sampling, and
deterministic fuzz campaigns with a JSONL audit log.

Generated polynomial maps carry an l1 containment certificate: after the
global rescale, ``sum_k (sum_alpha |c_{k,alpha}|)^2 <= (1 - margin)^2``,
which forces ``|f(z)| <= 1 - margin`` on the closed ball since every
monomial has modulus at most 1 there.

Campaigns derive one sub-seed per (trial, purpose, point) by splitmix64
hashing of the config seed, so trials are independent and the whole run is
reproducible; identical configs produce byte-identical JSONL (the summary's
``runtime_ms`` is the only non-deterministic output). A trial is checked in
one batch: the array core of ``sp_bound_many`` over its points, and one
``mod_grad_fd_many`` call when the oracle is on, each point keeping its own
direction seed ``_mix(seed, trial, 2, idx)`` (derived for the whole trial
as one uint64 array) that keys its directions in
``complexcore.sphere_rows``; the aggregate and the log lines are read off
the result arrays, and a trial's lines are encoded with one ``json.dumps``
call. Since row i of a batch equals the point checked alone, every record
can be re-derived with ``sp_bound`` and ``mod_grad_fd``. Each log line is

    {"trial": int, "point": [[re, im], ...], "lhs": real, "rhs": real,
     "slack": real, "branch": "zero"|"nonzero", "fd": real, "fd_dev": real}

with ``fd`` fields null when the finite-difference oracle is disabled. The
pinned witness trial (the map ``(z, 1)/sqrt(2)`` at 0, where the classical
derivative bound fails while the modulus-gradient bound holds) is logged
with trial index -1.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .complexcore import _GOLDEN, _splitmix64, sample_unit_sphere, spectral_norm
from .errors import InputError
from .holomap import PolyMap
from .schwarzpick import (
    DEFAULT_FD_STEPS,
    BoundReport,
    _bound_batch,
    _BoundBatch,
    _fd_steps,
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


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer))


@functools.lru_cache(maxsize=64)
def _multi_indices(n: int, max_degree: int) -> np.ndarray:
    """The multi-indices of total degree <= max_degree in n variables, in
    lexicographic order, as one read-only ``(T, n)`` int64 array."""
    alphas = np.array(
        [
            alpha
            for alpha in itertools.product(range(max_degree + 1), repeat=n)
            if sum(alpha) <= max_degree
        ],
        dtype=np.int64,
    ).reshape(-1, n)
    alphas.setflags(write=False)
    return alphas


def _certified(n: int, m: int, alphas: np.ndarray, coefs: np.ndarray, margin: float) -> PolyMap:
    """The terms rescaled to the l1 containment certificate."""
    cert = float(np.sqrt(((np.abs(coefs).sum(axis=0)) ** 2).sum()))
    if cert == 0.0:
        return PolyMap.from_arrays(n, m, alphas, coefs)
    # tiny deflation keeps the certificate strict under rounding
    scale = (1.0 - margin) / cert * (1.0 - 1e-13)
    return PolyMap.from_arrays(n, m, alphas, coefs * scale)


def gen_random_polymap(n: int, m: int, max_degree: int, margin: float, seed: int) -> PolyMap:
    """Seeded Gaussian polynomial map rescaled to the l1 containment
    certificate ``sum_k (sum_alpha |c_{k,alpha}|)^2 <= (1 - margin)^2``."""
    if not (_is_int(n) and _is_int(m)) or n < 1 or m < 1:
        raise InputError("n and m must be positive integers")
    if not _is_int(max_degree) or max_degree < 0:
        raise InputError("max_degree must be a non-negative integer")
    if not (0.0 < margin < 1.0):
        raise InputError("margin must lie in (0, 1)")
    alphas = _multi_indices(n, max_degree)
    rng = np.random.default_rng(_mix(seed))
    T = alphas.shape[0]
    raw = rng.standard_normal((T, m)) + 1j * rng.standard_normal((T, m))
    return _certified(n, m, alphas, raw, margin)


def force_zero_at(f: PolyMap, p, margin: float) -> PolyMap:
    """Shift ``f`` by ``-f(p)`` and rescale so the containment certificate is
    restored; the result vanishes at p (up to roundoff well below the
    zero-branch threshold)."""
    if not (0.0 < margin < 1.0):
        raise InputError("margin must lie in (0, 1)")
    alphas, coefs = f._alphas, f._coefs.copy()
    # the zero multi-index sorts first when present; a missing one is
    # appended as the last row, and the certificate's sum over the rows
    # rounds according to that order
    if alphas.shape[0] and not alphas[0].any():
        coefs[0] -= f.eval(p)
    else:
        const = np.zeros(f.m, dtype=np.complex128)
        const -= f.eval(p)
        alphas = np.vstack([alphas, np.zeros((1, f.n), dtype=np.int64)])
        coefs = np.vstack([coefs, const[None, :]])
    return _certified(f.n, f.m, alphas, coefs, margin)


def sample_ball_points(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform samples of the unit ball of C^n: uniform sphere direction
    times inverse-CDF radius ``U^(1/(2n))``; radii above 0.999 are redrawn."""
    if n < 1:
        raise InputError("n must be positive")
    if count < 1:
        raise InputError("count must be positive")
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
    tol: float = 1e-9
    fd_dirs: int = 64
    fd_steps: tuple = DEFAULT_FD_STEPS
    pin_counterexample: bool = False

    def validate(self) -> None:
        """Raise ``InputError`` for a field the campaign cannot run with;
        ``fuzz_campaign`` calls this before it opens its log."""
        for name in ("trials", "points_per_trial", "n", "m", "max_degree", "fd_dirs", "seed"):
            if not _is_int(getattr(self, name)):
                raise InputError(f"{name} must be an integer")
        if self.trials < 0:
            raise InputError("trials must be non-negative")
        if self.points_per_trial < 1:
            raise InputError("points_per_trial must be positive")
        if self.n < 1 or self.m < 1:
            raise InputError("n and m must be positive")
        if self.max_degree < 0:
            raise InputError("max_degree must be non-negative")
        if not (0.0 < self.margin < 1.0):
            raise InputError("margin must lie in (0, 1)")
        if self.tol <= 0:
            raise InputError("tol must be positive")
        if self.fd_dirs != 0:
            if self.fd_dirs < 64:
                raise InputError("fd_dirs must be 0 (disabled) or at least 64")
            _fd_steps(self.fd_steps)


@dataclass
class CampaignReport:
    """Aggregate of one campaign. ``violations`` holds the failing bound
    reports; ``worst_slack`` and ``oracle_max_dev`` are None when no point
    was checked (or the FD oracle was off)."""

    trials_run: int
    points_checked: int
    violations: list[BoundReport] = field(default_factory=list)
    worst_slack: float | None = None
    oracle_max_dev: float | None = None
    fd_anomalies: int = 0
    runtime_ms: float = 0.0
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return {
            "trials_run": int(self.trials_run),
            "points_checked": int(self.points_checked),
            "violations": [v.to_dict() for v in self.violations],
            "worst_slack": None if self.worst_slack is None else float(self.worst_slack),
            "oracle_max_dev": (
                None if self.oracle_max_dev is None else float(self.oracle_max_dev)
            ),
            "fd_anomalies": int(self.fd_anomalies),
            "runtime_ms": float(self.runtime_ms),
            "counterexample": self.counterexample,
        }


def _record_lines(trial: int, b: _BoundBatch, fds: np.ndarray | None) -> str:
    """The JSONL records of one checked batch, one line per row."""
    B, n = b.points.shape
    points = b.points.view(np.float64).reshape(B, n, 2).tolist()
    lhs, rhs, slack = b.lhs.tolist(), b.rhs.tolist(), b.slack.tolist()
    branch = ["zero" if z else "nonzero" for z in b.zero.tolist()]
    if fds is None:
        fd = fd_dev = [None] * B
    else:
        fd, fd_dev = fds.tolist(), np.abs(b.lhs - fds).tolist()
    records = [
        {
            "trial": trial,
            "point": points[i],
            "lhs": lhs[i],
            "rhs": rhs[i],
            "slack": slack[i],
            "branch": branch[i],
            "fd": fd[i],
            "fd_dev": fd_dev[i],
        }
        for i in range(B)
    ]
    # one encoder call for the batch; records hold no nested objects, so
    # "}, {" occurs only between two of them
    return json.dumps(records)[1:-1].replace("}, {", "}\n{") + "\n"


def _absorb(report: CampaignReport, b: _BoundBatch, fds: np.ndarray | None) -> None:
    """Fold one checked batch, in row order, into the campaign aggregate."""
    report.points_checked += b.lhs.shape[0]
    worst = float(b.slack.min())
    if report.worst_slack is None or worst < report.worst_slack:
        report.worst_slack = worst
    if not b.holds.all():
        report.violations += b.reports(np.flatnonzero(~b.holds))
    if fds is not None:
        dev = float(np.abs(b.lhs - fds).max())
        if report.oracle_max_dev is None or dev > report.oracle_max_dev:
            report.oracle_max_dev = dev
        report.fd_anomalies += int((fds > b.lhs + FD_ANOMALY_TOL).sum())


def fuzz_campaign(cfg: FuzzConfig, log_path: str | Path | None = None) -> CampaignReport:
    """Run a campaign: per trial, generate one certified map and check the
    bound (plus the FD oracle when enabled) at sampled ball points as one
    batch, streaming one JSONL record per point to ``log_path`` in trial
    order. A config that fails ``validate`` raises before the log is
    opened."""
    cfg.validate()
    t0 = time.perf_counter()
    report = CampaignReport(trials_run=0, points_checked=0)

    def check(f, points, seeds):
        # the bound at every point, and the FD oracle when it is on, with
        # the points' direction seeds from seeds()
        b = _bound_batch(f, points, cfg.tol)
        if not cfg.fd_dirs:
            return b, None
        return b, mod_grad_fd_many(f, points, seeds(), cfg.fd_steps, cfg.fd_dirs)

    out = open(log_path, "w", encoding="utf-8") if log_path is not None else None
    try:
        if cfg.pin_counterexample:
            ce = counterexample_map()
            zero = np.zeros((1, 1), dtype=np.complex128)
            b, fds = check(ce, zero, lambda: [_mix(cfg.seed, 0xCE)])
            classical = spectral_norm(b.jacobians[0]).value
            rhs = b.rhs.item()
            report.counterexample = {
                "classical_lhs": float(classical),
                "rhs": rhs,
                "classical_violated": bool(classical > rhs),
                "modulus_lhs": b.lhs.item(),
                "holds": b.holds.item(),
            }
            if out is not None:
                out.write(_record_lines(-1, b, fds))
            _absorb(report, b, fds)

        for trial in range(cfg.trials):
            f = gen_random_polymap(
                cfg.n, cfg.m, cfg.max_degree, cfg.margin, _mix(cfg.seed, trial, 0)
            )
            points = sample_ball_points(cfg.n, cfg.points_per_trial, _mix(cfg.seed, trial, 1))
            b, fds = check(
                f, points, lambda: _mix_range((cfg.seed, trial, 2), cfg.points_per_trial)
            )
            if out is not None:
                out.write(_record_lines(trial, b, fds))
            _absorb(report, b, fds)
            report.trials_run += 1
    finally:
        if out is not None:
            out.close()

    report.runtime_ms = (time.perf_counter() - t0) * 1e3
    return report
