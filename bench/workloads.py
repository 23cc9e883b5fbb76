"""The four benchmark workloads.

Round k of a run works on input block k, built from (seed, k); ``setup``
builds block 0, so set-up time covers import plus the first inputs. The
warm-up round and the first measured round both run block 0, which checks
that identical inputs give identical counts and outputs. ``run_round`` sends
one operation at a time through the public API (closed loop, one client) and
records one latency per latency unit, the operations attempted and failed,
and per-round counts that repeat exactly for a given seed and block.

Library calls go through ``holoball.<name>`` attribute lookups so that a
traced round sees them; output checks run under ``rnd.pause()`` so that the
trace counts only the workload's own calls.

A check either belongs to the known near-sphere defect or it is a hard
check. The defect: verdicts compare with absolute tolerances (1e-9 on the
slack, 1e-12 on the witness gap, 1e-10 on the gap ``diagnose_equality_form``
accepts), which rounding breaks as 1-|z| shrinks. Both kinds count the
operation as failed; only a hard check makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import holoball as hb
import holoball.cli

ROOT = Path(__file__).resolve().parent.parent

FD_TOL = 1e-4  # criterion 2: closed form vs finite differences
GAP_TOL = 1e-12  # criterion 6: equality gap of a witness at p
MARGIN = 0.25
CAL_EVERY_S = 0.1


def derive(seed: int, *parts) -> int:
    """Stable non-negative 63-bit sub-seed for (seed, parts)."""
    text = ":".join(str(x) for x in (seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 1


def fmt_vector(z) -> str:
    """A point in the CLI's ``re,im;re,im`` form, exact under float parsing."""
    return ";".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in np.asarray(z))


@dataclass
class Round:
    """What one round measured. ``counts`` and ``values`` are exact: they
    repeat for the same seed and block."""

    pause: object = contextlib.nullcontext
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    hard: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    values: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    events: Counter = field(default_factory=Counter)
    wall: float = 0.0
    # host_speed() gives the host's slowdown against the reference speed;
    # it is sampled every CAL_EVERY_S, and each latency is divided by the
    # mean of the samples before and after it (none in the warm-up round)
    host_speed: object = None
    speeds: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    _since: float = field(default_factory=perf_counter)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def speed(self) -> float:
        return sum(self.speeds) / len(self.speeds)

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        if self.host_speed is not None and perf_counter() - self._since >= CAL_EVERY_S:
            self.close_segment()

    def close_segment(self) -> None:
        now = self.host_speed()
        speed = (self.speeds[-1] + now) / 2
        self.scaled.extend(x / speed for x in self.latencies[len(self.scaled):])
        self.speeds.append(now)
        self._since = perf_counter()

    def fail(self, what: str, hard: bool = True) -> None:
        self.counts[f"check.{what}"] += 1
        if hard and len(self.hard) < 20:
            self.hard.append(what)


def _timed(fn):
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as e:  # an operation that raises is a counted failure
        return perf_counter() - t0, None, e
    return perf_counter() - t0, out, None


class Workload:
    """Input blocks from the seed; subclasses build them in ``inputs`` and
    run them in ``run_ops``."""

    def setup(self, seed, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.first = self.inputs(0)

    def run_round(self, rnd: Round, block: int, traced: bool) -> None:
        if block == 0:
            inputs = self.first
        else:
            with rnd.pause():
                inputs = self.inputs(block)
        self.run_ops(rnd, inputs, traced)


class Campaign(Workload):
    """``fuzz_campaign`` one trial per call; an op is a checked point and
    the latency unit is one trial."""

    latency_unit = "trial"

    def __init__(self, shapes, max_degree, fd_dirs, log, trials):
        self.shapes = shapes
        self.max_degree = max_degree
        self.fd_dirs = fd_dirs
        self.log = log
        self.trials = trials

    def inputs(self, block: int) -> list:
        return [
            hb.FuzzConfig(
                trials=1, n=n, m=m, max_degree=self.max_degree,
                fd_dirs=self.fd_dirs, seed=derive(self.seed, "trial", block, k, n, m),
            )
            for k in range(self.trials)
            for n, m in self.shapes
        ]

    def run_ops(self, rnd: Round, configs: list, traced: bool) -> None:
        log_path = self.workdir / "campaign.jsonl" if self.log else None
        sha = hashlib.sha256()
        fd_max = 0.0
        for cfg in configs:
            dt, rep, err = _timed(lambda: hb.fuzz_campaign(cfg, log_path))
            rnd.record(dt)
            rnd.attempted += cfg.points_per_trial
            if err is not None:
                rnd.failed += cfg.points_per_trial
                rnd.fail(f"raised {type(err).__name__}")
                continue
            with rnd.pause():
                bad = {tuple(v.point) for v in rep.violations}
                rnd.counts["schwarzpick.verdicts_wrong"] += len(rep.violations)
                if rep.points_checked != cfg.points_per_trial or rep.trials_run != 1:
                    rnd.fail("points checked")
                if rep.violations:
                    rnd.fail("violation on a certified map")
                if log_path is not None:
                    data = log_path.read_bytes()
                    sha.update(data)
                    rnd.counts["harness.log_bytes"] += len(data)
                    records = [json.loads(line) for line in data.splitlines()]
                    if len(records) != cfg.points_per_trial:
                        rnd.fail("log line count")
                    for r in records:
                        if r["fd_dev"] > FD_TOL:
                            bad.add(tuple(complex(*c) for c in r["point"]))
                            rnd.fail("fd deviation")
                    fd_max = max(fd_max, rep.oracle_max_dev)
                rnd.failed += len(bad)
        if log_path is not None:
            rnd.values["log_sha256"] = sha.hexdigest()
            rnd.values["fd_max_dev"] = fd_max


class ZeroWitness(Workload):
    """Certify special maps at base points p in n in {2, 3}: the zero-case
    and the nonzero-case equality witness, and a random polynomial map
    forced to vanish at p. An op is one map."""

    latency_unit = "map"

    def __init__(self, base_points):
        self.base_points = base_points

    def inputs(self, block: int) -> list:
        count, seed = self.base_points, self.seed
        rng = np.random.default_rng(derive(seed, "zero_witness", block))
        pts = {n: hb.sample_ball_points(n, (count + 1) // 2, derive(seed, "p", block, n))
               for n in (2, 3)}
        items = []
        for i in range(count):
            n = 2 + i % 2
            p = pts[n][i // 2]
            m = int(rng.integers(1, 4))
            pn = float(np.sqrt((np.abs(p) ** 2).sum()))
            u = p / pn * np.exp(2j * np.pi * rng.random())
            beta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            beta /= np.sqrt((np.abs(beta) ** 2).sum())
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            a *= rng.uniform(0.05, 0.95) / np.sqrt((np.abs(a) ** 2).sum())
            items.append({
                "n": n, "m": m, "p": p, "u": u, "beta": beta, "a": a,
                "theta": float(2 * np.pi * rng.random()),
                "q": p + 0.5 * (1.0 - pn) * u,
                "zero_probes": self._probes(rng, u),
                "nonzero_probes": self._probes(rng, u),
                "poly_seed": derive(seed, "poly", block, i),
                "fd_seed": derive(seed, "fd", block, i),
                # rhs of the bound at p, the scale of the gap's rounding error
                "zero_scale": 1.0 / ((1.0 - pn) * (1.0 + pn)),
                "nonzero_scale": (1.0 - float((np.abs(a) ** 2).sum())) / ((1.0 - pn) * (1.0 + pn)),
            })
        return items

    @staticmethod
    def _probes(rng, u):
        """Points on the equality slice C.u: two with |z| uniform on the
        disk up to 0.999, two with 1-|z| log-uniform in [1e-9, 1e-3]."""
        radii = np.concatenate([0.999 * np.sqrt(rng.random(2)), 1.0 - 10.0 ** rng.uniform(-9, -3, 2)])
        phases = np.exp(2j * np.pi * rng.random(4))
        return [(bool(k >= 2), r * ph * u) for k, (r, ph) in enumerate(zip(radii, phases))]

    def run_ops(self, rnd: Round, items: list, traced: bool) -> None:
        fd_max = 0.0
        for it in items:
            for case in ("zero", "nonzero"):
                self._witness(rnd, it, case)
            fd_max = max(fd_max, self._forced_zero(rnd, it))
        rnd.values["fd_max_dev"] = fd_max

    def _witness(self, rnd: Round, it: dict, case: str) -> None:
        p = it["p"]
        probes = it[f"{case}_probes"]

        def op():
            if case == "zero":
                f = hb.extremal_zero_case(hb.ExtremalSpec.zero(p, it["u"], it["beta"]))
            else:
                f = hb.extremal_nonzero_case(
                    hb.ExtremalSpec.nonzero(p, it["u"], it["a"], it["theta"]))
            text = json.dumps(hb.emit_spec(f))
            g = hb.parse_spec(json.loads(text))
            gap = hb.equality_gap(g, p)
            try:
                diag = hb.diagnose_equality_form(g, p, it["q"])
            except hb.PreconditionError as e:  # refused: |gap| above its tolerance
                diag = e
            reports = [hb.sp_bound(g, w) for _, w in probes]
            return text, g, gap, diag, reports

        dt, out, err = _timed(op)
        rnd.record(dt)
        rnd.attempted += 1
        if err is not None:
            rnd.failed += 1
            rnd.fail(f"raised {type(err).__name__}")
            return
        text, g, gap, diag, reports = out
        failed = False
        with rnd.pause():
            if json.dumps(hb.emit_spec(g)) != text:
                failed = True
                rnd.fail("emit/parse round trip")
            # an absolute gap above 1e-12 within rounding of the bound's
            # scale is the known defect; beyond that it is a hard failure
            rounding = abs(gap) <= GAP_TOL * max(1.0, it[f"{case}_scale"])
            if abs(gap) > GAP_TOL:
                failed = True
                rnd.fail("witness gap above 1e-12", hard=not rounding)
            if case == "zero" and hb.vnorm(g.eval(p)) > hb.schwarzpick.ZERO_BRANCH_TOL:
                failed = True
                rnd.fail("zero witness off the zero branch")
            if isinstance(diag, hb.PreconditionError):
                failed = True
                rnd.fail("diagnose refused the witness", hard=not rounding)
            elif not diag.matches:
                failed = True
                rnd.counts["schwarzpick.verdicts_wrong"] += 1
                rnd.fail("diagnose mismatch")
            for (near, _), rep in zip(probes, reports):
                rnd.counts["near_sphere_probes" if near else "interior_probes"] += 1
                if not rep.holds:
                    failed = True
                    rnd.counts["schwarzpick.verdicts_wrong"] += 1
                    rnd.fail("near-sphere false violation" if near else "interior false violation",
                             hard=not near)
        rnd.failed += failed

    def _forced_zero(self, rnd: Round, it: dict) -> float:
        p = it["p"]

        def op():
            f = hb.gen_random_polymap(it["n"], it["m"], 3, MARGIN, it["poly_seed"])
            g = hb.force_zero_at(f, p, MARGIN)
            return hb.sp_bound(g, p), hb.mod_grad_fd(g, p, seed=it["fd_seed"])

        dt, out, err = _timed(op)
        rnd.record(dt)
        rnd.attempted += 1
        if err is not None:
            rnd.failed += 1
            rnd.fail(f"raised {type(err).__name__}")
            return 0.0
        rep, fd = out
        dev = abs(fd - rep.lhs)
        failed = False
        if rep.branch != "zero":
            failed = True
            rnd.fail("forced zero off the zero branch")
        if not rep.holds:
            failed = True
            rnd.counts["schwarzpick.verdicts_wrong"] += 1
            rnd.fail("violation on a certified map")
        if dev > FD_TOL:
            failed = True
            rnd.fail("fd deviation")
        rnd.failed += failed
        return dev


CLI_ENTRY = "from holoball.cli import main; main()"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import holoball.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _python(args, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


class CliCold(Workload):
    """Sequential ``holoball bound|grad|diagnose`` invocations in fresh
    interpreters; an op is one invocation."""

    latency_unit = "invocation"

    def __init__(self, invocations):
        self.invocations = invocations

    def setup(self, seed, workdir: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH="src")
        super().setup(seed, workdir)

    def inputs(self, block: int) -> list:
        """Map files for this block, and each invocation with the stdout the
        library's own result predicts."""
        seed = self.seed
        calls = []
        for k, (n, m) in enumerate(((2, 2), (3, 3))):
            f = hb.gen_random_polymap(n, m, 3, MARGIN, derive(seed, "cli_map", block, k))
            z = hb.sample_ball_points(n, 1, derive(seed, "cli_z", block, k))[0]
            path = self._write(f"b{block}_poly{k}.json", f)
            # --flag=value: a value starting with "-" would read as a flag
            calls.append((["bound", "--map", path, f"--point={fmt_vector(z)}"],
                          hb.sp_bound(f, z).to_dict()))
            calls.append((["grad", "--map", path, f"--point={fmt_vector(z)}"],
                          hb.mod_grad(f, z).to_dict()))
            p = hb.sample_ball_points(n, 1, derive(seed, "cli_p", block, k))[0]
            pn = float(np.sqrt((np.abs(p) ** 2).sum()))
            u = p / pn
            beta = np.ones(2, dtype=np.complex128) / np.sqrt(2.0)
            w = (hb.extremal_zero_case(hb.ExtremalSpec.zero(p, u, beta)) if k == 0 else
                 hb.extremal_nonzero_case(hb.ExtremalSpec.nonzero(p, u, 0.5 * beta, 1.0)))
            q = p + 0.5 * (1.0 - pn) * u
            path = self._write(f"b{block}_witness{k}.json", w)
            calls.append((["diagnose", "--map", path, f"--p={fmt_vector(p)}", f"--q={fmt_vector(q)}"],
                          hb.diagnose_equality_form(w, p, q).to_dict()))
        # expected stdout, as the CLI's json.dumps of the library result reads back
        return [(argv, json.loads(json.dumps(exp))) for argv, exp in calls[: self.invocations]]

    def _write(self, name: str, f) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(hb.emit_spec(f)), encoding="utf-8")
        return str(path)

    def _check(self, rnd: Round, argv, expected, code, stdout) -> bool:
        verdict = expected.get("holds", expected.get("matches", True))
        ok = True
        if code != (0 if verdict else 1):
            ok = False
            rnd.fail(f"{argv[0]} exit code {code}")
        try:
            got = json.loads(stdout)
        except ValueError:
            got = None
        if got != expected:
            ok = False
            rnd.fail(f"{argv[0]} stdout differs from the library result")
        if not verdict:
            ok = False
            rnd.counts["schwarzpick.verdicts_wrong"] += 1
            rnd.fail(f"{argv[0]} wrong verdict")
        return ok

    def run_ops(self, rnd: Round, calls: list, traced: bool) -> None:
        for argv, expected in calls:
            dt, proc, err = _timed(lambda: _python(["-c", CLI_ENTRY, *argv], self.env))
            rnd.record(dt)
            rnd.attempted += 1
            if err is not None:
                rnd.failed += 1
                rnd.fail(f"raised {type(err).__name__}")
                continue
            rnd.failed += not self._check(rnd, argv, expected, proc.returncode, proc.stdout)
            if traced:
                # the same invocation in-process, so the trace sees the cli layer
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = hb.cli.run(argv)
                if not self._check(Round(), argv, expected, code, buf.getvalue()):
                    rnd.fail(f"{argv[0]} in-process result differs")
        if traced:
            t0 = perf_counter()
            _python(["-c", "pass"], self.env)
            rnd.timings.setdefault("cli.interp_s", []).append(perf_counter() - t0)
            proc = _python(["-c", IMPORT_PROBE], self.env)
            try:
                rnd.timings.setdefault("cli.import_s", []).append(float(proc.stdout.strip()))
            except ValueError:
                rnd.fail("import probe")


def make(name: str, tiny: bool):
    """The workload called ``name``; ``tiny`` shrinks it for the smoke test."""
    dims = [(n, m) for n in range(1, 5) for m in range(1, 5)]
    if name == "campaign_fd":
        return Campaign([(2, 2)], 3, 64, log=True, trials=2 if tiny else 20)
    if name == "campaign_sweep":
        return Campaign(dims, 4, 0, log=False, trials=1 if tiny else 2)
    if name == "zero_witness":
        return ZeroWitness(4 if tiny else 200)
    if name == "cli_cold":
        return CliCold(3 if tiny else 6)
    raise ValueError(f"unknown workload {name!r}")

