"""Span recorder for the benchmark's traced runs.

The package itself carries no tracing. A traced round installs wrappers over
the public functions of each layer, at every place a caller looks the name
up (``holoball.harness.sp_bound`` is a binding of its own, separate from
``holoball.schwarzpick.sp_bound``), and removes them again when the round
ends, so untraced rounds run the unmodified code.

Spans stay in memory as flat arrays (name, parent, start, end, rows) and are
reduced when the run ends: a span's self time is its duration minus the
durations of its direct children, so the self times of one round add up to
the round's root span.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.round"

# (span name, module, attribute) of each public function that is wrapped;
# several functions may share one span name
FUNCTION_SPANS = [
    ("holomap.parse_spec", "holoball.holomap", "parse_spec"),
    ("holomap.emit_spec", "holoball.holomap", "emit_spec"),
    ("complexcore.spectral_norm", "holoball.complexcore", "spectral_norm"),
    ("complexcore.sample_unit_sphere", "holoball.complexcore", "sample_unit_sphere"),
    ("schwarzpick.sp_bound", "holoball.schwarzpick", "sp_bound"),
    ("schwarzpick.mod_grad", "holoball.schwarzpick", "mod_grad"),
    ("schwarzpick.mod_grad_fd", "holoball.schwarzpick", "mod_grad_fd"),
    ("geometry.disk_slice", "holoball.geometry", "disk_slice"),
    ("geometry.bound_factor", "holoball.geometry", "bound_factor"),
    ("extremal.construct", "holoball.extremal", "extremal_zero_case"),
    ("extremal.construct", "holoball.extremal", "extremal_nonzero_case"),
    ("extremal.diagnose", "holoball.extremal", "diagnose_equality_form"),
    ("harness.gen_random_polymap", "holoball.harness", "gen_random_polymap"),
    ("harness.sample_ball_points", "holoball.harness", "sample_ball_points"),
    ("harness.force_zero_at", "holoball.harness", "force_zero_at"),
    ("harness.fuzz_campaign", "holoball.harness", "fuzz_campaign"),
    ("cli.run", "holoball.cli", "run"),
]
METHOD_SPANS = ("eval_many", "jac_many")


def _batch_rows(args) -> int:
    """Rows of the ``(B, n)`` batch passed to ``eval_many``/``jac_many``."""
    fmap, Z = args[0], args[1]
    shape = np.shape(Z)
    if len(shape) == 2:
        return shape[0]
    if len(shape) == 1:
        return 1 if shape[0] == fmap.n else shape[0]
    return 1


class Tracer:
    """Records nested spans while ``recording`` is set; the wrappers it
    installs pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.rows = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.recording = False
        self.events: Counter = Counter()
        self._zero_tol = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, rows: int) -> int:
        idx = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rows.append(rows)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, rows=None, on_result=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(nid, rows(args) if rows else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self):
        """One traced round: the root span, with recording on."""
        self.recording = True
        idx = self._open(self._id(ROOT_SPAN), 0)
        try:
            yield
        finally:
            self._close(idx)
            self.recording = False

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording library calls;
        their time stays in the enclosing span's self time."""
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    # -- result accounting -------------------------------------------------

    def _count_grad(self, args, result) -> None:
        self.events[f"schwarzpick.branch.{result.branch}"] += 1
        if result.ambiguous:
            self.events["schwarzpick.branch.ambiguous"] += 1

    def _count_diagnosis(self, args, result) -> None:
        self.events["extremal.diagnose.matches"] += bool(result.matches)

    def _count_bound(self, args, result) -> None:
        self.events[f"schwarzpick.branch.{result.branch}"] += 1
        if result.branch == "zero":
            # BoundReport does not carry the ambiguity flag; recompute |f(z)|
            # exactly as the branch selection saw it
            with self.paused():
                fz = args[0].eval(args[1])
            nv = float(np.sqrt((np.abs(fz) ** 2).sum()))
            if nv > self._zero_tol / 10.0:
                self.events["schwarzpick.branch.ambiguous"] += 1

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions and methods for the
        duration of the block, then restore the originals."""
        from holoball import holomap, schwarzpick

        self._zero_tol = schwarzpick.ZERO_BRANCH_TOL
        modules = [m for k, m in sys.modules.items() if k == "holoball" or k.startswith("holoball.")]
        saved = []
        hooks = {
            "schwarzpick.sp_bound": self._count_bound,
            "schwarzpick.mod_grad": self._count_grad,
            "extremal.diagnose": self._count_diagnosis,
        }
        for name, modname, attr in FUNCTION_SPANS:
            fn = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, fn, on_result=hooks.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        saved.append((mod, key, val))
                        setattr(mod, key, wrapper)
        for cls in vars(holomap).values():
            if not (isinstance(cls, type) and issubclass(cls, holomap.HoloMap)):
                continue
            for meth in METHOD_SPANS:
                if meth in cls.__dict__:
                    fn = cls.__dict__[meth]
                    saved.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(f"holomap.{meth}", fn, rows=_batch_rows))
        try:
            yield
        finally:
            for owner, key, val in reversed(saved):
                setattr(owner, key, val)

    # -- reduction ---------------------------------------------------------

    def reduce(self) -> dict:
        """Per traced round and span name: calls, rows, self and total time.

        Returns ``{"rounds": [{name: {"calls", "rows", "self_s", "total_s"}}],
        "min_self_s": float}``.
        """
        n = len(self.t0)
        if n == 0:
            return {"rounds": [], "min_self_s": 0.0}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        rows = np.frombuffer(self.rows, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        idx = np.arange(n)
        round_of = np.maximum.accumulate(np.where(has_parent, 0, idx))
        roots = idx[~has_parent]
        rounds = []
        for r in roots:
            sel = round_of == r
            per = {}
            for k, name in enumerate(self.names):
                m = sel & (nid == k)
                per[name] = {
                    "calls": int(m.sum()),
                    "rows": int(rows[m].sum()),
                    "self_s": float(self_t[m].sum()),
                    "total_s": float(dur[m].sum()),
                }
            rounds.append(per)
        return {"rounds": rounds, "min_self_s": float(self_t.min())}

    def save(self, path) -> None:
        """Write the raw spans out (once, when the run ends)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            rows=np.frombuffer(self.rows, dtype=np.int64),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
        )
