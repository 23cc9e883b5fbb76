"""Unit-ball geometry: affine disk slices and the bound comparison factor.

For p, q in the open unit ball of C^n with q != p, the affine line
``L(z) = p + z (q - p)`` meets the ball in an open disk D(c, r) of the
parameter plane with

    c = -herm_inner(p, q - p) / |q - p|^2
    r = sqrt((1 - |p|^2) / |q - p|^2 + |c|^2)

so that L maps D(c, r) into the ball and its boundary circle onto the
sphere. The identity ``r^2 - |c|^2 = (1 - |p|^2) / |q - p|^2 > 0`` always
holds, so c lies inside the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .complexcore import _to_json, as_cvector, herm_inner, vnorm
from .errors import InputError
from .holomap import LineEmbed

__all__ = ["DiskSlice", "disk_slice", "BoundFactor", "bound_factor", "COLLINEAR_TOL"]

COLLINEAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiskSlice:
    """Parameter disk D(c, r) of the line through p and q inside the ball;
    ``collinear`` tells whether q - p is a complex multiple of p (p = 0
    counts as collinear with every direction)."""

    c: complex
    r: float
    p: np.ndarray = field(metadata={"json": False})
    q: np.ndarray = field(metadata={"json": False})
    collinear: bool = field(metadata={"json": False})

    def line(self) -> LineEmbed:
        """The embedding ``z -> p + z (q - p)`` as a map node."""
        return LineEmbed(self.p, self.q)

    to_dict = _to_json


def _ball_point(x, name: str) -> np.ndarray:
    v = as_cvector(x, name)
    if vnorm(v) >= 1.0:
        raise InputError(f"{name} must lie strictly inside the unit ball, |{name}| = {vnorm(v)}")
    return v


def disk_slice(p, q) -> DiskSlice:
    """Center and radius of the parameter disk cut out by the line through p, q."""
    pv = _ball_point(p, "p")
    qv = _ball_point(q, "q")
    if pv.shape != qv.shape:
        raise InputError("p and q must have the same dimension")
    d = qv - pv
    nd = vnorm(d)
    if nd < 1e-14:
        raise InputError("q must differ from p")
    pd = herm_inner(pv, d)
    npv = vnorm(pv)
    c = -pd / nd**2
    r = float(np.sqrt((1.0 - npv**2) / nd**2 + abs(c) ** 2))
    collinear = npv == 0.0 or abs(pd) >= (1.0 - COLLINEAR_TOL) * npv * nd
    return DiskSlice(c=c, r=r, p=pv.copy(), q=qv.copy(), collinear=bool(collinear))


class BoundFactor(NamedTuple):
    factor: float
    rhs: float
    collinear: bool


def bound_factor(p, q) -> BoundFactor:
    """Compare the slice factor ``r / (r^2 - |c|^2)`` against
    ``|q - p| / (1 - |p|^2)``.

    ``factor <= rhs`` always, with equality exactly when q - p is a complex
    multiple of p (p = 0 counts as collinear with every direction).
    """
    ds = disk_slice(p, q)
    factor = ds.r / (ds.r**2 - abs(ds.c) ** 2)
    rhs = vnorm(ds.q - ds.p) / (1.0 - vnorm(ds.p) ** 2)
    return BoundFactor(factor=float(factor), rhs=float(rhs), collinear=ds.collinear)
