"""Slice geometry of the unit ball and the bound-comparison factor.

The load-bearing oracle here is geometric: the boundary circle of the
parameter disk must land on the unit sphere, checked by direct evaluation
of the line embedding at 256 equally spaced angles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoball import InputError, bound_factor, disk_slice
from holoball.geometry import COLLINEAR_TOL


def boundary_deviation(ds, angles=256):
    zs = ds.c + ds.r * np.exp(2j * np.pi * np.arange(angles) / angles)
    pts = ds.line().eval_many(zs[:, None])
    return float(np.abs(np.sqrt((np.abs(pts) ** 2).sum(axis=1)) - 1.0).max())


def random_pair(rng, n, spread=0.7):
    p = spread * rng.uniform(0.0, 1.0) * _unit(rng, n)
    q = spread * rng.uniform(0.0, 1.0) * _unit(rng, n)
    while np.abs(q - p).max() < 1e-6:
        q = spread * rng.uniform(0.0, 1.0) * _unit(rng, n)
    return p, q


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.sqrt((np.abs(v) ** 2).sum())


def test_slice_through_origin():
    ds = disk_slice([0.0, 0.0], [0.5, 0.0])
    assert ds.c == 0.0
    assert ds.r == pytest.approx(2.0, abs=1e-15)
    ds1 = disk_slice([0.0], [0.5])
    assert ds1.c == 0.0
    assert ds1.r == pytest.approx(2.0, abs=1e-15)


def test_slice_example_off_origin():
    ds = disk_slice([0.5, 0.0], [0.0, 0.5])
    assert ds.c == pytest.approx(0.5, abs=1e-15)
    assert ds.r == pytest.approx(np.sqrt(7.0) / 2.0, abs=1e-15)
    assert boundary_deviation(ds) <= 1e-12
    d = ds.to_dict()
    assert set(d) == {"c", "r"}
    assert d["r"] == ds.r
    assert d["c"][0] == pytest.approx(0.5, abs=1e-15)
    assert d["c"][1] == 0.0


def test_boundary_circle_lands_on_sphere():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(20):
            ds = disk_slice(*random_pair(rng, n))
            assert boundary_deviation(ds) <= 1e-12


def test_interior_of_disk_maps_into_ball():
    rng = np.random.default_rng(29)
    for _ in range(20):
        ds = disk_slice(*random_pair(rng, 2))
        u = rng.uniform(0.0, 1.0, size=200)
        ang = rng.uniform(0.0, 2.0 * np.pi, size=200)
        zs = ds.c + ds.r * np.sqrt(u) * np.exp(1j * ang)
        pts = ds.line().eval_many(zs[:, None])
        assert (np.sqrt((np.abs(pts) ** 2).sum(axis=1)) < 1.0).all()


def test_center_lies_inside_disk():
    rng = np.random.default_rng(31)
    for _ in range(50):
        ds = disk_slice(*random_pair(rng, 3))
        assert ds.r > 0.0
        assert abs(ds.c) < ds.r


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_radius_center_identity(seed, n):
    # r^2 - |c|^2 == (1 - |p|^2) / |q - p|^2, relative 1e-13
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    ds = disk_slice(p, q)
    lhs = ds.r**2 - abs(ds.c) ** 2
    rhs = (1.0 - (np.abs(p) ** 2).sum()) / (np.abs(q - p) ** 2).sum()
    assert abs(lhs - rhs) <= 1e-13 * rhs


def test_bound_factor_from_origin():
    f = bound_factor([0.0, 0.0], [0.3, 0.4j])
    assert f.factor == pytest.approx(0.5, abs=1e-15)
    assert f.rhs == pytest.approx(0.5, abs=1e-15)
    assert f.collinear


def test_bound_factor_one_dim_equality():
    f = bound_factor([0.5], [0.75])
    assert f.factor == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert f.rhs == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert f.collinear


def test_bound_factor_strict_example():
    f = bound_factor([0.5, 0.0], [0.0, 0.5])
    assert f.factor == pytest.approx(np.sqrt(7.0) / 3.0, abs=1e-15)
    assert f.rhs == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-15)
    assert not f.collinear
    assert f.factor < f.rhs


def test_collinear_pairs_attain_equality():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = 0.6 * rng.uniform(0.1, 1.0) * _unit(rng, n)
        t = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        if abs(t) < 0.05:
            t = 0.1
        f = bound_factor(p, p * (1.0 + t))
        assert f.collinear
        assert abs(f.factor - f.rhs) <= 1e-12


def test_defective_pairs_stay_strict():
    # non-collinearity with defect >= 1e-3 forces a quantifiable gap
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 200:
        p, q = random_pair(rng, 3)
        npv = np.sqrt((np.abs(p) ** 2).sum())
        d = q - p
        nd = np.sqrt((np.abs(d) ** 2).sum())
        if npv < 0.1 or abs(np.vdot(d, p)) > (1.0 - 1e-3) * npv * nd:
            continue
        f = bound_factor(p, q)
        assert not f.collinear
        assert f.rhs - f.factor >= 1e-9
        checked += 1


def test_slice_records_the_collinearity_of_bound_factor():
    rng = np.random.default_rng(43)
    pairs = [([0.0, 0.0], [0.3, 0.4j]), ([0.5, 0.0], [0.0, 0.5])]
    pairs += [random_pair(rng, n) for n in (1, 2, 3) for _ in range(10)]
    for p, q in pairs:
        assert disk_slice(p, q).collinear is bound_factor(p, q).collinear
    assert set(disk_slice([0.5], [0.75]).to_dict()) == {"c", "r"}


def test_collinear_tolerance_is_tight():
    assert COLLINEAR_TOL == 1e-12


def test_disk_slice_validation():
    with pytest.raises(InputError):
        disk_slice([1.0, 0.0], [0.0, 0.5])
    with pytest.raises(InputError):
        disk_slice([0.0, 0.0], [0.6, 0.8])
    with pytest.raises(InputError):
        disk_slice([0.2, 0.0], [0.2, 0.0])
    with pytest.raises(InputError):
        disk_slice([0.2], [0.2, 0.0])
