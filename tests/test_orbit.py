"""Orbit sampling, charts, dimension reports, completeness probes."""

from __future__ import annotations

import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcart.orbit import (
    DependentBasisError,
    FieldFamily,
    OrbitError,
    ReachError,
    chart_jacobian,
    check_word,
    dimension_constancy_report,
    local_completeness_probe,
    reach,
    sample_orbit,
    span_dimensions,
)
from subcart.flow import FlowDomainError, IntegrationError, flow_map
from subcart.orbit import MERGE_RADIUS, _MergeIndex
from subcart.space import SubcartesianSpace

from conftest import halfline, make_field, punctured_plane

REPLAY_TOL = 1e-6


def shear_family() -> FieldFamily:
    plane = SubcartesianSpace.whole_space(2)
    ddx = make_field("ddx", ["1", "0"], 2)
    xddy = make_field("xddy", ["0", "x1"], 2)
    return FieldFamily(plane, [ddx, xddy])


def rotation_family(with_radial: bool = False) -> FieldFamily:
    pp = punctured_plane()
    fields = [make_field("rot", ["-x2", "x1"], 2)]
    if with_radial:
        fields.append(make_field("rad", ["x1", "x2"], 2))
    return FieldFamily(pp, fields)


def test_family_validation():
    plane = SubcartesianSpace.whole_space(2)
    with pytest.raises(OrbitError):
        FieldFamily(plane, [])
    with pytest.raises(OrbitError):
        FieldFamily(plane, [make_field("bad", ["1"], 1)])


def test_check_word_rejects_bad_index():
    fam = shear_family()
    with pytest.raises(OrbitError):
        check_word(fam, [(2, 1.0)])
    with pytest.raises(OrbitError):
        check_word(fam, [(-1, 1.0)])


def test_reach_known_word():
    fam = shear_family()
    assert np.allclose(reach(fam, [0.0, 0.0], []), [0.0, 0.0])
    y = reach(fam, [0.0, 0.0], [(0, 1.0), (1, 0.5)])
    assert np.allclose(y, [1.0, 0.5], atol=1e-9)
    # shear first does nothing at x1 = 0
    z = reach(fam, [0.0, 0.0], [(1, 0.5), (0, 1.0)])
    assert np.allclose(z, [1.0, 0.0], atol=1e-9)


def test_reach_error_reports_segment():
    hl = halfline()
    fam = FieldFamily(hl, [make_field("ddx", ["1"], 1)])
    with pytest.raises(ReachError) as exc:
        reach(fam, [1.0], [(0, 0.5), (0, -3.0)])
    assert exc.value.segment == 1
    assert abs(exc.value.achieved_t - (-1.5)) <= 1e-6
    assert len(exc.value.partial) == 3


def test_sample_orbit_replay_and_dimension():
    fam = shear_family()
    cloud = sample_orbit(fam, [0.0, 0.0], 60, rng_seed=0)
    assert len(cloud.points) == 60
    assert len(cloud.words) == 60
    assert cloud.est_dimension == 2
    for k in (0, 7, 31, 59):
        replay = reach(fam, cloud.seed, cloud.words[k])
        assert np.linalg.norm(replay - cloud.points[k]) <= REPLAY_TOL


def test_sample_orbit_respects_space():
    fam = rotation_family()
    cloud = sample_orbit(fam, [1.0, 0.0], 40, rng_seed=1)
    radii = [p[0] ** 2 + p[1] ** 2 for p in cloud.points]
    assert max(abs(r - 1.0) for r in radii) <= 1e-6
    assert cloud.est_dimension == 1


def test_span_dimension_values():
    fam = shear_family()
    assert span_dimensions(fam, [[0.0, 0.0], [1.0, 0.0]]) == [1, 2]


def test_chart_jacobian_agreement():
    fam = shear_family()
    ch = chart_jacobian(fam, [0, 1], (1.0, 0.0))
    assert ch.rank == 2
    assert ch.agreement <= 1e-5
    assert ch.jacobian0.shape == (2, 2)
    assert np.allclose(ch.jacobian0[:, 0], [1.0, 0.0], atol=1e-9)


def test_chart_jacobian_dependent_basis():
    fam = shear_family()
    with pytest.raises(DependentBasisError):
        chart_jacobian(fam, [0, 1], (0.0, 0.0))


def test_chart_jacobian_validates_basis():
    fam = shear_family()
    with pytest.raises(OrbitError):
        chart_jacobian(fam, [0, 5], (1.0, 0.0))


def test_chart_jacobian_rejects_an_empty_basis():
    # an OrbitError of its own, not numpy's "need at least one array to concatenate"
    with pytest.raises(OrbitError, match="^the chart basis is empty$") as info:
        chart_jacobian(shear_family(), [], (1.0, 0.0))
    assert type(info.value) is OrbitError


def test_dimension_constancy():
    singleton = dimension_constancy_report(rotation_family(), (1.0, 0.0), n_probes=40)
    assert singleton.constant
    assert singleton.dimensions == [1]
    pair = dimension_constancy_report(rotation_family(True), (1.0, 0.0), n_probes=40)
    assert pair.constant
    assert pair.dimensions == [2]
    shear = dimension_constancy_report(shear_family(), (0.0, 0.0), n_probes=60)
    assert not shear.constant
    assert shear.dimensions == [1, 2]
    assert shear.per_dimension_counts[1] >= 1
    assert shear.per_dimension_counts[2] >= 1


def test_completeness_singleton_passes():
    rep = local_completeness_probe(
        rotation_family(), centers=[(1.0, 0.0)], rng_seed=0, n_random=15
    )
    assert rep.passed
    assert rep.max_residual <= 1e-6
    assert rep.n_probes == 15


def test_completeness_random_mode_needs_centers():
    with pytest.raises(OrbitError):
        local_completeness_probe(rotation_family(), rng_seed=0)


def test_completeness_shear_fails_on_witness_probe():
    rep = local_completeness_probe(shear_family(), probes=[((1.0, 0.0), -1.0, 0, 1)])
    assert not rep.passed
    w = rep.witness
    assert w is not None
    assert np.allclose(w["image"], [0.0, 0.0], atol=1e-8)
    assert np.allclose(w["carried_vector"], [0.0, 1.0], atol=1e-8)
    assert w["residual"] >= 0.5


# The merge index and the batched rank pass against the whole-buffer scan
# and the per-point SVDs they replaced.

def _ref_merges(buf: np.ndarray, y: np.ndarray) -> bool:
    with np.errstate(all="ignore"):
        return float(np.linalg.norm(buf - y, axis=1).min()) <= MERGE_RADIUS


def _ref_rank(family: FieldFamily, point, tol_rank: float = 1e-8) -> int:
    s = np.linalg.svd(family.value_matrix(point), compute_uv=False)
    return 0 if s[0] <= 0.0 else int(np.sum(s > tol_rank * s[0]))


_LATTICE = st.integers(-6, 6)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(_LATTICE, min_size=n, max_size=n), min_size=1, max_size=60)),
    st.integers(-6, 3),
    st.sampled_from([0.0, 2.0**40, 2.0**55, -(2.0**60)]),
    st.one_of(st.sampled_from([1.0, 2.0, 3.0, 5.0, 5.5]), st.floats(0.1, 8.0)),
    st.sampled_from([None, math.inf, -math.inf, math.nan]),
    st.sampled_from([0, -1]),
)
@example([[0, 0], [9, 0], [1, 0]], 0, 0.0, 1.0, math.nan, -1)
def test_merge_index_matches_norm_scan(lattice, exponent, offset, radius_cells, odd, odd_axis):
    # the merge radius is radius_cells * 2^-exponent lattice steps: at
    # exponent 0 a distance of radius_cells steps (3-4-5 and axis steps) is
    # about the radius, below 0 most points merge, as in an orbit explored
    # with steps short against the radius, and above it few do; the offsets
    # push |x / side| past 2^50,
    # onto the far list; a NaN in the last coordinate of a point whose first
    # is far off is skipped before its distance, so only the index's NaN
    # rule sees it
    step = MERGE_RADIUS / radius_cells * 2.0**exponent
    pts = [np.array([offset * step + v * step for v in p]) for p in lattice]
    if odd is not None:
        pts[len(pts) // 2][odd_axis] = odd
    _check_merges(pts)


def _merges(index: _MergeIndex, y: list) -> bool:
    return index.merges(y, index.locate(y))


def _add(index: _MergeIndex, y: list) -> None:
    index.add(y, index.locate(y))


def _check_merges(pts: list) -> None:
    """Feed the points in turn to a merge index and to the norm scan."""
    index = _MergeIndex(pts[0].size)
    _add(index, pts[0].tolist())
    buf = pts[0].reshape(1, -1)
    for y in pts[1:]:
        want = _ref_merges(buf, y)
        assert _merges(index, y.tolist()) == want
        if not want:
            _add(index, y.tolist())
            buf = np.vstack([buf, y.reshape(1, -1)])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=1, max_size=60)),
    st.sampled_from([0, 3, 2**47 + 1, 2**49, 2**50 - 2, 2**50, -(2**50) + 1]),
)
def test_merge_index_on_cell_boundaries(lattice, offset_cells):
    # a lattice of an eighth of a cell: points on cell boundaries (every 8
    # steps) and half-cell boundaries (every 4, where the probed side
    # switches), pairs at exactly the radius (2 steps); offsets near 2^50
    # cells are where the quotients round to a quarter or an eighth of a
    # cell, which they do because the radius is not a power of 2
    side = _MergeIndex.side
    pts = [np.array([offset_cells * side + v * side / 8 for v in p]) for p in lattice]
    _check_merges(pts)


def test_merge_index_exact_radius_and_far_list():
    index = _MergeIndex(2)
    _add(index, [0.0, 0.0])
    assert _merges(index, [MERGE_RADIUS, 0.0])  # exactly at the radius: sqrt(r * r) is r
    assert not _merges(index, [math.nextafter(MERGE_RADIUS, 1.0), 0.0])
    # a grid candidate finds a point at |x / side| = 2^50 on the far list;
    # there a float step is just under the radius
    edge = _MergeIndex(1)
    far = 2.0**50 * _MergeIndex.side
    for x in [far] + [float(10 * i) for i in range(5)]:
        _add(edge, [x])
    below = math.nextafter(far, 0.0)
    assert edge.far == [0] and edge.locate([below]) is not None
    assert _merges(edge, [below]) and _ref_merges(np.array([[far]]), np.array([below]))
    assert not _merges(edge, [math.nextafter(below, 0.0)])


def _ref_sample_orbit(family, x0, budget, step_scale, rng_seed):
    """The orbit exploration with the whole-buffer merge scan and per-point SVDs."""
    rng = random.Random(rng_seed)
    seed = np.asarray(x0, dtype=float)
    points, words = [seed.copy()], [()]
    buf = seed.reshape(1, -1).copy()
    frontier = deque([0])
    attempts = merged = failures = 0
    while frontier and len(points) < budget and attempts < 40 * budget:
        i = frontier.popleft()
        candidates = []
        for fi in range(len(family)):
            dt = rng.uniform(-step_scale, step_scale)
            attempts += 1
            try:
                y = flow_map(family.space, family.fields[fi], points[i], dt)
            except (FlowDomainError, IntegrationError):
                failures += 1
                continue
            candidates.append((y, words[i] + ((fi, dt),)))
        candidates.sort(key=lambda c: tuple(c[0]))
        accepted_any = False
        for y, w in candidates:
            if len(points) >= budget:
                break
            if _ref_merges(buf, y):
                merged += 1
                continue
            points.append(y)
            words.append(w)
            buf = np.vstack([buf, y.reshape(1, -1)])
            frontier.append(len(points) - 1)
            accepted_any = True
        if not accepted_any and len(points) < budget:
            frontier.append(i)
    dims = [_ref_rank(family, p) for p in points]
    return points, words, dims, (attempts, merged, failures)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["shear", "rotation", "halfline"]),
    st.integers(0, 10**6),
    st.integers(2, 40),
    st.sampled_from([0.05, 0.3, 1.0]),
)
def test_sample_orbit_matches_vstack_reference(which, rng_seed, budget, step_scale):
    family, x0 = {
        "shear": (shear_family(), [0.2, -0.1]),
        "rotation": (rotation_family(True), [1.0, 0.0]),
        "halfline": (FieldFamily(halfline(), [make_field("ddx", ["1"], 1), make_field("xddx", ["x1"], 1)]),
                     [0.1]),
    }[which]
    cloud = sample_orbit(family, x0, budget, step_scale=step_scale, rng_seed=rng_seed)
    points, words, dims, (attempts, merged, failures) = _ref_sample_orbit(
        family, x0, budget, step_scale, rng_seed)
    assert [p.tobytes() for p in cloud.points] == [p.tobytes() for p in points]
    assert cloud.words == words
    assert cloud.dimensions == dims
    assert cloud.est_dimension == max(dims)
    d = cloud.diagnostics
    assert (d["attempts"], d["merged"], d["flow_failures"]) == (attempts, merged, failures)
    assert d["span_dimensions"] == sorted(set(dims))


def test_vanishes_at_needs_every_field_exactly_zero():
    plane = SubcartesianSpace.whole_space(2)
    rot = make_field("rot", ["-x2", "x1"], 2)
    assert FieldFamily(plane, [rot]).vanishes_at([0.0, 0.0])  # -x2 is -0.0 there
    assert FieldFamily(plane, [rot, make_field("rad", ["x1", "x2"], 2)]).vanishes_at([-0.0, 0.0])
    assert not FieldFamily(plane, [rot]).vanishes_at([0.0, 1e-300])
    assert not FieldFamily(plane, [rot, make_field("ddx", ["1", "0"], 2)]).vanishes_at([0.0, 0.0])
    # a field undefined at the point, or NaN there, does not vanish
    assert not FieldFamily(plane, [rot, make_field("lg", ["x1*log(x2)", "0"], 2)]).vanishes_at([0.0, 0.0])
    assert not FieldFamily(plane, [make_field("nan", ["x1*1e999", "0"], 2)]).vanishes_at([0.0, 0.0])


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_sample_orbit_at_a_fixed_point_returns_the_seed_at_once(budget):
    # every flow from the origin stays there, so the full exploration merges
    # all 40 * budget attempts back into the seed
    family = FieldFamily(SubcartesianSpace.whole_space(2),
                         [make_field("rot", ["-x2", "x1"], 2), make_field("rad", ["x1", "x2"], 2)])
    cloud = sample_orbit(family, [0.0, 0.0], budget, rng_seed=3)
    points, words, dims, (attempts, merged, failures) = _ref_sample_orbit(
        family, [0.0, 0.0], budget, 0.3, 3)
    assert [p.tobytes() for p in cloud.points] == [p.tobytes() for p in points]
    assert (cloud.words, cloud.dimensions, cloud.est_dimension) == (words, dims, 0) == ([()], [0], 0)
    assert (attempts, merged, failures) == ((0, 0, 0) if budget == 1 else (40 * budget, 40 * budget, 0))
    d = cloud.diagnostics
    assert (d["attempts"], d["merged"], d["flow_failures"], d["fixed_point"]) == (0, 0, 0, True)


def test_sample_orbit_where_one_field_vanishes_still_samples():
    # xddy vanishes on the axis x1 = 0, ddx does not
    cloud = sample_orbit(shear_family(), [0.0, 0.5], 30, rng_seed=2)
    assert len(cloud.points) == 30 and cloud.diagnostics["attempts"] > 0
    assert "fixed_point" not in cloud.diagnostics


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1e-9, 0.5, -2.0, 1e150]),
                          st.floats(-3.0, 3.0)), min_size=1, max_size=12),
       st.sampled_from([1e-8, 0.3, 0.0]))
def test_span_dimensions_match_per_point_svd(pts, tol_rank):
    # x1 = 0 makes the shear family rank-deficient
    fam = shear_family()
    points = [np.array(p) for p in pts]
    assert span_dimensions(fam, points, tol_rank) == [_ref_rank(fam, p, tol_rank) for p in points]
    assert [span_dimensions(fam, [p], tol_rank)[0] for p in points] == [_ref_rank(fam, p, tol_rank) for p in points]
