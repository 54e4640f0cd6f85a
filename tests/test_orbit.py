"""Orbit sampling, charts, dimension reports, completeness probes."""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcart.cli import load_scenario, main
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
from subcart import orbit
from subcart.orbit import MERGE_RADIUS, _UNROLLED, _MergeIndex, _merge_source
from subcart.field import TangentField
from subcart.space import SubcartesianSpace

from conftest import SCENARIO_DIR, halfline, make_field, punctured_plane, scenario_path, unit_circle

_SIDE = _MergeIndex(1).side  # the cell side of an index at the default radius

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
        assert np.linalg.norm(np.subtract(replay, cloud.points[k])) <= REPLAY_TOL


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
    assert ch.jacobian0 == [[1.0, 0.0], [0.0, 1.0]]
    assert len(ch.fd_jacobian) == 2 and all(map(_floats, ch.jacobian0 + ch.fd_jacobian))


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


def _lstsq_residual(columns: list[list[float]], w: list[float]) -> float:
    """The span residual as ``complete-probe`` computed it through LAPACK,
    whose rounding depends on the BLAS kernel: the same column scaling, then
    ``lstsq`` and the norm of what it leaves."""
    matrix = np.column_stack(columns)
    if not np.any(matrix):
        return float(np.linalg.norm(w))
    cols = matrix / np.maximum(np.max(np.abs(matrix), axis=0), 1.0)
    coef, *_ = np.linalg.lstsq(cols, w, rcond=None)
    return float(np.linalg.norm(w - cols @ coef))


@pytest.mark.parametrize("argv", [
    ["rotation_plane", "--family", "pair", "--seeds", "ring", "--n", "6", "--seed", "2"],  # the golden's probes
    ["rotation_plane", "--family", "pair", "--n", "20", "--t-scale", "3"],
    ["translate_shear", "--n", "20", "--t-scale", "5"],
    ["disk_line", "--n", "20"],
])
def test_span_residual_matches_lstsq_on_the_probes(monkeypatch, capsys, argv):
    seen = []
    residual = orbit._span_residual

    def spy(cols, w):
        seen.append((cols, w, residual(cols, w)))
        return seen[-1][2]

    monkeypatch.setattr(orbit, "_span_residual", spy)
    assert main(["complete-probe", "--scenario", scenario_path(argv[0]), *argv[1:]]) in (0, 1)
    capsys.readouterr()
    assert len(seen) >= 6
    for cols, w, got in seen:
        assert abs(got - _lstsq_residual(cols, w)) <= 1e-14, (cols, w)


def test_span_residual_matches_lstsq_on_random_columns():
    # both are backward stable, so they agree to rounding times the condition
    # of the columns; more columns than coordinates leave a residual of
    # rounding, smaller here than lstsq's
    rng = random.Random(5)
    for _ in range(2000):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        cols = [[rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        w = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        bound = 1e-14 * max(1.0, np.linalg.cond(np.column_stack(cols))) * max(1.0, float(np.linalg.norm(w)))
        assert abs(orbit._span_residual(cols, w) - _lstsq_residual(cols, w)) <= bound, (cols, w)
    # a zero column adds nothing, and the columns of a zero matrix span only 0
    assert orbit._span_residual([[0.0, 0.0], [1.0, 0.0]], [3.0, 4.0]) == 4.0
    assert orbit._span_residual([[0.0, 0.0]], [3.0, 4.0]) == 5.0
    # a unit column beside one of norm 4e15 still counts
    assert orbit._span_residual([[1.0, 0.0], [0.0, -4e15]], [0.0, 1.0]) == 0.0


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
    s = np.linalg.svd(np.column_stack([f.value(point) for f in family.fields]), compute_uv=False)
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
    """Whether y merges into the index; y is collected where it does not."""
    return not index.collect(y)


def _add(index: _MergeIndex, y: list) -> None:
    assert index.collect(y)


def _check_merges(pts: list) -> None:
    """Feed the points in turn to a merge index and to the norm scan."""
    index = _MergeIndex(pts[0].size)
    _add(index, pts[0].tolist())
    buf = pts[0].reshape(1, -1)
    for y in pts[1:]:
        want = _ref_merges(buf, y)
        assert _merges(index, y.tolist()) == want
        if not want:
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
    side = _SIDE
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
    far = 2.0**50 * _SIDE
    for x in [far] + [float(10 * i) for i in range(5)]:
        _add(edge, [x])
    below = math.nextafter(far, 0.0)
    alone = _MergeIndex(1)  # below goes on the grid, not to the far list
    _add(alone, [below])
    assert alone.far == [] and alone.cells == {(math.floor(below / _SIDE),): [0]}
    assert edge.far == [0]
    assert _merges(edge, [below]) and _ref_merges(np.array([[far]]), np.array([below]))
    assert not _merges(edge, [math.nextafter(below, 0.0)])
    assert edge.far == [0] and (math.floor(math.nextafter(below, 0.0) / _SIDE),) in edge.cells


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(_LATTICE, min_size=n, max_size=n), min_size=1, max_size=40),
        st.lists(st.lists(_LATTICE, min_size=n, max_size=n), min_size=1, max_size=20))),
    st.sampled_from([None, 1.0, 0.6, 2.5]),
    st.sampled_from([0.0, 2.0**40, 2.0**55]),
    st.sampled_from([None, math.inf, math.nan]),
)
def test_near_matches_norm_scan_for_any_side(lattices, side_radii, offset, odd):
    # near adds nothing and finds a point within the radius wherever the
    # nearest-cloud norm does, on cells of 4 radii (None) or of a side of
    # their own; a lattice step is a fifth of the radius, so 3-4-5 steps
    # land on it; the offsets push |x / side| past 2^50
    cloud, queries = lattices
    radius = 0.35
    step = radius / 5
    pts = [np.array([offset * step + v * step for v in p]) for p in cloud]
    if odd is not None:
        pts[len(pts) // 2][0] = odd
    index = _MergeIndex(len(cloud[0]), radius, side=None if side_radii is None else side_radii * radius)
    assert hasattr(index, "collect") == (side_radii is None)
    for p in pts:
        index.add(p.tolist())
    buf = np.array(pts)
    for q in queries:
        y = np.array([offset * step + v * step for v in q])
        with np.errstate(all="ignore"):
            want = float(np.linalg.norm(buf - y, axis=1).min()) <= radius
        assert index.near(y.tolist()) == want
    assert len(index.points) == len(pts)


@pytest.fixture
def counted(monkeypatch):
    """A maker of merge indices whose exact path counts its calls in ``calls``."""
    calls = []

    def exact(*args):
        calls.append(1)
        return orbit._collect_exact(*args)

    def make(n: int) -> _MergeIndex:
        with monkeypatch.context() as m:
            m.setattr(orbit, "_collect_exact", exact)
            index = _MergeIndex(n)
        index.calls = calls
        return index

    return make


def _feed(index: _MergeIndex, pts: list) -> list:
    """Each point's merge answer from the index and from the norm scan over
    the points collected before it, and whether the exact path decided it."""
    out, buf = [], np.empty((0, len(pts[0])))
    for p in pts:
        calls = len(index.calls)
        want = bool(buf.size) and _ref_merges(buf, np.array(p))
        assert _merges(index, list(p)) == want, p
        out.append((want, len(index.calls) > calls))
        if not want:
            buf = np.vstack([buf, np.array(p).reshape(1, -1)])
    return out


def test_merge_fast_path_and_occupied_neighbour_cells(counted):
    r = MERGE_RADIUS
    # (0, 0) sits in cell (0, 0) and probes the cells below it; (3r, 0) is
    # in the same cell, past its middle, and (5r, 0) in the next one, whose
    # probes reach back to cell (0, 0); (40r, 40r) probes only empty cells
    index = counted(2)
    got = _feed(index, [[0.0, 0.0], [40 * r, 40 * r], [3 * r, 0.0], [0.5 * r, 0.0], [5 * r, 0.0],
                        [4.5 * r, 0.5 * r]])
    assert got == [(False, False), (False, False), (False, True), (True, True), (False, True), (True, True)]
    assert sorted(index.cells) == [(0, 0), (1, 0), (10, 10)]


def test_merge_with_a_nan_in_the_cloud_never_merges(counted):
    # a NaN point goes off the grid; every smallest distance is NaN after it,
    # even where its first coordinate is far off and another point is equal
    for nan_point in ([math.nan, 0.0], [1.0, math.nan]):
        index = counted(2)
        got = _feed(index, [[0.0, 0.0], nan_point, [0.0, 0.0], [0.0, 0.0], [1e-7, 0.0]])
        assert got == [(False, False), (False, True), (False, True), (False, True), (False, True)]
        assert index.far == [1]


def test_merge_of_an_off_grid_candidate_scans_every_point(counted):
    far = 2.0**51 * _SIDE
    index = counted(2)
    got = _feed(index, [[0.0, 0.0], [far, 0.0], [far, 0.0], [math.nextafter(far, 0.0), 0.0], [0.0, -far],
                        [1e-7, 0.0]])
    # a grid candidate after an off-grid point scans the far list too
    assert got == [(False, False), (False, True), (True, True), (False, True), (False, True), (True, True)]
    assert index.far == [1, 2, 3]


def test_merge_above_the_unrolled_dimensions_takes_the_exact_path(counted):
    n = _UNROLLED + 1
    rng = random.Random(3)
    step = MERGE_RADIUS / 2
    pts = [[step * rng.randint(-3, 3) for _ in range(n)] for _ in range(40)]
    index = counted(n)
    got = _feed(index, pts)
    assert all(exact for _, exact in got) and any(want for want, _ in got)
    assert _merge_source(n).count(" in cells") == 0
    assert _merge_source(_UNROLLED).count(" in cells") == 2**_UNROLLED


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
                y = np.array(flow_map(family.space, family.fields[fi], points[i], dt))
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
    assert [array("d", p).tobytes() for p in cloud.points] == [p.tobytes() for p in points]
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
    assert [array("d", p).tobytes() for p in cloud.points] == [p.tobytes() for p in points]
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


# s_min / s_max of the planted matrices: none in [1e-9, 1e-7] around the
# default tolerance 1e-8, none near the tolerance 0.9
_RATIOS = [0.0, 1e-15, 1e-12, 3e-10, 5e-7, 1e-4, 0.3, 1.0]


def _planted(rng: np.random.Generator, n: int, m: int, scale: float) -> np.ndarray:
    """An n x m matrix whose singular values are scale times 1 and ratios
    from ``_RATIOS``, in random orthonormal frames."""
    k = min(n, m)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((m, m)))[0]
    s = np.zeros((n, m))
    s[range(k), range(k)] = [1.0, *rng.choice(_RATIOS, k - 1)]
    return u @ s @ v.T * scale


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 3)])
def test_span_rank_matches_per_point_svd_on_planted_spans(n, m):
    # the closed form of two columns, the Gram-Schmidt bound of three and its
    # Jacobi fallback, and the power-of-2 scaling at 1e+-200, against numpy
    rng = np.random.default_rng(n * 10 + m)
    space = SubcartesianSpace.whole_space(n)
    origin = [0.0] * n
    for trial in range(60):
        a = _planted(rng, n, m, [1.0, 1e200, 1e-200][trial % 3])
        fam = FieldFamily(space, [TangentField(f"c{j}", [float(v) for v in a[:, j]]) for j in range(m)])
        for tol_rank in (1e-8, 0.9):
            assert span_dimensions(fam, [origin], tol_rank) == [_ref_rank(fam, origin, tol_rank)], (a, tol_rank)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_rank_kernel_is_minus_one_where_an_entry_is_not_finite_and_zero_where_all_are_zero(n, m):
    # the branch past the squares of _MAGNITUDES, where an entry that is not
    # finite sends span_dimensions to the FieldError of _value_at, and
    # entries whose singular values would overflow still have a rank
    rank = orbit._rank_kernel(n, m)
    assert rank([0.0] * (n * m), 1e-8) == rank([-0.0] * (n * m), 1e-8) == 0
    assert rank([1.5e308] * (n * m), 1e-8) == rank([-1.5e308] + [0.0] * (n * m - 1), 1e-8) == 1
    for bad in (math.nan, math.inf, -math.inf):
        for fill in (0.0, 1.0, 1e-200):
            for at in range(n * m):
                v = [fill] * (n * m)
                v[at] = bad
                assert rank(v, 1e-8) == -1, (bad, fill, at)


def test_chart_singular_values_match_numpy():
    # a test-local reference: numpy's SVD of the chart's Jacobian, to 1e-15
    # relative on the shipped charts; on translate_shear the Jacobian is
    # diag(1, x), whose columns are orthogonal, so no rotation is made and
    # the values are exactly 1 and |x| (LAPACK gives x = 1.0408837483745246
    # as ...244 and 1 as 1.0000000000000002)
    rng = random.Random(7)
    shear = shear_family()
    for x in [1.0408837483745246, 0.7, -3.5, 1e-7, 3e7] + [rng.uniform(-3.0, 3.0) for _ in range(200)]:
        chart = chart_jacobian(shear, [0, 1], [x, rng.uniform(-1.0, 1.0)])
        assert chart.singular_values == sorted([1.0, abs(x)], reverse=True)
    checked = 0
    for name, family in (("translate_shear", "default"), ("rotation_plane", "pair"), ("cone", "default")):
        fam = load_scenario(scenario_path(name)).family(family)
        for _ in range(300):
            z, a = rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            p = [z * math.cos(a), z * math.sin(a), z][:fam.space.ambient_dim]
            chart = chart_jacobian(fam, range(len(fam)), p)
            ref = np.linalg.svd(np.array(chart.jacobian0), compute_uv=False)
            assert all(abs(s - r) <= 1e-15 * r for s, r in zip(chart.singular_values, ref)), (name, p)
            checked += 1
    assert checked == 900
    # and on random matrices of up to 4 x 4, as many as the smaller
    # dimension, to a few rounding errors of the largest, at 1e+-200 too
    for trial in range(3000):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        scale = [1.0, 1e200, 1e-200][trial % 3]
        cols = [[rng.uniform(-2.0, 2.0) * scale for _ in range(n)] for _ in range(m)]
        ref = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        got = orbit._singular_values(cols)
        assert len(got) == min(n, m) and all(abs(s - r) <= 1e-15 * ref[0] for s, r in zip(got, ref)), cols


def _floats(p) -> bool:
    return type(p) is list and all(type(v) is float for v in p)


def test_every_point_the_library_hands_back_is_a_list_of_floats():
    """Points, ``flow_map``'s image among them, come back as lists of Python
    floats, whatever sequence went in, and the chart's Jacobians and
    ``matrix_at``'s values as lists of rows of Python floats."""
    from subcart.flow import transport_vector
    from subcart.poisson import PoissonStructure
    from subcart.space import BALL_TRIES, BOX_TRIES, ball, box, project_to_equalities, sample

    fam = shear_family()
    x0 = np.array([0.2, -0.1])
    assert _floats(project_to_equalities(unit_circle(), 0, x0))
    assert _floats(fam.fields[1].value([0.2, -0.1]))
    for t in (0.0, 0.4):
        image, vec = transport_vector(fam.space, fam.fields[0], t, x0, fam.fields[1].value(x0))
        assert _floats(image) and _floats(vec)
    assert _floats(reach(fam, x0, [])) and _floats(reach(fam, x0, [(0, 0.5), (1, -0.25)]))
    with pytest.raises(ReachError) as exc:
        reach(FieldFamily(halfline(), [make_field("ddx", ["1"], 1)]), np.array([1.0]), [(0, 0.5), (0, -3.0)])
    assert all(map(_floats, exc.value.partial))
    cloud = sample_orbit(fam, x0, 12, rng_seed=1)
    assert _floats(cloud.seed) and all(map(_floats, cloud.points))
    assert _floats(dimension_constancy_report(fam, x0, n_probes=5).seed)
    chart = chart_jacobian(fam, [0, 1], np.array([1.0, 0.5]))
    assert _floats(chart.basepoint) and all(map(_floats, chart.jacobian0 + chart.fd_jacobian))
    assert _floats(chart.singular_values)
    for start in ([0.2, -0.1], x0):
        assert _floats(flow_map(fam.space, fam.fields[0], start, 0.0))
        assert _floats(flow_map(fam.space, fam.fields[0], start, 0.1))
    matrix = PoissonStructure.canonical(2).matrix_at(np.array([0.1, -0.2, 0.3, 0.4]))
    assert len(matrix) == 4 and all(map(_floats, matrix))
    rng = random.Random(0)
    for draw, tries in ((ball(rng, x0, 0.5), BALL_TRIES), (box(rng, [0, 0], [1, 1]), BOX_TRIES)):
        assert _floats(draw())
        pts = sample(rotation_family().space, 5, draw, tries)
        assert pts and all(map(_floats, pts))


_WITH_FAMILIES = sorted(p.stem for p in Path(SCENARIO_DIR).glob("*.json") if load_scenario(str(p)).families)


@pytest.mark.parametrize("name", _WITH_FAMILIES)
def test_span_dimensions_evaluate_a_shipped_family_as_its_fields_do(name):
    # one generated function evaluates the whole family, field after field
    sc = load_scenario(scenario_path(name))
    rng = random.Random(0)
    for family in map(sc.family, sorted(sc.families)):
        n = family.space.ambient_dim
        points = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(40)]
        per_field = [[v for f in family.fields for v in f.value(p)] for p in points]
        assert [array("d", family._values(p)).tobytes() for p in points] == [array("d", v).tobytes() for v in per_field]
        assert span_dimensions(family, points) == [_ref_rank(family, p) for p in points]
