import math
from dataclasses import replace

import numpy as np
import pytest

from eunomia import visibility
from eunomia.constellation import (
    LEO_SHELLS,
    MEO_SHELLS,
    R_EARTH_KM,
    Constellation,
    Role,
    ShellSpec,
)
from eunomia.scenario import build_scenario, default_config, desk_config
from eunomia.visibility import (
    DEFAULT_THRESHOLDS,
    FovTimeline,
    build_slot_geometry,
    compute_fov_domains,
    compute_overlap_regions,
    segment_time_slots,
)
from eunomia.partition import step1_exclusive_assign

from conftest import make_ring_snapshot, make_snapshot
from geometry_oracle import as_sets, coverage, elevation_angle, fov_sets, overlap_regions


def _at_alpha(alpha_deg, r_obs, r_tgt):
    th = math.radians(alpha_deg)
    obs = r_obs * np.array([1.0, 0.0, 0.0])
    tgt = r_tgt * np.array([math.cos(th), math.sin(th), 0.0])
    return obs, tgt


def test_elevation_nadir_is_ninety():
    obs, tgt = _at_alpha(0.0, 6921.0, 16725.0)
    assert elevation_angle(obs, tgt) == pytest.approx(90.0)


def test_elevation_quarter_circle_closed_form():
    # rho = 0.5 at alpha = 90 deg gives atan2(-0.5, 1)
    obs, tgt = _at_alpha(90.0, 8000.0, 16000.0)
    expected = math.degrees(math.atan2(-0.5, 1.0))
    assert elevation_angle(obs, tgt) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-26.565, abs=1e-3)


def test_elevation_boundary_alpha_by_bisection():
    # find the geocentric angle where elevation hits 40 degrees, then verify
    r_l, r_m = 6921.0, 16725.0

    def elev(alpha_deg):
        obs, tgt = _at_alpha(alpha_deg, r_l, r_m)
        return elevation_angle(obs, tgt)

    lo, hi = 0.0, 90.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if elev(mid) > 40.0:
            lo = mid
        else:
            hi = mid
    alpha_star = (lo + hi) / 2.0
    assert elev(alpha_star) == pytest.approx(40.0, abs=1e-6)
    assert 25.0 < alpha_star < 40.0


def test_elevation_invariant_under_rigid_rotation():
    rng = np.random.default_rng(7)
    obs = np.array([6921.0, 500.0, -300.0])
    tgt = np.array([12000.0, -4000.0, 9000.0])
    base = elevation_angle(obs, tgt)
    for _ in range(10):
        # random rotation built from QR decomposition
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        assert elevation_angle(q @ obs, q @ tgt) == pytest.approx(base, abs=1e-9)


def test_elevation_strictly_decreasing_in_alpha():
    alphas = np.linspace(0.5, 119.5, 200)
    values = []
    for a in alphas:
        obs, tgt = _at_alpha(float(a), 6921.0, 16725.0)
        values.append(elevation_angle(obs, tgt))
    assert all(earlier > later for earlier, later in zip(values, values[1:]))


def test_elevation_rejects_zero_vector():
    with pytest.raises(ValueError):
        elevation_angle(np.zeros(3), np.array([1.0, 0.0, 0.0]))


def test_fov_meo_directly_above():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    domains = compute_fov_domains(snap, DEFAULT_THRESHOLDS)
    assert domains[0, 0]  # LEO 0 sits right under the controller


def test_fov_domains_key_every_controller_in_ascending_id_order():
    # the ground station on the far side of the ring sees no LEO
    snap = make_ring_snapshot(n_leo=2, leo_lons=(0.0, 10.0), ctrl_lons=(180.0, 5.0),
                              ctrl_roles=(Role.GS, Role.MEO))
    gs, meo = snap.controller_ids
    assert (gs, meo) == (2, 3)
    for s in (snap, replace(snap, controller_ids=(meo, gs))):
        domains = compute_fov_domains(s, DEFAULT_THRESHOLDS)
        assert domains.dtype == bool and not domains.flags.writeable
        # row c is controller n_LEO + c: the station, then the MEO
        assert domains.tolist() == [[False, False], [True, True]]


def test_fov_ground_station_far_side_excluded():
    snap = make_ring_snapshot(n_leo=2, leo_lons=(0.0, 180.0), ctrl_lons=(0.0,),
                              ctrl_roles=(Role.GS,))
    domains = compute_fov_domains(snap, DEFAULT_THRESHOLDS)
    assert domains[0, 0]
    assert not domains[0, 1]


def test_fov_membership_matches_bruteforce_oracle():
    const = Constellation.build(LEO_SHELLS["iridium780"], MEO_SHELLS["meo10354"], [])
    snap = const.snapshot(300.0)
    domains = compute_fov_domains(snap, DEFAULT_THRESHOLDS)
    for k, members in as_sets(domains).items():
        expected = set()
        for leo in snap.leo_ids:
            e = elevation_angle(snap.positions[leo], snap.positions[k])
            if e >= 40.0:
                expected.add(leo)
        assert members == frozenset(expected)


def _directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


FOV_EDGE_THRESHOLDS = [-90.0, 0.0, 40.0, 89.999, 90.0]


@pytest.mark.parametrize("threshold", FOV_EDGE_THRESHOLDS + [-120.0, 120.0])
def test_fov_domains_equal_the_per_controller_sets_on_random_shells(threshold):
    # LEOs at mixed radii seen by MEOs and ground stations, plus LEOs at the
    # zenith and the nadir of one controller of each role: on one axis, so
    # that cos alpha is +-1 exactly whatever kernel takes the dot product.
    # Thresholds past +-90 degrees pass every pair or none.
    thresholds = {Role.MEO: threshold, Role.GS: threshold}
    ends = np.array([[0.0, 0.0, 7000.0], [0.0, 0.0, -7000.0], [7000.0, 0.0, 0.0],
                     [-7000.0, 0.0, 0.0]])
    for seed in range(4):
        rng = np.random.default_rng(seed)
        leo = _directions(rng, 300) * rng.uniform(6500.0, 8500.0, (300, 1))
        meo = _directions(rng, 6) * rng.uniform(10000.0, 30000.0, (6, 1))
        gs = _directions(rng, 4) * R_EARTH_KM
        meo[0], gs[0] = [0.0, 0.0, 20000.0], [R_EARTH_KM, 0.0, 0.0]
        snap = make_snapshot(np.vstack([leo, ends]), np.vstack([meo, gs]),
                         (Role.MEO,) * 6 + (Role.GS,) * 4)
        assert as_sets(compute_fov_domains(snap, thresholds)) == fov_sets(snap, thresholds)


def _around_the_threshold(offsets, meo_deg, gs_deg, leo_r=7151.0, meo_r=16725.0):
    """One MEO and one ground station on one axis, and LEOs at radius
    ``leo_r`` placed at each geocentric ``offsets`` (rad) from where the MEO,
    then where the station, sees a LEO at its threshold elevation."""
    up = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    side = np.cross(up, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side)
    leos = []
    # the MEO observes the LEOs from above, the station from below; an
    # observer at radius ro sees a target at radius rt at elevation t from
    # the geocentric angle pi/2 - t - asin(ro / rt * cos t)
    for axis, deg, ro, rt in ((up, meo_deg, leo_r, meo_r), (-up, gs_deg, R_EARTH_KM, leo_r)):
        t = math.radians(deg)
        alpha = math.pi / 2 - t - math.asin(ro / rt * math.cos(t))
        a = alpha + np.asarray(offsets)[:, None]
        leos.append(leo_r * (np.cos(a) * axis + np.sin(a) * side))
    return make_snapshot(np.vstack(leos), np.vstack([meo_r * up, -R_EARTH_KM * up]),
                     (Role.MEO, Role.GS))


@pytest.mark.parametrize("threshold", FOV_EDGE_THRESHOLDS)
def test_fov_domains_at_the_threshold(threshold):
    # LEOs exactly at the elevation threshold of one MEO and one ground
    # station, and a few rounding steps and micro-radians to either side
    offsets = [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]
    snap = _around_the_threshold(offsets, threshold, threshold)
    thresholds = {Role.MEO: threshold, Role.GS: threshold}
    fov = compute_fov_domains(snap, thresholds)
    assert as_sets(fov) == fov_sets(snap, thresholds)
    if -90.0 < threshold < 90.0:  # the micro-radian offsets fall on either side
        n = len(offsets)
        assert fov[0, n - 1] and not fov[0, n - 2]
        assert fov[1, 2 * n - 1] and not fov[1, 2 * n - 2]


def test_fov_domains_within_rounding_of_random_thresholds():
    # LEOs 1e-17 to 1e-13 rad from random thresholds, where the sign of
    # sin(elevation) - sin(threshold), taken without trigonometry, and the
    # rounded elevation's comparison sometimes disagree
    rng = np.random.default_rng(1)
    disagree = 0
    for _ in range(20):
        meo_deg, gs_deg = rng.uniform(-89.9, 89.9, 2)
        offsets = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.uniform(-17.0, -13.0, 200)
        snap = _around_the_threshold(offsets, meo_deg, gs_deg, leo_r=rng.uniform(6500.0, 8000.0))
        thresholds = {Role.MEO: meo_deg, Role.GS: gs_deg}
        assert as_sets(compute_fov_domains(snap, thresholds)) == fov_sets(snap, thresholds)
        leo_pos, (meo, gs) = snap.positions[:400], snap.positions[400:]
        for obs, tgt, deg in ((leo_pos, meo[None], meo_deg), (gs[None], leo_pos, gs_deg)):
            c, rho = visibility.separation(obs, tgt)
            y = c - rho
            g = y - math.sin(math.radians(deg)) * np.sqrt(y * y + (1.0 - c) * (1.0 + c))
            disagree += ((g != 0.0) & ((g > 0.0) != (visibility.elevation(c, rho) >= deg))).sum()
    assert disagree > 0


def test_overlap_regions_disjoint_fovs_yield_none():
    snap = make_ring_snapshot(n_leo=8, ctrl_lons=(0.0, 180.0))
    domains = compute_fov_domains(snap, {Role.MEO: 60.0, Role.GS: 0.0})
    assert compute_overlap_regions(domains, snap) == []


def test_overlap_regions_single_shared_leo():
    # two controllers whose narrow cones share exactly the equatorial LEO between them
    snap = make_ring_snapshot(n_leo=8, ctrl_lons=(22.5, 67.5))
    domains = compute_fov_domains(snap, {Role.MEO: 40.0, Role.GS: 0.0})
    cover = coverage(as_sets(domains))
    shared = [leo for leo, ks in cover.items() if len(ks) >= 2]
    regions = compute_overlap_regions(domains, snap)
    if shared:
        assert regions
        assert all(len(r.controller_ids) >= 2 for r in regions)


def test_overlap_regions_match_coverage_count_oracle(desk_scenario_short):
    geom = desk_scenario_short.geometries[0]
    snap = geom.slot.snapshot
    cover = coverage(as_sets(geom.fov_domains))
    contested = {leo for leo, ks in cover.items() if len(ks) >= 2}
    union = set()
    for region in geom.regions:
        assert union.isdisjoint(region.leo_ids)  # pairwise disjoint
        union |= set(region.leo_ids)
        for leo in region.leo_ids:
            assert set(cover[leo]) <= set(region.controller_ids)
    assert union == contested


def test_overlap_regions_match_union_find_oracle(desk_scenario):
    # list order matters: partition_slot seeds k-means with the region index
    for geom in desk_scenario.geometries:
        assert geom.regions == overlap_regions(as_sets(geom.fov_domains), geom.slot.snapshot)


def test_fov_positive_line_of_sight(desk_scenario_short):
    geom = desk_scenario_short.geometries[0]
    snap = geom.slot.snapshot
    for k, members in as_sets(geom.fov_domains).items():
        for leo in members:
            if snap.roles[k] is Role.GS:
                e = elevation_angle(snap.positions[k], snap.positions[leo])
            else:
                e = elevation_angle(snap.positions[leo], snap.positions[k])
            assert e >= 0.0


def test_segment_static_controllers_single_slot():
    # geostationary-altitude equatorial mock: satellites are fixed in the
    # rotating frame, so GS visibility never changes and one slot covers all
    sidereal_day = 2.0 * math.pi / 7.2921159e-5
    geo_radius = (398600.4418 * (sidereal_day / (2.0 * math.pi)) ** 2) ** (1.0 / 3.0)
    const = Constellation.build(
        ShellSpec(geo_radius - 6371.0, 0.0, 1, 8),
        None,
        [("gs0", 0.0, 0.0), ("gs1", 0.0, 180.0)],
    )
    slots = segment_time_slots(FovTimeline(const), 3000.0, 15.0)
    assert len(slots) == 1


def test_segment_time_slot_durations_are_step_multiples(desk_scenario_short):
    for slot in desk_scenario_short.slots:
        dur = slot.end_s - slot.start_s
        assert dur > 0
        assert dur % 15.0 == pytest.approx(0.0, abs=1e-9)


def test_segment_boundaries_reproduce_membership_diff_oracle():
    config_horizon, step = 600.0, 15.0
    const = Constellation.build(
        LEO_SHELLS["iridium780"], MEO_SHELLS["meo10354"],
        [("new_york", 40.7128, -74.0060)],
    )
    slots = segment_time_slots(FovTimeline(const), config_horizon, step)
    fingerprints = [
        compute_fov_domains(const.snapshot(k * step)) for k in range(int(config_horizon // step))
    ]
    expected_starts = [0.0]
    for k in range(1, len(fingerprints)):
        if not np.array_equal(fingerprints[k], fingerprints[k - 1]):
            expected_starts.append(k * step)
    assert [s.start_s for s in slots] == expected_starts


def test_membership_constant_within_slot(desk_scenario_short):
    scn = desk_scenario_short
    slot = scn.slots[0]
    base = compute_fov_domains(slot.snapshot, scn.config.thresholds)
    t = slot.start_s
    while t < slot.end_s:
        fp = compute_fov_domains(scn.constellation.snapshot(t), scn.config.thresholds)
        assert np.array_equal(fp, base)
        t += scn.config.step_s


def test_segment_rejects_bad_arguments():
    const = Constellation.build(ShellSpec(780.0, 50.0, 1, 4), None, [("g", 0.0, 0.0)])
    with pytest.raises(ValueError):
        segment_time_slots(FovTimeline(const), 10.0, 15.0)
    with pytest.raises(ValueError):
        segment_time_slots(FovTimeline(const), 100.0, 0.0)


def _fresh_membership(scn, t):
    return compute_fov_domains(scn.constellation.snapshot(t), scn.config.thresholds)


def _assert_geometry_is_fresh(scn):
    step, lookahead = scn.config.step_s, scn.config.lookahead_s
    for geom in scn.geometries:
        t0 = geom.slot.snapshot.time_s
        fresh = compute_fov_domains(geom.slot.snapshot, scn.config.thresholds)
        assert np.array_equal(geom.fov_domains, fresh)
        assert np.array_equal(geom.step_fov, _fresh_membership(scn, t0 + step))
        assert np.array_equal(geom.future_fov, _fresh_membership(scn, t0 + lookahead))


def test_slot_geometry_equals_fresh_fov_on_desk(desk_scenario_short):
    _assert_geometry_is_fresh(desk_scenario_short)


def _build_counting_fov_times(monkeypatch, config, horizon_s):
    """The scenario and the instant of every ``compute_fov_domains`` call
    made while building it."""
    times = []
    compute = visibility.compute_fov_domains

    def counted(snapshot, thresholds=None):
        times.append(snapshot.time_s)
        return compute(snapshot, thresholds)

    monkeypatch.setattr(visibility, "compute_fov_domains", counted)
    scn = build_scenario(config, horizon_s)
    monkeypatch.undo()
    return scn, times


def _needed_instants(scn, horizon_s):
    step, lookahead = scn.config.step_s, scn.config.lookahead_s
    sampled = {k * step for k in range(int(horizon_s // step))}
    starts = [g.slot.snapshot.time_s for g in scn.geometries]
    return sampled | {t + step for t in starts} | {t + lookahead for t in starts}


def test_each_fov_instant_is_computed_once_and_past_the_horizon_too(monkeypatch):
    # default at 60 s: four sampled instants, each its own slot; the last
    # slot's +15 s and the last two slots' +30 s lie past the horizon
    scn, times = _build_counting_fov_times(monkeypatch, default_config(), 60.0)
    assert len(scn.slots) == 4
    assert sorted(times) == [0.0, 15.0, 30.0, 45.0, 60.0, 75.0]
    assert set(times) == _needed_instants(scn, 60.0)
    _assert_geometry_is_fresh(scn)


def test_off_grid_instants_are_computed_on_a_non_dyadic_step(monkeypatch):
    # with a step of 0.1 s, start + step and start + lookahead are not always
    # a sampled k * 0.1 (0.7 + 0.1 != 8 * 0.1 and 0.3 != 3 * 0.1)
    config = replace(desk_config(), step_s=0.1, lookahead_s=0.3)
    scn, times = _build_counting_fov_times(monkeypatch, config, 6.0)
    sampled = {k * 0.1 for k in range(60)}
    starts = [g.slot.snapshot.time_s for g in scn.geometries]
    assert any(t + 0.3 not in sampled for t in starts)
    assert len(times) == len(set(times))
    assert set(times) == _needed_instants(scn, 6.0)
    _assert_geometry_is_fresh(scn)



@pytest.mark.parametrize("scenario", ["desk_scenario", "default_scenario_partition"])
def test_fov_array_and_its_products_match_the_per_controller_sets(scenario, request):
    # every sampled instant of desk's orbit and of default at 240 s
    scn = request.getfixturevalue(scenario)
    thresholds, step = scn.config.thresholds, scn.config.step_s
    for k in range(int(scn.horizon_s // step)):
        snap = scn.constellation.snapshot(k * step)
        fov = compute_fov_domains(snap, thresholds)
        sets = fov_sets(snap, thresholds)
        assert fov.shape == (len(snap.controller_ids), len(snap.leo_ids))
        assert as_sets(fov) == sets
        cover = coverage(sets)
        regions = compute_overlap_regions(fov, snap)
        assert regions == overlap_regions(sets, snap)
        assigned = step1_exclusive_assign(fov).tolist()
        assert assigned == [
            ks[0] if len(ks) == 1 else -1 for ks in (cover.get(leo, ()) for leo in snap.leo_ids)
        ]
        assert set().union(*(r.leo_ids for r in regions)) == {
            leo for leo, ks in cover.items() if len(ks) >= 2
        }


def test_held_fov_arrays_are_read_only(desk_scenario_short):
    scn = desk_scenario_short
    timeline = FovTimeline(scn.constellation, scn.config.thresholds)
    geom = build_slot_geometry(timeline, scn.slots[0], scn.config.step_s, scn.config.lookahead_s)
    held = [geom.fov_domains, geom.step_fov, geom.future_fov, timeline.at(0.0)]
    held += [g.fov_domains for g in scn.geometries]
    for fov in held:
        with pytest.raises(ValueError, match="read-only"):
            fov[0, 0] = not fov[0, 0]
