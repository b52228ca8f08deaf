"""Streaming session simulation: latency measures, byte accounting, reports."""

import json
import math
import random
import statistics
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    expected_gop_wait_ms,
    reference_run_session,
    reference_write_report_csv,
    reference_write_report_json,
    report_to_json,
)
from svbs import simulator
from svbs.codec import encode_svc, generate_content
from svbs.config import SequenceConfig
from svbs.container import serialized_frame_size
from svbs.errors import BadArgsError, EmptyTraceError, SvbsError, TooLargeError
from svbs.geometry import Projection, ProjectionKind, Viewport, select_tiles
from svbs.rewriter import rewrite_viewport_frame
from svbs.simulator import (
    MTHQ_COMPLIANCE_MS,
    SESSION_TICK_BUDGET,
    FrameLog,
    NetworkModel,
    Scheme,
    SchemeKind,
    SessionReport,
    SwitchSample,
    latency_summary,
    run_session,
    run_sessions,
    write_report_csv,
    write_report_json,
)

CONFIG = SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4, gop_size=10)
T = CONFIG.frame_period_ms

VIEW_A = Viewport.from_degrees(0, 0, 90, 90)
VIEW_B = Viewport.from_degrees(120, 0, 90, 90)
VIEW_C = Viewport.from_degrees(-120, 0, 90, 90)


def switching_trace(
    rng: random.Random,
    n_switches: int,
    min_gap: float,
    max_gap: float,
    align: bool = True,
):
    """Initial pose plus alternating switches at random offsets.

    With ``align`` the switch times sit on frame boundaries, so latency
    carries no frame-alignment remainder.
    """
    trace = [(0.0, VIEW_A)]
    cycle = [VIEW_B, VIEW_C, VIEW_A]
    t = 200.0
    for i in range(n_switches):
        t += rng.uniform(min_gap, max_gap)
        if align:
            t = math.ceil(t / T) * T
        trace.append((t, cycle[i % 3]))
    return trace


class TestExpectedWait:
    def test_reference_values(self):
        assert expected_gop_wait_ms(10, 30) == pytest.approx(166.6667, abs=0.01)
        assert expected_gop_wait_ms(1, 30) == pytest.approx(16.6667, abs=0.01)
        assert expected_gop_wait_ms(30, 30) == pytest.approx(500.0)

    def test_bad_args(self):
        with pytest.raises(BadArgsError):
            expected_gop_wait_ms(0, 30)
        with pytest.raises(BadArgsError):
            expected_gop_wait_ms(10, 0)


class TestSchemeAndNetwork:
    def test_labels(self):
        assert Scheme(SchemeKind.SVC).label == "svc"
        assert Scheme(SchemeKind.MULTITRACK, 30, 5).label == "multitrack(30,5)"

    def test_invalid_scheme_params(self):
        with pytest.raises(BadArgsError):
            Scheme(SchemeKind.MULTITRACK, long_gop=0)
        with pytest.raises(BadArgsError):
            Scheme(SchemeKind.MULTITRACK, short_gop=-1)

    def test_gop_above_u16_rejected(self):
        for gops in ((0x10000, 0), (30, 0x10000)):
            with pytest.raises(BadArgsError, match="u16 wire range"):
                Scheme(SchemeKind.MULTITRACK, *gops)
        Scheme(SchemeKind.MULTITRACK, 0xFFFF, 0xFFFF)

    def test_network_validation_and_serialization(self):
        with pytest.raises(BadArgsError):
            NetworkModel(uplink_delay_ms=-1)
        net = NetworkModel(bandwidth_bytes_per_s=1000.0)
        assert net.serialization_ms(500) == pytest.approx(500.0)
        assert NetworkModel().serialization_ms(10**9) == 0.0


class TestSvcScheme:
    def test_zero_delay_switch_costs_one_frame(self):
        rng = random.Random(5)
        trace = switching_trace(rng, 100, 5 * T, 14 * T)
        report = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), CONFIG, 1)
        assert len(report.switches) == 100
        for s in report.switches:
            assert s.mthq_ms == pytest.approx(T, abs=1e-6)
            assert s.mtp_ms == pytest.approx(s.mthq_ms, abs=1e-6)

    @pytest.mark.parametrize("scheme", [Scheme(SchemeKind.SVC),
                                        Scheme(SchemeKind.MULTITRACK, 3, 0)])
    def test_switch_on_a_float_edge_is_timed_from_the_tick_that_serves_it(self, scheme):
        # Just over a billionth of a tick past tick 3, whose known pose is
        # still the initial one, so tick 4 is the first to serve the switch:
        # MTP is two frames, not one.
        assert (CONFIG.fps_num, CONFIG.fps_den) == (30, 1)
        t = 100.00000003333335
        report = run_session(scheme, [(0.0, VIEW_A), (t, VIEW_B)], NetworkModel(), CONFIG, 1)
        [switch] = report.switches
        assert switch.mtp_ms == 5 * T - t == pytest.approx(2 * T)
        if scheme.kind == SchemeKind.SVC:
            assert switch.mthq_ms == switch.mtp_ms

    def test_a_session_encodes_only_its_ticks(self, monkeypatch):
        # One pose and 4 settle ticks: 5 frames of the 4,096-frame GOP.
        config = SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4096)
        frame_counts = []

        def counted(seed, config, frame_count):
            frame_counts.append(frame_count)
            return generate_content(seed, config, frame_count)

        monkeypatch.setattr("svbs.simulator.generate_content", counted)
        report = run_session(Scheme(SchemeKind.SVC), [(0.0, VIEW_A)], NetworkModel(), config, 1)
        assert frame_counts == [5]
        assert len(report.frames) == 5

    def test_delays_shift_latency_by_whole_frames(self):
        net = NetworkModel(uplink_delay_ms=20.0, downlink_delay_ms=25.0)
        trace = switching_trace(random.Random(6), 40, 6 * T, 12 * T)
        report = run_session(Scheme(SchemeKind.SVC), trace, net, CONFIG, 1)
        upper = net.uplink_delay_ms + net.downlink_delay_ms + 2 * T
        for s in report.switches:
            assert s.mthq_ms is not None
            assert s.mthq_ms <= upper + 1e-6

    def test_deterministic(self):
        trace = switching_trace(random.Random(7), 20, 6 * T, 12 * T)
        a = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), CONFIG, 3)
        b = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), CONFIG, 3)
        assert a.switches == b.switches
        assert a.seconds == b.seconds

    def test_sent_covers_hq(self):
        trace = switching_trace(random.Random(8), 10, 6 * T, 12 * T)
        report = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), CONFIG, 1)
        for frame in report.frames:
            assert frame.hq_tiles <= frame.sent_tiles
            assert set(frame.bytes_by_stream) == {"base", "enhanced"}

    @pytest.mark.parametrize(
        "kind, height",
        [(ProjectionKind.ERP, 192), (ProjectionKind.CUBEMAP_3x2, 256)],
        ids=["erp", "cubemap"],
    )
    def test_charged_bytes_equal_rewritten_frame_size(self, kind, height):
        config = SequenceConfig(width=384, height=height, tile_cols=6, tile_rows=4,
                                gop_size=10)
        cycle = config.gop_size
        poses = [
            Viewport.from_degrees(0, 0, 90, 90),
            Viewport.from_degrees(75, 45, 120, 60),
            Viewport.from_degrees(180, -80, 90, 90),
            Viewport.from_degrees(-100, 89, 60, 100),
            Viewport.from_degrees(30, 10, 1, 1),
            Viewport.from_degrees(0, 0, 360, 180),
        ]
        # Each pose holds for one whole cycle, so every (pose, frame) pair is sent.
        trace = [(i * cycle * config.frame_period_ms, vp) for i, vp in enumerate(poses)]
        report = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), config, 4,
                             projection_kind=kind, duration_ms=trace[-1][0] + cycle * T)
        stream = encode_svc(generate_content(4, config, cycle))
        assert len(report.frames) > len(poses) * cycle
        for log in report.frames:
            rewritten = rewrite_viewport_frame(
                stream.frames[log.tick % cycle], set(log.sent_tiles), config)
            charged = log.bytes_by_stream["base"] + log.bytes_by_stream["enhanced"]
            assert charged == serialized_frame_size(rewritten)


class TestMultitrackScheme:
    def test_mean_wait_matches_half_gop(self):
        rng = random.Random(9)
        trace = switching_trace(rng, 400, 12 * T, 30 * T, align=False)
        scheme = Scheme(SchemeKind.MULTITRACK, long_gop=10, short_gop=0)
        report = run_session(scheme, trace, NetworkModel(), CONFIG, 1)
        waits = [s - T for s in report.mthq_samples]
        assert len(waits) == 400
        expect = expected_gop_wait_ms(10, 30)
        assert statistics.fmean(waits) == pytest.approx(expect, rel=0.10)

    def test_short_track_cuts_latency_and_costs_bytes(self):
        rng = random.Random(10)
        trace = switching_trace(rng, 60, 36 * T, 50 * T)
        with_short = run_session(
            Scheme(SchemeKind.MULTITRACK, 30, 5), trace, NetworkModel(), CONFIG, 1
        )
        without = run_session(
            Scheme(SchemeKind.MULTITRACK, 30, 0), trace, NetworkModel(), CONFIG, 1
        )
        assert statistics.fmean(with_short.mthq_samples) < statistics.fmean(
            without.mthq_samples
        )
        assert with_short.total_bytes > without.total_bytes
        # The short stream only exists while the long track lags the pose.
        short_frames = [f for f in with_short.frames if "short" in f.bytes_by_stream]
        assert short_frames
        assert len(short_frames) < len(with_short.frames)

    def test_low_track_always_sent(self):
        trace = switching_trace(random.Random(11), 10, 12 * T, 20 * T)
        report = run_session(
            Scheme(SchemeKind.MULTITRACK, 10, 0), trace, NetworkModel(), CONFIG, 1
        )
        assert all(f.bytes_by_stream.get("low", 0) > 0 for f in report.frames)

    @pytest.mark.parametrize("config", [
        CONFIG, SequenceConfig(width=36, height=18, tile_cols=3, tile_rows=3, gop_size=6)],
        ids=["384x192", "36x18"])
    def test_low_track_costs_the_svc_base_layer(self, config):
        """At equal GOP the low track carries the SVC base layer, so the two
        cost the same bytes in every second."""
        trace = switching_trace(random.Random(12), 10, 12 * T, 20 * T)
        duration = trace[-1][0] + 30 * T
        svc = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), config, 1,
                          duration_ms=duration)
        multitrack = run_session(Scheme(SchemeKind.MULTITRACK, config.gop_size, 0), trace,
                                 NetworkModel(), config, 1, duration_ms=duration)
        svc_base = {second: row["base"] for second, row in svc.seconds.items()}
        assert svc_base == {second: row["low"] for second, row in multitrack.seconds.items()}

    def test_short_track_stops_off_its_own_boundaries(self):
        """With a long GOP that is not a multiple of the short GOP, the long
        track can catch up between short-GOP boundaries; the short stream
        stops on that tick."""
        scheme = Scheme(SchemeKind.MULTITRACK, 3, 2)
        trace = switching_trace(random.Random(15), 30, 2 * T, 9 * T)
        net = NetworkModel(5.0, 10.0)
        report = run_session(scheme, trace, net, CONFIG, 1)
        assert_same_session(report, reference_run_session(scheme, trace, net, CONFIG, 1))
        stops = [g.tick for f, g in zip(report.frames, report.frames[1:])
                 if "short" in f.bytes_by_stream and "short" not in g.bytes_by_stream]
        assert any(k % 2 for k in stops)


class TestSwitchWindows:
    """A switch is served only by the ticks that know its pose and no later
    one; the reference test reaches these edges only by chance."""

    SCHEMES = [Scheme(SchemeKind.SVC), Scheme(SchemeKind.MULTITRACK, 10, 0),
               Scheme(SchemeKind.MULTITRACK, 30, 5)]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
    def test_switches_known_in_one_tick_leave_the_first_not_reached(self, scheme):
        # Both arrivals fall between ticks 3 and 4, so no tick knows pose 1
        # alone: tick 4 is its first tick, and it already knows pose 2, whose
        # tiles (the whole sphere) cover pose 1's.
        whole = Viewport.from_degrees(0, 0, 360, 180)
        trace = [(0.0, VIEW_A), (3 * T + 5.0, VIEW_B), (3 * T + 10.0, whole)]
        report = run_session(scheme, trace, NetworkModel(), CONFIG, 1)
        first, second = report.switches
        assert first.mtp_ms == pytest.approx(5 * T - trace[1][0])
        assert first.mthq_ms is None
        assert second.mtp_ms == pytest.approx(5 * T - trace[2][0])
        if scheme.kind == SchemeKind.SVC:
            assert second.mthq_ms == second.mtp_ms
        assert_same_session(report, reference_run_session(scheme, trace, NetworkModel(),
                                                          CONFIG, 1))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
    def test_repeated_viewport_is_timed_from_its_own_switch(self, scheme):
        # Ticks 7 and 13 are the first to know each switch; both show a frame
        # later.  By tick 13 every scheme's HQ tiles already hold the viewport.
        trace = [(0.0, VIEW_A), (205.0, VIEW_B), (415.0, VIEW_B)]
        report = run_session(scheme, trace, NetworkModel(), CONFIG, 1)
        first, second = report.switches
        assert first.mtp_ms == pytest.approx(8 * T - 205.0)
        assert second.mtp_ms == second.mthq_ms == pytest.approx(14 * T - 415.0)
        if scheme.kind == SchemeKind.SVC:
            assert first.mthq_ms == first.mtp_ms
        assert_same_session(report, reference_run_session(scheme, trace, NetworkModel(),
                                                          CONFIG, 1))


def assert_same_session(got, want):
    """Equal switches, per-second bytes (in insertion order, which the JSON
    report keeps) and FrameLogs; every FrameLog owns its byte dict."""
    assert got.scheme_label == want.scheme_label
    assert got.frame_period_ms == want.frame_period_ms
    assert got.switches == want.switches
    assert list(got.seconds) == list(want.seconds)
    for sec, streams in want.seconds.items():
        assert list(got.seconds[sec].items()) == list(streams.items())
    frames, want_frames = tuple(got.frames), tuple(want.frames)
    assert frames == want_frames
    for a, b in zip(frames, want_frames):
        assert list(a.bytes_by_stream.items()) == list(b.bytes_by_stream.items())
    assert len({id(f.bytes_by_stream) for f in frames}) == len(frames)
    assert json.dumps(report_to_json(got)) == json.dumps(report_to_json(want))


# Small frames keep each reference session (which rebuilds its tables) cheap.
# The cube map needs a 3:2 frame.
_SHAPES = {ProjectionKind.ERP: (96, 48), ProjectionKind.CUBEMAP_3x2: (96, 64)}
_POOL = [
    Viewport.from_degrees(0, 0, 90, 90),
    Viewport.from_degrees(120, 20, 90, 60),
    Viewport.from_degrees(-150, -70, 60, 90),
]


@st.composite
def sessions(draw):
    kind = draw(st.sampled_from(list(_SHAPES)))
    width, height = _SHAPES[kind]
    cols, rows = draw(st.sampled_from([(6, 4), (3, 2), (1, 1)]))
    gop = draw(st.sampled_from([1, 2, 3, 5]))
    config = SequenceConfig(width=width, height=height, tile_cols=cols, tile_rows=rows,
                            gop_size=gop)
    if draw(st.booleans()):
        scheme = Scheme(SchemeKind.SVC)
    else:
        scheme = Scheme(
            SchemeKind.MULTITRACK,
            long_gop=draw(st.sampled_from([1, 2, 3, 6])),
            short_gop=draw(st.sampled_from([0, 0, 1, 2])),
        )
    network = NetworkModel(
        uplink_delay_ms=draw(st.floats(0, 150)),
        downlink_delay_ms=draw(st.floats(0, 150)),
        bandwidth_bytes_per_s=draw(st.none() | st.floats(1e4, 1e6)),
    )
    view = st.sampled_from(_POOL) | st.builds(
        Viewport.from_degrees, st.floats(-180, 180), st.floats(-90, 90),
        st.floats(1, 200), st.floats(1, 180))
    t = draw(st.floats(0, 100))
    trace = [(t, draw(view))]
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.floats(1, 400))
        trace.append((t, draw(view)))
    duration_ms = draw(st.none() | st.floats(0, t + 600))
    seed = draw(st.integers(1, 3))
    return scheme, trace, network, config, seed, dict(
        projection_kind=kind, duration_ms=duration_ms)


class TestMatchesReference:
    """``run_session`` builds each size table once per process and charges
    each (frame, tile set) once; the reference rebuilds and recomputes
    everything per call."""

    @given(sessions())
    @settings(max_examples=120, deadline=None)
    def test_equals_reference(self, session):
        scheme, trace, network, config, seed, kwargs = session
        got = run_session(scheme, trace, network, config, seed, **kwargs)
        assert_same_session(got, reference_run_session(scheme, trace, network, config, seed,
                                                       **kwargs))
        if scheme.kind == SchemeKind.SVC:
            # One-frame switch: the first tick serving a pose sends its tiles.
            assert all(s.mthq_ms is None or s.mthq_ms == s.mtp_ms for s in got.switches)

    def test_cache_key_holds_every_field(self):
        """Sessions that differ in one of config, seed, GOP or track
        resolution alternate in one process, so a cached table built for one
        would be served to the next if its key lacked that field."""
        base = SequenceConfig(width=96, height=48, tile_cols=6, tile_rows=4, gop_size=3)
        other_grid = SequenceConfig(width=96, height=48, tile_cols=3, tile_rows=2, gop_size=3)
        other_gop = SequenceConfig(width=96, height=48, tile_cols=6, tile_rows=4, gop_size=6)
        svc = Scheme(SchemeKind.SVC)
        multitrack = Scheme(SchemeKind.MULTITRACK, 6, 0)
        trace = switching_trace(random.Random(13), 6, 3 * T, 9 * T)
        net = NetworkModel(10.0, 20.0)
        # (scheme, config, seed): each differs from the first of its scheme
        # kind in one field.  The long and low tracks of multitrack(6,0)
        # share a GOP and differ only in resolution.
        runs = [
            (svc, base, 1), (svc, other_grid, 1), (svc, other_gop, 1), (svc, base, 2),
            (multitrack, base, 1), (multitrack, other_grid, 1), (multitrack, base, 2),
            (Scheme(SchemeKind.MULTITRACK, 3, 0), base, 1),
            (Scheme(SchemeKind.MULTITRACK, 6, 3), base, 1),
            (Scheme(SchemeKind.MULTITRACK, 6, 2), base, 1),
        ]
        for _ in range(2):  # the second pass is served from the cache
            for scheme, config, seed in runs:
                got = run_session(scheme, trace, net, config, seed)
                assert_same_session(got, reference_run_session(scheme, trace, net, config, seed))


@st.composite
def scheme_sets(draw):
    """A session of ``sessions()`` under svc, multitrack(G,0) and
    multitrack(G,S) in a drawn order, over nonzero delays.  A duration past
    the tick budget, or a bandwidth whose display times overflow (1e-307),
    refuses; near that (1e-300) a display time is close to overflowing."""
    _, trace, _, config, seed, kwargs = draw(sessions())
    gop = draw(st.sampled_from([1, 2, 3, 6]))
    schemes = draw(st.permutations([
        Scheme(SchemeKind.SVC), Scheme(SchemeKind.MULTITRACK, gop, 0),
        Scheme(SchemeKind.MULTITRACK, gop, draw(st.sampled_from([1, 2, 5])))]))
    delay = st.floats(0, 150, exclude_min=True)
    cap = st.none() | st.floats(1e4, 1e6) | st.sampled_from([1e-300, 1e-307])
    network = NetworkModel(draw(delay), draw(delay), draw(cap))
    if draw(st.integers(0, 9)) == 0:
        kwargs["duration_ms"] = 1e13
    return schemes, trace, network, config, seed, kwargs


def _outcome(run):
    """What ``run()`` returns, or the type and message of the error it raises."""
    try:
        return run()
    except SvbsError as exc:
        return type(exc), str(exc)


class TestRunSessions:
    """One ``run_sessions`` call shares its timeline across its schemes; each
    report must equal the scheme's session run alone.  A call checks every
    scheme's budgets before it computes a session, so it refuses with the first
    budget refusal in scheme order, or else the first display overflow."""

    @given(scheme_sets())
    @settings(max_examples=60, deadline=None)
    # svc's session ends in second 1 and multitrack(6,5)'s in second 2.
    @example(([Scheme(SchemeKind.SVC), Scheme(SchemeKind.MULTITRACK, 6, 0),
               Scheme(SchemeKind.MULTITRACK, 6, 5)],
              [(0.0, _POOL[0]), (1800.0, _POOL[1])], NetworkModel(10.0, 20.0),
              SequenceConfig(width=96, height=48, tile_cols=6, tile_rows=4, gop_size=3), 1,
              dict(projection_kind=ProjectionKind.ERP, duration_ms=None)))
    # svc's display times overflow, and multitrack(2049,0)'s 2,049-frame cycle
    # is over the content budget at 1024x512: the budget is refused first.
    @example(([Scheme(SchemeKind.SVC), Scheme(SchemeKind.MULTITRACK, 2049, 0)],
              [(0.0, _POOL[0]), (100.0, _POOL[1])], NetworkModel(bandwidth_bytes_per_s=1e-307),
              SequenceConfig(width=1024, height=512, tile_cols=4, tile_rows=4, gop_size=3), 1,
              dict(projection_kind=ProjectionKind.ERP, duration_ms=None)))
    def test_equals_each_scheme_alone(self, call):
        schemes, trace, network, config, seed, kwargs = call
        alone = [_outcome(lambda: run_session(scheme, trace, network, config, seed, **kwargs))
                 for scheme in schemes]
        got = _outcome(lambda: run_sessions(schemes, trace, network, config, seed, **kwargs))
        refusals = [one for one in alone if isinstance(one, tuple)]
        if refusals:
            budget = [one for one in refusals if "display times overflow" not in one[1]]
            assert got == (budget or refusals)[0]
            return
        assert isinstance(got, list) and len(got) == len(schemes)
        for report, scheme, one in zip(got, schemes, alone):
            assert_same_session(report, one)
            assert_same_session(report, reference_run_session(scheme, trace, network, config,
                                                              seed, **kwargs))

    def test_a_later_budget_is_refused_before_an_earlier_overflow(self):
        """This bandwidth overflows svc's display times, which svc alone
        refuses, but the second scheme's cycle is over the content budget
        (see ``test_over_budget_is_refused_before_allocating``), and a call
        checks every budget before it computes a session."""
        config = SequenceConfig(width=96, height=48, tile_cols=6, tile_rows=4, gop_size=10)
        schemes = [Scheme(SchemeKind.SVC), Scheme(SchemeKind.MULTITRACK, 1000, 999)]
        trace = [(0.0, VIEW_A), (1e7, VIEW_B)]
        network = NetworkModel(bandwidth_bytes_per_s=1e-307)
        with pytest.raises(TooLargeError, match="display times overflow"):
            run_session(schemes[0], trace, network, config, 1)
        with pytest.raises(TooLargeError, match="content pixel budget"):
            run_sessions(schemes, trace, network, config, 1)


class TestTraceValidation:
    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            run_session(Scheme(SchemeKind.SVC), [], NetworkModel(), CONFIG, 1)

    def test_poses_before_the_session_start_are_served_from_tick_0(self):
        trace = [(-500.0, VIEW_A), (-300.0, VIEW_B), (2000.0, VIEW_C)]
        report = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), CONFIG, 1)
        assert report.switches[0] == SwitchSample(-300.0, T + 300.0, T + 300.0)
        # A session whose trace ends before it starts has no ticks to serve.
        report = run_session(Scheme(SchemeKind.SVC), trace[:2], NetworkModel(), CONFIG, 1)
        assert [(s.mtp_ms, s.mthq_ms) for s in report.switches] == [(None, None)]

    @pytest.mark.parametrize(
        "schemes, trace, network, message",
        [([Scheme(SchemeKind.SVC)], [(0.0, VIEW_A), (1e13, VIEW_B)], NetworkModel(),
          "session tick budget"),
         # A session encodes at most its ticks' frames, here some 300,000 of the
         # 999,000-frame cycle: still over the content budget at 96x48.
         ([Scheme(SchemeKind.MULTITRACK, 1000, 999)], [(0.0, VIEW_A), (1e7, VIEW_B)],
          NetworkModel(), "content pixel budget"),
         # svc's 300,000 ticks fit, but no column is built before the second
         # scheme's tables are looked up, whatever the bandwidth: at 1e-300 B/s
         # svc's display times come close to overflowing, at 1e-307 they do.
         *[([Scheme(SchemeKind.SVC), Scheme(SchemeKind.MULTITRACK, 1000, 999)],
            [(0.0, VIEW_A), (1e7, VIEW_B)], NetworkModel(bandwidth_bytes_per_s=cap),
            "content pixel budget") for cap in (None, 1e-300, 1e-307)]],
        ids=["ticks", "content-cycle", "second-scheme", "second-scheme-1e-300",
             "second-scheme-1e-307"],
    )
    def test_over_budget_is_refused_before_allocating(self, schemes, trace, network, message):
        config = SequenceConfig(width=96, height=48, tile_cols=6, tile_rows=4, gop_size=10)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match=message):
                run_sessions(schemes, trace, network, config, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("first", [[], [Scheme(SchemeKind.SVC)]], ids=["alone", "after-svc"])
    def test_over_tile_budget_generates_nothing(self, monkeypatch, first):
        # The 100-frame cycle's FULL track has 65,025 tiles a frame; 26 MB of
        # content, under the content budget, but over the encoded tile budget.
        # An earlier scheme within its budgets generates nothing either.
        config = SequenceConfig(width=510, height=510, tile_cols=255, tile_rows=255, gop_size=30)
        schemes = [*first, Scheme(SchemeKind.MULTITRACK, 100, 0)]
        calls = []
        monkeypatch.setattr(simulator, "generate_content", lambda *args: calls.append(args))
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="100 frames of 65025 tiles exceed the "
                                                    "encoded tile budget"):
                run_sessions(schemes, [(0.0, VIEW_A), (4000.0, VIEW_B)], NetworkModel(),
                             config, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [] and peak < 1 << 20

    # 500 fps: a 2 ms period, exact in binary, so a duration of a whole number
    # of periods is an exact tick count.
    BUDGET_CONFIG = SequenceConfig(width=96, height=48, tile_cols=2, tile_rows=2, gop_size=10,
                                   fps_num=500)

    def test_session_at_the_tick_budget_stays_under_256_mib(self):
        trace = switching_trace(random.Random(15), 6, 6 * T, 12 * T)
        # Ticks 0 to SESSION_TICK_BUDGET - 1: exactly the budget.
        duration_ms = (SESSION_TICK_BUDGET - 1) * self.BUDGET_CONFIG.frame_period_ms
        tracemalloc.start()
        try:
            report = run_session(Scheme(SchemeKind.MULTITRACK, 10, 5), trace, NetworkModel(),
                                 self.BUDGET_CONFIG, 1, duration_ms=duration_ms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.frames) == SESSION_TICK_BUDGET
        assert peak < 256 << 20

    def test_one_tick_over_the_budget_is_refused_before_allocating(self):
        trace = switching_trace(random.Random(15), 6, 6 * T, 12 * T)
        duration_ms = SESSION_TICK_BUDGET * self.BUDGET_CONFIG.frame_period_ms
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="1.05e[+]06 ticks exceed the session tick "
                                                    "budget 1048576"):
                run_session(Scheme(SchemeKind.MULTITRACK, 10, 5), trace, NetworkModel(),
                            self.BUDGET_CONFIG, 1, duration_ms=duration_ms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pose_known_past_the_int64_range_is_never_served(self):
        # 1e21 ms is more than 2**63 ticks: the first tick of every switch
        # lies past the session's end.
        trace = [(0.0, VIEW_A), (100.0, VIEW_B), (200.0, VIEW_C)]
        report = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(uplink_delay_ms=1e21),
                             CONFIG, 1)
        assert [(s.mtp_ms, s.mthq_ms) for s in report.switches] == [(None, None)] * 2
        assert latency_summary([report])[0]["not_reached"] == 2

    def test_nonmonotonic_times(self):
        trace = [(0.0, VIEW_A), (100.0, VIEW_B), (50.0, VIEW_C)]
        with pytest.raises(BadArgsError):
            run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), CONFIG, 1)


class TestReporting:
    def _small_report(self):
        trace = switching_trace(random.Random(12), 8, 6 * T, 12 * T)
        return run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), CONFIG, 1)

    def test_latency_summary(self):
        report = self._small_report()
        (entry,) = latency_summary([report])
        assert entry["scheme"] == "svc"
        assert entry["switches"] == 8
        assert entry["not_reached"] == 0
        assert entry["mean_mthq_ms"] == pytest.approx(T, abs=1e-6)
        assert entry["p95_mthq_ms"] <= MTHQ_COMPLIANCE_MS
        assert entry["mthq_50ms_compliant"] is True

    def test_latency_summary_requires_reports(self):
        with pytest.raises(BadArgsError):
            latency_summary([])

    def test_json_report(self, tmp_path):
        report = self._small_report()
        path = tmp_path / "out.json"
        write_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded == report_to_json(report)
        assert loaded["total_bytes"] == report.total_bytes

_AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-7, 1e16, 1e22, 0.1 + 0.2, 1 / 3,
                   1.7976931348623157e308, float("inf"), float("-inf"), float("nan")]
_floats = st.sampled_from(_AWKWARD_FLOATS) | st.floats()
_streams = st.sampled_from(["base", "enhanced", "low", "long", "short"]) | st.text(max_size=8)
_byte_counts = st.sampled_from([0, 2**53, 2**53 + 1, 2**64 + 7]) | st.integers(0, 2**70)


@st.composite
def reports(draw):
    switches = draw(st.lists(st.builds(SwitchSample, _floats, st.none() | _floats,
                                       st.none() | _floats), max_size=6))
    seconds = draw(st.dictionaries(st.integers(-5, 10**6),
                                   st.dictionaries(_streams, _byte_counts, max_size=4),
                                   max_size=6))
    label = draw(st.sampled_from(["svc", "multitrack(30,5)"]) | st.text(max_size=12))
    return SessionReport(label, draw(_floats), switches, seconds)


def _same_json(a, b) -> bool:
    """Equal JSON values of the same types, objects in the same key order,
    and NaN equal to NaN."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same_json(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


class TestReportWriter:
    """``write_report_json`` writes ``report_to_json`` on one line, which must
    load back to the same values and equal ``json.dumps`` byte for byte.
    ``write_report_csv`` formats its rows itself; it must equal ``csv.writer``
    byte for byte.  Both read each switch's numbers from one text."""

    @given(reports())
    @settings(max_examples=200, deadline=None)
    @example(SessionReport("svc", 1000 / 30, [], {}))
    @example(SessionReport(
        "multitrack(30,5)", -0.0,
        [SwitchSample(5e-324, None, None), SwitchSample(1e16, 1e-7, None)],
        {3: {"low": 2**53 + 1, "long": 7}, 0: {"low": 1, "long": 2, "short": 3}, 9: {}}))
    @example(SessionReport("svc", 0.0, [SwitchSample(0.0, -0.0, 0.0),
                                        SwitchSample(-0.0, 0.0, -0.0),
                                        SwitchSample(1.0, -0.0, -0.0)], {}))
    @example(SessionReport(
        "svc", float("nan"),
        [SwitchSample(float("nan"), float("inf"), float("-inf")),
         SwitchSample(float("inf"), float("-inf"), float("nan")),
         SwitchSample(float("-inf"), float("nan"), float("inf")),
         SwitchSample(1.0, float("inf"), float("inf")), SwitchSample(2.0, None, None)],
        {}))
    @example(SessionReport("svc", 1e22, [SwitchSample(5e-324, 1e16, 1e22),
                                         SwitchSample(1e22, 5e-324, 5e-324)], {}))
    @example(SessionReport(
        'q"b\\s\u00e9\u2603\n', 1000 / 30, [SwitchSample(1.0, 2.0, None)],
        {0: {'q"': 1, "b\\": 2, "\u00e9": 3, "\u2603": 4, "\x00": 5}}))
    @example(SessionReport("multitrack(30,5)", 1000 / 30, [],
                           {1: {"low": 0, "long": 0}, 0: {"short": 0}}))
    @example(SessionReport("svc", 1000 / 30, [],
                           {5: {"low": 1}, -2: {"low": 2}, 3: {"low": 3}}))
    @example(SessionReport("multitrack(30,5)", 1000 / 30, [],
                           {0: {"low": 1, "long": 2, "short": 3},
                            1: {"short": 4, "low": 5, "long": 6}}))
    def test_one_line_loading_to_report_to_json(self, tmp_path_factory, report):
        path = tmp_path_factory.getbasetemp() / "report-writer.json"
        write_report_json(report, path)
        got = path.read_bytes()
        text = got.decode()
        assert text.endswith("\n") and text.count("\n") == 1
        assert _same_json(json.loads(text), report_to_json(report))
        reference_write_report_json(report, path)
        assert got == path.read_bytes()

    @given(reports())
    @settings(max_examples=200, deadline=None)
    @example(SessionReport("svc", 1000 / 30, [SwitchSample(1.0, 0.0, -0.0),
                                              SwitchSample(2.0, -0.0, 0.0)], {}))
    @example(SessionReport("", 1000 / 30, [SwitchSample(0.0, None, None)], {0: {"": 5}}))
    @example(SessionReport(
        'a,"b"\r\n c', 1000 / 30,
        [SwitchSample(-0.0, float("nan"), None), SwitchSample(float("inf"), -0.0, float("nan")),
         SwitchSample(1e16, float("-inf"), float("inf"))],
        {1: {"low": 3, "": 0, "a,b": 1, 'q"': 2, "r\r": 4, " lead": 5}, 0: {}}))
    @example(SessionReport(" svc", 1000 / 30, [SwitchSample(5.0, 1.0, 2.0)], {}))
    def test_csv_equals_csv_writer(self, tmp_path_factory, report):
        path = tmp_path_factory.getbasetemp() / "report-writer.csv"
        write_report_csv(report, path)
        got = path.read_bytes()
        reference_write_report_csv(report, path)
        assert got == path.read_bytes()


class TestFrameLogs:
    def test_a_tick_is_built_when_it_is_read(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args[0])
            return FrameLog(*args)

        monkeypatch.setattr("svbs.simulator.FrameLog", counting)
        trace = switching_trace(random.Random(14), 6, 6 * T, 12 * T)
        report = run_session(Scheme(SchemeKind.MULTITRACK, 10, 5), trace, NetworkModel(),
                             CONFIG, 1)
        n = len(report.frames)
        assert built == [] and n > 3
        tick = report.frames[2]
        assert built == [2] and tick.tick == 2
        frames = tuple(report.frames)
        assert len(frames) == n and [f.tick for f in frames] == list(range(n))
        assert frames[2] == tick
        assert report.frames[-1] == frames[-1] and report.frames[-n] == frames[0]
        assert report.frames[1:3] == frames[1:3] and report.frames[::-2] == frames[::-2]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                report.frames[k]
        with pytest.raises(TypeError):
            report.frames[0] = tick
