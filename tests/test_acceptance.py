"""End-to-end acceptance gate.

Each test checks one numbered criterion and prints a single PASS/FAIL line.
Criteria that depend on timing are wall-clock bounded; randomized criteria
use fixed seeds so the gate is deterministic.
"""

import math
import random
import statistics
import time

import numpy as np

from helpers import expected_gop_wait_ms, random_bitstream, record_bytes_per_frame
from svbs.codec import (
    TrackResolution,
    decode_frame,
    downsample,
    encode_svc,
    encode_track,
    generate_content,
    upsample_nearest,
)
from svbs.config import SequenceConfig
from svbs.container import (
    Bitstream,
    Frame,
    FrameHeader,
    FrameType,
    LayerFrame,
    LayerId,
    R_CLOSED_GOP,
    R_TEMPORAL_IN_ENH,
    Tile,
    TileGroup,
    TileKind,
    parse,
    serialize,
    validate_structure,
)
from svbs.geometry import (
    Projection,
    ProjectionKind,
    Viewport,
    select_tiles,
    tile_coverage_oracle,
)
from svbs.rewriter import rewrite_viewport_frame
from svbs.simulator import (
    NetworkModel,
    Scheme,
    SchemeKind,
    run_session,
)

SIM_CONFIG = SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4, gop_size=10)
T = SIM_CONFIG.frame_period_ms

VIEWS = [
    Viewport.from_degrees(0, 0, 90, 90),
    Viewport.from_degrees(120, 0, 90, 90),
    Viewport.from_degrees(-120, 0, 90, 90),
]


def criterion(n: int, desc: str, ok: bool) -> None:
    print(f"[ACCEPTANCE {n}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def alternating_trace(rng, n_switches, min_gap, max_gap, align=False):
    trace = [(0.0, VIEWS[0])]
    t = 200.0
    for i in range(n_switches):
        t += rng.uniform(min_gap, max_gap)
        if align:
            t = math.ceil(t / T) * T
        trace.append((t, VIEWS[(i + 1) % 3]))
    return trace


def test_criterion_1_gop_latency_reproduction():
    start = time.perf_counter()
    rng = random.Random(101)
    trace = alternating_trace(rng, 1000, 12 * T, 30 * T)
    scheme = Scheme(SchemeKind.MULTITRACK, long_gop=10, short_gop=0)
    report = run_session(scheme, trace, NetworkModel(), SIM_CONFIG, 1)
    elapsed = time.perf_counter() - start
    waits = [m - T for m in report.mthq_samples]
    expect = expected_gop_wait_ms(10, 30)
    mean = statistics.fmean(waits)
    ok = (
        len(waits) == 1000
        and abs(mean - expect) <= 0.05 * expect
        and elapsed < 10.0
    )
    criterion(
        1,
        f"ten-frame-GOP track: mean switch wait {mean:.1f} ms vs {expect:.1f} ms "
        f"+/-5% over {len(waits)} switches in {elapsed:.2f} s",
        ok,
    )


def test_criterion_2_one_frame_switch():
    start = time.perf_counter()
    rng = random.Random(102)
    trace = alternating_trace(rng, 300, 5 * T, 14 * T, align=True)
    report = run_session(Scheme(SchemeKind.SVC), trace, NetworkModel(), SIM_CONFIG, 1)
    elapsed = time.perf_counter() - start
    deviations = [abs(s.mthq_ms - T) for s in report.switches if s.mthq_ms is not None]
    ok = (
        len(deviations) == 300
        and max(deviations) < 1e-6
        and elapsed < 10.0
    )
    criterion(
        2,
        f"layered scheme, zero delay: all {len(deviations)} switches reach high "
        f"quality in exactly one frame period (max dev {max(deviations):.2e} ms, "
        f"{elapsed:.2f} s)",
        ok,
    )


def test_criterion_3_short_track_tradeoff():
    rng = random.Random(103)
    trace = alternating_trace(rng, 300, 36 * T, 50 * T)
    with_short = run_session(
        Scheme(SchemeKind.MULTITRACK, 30, 5), trace, NetworkModel(), SIM_CONFIG, 1
    )
    without = run_session(
        Scheme(SchemeKind.MULTITRACK, 30, 0), trace, NetworkModel(), SIM_CONFIG, 1
    )
    mean_with = statistics.fmean(with_short.mthq_samples)
    mean_without = statistics.fmean(without.mthq_samples)
    ok = (
        mean_without >= 2.0 * mean_with
        and with_short.total_bytes > without.total_bytes
    )
    criterion(
        3,
        f"short-GOP helper track: mean switch latency {mean_without:.0f} -> "
        f"{mean_with:.0f} ms ({mean_without / mean_with:.1f}x) at "
        f"{with_short.total_bytes / without.total_bytes:.2f}x the bytes",
        ok,
    )


def test_criterion_4_transported_byte_fraction():
    start = time.perf_counter()
    config = SequenceConfig(width=768, height=384, tile_cols=6, tile_rows=4, gop_size=30)
    period = config.frame_period_ms
    rng = random.Random(104)
    yaw = 0.0
    trace = [(0.0, Viewport.from_degrees(yaw, 0, 90, 90))]
    t = 0.0
    for _ in range(59):
        t += 15 * period
        yaw += rng.uniform(-25.0, 25.0)
        trace.append((t, Viewport.from_degrees(yaw, 0, 90, 90)))
    duration = 30_000.0

    def enhanced_bytes(tr):
        report = run_session(
            Scheme(SchemeKind.SVC), tr, NetworkModel(), config, 1, duration_ms=duration
        )
        return sum(s.get("enhanced", 0) for s in report.seconds.values())

    wander = enhanced_bytes(trace)
    full = enhanced_bytes([(0.0, Viewport.from_degrees(0, 0, 360, 180))])
    elapsed = time.perf_counter() - start
    fraction = wander / full
    ok = 1 / 8 <= fraction <= 1 / 4 and elapsed < 30.0
    criterion(
        4,
        f"wandering 90x90 viewport transports {fraction:.3f} of the full "
        f"high-resolution layer bytes (band [0.125, 0.25], {elapsed:.1f} s)",
        ok,
    )


def test_criterion_5_rewriter_decodability():
    config = SequenceConfig(
        width=192, height=96, tile_cols=4, tile_rows=3, gop_size=3, ref_window=2
    )
    projection = Projection(ProjectionKind.ERP, config.width, config.height)
    source = generate_content(105, config, 6)
    stream = encode_svc(source)
    rng = random.Random(105)
    tw, th = config.tile_width, config.tile_height
    seam = 0
    ok = True
    for i in range(200):
        if i < 30:
            yaw = 180.0 + rng.uniform(-30.0, 30.0)
        else:
            yaw = rng.uniform(-180.0, 180.0)
        vp = Viewport.from_degrees(
            yaw, rng.uniform(-60, 60), rng.uniform(60, 120), rng.uniform(45, 90)
        )
        if abs((vp.yaw + 180) % 360 - 180) + vp.h_fov / 2 > 180:
            seam += 1
        k = i % len(stream.frames)
        selected = select_tiles(vp, projection, config)
        frames = list(stream.frames)
        frames[k] = rewrite_viewport_frame(frames[k], selected, config)
        rewritten = parse(serialize(Bitstream(config, tuple(frames))))
        if validate_structure(rewritten):
            ok = False
            break
        out = decode_frame(rewritten, k, selected)
        base_up = upsample_nearest(
            downsample(source.frames[k], config.scale_factor), config.scale_factor
        )
        for tile in range(config.tile_count):
            col, row = config.tile_position(tile)
            region = (slice(row * th, (row + 1) * th), slice(col * tw, (col + 1) * tw))
            want = source.frames[k] if tile in selected else base_up
            if not np.array_equal(out.samples[region], want.samples[region]):
                ok = False
        if not ok:
            break
    ok = ok and seam >= 20
    criterion(
        5,
        f"200 random viewports ({seam} seam-crossing): rewritten frames validate, "
        "decode, and meet the pixel contract (selected exact, rest upscaled base)",
        ok,
    )


def test_criterion_6_selection_matches_oracle():
    erp_config = SequenceConfig(width=768, height=384, tile_cols=6, tile_rows=4)
    erp = Projection(ProjectionKind.ERP, 768, 384)
    cube_config = SequenceConfig(width=768, height=512, tile_cols=6, tile_rows=4)
    cube = Projection(ProjectionKind.CUBEMAP_3x2, 768, 512)
    rng = random.Random(106)
    mismatches = 0
    for _ in range(200):
        vp = Viewport.from_degrees(
            rng.uniform(-180, 180),
            rng.uniform(-60, 60),
            rng.uniform(60, 120),
            rng.uniform(45, 90),
        )
        for proj, config in ((erp, erp_config), (cube, cube_config)):
            if select_tiles(vp, proj, config) != tile_coverage_oracle(
                vp, proj, config
            ):
                mismatches += 1
    seam_vp = Viewport.from_degrees(180, 0, 90, 90)
    cols = sorted({t % 6 for t in select_tiles(seam_vp, erp, erp_config)})
    noncontiguous = any(b - a > 1 for a, b in zip(cols, cols[1:]))
    ok = mismatches == 0 and noncontiguous
    criterion(
        6,
        f"fast tile selection equals the brute-force oracle on 200 viewports x 2 "
        f"projections ({mismatches} mismatches); seam viewport spans columns "
        f"{cols} (non-contiguous)",
        ok,
    )


def _closed_gop_case() -> Bitstream:
    config = SequenceConfig(width=32, height=16, gop_size=2, ref_window=2)

    def tile(payload=b"\x01"):
        return Tile(0, TileKind.CODED, coded_payload=payload)

    def frame(pos, offset=0):
        base = LayerFrame(
            FrameHeader(pos, LayerId.BASE, FrameType.KEY if pos % 2 == 0 else FrameType.INTER),
            (TileGroup(0, 0, (tile(),)),),
        )
        enh = LayerFrame(
            FrameHeader(
                pos, LayerId.ENHANCED, FrameType.INTER, base_ref_offset=offset
            ),
            (TileGroup(0, 0, (tile(),)),),
        )
        return Frame(layers=(base, enh))

    # Frame 2 starts a new GOP but points one frame back, across the boundary.
    return Bitstream(config=config, frames=(frame(0), frame(1), frame(2, offset=1)))


def _stacked_enhanced_case() -> Bitstream:
    config = SequenceConfig(width=32, height=16)
    tile = Tile(0, TileKind.CODED, coded_payload=b"\x01")
    base = LayerFrame(
        FrameHeader(0, LayerId.BASE, FrameType.KEY), (TileGroup(0, 0, (tile,)),)
    )
    enh = LayerFrame(
        FrameHeader(0, LayerId.ENHANCED, FrameType.INTER), (TileGroup(0, 0, (tile,)),)
    )
    return Bitstream(config=config, frames=(Frame(layers=(base, enh, enh)),))


def test_criterion_7_container_round_trip():
    rng = random.Random(107)
    failures = 0
    for _ in range(1000):
        stream = random_bitstream(rng)
        if validate_structure(stream) or parse(serialize(stream)) != stream:
            failures += 1
    clean = validate_structure(
        encode_svc(generate_content(1, SequenceConfig(width=64, height=32, gop_size=4), 4))
    )
    gop_report = validate_structure(_closed_gop_case())
    stack_report = validate_structure(_stacked_enhanced_case())
    detected = (
        clean == []
        and any(v.rule == R_CLOSED_GOP for v in gop_report)
        and any(v.rule == R_TEMPORAL_IN_ENH for v in stack_report)
    )
    ok = failures == 0 and detected
    criterion(
        7,
        f"1000 randomized models round-trip byte-exactly ({failures} failures); "
        "encoder output is clean and both hand-built rule breaches are reported",
        ok,
    )


def test_criterion_8_codec_property_substitutions():
    # Rate-distortion and encoding-time figures need a production encoder on
    # real footage and are out of scope here; the agreed substitutes are the
    # codec monotonicity properties below.
    config = SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4)
    source = generate_content(108, config, 8)
    stream = encode_svc(source)
    key_bytes, inter_bytes = [], []
    for frame, n in zip(stream.frames, record_bytes_per_frame(stream, LayerId.BASE)):
        key = frame.layers[0].header.frame_type == FrameType.KEY
        (key_bytes if key else inter_bytes).append(n)
    key_over_inter = statistics.fmean(key_bytes) > statistics.fmean(inter_bytes)

    wide = SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4, ref_window=3)
    n_narrow = len(serialize(stream))
    n_wide = len(serialize(encode_svc(generate_content(108, wide, 8))))
    window_dominance = n_wide <= n_narrow

    gop_source = generate_content(108, SequenceConfig(width=64, height=32, gop_size=30), 30)
    sizes = {
        gop: len(serialize(encode_track(gop_source, gop, TrackResolution.FULL)))
        for gop in (3, 5, 30)
    }
    gop_monotone = sizes[3] >= sizes[5] >= sizes[30]

    ok = key_over_inter and window_dominance and gop_monotone
    criterion(
        8,
        "rate/time figures not reproducible at desk scale; substituted property "
        "suite holds (KEY > INTER bytes, wider reference window never costs "
        "more, smaller GOP never cheaper)",
        ok,
    )
