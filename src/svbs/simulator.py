"""Discrete-time client/server session simulation.

Compares viewport-switch latency (MTP / MTHQ) and transported bytes between
the layered single-stream scheme (per-frame tile rewriting) and OMAF-style
multi-track delivery (long-GOP high-res track, always-on low-res track,
optional short-GOP high-res track for switches).

Timing model: the server composes frame k at k*T where T is the frame
period, using the latest pose whose uplink arrival is <= k*T.  The payload
arrives after downlink delay plus serialization time and is displayed at the
first frame boundary strictly after arrival, so a zero-delay network still
pays exactly one frame period.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .codec import encode_svc, encode_track, generate_content, TrackResolution
from .config import SequenceConfig
from .container import UNIT_HEADER_SIZE, LayerId, rate_records, tile_group_size
from .errors import BadArgsError, EmptyTraceError, NoStreamError
from .geometry import Projection, ProjectionKind, Viewport, select_tiles
from .rewriter import _skipped_tile_group

MTHQ_COMPLIANCE_MS = 50.0

# Tolerance, as a fraction of one tick, absorbing float error in time/tick
# conversions so boundary-aligned events resolve to the intended tick.
_TICK_EPS = 1e-9


class SchemeKind(Enum):
    SVC = "svc"
    MULTITRACK = "multitrack"


@dataclass(frozen=True)
class Scheme:
    kind: SchemeKind
    long_gop: int = 30
    short_gop: int = 0  # 0 = no short track
    low_gop: int | None = None  # defaults to long_gop

    def __post_init__(self) -> None:
        if self.kind == SchemeKind.MULTITRACK:
            if self.long_gop < 1:
                raise BadArgsError("long_gop must be >= 1")
            if self.short_gop < 0:
                raise BadArgsError("short_gop must be >= 0")
            if self.low_gop is not None and self.low_gop < 1:
                raise BadArgsError("low_gop must be >= 1")

    @property
    def label(self) -> str:
        if self.kind == SchemeKind.SVC:
            return "svc"
        return f"multitrack({self.long_gop},{self.short_gop})"


@dataclass(frozen=True)
class NetworkModel:
    uplink_delay_ms: float = 0.0
    downlink_delay_ms: float = 0.0
    bandwidth_bytes_per_s: float | None = None  # None = unlimited

    def __post_init__(self) -> None:
        if not (0 <= self.uplink_delay_ms < math.inf and 0 <= self.downlink_delay_ms < math.inf):
            raise BadArgsError("delays must be nonnegative and finite")
        if self.bandwidth_bytes_per_s is not None and not 0 < self.bandwidth_bytes_per_s < math.inf:
            raise BadArgsError("bandwidth must be positive and finite")

    def serialization_ms(self, n_bytes: int) -> float:
        if self.bandwidth_bytes_per_s is None:
            return 0.0
        return 1000.0 * n_bytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class SwitchEvent:
    t_ms: float
    viewport: Viewport


@dataclass(frozen=True)
class SwitchSample:
    t_ms: float
    mtp_ms: float | None
    mthq_ms: float | None  # None = NOT_REACHED


@dataclass(frozen=True)
class FrameLog:
    tick: int
    display_ms: float
    hq_tiles: frozenset[int]
    sent_tiles: frozenset[int]
    bytes_by_stream: dict[str, int]


@dataclass(frozen=True)
class SessionReport:
    scheme_label: str
    frame_period_ms: float
    switches: list[SwitchSample]
    seconds: dict[int, dict[str, int]]  # second -> stream -> bytes
    frames: list[FrameLog] = field(repr=False, default_factory=list)

    @property
    def mthq_samples(self) -> list[float]:
        return [s.mthq_ms for s in self.switches if s.mthq_ms is not None]

    @property
    def mtp_samples(self) -> list[float]:
        return [s.mtp_ms for s in self.switches if s.mtp_ms is not None]

    @property
    def total_bytes(self) -> int:
        return sum(sum(streams.values()) for streams in self.seconds.values())


def expected_gop_wait_ms(gop: int, fps) -> float:
    """Mean wait imposed by GOP-aligned switching: half a GOP of frames."""
    if gop < 1:
        raise BadArgsError("gop must be >= 1")
    fps = float(fps)
    if fps <= 0:
        raise BadArgsError("fps must be positive")
    return 1000.0 * gop / (2.0 * fps)


# --- per-frame size tables ---------------------------------------------------

# Entries kept by each size-table cache.  An entry holds only integer tuples,
# a few KiB at any resolution; frames and sources are never cached.
_TABLE_CACHE_SIZE = 32


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _svc_tables(config: SequenceConfig, seed: int, cycle: int):
    """Per frame of the cycle: base-layer bytes, enhanced frame-header bytes
    and enhanced bytes per tile; then the bytes of one skipped-tile stub."""
    source = generate_content(seed, config, cycle)
    stream = encode_svc(source)
    base_bytes = [UNIT_HEADER_SIZE] * cycle  # temporal delimiter per frame
    enh_header = [0] * cycle
    coded = [[0] * config.tile_count for _ in range(cycle)]
    for rec in rate_records(stream):
        if rec.layer_id == LayerId.BASE:
            base_bytes[rec.frame_index] += rec.n_bytes
        elif rec.tile_index is None:
            enh_header[rec.frame_index] += rec.n_bytes
        else:
            coded[rec.frame_index][rec.tile_index] = rec.n_bytes
    # Every stub of a grid has the same size.
    skip_group_bytes = tile_group_size(_skipped_tile_group(0, config))
    return tuple(base_bytes), tuple(enh_header), tuple(map(tuple, coded)), skip_group_bytes


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _track_tables(
    config: SequenceConfig,
    seed: int,
    cycle: int,
    tracks: tuple[tuple[int, TrackResolution], ...],
):
    """Per (gop, resolution) track, per frame of the cycle: header bytes and
    bytes per tile.  The tracks are encoded from one generated content."""
    source = generate_content(seed, config, cycle)
    out = []
    for gop, resolution in tracks:
        stream = encode_track(source, gop, resolution)
        header = [UNIT_HEADER_SIZE] * cycle
        tiles = [[0] * stream.config.tile_count for _ in range(cycle)]
        for rec in rate_records(stream):
            if rec.tile_index is None:
                header[rec.frame_index] += rec.n_bytes
            else:
                tiles[rec.frame_index][rec.tile_index] = rec.n_bytes
        out.append((tuple(header), tuple(map(tuple, tiles))))
    return tuple(out)


def _region_bytes(header, tiles):
    """``(j, region) -> header[j] + the bytes of region's tiles in frame j``,
    summed once per pair."""
    memo: dict[tuple[int, frozenset[int]], int] = {}

    def charge(j: int, region: frozenset[int]) -> int:
        key = (j, region)
        n = memo.get(key)
        if n is None:
            row = tiles[j]
            n = memo[key] = header[j] + sum(row[t] for t in region)
        return n

    return charge


# --- the session loop --------------------------------------------------------


def run_session(
    scheme: Scheme,
    trace: list[tuple[float, Viewport]],
    network: NetworkModel,
    config: SequenceConfig,
    source_seed: int,
    *,
    projection_kind: ProjectionKind = ProjectionKind.ERP,
    # Accepted and ignored: tile selection is exact and has no step.  The
    # perfbench sim-sweep spot check still passes it; remove the keyword
    # together with that call.
    select_step: float | None = None,
    duration_ms: float | None = None,
    cycle_frames: int | None = None,
) -> SessionReport:
    """Run one deterministic streaming session.

    ``trace`` holds (t_ms, viewport) samples; the first entry is the initial
    pose, every later entry is a switch.  Content is generated from
    ``source_seed`` over a GOP-aligned cycle and payload sizes repeat
    cyclically, which keeps long sessions cheap without changing the rate
    structure.  The size tables of a (config, seed, cycle, track GOPs)
    combination are built once per process.
    """
    if not trace:
        raise EmptyTraceError("viewport trace is empty")
    times = [t for t, _ in trace]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise BadArgsError("trace times must be strictly increasing")

    period = config.frame_period_ms
    projection = Projection(projection_kind, config.width, config.height)
    svc = scheme.kind == SchemeKind.SVC

    if svc:
        cycle = cycle_frames or config.gop_size
        if cycle % config.gop_size:
            raise BadArgsError("cycle_frames must be a multiple of gop_size")
        base_bytes, enh_header, coded, skip_bytes = _svc_tables(config, source_seed, cycle)
        enhanced_bytes = _region_bytes(enh_header, coded)
        settle_ticks = 4
    else:
        long_gop, short_gop = scheme.long_gop, scheme.short_gop
        low_gop = scheme.low_gop or long_gop
        cycle = cycle_frames or math.lcm(*filter(None, (long_gop, short_gop, low_gop)))
        for g in (long_gop, short_gop, low_gop):
            if g and cycle % g:
                raise BadArgsError("cycle_frames must be a multiple of every track GOP")
        tracks = ((long_gop, TrackResolution.FULL), (low_gop, TrackResolution.BASE))
        if short_gop > 0:
            tracks += ((short_gop, TrackResolution.FULL),)
        tables = _track_tables(config, source_seed, cycle, tracks)
        long_bytes = _region_bytes(*tables[0])
        low_header, low_tiles = tables[1]
        low_bytes = [low_header[j] + sum(low_tiles[j]) for j in range(cycle)]
        short_bytes = _region_bytes(*tables[2]) if short_gop > 0 else None
        settle_ticks = long_gop + short_gop + 4

    if duration_ms is None:
        duration_ms = times[-1] + settle_ticks * period
    n_ticks = int(math.ceil(duration_ms / period)) + 1

    # The tile set of every trace entry, selected once per distinct viewport.
    selected: dict[Viewport, frozenset[int]] = {}
    for _, vp in trace:
        if vp not in selected:
            selected[vp] = frozenset(select_tiles(vp, projection, config))
    pose_tiles = [selected[vp] for _, vp in trace]

    # Pose arrival times at the server; the initial pose is known from t=0.
    pose_known_at = [times[0]] + [t + network.uplink_delay_ms for t in times[1:]]
    last_pose = len(trace) - 1
    tick_eps = period * _TICK_EPS
    downlink_ms = network.downlink_delay_ms
    unlimited = network.bandwidth_bytes_per_s is None

    frames: list[FrameLog] = []
    seconds: dict[int, dict[str, int]] = {}
    bucket_second: int | None = None
    bucket: dict[str, int] = {}
    known_idx = 0
    committed_long_idx = 0
    committed_short_idx: int | None = None

    for k in range(n_ticks):
        t_k = k * period
        while known_idx < last_pose and pose_known_at[known_idx + 1] <= t_k + tick_eps:
            known_idx += 1
        j = k % cycle

        if svc:
            hq = pose_tiles[known_idx]
            # The region's coded tiles plus a skipped stub for every other tile.
            payload = {
                "base": base_bytes[j],
                "enhanced": enhanced_bytes(j, hq) + (config.tile_count - len(hq)) * skip_bytes,
            }
        else:
            if k % long_gop == 0:
                committed_long_idx = known_idx
            if short_gop > 0:
                if committed_long_idx == known_idx:
                    committed_short_idx = None
                elif k % short_gop == 0:
                    committed_short_idx = known_idx
            hq = pose_tiles[committed_long_idx]
            payload = {"low": low_bytes[j], "long": long_bytes(j, hq)}
            if committed_short_idx is not None:
                short_region = pose_tiles[committed_short_idx]
                payload["short"] = short_bytes(j, short_region)
                hq = hq | short_region

        if unlimited:
            arrival = t_k + downlink_ms
        else:
            arrival = t_k + downlink_ms + network.serialization_ms(sum(payload.values()))
        display = (math.floor(arrival / period + _TICK_EPS) + 1) * period
        frames.append(FrameLog(k, display, hq, hq, payload))
        second = int(t_k // 1000.0)
        if second != bucket_second:
            bucket_second, bucket = second, seconds.setdefault(second, {})
        for name, n in payload.items():
            bucket[name] = bucket.get(name, 0) + n

    switches = _resolve_switches(trace, pose_known_at, frames, period, pose_tiles, n_ticks)
    return SessionReport(
        scheme_label=scheme.label,
        frame_period_ms=period,
        switches=switches,
        seconds=seconds,
        frames=frames,
    )


def _resolve_switches(trace, pose_known_at, frames, period, pose_tiles, n_ticks):
    switches = []
    for i in range(1, len(trace)):
        t = trace[i][0]
        required = pose_tiles[i]
        k0 = math.ceil(pose_known_at[i] / period - _TICK_EPS)
        k_stop = n_ticks
        if i + 1 < len(trace):
            k_stop = min(n_ticks, math.ceil(pose_known_at[i + 1] / period - _TICK_EPS))
        mtp = frames[k0].display_ms - t if k0 < n_ticks else None
        mthq = None
        for k in range(min(k0, n_ticks), k_stop):
            if required <= frames[k].hq_tiles:
                mthq = frames[k].display_ms - t
                break
        switches.append(SwitchSample(t_ms=t, mtp_ms=mtp, mthq_ms=mthq))
    return switches


# --- reporting ---------------------------------------------------------------


def bitrate_report(report: SessionReport) -> dict[str, dict[int, int]]:
    """Per-stream bytes for each whole second of the session."""
    out: dict[str, dict[int, int]] = {}
    for sec, streams in sorted(report.seconds.items()):
        for name, n in streams.items():
            out.setdefault(name, {})[sec] = n
    return out


def latency_summary(reports: list[SessionReport]) -> list[dict]:
    """Mean/median/p95 MTP and MTHQ per scheme, with a 50 ms MTHQ flag."""
    if not reports:
        raise BadArgsError("no session reports")
    by_scheme: dict[str, list[SessionReport]] = {}
    for r in reports:
        by_scheme.setdefault(r.scheme_label, []).append(r)
    out = []
    for label, group in by_scheme.items():
        mthq = [x for r in group for x in r.mthq_samples]
        mtp = [x for r in group for x in r.mtp_samples]
        not_reached = sum(1 for r in group for s in r.switches if s.mthq_ms is None)
        entry = {"scheme": label, "switches": sum(len(r.switches) for r in group),
                 "not_reached": not_reached}
        for name, samples in (("mthq", mthq), ("mtp", mtp)):
            if samples:
                entry[f"mean_{name}_ms"] = statistics.fmean(samples)
                entry[f"median_{name}_ms"] = statistics.median(samples)
                entry[f"p95_{name}_ms"] = p95(samples)
            else:
                entry[f"mean_{name}_ms"] = None
                entry[f"median_{name}_ms"] = None
                entry[f"p95_{name}_ms"] = None
        p95_mthq = entry["p95_mthq_ms"]
        entry["mthq_50ms_compliant"] = (
            p95_mthq is not None and not_reached == 0 and p95_mthq <= MTHQ_COMPLIANCE_MS
        )
        out.append(entry)
    return out


def p95(samples: list[float]) -> float:
    """The nearest-rank 95th percentile of a nonempty sample list."""
    ordered = sorted(samples)
    idx = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[idx]


def report_to_json(report: SessionReport) -> dict:
    return {
        "scheme": report.scheme_label,
        "frame_period_ms": report.frame_period_ms,
        "switches": [
            {"t_ms": s.t_ms, "mtp_ms": s.mtp_ms, "mthq_ms": s.mthq_ms}
            for s in report.switches
        ],
        "seconds": {
            str(sec): dict(streams) for sec, streams in sorted(report.seconds.items())
        },
        "total_bytes": report.total_bytes,
    }


def write_report_json(report: SessionReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_json(report), fh, indent=2)
        fh.write("\n")


def write_report_csv(report: SessionReport, path) -> None:
    """Flat CSV: one row per switch, one row per second per stream."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "scheme", "t_ms", "mtp_ms", "mthq_ms", "second", "stream", "bytes"])
        for s in report.switches:
            writer.writerow(
                ["switch", report.scheme_label, s.t_ms,
                 s.mtp_ms, s.mthq_ms if s.mthq_ms is not None else "NOT_REACHED", "", "", ""]
            )
        for sec, streams in sorted(report.seconds.items()):
            for name, n in sorted(streams.items()):
                writer.writerow(["second", report.scheme_label, "", "", "", sec, name, n])


# --- key=value session config files ------------------------------------------


def read_session_config(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise BadArgsError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _mapping_number(m: dict[str, str], key: str, kind: type, default=None):
    """``kind(m[key])``, or ``default`` when ``key`` is absent."""
    try:
        return kind(m[key]) if key in m else default
    except ValueError:
        raise BadArgsError(f"{key} wants {kind.__name__}, not {m[key]!r}") from None


def scheme_from_mapping(m: dict[str, str]) -> Scheme:
    kind = m.get("scheme", "svc").lower()
    if kind == "svc":
        return Scheme(SchemeKind.SVC)
    if kind == "multitrack":
        return Scheme(
            SchemeKind.MULTITRACK,
            long_gop=_mapping_number(m, "long_gop", int, 30),
            short_gop=_mapping_number(m, "short_gop", int, 0),
            low_gop=_mapping_number(m, "low_gop", int),
        )
    raise NoStreamError(f"unknown scheme {kind!r}")


def network_from_mapping(m: dict[str, str]) -> NetworkModel:
    unlimited = m.get("bandwidth_Bps") in (None, "", "unlimited")
    return NetworkModel(
        uplink_delay_ms=_mapping_number(m, "uplink_ms", float, 0.0),
        downlink_delay_ms=_mapping_number(m, "downlink_ms", float, 0.0),
        bandwidth_bytes_per_s=None if unlimited else _mapping_number(m, "bandwidth_Bps", float),
    )
