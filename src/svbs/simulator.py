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
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .codec import encode_svc, encode_track, generate_content, TrackResolution
from .config import SequenceConfig
from .container import UNIT_HEADER_SIZE, LayerId, rate_records, tile_group_size
from .errors import BadArgsError, EmptyTraceError, NoStreamError, TooLargeError
from .geometry import Projection, ProjectionKind, Viewport, select_tiles
from .rewriter import _skipped_tile_group

MTHQ_COMPLIANCE_MS = 50.0

# Tolerance, as a fraction of one tick, absorbing float error in time/tick
# conversions so boundary-aligned events resolve to the intended tick.
_TICK_EPS = 1e-9

# Ticks in one session: about 39 h at 30 fps, and about 0.7 GiB of columns.
SESSION_TICK_BUDGET = 1 << 22


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
            if max(self.long_gop, self.short_gop, self.low_gop or 0) > 0xFFFF:
                raise BadArgsError("a GOP exceeds the u16 wire range")

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
class SwitchSample:
    t_ms: float
    mtp_ms: float | None
    mthq_ms: float | None  # None = NOT_REACHED


@dataclass(frozen=True)
class FrameLog:
    tick: int
    display_ms: float
    hq_tiles: frozenset[int]
    sent_tiles: frozenset[int]  # always hq_tiles
    bytes_by_stream: dict[str, int]


class _FrameLogs(Sequence):
    """A session's FrameLogs, one per tick, built from its columns the first
    time they are read and kept from then on.

    ``streams`` maps each stream name to its bytes per tick.  A tick lists
    the streams it sends bytes on: every frame a stream sends carries a frame
    header, so a sent stream never has 0 bytes.
    """

    def __init__(self, display, hq_sets, hq_ids, streams):
        self._columns = display, hq_sets, hq_ids, streams
        self._logs: tuple[FrameLog, ...] | None = None

    def _built(self) -> tuple[FrameLog, ...]:
        if self._logs is None:
            display, hq_sets, hq_ids, streams = self._columns
            cols = [(name, col.tolist()) for name, col in streams.items()]
            hq = [hq_sets[h] for h in hq_ids.tolist()]
            self._logs = tuple(
                FrameLog(k, display_ms, hq[k], hq[k],
                         {name: col[k] for name, col in cols if col[k]})
                for k, display_ms in enumerate(display.tolist())
            )
        return self._logs

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        return self._built()[index]

    # Equal to a list or tuple of the same FrameLogs.
    def __eq__(self, other):
        if isinstance(other, (list, tuple, _FrameLogs)):
            return list(self) == list(other)
        return NotImplemented


@dataclass(frozen=True)
class SessionReport:
    scheme_label: str
    frame_period_ms: float
    switches: list[SwitchSample]
    seconds: dict[int, dict[str, int]]  # second -> stream -> bytes
    frames: Sequence[FrameLog] = field(repr=False, default=())

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

# Entries kept by each size-table cache.  An entry holds only read-only
# integer arrays, a few KiB at any resolution; frames and sources are never
# cached.
_TABLE_CACHE_SIZE = 32


def _layer_tables(stream, cycle: int) -> dict[LayerId, tuple[np.ndarray, np.ndarray]]:
    """Per layer of ``stream``, per frame of the cycle: frame-header bytes and
    bytes per tile, from one walk of its rate records."""
    tables = {}
    for rec in rate_records(stream):
        if rec.layer_id not in tables:
            tables[rec.layer_id] = (np.zeros(cycle, np.int64),
                                    np.zeros((cycle, stream.config.tile_count), np.int64))
        header, tiles = tables[rec.layer_id]
        if rec.tile_index is None:
            header[rec.frame_index] += rec.n_bytes
        else:
            tiles[rec.frame_index, rec.tile_index] = rec.n_bytes
    return tables


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _svc_tables(config: SequenceConfig, seed: int, cycle: int):
    """The ``base`` and ``enhanced`` streams of one SVC encode, each as (header
    bytes per frame of the cycle, with the temporal delimiter on the base;
    bytes per frame and tile; bytes per tile outside the region: one
    skipped-tile stub, all stubs of a grid being the same size)."""
    source = generate_content(seed, config, cycle)
    layers = _layer_tables(encode_svc(source), cycle)
    base_header, base_tiles = layers[LayerId.BASE]
    stub = tile_group_size(_skipped_tile_group(0, config))
    return ((*_read_only(UNIT_HEADER_SIZE + base_header, base_tiles), 0),
            (*_read_only(*layers[LayerId.ENHANCED]), stub))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _track_tables(
    config: SequenceConfig,
    seed: int,
    cycle: int,
    tracks: tuple[tuple[int, TrackResolution], ...],
):
    """One stream per (gop, resolution) track, as in :func:`_svc_tables` but
    sending nothing for a tile outside the region.  The tracks are encoded
    from one generated content and hold one layer each."""
    source = generate_content(seed, config, cycle)
    out = []
    for gop, resolution in tracks:
        (header, tiles), = _layer_tables(encode_track(source, gop, resolution), cycle).values()
        out.append((*_read_only(UNIT_HEADER_SIZE + header, tiles), 0))
    return tuple(out)


# --- the session -------------------------------------------------------------


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

    Both kinds send an always-on stream (``base``, ``low``), a region stream
    committing the known pose on its GOP boundaries (``enhanced`` on every
    frame, ``long``) and, with a short GOP, a ``short`` track.

    Every tick is computed at once as a column (the pose the server knows,
    the bytes of each stream, the display time), with the same float
    operations a per-tick loop would do, so the results are the same bits.
    """
    if not trace:
        raise EmptyTraceError("viewport trace is empty")
    times = [t for t, _ in trace]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise BadArgsError("trace times must be strictly increasing")

    period = config.frame_period_ms
    projection = Projection(projection_kind, config.width, config.height)
    if scheme.kind == SchemeKind.SVC:
        names, gops, commit_gop, short_gop = ("base", "enhanced"), (config.gop_size,), 1, 0
        tracks, settle_ticks = None, 4
    else:
        commit_gop, short_gop = scheme.long_gop, scheme.short_gop
        gops = (scheme.low_gop or commit_gop, commit_gop, short_gop)
        names, settle_ticks = ("low", "long", "short"), commit_gop + short_gop + 4
        tracks = tuple(zip(gops, (TrackResolution.BASE, TrackResolution.FULL,
                                  TrackResolution.FULL)))[:3 if short_gop else 2]
    cycle = cycle_frames or math.lcm(*filter(None, gops))
    if any(g and cycle % g for g in gops):
        raise BadArgsError("cycle_frames must be a multiple of every GOP")

    if duration_ms is None:
        duration_ms = times[-1] + settle_ticks * period
    n_ticks = int(math.ceil(duration_ms / period)) + 1
    if n_ticks > SESSION_TICK_BUDGET:
        raise TooLargeError(f"{n_ticks} ticks exceed the session tick budget "
                            f"{SESSION_TICK_BUDGET}")
    tables = (_svc_tables(config, source_seed, cycle) if tracks is None
              else _track_tables(config, source_seed, cycle, tracks))

    # The tile set of every trace entry, selected once per distinct viewport;
    # pose_set[i] indexes tile_sets, the distinct sets.
    view_set: dict[Viewport, int] = {}
    set_ids: dict[frozenset[int], int] = {}
    pose_set_ids = []
    for _, vp in trace:
        set_id = view_set.get(vp)
        if set_id is None:
            tiles = frozenset(select_tiles(vp, projection, config))
            set_id = view_set[vp] = set_ids.setdefault(tiles, len(set_ids))
        pose_set_ids.append(set_id)
    pose_set = np.array(pose_set_ids)
    tile_sets = list(set_ids)
    member = np.zeros((len(tile_sets), config.tile_count), np.int64)
    for s, tiles in enumerate(tile_sets):
        member[s, list(tiles)] = 1
    outside = (config.tile_count - member.sum(axis=1))[:, None]

    # Pose arrival times at the server; the initial pose is known from t=0.
    pose_known_at = np.array([times[0]] + [t + network.uplink_delay_ms for t in times[1:]])
    ks = np.arange(n_ticks)
    t_k = ks * period
    known = np.searchsorted(pose_known_at[1:], t_k + period * _TICK_EPS, side="right")
    j = ks % cycle

    def region(header, tiles, stub):
        # Bytes of every tile set (a row of member) in every frame of the cycle.
        return header + member @ tiles.T + outside * stub

    (always_header, always_tiles, _), region_table, *short_table = tables
    region_pose = known[ks - ks % commit_gop]
    region_set = pose_set[region_pose]
    streams = {names[0]: (always_header + always_tiles.sum(axis=1))[j],
               names[1]: region(*region_table)[region_set, j]}
    if short_table:
        # The short track runs from a short-GOP boundary where the region
        # stream lags the known pose until the region stream catches up.
        caught_up = region_pose == known
        last_event = np.maximum.accumulate(np.where(caught_up | (ks % short_gop == 0), ks, 0))
        short_pose = np.where(caught_up, -1, known)[last_event]
        sent = short_pose >= 0
        short_set = np.where(sent, pose_set[short_pose], -1)
        streams[names[2]] = np.where(sent, region(*short_table[0])[short_set, j], 0)
        # HQ tiles: the region, joined by the short region while sent.
        n_keys = len(tile_sets) + 1
        keys, hq_ids = np.unique(region_set * n_keys + short_set + 1, return_inverse=True)
        hq_sets = [tile_sets[key // n_keys] | (tile_sets[key % n_keys - 1] if key % n_keys
                                               else frozenset())
                   for key in keys.tolist()]
    else:
        hq_sets, hq_ids = tile_sets, region_set

    total = sum(streams.values())
    with np.errstate(over="ignore"):
        arrival = t_k + network.downlink_delay_ms + network.serialization_ms(total)
        display = (np.floor(arrival / period + _TICK_EPS) + 1) * period
    if not np.isfinite(display).all():
        raise TooLargeError("display times overflow a float; raise the bandwidth or "
                            "lower the downlink delay")

    # Bytes per second and stream, in the order the streams were first sent.
    second = t_k // 1000.0
    starts = np.flatnonzero(np.diff(second, prepend=-1.0))
    sums = [(name, np.add.reduceat(col, starts).tolist()) for name, col in streams.items()]
    seconds = {
        sec: {name: n[g] for name, n in sums if n[g]}
        for g, sec in enumerate(second[starts].astype(np.int64).tolist())
    }

    switches = _resolve_switches(times, pose_known_at, pose_set_ids, tile_sets,
                                 display, hq_ids, hq_sets, period)
    return SessionReport(
        scheme_label=scheme.label,
        frame_period_ms=period,
        switches=switches,
        seconds=seconds,
        frames=_FrameLogs(display, hq_sets, hq_ids, streams),
    )


def _resolve_switches(times, pose_known_at, pose_set, tile_sets, display, hq_ids, hq_sets,
                      period):
    """MTP and MTHQ of each switch: the display time of the first tick that
    knows its pose, and of the first such tick, before the next switch is
    known, whose HQ tiles cover the pose's tiles."""
    n_ticks = len(display)
    # A pose known before the session starts is first served at tick 0, one
    # known after it ends never (tick n_ticks, clipped before the int cast).
    first_tick = np.clip(np.ceil(pose_known_at / period - _TICK_EPS), 0, n_ticks).astype(np.int64)
    stop_tick = np.append(first_tick[2:], n_ticks)
    # The ticks where the HQ set changes, the set from each on, and the run
    # holding each switch's first tick.
    run_starts = np.flatnonzero(np.diff(hq_ids, prepend=-1))
    first_run = np.searchsorted(run_starts, first_tick[1:], side="right") - 1
    run_ids = hq_ids[run_starts].tolist()
    run_starts = run_starts.tolist()
    display_ms = display.tolist()
    covers: dict[tuple[int, int], bool] = {}
    switches = []
    for t, need, k, k_stop, run in zip(times[1:], pose_set[1:], first_tick[1:].tolist(),
                                       stop_tick.tolist(), first_run.tolist()):
        mtp = display_ms[k] - t if k < n_ticks else None
        mthq = None
        while k < k_stop:
            key = (need, run_ids[run])
            if key not in covers:
                covers[key] = tile_sets[need] <= hq_sets[key[1]]
            if covers[key]:
                mthq = display_ms[k] - t
                break
            run += 1
            if run == len(run_starts):
                break
            k = run_starts[run]
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


def _indented(open_: str, close: str, members: list[str], level: int) -> str:
    """A JSON container in the layout of ``json.dump(..., indent=2)``, from
    its members, each already written for nesting ``level``."""
    if not members:
        return open_ + close
    pad = "\n" + "  " * level
    return open_ + pad + ("," + pad).join(members) + "\n" + "  " * (level - 1) + close


def write_report_json(report: SessionReport, path) -> None:
    """Write ``json.dump(report_to_json(report), fh, indent=2)`` and a
    newline, byte for byte.  The layout is written here; the numbers, nulls
    and second keys go through one call of the C encoder."""
    seconds = sorted(report.seconds.items())
    leaves: list = [report.frame_period_ms, report.total_bytes]
    for s in report.switches:
        leaves += (s.t_ms, s.mtp_ms, s.mthq_ms)
    for sec, streams in seconds:
        leaves += (str(sec), *streams.values())
    # No encoded number, null or integer string holds ", ", so the list
    # splits back into its leaves.
    leaf = iter(json.dumps(leaves)[1:-1].split(", "))
    period, total = next(leaf), next(leaf)
    switches = [
        _indented("{", "}", [f'"t_ms": {next(leaf)}', f'"mtp_ms": {next(leaf)}',
                             f'"mthq_ms": {next(leaf)}'], 3)
        for _ in report.switches
    ]
    names: dict[str, str] = {}
    buckets = []
    for _, streams in seconds:
        key = next(leaf)
        members = []
        for name in streams:
            if name not in names:
                names[name] = json.dumps(name)
            members.append(f"{names[name]}: {next(leaf)}")
        buckets.append(f"{key}: {_indented('{', '}', members, 3)}")
    top = [
        f'"scheme": {json.dumps(report.scheme_label)}',
        f'"frame_period_ms": {period}',
        f'"switches": {_indented("[", "]", switches, 2)}',
        f'"seconds": {_indented("{", "}", buckets, 2)}',
        f'"total_bytes": {total}',
    ]
    with open(path, "w") as fh:
        fh.write(_indented("{", "}", top, 1) + "\n")


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


SESSION_KEYS = ("scheme", "long_gop", "short_gop", "low_gop", "uplink_ms", "downlink_ms",
                "bandwidth_Bps")


def read_session_config(path) -> dict[str, str]:
    """The ``key=value`` lines of a UTF-8 session file; ``#`` starts a
    comment line.  Every key is one of :data:`SESSION_KEYS`."""
    out = {}
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for n, raw in enumerate(lines, 1):
        try:
            line = raw.decode().strip()
        except UnicodeDecodeError:
            raise BadArgsError(f"{path} line {n} is not UTF-8 text") from None
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise BadArgsError(f"bad config line: {line!r}")
        if key not in SESSION_KEYS:
            raise BadArgsError(f"{path} line {n}: unknown key {key!r} "
                               f"(known: {', '.join(SESSION_KEYS)})")
        out[key] = value.strip()
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
