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
import io
import json
import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .codec import check_budgets, encode_svc, encode_track, generate_content, TrackResolution
from .config import SequenceConfig
from .container import STUB_GROUP_SIZE, LayerId, rate_records
from .errors import BadArgsError, EmptyTraceError, TooLargeError
from .geometry import Projection, ProjectionKind, Viewport, select_tiles

MTHQ_COMPLIANCE_MS = 50.0
NOT_REACHED = "NOT_REACHED"  # the report CSV's MTHQ cell of a switch never served in HQ

# Tolerance, as a fraction of one tick, absorbing float error in time/tick
# conversions so boundary-aligned events resolve to the intended tick.
_TICK_EPS = 1e-9

# Ticks in one session: about 9.7 h at 30 fps, and under 256 MiB of columns
# (about 180 bytes per tick).
SESSION_TICK_BUDGET = 1 << 20


class SchemeKind(Enum):
    SVC = "svc"
    MULTITRACK = "multitrack"


@dataclass(frozen=True)
class Scheme:
    kind: SchemeKind
    long_gop: int = 30
    short_gop: int = 0  # 0 = no short track

    def __post_init__(self) -> None:
        if self.kind == SchemeKind.MULTITRACK:
            if self.long_gop < 1:
                raise BadArgsError("long_gop must be >= 1")
            if self.short_gop < 0:
                raise BadArgsError("short_gop must be >= 0")
            if max(self.long_gop, self.short_gop) > 0xFFFF:
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


class SwitchSample(NamedTuple):
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


@dataclass(frozen=True)
class SessionReport:
    scheme_label: str
    frame_period_ms: float
    switches: list[SwitchSample]
    seconds: dict[int, dict[str, int]]  # second -> stream -> bytes
    frames: Sequence[FrameLog] = field(default=(), compare=False, repr=False)

    @property
    def mthq_samples(self) -> list[float]:
        return [s.mthq_ms for s in self.switches if s.mthq_ms is not None]

    @property
    def mtp_samples(self) -> list[float]:
        return [s.mtp_ms for s in self.switches if s.mtp_ms is not None]

    @property
    def total_bytes(self) -> int:
        return sum(sum(streams.values()) for streams in self.seconds.values())

    @cached_property
    def switch_texts(self) -> list[tuple[str, str | None, str | None]]:
        """The ``repr`` of each switch's t, MTP and MTHQ (None where absent), the
        one text of each number that both report writers read.  As -0.0 == 0.0,
        only a nonzero MTHQ equal to its MTP shares its text."""
        def text(x):
            return None if x is None else repr(x)
        return [(repr(s.t_ms), mtp := text(s.mtp_ms),
                 mtp if s.mthq_ms == s.mtp_ms and s.mthq_ms else text(s.mthq_ms))
                for s in self.switches]


class _FrameLogs(Sequence):
    """A session's FrameLogs, read-only, each built from its columns when read."""

    def __init__(self, display, hq_ids, hq, streams):
        self._display, self._hq_ids, self._hq, self._streams = display, hq_ids, hq, streams

    def __len__(self) -> int:
        return len(self._display)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]
        tiles = frozenset(np.flatnonzero(self._hq[self._hq_ids[k]]).tolist())
        # A tick lists the streams it sends bytes on: every frame a stream
        # sends carries a frame header, so a sent stream never has 0 bytes.
        return FrameLog(k, self._display[k].item(), tiles, tiles,
                        {name: col[k].item() for name, col in self._streams.items() if col[k]})


# --- per-frame size tables ---------------------------------------------------


# Up to 32 entries of read-only integer arrays, frames x tiles x 8 bytes per stream
# (15.6 MB for a 30-frame cycle at 255x255 tiles); frames and sources are never cached.
@lru_cache(maxsize=32)
def _stream_tables(
    config: SequenceConfig,
    seed: int,
    frames: int,
    streams: tuple[tuple[int, TrackResolution] | None, ...],
):
    """The streams of one scheme, encoded from ``frames`` frames of one
    content, each as its :func:`rate_records` tables (header bytes per frame,
    bytes per frame and tile) and its bytes per tile outside the region.  A
    stream None is an SVC encode's ``base`` and ``enhanced`` layers, a (gop,
    resolution) track one BASE-layer stream.  An ENHANCED layer sends a
    ``STUB_GROUP_SIZE`` stub per tile outside, any other layer nothing."""
    source = generate_content(seed, config, frames)
    encoded = (encode_svc(source) if s is None else encode_track(source, *s) for s in streams)
    tables = tuple((np.array(header, np.int64), np.array(tiles, np.int64),
                    STUB_GROUP_SIZE if layer == LayerId.ENHANCED else 0)
                   for stream in encoded for layer, (header, tiles) in rate_records(stream).items())
    for header, tiles, _ in tables:
        header.flags.writeable = tiles.flags.writeable = False
    return tables


# --- the session -------------------------------------------------------------


def run_session(scheme: Scheme, *args, select_step: float | None = None,
                **kwargs) -> SessionReport:
    """:func:`run_sessions` of one scheme.  ``select_step`` is accepted and
    ignored: tile selection is exact and has no step.  The perfbench sim-sweep
    spot check still passes it; remove the keyword together with that call."""
    return run_sessions([scheme], *args, **kwargs)[0]


def run_sessions(schemes: Sequence[Scheme], trace: list[tuple[float, Viewport]],
                 network: NetworkModel, config: SequenceConfig, source_seed: int, *,
                 projection_kind: ProjectionKind = ProjectionKind.ERP,
                 duration_ms: float | None = None) -> list[SessionReport]:
    """Run one deterministic streaming session per scheme, in order.

    ``trace`` holds (t_ms, viewport) samples; the first entry is the initial
    pose, every later entry is a switch.  Content is generated from
    ``source_seed`` over one cycle, the SVC GOP or the lcm of the track GOPs,
    whose payload sizes repeat, so long sessions stay cheap at the same
    rates.  A session shorter than its cycle encodes only its ticks' frames.
    Each (config, seed, frame count, track GOPs) is encoded once per process.

    Both kinds send an always-on stream (``base``, ``low``), a region stream
    committing the known pose on its GOP boundaries (``enhanced`` on every
    frame, ``long``) and, with a short GOP, a ``short`` track.

    Every tick is computed at once as a column (the pose the server knows,
    the bytes of each stream, the display time), with the same float
    operations a per-tick loop would do, so the results are the same bits.
    Each distinct tile set is a boolean row of one ``member`` matrix.
    Every scheme's tick budget and size tables are checked first, in scheme
    order, before any content is generated; then the sessions run in order,
    reading prefixes of one timeline (tile sets, known poses, tick and second
    boundaries), and each refuses if its own display times overflow.
    """
    if not trace:
        raise EmptyTraceError("viewport trace is empty")
    times = [t for t, _ in trace]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise BadArgsError("trace times must be strictly increasing")

    period = config.frame_period_ms
    projection = Projection(projection_kind, config.width, config.height)

    plans = []
    for scheme in schemes:
        if scheme.kind == SchemeKind.SVC:
            names, commit_gop, short_gop = ("base", "enhanced"), 1, 0
            encodes, settle_ticks, cycle = (None,), 4, config.gop_size
        else:
            commit_gop, short_gop = scheme.long_gop, scheme.short_gop
            cycle = math.lcm(commit_gop, short_gop or 1)
            names, settle_ticks = ("low", "long", "short"), commit_gop + short_gop + 4
            # The always-on low track runs at the region track's GOP.
            encodes = ((commit_gop, TrackResolution.BASE), (commit_gop, TrackResolution.FULL),
                       (short_gop, TrackResolution.FULL))[:3 if short_gop else 2]

        end_ms = times[-1] + settle_ticks * period if duration_ms is None else duration_ms
        last_tick = end_ms / period  # inf below 1 ms per frame: compared before rounding
        if last_tick > SESSION_TICK_BUDGET - 1:
            raise TooLargeError(f"{last_tick + 1:.3g} ticks exceed the session tick budget "
                                f"{SESSION_TICK_BUDGET}")
        n_ticks = max(0, math.ceil(last_tick) + 1)
        frames = max(1, min(cycle, n_ticks))
        check_budgets(config, frames, *(None if e is None else e[1] for e in encodes))
        plans.append((n_ticks, scheme.label, names, commit_gop, short_gop, cycle, frames, encodes))

    # The tile set of every trace entry, through select_tiles' cache; pose_set[i]
    # indexes member's rows, the distinct sets, whose last (-1) is empty.
    set_ids: dict[frozenset[int], int] = {}
    pose_set = np.array([set_ids.setdefault(select_tiles(vp, projection, config), len(set_ids))
                         for _, vp in trace])
    member = np.zeros((len(set_ids) + 1, config.tile_count), bool)
    for tiles, s in set_ids.items():
        member[s, list(tiles)] = True
    outside = config.tile_count - member.sum(axis=1)[:, None]

    # The one known-pose rule: tick k knows the latest pose whose uplink
    # arrival is <= k*T (within _TICK_EPS of a tick); the initial pose is
    # known from t=0.  Switch ticks are read from this column too.
    arrivals = np.array(times[1:], dtype=np.float64) + network.uplink_delay_ms
    all_ks = np.arange(max((n_ticks for n_ticks, *_ in plans), default=0))
    all_t_k = all_ks * period
    all_known = np.searchsorted(arrivals, all_t_k + period * _TICK_EPS, side="right")
    second = all_t_k // 1000.0
    second_starts = np.flatnonzero(np.diff(second, prepend=-1.0))

    def region(header, tiles, stub):
        # Bytes of every tile set (a row of member) in every frame of the cycle.
        return header + member @ tiles.T + outside * stub

    reports = []
    for n_ticks, label, names, commit_gop, short_gop, cycle, frames, encodes in plans:
        tables = _stream_tables(config, source_seed, frames, encodes)
        ks, known = all_ks[:n_ticks], all_known[:n_ticks]
        j = ks % cycle
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
            # HQ tiles: the region, joined while sent by the short region (-1: empty).
            n_keys = len(member)
            keys, hq_ids = np.unique(region_set * n_keys + short_set + 1, return_inverse=True)
            hq = member[keys // n_keys] | member[keys % n_keys - 1]
        else:
            hq, hq_ids = member, region_set

        # The first frame boundary strictly after arrival; inf on overflow.
        with np.errstate(over="ignore"):
            arrival = (all_t_k[:n_ticks] + network.downlink_delay_ms
                       + network.serialization_ms(sum(streams.values())))
            display = (np.floor(arrival / period + _TICK_EPS) + 1) * period
        if not np.isfinite(display).all():
            raise TooLargeError("display times overflow a float; raise the bandwidth or "
                                "lower the downlink delay")

        # Bytes per second and stream, in the order the streams were first sent.
        starts = second_starts[:np.searchsorted(second_starts, n_ticks)]
        sums = [(name, np.add.reduceat(col, starts).tolist()) for name, col in streams.items()]
        seconds = {sec: {name: n[g] for name, n in sums if n[g]}
                   for g, sec in enumerate(second[starts].astype(np.int64).tolist())}
        switches = _resolve_switches(times, known, pose_set, member, display, hq_ids, hq)
        reports.append(SessionReport(label, period, switches, seconds,
                                     _FrameLogs(display, hq_ids, hq, streams)))
    return reports


def _resolve_switches(times, known, pose_set, member, display, hq_ids, hq):
    """MTP and MTHQ of each switch: the display time of the first tick that
    knows its pose, and of the first tick that knows it and no later pose whose
    HQ row ``hq[hq_ids[k]]`` covers the pose's tile row ``member[pose_set[j]]``."""
    # A run of ticks knows one pose and sends one HQ set.  As known never
    # decreases, the runs knowing pose j and no later pose are j's window.
    starts = np.flatnonzero((np.diff(known, prepend=-1) != 0) | (np.diff(hq_ids, prepend=-1) != 0))
    run_pose = known[starts]
    # One subset test per distinct (pose tile set, HQ set) pair.
    pairs, pair_of_run = np.unique(pose_set[run_pose] * len(hq) + hq_ids[starts],
                                   return_inverse=True)
    covers = (member[pairs // len(hq)] <= hq[pairs % len(hq)]).all(axis=1)[pair_of_run]
    served, first = np.unique(run_pose[covers], return_index=True)
    mthq_tick = dict(zip(served.tolist(), starts[covers][first].tolist()))
    first_tick = np.searchsorted(known, np.arange(1, len(times))).tolist()
    display_ms, n_ticks = display.tolist(), len(display)
    return [SwitchSample(t, display_ms[k] - t if k < n_ticks else None,
                         display_ms[mthq_tick[j]] - t if j in mthq_tick else None)
            for j, (t, k) in enumerate(zip(times[1:], first_tick), 1)]


# --- reporting ---------------------------------------------------------------


def latency_summary(reports: list[SessionReport]) -> list[dict]:
    """Mean/median/p95 MTP and MTHQ of each report, in order, with a 50 ms
    MTHQ flag."""
    if not reports:
        raise BadArgsError("no session reports")
    out = []
    for report in reports:
        label = report.scheme_label
        not_reached = sum(1 for s in report.switches if s.mthq_ms is None)
        entry = {"scheme": label, "switches": len(report.switches), "not_reached": not_reached}
        for name, samples in (("mthq", report.mthq_samples), ("mtp", report.mtp_samples)):
            mean = median = high = None
            if samples:
                try:
                    mean = statistics.fmean(samples)
                except OverflowError:  # the sum leaves the float range
                    mean = math.inf
                median, high = statistics.median(samples), p95(samples)
                if not (math.isfinite(mean) and math.isfinite(median)):
                    raise TooLargeError(f"{label}: the mean or median {name.upper()} is not finite")
            entry[f"mean_{name}_ms"] = mean
            entry[f"median_{name}_ms"] = median
            entry[f"p95_{name}_ms"] = high
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


def write_report_json(report: SessionReport, path) -> None:
    """Write one JSON object on one line, as ``json.dumps`` writes it, and a
    newline: scheme, frame_period_ms, switches (each t_ms, mtp_ms and mthq_ms,
    null where absent), seconds (second to stream to bytes) and total_bytes.
    The switches are joined from :attr:`SessionReport.switch_texts`; the
    per-second table is one call of the C encoder."""
    # JSON's spelling of the texts repr gives absent and non-finite numbers.
    j = {None: "null", "inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get
    switches = ", ".join(
        f'{{"t_ms": {j(t, t)}, "mtp_ms": {j(mtp, mtp)}, "mthq_ms": {j(mthq, mthq)}}}'
        for t, mtp, mthq in report.switch_texts)
    seconds = {str(sec): dict(streams) for sec, streams in sorted(report.seconds.items())}
    head = json.dumps({"scheme": report.scheme_label, "frame_period_ms": report.frame_period_ms})
    tail = json.dumps({"seconds": seconds, "total_bytes": report.total_bytes})
    with open(path, "w") as fh:
        fh.write(f'{head[:-1]}, "switches": [{switches}], {tail[1:]}\n')


def _csv_field(text: str) -> str:
    """``text`` as one field of a longer ``csv.writer`` row, quoted if needed."""
    csv.writer(buf := io.StringIO()).writerow([text, 0])
    return buf.getvalue()[:-len(",0\r\n")]


def write_report_csv(report: SessionReport, path) -> None:
    """Flat CSV: one row per switch from :attr:`SessionReport.switch_texts`,
    one row per second per stream, as ``csv.writer`` writes them.  The label
    and each distinct stream name are quoted once."""
    label = _csv_field(report.scheme_label)
    names = {name: _csv_field(name) for name in set().union(*report.seconds.values())}
    rows = ["row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\r\n"]
    rows += [f"switch,{label},{t},{mtp or ''},{mthq or NOT_REACHED},,,\r\n"
             for t, mtp, mthq in report.switch_texts]
    rows += [f"second,{label},,,,{sec},{names[name]},{n}\r\n"
             for sec, streams in sorted(report.seconds.items())
             for name, n in sorted(streams.items())]
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))
