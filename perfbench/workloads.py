"""The three workloads: serve, vod and sim-sweep.

Each is a closed loop with one request in flight, in one process and one
thread.  A run does a fixed amount of work, derived from the workload seed
and ``--seconds`` (never from the clock), so two runs with the same arguments
time the same inputs.  Output checks run after the timed loop.

The package is driven only through its public functions and
``svbs.cli.main(argv)``, always looked up on the module at call time so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import inputs

CHECK_EVERY = 8  # serve checks one frame in this many


class SetupError(Exception):
    """A workload could not build its inputs, so nothing can be measured."""


@dataclass(frozen=True)
class Scale:
    """Stream sizes and the nominal cost of one unit of work, which turns
    ``--seconds`` into a fixed number of units."""

    serve_erp: tuple[int, int]
    serve_cube: tuple[int, int]
    serve_frames: int
    serve_gop: int
    serve_clients: int
    serve_frame_s: float
    vod_size: tuple[int, int]
    vod_frames: int
    vod_gop: int
    vod_warm_frames: int
    vod_chain_s: float
    sim_size: tuple[int, int]
    sim_gop: int
    sim_views: int
    sim_traces: int
    sim_switches: int
    sim_invocation_s: float


FULL = Scale(
    serve_erp=(768, 384), serve_cube=(768, 512), serve_frames=60, serve_gop=30,
    serve_clients=4, serve_frame_s=0.026,
    vod_size=(768, 384), vod_frames=60, vod_gop=30, vod_warm_frames=4, vod_chain_s=4.0,
    sim_size=(384, 192), sim_gop=10, sim_views=4, sim_traces=4, sim_switches=150,
    sim_invocation_s=0.4,
)

# A few seconds for all three workloads, for the smoke test.
TINY = Scale(
    serve_erp=(192, 96), serve_cube=(192, 128), serve_frames=6, serve_gop=3,
    serve_clients=2, serve_frame_s=0.1,
    vod_size=(192, 96), vod_frames=6, vod_gop=3, vod_warm_frames=2, vod_chain_s=4.0,
    sim_size=(192, 96), sim_gop=10, sim_views=3, sim_traces=2, sim_switches=10,
    sim_invocation_s=1.0,
)

SCALES = {"full": FULL, "tiny": TINY}

TILE_ARGS = ["--tile-cols", "6", "--tile-rows", "4"]

# The vod viewport is fixed (9 of 24 tiles at 6x4): the client stream's size
# sets the cost of every decode, so a viewport drawn per chain would make
# runs differ by how many tiles their chains happened to keep.
VOD_VIEWPORT = (30.0, 10.0, 90.0, 90.0)


def units(seconds: float, unit_s: float) -> int:
    return max(1, round(seconds / unit_s))


def quantile(values, q: float) -> float:
    """Inclusive-method quantile; a single sample is its own quantile."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def ms(ns_values) -> list[float]:
    return [v / 1e6 for v in ns_values]


def median_rate(work: list[float], ns: list[int], blocks: int) -> float:
    """Median over consecutive blocks of work done per second; a burst of
    interference slows one block instead of the whole figure."""
    size = max(1, len(ns) // blocks)
    rates = [sum(work[i:i + size]) / (sum(ns[i:i + size]) / 1e9)
             for i in range(0, len(ns) - size + 1, size)]
    return statistics.median(rates)


@dataclass
class Pass:
    """The timed requests of one pass and what the checks need."""

    latencies_ns: list[int] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


class Workload:
    name = ""
    request_kind = ""
    measures = ""  # what request_ms_p50 times, by this workload's names

    def __init__(self, svbs, seed: int, seconds: float, scale: Scale, workdir: str):
        self.sv = svbs
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.workdir = workdir

    def rng(self, stream: str):
        return inputs.workload_rng(self.name, self.seed, stream)

    def cli(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.sv.cli.main([str(a) for a in argv])
        return rc, buf.getvalue()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _request(self, tracer):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.request(self.request_kind)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass) -> int:
        """Number of requests whose output fails a check."""
        raise NotImplementedError

    def end_to_end(self, p: Pass) -> tuple[float, list[str]]:
        """request_ms_p50, and report lines with the workload's own metrics
        (tails and throughputs too) under their own names."""
        raise NotImplementedError


def _timing_line(name: str, values: list[float], unit: str, q: float) -> str:
    return f"{name} = {quantile(values, q):.4f} {unit} (n={len(values)})"


# --- serve -------------------------------------------------------------------


class Serve(Workload):
    """Per-frame server path: select_tiles -> rewrite_viewport_frame ->
    serialize_frame, for a few clients served round-robin."""

    name = "serve"
    request_kind = "frame"
    measures = "one frame for one client (frame_ms_p50)"

    def setup(self) -> None:
        sc = self.scale
        geo = self.sv.geometry
        seeds = self.rng("content")
        self.masters = []
        for kind, (w, h) in ((geo.ProjectionKind.ERP, sc.serve_erp),
                             (geo.ProjectionKind.CUBEMAP_3x2, sc.serve_cube)):
            path = self.path(f"master-{kind.value}.svb")
            rc, _ = self.cli(["encode", "--width", w, "--height", h, *TILE_ARGS,
                              "--gop", sc.serve_gop, "--frames", sc.serve_frames,
                              "--seed", inputs.content_seed(seeds), "--out", path])
            if rc != 0:
                raise SetupError(f"svbs encode exited {rc} in serve setup")
            with open(path, "rb") as fh:
                stream = self.sv.container.parse(fh.read())
            self.masters.append((geo.Projection(kind, w, h), stream))
        ticks = math.ceil(units(self.seconds, sc.serve_frame_s) / sc.serve_clients)
        motion = self.rng("motion")
        self.clients = []
        for c in range(sc.serve_clients):
            poses = [geo.Viewport.from_degrees(y, p, 90.0, 90.0)
                     for y, p in inputs.head_motion(motion, ticks)]
            self.clients.append((c % len(self.masters), poses))
        self.ticks = ticks
        self._serve(1, None, Pass())  # warm-up: one frame per client

    def _serve(self, ticks: int, tracer, p: Pass) -> None:
        sv = self.sv
        clock = time.perf_counter_ns
        n = 0
        for tick in range(ticks):
            for master, poses in self.clients:
                projection, stream = self.masters[master]
                config = stream.config
                frame_index = tick % len(stream.frames)
                viewport = poses[tick]
                with self._request(tracer):
                    t0 = clock()
                    selected = sv.geometry.select_tiles(viewport, projection, config)
                    frame = sv.rewriter.rewrite_viewport_frame(
                        stream.frames[frame_index], selected, config)
                    data = sv.container.serialize_frame(frame)
                    t1 = clock()
                p.latencies_ns.append(t1 - t0)
                if n % CHECK_EVERY == 0:
                    p.outputs.append((master, frame_index, viewport, selected, data))
                n += 1

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        self._serve(self.ticks, tracer, p)
        return p

    def check(self, p: Pass) -> int:
        sv = self.sv
        container = sv.container
        failed = 0
        for master, k, viewport, selected, data in p.outputs:
            projection, stream = self.masters[master]
            config = stream.config
            parsed = container.parse(container.serialize_sequence_header(config) + data)
            ok = len(parsed.frames) == 1 and container.serialize_frame(parsed.frames[0]) == data
            if ok:
                frames = list(stream.frames)
                frames[k] = parsed.frames[0]
                ok = not container.validate_structure(container.Bitstream(config, tuple(frames)))
            if ok:
                ok = _forwarded_tiles(sv, parsed.frames[0], stream.frames[k]) == selected
            if ok:
                ok = selected <= sv.geometry.tile_coverage_oracle(viewport, projection, config)
            failed += not ok
        return failed

    def end_to_end(self, p: Pass) -> tuple[float, list[str]]:
        frame_ms = ms(p.latencies_ns)
        fps = median_rate([1] * p.attempted, p.latencies_ns, 10)
        period = self.masters[0][1].config.frame_period_ms
        lines = [
            _timing_line("frame_ms_p50", frame_ms, "ms", 0.5),
            _timing_line("frame_ms_p95", frame_ms, "ms", 0.95)
            + f"; budget one frame period = {period:.1f} ms",
            f"frames_per_s = {fps:.4f} 1/s (median of 10 blocks, n={p.attempted})",
        ]
        for m, (projection, _) in enumerate(self.masters):
            per = [frame_ms[i] for i in range(len(frame_ms))
                   if self.clients[i % len(self.clients)][0] == m]
            lines.append(_timing_line(f"frame_ms_p50.{projection.kind.value}", per, "ms", 0.5))
        return quantile(frame_ms, 0.5), lines


def _forwarded_tiles(sv, rewritten, original) -> set[int] | None:
    """Coded enhanced tiles of a rewritten frame, or None when the grid is
    incomplete or a forwarded payload differs from the master's."""
    LayerId, TileKind = sv.container.LayerId, sv.container.TileKind

    def enhanced_tiles(frame):
        layer = next(l for l in frame.layers if l.header.layer_id == LayerId.ENHANCED)
        return {t.tile_index: t for g in layer.tile_groups for t in g.tiles}

    tiles = enhanced_tiles(rewritten)
    master = enhanced_tiles(original)
    if sorted(tiles) != sorted(master):
        return None
    coded = {i for i, t in tiles.items() if t.tile_kind == TileKind.CODED}
    if any(tiles[i].coded_payload != master[i].coded_payload for i in coded):
        return None
    return coded


# --- vod ---------------------------------------------------------------------


class Vod(Workload):
    """The CLI chain: encode -> rewrite -> validate -> one decode per frame."""

    name = "vod"
    request_kind = "cli"
    measures = "one `svbs decode` call (decode_ms_p50)"

    def setup(self) -> None:
        sc = self.scale
        self.chains = inputs.chain_seeds(self.rng("chains"), units(self.seconds, sc.vod_chain_s))
        # Warm-up: a short chain through every command the timed chains use.
        for argv in self._chain_argv(inputs.chain_seeds(self.rng("warm-up"), 1)[0],
                                     sc.vod_warm_frames):
            rc, _ = self.cli(argv)
            if rc != 0:
                raise SetupError(f"svbs {argv[0]} exited {rc} in vod setup")

    def _chain_argv(self, seed: int, frames: int):
        sc = self.scale
        w, h = sc.vod_size
        master, client = self.path("master.svb"), self.path("client.svb")
        yield ["encode", "--width", w, "--height", h, *TILE_ARGS, "--gop", sc.vod_gop,
               "--frames", frames, "--seed", seed, "--out", master]
        yield ["rewrite", "--in", master, "--viewport", ",".join(map(str, VOD_VIEWPORT)),
               "--out", client]
        yield ["validate", "--in", client]
        for i in range(frames):
            yield ["decode", "--in", client, "--frame", i, "--tiles", "all",
                   "--out", self.path(f"frame-{i:03d}.yuv")]

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        clock = time.perf_counter_ns
        for seed in self.chains:
            calls = []
            for argv in self._chain_argv(seed, self.scale.vod_frames):
                with self._request(tracer):
                    t0 = clock()
                    rc, _ = self.cli(argv)
                    t1 = clock()
                p.latencies_ns.append(t1 - t0)
                calls.append((argv[0], t1 - t0, rc))
            # Checks read this chain's files before the next chain rewrites them.
            p.outputs.append((calls, self._check_chain(seed, calls)))
        return p

    def _check_chain(self, seed: int, calls) -> int:
        """Failed requests of one chain: nonzero exits, and decodes whose
        received tiles are not the source or whose other tiles are not the
        upscaled base."""
        sv = self.sv
        sc = self.scale
        failed = sum(1 for _, _, rc in calls if rc != 0)
        w, h = sc.vod_size
        config = sv.config.SequenceConfig(width=w, height=h, tile_cols=6, tile_rows=4,
                                          gop_size=sc.vod_gop)
        selected = sv.geometry.select_tiles(
            sv.geometry.Viewport.from_degrees(*VOD_VIEWPORT),
            sv.geometry.Projection(sv.geometry.ProjectionKind.ERP, w, h), config)
        source = sv.codec.generate_content(seed, config, sc.vod_frames)
        decodes = [rc for name, _, rc in calls if name == "decode"]
        for i, rc in enumerate(decodes):
            if rc != 0:
                continue
            want = sv.codec.upsample_nearest(
                sv.codec.downsample(source.frames[i], config.scale_factor),
                config.scale_factor).samples.copy()
            for t in selected:
                col, row = config.tile_position(t)
                rs = slice(row * config.tile_height, (row + 1) * config.tile_height)
                cs = slice(col * config.tile_width, (col + 1) * config.tile_width)
                want[rs, cs] = source.frames[i].samples[rs, cs]
            with open(self.path(f"frame-{i:03d}.yuv"), "rb") as fh:
                got = np.frombuffer(fh.read(), dtype=np.uint8)
            failed += not (got.size == want.size and np.array_equal(got.reshape(h, w), want))
        return failed

    def check(self, p: Pass) -> int:
        return sum(failed for _, failed in p.outputs)

    def end_to_end(self, p: Pass) -> tuple[float, list[str]]:
        chain_ns, encode_s, decode_ms = [], [], []
        for calls, _ in p.outputs:
            chain_ns.append(sum(ns for _, ns, _ in calls))
            encode_s += [ns / 1e9 for name, ns, _ in calls if name == "encode"]
            decode_ms += [ns / 1e6 for name, ns, _ in calls if name == "decode"]
        chain_s = [ns / 1e9 for ns in chain_ns]
        frames_per_s = median_rate([self.scale.vod_frames] * len(chain_ns), chain_ns, len(chain_ns))
        lines = [
            _timing_line("chain_s", chain_s, "s", 0.5),
            _timing_line("encode_s", encode_s, "s", 0.5),
            _timing_line("decode_ms_p50", decode_ms, "ms", 0.5),
            _timing_line("decode_ms_p95", decode_ms, "ms", 0.95),
            f"chain_frames_per_s = {frames_per_s:.4f} 1/s (median over chains, n={len(chain_s)})",
        ]
        return quantile(decode_ms, 0.5), lines


# --- sim-sweep ---------------------------------------------------------------


SIM_SCHEMES = ["svc", "multitrack(10,0)", "multitrack(30,5)"]


class SimSweep(Workload):
    """`svbs simulate` over discrete-view switch traces and a delay mix."""

    name = "sim-sweep"
    request_kind = "cli"
    measures = "one `svbs simulate` call (invocation_s_p50)"

    def setup(self) -> None:
        sc = self.scale
        geo = self.sv.geometry
        w, h = sc.sim_size
        views = [geo.Viewport.from_degrees(y, p, 90.0, 90.0)
                 for y, p in inputs.discrete_views(self.rng("views"), sc.sim_views)]
        trace_rng = self.rng("traces")
        self.traces = []
        for i in range(sc.sim_traces):
            trace = [(t, views[v])
                     for t, v in inputs.switch_trace(trace_rng, sc.sim_views, sc.sim_switches)]
            path = self.path(f"trace-{i}.jsonl")
            geo.write_viewport_trace(path, trace)
            self.traces.append((path, trace))
        self.content_seed = inputs.content_seed(self.rng("content"))
        # The SVC stream the simulator's byte counts are checked against.
        ref = self.path("reference.svb")
        rc, _ = self.cli(["encode", "--width", w, "--height", h, *TILE_ARGS,
                          "--gop", sc.sim_gop, "--frames", sc.sim_gop,
                          "--seed", self.content_seed, "--out", ref])
        if rc != 0:
            raise SetupError(f"svbs encode exited {rc} in sim-sweep setup")
        with open(ref, "rb") as fh:
            self.reference = self.sv.container.parse(fh.read())
        self.invocations = units(self.seconds, sc.sim_invocation_s)
        rc, _ = self.cli(self._argv(0, self.path("warm-up")))
        if rc != 0:
            raise SetupError(f"svbs simulate exited {rc} in sim-sweep setup")

    def _delays(self, j: int) -> tuple[float, float]:
        mix = inputs.DELAY_MIX
        return mix[(j // len(self.traces)) % len(mix)]

    def _argv(self, j: int, out: str) -> list:
        sc = self.scale
        w, h = sc.sim_size
        up, down = self._delays(j)
        argv = ["simulate", "--width", w, "--height", h, *TILE_ARGS, "--gop", sc.sim_gop,
                "--seed", self.content_seed, "--trace", self.traces[j % len(self.traces)][0],
                "--uplink-ms", up, "--downlink-ms", down, "--jobs", 1, "--out", out]
        for scheme in SIM_SCHEMES:
            argv += ["--scheme", scheme]
        return argv

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        clock = time.perf_counter_ns
        for j in range(self.invocations):
            out = self.path(f"sim-{j}")
            argv = self._argv(j, out)
            with self._request(tracer):
                t0 = clock()
                rc, stdout = self.cli(argv)
                t1 = clock()
            p.latencies_ns.append(t1 - t0)
            p.outputs.append((j, out, rc, stdout))
        return p

    def check(self, p: Pass) -> int:
        failed = 0
        for j, out, rc, stdout in p.outputs:
            ok = rc == 0
            trace = self.traces[j % len(self.traces)][1]
            if ok:
                summary = {e["scheme"]: e for e in map(json.loads, stdout.splitlines())}
                ok = (sorted(summary) == sorted(SIM_SCHEMES)
                      and all(e["switches"] == len(trace) - 1 for e in summary.values())
                      and summary["svc"]["not_reached"] == 0)
            # Stepping by one more than the trace count visits every trace
            # under every delay setting.
            if ok and j % (len(self.traces) + 1) == 0:
                ok = self._spot_check(j, trace, out)
            failed += not ok
        return failed

    def _spot_check(self, j: int, trace, out: str) -> bool:
        """Rerun the SVC session in-process: its bytes must match the CLI's
        report, and on sampled ticks equal the size of the frame the
        rewriter would send."""
        sv = self.sv
        sim = sv.simulator
        up, down = self._delays(j)
        config = self.reference.config
        report = sim.run_session(
            sim.Scheme(sim.SchemeKind.SVC), trace, sim.NetworkModel(up, down), config,
            self.content_seed, select_step=math.radians(1.0))
        with open(out + ".svc.json") as fh:
            if json.load(fh)["total_bytes"] != report.total_bytes:
                return False
        frames = report.frames
        for k in range(0, len(frames), max(1, len(frames) // 16)):
            log = frames[k]
            source = self.reference.frames[k % len(self.reference.frames)]
            rewritten = sv.rewriter.rewrite_viewport_frame(source, set(log.sent_tiles), config)
            sent = log.bytes_by_stream["base"] + log.bytes_by_stream["enhanced"]
            if sent != sv.container.serialized_frame_size(rewritten):
                return False
        return True

    def end_to_end(self, p: Pass) -> tuple[float, list[str]]:
        inv_ms = ms(p.latencies_ns)
        switches = [(len(self.traces[j % len(self.traces)][1]) - 1) * len(SIM_SCHEMES)
                    for j, _, _, _ in p.outputs]
        per_s = median_rate(switches, p.latencies_ns, 10)
        lines = [
            _timing_line("invocation_s_p50", [v / 1e3 for v in inv_ms], "s", 0.5),
            f"switches_per_s = {per_s:.4f} 1/s (median of 10 blocks, n={sum(switches)} "
            f"switches, {len(SIM_SCHEMES)} schemes per invocation)",
        ]
        return quantile(inv_ms, 0.5), lines


WORKLOADS = {w.name: w for w in (Serve, Vod, SimSweep)}
