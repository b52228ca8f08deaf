"""Command-line front end: generate, encode, rewrite, decode, validate,
select-tiles, simulate, report.

Angles on the command line are degrees, delays are milliseconds.  Every
command that writes outputs also writes a <name>.manifest.json recording the
tool version, arguments, input digests, and output list, so a run can be
reproduced from the manifest alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
from threading import Thread

from . import __version__
from .codec import (
    TrackResolution,
    decode_frame,
    encode_svc,
    encode_track,
    generate_content,
)
from .config import SequenceConfig
from .container import HEADER_SIZE, parse, serialize, validate_structure
from .errors import BadArgsError, SvbsError
from .geometry import (
    Projection,
    ProjectionKind,
    Viewport,
    read_viewport_trace,
    select_tiles,
)
from .rewriter import rewrite_viewport_frame
from .simulator import (
    NetworkModel,
    Scheme,
    SchemeKind,
    SessionReport,
    SwitchSample,
    latency_summary,
    run_session,
    write_report_csv,
    write_report_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -h is the only short option: any other one-dash token is a value, as after "=".
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=768, help="enhanced-layer width in pixels")
    p.add_argument("--height", type=int, default=384, help="enhanced-layer height in pixels")
    p.add_argument("--scale-factor", type=int, default=2, help="base-layer downscale factor")
    p.add_argument("--tile-cols", type=int, default=6)
    p.add_argument("--tile-rows", type=int, default=4)
    p.add_argument("--fps", default="30", help="frames per second, N or N/D")
    p.add_argument("--gop", type=int, default=30, help="GOP size in frames")
    p.add_argument("--ref-window", type=int, default=1,
                   help="how many previous base frames an enhanced frame may reference")


def _config_from_args(args) -> SequenceConfig:
    fps = str(args.fps)
    num, slash, den = fps.partition("/")
    try:
        fps_num, fps_den = int(num), int(den) if slash else 1
    except ValueError:
        raise SvbsError(f"--fps wants N or N/D, not {fps!r}") from None
    return SequenceConfig(
        width=args.width,
        height=args.height,
        scale_factor=args.scale_factor,
        tile_cols=args.tile_cols,
        tile_rows=args.tile_rows,
        fps_num=fps_num,
        fps_den=fps_den,
        gop_size=args.gop,
        ref_window=args.ref_window,
    )


def _parse_viewport(text: str) -> Viewport:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise SvbsError("--viewport wants yaw,pitch,hfov,vfov in degrees")
    return Viewport(*parts)


def _parse_tiles(text: str, tile_count: int) -> set[int]:
    if text == "all":
        return set(range(tile_count))
    if text == "none":
        return set()
    try:
        tiles = {int(x) for x in text.split(",")}
    except ValueError:
        raise SvbsError(f"--tiles wants all, none or a comma list of tile indices, "
                        f"not {text!r}") from None
    outside = sorted(t for t in tiles if not 0 <= t < tile_count)
    if outside:
        raise SvbsError(f"--tiles {outside[0]} outside the {tile_count}-tile grid")
    return tiles


def _check_frame_index(index: int, stream) -> int:
    if not 0 <= index < len(stream.frames):
        raise SvbsError(f"--frame {index} outside [0, {len(stream.frames)})")
    return index


# An input this large is hashed on a second thread while the command parses
# it (hashlib releases the GIL); a smaller one costs less to hash inline.
THREAD_HASH_MIN_BYTES = 1 << 20


def _read_input(path: str, inputs: dict) -> bytes:
    """Read ``path`` and start its manifest digest, recorded in ``inputs``."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest, thread = hashlib.sha256(), None
    if len(data) >= THREAD_HASH_MIN_BYTES:
        thread = Thread(target=digest.update, args=(data,))
        thread.start()  # returns once the worker runs
    else:
        digest.update(data)
    inputs[path] = (thread, digest)
    return data


def _write_manifest(out_path: str, args, inputs: dict, outputs: list[str]) -> None:
    """``inputs`` maps each input path to the (thread, digest) of ``_read_input``."""
    for thread, _ in inputs.values():
        if thread is not None:
            thread.join()
    manifest = {
        "tool_version": __version__,
        "command": getattr(args, "command", ""),
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {p: digest.hexdigest() for p, (_, digest) in inputs.items()},
        "outputs": outputs,
    }
    path = out_path + ".manifest.json"
    # A fresh name beside the manifest, created as open() creates every other
    # output, so the umask sets its mode; os.replace keeps that mode.
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- subcommands -------------------------------------------------------------


def _cmd_generate(args) -> int:
    config = _config_from_args(args)
    source = generate_content(args.seed, config, args.frames)
    with open(args.out, "wb") as fh:
        for frame in source.frames:
            fh.write(frame.tobytes())
    _write_manifest(args.out, args, {}, [args.out])
    print(f"wrote {args.frames} frames of {config.width}x{config.height} luma to {args.out}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    config = _config_from_args(args)
    source = generate_content(args.seed, config, args.frames)
    if args.schema == "svc":
        stream = encode_svc(source)
    else:
        stream = encode_track(source, args.gop, TrackResolution(args.resolution))
    data = serialize(stream)
    with open(args.out, "wb") as fh:
        fh.write(data)
    _write_manifest(args.out, args, {}, [args.out])
    print(f"encoded {len(stream.frames)} frames, {len(data)} bytes -> {args.out}")
    return EXIT_OK


def _cmd_rewrite(args) -> int:
    if args.viewport is not None and args.trace is not None:
        raise SvbsError("rewrite takes --viewport or --trace, not both")
    if not args.viewport and args.trace is None:
        raise SvbsError("rewrite needs --viewport or --trace")
    inputs = {}
    viewport = _parse_viewport(args.viewport) if args.viewport else None
    stream = parse(_read_input(args.input, inputs))
    if viewport is None:
        trace = read_viewport_trace(args.trace, _read_input(args.trace, inputs))
        if not trace:
            raise SvbsError("trace is empty")
        viewport = trace[0][1]
    projection = Projection(ProjectionKind(args.projection), stream.config.width,
                            stream.config.height)
    selected = select_tiles(viewport, projection, stream.config)
    if args.frame is None:
        targets = range(len(stream.frames))
    else:
        targets = [_check_frame_index(args.frame, stream)]
    frames = list(stream.frames)
    for k in targets:
        frames[k] = rewrite_viewport_frame(frames[k], selected, stream.config)
    with open(args.out, "wb") as fh:
        fh.write(serialize(dataclasses.replace(stream, frames=tuple(frames))))
    _write_manifest(args.out, args, inputs, [args.out])
    print(f"rewrote {len(targets)} frame(s), kept tiles {sorted(selected)} -> {args.out}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    inputs = {}
    data = _read_input(args.input, inputs)
    # Only the decoded frame's GOP is built and checked; the rest of the
    # stream is walked unit header by unit header (``svbs validate`` checks it).
    gop = parse(data[:HEADER_SIZE]).config.gop_size
    stream = parse(data, range(args.frame // gop * gop, args.frame + 1))
    tiles = _parse_tiles(args.tiles, stream.config.tile_count)
    frame = decode_frame(stream, _check_frame_index(args.frame, stream), tiles)
    with open(args.out, "wb") as fh:
        fh.write(frame.tobytes())
    _write_manifest(args.out, args, inputs, [args.out])
    print(f"decoded frame {args.frame} ({frame.width}x{frame.height}) -> {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    with open(args.input, "rb") as fh:
        stream = parse(fh.read())
    report = validate_structure(stream)
    for violation in report:
        print(f"frame {violation.frame_index}: {violation.rule} {violation.detail}")
    if report:
        print(f"{len(report)} violation(s)")
        return EXIT_DATA
    print(f"ok: {len(stream.frames)} frames, no violations")
    return EXIT_OK


def _cmd_select_tiles(args) -> int:
    config = _config_from_args(args)
    viewport = _parse_viewport(args.viewport)
    projection = Projection(ProjectionKind(args.projection), config.width, config.height)
    tiles = select_tiles(viewport, projection, config)
    print(",".join(str(t) for t in sorted(tiles)))
    return EXIT_OK


def _build_scheme(text: str) -> Scheme:
    """``svc``, ``multitrack``, ``multitrack(LONG)`` or ``multitrack(LONG,SHORT)``."""
    if text == "svc":
        return Scheme(SchemeKind.SVC)
    if text == "multitrack":
        return Scheme(SchemeKind.MULTITRACK)
    parts = text[len("multitrack("):-1].split(",")
    if not (text.startswith("multitrack(") and text.endswith(")")) or len(parts) > 2:
        raise BadArgsError(f"unknown scheme {text!r} (svc or multitrack(LONG,SHORT))")
    try:
        gops = [int(x) for x in parts]
    except ValueError:
        raise BadArgsError(f"--scheme {text!r}: LONG and SHORT must be integers") from None
    long_gop, short_gop = gops if len(gops) == 2 else (gops[0], 0)
    return Scheme(SchemeKind.MULTITRACK, long_gop=long_gop, short_gop=short_gop)


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    inputs = {}
    trace = read_viewport_trace(args.trace, _read_input(args.trace, inputs))
    network = NetworkModel(args.uplink_ms, args.downlink_ms, args.bandwidth_bps)
    schemes = [_build_scheme(s) for s in args.scheme or ["svc"]]
    for i, scheme in enumerate(schemes):
        if scheme in schemes[:i]:  # a scheme's label holds every field
            raise BadArgsError(f"--scheme {scheme.label} is given twice")
    projection_kind = ProjectionKind(args.projection)
    reports = [run_session(scheme, trace, network, config, args.seed,
                           projection_kind=projection_kind) for scheme in schemes]

    outputs = []
    for scheme, report in zip(schemes, reports):
        stem = f"{args.out}.{scheme.label.replace('(', '_').replace(')', '').replace(',', '_')}"
        write_report_json(report, stem + ".json")
        write_report_csv(report, stem + ".csv")
        outputs += [stem + ".json", stem + ".csv"]
    for entry in latency_summary(reports):
        print(json.dumps(entry))
    _write_manifest(args.out, args, inputs, outputs)
    return EXIT_OK


def _cmd_report(args) -> int:
    switches: dict[str, list[SwitchSample]] = {}
    byte_rows: dict[str, int] = {}
    for i, path in enumerate(args.csv):  # a file given twice would count its rows twice
        if os.path.realpath(path) in map(os.path.realpath, args.csv[:i]):
            raise BadArgsError(f"report {path} is given twice")
    for path in args.csv:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                if reader.fieldnames is None:
                    raise SvbsError(f"report {path} is empty")
                for col in ("row", "scheme", "t_ms", "mtp_ms", "mthq_ms", "bytes"):
                    if col not in reader.fieldnames:
                        raise SvbsError(f"report {path} has no {col!r} column")
                for row in reader:
                    scheme = row["scheme"]
                    if row["row"] == "switch":
                        mtp = float(row["mtp_ms"]) if row["mtp_ms"] else None
                        raw = row["mthq_ms"]
                        mthq = float(raw) if raw and raw != "NOT_REACHED" else None
                        sample = SwitchSample(float(row["t_ms"]), mtp, mthq)
                        switches.setdefault(scheme, []).append(sample)
                    elif row["row"] == "second":
                        byte_rows[scheme] = byte_rows.get(scheme, 0) + int(row["bytes"])
                    else:
                        raise SvbsError(f"report {path} line {reader.line_num}: row kind "
                                        f"{row['row']!r} is neither switch nor second")
            # Text is decoded in chunks, so a decode error has no exact line.
            except UnicodeDecodeError as exc:
                raise SvbsError(f"report {path} is not UTF-8 text: {exc}") from None
            # A short row reads its missing fields as None (TypeError).
            except (ValueError, TypeError, csv.Error) as exc:
                raise SvbsError(f"report {path} line {reader.line_num}: {exc}") from None
    # A CSV holds no frame period, which the summary does not read.  A scheme
    # whose session saw no switch has second rows only.
    reports = [SessionReport(scheme, 0.0, switches.get(scheme, []), {})
               for scheme in sorted(switches.keys() | byte_rows.keys())]
    summary = [
        {key: entry[key] for key in ("scheme", "switches", "mean_mthq_ms", "p95_mthq_ms")}
        | {"total_bytes": byte_rows.get(entry["scheme"], 0)}
        for entry in (latency_summary(reports) if reports else [])
    ]
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# --- argument wiring ---------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument tree, built once per process: ``parse_args`` returns a
    fresh namespace on each call and leaves the parser unchanged."""
    parser = _Parser(prog="svbs", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write deterministic synthetic luma frames")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("encode", help="encode synthetic content to an SVB stream")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--schema", choices=["svc", "track"], default="svc")
    p.add_argument("--resolution", choices=["full", "base"], default="full",
                   help="track schema only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("rewrite", help="rewrite frames of a stream for one viewport")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--viewport", help="yaw,pitch,hfov,vfov in degrees")
    p.add_argument("--trace", help="viewport trace file; first entry is used")
    p.add_argument("--frame", type=int, help="rewrite only this frame (default: all)")
    p.add_argument("--projection", choices=["erp", "cubemap"], default="erp")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("decode", help="decode one frame to raw 8-bit luma")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--tiles", default="all", help="comma list of tile indices, or all/none")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("validate", help="check structural rules; exit 0 iff clean")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("select-tiles", help="print the tile set for a viewport")
    _add_config_flags(p)
    p.add_argument("--viewport", required=True, help="yaw,pitch,hfov,vfov in degrees")
    p.add_argument("--projection", choices=["erp", "cubemap"], default="erp")
    p.set_defaults(func=_cmd_select_tiles)

    p = sub.add_parser("simulate", help="run a streaming session over a viewport trace")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", required=True)
    p.add_argument("--scheme", action="append",
                   help="svc or multitrack(LONG,SHORT); repeatable; default: svc")
    p.add_argument("--uplink-ms", type=float, default=0.0)
    p.add_argument("--downlink-ms", type=float, default=0.0)
    p.add_argument("--bandwidth-bps", type=float, help="bytes per second; default: unlimited")
    p.add_argument("--projection", choices=["erp", "cubemap"], default="erp")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the sessions run one after another")
    p.add_argument("--out", required=True, help="output stem for report files")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="merge simulate CSVs and print a summary")
    p.add_argument("csv", nargs="+")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (SvbsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
