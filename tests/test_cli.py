"""Command-line interface: exit codes, pipelines, manifests."""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svbs
import svbs.cli

from svbs.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from svbs.codec import decode_frame, downsample, encode_svc, generate_content, upsample_nearest
from svbs.config import SequenceConfig
from svbs.container import (
    FRAME_HEADER_UNIT_SIZE,
    HEADER_SIZE,
    UNIT_HEADER_SIZE,
    Bitstream,
    Frame,
    parse,
    serialize,
    serialize_frame,
    serialize_sequence_header,
    serialized_frame_size,
)
from svbs.errors import TooLargeError
from svbs.geometry import Viewport, select_tiles, write_viewport_trace
from svbs.rewriter import rewrite_viewport_frame

SMALL = [
    "--width", "64", "--height", "32", "--tile-cols", "2", "--tile-rows", "2",
    "--gop", "4",
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["generate"]) == EXIT_USAGE

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()


class TestGenerate:
    def test_writes_expected_bytes_and_manifest(self, tmp_path):
        out = tmp_path / "src.yuv"
        rc = main(["generate", *SMALL, "--seed", "3", "--frames", "2", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.stat().st_size == 64 * 32 * 2
        manifest = json.loads((tmp_path / "src.yuv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]
        assert manifest["command"] == "generate"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_manifest_mode_is_the_outputs(self, tmp_path, umask):
        out = tmp_path / "src.yuv"
        old = os.umask(umask)
        try:
            assert main(["generate", *SMALL, "--frames", "1", "--out", str(out)]) == EXIT_OK
        finally:
            os.umask(old)
        mode = stat.S_IMODE(out.stat().st_mode)
        assert mode == 0o666 & ~umask
        assert stat.S_IMODE((tmp_path / "src.yuv.manifest.json").stat().st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src.yuv", "src.yuv.manifest.json"]

    def test_manifest_that_cannot_be_replaced_leaves_no_temporary_file(self, tmp_path, capsys):
        # A directory holds the manifest's name, so os.replace fails.
        out = tmp_path / "src.yuv"
        (tmp_path / "src.yuv.manifest.json").mkdir()
        assert main(["generate", *SMALL, "--frames", "1", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "src.yuv.manifest.json" in err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            err.strip()]
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src.yuv", "src.yuv.manifest.json"]
        assert not any((tmp_path / "src.yuv.manifest.json").iterdir())

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.yuv", tmp_path / "b.yuv"
        for out in (a, b):
            main(["generate", *SMALL, "--seed", "3", "--frames", "2", "--out", str(out)])
        assert sha256(a) == sha256(b)


class TestEncodeValidateDecode:
    def test_encode_then_validate_ok(self, tmp_path, capsys):
        out = tmp_path / "stream.svb"
        assert main(["encode", *SMALL, "--frames", "4", "--out", str(out)]) == EXIT_OK
        assert main(["validate", "--in", str(out)]) == EXIT_OK
        assert "no violations" in capsys.readouterr().out

    def test_validate_flags_bad_structure(self, tmp_path, capsys):
        config = SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4)
        stream = encode_svc(generate_content(1, config, 2))
        # Two delimiters in a row: a frame with no layers.
        frames = (stream.frames[0], Frame(layers=()), stream.frames[1])
        path = tmp_path / "bad.svb"
        path.write_bytes(serialize_sequence_header(config)
                         + b"".join(map(serialize_frame, frames)))
        assert main(["validate", "--in", str(path)]) == EXIT_DATA
        assert "frame 1: R_TEMPORAL_DELIM frame has no layers" in capsys.readouterr().out

    def test_validate_refuses_stub_predicting_from_previous_frame(self, tmp_path, capsys):
        config = SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4)
        frame = rewrite_viewport_frame(encode_svc(generate_content(1, config, 1)).frames[0],
                                       set(), config)
        data = bytearray(serialize_sequence_header(config) + serialize_frame(frame))
        # The last stub's mode record ends the stream; ref_frames is its 4th byte.
        data[-3] = 1
        path = tmp_path / "temporal.svb"
        path.write_bytes(bytes(data))
        assert main(["validate", "--in", str(path)]) == EXIT_DATA
        assert f"bad superblock mode at offset {len(data) - 6}:" in capsys.readouterr().err

    def test_corrupt_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "junk.svb"
        path.write_bytes(b"not a stream at all")
        assert main(["validate", "--in", str(path)]) == EXIT_DATA
        assert main(["decode", "--in", str(path), "--out", str(tmp_path / "x")]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["validate", "decode"])
    def test_header_over_pixel_budget_is_data_error(self, tmp_path, capsys, command):
        # The 20-byte header-only stream of a 65532x65532 frame with 1x1 tiles.
        data = bytearray(serialize_sequence_header(SequenceConfig(64, 32)))
        struct.pack_into("<HH", data, 5, 65532, 65532)
        path = tmp_path / "huge.svb"
        path.write_bytes(bytes(data))
        out = tmp_path / "out"
        argv = [command, "--in", str(path)] + (["--out", str(out)] if command == "decode" else [])
        assert main(argv) == EXIT_DATA
        assert "exceeds the frame pixel budget" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["validate", "--in", str(tmp_path / "absent.svb")]) == EXIT_DATA

    def test_decode_track_roundtrip(self, tmp_path, capsys):
        stream_path = tmp_path / "s.svb"
        raw_path = tmp_path / "f.yuv"
        assert (
            main(["encode", *SMALL, "--frames", "3", "--out", str(stream_path)]) == EXIT_OK
        )
        rc = main(
            ["decode", "--in", str(stream_path), "--frame", "2", "--tiles", "all",
             "--out", str(raw_path)]
        )
        assert rc == EXIT_OK
        source = generate_content(
            1, SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4), 3
        )
        assert raw_path.read_bytes() == source.frames[2].tobytes()
        capsys.readouterr()

    @pytest.mark.parametrize("resolution", ["full", "base"])
    def test_track_encode_validate_decode(self, tmp_path, capsys, resolution):
        stream_path = tmp_path / "t.svb"
        assert main(["encode", *SMALL, "--frames", "5", "--schema", "track",
                     "--resolution", resolution, "--out", str(stream_path)]) == EXIT_OK
        assert main(["validate", "--in", str(stream_path)]) == EXIT_OK
        source = generate_content(
            1, SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4), 5
        )
        for i, frame in enumerate(source.frames):
            raw_path = tmp_path / f"f{i}.yuv"
            assert main(["decode", "--in", str(stream_path), "--frame", str(i), "--tiles", "0",
                         "--out", str(raw_path)]) == EXIT_OK
            want = frame if resolution == "full" else upsample_nearest(downsample(frame, 2), 2)
            assert raw_path.read_bytes() == want.tobytes()
        capsys.readouterr()


class TestRewritePipeline:
    def test_rewrite_then_validate_then_decode(self, tmp_path, capsys):
        stream_path = tmp_path / "s.svb"
        rewritten = tmp_path / "r.svb"
        main(["encode", *SMALL, "--frames", "3", "--out", str(stream_path)])
        rc = main(
            ["rewrite", "--in", str(stream_path), "--viewport", "0,0,120,90",
             "--out", str(rewritten)]
        )
        assert rc == EXIT_OK
        assert main(["validate", "--in", str(rewritten)]) == EXIT_OK
        assert rewritten.stat().st_size <= stream_path.stat().st_size
        manifest = json.loads((tmp_path / "r.svb.manifest.json").read_text())
        assert str(stream_path) in manifest["inputs"]
        assert main(
            ["decode", "--in", str(rewritten), "--frame", "1", "--tiles", "none",
             "--out", str(tmp_path / "d.yuv")]
        ) == EXIT_OK
        capsys.readouterr()

    def test_rewrite_from_trace(self, tmp_path, capsys):
        stream_path = tmp_path / "s.svb"
        trace_path = tmp_path / "t.jsonl"
        main(["encode", *SMALL, "--frames", "2", "--out", str(stream_path)])
        write_viewport_trace(trace_path, [(0.0, Viewport.from_degrees(0, 0, 120, 90))])
        rc = main(
            ["rewrite", "--in", str(stream_path), "--trace", str(trace_path),
             "--frame", "0", "--out", str(tmp_path / "r.svb")]
        )
        assert rc == EXIT_OK
        capsys.readouterr()


class TestFrameBounds:
    @pytest.mark.parametrize("command", ["rewrite", "decode"])
    @pytest.mark.parametrize("frame", ["100", "-1"])
    def test_frame_outside_stream_is_data_error(self, tmp_path, capsys, command, frame):
        stream_path = tmp_path / "s.svb"
        out = tmp_path / "out"
        main(["encode", *SMALL, "--frames", "2", "--out", str(stream_path)])
        capsys.readouterr()
        extra = ["--viewport", "0,0,120,90"] if command == "rewrite" else []
        rc = main([command, "--in", str(stream_path), *extra, "--frame", frame,
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert f"--frame {frame} outside [0, 2)" in capsys.readouterr().err
        assert not out.exists()


def _decode(tmp_path, stream_path, frame: int) -> bytes | None:
    """`svbs decode --frame` with every tile: the frame's bytes, or None
    when it exits 2 with an error line."""
    out = tmp_path / f"d{frame}.yuv"
    out.unlink(missing_ok=True)
    rc = main(["decode", "--in", str(stream_path), "--frame", str(frame), "--tiles", "all",
               "--out", str(out)])
    return out.read_bytes() if rc == EXIT_OK else None


class TestRandomAccess:
    """`svbs decode --frame i` parses and checks only frame i's GOP."""

    def _stream(self, tmp_path, gop: int, frames: int, rewritten: bool):
        path = tmp_path / "s.svb"
        ref_window = min(gop, 2)
        assert main(["encode", *SMALL[:-1], str(gop), "--ref-window", str(ref_window),
                     "--frames", str(frames), "--out", str(path)]) == EXIT_OK
        if rewritten:
            assert main(["rewrite", "--in", str(path), "--viewport", "90,45,30,30",
                         "--out", str(path)]) == EXIT_OK
        return path

    @pytest.mark.parametrize("gop", [1, 3, 10])
    @pytest.mark.parametrize("rewritten", [False, True])
    def test_every_frame_matches_the_whole_stream_path(self, tmp_path, capsys, gop, rewritten):
        path = self._stream(tmp_path, gop, 21, rewritten)
        stream = parse(path.read_bytes())
        for i in range(len(stream.frames)):
            want = decode_frame(stream, i, set(range(4))).tobytes()
            assert _decode(tmp_path, path, i) == want
        capsys.readouterr()

    def test_corrupt_payload_fails_only_its_gop(self, tmp_path, capsys):
        path = self._stream(tmp_path, 10, 30, False)
        stream = parse(path.read_bytes())
        # Frame 10's base layer opens the second GOP; every frame of that GOP
        # decodes from it.  b"\xff" is not a whole RLE record.
        base, *rest = stream.frames[10].layers
        group = base.tile_groups[0]
        group = replace(group, tiles=(replace(group.tiles[0], coded_payload=b"\xff"),))
        frames = list(stream.frames)
        frames[10] = Frame((replace(base, tile_groups=(group,)), *rest))
        corrupt = tmp_path / "corrupt.svb"
        corrupt.write_bytes(serialize(Bitstream(stream.config, tuple(frames))))
        for i in (5, 25):
            assert _decode(tmp_path, corrupt, i) == _decode(tmp_path, path, i) is not None
        capsys.readouterr()
        assert _decode(tmp_path, corrupt, 15) is None
        assert "error: truncated record header at offset 0" in capsys.readouterr().err

    def test_tile_fault_outside_the_gop_fails_only_validate(self, tmp_path, capsys):
        path = self._stream(tmp_path, 10, 30, False)
        data = bytearray(path.read_bytes())
        stream = parse(bytes(data))
        # Frame 12's first base tile group, which spans the one-tile base
        # grid, claims to end at tile 99.
        at = HEADER_SIZE + sum(map(serialized_frame_size, stream.frames[:12]))
        at += UNIT_HEADER_SIZE + FRAME_HEADER_UNIT_SIZE + UNIT_HEADER_SIZE + 2
        assert struct.unpack_from("<H", data, at) == (0,)
        struct.pack_into("<H", data, at, 99)
        faulty = tmp_path / "faulty.svb"
        faulty.write_bytes(bytes(data))
        assert main(["validate", "--in", str(faulty)]) == EXIT_DATA
        assert "frame 12: R_TG_RANGE tg_end 99 outside 1x1 grid" in capsys.readouterr().out
        for i in (5, 25):
            assert _decode(tmp_path, faulty, i) == _decode(tmp_path, path, i) is not None
        capsys.readouterr()
        assert _decode(tmp_path, faulty, 15) is None
        assert "error: stream fails validation: R_TG_RANGE at frame 12" in capsys.readouterr().err

    def test_truncated_tail_is_refused_outside_the_gop(self, tmp_path, capsys):
        path = self._stream(tmp_path, 4, 12, False)
        path.write_bytes(path.read_bytes()[:-3])
        assert _decode(tmp_path, path, 0) is None
        assert "error: truncated stream at byte offset" in capsys.readouterr().err


# Input files the malformed-argument cases name as {dir}/<name>.
MALFORMED_INPUTS = {
    "trace.jsonl": b'{"t_ms": 0, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n',
    "mtp.csv": b"row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\nswitch,svc,0,abc,1,,,\n",
    "noscheme.csv": b"row,t_ms,mtp_ms,mthq_ms,second,stream,bytes\nswitch,0,1,1,,,\n",
    "binary.csv": b"\x89PNG\r\n\x1a\n\xff\xfe\x00",
    "empty.csv": b"",
    "report.json": b'{"scheme": "svc", "frame_period_ms": 33.333333333333336, "switches": [], '
                   b'"seconds": {}, "total_bytes": 0}\n',
    "bogus.csv": b"row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\nbogus,svc,,,,,,\n",
    "far.jsonl": b'{"t_ms": 0, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n'
                 b'{"t_ms": 1e13, "yaw_deg": 9, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n',
    "long.jsonl": b'{"t_ms": 2e7, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n',
    "forty.jsonl": b"".join(b'{"t_ms": %d, "yaw_deg": %d, "pitch_deg": 0, "h_fov_deg": 90, '
                            b'"v_fov_deg": 90}\n' % (100 * i, 90 * (i % 4)) for i in range(40)),
    "huge.csv": b"row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\n"
                b"switch,svc,0,1,1e308,,,\nswitch,svc,1,1,1e308,,,\n",
    "blank.jsonl": b"\n",
}
SIMULATE = ["simulate", *SMALL, "--trace", "{dir}/trace.jsonl", "--out", "{out}"]


class TestMalformedArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["select-tiles", "--viewport", "a,b,c,d"], "--viewport wants"),
            (["rewrite", "--in", "{stream}", "--out", "{out}"], "needs --viewport or --trace"),
            (["rewrite", "--in", "{stream}", "--viewport", "0,0,90,90",
              "--trace", "{dir}/trace.jsonl", "--out", "{out}"],
             "rewrite takes --viewport or --trace, not both"),
            # The flags are checked before the input is read.
            (["rewrite", "--in", "{dir}/missing.svb", "--out", "{out}"],
             "needs --viewport or --trace"),
            (["rewrite", "--in", "{dir}/missing.svb", "--viewport", "0,0,90,90",
              "--trace", "{dir}/trace.jsonl", "--out", "{out}"],
             "rewrite takes --viewport or --trace, not both"),
            (["rewrite", "--in", "{dir}/missing.svb", "--viewport", "a,b", "--out", "{out}"],
             "--viewport wants"),
            (["decode", "--in", "{stream}", "--tiles", "a", "--out", "{out}"], "--tiles wants"),
            (["decode", "--in", "{stream}", "--tiles", "0,", "--out", "{out}"], "--tiles wants"),
            (["decode", "--in", "{stream}", "--tiles", "99", "--out", "{out}"],
             "--tiles 99 outside the 4-tile grid"),
            (["decode", "--in", "{stream}", "--tiles", "1,-1", "--out", "{out}"],
             "--tiles -1 outside"),
            (["select-tiles", "--fps", "abc", "--viewport", "0,0,90,90"], "--fps wants"),
            (["select-tiles", "--viewport", "nan,0,90,90"], "yaw must be finite"),
            # A refusal names the unit the pose was given in.
            (["select-tiles", "--viewport", "0,100,90,90"], "pitch outside [-90, 90] degrees"),
            (["select-tiles", "--viewport", "0,0,5e-324,90"], "h_fov outside (0, 360] degrees"),
            (["select-tiles", "--viewport", "0,0,90,180.00000000000003"],
             "v_fov outside (0, 180] degrees"),
            ([*SIMULATE, "--uplink-ms", "nan"], "delays must be nonnegative and finite"),
            ([*SIMULATE, "--bandwidth-bps", "nan"], "bandwidth must be positive and finite"),
            ([*SIMULATE, "--bandwidth-bps", "inf"], "bandwidth must be positive and finite"),
            ([*SIMULATE, "--bandwidth-bps", "1e-305"], "display times overflow a float"),
            ([*SIMULATE, "--trace", "{dir}/forty.jsonl", "--bandwidth-bps", "1e-301"],
             "svc: the mean or median MTHQ is not finite"),
            (["report", "{dir}/huge.csv"], "svc: the mean or median MTHQ is not finite"),
            ([*SIMULATE, "--scheme", "multitrack(a)"], "LONG and SHORT must be integers"),
            (["report", "{dir}/mtp.csv"], "mtp.csv line 2: could not convert"),
            (["report", "{dir}/noscheme.csv"], "noscheme.csv has no 'scheme' column"),
            (["report", "{dir}/binary.csv"], "binary.csv is not UTF-8 text"),
            ([*SIMULATE, "--scheme", "multitrack(30,5,1)"], "unknown scheme 'multitrack(30,5,1)'"),
            ([*SIMULATE, "--scheme", "multitrack(30"], "unknown scheme 'multitrack(30'"),
            ([*SIMULATE, "--scheme", "multitrack", "--scheme", "multitrack(30,0)"],
             "--scheme multitrack(30,0) is given twice"),
            (["report", "{dir}/empty.csv"], "empty.csv is empty"),
            (["report", "{dir}/report.json"], "report.json has no 'row' column"),
            (["report", "{dir}/bogus.csv"],
             "bogus.csv line 2: row kind 'bogus' is neither switch nor second"),
            (["generate", *SMALL, "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
            (["encode", *SMALL, "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
            (["encode", *SMALL, "--scale-factor", "0", "--out", "{out}"],
             "scale_factor must be >= 1"),
            ([*SIMULATE, "--seed", "-1"], "seed must be >= 0"),
            (["generate", *SMALL, "--frames", "100000000", "--out", "{out}"],
             "exceed the content pixel budget"),
            # 255x255 tiles: 64 frames hold about 1 GiB of encoded model, 65 are refused.
            (["encode", "--width", "510", "--height", "510", "--tile-cols", "255",
              "--tile-rows", "255", "--frames", "65", "--out", "{out}"],
             "65 frames of 65026 tiles exceed the encoded tile budget"),
            # A session encodes at most its own ticks' frames: about 600,000 of
            # the 999,000-frame cycle, still over the budget at 64x32.
            ([*SIMULATE, "--trace", "{dir}/long.jsonl", "--scheme", "multitrack(1000,999)"],
             "exceed the content pixel budget"),
            ([*SIMULATE, "--scheme", "multitrack(70000)"], "a GOP exceeds the u16 wire range"),
            ([*SIMULATE, "--scheme", "multitrack(99999999999)"], "a GOP exceeds the u16"),
            ([*SIMULATE, "--trace", "{dir}/far.jsonl"], "exceed the session tick budget"),
            # A value led by "-" is a value, as after "=".
            (["decode", "--in", "{stream}", "--tiles", "-1,2", "--out", "{out}"],
             "--tiles -1 outside the 4-tile grid"),
            (["decode", "--in", "{stream}", "--tiles", "-x", "--out", "{out}"], "--tiles wants"),
            (["rewrite", "--in", "{stream}", "--viewport", "-1,x", "--out", "{out}"],
             "--viewport wants"),
            (["select-tiles", "--viewport", "-1e308,0,90"], "--viewport wants"),
            (["select-tiles", "--width", "0", "--viewport", "0,0,90,90"],
             "frame dimensions must be positive"),
            (["select-tiles", *SMALL, "--tile-rows", "0", "--viewport", "0,0,90,90"],
             "tile grid must be at least 1x1"),
            (["encode", *SMALL, "--ref-window", "0", "--out", "{out}"],
             "ref_window must be >= 1"),
            (["encode", *SMALL, "--gop", "0", "--out", "{out}"], "gop_size must be >= 1"),
            (["select-tiles", *SMALL, "--fps", "70000", "--viewport", "0,0,90,90"],
             "fps_num exceeds the u16 wire range"),
            (["select-tiles", "--width", "1024", "--height", "512", "--tile-cols", "1",
              "--tile-rows", "1", "--scale-factor", "256", "--viewport", "0,0,90,90"],
             "scale_factor exceeds the u8 wire range"),
            (["generate", *SMALL, "--frames", "0", "--out", "{out}"],
             "frame_count must be >= 1"),
            (["rewrite", "--in", "{stream}", "--trace", "{dir}/blank.jsonl", "--out", "{out}"],
             "trace is empty"),
        ],
        ids=["viewport-not-numbers", "rewrite-without-pose", "rewrite-viewport-and-trace",
             "rewrite-without-pose-missing-input", "rewrite-viewport-and-trace-missing-input",
             "rewrite-viewport-not-numbers-missing-input",
             "tiles-not-numbers", "tiles-empty-entry", "tile-outside-grid", "negative-tile",
             "fps-not-a-number", "yaw-not-finite", "pitch-outside", "h-fov-underflows",
             "v-fov-outside", "uplink-nan",
             "bandwidth-nan", "bandwidth-inf", "bandwidth-overflows", "bandwidth-mean-overflows",
             "report-mean-overflows",
             "scheme-gop-not-a-number", "report-mtp-not-a-number",
             "report-without-scheme", "report-binary", "scheme-three-gops",
             "scheme-unclosed", "scheme-repeated", "report-empty", "report-json",
             "report-unknown-row-kind",
             "generate-negative-seed", "encode-negative-seed", "encode-scale-factor-0",
             "simulate-negative-seed",
             "generate-over-pixel-budget", "encode-over-tile-budget",
             "scheme-cycle-over-pixel-budget",
             "scheme-gop-over-u16", "scheme-gop-huge", "trace-over-tick-budget",
             "dash-led-tile-outside-grid", "dash-led-tiles-not-numbers",
             "dash-led-viewport-not-numbers", "dash-led-viewport-too-short",
             "width-0", "tile-rows-0", "ref-window-0", "gop-0", "fps-over-u16",
             "scale-factor-over-u8", "generate-0-frames", "trace-empty"],
    )
    def test_is_data_error_without_traceback(self, tmp_path, capsys, argv, message):
        stream_path = tmp_path / "s.svb"
        out = tmp_path / "out"
        for name, content in MALFORMED_INPUTS.items():
            (tmp_path / name).write_bytes(content)
        main(["encode", *SMALL, "--frames", "1", "--out", str(stream_path)])
        capsys.readouterr()
        rc = main([a.format(stream=stream_path, out=out, dir=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("error: ") and message in err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            err.strip()]
        assert "Traceback" not in err
        assert not out.exists()


class TestBudgetsBeforeContent:
    # 255x255 tiles: an SVC frame has one base tile and 65,025 enhanced ones,
    # a FULL track frame 65,025.  A BASE track frame is one tile, so 2^22 + 1
    # frames are refused at 16x8, whose content (537 MB) is under its budget.
    @pytest.mark.parametrize("argv, message", [
        (["--width", "510", "--height", "510", "--tile-cols", "255", "--tile-rows", "255",
          "--frames", "500"], "500 frames of 65026 tiles"),
        (["--width", "510", "--height", "510", "--tile-cols", "255", "--tile-rows", "255",
          "--frames", "500", "--schema", "track"], "500 frames of 65025 tiles"),
        (["--width", "16", "--height", "8", "--tile-cols", "1", "--tile-rows", "1",
          "--frames", "4194305", "--schema", "track", "--resolution", "base"],
         "4194305 frames of 1 tiles"),
    ], ids=["svc", "full-track", "base-track"])
    def test_encode_over_tile_budget_generates_nothing(self, tmp_path, capsys, monkeypatch,
                                                        argv, message):
        calls = []

        def counted(*args):  # refuses too, so a missed check fails fast
            calls.append(args)
            raise TooLargeError("generate_content was called")

        monkeypatch.setattr(svbs.cli, "generate_content", counted)
        out = tmp_path / "out.svb"
        tracemalloc.start()
        try:
            rc = main(["encode", *argv, "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == EXIT_DATA
        assert f"{message} exceed the encoded tile budget" in capsys.readouterr().err
        assert calls == [] and peak < 1 << 20
        assert not out.exists()


class TestMalformedTrace:
    @pytest.mark.parametrize("command", ["simulate", "rewrite"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"not json\n", "line 1: Expecting value"),
            (b"[1, 2]\n", "line 1: want a JSON object, not list"),
            (b'{"t_ms": 0, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n'
             b'{"t_ms": 40}\n', "line 2: missing key 'yaw_deg'"),
            (b"\x89PNG\r\n\x1a\n\xff\xfe\x00", "line 1: 'utf-8' codec can't decode"),
            (b'{"t_ms": NaN, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}',
             "line 1: t_ms must be finite"),
            (b'{"t_ms": 0, "yaw_deg": 0, "pitch_deg": 91, "h_fov_deg": 90, "v_fov_deg": 90}',
             "line 1: pitch outside"),
        ],
        ids=["not-json", "json-list", "missing-key", "binary", "nan-time", "bad-pitch"],
    )
    def test_is_data_error_naming_the_line(self, tmp_path, capsys, command, content, message):
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_bytes(content)
        out = tmp_path / "out"
        if command == "simulate":
            argv = ["simulate", *SMALL, "--trace", str(trace_path), "--out", str(out)]
        else:
            stream_path = tmp_path / "s.svb"
            main(["encode", *SMALL, "--frames", "1", "--out", str(stream_path)])
            argv = ["rewrite", "--in", str(stream_path), "--trace", str(trace_path),
                    "--out", str(out)]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith(f"error: trace {trace_path} ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


# Valid command lines for every subcommand at 64x32, 2x2 tiles, GOP 4 and at
# most 4 frames; {dir} holds the files _fuzz_files names.
FUZZ_COMMANDS = [
    ["generate", *SMALL, "--seed", "3", "--frames", "4", "--out", "{dir}/out"],
    ["encode", *SMALL, "--frames", "4", "--out", "{dir}/out"],
    ["encode", *SMALL, "--frames", "4", "--schema", "track", "--resolution", "base",
     "--out", "{dir}/out"],
    ["rewrite", "--in", "{dir}/s.svb", "--viewport", "0,0,90,90", "--frame", "1",
     "--projection", "erp", "--out", "{dir}/out"],
    ["rewrite", "--in", "{dir}/s.svb", "--trace", "{dir}/t.jsonl", "--out", "{dir}/out"],
    ["decode", "--in", "{dir}/s.svb", "--frame", "2", "--tiles", "0,3", "--out", "{dir}/out"],
    ["validate", "--in", "{dir}/s.svb"],
    ["select-tiles", *SMALL, "--viewport", "0,0,90,90", "--projection", "erp"],
    ["simulate", *SMALL, "--seed", "2", "--trace", "{dir}/t.jsonl", "--scheme", "svc",
     "--scheme", "multitrack(4,2)", "--uplink-ms", "10", "--downlink-ms", "20",
     "--bandwidth-bps", "100000", "--projection", "erp", "--out", "{dir}/out"],
    ["report", "{dir}/r.csv"],
]
FUZZ_VALUES = ["nan", "inf", "-1", "1e3", "1099511627776", "", "{dir}/absent/x", "{dir}/bin"]


@functools.cache
def _fuzz_files() -> dict[str, bytes]:
    config = SequenceConfig(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4)
    return {
        "s.svb": serialize(encode_svc(generate_content(1, config, 4))),
        "t.jsonl": b"".join(b'{"t_ms": %d, "yaw_deg": %d, "pitch_deg": 0, "h_fov_deg": 90, '
                            b'"v_fov_deg": 90}\n' % (150 * i, 90 * i) for i in range(4)),
        "r.csv": b"row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\n"
                 b"switch,svc,0,33.3,33.3,,,\nsecond,svc,,,,0,base,120\n",
        "bin": b"\x89PNG\r\n\x1a\n\xff\xfe\x00" * 4,
    }


@st.composite
def mutated_argvs(draw):
    argv = list(draw(st.sampled_from(FUZZ_COMMANDS)))
    for at in draw(st.lists(st.integers(0, len(argv) - 1), min_size=1, max_size=2,
                            unique=True)):
        argv[at] = draw(st.sampled_from(FUZZ_VALUES))
    return argv


class TestArgvFuzz:
    """A valid command line with one or two tokens replaced by a hostile
    value ends in exit 0, 1 or 2: no exception escapes ``main``."""

    @given(argv=mutated_argvs())
    @settings(max_examples=60, deadline=None)
    def test_ends_in_an_exit_code(self, tmp_path_factory, argv):
        directory = tmp_path_factory.mktemp("fuzz")
        for name, content in _fuzz_files().items():
            (directory / name).write_bytes(content)
        stdout, stderr = io.StringIO(), io.StringIO()
        # A bare value standing in for an output path names a file in the
        # working directory.
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([a.format(dir=directory) for a in argv])
        finally:
            os.chdir(cwd)
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
        assert "Traceback" not in stderr.getvalue()


class TestDashLedValues:
    """A value led by "-" parses as it does after "=": argparse on its own
    takes only a plain negative number as a value."""

    def test_select_tiles_viewport(self, capsys):
        assert main(["select-tiles", *SMALL, "--viewport=-90,0,90,90"]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["select-tiles", *SMALL, "--viewport", "-90,0,90,90"]) == EXIT_OK
        assert capsys.readouterr().out == want == "0,2\n"

    def test_rewrite_viewport(self, tmp_path, capsys):
        stream_path = tmp_path / "s.svb"
        main(["encode", *SMALL, "--frames", "4", "--out", str(stream_path)])
        for name, pose in (("joined", ["--viewport=-90,0,90,90"]),
                           ("spaced", ["--viewport", "-90,0,90,90"])):
            assert main(["rewrite", "--in", str(stream_path), *pose,
                         "--out", str(tmp_path / name)]) == EXIT_OK
            assert "kept tiles [0, 2] ->" in capsys.readouterr().out
        assert (tmp_path / "joined").read_bytes() == (tmp_path / "spaced").read_bytes()


# The extreme-argument sweep's boundary sets: each numeric flag takes a value
# from the ends of its range (frame rates N/D, trace times, delays,
# bandwidths, GOPs, yaws, dash-led on the command line too, and FOVs).
EXTREME_RATES = ["1", "2", "65535"]
EXTREME_T_MS = [0.0, 5e-324, -5e-324, -1e300, 1e308, -1e308]
EXTREME_DELAYS = ["0", "5e-324", "1e308"]
EXTREME_BANDWIDTHS = ["5e-324", "1", "1e308"]
EXTREME_YAWS = [0.0, 1e308, -1e308]
EXTREME_PITCHES = [-90.0, 0.0, 90.0]
EXTREME_H_FOVS = [5e-324, 1e-9, 360.0]
EXTREME_V_FOVS = [5e-324, 1e-9, 180.0]


@st.composite
def extreme_argvs(draw):
    """A command line of simulate, rewrite, decode, select-tiles, generate or
    encode at 64x32 with 2x2 tiles, and the trace of at most 3 poses it may read."""
    def pick(values):
        return draw(st.sampled_from(values))

    fps = f"{pick(EXTREME_RATES)}/{pick(EXTREME_RATES)}"
    command = pick(["simulate", "rewrite", "decode", "select-tiles", "generate", "encode"])
    # A session encodes at most its own ticks' frames, a few here, so an svc
    # session takes GOP 65,535 too.  A multitrack session encodes its scheme's
    # GOPs whatever --gop says.
    scheme = pick(["svc", "multitrack(4,2)"]) if command == "simulate" else None
    gop = pick(["1", "65535"])
    grid = ["--width", "64", "--height", "32", "--tile-cols", "2", "--tile-rows", "2",
            "--gop", gop, "--fps", fps]
    viewport = ",".join(repr(pick(values)) for values in (
        EXTREME_YAWS, EXTREME_PITCHES, EXTREME_H_FOVS, EXTREME_V_FOVS))
    trace = [{"t_ms": pick(EXTREME_T_MS), "yaw_deg": pick(EXTREME_YAWS),
              "pitch_deg": pick(EXTREME_PITCHES), "h_fov_deg": pick(EXTREME_H_FOVS),
              "v_fov_deg": pick(EXTREME_V_FOVS)} for _ in range(draw(st.integers(1, 3)))]
    out = ["--out", "{dir}/out"]
    argv = {
        "simulate": ["simulate", *grid, "--trace", "{dir}/t.jsonl", "--scheme", scheme,
                     "--uplink-ms", pick(EXTREME_DELAYS), "--downlink-ms", pick(EXTREME_DELAYS),
                     "--bandwidth-bps", pick(EXTREME_BANDWIDTHS), *out],
        "rewrite": ["rewrite", "--in", "{dir}/s.svb",
                    *pick([["--viewport", viewport], ["--trace", "{dir}/t.jsonl"]]),
                    *pick([[], ["--frame", "3"], ["--frame", "-1"]]), *out],
        "decode": ["decode", "--in", "{dir}/s.svb", "--frame", pick(["0", "3", "4", "-1"]),
                   "--tiles", pick(["all", "none", "0,3", "-1,2"]), *out],
        "select-tiles": ["select-tiles", *grid, "--viewport", viewport,
                         "--projection", pick(["erp", "cubemap"])],
        "generate": ["generate", *grid, "--frames", pick(["1", "4"]), *out],
        "encode": ["encode", *grid, "--frames", pick(["1", "4"]),
                   "--schema", pick(["svc", "track"]), *out],
    }[command]
    return argv, trace


class TestExtremeArguments:
    """Valid command lines with every numeric flag at an end of its range end
    in exit 0, or in exit 2 with exactly one error line: no exception escapes
    ``main`` and no usage error stands for a value."""

    @given(extreme_argvs())
    @example((["select-tiles", *SMALL, "--viewport", "-1e+308,0.0,360.0,180.0"], []))
    @example((["rewrite", "--in", "{dir}/s.svb", "--viewport", "-1e+308,0.0,90.0,90.0",
               "--out", "{dir}/out"], []))
    @settings(max_examples=150, deadline=None)
    def test_ends_in_exit_0_or_2(self, tmp_path_factory, case):
        argv, trace = case
        directory = tmp_path_factory.mktemp("extreme")
        (directory / "s.svb").write_bytes(_fuzz_files()["s.svb"])
        (directory / "t.jsonl").write_text("".join(json.dumps(pose) + "\n" for pose in trace))
        argv = [a.format(dir=directory) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        err = stderr.getvalue()
        assert rc in (EXIT_OK, EXIT_DATA), (argv, trace, err)
        if rc == EXIT_DATA:
            assert [line for line in err.splitlines() if line.startswith("error: ")] == [
                err.strip()], (argv, trace, err)


class TestParserReuse:
    """``main`` builds its argument parser once per process; a later call
    must see none of an earlier call's arguments."""

    def test_manifest_args_match_a_fresh_process(self, tmp_path, capsys):
        stream_path = tmp_path / "s.svb"
        main(["encode", *SMALL, "--frames", "2", "--out", str(stream_path)])
        runs = [
            ["decode", "--in", str(stream_path), "--tiles", "0", "--out", str(tmp_path / "a")],
            ["decode", "--in", str(stream_path), "--out", str(tmp_path / "b")],
            ["rewrite", "--in", str(stream_path), "--viewport", "0,0,90,90",
             "--out", str(tmp_path / "c")],
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(svbs.__file__)))
        fresh = []
        for argv in runs:
            subprocess.run([sys.executable, "-m", "svbs.cli", *argv], env=env, check=True,
                           capture_output=True, timeout=120)
            fresh.append(json.loads((tmp_path / (argv[-1] + ".manifest.json")).read_text()))
        for argv, want in zip(runs, fresh):
            assert main(argv) == EXIT_OK
            got = json.loads((tmp_path / (argv[-1] + ".manifest.json")).read_text())
            assert got["args"] == want["args"]
        assert fresh[1]["args"]["tiles"] == "all"
        capsys.readouterr()


@pytest.fixture
def started_threads(monkeypatch) -> list:
    """Every thread the CLI starts to hash an input, in order."""
    started = []

    class RecordedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr("svbs.cli.Thread", RecordedThread)
    return started


class TestManifestDigests:
    """Each manifest's input digest is the SHA-256 of the file the command read."""

    @pytest.mark.parametrize("threshold", [None, 0], ids=["inline", "on-thread"])
    def test_input_digests_match_the_files(self, tmp_path, capsys, monkeypatch,
                                           started_threads, threshold):
        # Every input here is far under the threshold, so as-is each digest
        # is taken inline; at 0 each input gets one hashing thread.
        if threshold is not None:
            monkeypatch.setattr("svbs.cli.THREAD_HASH_MIN_BYTES", threshold)
        stream_path = tmp_path / "s.svb"
        trace_path = tmp_path / "t.jsonl"
        main(["encode", *SMALL, "--frames", "3", "--out", str(stream_path)])
        write_viewport_trace(trace_path, [(0.0, Viewport.from_degrees(0, 0, 90, 90)),
                                          (400.0, Viewport.from_degrees(120, 0, 90, 90))])
        runs = {
            "decode": (["decode", "--in", str(stream_path), "--frame", "2",
                        "--out", str(tmp_path / "d.yuv")], [stream_path]),
            "rewrite": (["rewrite", "--in", str(stream_path), "--viewport", "0,0,90,90",
                         "--out", str(tmp_path / "r.svb")], [stream_path]),
            "rewrite-trace": (["rewrite", "--in", str(stream_path), "--trace", str(trace_path),
                               "--out", str(tmp_path / "rt.svb")], [stream_path, trace_path]),
            "simulate": (["simulate", *SMALL, "--trace", str(trace_path), "--uplink-ms", "10",
                          "--out", str(tmp_path / "sim")], [trace_path]),
        }
        for argv, inputs in runs.values():
            started_threads.clear()
            assert main(argv) == EXIT_OK
            manifest = json.loads((tmp_path / (argv[-1] + ".manifest.json")).read_text())
            assert manifest["inputs"] == {str(p): sha256(p) for p in inputs}
            assert len(started_threads) == (0 if threshold is None else len(inputs))
            assert not any(thread.is_alive() for thread in started_threads)
        capsys.readouterr()

    def test_simulate_hashes_its_trace_inline(self, tmp_path, capsys, started_threads):
        trace_path = tmp_path / "t.jsonl"
        _golden_trace(trace_path)
        assert main(["simulate", *SMALL, "--trace", str(trace_path),
                     "--out", str(tmp_path / "sim")]) == EXIT_OK
        assert started_threads == []
        capsys.readouterr()

    def test_truncated_stream_hashed_on_a_thread_is_data_error(
            self, tmp_path, capsys, monkeypatch, started_threads):
        monkeypatch.setattr("svbs.cli.THREAD_HASH_MIN_BYTES", 0)
        stream_path = tmp_path / "s.svb"
        main(["encode", *SMALL, "--frames", "3", "--out", str(stream_path)])
        stream_path.write_bytes(stream_path.read_bytes()[:-7])
        capsys.readouterr()
        assert main(["decode", "--in", str(stream_path), "--frame", "2",
                     "--out", str(tmp_path / "d.yuv")]) == EXIT_DATA
        assert len(started_threads) == 1
        started_threads[0].join()  # anything the thread printed is in stderr now
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_trace_is_opened_once(self, tmp_path, capsys, monkeypatch):
        # One read gives both the poses and the digest, so they cannot
        # disagree when the file changes during the command.
        stream_path = tmp_path / "s.svb"
        trace_path = tmp_path / "t.jsonl"
        main(["encode", *SMALL, "--frames", "2", "--out", str(stream_path)])
        write_viewport_trace(trace_path, [(0.0, Viewport.from_degrees(0, 0, 90, 90))])
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        for argv in (["rewrite", "--in", str(stream_path), "--trace", str(trace_path),
                      "--out", str(tmp_path / "r.svb")],
                     ["simulate", *SMALL, "--trace", str(trace_path),
                      "--out", str(tmp_path / "sim")]):
            opened.clear()
            assert main(argv) == EXIT_OK
            assert opened.count(str(trace_path)) == 1
        capsys.readouterr()


class TestSelectTiles:
    def test_equatorial_erp_selection(self, capsys):
        rc = main(
            ["select-tiles", "--viewport", "0,0,90,90", "--projection", "erp"]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "8,9,14,15"

    def test_bad_viewport_string(self, capsys):
        assert main(["select-tiles", "--viewport", "1,2,3"]) == EXIT_DATA
        capsys.readouterr()


class TestSimulateAndReport:
    def test_simulate_writes_reports(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        T = 1000.0 / 30.0
        samples = [(0.0, Viewport.from_degrees(0, 0, 90, 90))]
        for i in range(1, 9):
            samples.append((i * 12 * T, Viewport.from_degrees(120 * (i % 3), 0, 90, 90)))
        write_viewport_trace(trace_path, samples)
        out = tmp_path / "sim"
        rc = main(
            ["simulate", *SMALL, "--trace", str(trace_path), "--scheme", "svc",
             "--scheme", "multitrack(4,0)", "--jobs", "2", "--out", str(out)]
        )
        assert rc == EXIT_OK
        lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        schemes = {entry["scheme"] for entry in lines}
        assert schemes == {"svc", "multitrack(4,0)"}
        svc_entry = next(e for e in lines if e["scheme"] == "svc")
        assert svc_entry["mean_mthq_ms"] == pytest.approx(T, abs=1e-6)
        json_files = sorted(
            p for p in tmp_path.glob("sim.*.json") if "manifest" not in p.name
        )
        csv_files = sorted(tmp_path.glob("sim.*.csv"))
        assert len(json_files) == 2 and len(csv_files) == 2

        rc = main(["report", *[str(p) for p in csv_files]])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert {e["scheme"] for e in summary} == schemes
        for entry in summary:
            assert entry["switches"] == 8
            assert entry["total_bytes"] > 0

    def test_report_refuses_a_csv_given_twice(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        _golden_trace(trace_path)
        assert main(["simulate", *SMALL, "--trace", str(trace_path),
                     "--out", str(tmp_path / "sim")]) == EXIT_OK
        path = tmp_path / "sim.svc.csv"
        (tmp_path / "link.csv").symlink_to(path)
        for other in (path, tmp_path / "." / path.name, tmp_path / "link.csv"):
            capsys.readouterr()
            assert main(["report", str(path), str(other)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("error: report ") and "given twice" in err
            assert "Traceback" not in err
        assert main(["report", str(path)]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_report_of_a_header_only_csv_is_an_empty_list(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\n")
        assert main(["report", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []

    def test_report_keeps_a_scheme_without_switches(self, tmp_path, capsys):
        # A one-pose trace has no switch: the CSV holds second rows only.
        trace_path = tmp_path / "t.jsonl"
        write_viewport_trace(trace_path, [(0.0, Viewport.from_degrees(0, 0, 90, 90))])
        assert main(["simulate", "--width", "96", "--height", "48", "--tile-cols", "6",
                     "--tile-rows", "4", "--gop", "10", "--scheme", "svc",
                     "--trace", str(trace_path), "--out", str(tmp_path / "sim")]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["switches"] == 0
        assert main(["report", str(tmp_path / "sim.svc.csv")]) == EXIT_OK
        [entry] = json.loads(capsys.readouterr().out)
        want = json.loads((tmp_path / "sim.svc.json").read_text())["total_bytes"]
        assert (entry["scheme"], entry["switches"]) == ("svc", 0)
        assert entry["total_bytes"] == want > 0

    def test_trace_ending_far_before_0_is_an_empty_session(self, tmp_path, capsys):
        # However far before tick 0 a trace ends, the session has no ticks.
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text('{"t_ms": -1e300, "yaw_deg": 0, "pitch_deg": 0, '
                              '"h_fov_deg": 90, "v_fov_deg": 90}\n')
        assert main(["simulate", *SMALL, "--trace", str(trace_path), "--scheme", "svc",
                     "--scheme", "multitrack(4,2)", "--out", str(tmp_path / "sim")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["switches"] for line in lines] == [0, 0]
        for stem in ("svc", "multitrack_4_2"):
            assert json.loads((tmp_path / f"sim.{stem}.json").read_text())["total_bytes"] == 0

    @pytest.mark.parametrize("fps", ["65535", "30"])
    def test_trace_ending_far_after_0_is_refused(self, tmp_path, capsys, fps):
        # Below 1 ms per frame the tick count of a trace ending at 1e308 ms
        # overflows a float; at any rate it is refused with a short count.
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text('{"t_ms": 1e308, "yaw_deg": 0, "pitch_deg": 0, '
                              '"h_fov_deg": 90, "v_fov_deg": 90}\n')
        rc = main(["simulate", "--width", "64", "--height", "32", "--tile-cols", "2",
                   "--tile-rows", "2", "--gop", "4", "--fps", fps, "--trace", str(trace_path),
                   "--scheme", "svc", "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            err.strip()]
        assert "exceed the session tick budget" in err and len(err) < 100
        assert "Traceback" not in err

    def test_simulate_builds_no_frame_logs(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("svbs simulate built a FrameLog")

        monkeypatch.setattr("svbs.simulator.FrameLog", refuse)
        trace_path = tmp_path / "t.jsonl"
        _golden_trace(trace_path)
        rc = main(["simulate", *SMALL, "--trace", str(trace_path), "--scheme", "svc",
                   "--scheme", "multitrack(4,2)", "--out", str(tmp_path / "sim")])
        assert rc == EXIT_OK
        capsys.readouterr()

    def test_selects_each_view_once_per_process(self, tmp_path, capsys):
        # Three schemes over a trace among 4 views: the first call selects
        # each view once, an identical second call selects none.  A
        # selection is a miss of the process-wide select_tiles cache.
        select_tiles.cache_clear()
        trace_path = tmp_path / "t.jsonl"
        _golden_trace(trace_path)
        argv = ["simulate", *SMALL, "--trace", str(trace_path), "--scheme", "svc",
                "--scheme", "multitrack(4,0)", "--scheme", "multitrack(4,2)",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_OK
        assert select_tiles.cache_info().misses == 4
        assert main(argv) == EXIT_OK
        assert select_tiles.cache_info().misses == 4
        capsys.readouterr()

    def _simulate(self, tmp_path, capsys, jobs: int, seed: int):
        trace_path = tmp_path / "t.jsonl"
        rng = random.Random(4)
        samples, t = [(0.0, Viewport.from_degrees(0, 0, 90, 90))], 0.0
        for _ in range(40):
            t += rng.uniform(40.0, 600.0)
            samples.append((t, Viewport.from_degrees(rng.uniform(-180, 180), 0, 90, 90)))
        write_viewport_trace(trace_path, samples)
        out = tmp_path / f"jobs{jobs}"
        rc = main(["simulate", *SMALL, "--seed", str(seed), "--trace", str(trace_path),
                   "--uplink-ms", "15", "--downlink-ms", "25", "--bandwidth-bps", "40000",
                   "--scheme", "svc", "--scheme", "multitrack(4,0)",
                   "--scheme", "multitrack(8,2)", "--jobs", str(jobs), "--out", str(out)])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        files = {p.name[len(out.name):]: p.read_bytes()
                 for p in tmp_path.glob(out.name + ".*") if "manifest" not in p.name}
        return stdout, files

    def test_jobs_output_is_byte_identical(self, tmp_path, capsys):
        # A seed no other test uses: the --jobs 2 run builds the size tables
        # and the --jobs 1 run reads them from the cache.  --jobs is ignored.
        pooled = self._simulate(tmp_path, capsys, 2, seed=9173)
        serial = self._simulate(tmp_path, capsys, 1, seed=9173)
        assert len(serial[1]) == 6
        assert pooled == serial

    def test_settings_come_from_flags_alone(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        _golden_trace(trace_path)
        argv = ["simulate", *SMALL, "--trace", str(trace_path), "--out", str(tmp_path / "sim")]
        assert main([*argv, "--net", str(trace_path)]) == EXIT_USAGE
        assert "unrecognized arguments: --net" in capsys.readouterr().err
        assert main(argv) == EXIT_OK
        unset = capsys.readouterr().out
        manifest = json.loads((tmp_path / "sim.manifest.json").read_text())
        assert manifest["inputs"] == {str(trace_path): sha256(trace_path)}
        assert {k: manifest["args"][k] for k in ("uplink_ms", "downlink_ms", "bandwidth_bps")} == {
            "uplink_ms": 0.0, "downlink_ms": 0.0, "bandwidth_bps": None}
        # Unset delays are 0 ms, the unset scheme is svc.
        explicit = ["--uplink-ms", "0", "--downlink-ms", "0", "--scheme", "svc"]
        assert main([*argv, *explicit]) == EXIT_OK
        assert capsys.readouterr().out == unset

    def test_multitrack_runs_where_svc_runs(self, tmp_path, capsys):
        # At 36x18 with 3x3 tiles the base layer is 18x9, which cannot be
        # halved again: the low track must code it as the source's base.
        trace_path = tmp_path / "t.jsonl"
        _golden_trace(trace_path)
        argv = ["simulate", "--width", "36", "--height", "18", "--tile-cols", "3",
                "--tile-rows", "3", "--gop", "6", "--trace", str(trace_path),
                "--out", str(tmp_path / "sim")]
        for scheme in ("svc", "multitrack(6,2)"):
            assert main([*argv, "--scheme", scheme]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

    def test_report_p95_equals_latency_summary(self, tmp_path, capsys):
        stdout, _ = self._simulate(tmp_path, capsys, 1, seed=1)
        simulated = {e["scheme"]: e for e in map(json.loads, stdout.splitlines())}
        assert main(["report", *sorted(str(p) for p in tmp_path.glob("jobs1.*.csv"))]) == EXIT_OK
        reported = json.loads(capsys.readouterr().out)
        assert len({e["p95_mthq_ms"] for e in reported}) > 1
        for entry in reported:
            assert entry["p95_mthq_ms"] == simulated[entry["scheme"]]["p95_mthq_ms"]


class TestGoldenRewrite:
    """SHA-256 of an `svbs rewrite` output at the simulator's reference
    config.  The viewport spans the ERP seam, so the kept tiles are not
    adjacent.  A change to the rewriter or the serializer must keep these
    bytes."""

    def test_rewrite_digest(self, tmp_path, capsys):
        stream_path, out = tmp_path / "s.svb", tmp_path / "r.svb"
        assert main(["encode", "--width", "384", "--height", "192", "--tile-cols", "6",
                     "--tile-rows", "4", "--gop", "10", "--frames", "12", "--seed", "3",
                     "--out", str(stream_path)]) == EXIT_OK
        assert main(["rewrite", "--in", str(stream_path), "--viewport", "170,20,100,90",
                     "--out", str(out)]) == EXIT_OK
        assert "kept tiles [0, 1, 4, 5, 6, 10, 11, 12, 17]" in capsys.readouterr().out
        assert sha256(out) == "626d8e0e42abacec4be4ab16d5ca1ff73c4716a1bc9e2cc8a1a33a2681527514"


def _golden_trace(path) -> None:
    """About 40 switches among 4 views at unaligned times, written as fixed
    JSON text so the digests depend on nothing but the simulator."""
    rng = random.Random(2024)
    views = [(0, 0), (90, 30), (180, 0), (-90, -30)]
    current, t = 0, 0.0
    lines = []
    for i in range(41):
        yaw, pitch = views[current]
        lines.append(json.dumps({"t_ms": t, "yaw_deg": yaw, "pitch_deg": pitch,
                                 "h_fov_deg": 90, "v_fov_deg": 90}))
        t = round(t + rng.uniform(20.0, 900.0), 3)
        current = (current + rng.randrange(1, len(views))) % len(views)
    path.write_text("\n".join(lines) + "\n")


class TestGoldenReports:
    """SHA-256 of every report file `svbs simulate` writes at the simulator's
    reference config (384×192, 6×4 tiles, GOP 10).  The trace leaves some
    multitrack switches NOT_REACHED, and some seconds of multitrack(30,5)
    carry no short track.  A change to the session loop or the report
    writers must keep these bytes."""

    GOLDEN = {
        "delays": {
            "multitrack_10_0.csv":
                "d29d195397b4296f147b7e4bcbd6682f17e91b862b773fe2b035f2d6fc5080c8",
            "multitrack_10_0.json":
                "6aed134133f3c951ecf1d53e31f81ae4128a02d5ded5e1eeab3e7b937bdc6d54",
            "multitrack_30_5.csv":
                "50ce99af043b90dc021349aac88ed04cab1009dd5f90749fd3f8a597c4b642e7",
            "multitrack_30_5.json":
                "06795edb6b36d99cc64313eb70001781659b998170af8419f93867c8aaa78989",
            "svc.csv":
                "58204b8c38532764fc1a3a492f72fcfdbc5478731981d860261f6aa04e8684b2",
            "svc.json":
                "beb54efa6da66c6ec2f8ac3b86d3905be95925a5eda8c0eff217cab858287a0a",
        },
        "bandwidth": {
            "multitrack_10_0.csv":
                "c6235a2bbd3fa072a0384607c770076bcee3f7732b7e2e713d3320faba2a15c9",
            "multitrack_10_0.json":
                "c73fb43488136fda4726a1102ebec6bf5710b4c47572f05355c5f6dd656f90b5",
            "multitrack_30_5.csv":
                "f8fc8b8a03f569e71fac2748d08686055a85915da704de00e37f2f8095397ebf",
            "multitrack_30_5.json":
                "cc61a0655997d66cdb27f76a31779b360c70c3488ef5802581bd1b470daf4aee",
            "svc.csv":
                "1538f001dc7045f829d8bc1fd75e39f5b24c6a574890bb96f0676f61ce4a2bca",
            "svc.json":
                "1c977bcd42cb1c02f5de5b06b109fd967d5d7b4004ed14ba04f6ad5c3a113e60",
        },
    }

    @pytest.mark.parametrize(
        "case, net",
        [("delays", ["--uplink-ms", "20", "--downlink-ms", "35"]),
         ("bandwidth", ["--uplink-ms", "10", "--downlink-ms", "15",
                        "--bandwidth-bps", "200000"])],
        ids=["delays", "bandwidth"],
    )
    def test_report_digests(self, tmp_path, capsys, case, net):
        trace_path = tmp_path / "t.jsonl"
        _golden_trace(trace_path)
        out = tmp_path / "sim"
        rc = main(["simulate", "--width", "384", "--height", "192", "--tile-cols", "6",
                   "--tile-rows", "4", "--gop", "10", "--seed", "5",
                   "--trace", str(trace_path), *net, "--scheme", "svc",
                   "--scheme", "multitrack(10,0)", "--scheme", "multitrack(30,5)",
                   "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        got = {p.name[len("sim."):]: sha256(p)
               for p in sorted(tmp_path.glob("sim.*")) if "manifest" not in p.name}
        assert got == self.GOLDEN[case]
