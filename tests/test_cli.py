"""Command-line interface: exit codes, pipelines, manifests."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import svbs

from svbs.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from svbs.codec import encode_svc, generate_content
from svbs.config import SequenceConfig
from svbs.container import Frame, serialize_frame, serialize_sequence_header
from svbs.geometry import Viewport, write_viewport_trace

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
        frames = (Frame(layers=stream.frames[0].layers, delimiter_count=2), stream.frames[1])
        path = tmp_path / "bad.svb"
        path.write_bytes(serialize_sequence_header(config)
                         + b"".join(map(serialize_frame, frames)))
        assert main(["validate", "--in", str(path)]) == EXIT_DATA
        assert "R_TEMPORAL_DELIM" in capsys.readouterr().out

    def test_corrupt_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "junk.svb"
        path.write_bytes(b"not a stream at all")
        assert main(["validate", "--in", str(path)]) == EXIT_DATA
        assert main(["decode", "--in", str(path), "--out", str(tmp_path / "x")]) == EXIT_DATA
        capsys.readouterr()

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


# Input files the malformed-argument cases name as {dir}/<name>.
MALFORMED_INPUTS = {
    "trace.jsonl": b'{"t_ms": 0, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n',
    "gop.net": b"scheme=multitrack\nlong_gop=abc\n",
    "uplink.net": b"uplink_ms=nan\n",
    "latin1.net": b"scheme=svc\n# caf\xe9\n",
    "unknown.net": b"scheme=svc\nuplink=50\n",
    "mtp.csv": b"row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\nswitch,svc,0,abc,1,,,\n",
    "noscheme.csv": b"row,t_ms,mtp_ms,mthq_ms,second,stream,bytes\nswitch,0,1,1,,,\n",
    "binary.csv": b"\x89PNG\r\n\x1a\n\xff\xfe\x00",
    "empty.csv": b"",
    "bogus.csv": b"row,scheme,t_ms,mtp_ms,mthq_ms,second,stream,bytes\nbogus,svc,,,,,,\n",
    "far.jsonl": b'{"t_ms": 0, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n'
                 b'{"t_ms": 1e13, "yaw_deg": 9, "pitch_deg": 0, "h_fov_deg": 90, "v_fov_deg": 90}\n',
}
SIMULATE = ["simulate", *SMALL, "--trace", "{dir}/trace.jsonl", "--out", "{out}"]


class TestMalformedArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["select-tiles", "--viewport", "a,b,c,d"], "--viewport wants"),
            (["rewrite", "--in", "{stream}", "--out", "{out}"], "needs --viewport or --trace"),
            (["decode", "--in", "{stream}", "--tiles", "a", "--out", "{out}"], "--tiles wants"),
            (["decode", "--in", "{stream}", "--tiles", "0,", "--out", "{out}"], "--tiles wants"),
            (["decode", "--in", "{stream}", "--tiles", "99", "--out", "{out}"],
             "--tiles 99 outside the 4-tile grid"),
            (["decode", "--in", "{stream}", "--tiles", "1,-1", "--out", "{out}"],
             "--tiles -1 outside"),
            (["select-tiles", "--fps", "abc", "--viewport", "0,0,90,90"], "--fps wants"),
            (["select-tiles", "--viewport", "nan,0,90,90"], "yaw must be finite"),
            ([*SIMULATE, "--net", "{dir}/gop.net"], "long_gop wants int, not 'abc'"),
            ([*SIMULATE, "--net", "{dir}/uplink.net"], "delays must be nonnegative and finite"),
            ([*SIMULATE, "--uplink-ms", "nan"], "delays must be nonnegative and finite"),
            ([*SIMULATE, "--bandwidth-bps", "nan"], "bandwidth must be positive and finite"),
            ([*SIMULATE, "--bandwidth-bps", "1e-305"], "display times overflow a float"),
            ([*SIMULATE, "--net", "{dir}/latin1.net"], "latin1.net line 2 is not UTF-8 text"),
            ([*SIMULATE, "--net", "{dir}/unknown.net"],
             "unknown.net line 2: unknown key 'uplink'"),
            ([*SIMULATE, "--scheme", "multitrack(a)"], "LONG and SHORT must be integers"),
            (["report", "{dir}/mtp.csv"], "mtp.csv line 2: could not convert"),
            (["report", "{dir}/noscheme.csv"], "noscheme.csv has no 'scheme' column"),
            (["report", "{dir}/binary.csv"], "binary.csv is not UTF-8 text"),
            ([*SIMULATE, "--scheme", "multitrack(30,5,1)"], "unknown scheme 'multitrack(30,5,1)'"),
            ([*SIMULATE, "--scheme", "multitrack(30"], "unknown scheme 'multitrack(30'"),
            (["report", "{dir}/empty.csv"], "empty.csv is empty"),
            (["report", "{dir}/bogus.csv"],
             "bogus.csv line 2: row kind 'bogus' is neither switch nor second"),
            (["generate", *SMALL, "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
            (["encode", *SMALL, "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
            ([*SIMULATE, "--seed", "-1"], "seed must be >= 0"),
            (["generate", *SMALL, "--frames", "100000000", "--out", "{out}"],
             "exceed the content pixel budget"),
            ([*SIMULATE, "--scheme", "multitrack(1000,999)"], "exceed the content pixel budget"),
            ([*SIMULATE, "--scheme", "multitrack(70000)"], "a GOP exceeds the u16 wire range"),
            ([*SIMULATE, "--scheme", "multitrack(99999999999)"], "a GOP exceeds the u16"),
            ([*SIMULATE, "--trace", "{dir}/far.jsonl"], "exceed the session tick budget"),
        ],
        ids=["viewport-not-numbers", "rewrite-without-pose", "tiles-not-numbers",
             "tiles-empty-entry", "tile-outside-grid", "negative-tile", "fps-not-a-number",
             "yaw-not-finite", "net-gop-not-a-number", "net-uplink-nan", "uplink-nan",
             "bandwidth-nan", "bandwidth-overflows", "net-not-utf8", "net-unknown-key",
             "scheme-gop-not-a-number", "report-mtp-not-a-number",
             "report-without-scheme", "report-binary", "scheme-three-gops",
             "scheme-unclosed", "report-empty", "report-unknown-row-kind",
             "generate-negative-seed", "encode-negative-seed", "simulate-negative-seed",
             "generate-over-pixel-budget", "scheme-cycle-over-pixel-budget",
             "scheme-gop-over-u16", "scheme-gop-huge", "trace-over-tick-budget"],
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
        assert "Traceback" not in err
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


class TestManifestDigests:
    """Each manifest's input digest is the SHA-256 of the file the command read."""

    def test_input_digests_match_the_files(self, tmp_path, capsys):
        stream_path = tmp_path / "s.svb"
        trace_path = tmp_path / "t.jsonl"
        net_path = tmp_path / "net.conf"
        main(["encode", *SMALL, "--frames", "3", "--out", str(stream_path)])
        write_viewport_trace(trace_path, [(0.0, Viewport.from_degrees(0, 0, 90, 90)),
                                          (400.0, Viewport.from_degrees(120, 0, 90, 90))])
        net_path.write_text("scheme = svc\nuplink_ms = 10\n")
        runs = {
            "decode": (["decode", "--in", str(stream_path), "--frame", "2",
                        "--out", str(tmp_path / "d.yuv")], [stream_path]),
            "rewrite": (["rewrite", "--in", str(stream_path), "--viewport", "0,0,90,90",
                         "--out", str(tmp_path / "r.svb")], [stream_path]),
            "simulate": (["simulate", *SMALL, "--trace", str(trace_path), "--net",
                          str(net_path), "--out", str(tmp_path / "sim")],
                         [trace_path, net_path]),
        }
        for argv, inputs in runs.values():
            assert main(argv) == EXIT_OK
            manifest = json.loads((tmp_path / (argv[-1] + ".manifest.json")).read_text())
            assert manifest["inputs"] == {str(p): sha256(p) for p in inputs}
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

    def test_report_p95_equals_latency_summary(self, tmp_path, capsys):
        stdout, _ = self._simulate(tmp_path, capsys, 1, seed=1)
        simulated = {e["scheme"]: e for e in map(json.loads, stdout.splitlines())}
        assert main(["report", *sorted(str(p) for p in tmp_path.glob("jobs1.*.csv"))]) == EXIT_OK
        reported = json.loads(capsys.readouterr().out)
        assert len({e["p95_mthq_ms"] for e in reported}) > 1
        for entry in reported:
            assert entry["p95_mthq_ms"] == simulated[entry["scheme"]]["p95_mthq_ms"]


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
                "200868852b6d15d983f6c42fdd9a2ed72309e7e7704f3ee03f51d89f887ab343",
            "multitrack_30_5.csv":
                "50ce99af043b90dc021349aac88ed04cab1009dd5f90749fd3f8a597c4b642e7",
            "multitrack_30_5.json":
                "b695c7e357689e28e901f3f46f775b69ebfedbd4a608d9991cfb92b3f14df0f8",
            "svc.csv":
                "58204b8c38532764fc1a3a492f72fcfdbc5478731981d860261f6aa04e8684b2",
            "svc.json":
                "d5a7bc8bf061a7f5b2e00e2caadfcbcf10e10a9ad1b873ef84b4f192196aa52e",
        },
        "bandwidth": {
            "multitrack_10_0.csv":
                "c6235a2bbd3fa072a0384607c770076bcee3f7732b7e2e713d3320faba2a15c9",
            "multitrack_10_0.json":
                "0fd0c5e11fe3bdde64c28b63e8030c0de7340dde25f17fdda8365914f84e9e79",
            "multitrack_30_5.csv":
                "f8fc8b8a03f569e71fac2748d08686055a85915da704de00e37f2f8095397ebf",
            "multitrack_30_5.json":
                "51bb183b4538d463a0598c66ba4d95f6a233b87da388fb838303d71f8957ea98",
            "svc.csv":
                "1538f001dc7045f829d8bc1fd75e39f5b24c6a574890bb96f0676f61ce4a2bca",
            "svc.json":
                "46457da2a0d26b4fc286a2db52df088f7d62c974dc066d66056f7fd3b5ca0553",
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
