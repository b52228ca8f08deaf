"""Per-layer metrics from a traced run.

``per_layer`` returns the metrics listed in BENCHMARK.json: the ones every
workload exercises as times, plus counts and ratios for all six layers.
``detail`` adds the times of layers only some workloads use (rewriter,
simulator, decode, per-projection geometry, per-command cli); they are
printed and written to the trace summary.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import quantile

LAYERS = ("cli", "codec", "container", "geometry", "rewriter", "simulator")


class SpanIndex:
    def __init__(self, spans):
        self.by_name = defaultdict(list)
        self.self_ns = defaultdict(int)
        for span in spans:
            self.by_name[span.name].append(span)
            self.self_ns[span.layer] += span.self_ns

    def __getitem__(self, name: str) -> list:
        return self.by_name[name]

    def self_ms(self, layer: str) -> float:
        return self.self_ns[layer] / 1e6


def _ms(spans, q: float = 0.5) -> float:
    """Quantile of span durations in ms; 0 when there are no spans."""
    return quantile([s.dur for s in spans], q) / 1e6 if spans else 0.0


def _total_ms(spans) -> float:
    return sum(s.dur for s in spans) / 1e6


def _attr_sum(spans, key: str) -> int:
    return sum(s.attrs[key] for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _select_stats(spans) -> dict:
    return {
        "ms_p50": (_ms(spans), "ms"),
        "ms_p95": (_ms(spans, 0.95), "ms"),
        "calls": (len(spans), "count"),
        "distinct_ratio": (_ratio(len({s.attrs["key"] for s in spans}), len(spans)), "ratio"),
        "tiles_mean": (_ratio(_attr_sum(spans, "tiles"), len(spans)), "count"),
    }


def per_layer(ix: SpanIndex, n_spans: int, overhead_ratio: float) -> dict:
    decodes = len(ix["codec.decode_frame"])
    validate_in_decode = sum(1 for s in ix["container.validate_structure"]
                             if s.parent.name == "codec.decode_frame")
    parse_ms = _total_ms(ix["container.parse"])
    rewrites = ix["rewriter.rewrite_viewport_frame"]
    sessions = ix["simulator.run_session"]
    select_in_session = sum(1 for s in ix["geometry.select_tiles"]
                            if s.parent.name == "simulator.run_session")
    m = {
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.spans": (n_spans, "count"),
        "bench.self_ms": (ix.self_ms("bench"), "ms"),
        "cli.self_ms": (ix.self_ms("cli"), "ms"),
        "cli.main.calls": (len(ix["cli.main"]), "count"),
        "cli.input_bytes_read": (_attr_sum(ix["cli.main"], "input_bytes"), "bytes"),
        "codec.self_ms": (ix.self_ms("codec"), "ms"),
        "codec.generate_content.ms": (_ms(ix["codec.generate_content"]), "ms"),
        "codec.encode_svc.ms": (_ms(ix["codec.encode_svc"]), "ms"),
        "codec.rle_compress.total_ms": (_total_ms(ix["codec.rle_compress"]), "ms"),
        "codec.rle_compress.calls": (len(ix["codec.rle_compress"]), "count"),
        "codec.rle_compress.bytes": (_attr_sum(ix["codec.rle_compress"], "bytes"), "bytes"),
        "codec.encode_track.calls": (len(ix["codec.encode_track"]), "count"),
        "codec.rate_records.calls": (len(ix["codec.rate_records"]), "count"),
        "codec.decode_frame.calls": (decodes, "count"),
        "codec.rle_decompress.calls": (len(ix["codec.rle_decompress"]), "count"),
        "codec.rle_decompress.bytes": (_attr_sum(ix["codec.rle_decompress"], "bytes"), "bytes"),
        "container.self_ms": (ix.self_ms("container"), "ms"),
        "container.parse.ms": (_ms(ix["container.parse"]), "ms"),
        "container.parse.mb_per_s": (
            _ratio(_attr_sum(ix["container.parse"], "bytes") / 1e6, parse_ms / 1e3), "MB/s"),
        "container.serialize.ms": (_ms(ix["container.serialize"]), "ms"),
        "container.serialize.bytes": (_attr_sum(ix["container.serialize"], "bytes"), "bytes"),
        "container.serialize_frame.ms": (_ms(ix["container.serialize_frame"]), "ms"),
        "container.validate_structure.ms": (_ms(ix["container.validate_structure"]), "ms"),
        "container.validate_structure.calls": (len(ix["container.validate_structure"]), "count"),
        "container.validate_structure.calls_per_decode": (
            _ratio(validate_in_decode, decodes), "ratio"),
        "geometry.self_ms": (ix.self_ms("geometry"), "ms"),
        "geometry.select_tiles.cubemap.calls": (
            sum(1 for s in ix["geometry.select_tiles"]
                if s.attrs["projection"] == "cubemap"), "count"),
        "rewriter.rewrite_viewport_frame.calls": (len(rewrites), "count"),
        "rewriter.forwarded_ratio": (
            _ratio(_attr_sum(rewrites, "forwarded"), _attr_sum(rewrites, "grid")),
            "ratio"),
        "rewriter.bytes_per_frame": (
            _ratio(_attr_sum(rewrites, "bytes"), len(rewrites)), "bytes"),
        "simulator.run_session.calls": (len(sessions), "count"),
        "simulator.select_calls_per_pose": (
            _ratio(select_in_session, _attr_sum(sessions, "poses")), "ratio"),
    }
    for key, value in _select_stats(ix["geometry.select_tiles"]).items():
        m[f"geometry.select_tiles.{key}"] = value
    return m


def detail(ix: SpanIndex) -> dict:
    """Times of the layers only some workloads use, and per-layer self time;
    entries that read 0 are left out."""
    d = {f"{layer}.self_ms": (ix.self_ms(layer), "ms") for layer in LAYERS}
    selects = ix["geometry.select_tiles"]
    for projection in sorted({s.attrs["projection"] for s in selects}):
        per = [s for s in selects if s.attrs["projection"] == projection]
        for key, value in _select_stats(per).items():
            d[f"geometry.select_tiles.{projection}.{key}"] = value
    d["rewriter.rewrite_viewport_frame.ms"] = (_ms(ix["rewriter.rewrite_viewport_frame"]), "ms")
    for name in ("codec.encode_track", "codec.rate_records", "codec.rle_decompress"):
        d[f"{name}.ms"] = (_ms(ix[name]), "ms")
    decodes = ix["codec.decode_frame"]
    d["codec.decode_frame.ms_p50"] = (_ms(decodes), "ms")
    d["codec.decode_frame.gop_first_ms"] = (
        _ms([s for s in decodes if s.attrs["gop_pos"] == 0]), "ms")
    d["codec.decode_frame.gop_last_ms"] = (
        _ms([s for s in decodes if s.attrs["gop_pos"] == s.attrs["gop"] - 1]), "ms")
    d["codec.rle_decompress.total_ms"] = (_total_ms(ix["codec.rle_decompress"]), "ms")
    sessions = ix["simulator.run_session"]
    d["simulator.run_session.ms"] = (_ms(sessions), "ms")
    if sessions:
        d["simulator.run_session.self_ms"] = (
            quantile([s.self_ns for s in sessions], 0.5) / 1e6, "ms")
        children = defaultdict(int)
        for name, spans in ix.by_name.items():
            if name.startswith("codec."):
                for s in spans:
                    if s.parent.name == "simulator.run_session":
                        children[s.parent] += s.dur
        d["simulator.size_tables_ms"] = (
            quantile([children[s] for s in sessions], 0.5) / 1e6, "ms")
    mains = ix["cli.main"]
    for command in sorted({s.attrs["command"] for s in mains}):
        per = [s for s in mains if s.attrs["command"] == command]
        d[f"cli.{command}.self_ms"] = (quantile([s.self_ns for s in per], 0.5) / 1e6, "ms")
        d[f"cli.{command}.calls"] = (len(per), "count")
    return {k: v for k, v in d.items() if v[0]}
