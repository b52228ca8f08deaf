"""In-memory span tracer that wraps svbs functions at their call sites.

Each wrapped function is replaced in the module namespace where its caller
looks it up (``svbs.cli.decode_frame``, ``svbs.codec.rle_decompress``, ...),
so calls made inside the package are traced without editing it.  A span
records its name, start, end, parent span and request id; spans stay in a
list until the run ends.  Calls made outside a request (the output checks)
are not recorded.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from svbs.container import serialized_frame_size

# (module, attribute, span name).  The span's layer is the prefix of its name.
TRACE_POINTS = [
    ("geometry", "select_tiles", "geometry.select_tiles"),
    ("cli", "select_tiles", "geometry.select_tiles"),
    ("simulator", "select_tiles", "geometry.select_tiles"),
    ("cli", "read_viewport_trace", "geometry.read_viewport_trace"),
    ("rewriter", "rewrite_viewport_frame", "rewriter.rewrite_viewport_frame"),
    ("cli", "rewrite_viewport_frame", "rewriter.rewrite_viewport_frame"),
    ("container", "serialize_frame", "container.serialize_frame"),
    ("container", "serialize", "container.serialize"),
    ("cli", "serialize", "container.serialize"),
    ("container", "parse", "container.parse"),
    ("cli", "parse", "container.parse"),
    ("container", "validate_structure", "container.validate_structure"),
    ("codec", "validate_structure", "container.validate_structure"),
    ("cli", "validate_structure", "container.validate_structure"),
    ("cli", "generate_content", "codec.generate_content"),
    ("simulator", "generate_content", "codec.generate_content"),
    ("cli", "encode_svc", "codec.encode_svc"),
    ("simulator", "encode_svc", "codec.encode_svc"),
    ("cli", "encode_track", "codec.encode_track"),
    ("simulator", "encode_track", "codec.encode_track"),
    ("simulator", "rate_records", "codec.rate_records"),
    ("cli", "decode_frame", "codec.decode_frame"),
    ("codec", "rle_compress", "codec.rle_compress"),
    ("codec", "rle_decompress", "codec.rle_decompress"),
    ("cli", "run_session", "simulator.run_session"),
    ("cli", "latency_summary", "simulator.latency_summary"),
    ("cli", "write_report_json", "simulator.write_report_json"),
    ("cli", "write_report_csv", "simulator.write_report_csv"),
    ("cli", "main", "cli.main"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs", "child_ns")

    def __init__(self, name, parent, request):
        self.name = name
        self.start = 0
        self.end = 0
        self.parent = parent
        self.request = request
        self.attrs = None
        self.child_ns = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur - self.child_ns


def _cli_attrs(args, result):
    argv = list(args[0])
    read = 0
    for flag in ("--in", "--trace", "--net"):
        if flag in argv:
            read += os.path.getsize(argv[argv.index(flag) + 1])
    return {"command": argv[0], "input_bytes": read, "rc": result}


def _select_attrs(args, result):
    return {"key": (args[0], args[1].kind.value), "projection": args[1].kind.value,
            "tiles": len(result)}


def _rewrite_attrs(args, result):
    return {"forwarded": len(args[1]), "grid": args[2].tile_count,
            "bytes": serialized_frame_size(result)}


def _decode_attrs(args, result):
    gop = args[0].config.gop_size
    return {"gop_pos": args[1] % gop, "gop": gop}


# Attributes read from a call's arguments and result, after its span closed.
ATTRS = {
    "cli.main": _cli_attrs,
    "geometry.select_tiles": _select_attrs,
    "rewriter.rewrite_viewport_frame": _rewrite_attrs,
    "codec.decode_frame": _decode_attrs,
    "container.parse": lambda a, r: {"bytes": len(a[0])},
    "container.serialize": lambda a, r: {"bytes": len(r)},
    "codec.rle_compress": lambda a, r: {"bytes": len(a[0])},
    "codec.rle_decompress": lambda a, r: {"bytes": len(r)},
    "simulator.run_session": lambda a, r: {"poses": len(a[1])},
}


class Tracer:
    """Owns the recorded spans and the patched module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.requests: list[tuple[int, str]] = []  # (root span index, kind)
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, parent, parent.request)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                parent.child_ns += span.end - span.start
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            return result

        return traced

    def install(self, svbs_modules: dict) -> None:
        for module_name, attr, span_name in TRACE_POINTS:
            module = svbs_modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; layer spans opened inside nest under it."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        span = Span("bench." + kind, None, len(self.requests))
        self.requests.append((len(self.spans), kind))
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def self_time_mismatches(self) -> int:
        """Requests whose span self times do not sum to the root's duration."""
        totals: dict[int, int] = {}
        for span in self.spans:
            totals[span.request] = totals.get(span.request, 0) + span.self_ns
        roots = [self.spans[i] for i, _ in self.requests]
        return sum(1 for root in roots if totals.get(root.request, 0) != root.dur)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                attrs = {k: v for k, v in (span.attrs or {}).items() if k != "key"}
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start_ns": span.start, "end_ns": span.end,
                    "parent": index[id(span.parent)] if span.parent is not None else None,
                    "request": span.request, "attrs": attrs,
                }) + "\n")
