"""Mock layered tiled codec over procedurally generated 8-bit luma video.

The encoder realizes the two-layer structure: a downscaled base layer with
conventional KEY/INTER delta coding, and an enhanced layer whose tiles are
residuals against the nearest-neighbor-upscaled base layer only, never
against other enhanced frames.  Residuals are stored as mod-256 difference
bytes and run-length coded, so payload sizes respond to content while
reconstruction stays bit-exact.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Container, Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import SequenceConfig
from .container import (
    Bitstream,
    Frame,
    FrameHeader,
    FrameType,
    LayerFrame,
    LayerId,
    Tile,
    TileGroup,
    TileKind,
    validate_structure,
)
from .errors import (
    BadConfigError,
    BadDimensionsError,
    CorruptRleError,
    InvalidStructureError,
    MissingBaseError,
    TooLargeError,
)

# Zero runs shorter than this are cheaper as literals.
MIN_ZERO_RUN = 6

# Samples one generated content may hold, 1 GiB: frames times frame pixels.
CONTENT_PIXEL_BUDGET = 1 << 30

# Tiles one encode may hold, frames times tiles per frame: 1 GiB at 256 B a tile.
ENCODED_TILE_BUDGET = 1 << 22

_RUN_ZERO = 0
_RUN_LITERAL = 1
_RECORD = struct.Struct("<BI")  # run_type u8, length u32

_BASE, _ENHANCED = LayerId
_KEY, _INTER = FrameType
_CODED = TileKind.CODED


@dataclass(eq=False)
class RasterFrame:
    """One 8-bit luma frame, row-major; its size is its samples' shape."""

    samples: np.ndarray  # shape (height, width), dtype uint8

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.uint8)
        if self.samples.ndim != 2:
            raise BadDimensionsError(f"samples shape {self.samples.shape} is not 2-D")

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RasterFrame):
            return NotImplemented
        return np.array_equal(self.samples, other.samples)

    def tobytes(self) -> bytes:
        return self.samples.tobytes()


@dataclass(frozen=True)
class VideoSource:
    config: SequenceConfig
    frames: tuple[RasterFrame, ...]


# --- content generation ------------------------------------------------------


def generate_content(seed: int, config: SequenceConfig, frame_count: int) -> VideoSource:
    """Deterministic synthetic video: textured background plus drifting blobs.

    The background carries pixel-level detail that box downsampling loses,
    while frame-to-frame change is confined to a few slowly moving compact
    blobs.  That makes INTER frames much cheaper than KEY frames and the
    enhanced layer genuinely informative over the upscaled base.
    """
    if frame_count < 1:
        raise BadConfigError("frame_count must be >= 1")
    if seed < 0:
        raise BadConfigError(f"seed must be >= 0, not {seed}")
    w, h = config.width, config.height
    if frame_count * w * h > CONTENT_PIXEL_BUDGET:
        raise TooLargeError(f"{frame_count} frames of {w}x{h} exceed the content pixel "
                            f"budget {CONTENT_PIXEL_BUDGET}")
    rng = np.random.default_rng(seed)

    # A row of x against a column of y: the same float operations, element
    # for element, as over a full (h, w) grid.
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)[:, None]
    background = np.full((h, w), 128.0)
    for _ in range(5):
        amp = rng.uniform(6.0, 14.0)
        fx = rng.uniform(1.0, 9.0)
        fy = rng.uniform(1.0, 9.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        background += amp * np.sin(2 * np.pi * (fx * xs / w + fy * ys / h) + phase)
    # Static pixel-level detail: survives temporal deltas, lost by downsampling.
    background += rng.uniform(-10.0, 10.0, size=(h, w))

    n_blobs = 4
    blob_amp = rng.uniform(40.0, 70.0, size=n_blobs)
    blob_r = rng.uniform(0.08, 0.16, size=n_blobs) * min(w, h)
    blob_x0 = rng.uniform(0, w, size=n_blobs)
    blob_y0 = rng.uniform(0, h, size=n_blobs)
    blob_vx = rng.uniform(-2.0, 2.0, size=n_blobs)
    blob_vy = rng.uniform(-1.5, 1.5, size=n_blobs)

    # The bump is exactly 0 beyond the radius, so only the pixels within it
    # (plus a pixel of slack) change: each frame adds its blobs into ``img``
    # over their windows, rounds only those windows into a copy of the
    # rounded background, then puts the background back under them.  Each
    # pixel gets the float operations of a full-grid evaluation in the same
    # order, so it keeps its value bit for bit.
    rounded = np.clip(np.rint(background), 0, 255).astype(np.uint8)
    img = background.copy()
    frames = []
    for t in range(frame_count):
        windows = []
        for j in range(n_blobs):
            cx = (blob_x0[j] + blob_vx[j] * t) % w
            cy = (blob_y0[j] + blob_vy[j] * t) % h
            for rs in _wrapped_runs(cy, blob_r[j], h):
                # Wrap-aware distance so blobs drift seamlessly across edges.
                dy = np.minimum(np.abs(ys[rs] - cy), h - np.abs(ys[rs] - cy))
                for cs in _wrapped_runs(cx, blob_r[j], w):
                    dx = np.minimum(np.abs(xs[cs] - cx), w - np.abs(xs[cs] - cx))
                    r2 = (dx * dx + dy * dy) / (blob_r[j] * blob_r[j])
                    bump = np.maximum(0.0, 1.0 - r2)
                    img[rs, cs] += blob_amp[j] * bump * bump
                    windows.append((rs, cs))
        samples = rounded.copy()
        for win in windows:
            samples[win] = np.clip(np.rint(img[win]), 0, 255).astype(np.uint8)
        for win in windows:
            img[win] = background[win]
        frames.append(RasterFrame(samples))
    return VideoSource(config=config, frames=tuple(frames))


def _wrapped_runs(center: float, radius: float, size: int) -> list[slice]:
    """The distinct pixels within ``radius`` + 1 of ``center`` on an axis of
    ``size`` pixels that wraps around, as one slice, or two where the window
    wraps."""
    lo = math.floor(center - radius) - 1
    n = math.ceil(center + radius) + 2 - lo
    if n >= size:
        return [slice(0, size)]
    lo %= size
    if lo + n <= size:
        return [slice(lo, lo + n)]
    return [slice(lo, size), slice(0, lo + n - size)]


# --- resampling --------------------------------------------------------------


def downsample(frame: RasterFrame, factor: int) -> RasterFrame:
    """Box filter: mean of each factor x factor block, rounded half-up."""
    if factor < 1:
        raise BadDimensionsError("factor must be >= 1")
    if frame.width % factor or frame.height % factor:
        raise BadDimensionsError(
            f"{frame.width}x{frame.height} not divisible by factor {factor}"
        )
    if factor == 1:
        return RasterFrame(frame.samples.copy())
    # Rows of each block first, so the column pass reads half the data.
    samples = frame.samples
    rows = samples[::factor].astype(np.uint32)
    for dy in range(1, factor):
        rows += samples[dy::factor]
    sums = rows[:, ::factor].copy()
    for dx in range(1, factor):
        sums += rows[:, dx::factor]
    f2 = factor * factor
    out = ((2 * sums + f2) // (2 * f2)).astype(np.uint8)
    return RasterFrame(out)


def upsample_nearest(frame: RasterFrame, factor: int) -> RasterFrame:
    """Replicate each source pixel factor x factor."""
    if factor < 1:
        raise BadDimensionsError("factor must be >= 1")
    # Columns first, so the row pass copies whole widened rows.
    out = np.repeat(np.repeat(frame.samples, factor, axis=1), factor, axis=0)
    return RasterFrame(out)


# --- run-length coding -------------------------------------------------------


def rle_compress(data: bytes) -> bytes:
    """Repeated records: run_type u8 (0=zero run, 1=literal), length u32,
    then literal bytes for type 1.  Zero runs shorter than MIN_ZERO_RUN are
    folded into literals."""
    data = bytes(data)
    if bytes(MIN_ZERO_RUN) not in data:  # no long zero run: one literal record, if any
        return _RECORD.pack(_RUN_LITERAL, len(data)) + data if data else b""
    arr = np.frombuffer(data, dtype=np.uint8)
    n = arr.size
    # A zero run starts and ends where the padded zero mask flips: starts
    # are the even flips, ends the odd ones.
    padded = np.concatenate(([False], arr == 0, [False]))
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = flips[0::2], flips[1::2]
    long_runs = ends - starts >= MIN_ZERO_RUN

    out = []
    lit_start = 0
    for s, e in zip(starts[long_runs].tolist(), ends[long_runs].tolist()):
        if s > lit_start:
            out.append(_RECORD.pack(_RUN_LITERAL, s - lit_start))
            out.append(arr[lit_start:s].tobytes())
        out.append(_RECORD.pack(_RUN_ZERO, e - s))
        lit_start = e
    if lit_start < n:
        out.append(_RECORD.pack(_RUN_LITERAL, n - lit_start))
        out.append(arr[lit_start:].tobytes())
    return b"".join(out)


def rle_decompress(data: bytes, size: int) -> bytes:
    """Inverse of rle_compress for an output of exactly ``size`` bytes.

    Run lengths come from the wire, so a run that would pass ``size`` raises
    CorruptRleError before it is allocated, as does output that falls short.
    """
    out = []
    pos = 0
    written = 0
    n = len(data)
    while pos < n:
        if n - pos < 5:
            raise CorruptRleError(f"truncated record header at offset {pos}")
        run_type, length = _RECORD.unpack_from(data, pos)
        written += length
        if written > size:
            raise CorruptRleError(
                f"run of {length} at offset {pos} overruns the {size}-byte output"
            )
        pos += 5
        if run_type == _RUN_ZERO:
            out.append(b"\x00" * length)
        elif run_type == _RUN_LITERAL:
            if n - pos < length:
                raise CorruptRleError(f"literal run of {length} overruns input at offset {pos}")
            out.append(data[pos : pos + length])
            pos += length
        else:
            raise CorruptRleError(f"unknown run type {run_type} at offset {pos - 5}")
    if written != size:
        raise CorruptRleError(f"decoded {written} bytes, expected {size}")
    return b"".join(out)


# --- tiled delta coding ------------------------------------------------------


def _tile_groups(
    cur: np.ndarray, ref: np.ndarray | None, regions: list[tuple[slice, slice]]
) -> tuple[TileGroup, ...]:
    """One single-tile CODED group per region of the plane ``cur`` (see
    ``SequenceConfig.layer_regions``), in raster order.  A tile codes its
    samples, or with a ``ref`` plane their mod-256 difference from it (uint8
    arithmetic wraps)."""
    groups = []
    for t, (rs, cs) in enumerate(regions):
        data = cur[rs, cs] if ref is None else cur[rs, cs] - ref[rs, cs]
        payload = rle_compress(data.tobytes())
        tile = Tile(t, _CODED, coded_payload=payload)
        groups.append(TileGroup(tg_start=t, tg_end=t, tiles=(tile,)))
    return tuple(groups)


def _decode_tiles(
    out: np.ndarray, ref: np.ndarray | None, layer: LayerFrame,
    regions: list[tuple[slice, slice]], received: Container[int],
) -> np.ndarray:
    """The inverse of :func:`_tile_groups`: write each CODED tile of ``layer``
    whose index is in ``received`` into its region of the plane ``out``, as
    its samples, or with a ``ref`` plane their mod-256 sum with it; return
    ``out``.  ``ref`` may be ``out`` itself: tiles are disjoint, so a tile's
    region still holds the reference until that tile is written."""
    for group in layer.tile_groups:
        for tile in group.tiles:
            if tile.tile_kind == _CODED and tile.tile_index in received:
                rs, cs = regions[tile.tile_index]
                view = out[rs, cs]
                raw = rle_decompress(tile.coded_payload, view.size)
                samples = np.frombuffer(raw, dtype=np.uint8).reshape(view.shape)
                out[rs, cs] = samples if ref is None else ref[rs, cs] + samples
    return out


def _delta_layer(
    frames: Sequence[RasterFrame], i: int, gop: int, regions: list[tuple[slice, slice]]
) -> LayerFrame:
    """Frame ``i`` of a closed-GOP delta-coded layer over ``regions``: a GOP
    start codes each tile's samples (KEY), any other frame their difference
    from frame ``i - 1`` (INTER)."""
    key = i % gop == 0
    header = FrameHeader(
        frame_index=i,
        layer_id=_BASE,
        frame_type=_KEY if key else _INTER,
    )
    ref = None if key else frames[i - 1].samples
    return LayerFrame(header, _tile_groups(frames[i].samples, ref, regions))


# --- encoders ----------------------------------------------------------------


def _check_tile_budget(frames: int, *grids: tuple[int, int]) -> None:
    tiles = sum(cols * rows for cols, rows in grids)
    if frames * tiles > ENCODED_TILE_BUDGET:
        raise TooLargeError(f"{frames} frames of {tiles} tiles exceed the encoded tile "
                            f"budget {ENCODED_TILE_BUDGET}")


def encode_svc(source: VideoSource) -> Bitstream:
    """Two-layer encode: delta-coded base plus base-referenced enhanced tiles.

    Per enhanced frame, the base reference offset (within ref_window and the
    current GOP) is the one minimizing total compressed size, ties to the
    smallest offset.  No enhanced frame ever references another enhanced
    frame.
    """
    config = source.config
    gop = config.gop_size
    sf = config.scale_factor
    _check_tile_budget(len(source.frames), config.layer_grid(True), config.layer_grid(False))
    base_regions = config.layer_regions(base=True)
    regions = config.layer_regions(base=False)
    bases = [downsample(f, sf) for f in source.frames]
    frames = []
    for i, frame in enumerate(source.frames):
        base_layer = _delta_layer(bases, i, gop, base_regions)
        gop_start = (i // gop) * gop
        candidates = [o for o in range(config.ref_window) if i - o >= gop_start]
        best = None
        for off in candidates:
            ref = upsample_nearest(bases[i - off], sf).samples
            groups = _tile_groups(frame.samples, ref, regions)
            total = sum(len(g.tiles[0].coded_payload) for g in groups)
            if best is None or total < best[0]:
                best = (total, off, groups)
        _, best_off, enh_groups = best
        enh_header = FrameHeader(
            frame_index=i,
            layer_id=_ENHANCED,
            frame_type=_INTER,
            base_ref_offset=best_off,
        )
        frames.append(Frame(layers=(base_layer, LayerFrame(enh_header, enh_groups))))
    return Bitstream(config=config, frames=tuple(frames))


class TrackResolution(Enum):
    FULL = "full"
    BASE = "base"


def encode_track(source: VideoSource, gop: int, resolution: TrackResolution) -> Bitstream:
    """Conventional single-layer tiled track with closed GOPs.

    A track keeps the source's header and holds only layer 0, which
    ``decode_frame`` reads at ``width / scale_factor`` over the base grid.
    FULL codes the source at ``scale_factor`` 1 over the source's tile grid,
    so it decodes to the source.  BASE codes the source's base layer as one
    tile, so it decodes to the upscaled base, and at the source's GOP it
    carries exactly :func:`encode_svc`'s base layers.
    """
    if not isinstance(resolution, TrackResolution):
        raise BadConfigError(f"unknown track resolution {resolution!r}")
    full = resolution is TrackResolution.FULL
    sf = 1 if full else source.config.scale_factor
    config = replace(source.config, scale_factor=sf, gop_size=gop, ref_window=1,
                     base_single_tile=not full)
    _check_tile_budget(len(source.frames), config.layer_grid(True))
    frames = source.frames if full else [downsample(f, sf) for f in source.frames]
    regions = config.layer_regions(base=True)
    return Bitstream(config=config, frames=tuple(
        Frame(layers=(_delta_layer(frames, i, gop, regions),)) for i in range(len(frames))
    ))


# --- decoding ----------------------------------------------------------------


def decode_frame(
    bitstream: Bitstream, frame_index: int, received_tiles: set[int]
) -> RasterFrame:
    """Reconstruct one frame at enhanced resolution.

    Received CODED tiles reproduce the source bit-exactly; every other tile
    region is filled with the nearest-upscaled co-located base region of the
    same frame index.  GOPs are closed and enhanced tiles predict only from
    the base layer, so only the frames from the frame's GOP start to the
    frame itself are checked and decoded: the cost depends on the frame's
    position in its GOP, not on its index or the stream's length.  Those are
    the only frames that need to be built (see ``parse``'s ``frames``).  They
    are decoded in place into one base plane, so the working set is that
    plane and at most two upsampled ones wherever the frame sits in its GOP.
    """
    config = bitstream.config
    if not 0 <= frame_index < len(bitstream.frames):
        raise MissingBaseError(frame_index)
    gop_start = (frame_index // config.gop_size) * config.gop_size
    report = validate_structure(bitstream, range(gop_start, frame_index + 1))
    if report:
        raise InvalidStructureError(
            f"stream fails validation: {report[0].rule} at frame {report[0].frame_index}"
        )
    # Validation leaves each frame a base layer of CODED tiles covering the
    # grid, so every base frame overwrites the whole plane it predicts from.
    regions = config.layer_regions(base=True)
    enh = bitstream.frames[frame_index].layer(_ENHANCED)
    ref_index = frame_index - (enh.header.base_ref_offset if enh else 0)
    base = RasterFrame(np.empty((config.base_height, config.base_width), dtype=np.uint8))
    for i in range(gop_start, frame_index + 1):
        layer = bitstream.frames[i].layer(_BASE)
        prev = None if layer.header.frame_type == _KEY else base.samples
        _decode_tiles(base.samples, prev, layer, regions, range(len(regions)))
        if i == ref_index:
            ref = upsample_nearest(base, config.scale_factor).samples
    out = ref if ref_index == frame_index else upsample_nearest(base, config.scale_factor).samples
    if enh is not None:
        _decode_tiles(out, ref, enh, config.layer_regions(base=False), received_tiles)
    return RasterFrame(out)
