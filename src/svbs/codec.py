"""Mock layered tiled codec over procedurally generated 8-bit luma video.

The encoder realizes the two-layer structure: a downscaled base layer with
conventional KEY/INTER delta coding, and an enhanced layer whose tiles are
residuals against the nearest-neighbor-upscaled base layer only, never
against other enhanced frames.  Residuals are stored as mod-256 difference
bytes and run-length coded, so payload sizes respond to content while
reconstruction stays bit-exact.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Sequence
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

PSNR_INF = math.inf

# Zero runs shorter than this are cheaper as literals.
MIN_ZERO_RUN = 6

# 12K ERP (11520x5760), the largest frame the paper names.  A larger declared
# frame is refused before the decoder allocates anything from its size.
DECODE_PIXEL_BUDGET = 11520 * 5760

# Samples one generated content may hold, 1 GiB: frames times frame pixels.
CONTENT_PIXEL_BUDGET = 1 << 30

_RUN_ZERO = 0
_RUN_LITERAL = 1
_RECORD = struct.Struct("<BI")  # run_type u8, length u32


@dataclass(eq=False)
class RasterFrame:
    """One 8-bit luma frame, row-major."""

    width: int
    height: int
    samples: np.ndarray  # shape (height, width), dtype uint8

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.uint8)
        if self.samples.shape != (self.height, self.width):
            raise BadDimensionsError(
                f"samples shape {self.samples.shape} does not match "
                f"{self.height}x{self.width}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RasterFrame):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.samples, other.samples)
        )

    def tobytes(self) -> bytes:
        return self.samples.tobytes()


@dataclass(frozen=True)
class VideoSource:
    config: SequenceConfig
    frames: tuple[RasterFrame, ...]
    seed: int


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

    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
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

    frames = []
    for t in range(frame_count):
        img = background.copy()
        for j in range(n_blobs):
            cx = (blob_x0[j] + blob_vx[j] * t) % w
            cy = (blob_y0[j] + blob_vy[j] * t) % h
            # The bump is exactly 0 beyond the radius, so only the pixels
            # within it (plus a pixel of slack) are evaluated.  The float
            # expressions are those of a full-grid evaluation, so each pixel
            # keeps its value bit for bit.
            rows = _wrapped_window(cy, blob_r[j], h)
            cols = _wrapped_window(cx, blob_r[j], w)
            # Wrap-aware distance so blobs drift seamlessly across edges.
            dx = np.minimum(np.abs(cols - cx), w - np.abs(cols - cx))
            dy = np.minimum(np.abs(rows - cy), h - np.abs(rows - cy))
            r2 = (dx * dx + dy[:, None] * dy[:, None]) / (blob_r[j] * blob_r[j])
            bump = np.maximum(0.0, 1.0 - r2)
            img[np.ix_(rows, cols)] += blob_amp[j] * bump * bump
        samples = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        frames.append(RasterFrame(w, h, samples))
    return VideoSource(config=config, frames=tuple(frames), seed=seed)


def _wrapped_window(center: float, radius: float, size: int) -> np.ndarray:
    """Distinct pixel indices within ``radius`` + 1 of ``center`` on an axis
    of ``size`` pixels that wraps around."""
    lo = math.floor(center - radius) - 1
    hi = math.ceil(center + radius) + 1
    if hi - lo + 1 >= size:
        return np.arange(size)
    return np.arange(lo, hi + 1) % size


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
        return RasterFrame(frame.width, frame.height, frame.samples.copy())
    h2, w2 = frame.height // factor, frame.width // factor
    samples = frame.samples
    sums = samples[::factor, ::factor].astype(np.uint32)
    for dy in range(factor):
        for dx in range(factor):
            if dy or dx:
                sums += samples[dy::factor, dx::factor]
    f2 = factor * factor
    out = ((2 * sums + f2) // (2 * f2)).astype(np.uint8)
    return RasterFrame(w2, h2, out)


def upsample_nearest(frame: RasterFrame, factor: int) -> RasterFrame:
    """Replicate each source pixel factor x factor."""
    if factor < 1:
        raise BadDimensionsError("factor must be >= 1")
    out = np.repeat(np.repeat(frame.samples, factor, axis=0), factor, axis=1)
    return RasterFrame(frame.width * factor, frame.height * factor, out)


# --- run-length coding -------------------------------------------------------


def rle_compress(data: bytes) -> bytes:
    """Repeated records: run_type u8 (0=zero run, 1=literal), length u32,
    then literal bytes for type 1.  Zero runs shorter than MIN_ZERO_RUN are
    folded into literals."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    n = arr.size
    if n == 0:
        return b""
    padded = np.concatenate(([False], arr == 0, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
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


def _grid_regions(width: int, height: int, grid: tuple[int, int]) -> list[tuple[slice, slice]]:
    """(row slice, column slice) of each tile of a (cols, rows) ``grid``
    over a width x height plane, by tile index in raster order."""
    cols, rows = grid
    tw, th = width // cols, height // rows
    return [
        (slice(r * th, (r + 1) * th), slice(c * tw, (c + 1) * tw))
        for r in range(rows)
        for c in range(cols)
    ]


def _tile_groups(
    cur: np.ndarray, ref: np.ndarray | None, grid: tuple[int, int]
) -> tuple[TileGroup, ...]:
    """One single-tile CODED group per tile of ``grid`` over the plane ``cur``,
    in raster order.  A tile codes its samples, or with a ``ref`` plane their
    mod-256 difference from it (uint8 arithmetic wraps)."""
    h, w = cur.shape
    groups = []
    for t, (rs, cs) in enumerate(_grid_regions(w, h, grid)):
        data = cur[rs, cs] if ref is None else cur[rs, cs] - ref[rs, cs]
        payload = rle_compress(data.tobytes())
        tile = Tile(t, TileKind.CODED, coded_payload=payload)
        groups.append(TileGroup(tg_start=t, tg_end=t, tiles=(tile,)))
    return tuple(groups)


def _delta_layer(
    frames: Sequence[RasterFrame], i: int, gop: int, grid: tuple[int, int]
) -> LayerFrame:
    """Frame ``i`` of a closed-GOP delta-coded layer over ``grid``: a GOP
    start codes each tile's samples (KEY), any other frame their difference
    from frame ``i - 1`` (INTER)."""
    key = i % gop == 0
    header = FrameHeader(
        frame_index=i,
        layer_id=LayerId.BASE,
        frame_type=FrameType.KEY if key else FrameType.INTER,
    )
    ref = None if key else frames[i - 1].samples
    return LayerFrame(header, _tile_groups(frames[i].samples, ref, grid))


# --- encoders ----------------------------------------------------------------


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
    base_grid = config.layer_grid(base=True)
    grid = config.layer_grid(base=False)
    bases = [downsample(f, sf) for f in source.frames]

    @functools.cache
    def upsampled(i: int) -> np.ndarray:
        return upsample_nearest(bases[i], sf).samples

    frames = []
    for i, frame in enumerate(source.frames):
        base_layer = _delta_layer(bases, i, gop, base_grid)
        gop_start = (i // gop) * gop
        candidates = [o for o in range(config.ref_window) if i - o >= gop_start]
        best = None
        for off in candidates:
            groups = _tile_groups(frame.samples, upsampled(i - off), grid)
            total = sum(len(g.tiles[0].coded_payload) for g in groups)
            if best is None or total < best[0]:
                best = (total, off, groups)
        _, best_off, enh_groups = best
        enh_header = FrameHeader(
            frame_index=i,
            layer_id=LayerId.ENHANCED,
            frame_type=FrameType.INTER,
            base_ref_offset=best_off,
        )
        frames.append(Frame(layers=(base_layer, LayerFrame(enh_header, enh_groups))))
    return Bitstream(config=config, frames=tuple(frames))


class TrackResolution(Enum):
    FULL = "full"
    BASE = "base"


def encode_track(source: VideoSource, gop: int, resolution: TrackResolution) -> Bitstream:
    """Conventional single-layer tiled track with closed GOPs.

    FULL keeps the source resolution and tile grid; BASE downscales by the
    configured factor and uses a single tile.
    """
    if gop < 1:
        raise BadConfigError("gop must be >= 1")
    config = source.config
    if resolution is TrackResolution.FULL:
        track_config = replace(config, gop_size=gop, base_single_tile=False, ref_window=1)
        track_frames = source.frames
    elif resolution is TrackResolution.BASE:
        track_config = replace(
            config,
            width=config.base_width,
            height=config.base_height,
            tile_cols=1,
            tile_rows=1,
            gop_size=gop,
            base_single_tile=True,
            ref_window=1,
        )
        track_frames = tuple(downsample(f, config.scale_factor) for f in source.frames)
    else:
        raise BadConfigError(f"unknown track resolution {resolution!r}")

    grid = track_config.layer_grid(base=True)
    frames = tuple(
        Frame(layers=(_delta_layer(track_frames, i, gop, grid),))
        for i in range(len(track_frames))
    )
    return Bitstream(config=track_config, frames=frames)


# --- decoding ----------------------------------------------------------------


def _decoded_tile(tile: Tile, view: np.ndarray) -> np.ndarray:
    """The decompressed samples of a CODED tile, shaped like its region."""
    raw = rle_decompress(tile.coded_payload, view.size)
    return np.frombuffer(raw, dtype=np.uint8).reshape(view.shape)


def _decode_base_frames(bitstream: Bitstream, first: int, last: int) -> list[np.ndarray]:
    """Base frames ``first``..``last``; ``first`` must hold a KEY base frame,
    as every GOP start of a valid stream does."""
    config = bitstream.config
    bw, bh = config.base_width, config.base_height
    regions = _grid_regions(bw, bh, config.layer_grid(base=True))
    decoded: list[np.ndarray] = []
    for i in range(first, last + 1):
        base = bitstream.frames[i].layer(LayerId.BASE)
        if base is None:
            raise MissingBaseError(i)
        key = base.header.frame_type == FrameType.KEY
        out = np.empty((bh, bw), dtype=np.uint8)
        for group in base.tile_groups:
            for tile in group.tiles:
                rs, cs = regions[tile.tile_index]
                region = _decoded_tile(tile, out[rs, cs])
                out[rs, cs] = region if key else decoded[-1][rs, cs] + region
        decoded.append(out)
    return decoded


def decode_frame(
    bitstream: Bitstream, frame_index: int, received_tiles: set[int]
) -> RasterFrame:
    """Reconstruct one frame at enhanced resolution.

    Received CODED tiles reproduce the source bit-exactly; every other tile
    region is filled with the nearest-upscaled co-located base region of the
    same frame index.  GOPs are closed and enhanced tiles predict only from
    the base layer, so the base layer is decoded from the frame's GOP start:
    the cost depends on the frame's position in its GOP, not on its index.
    """
    report = validate_structure(bitstream)
    if report:
        raise InvalidStructureError(
            f"stream fails validation: {report[0].rule} at frame {report[0].frame_index}"
        )
    config = bitstream.config
    if config.width * config.height > DECODE_PIXEL_BUDGET:
        raise TooLargeError(f"{config.width}x{config.height} exceeds the decode pixel budget")
    if not 0 <= frame_index < len(bitstream.frames):
        raise MissingBaseError(frame_index)
    gop_start = (frame_index // config.gop_size) * config.gop_size
    bases = _decode_base_frames(bitstream, gop_start, frame_index)
    sf = config.scale_factor

    def upsampled(i: int) -> np.ndarray:
        base = bases[i - gop_start]
        return upsample_nearest(RasterFrame(config.base_width, config.base_height, base), sf).samples

    out = upsampled(frame_index).copy()
    enh = bitstream.frames[frame_index].layer(LayerId.ENHANCED)
    if enh is None:
        return RasterFrame(config.width, config.height, out)
    regions = _grid_regions(config.width, config.height, config.layer_grid(base=False))
    ref = None
    for group in enh.tile_groups:
        for tile in group.tiles:
            if tile.tile_kind != TileKind.CODED or tile.tile_index not in received_tiles:
                continue
            if ref is None:
                ref = upsampled(frame_index - enh.header.base_ref_offset)
            rs, cs = regions[tile.tile_index]
            out[rs, cs] = ref[rs, cs] + _decoded_tile(tile, out[rs, cs])
    return RasterFrame(config.width, config.height, out)


# --- metrics -----------------------------------------------------------------


def psnr(a: RasterFrame, b: RasterFrame) -> float:
    if (a.width, a.height) != (b.width, b.height):
        raise BadDimensionsError("frames differ in dimensions")
    diff = a.samples.astype(np.float64) - b.samples.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_INF
    return 10.0 * math.log10(255.0 * 255.0 / mse)

