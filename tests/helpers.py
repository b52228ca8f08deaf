"""Shared builders for randomized, structurally valid stream models, and
straightforward reference versions of the optimized kernels."""

import random
import struct

import numpy as np

from svbs.config import SequenceConfig
from svbs.container import (
    Frame,
    FrameHeader,
    FrameType,
    InterMode,
    LayerFrame,
    LayerId,
    PartitionMode,
    RefFrames,
    SuperblockMode,
    Tile,
    TileGroup,
    TileKind,
)
from svbs.codec import MIN_ZERO_RUN
from svbs.geometry import _frustum_mask, _unproject


def random_config(rng: random.Random) -> SequenceConfig:
    tile_cols = rng.choice([1, 2, 3])
    tile_rows = rng.choice([1, 2])
    return SequenceConfig(
        width=tile_cols * 2 * rng.choice([4, 8, 16]),
        height=tile_rows * 2 * rng.choice([4, 8]),
        scale_factor=2,
        tile_cols=tile_cols,
        tile_rows=tile_rows,
        fps_num=rng.choice([24, 30, 60]),
        fps_den=1,
        gop_size=rng.choice([2, 4, 8]),
        base_single_tile=rng.random() < 0.5,
        ref_window=rng.randint(1, 2),
    )


def random_mode(rng: random.Random) -> SuperblockMode:
    return SuperblockMode(
        partition_mode=rng.choice(list(PartitionMode)),
        skip=rng.random() < 0.5,
        is_inter=rng.random() < 0.5,
        ref_frames=rng.choice(list(RefFrames)),
        inter_mode=rng.choice(list(InterMode)),
        use_obmc=rng.random() < 0.5,
    )


def _random_tiles(rng: random.Random, cols: int, rows: int, allow_skipped: bool):
    tiles = []
    for t in range(cols * rows):
        if allow_skipped and rng.random() < 0.3:
            tiles.append(
                Tile(
                    tile_index=t,
                    tile_col=t % cols,
                    tile_row=t // cols,
                    tile_kind=TileKind.SKIPPED,
                    superblock_count=rng.randint(1, 100),
                    skipped_mode=random_mode(rng),
                )
            )
        else:
            tiles.append(
                Tile(
                    tile_index=t,
                    tile_col=t % cols,
                    tile_row=t // cols,
                    tile_kind=TileKind.CODED,
                    coded_payload=rng.randbytes(rng.randint(0, 12)),
                )
            )
    return tiles


def _group_tiles(rng: random.Random, tiles) -> tuple[TileGroup, ...]:
    """Partition a raster-ordered tile list into consecutive tile groups."""
    groups = []
    i = 0
    while i < len(tiles):
        j = rng.randint(i, len(tiles) - 1)
        groups.append(TileGroup(tg_start=i, tg_end=j, tiles=tuple(tiles[i : j + 1])))
        i = j + 1
    return tuple(groups)


def random_layer(
    rng: random.Random, config: SequenceConfig, pos: int, layer_id: LayerId
) -> LayerFrame:
    gop = config.gop_size
    if layer_id == LayerId.BASE:
        cols, rows = (1, 1) if config.base_single_tile else (config.tile_cols, config.tile_rows)
        if pos % gop == 0:
            frame_type = FrameType.KEY
        else:
            frame_type = rng.choice([FrameType.KEY, FrameType.INTER])
        header = FrameHeader(pos, layer_id, frame_type)
        tiles = _random_tiles(rng, cols, rows, allow_skipped=False)
    else:
        cols, rows = config.tile_cols, config.tile_rows
        gop_start = (pos // gop) * gop
        offsets = [o for o in range(config.ref_window) if pos - o >= gop_start]
        tiles = _random_tiles(rng, cols, rows, allow_skipped=True)
        any_skipped = any(t.tile_kind == TileKind.SKIPPED for t in tiles)
        header = FrameHeader(
            frame_index=pos,
            layer_id=layer_id,
            frame_type=FrameType.INTER,
            cdf_update_disabled=any_skipped or rng.random() < 0.5,
            global_mv_zero=any_skipped or rng.random() < 0.5,
            base_ref_offset=rng.choice(offsets),
        )
    return LayerFrame(header, _group_tiles(rng, tiles))


def random_bitstream(rng: random.Random):
    from svbs.container import Bitstream

    config = random_config(rng)
    frames = []
    for pos in range(rng.randint(1, 4)):
        layers = [random_layer(rng, config, pos, LayerId.BASE)]
        if rng.random() < 0.8:
            layers.append(random_layer(rng, config, pos, LayerId.ENHANCED))
        metadata = tuple(rng.randbytes(rng.randint(0, 16)) for _ in range(rng.randint(0, 2)))
        frames.append(Frame(layers=tuple(layers), metadata=metadata))
    return Bitstream(config=config, frames=tuple(frames))


def brute_force_tiles(viewport, projection, config, band_rows: int = 64) -> set[int]:
    """Tiles with a pixel center inside the frustum, found by testing every
    pixel center a band of rows at a time, so it fits in memory at frame
    sizes above the oracle's pixel budget."""
    width, height = projection.width, projection.height
    tiles: set[int] = set()
    for y0 in range(0, height, band_rows):
        ys, xs = np.mgrid[y0 : min(y0 + band_rows, height), 0:width]
        u = xs.ravel().astype(np.float64) + 0.5
        v = ys.ravel().astype(np.float64) + 0.5
        inside = _frustum_mask(viewport, _unproject(u, v, projection))
        cols = xs.ravel()[inside] // config.tile_width
        rows = ys.ravel()[inside] // config.tile_height
        tiles.update((rows * config.tile_cols + cols).tolist())
    return tiles


def reference_generate_content_frames(seed: int, width: int, height: int, frame_count: int):
    """The content generator evaluated over the full float64 grid for every
    blob; ``codec.generate_content`` must match it byte for byte."""
    w, h = width, height
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    background = np.full((h, w), 128.0)
    for _ in range(5):
        amp = rng.uniform(6.0, 14.0)
        fx = rng.uniform(1.0, 9.0)
        fy = rng.uniform(1.0, 9.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        background += amp * np.sin(2 * np.pi * (fx * xs / w + fy * ys / h) + phase)
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
            dx = np.minimum(np.abs(xs - cx), w - np.abs(xs - cx))
            dy = np.minimum(np.abs(ys - cy), h - np.abs(ys - cy))
            r2 = (dx * dx + dy * dy) / (blob_r[j] * blob_r[j])
            bump = np.maximum(0.0, 1.0 - r2)
            img += blob_amp[j] * bump * bump
        frames.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return frames


def reference_downsample(samples: np.ndarray, factor: int) -> np.ndarray:
    """Box filter over a 4-D block view, rounded half-up."""
    h, w = samples.shape
    if factor == 1:
        return samples.copy()
    blocks = samples.reshape(h // factor, factor, w // factor, factor).astype(np.uint32)
    sums = blocks.sum(axis=(1, 3))
    f2 = factor * factor
    return ((2 * sums + f2) // (2 * f2)).astype(np.uint8)


def reference_rle_compress(data: bytes) -> bytes:
    """Run-length coder that visits every zero run, short ones included."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    n = arr.size
    if n == 0:
        return b""
    padded = np.concatenate(([False], arr == 0, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    out = []
    lit_start = 0
    for s, e in zip(starts, ends):
        if e - s < MIN_ZERO_RUN:
            continue
        if s > lit_start:
            out.append(struct.pack("<BI", 1, s - lit_start))
            out.append(arr[lit_start:s].tobytes())
        out.append(struct.pack("<BI", 0, e - s))
        lit_start = e
    if lit_start < n:
        out.append(struct.pack("<BI", 1, n - lit_start))
        out.append(arr[lit_start:].tobytes())
    return b"".join(out)
