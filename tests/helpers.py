"""Shared builders for randomized, structurally valid stream models."""

import random

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
