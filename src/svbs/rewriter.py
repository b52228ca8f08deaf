"""Server-side construction of viewport-dependent frames.

Selected enhanced tiles are forwarded byte-for-byte; every other grid tile is
replaced by a synthesized skipped stub whose superblocks all carry the same
syntax: no partition, skip, inter prediction from the base layer only, zero
motion, no overlapped compensation.  The base layer is always forwarded in
full.
"""

from __future__ import annotations

from .config import SequenceConfig
from .container import (
    Frame,
    FrameHeader,
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
from .errors import BadIndexError, InvalidStructureError, TileMissingError

SUPERBLOCK_SIZE = 64

CANONICAL_SKIPPED_MODE = SuperblockMode(
    partition_mode=PartitionMode.PARTITION_NONE,
    skip=True,
    is_inter=True,
    ref_frames=RefFrames.REF_TO_BASE_LAYER_ONLY,
    inter_mode=InterMode.ZERO_MV,
    use_obmc=False,
)


def synthesize_skipped_tile(tile_index: int, config: SequenceConfig) -> Tile:
    """Skipped stub for one grid tile; constant size for a given grid."""
    if not 0 <= tile_index < config.tile_count:
        raise BadIndexError(f"tile index {tile_index} outside grid")
    area = config.tile_width * config.tile_height
    sb_area = SUPERBLOCK_SIZE * SUPERBLOCK_SIZE
    count = -(-area // sb_area)  # ceil
    return Tile(
        tile_index=tile_index,
        tile_kind=TileKind.SKIPPED,
        superblock_count=count,
        skipped_mode=CANONICAL_SKIPPED_MODE,
    )


def _skipped_tile_group(tile_index: int, config: SequenceConfig) -> TileGroup:
    return TileGroup(
        tg_start=tile_index,
        tg_end=tile_index,
        tiles=(synthesize_skipped_tile(tile_index, config),),
    )


def rewrite_viewport_frame(frame: Frame, selected: set[int], config: SequenceConfig) -> Frame:
    """Keep selected enhanced tiles, synthesize the rest, set frame flags.

    The output frame carries, in order: the base layer unchanged, then an
    enhanced header with CDF updates disabled and global motion pinned to
    zero, then one tile group per grid tile in raster order.
    """
    if not set(selected) <= set(range(config.tile_count)):
        raise BadIndexError("selected tiles outside grid")
    base, enhanced = frame.layer(LayerId.BASE), frame.layer(LayerId.ENHANCED)
    if base is None or enhanced is None:
        raise InvalidStructureError("input frame must carry a base and an enhanced layer")

    coded: dict[int, TileGroup] = {}
    for group in enhanced.tile_groups:
        for tile in group.tiles:
            if tile.tile_kind == TileKind.CODED:
                coded[tile.tile_index] = TileGroup(
                    tg_start=tile.tile_index, tg_end=tile.tile_index, tiles=(tile,)
                )

    groups = []
    for t in range(config.tile_count):
        if t in selected:
            if t not in coded:
                raise TileMissingError(t)
            groups.append(coded[t])
        else:
            groups.append(_skipped_tile_group(t, config))

    header = FrameHeader(
        frame_index=enhanced.header.frame_index,
        layer_id=LayerId.ENHANCED,
        frame_type=enhanced.header.frame_type,
        cdf_update_disabled=True,
        global_mv_zero=True,
        base_ref_offset=enhanced.header.base_ref_offset,
    )
    return Frame(
        layers=(base, LayerFrame(header, tuple(groups))),
        delimiter_count=frame.delimiter_count,
        metadata=frame.metadata,
    )

