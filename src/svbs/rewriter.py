"""Server-side construction of viewport-dependent frames.

Selected enhanced tiles are forwarded byte-for-byte; every other grid tile is
replaced by a synthesized skipped stub whose superblocks all carry the same
syntax: no partition, skip, inter prediction from the base layer only, zero
motion, no overlapped compensation.  The base layer is always forwarded in
full.
"""

from __future__ import annotations

import functools

from .config import SequenceConfig
from .container import (
    Frame,
    FrameHeader,
    LayerFrame,
    LayerId,
    Tile,
    TileGroup,
    TileKind,
)
from .errors import BadIndexError, InvalidStructureError, TileMissingError

_BASE, _ENHANCED = LayerId
_CODED = TileKind.CODED


def synthesize_skipped_tile(tile_index: int, config: SequenceConfig) -> Tile:
    """Skipped stub for one grid tile; constant size for a given grid."""
    if not 0 <= tile_index < config.tile_count:
        raise BadIndexError(f"tile index {tile_index} outside grid")
    return Tile(tile_index, TileKind.SKIPPED, superblock_count=config.tile_superblocks)


# One entry holds a grid's stubs: about 210 bytes per tile, so at most some
# 14 MB at the 255x255-tile grid, the most tiles a header can declare.
@functools.lru_cache(maxsize=8)
def _stub_groups(config: SequenceConfig) -> tuple[TileGroup, ...]:
    """The one-stub tile group of every grid tile, shared by all rewrites."""
    return tuple(TileGroup(t, t, (synthesize_skipped_tile(t, config),))
                 for t in range(config.tile_count))


def rewrite_viewport_frame(frame: Frame, selected: set[int], config: SequenceConfig) -> Frame:
    """Keep selected enhanced tiles, synthesize the rest, set frame flags.

    The output frame carries, in order: the base layer unchanged, then an
    enhanced header with CDF updates disabled and global motion pinned to
    zero, then one tile group per grid tile in raster order.  A forwarded
    tile keeps its input group when that group holds it alone, so the base
    layer and such a group of a parsed frame serialize as their kept bytes.
    """
    stubs = _stub_groups(config)
    count = len(stubs)
    for t in selected:
        if not 0 <= t < count:
            raise BadIndexError("selected tiles outside grid")
    base, enhanced = frame.layer(_BASE), frame.layer(_ENHANCED)
    if base is None or enhanced is None:
        raise InvalidStructureError("input frame must carry a base and an enhanced layer")

    groups = list(stubs)
    for group in enhanced.tile_groups:
        tiles = group.tiles
        for tile in tiles:
            t = tile.tile_index
            if t in selected and tile.tile_kind == _CODED:
                alone = len(tiles) == 1 and group.tg_start == group.tg_end == t
                groups[t] = group if alone else TileGroup(t, t, (tile,))
    missing = [t for t in selected if groups[t] is stubs[t]]
    if missing:
        raise TileMissingError(min(missing))

    h = enhanced.header  # with CDF updates disabled and global motion pinned to zero
    header = FrameHeader(h.frame_index, h.layer_id, h.frame_type, True, True, h.base_ref_offset)
    return Frame(layers=(base, LayerFrame(header, tuple(groups))))
