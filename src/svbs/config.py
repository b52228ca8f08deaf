"""Global stream parameters shared by every stage of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadConfigError, TooLargeError

SUPERBLOCK_SIZE = 64

# 12K ERP (11520x5760), the largest frame the paper names.  No config, and so
# no parsed header, declares a larger frame: every stage may allocate from the
# declared size, and a tile's stub count stays within its u16 wire field.
FRAME_PIXEL_BUDGET = 11520 * 5760


@dataclass(frozen=True)
class SequenceConfig:
    """Dimensions, tiling, GOP and layering parameters of one stream.

    ``width``/``height`` are the enhanced-layer dimensions; the base layer is
    ``scale_factor`` times smaller along each axis, or full size at
    ``scale_factor`` 1.  ``ref_window`` bounds how many previous base frames
    an enhanced frame may predict from (1 means same-index base frame only).
    The fields are declared in the order of the container's sequence header.
    """

    width: int
    height: int
    scale_factor: int = 2
    tile_cols: int = 1
    tile_rows: int = 1
    fps_num: int = 30
    fps_den: int = 1
    gop_size: int = 30
    base_single_tile: bool = True
    ref_window: int = 1

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise BadConfigError("frame dimensions must be positive")
        if self.scale_factor < 1:
            raise BadConfigError("scale_factor must be >= 1")
        if self.tile_cols < 1 or self.tile_rows < 1:
            raise BadConfigError("tile grid must be at least 1x1")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise BadConfigError("fps must be a positive rational")
        if self.gop_size < 1:
            raise BadConfigError("gop_size must be >= 1")
        if self.ref_window < 1:
            raise BadConfigError("ref_window must be >= 1")
        if self.ref_window > self.gop_size:
            raise BadConfigError("ref_window must not exceed gop_size")
        if self.width % (self.tile_cols * self.scale_factor) != 0:
            raise BadConfigError(
                "width must be divisible by tile_cols * scale_factor "
                "so base and enhanced tile grids align"
            )
        if self.height % (self.tile_rows * self.scale_factor) != 0:
            raise BadConfigError(
                "height must be divisible by tile_rows * scale_factor "
                "so base and enhanced tile grids align"
            )
        for field in ("width", "height", "fps_num", "fps_den", "gop_size"):
            if getattr(self, field) > 0xFFFF:
                raise BadConfigError(f"{field} exceeds the u16 wire range")
        for field in ("scale_factor", "tile_cols", "tile_rows", "ref_window"):
            if getattr(self, field) > 0xFF:
                raise BadConfigError(f"{field} exceeds the u8 wire range")
        if self.width * self.height > FRAME_PIXEL_BUDGET:
            raise TooLargeError(f"{self.width}x{self.height} exceeds the frame pixel budget")

    @property
    def frame_period_ms(self) -> float:
        return 1000.0 * self.fps_den / self.fps_num

    @property
    def tile_count(self) -> int:
        return self.tile_cols * self.tile_rows

    @property
    def tile_width(self) -> int:
        return self.width // self.tile_cols

    @property
    def tile_height(self) -> int:
        return self.height // self.tile_rows

    @property
    def tile_superblocks(self) -> int:
        """Superblocks covering one enhanced tile, partial ones included:
        the superblock_count of its skipped stub."""
        return -(-self.tile_width * self.tile_height // SUPERBLOCK_SIZE**2)

    @property
    def base_width(self) -> int:
        return self.width // self.scale_factor

    @property
    def base_height(self) -> int:
        return self.height // self.scale_factor

    def tile_position(self, tile_index: int) -> tuple[int, int]:
        """(col, row) of a tile index in raster order."""
        if not 0 <= tile_index < self.tile_count:
            raise BadConfigError(f"tile index {tile_index} outside grid")
        return tile_index % self.tile_cols, tile_index // self.tile_cols

    def layer_grid(self, base: bool) -> tuple[int, int]:
        """(cols, rows) of a layer's tile grid: a single tile for the base
        layer when ``base_single_tile`` is set, else the configured grid."""
        if base and self.base_single_tile:
            return 1, 1
        return self.tile_cols, self.tile_rows

    def layer_regions(self, base: bool) -> list[tuple[slice, slice]]:
        """(row slice, column slice) of each tile of a layer's grid, by tile
        index in raster order, over that layer's own plane: the base plane
        for the base layer, the full frame for the enhanced one."""
        cols, rows = self.layer_grid(base)
        width, height = (self.base_width, self.base_height) if base else (self.width, self.height)
        tw, th = width // cols, height // rows
        return [(slice(r * th, (r + 1) * th), slice(c * tw, (c + 1) * tw))
                for r in range(rows) for c in range(cols)]
