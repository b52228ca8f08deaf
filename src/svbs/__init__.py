"""Scalable viewport bitstream toolkit for tiled 360-degree streaming."""

__version__ = "0.1.0"

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
    UnitType,
    parse,
    serialize,
    validate_structure,
)
from .codec import (
    RasterFrame,
    VideoSource,
    decode_frame,
    downsample,
    encode_svc,
    encode_track,
    generate_content,
    rle_compress,
    rle_decompress,
    upsample_nearest,
)
from .geometry import (
    Projection,
    ProjectionKind,
    Viewport,
    select_tiles,
    tile_coverage_oracle,
)
from .rewriter import (
    rewrite_viewport_frame,
    synthesize_skipped_tile,
)
from .simulator import (
    NetworkModel,
    Scheme,
    SchemeKind,
    SessionReport,
    expected_gop_wait_ms,
    latency_summary,
    run_session,
)
