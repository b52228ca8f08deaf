"""Shared builders for randomized, structurally valid stream models, and
straightforward reference versions of the optimized kernels, the parser,
the decoder, the session simulator and its JSON and CSV reports."""

import csv
import json
import math
import random
import struct

import numpy as np

from svbs.config import SequenceConfig
from svbs.container import (
    MAGIC,
    SUPERBLOCK_MODE_SIZE,
    UNIT_HEADER_SIZE,
    VERSION,
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
    rate_records,
    tile_group_size,
    validate_structure,
)
from svbs.codec import (
    MIN_ZERO_RUN,
    RasterFrame,
    TrackResolution,
    encode_svc,
    encode_track,
    generate_content,
    rle_decompress,
    upsample_nearest,
)
from svbs.errors import (
    BadArgsError,
    BadIndexError,
    BadMagicError,
    InvalidStructureError,
    MissingBaseError,
    SvbsError,
    TileMissingError,
    TruncatedError,
    UnknownUnitTypeError,
)
from svbs.geometry import (
    Projection,
    ProjectionKind,
    _in_bounds,
    _rotation,
    _unproject,
    select_tiles,
)
from svbs.rewriter import _stub_groups
from svbs.simulator import (
    _TICK_EPS,
    FrameLog,
    SchemeKind,
    SessionReport,
    SwitchSample,
    report_to_json,
)


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


def _random_tiles(rng: random.Random, cols: int, rows: int, sb_count: int | None):
    """Coded tiles, with about 30% skipped stubs of ``sb_count`` superblocks
    unless it is None."""
    tiles = []
    for t in range(cols * rows):
        if sb_count is not None and rng.random() < 0.3:
            tiles.append(Tile(tile_index=t, tile_kind=TileKind.SKIPPED, superblock_count=sb_count))
        else:
            tiles.append(
                Tile(
                    tile_index=t,
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
        tiles = _random_tiles(rng, cols, rows, None)
    else:
        cols, rows = config.tile_cols, config.tile_rows
        gop_start = (pos // gop) * gop
        offsets = [o for o in range(config.ref_window) if pos - o >= gop_start]
        # 64x64 superblocks per enhanced tile, rounded up.
        sb_count = -(-(config.tile_width * config.tile_height) // 4096)
        tiles = _random_tiles(rng, cols, rows, sb_count)
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
    config = random_config(rng)
    frames = []
    for pos in range(rng.randint(1, 4)):
        layers = [random_layer(rng, config, pos, LayerId.BASE)]
        if rng.random() < 0.8:
            layers.append(random_layer(rng, config, pos, LayerId.ENHANCED))
        frames.append(Frame(layers=tuple(layers)))
    return Bitstream(config=config, frames=tuple(frames))


def record_bytes_per_frame(stream, layer_id=None) -> list[int]:
    """The bytes ``rate_records`` charges each frame of ``stream``, in one
    layer's tables if given."""
    out = [0] * len(stream.frames)
    for layer, (header, tiles) in rate_records(stream).items():
        if layer_id is None or layer == layer_id:
            for pos, row in enumerate(tiles):
                out[pos] += header[pos] + sum(row)
    return out


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
        inside = _in_bounds(viewport, _unproject(u, v, projection) @ _rotation(viewport))
        cols = xs.ravel()[inside] // config.tile_width
        rows = ys.ravel()[inside] // config.tile_height
        tiles.update((rows * config.tile_cols + cols).tolist())
    return tiles


def reference_accepts(yaw: float, pitch: float, h_fov: float, v_fov: float) -> bool:
    """Whether a pose given in degrees passes the four checks on its radians:
    a finite yaw, pitch in [-pi/2, pi/2], h_fov in (0, 2 pi], v_fov in (0, pi]."""
    yaw, pitch, h_fov, v_fov = map(math.radians, (yaw, pitch, h_fov, v_fov))
    return (math.isfinite(yaw) and -math.pi / 2 <= pitch <= math.pi / 2
            and 0 < h_fov <= 2.0 * math.pi and 0 < v_fov <= math.pi)


def reference_rotation(viewport) -> np.ndarray:
    """Rz(yaw) @ Ry(-pitch) multiplied out, for a viewport that holds degrees:
    yaw converted to radians and then wrapped to [-pi, pi), pitch converted."""
    yaw = (math.radians(viewport.yaw) + math.pi) % (2.0 * math.pi) - math.pi
    pitch = math.radians(viewport.pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return np.array([[cy * cp, -sy, -cy * sp], [sy * cp, cy, -sy * sp], [sp, 0.0, cp]])


def reference_project_erp(dirs: np.ndarray, width: int, height: int):
    """Pixel coordinates of unit directions in an ERP frame."""
    lon, lat = np.arctan2(dirs[:, 1], dirs[:, 0]), np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0))
    return ((lon / (2 * math.pi) + 0.5) * width % width,
            np.clip((0.5 - lat / math.pi) * height, 0.0, np.nextafter(float(height), 0.0)))


# The cube-map face code as it was before the face table: six-way branches
# over face constants.  geometry._unproject_cubemap must equal
# reference_unproject_cubemap bit for bit; reference_project_cubemap is the
# forward map that the unprojection round trip is checked through.
# Face order and packing: top row left/front/right, bottom row bottom/back/top.
_FACE_LEFT, _FACE_FRONT, _FACE_RIGHT, _FACE_BOTTOM, _FACE_BACK, _FACE_TOP = range(6)
_FACE_CELL = {
    _FACE_LEFT: (0, 0),
    _FACE_FRONT: (1, 0),
    _FACE_RIGHT: (2, 0),
    _FACE_BOTTOM: (0, 1),
    _FACE_BACK: (1, 1),
    _FACE_TOP: (2, 1),
}
_CELL_FACE = {cell: face for face, cell in _FACE_CELL.items()}
_FACE_COL = np.array([_FACE_CELL[f][0] for f in range(6)])
_FACE_ROW = np.array([_FACE_CELL[f][1] for f in range(6)])


def reference_cubemap_faces(dirs: np.ndarray) -> np.ndarray:
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    dominant = np.argmax(np.stack([ax, ay, az], axis=0), axis=0)
    faces = np.empty(len(dirs), dtype=np.int64)
    faces[(dominant == 0) & (x >= 0)] = _FACE_FRONT
    faces[(dominant == 0) & (x < 0)] = _FACE_BACK
    faces[(dominant == 1) & (y >= 0)] = _FACE_RIGHT
    faces[(dominant == 1) & (y < 0)] = _FACE_LEFT
    faces[(dominant == 2) & (z >= 0)] = _FACE_TOP
    faces[(dominant == 2) & (z < 0)] = _FACE_BOTTOM
    return faces


def reference_project_cubemap(
    dirs: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray]:
    s = width / 3.0
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    faces = reference_cubemap_faces(dirs)
    a = np.empty(len(dirs))
    b = np.empty(len(dirs))
    for face, (a_expr, b_expr) in {
        _FACE_FRONT: (lambda x, y, z: y / x, lambda x, y, z: -z / x),
        _FACE_BACK: (lambda x, y, z: y / x, lambda x, y, z: z / x),
        _FACE_RIGHT: (lambda x, y, z: -x / y, lambda x, y, z: -z / y),
        _FACE_LEFT: (lambda x, y, z: -x / y, lambda x, y, z: z / y),
        _FACE_TOP: (lambda x, y, z: y / z, lambda x, y, z: x / z),
        _FACE_BOTTOM: (lambda x, y, z: -y / z, lambda x, y, z: x / z),
    }.items():
        m = faces == face
        if m.any():
            a[m] = a_expr(x[m], y[m], z[m])
            b[m] = b_expr(x[m], y[m], z[m])
    fa = np.clip((a + 1.0) / 2.0, 0.0, np.nextafter(1.0, 0.0))
    fb = np.clip((b + 1.0) / 2.0, 0.0, np.nextafter(1.0, 0.0))
    return (_FACE_COL[faces] + fa) * s, (_FACE_ROW[faces] + fb) * s


def reference_unproject_cubemap(
    u: np.ndarray, v: np.ndarray, width: int, height: int
) -> np.ndarray:
    s = width / 3.0
    cols = np.minimum((u / s).astype(np.int64), 2)
    rows = np.minimum((v / s).astype(np.int64), 1)
    a = (u - cols * s) / s * 2.0 - 1.0
    b = (v - rows * s) / s * 2.0 - 1.0
    dirs = np.empty((len(u), 3))
    for (col, row), face in _CELL_FACE.items():
        m = (cols == col) & (rows == row)
        if not m.any():
            continue
        am, bm = a[m], b[m]
        one = np.ones_like(am)
        if face == _FACE_FRONT:
            d = np.stack([one, am, -bm], axis=-1)
        elif face == _FACE_BACK:
            d = np.stack([-one, -am, -bm], axis=-1)
        elif face == _FACE_RIGHT:
            d = np.stack([-am, one, -bm], axis=-1)
        elif face == _FACE_LEFT:
            d = np.stack([am, -one, -bm], axis=-1)
        elif face == _FACE_TOP:
            d = np.stack([bm, am, one], axis=-1)
        else:  # _FACE_BOTTOM
            d = np.stack([-bm, am, -one], axis=-1)
        dirs[m] = d
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


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


class _RefReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _ref_parse_sequence_header(reader: _RefReader) -> SequenceConfig:
    if len(reader.data) < len(MAGIC):
        if reader.data == MAGIC[: len(reader.data)]:
            raise TruncatedError(len(reader.data))
        raise BadMagicError("stream does not start with SVBS magic")
    magic = reader.take(4)
    if magic != MAGIC:
        raise BadMagicError("stream does not start with SVBS magic")
    (version,) = reader.unpack("<B")
    if version != VERSION:
        raise BadMagicError(f"unsupported container version {version}")
    (w, h, sf, tc, tr, fn, fd, gop, flags, rw) = reader.unpack("<HHBBBHHHBB")
    if flags & ~1:
        raise InvalidStructureError(
            f"reserved sequence flag bits 0x{flags:02x} at offset {reader.pos - 2}"
        )
    return SequenceConfig(
        width=w,
        height=h,
        scale_factor=sf,
        tile_cols=tc,
        tile_rows=tr,
        fps_num=fn,
        fps_den=fd,
        gop_size=gop,
        base_single_tile=bool(flags & 1),
        ref_window=rw,
    )


def _ref_parse_frame_header(payload: bytes, offset: int) -> FrameHeader:
    if len(payload) != 8:
        raise TruncatedError(offset, f"frame header payload has {len(payload)} bytes, want 8")
    idx, layer, ftype, flags, ref = struct.unpack("<IBBBB", payload)
    try:
        layer_id = LayerId(layer)
        frame_type = FrameType(ftype)
    except ValueError as exc:
        raise InvalidStructureError(f"bad frame header enum at offset {offset}: {exc}") from exc
    if flags & ~3:
        raise InvalidStructureError(
            f"reserved frame flag bits 0x{flags:02x} at offset {offset + 6}"
        )
    return FrameHeader(
        frame_index=idx,
        layer_id=layer_id,
        frame_type=frame_type,
        cdf_update_disabled=bool(flags & 1),
        global_mv_zero=bool(flags & 2),
        base_ref_offset=ref,
    )


# The one superblock mode record a skipped tile may carry.
_REF_SKIPPED_MODE = bytes([0, 1, 1, 0, 0, 0])


def _ref_parse_tile_group(payload: bytes, offset: int) -> TileGroup:
    sub = _RefReader(payload)
    try:
        tg_start, tg_end = sub.unpack("<HH")
        tiles = []
        while sub.pos < len(payload):
            tile_index, kind = sub.unpack("<HB")
            try:
                tile_kind = TileKind(kind)
            except ValueError as exc:
                raise InvalidStructureError(
                    f"bad tile kind {kind} at offset {offset + sub.pos - 1}"
                ) from exc
            if tile_kind == TileKind.CODED:
                (size,) = sub.unpack("<I")
                coded = sub.take(size)
                tiles.append(Tile(tile_index, tile_kind, coded_payload=coded))
            else:
                (sb_count,) = sub.unpack("<H")
                mode_offset = offset + sub.pos
                mode = sub.take(SUPERBLOCK_MODE_SIZE)
                if mode != _REF_SKIPPED_MODE:
                    raise InvalidStructureError(
                        f"bad superblock mode at offset {mode_offset}: {mode.hex()}, "
                        f"want {_REF_SKIPPED_MODE.hex()}"
                    )
                tiles.append(Tile(tile_index, tile_kind, superblock_count=sb_count))
    except TruncatedError as exc:
        # Re-position relative to the whole stream.
        raise TruncatedError(offset + exc.offset) from exc
    return TileGroup(tg_start=tg_start, tg_end=tg_end, tiles=tuple(tiles))


def reference_parse(data: bytes) -> Bitstream:
    """The parser that slices every unit out of a reader and makes one enum
    per byte; ``container.parse`` must give the same model, or raise the same
    exception type with the same message, for every input."""
    reader = _RefReader(data)
    config = _ref_parse_sequence_header(reader)

    # Each delimiter opens a frame: a list of (header, tile groups) pairs.
    frames: list[list[tuple[FrameHeader, list[TileGroup]]]] = []
    while reader.pos < len(data):
        unit_offset = reader.pos
        type_byte, size = reader.unpack("<BI")
        payload = reader.take(size)
        try:
            unit_type = UnitType(type_byte)
        except ValueError:
            raise UnknownUnitTypeError(type_byte, unit_offset) from None

        if unit_type == UnitType.TEMPORAL_DELIMITER:
            if payload:
                raise InvalidStructureError(f"temporal delimiter payload at offset {unit_offset}")
            frames.append([])
        elif unit_type == UnitType.FRAME_HEADER:
            if not frames:
                raise InvalidStructureError(
                    f"frame header before the first temporal delimiter at offset {unit_offset}"
                )
            header = _ref_parse_frame_header(payload, unit_offset + UNIT_HEADER_SIZE)
            frames[-1].append((header, []))
        else:  # TILE_GROUP
            if not frames or not frames[-1]:
                raise InvalidStructureError(
                    f"tile group without preceding frame header at offset {unit_offset}"
                )
            group = _ref_parse_tile_group(payload, unit_offset + UNIT_HEADER_SIZE)
            frames[-1][-1][1].append(group)
    return Bitstream(
        config=config,
        frames=tuple(
            Frame(layers=tuple(LayerFrame(h, tuple(gs)) for h, gs in layers))
            for layers in frames
        ),
    )


def reference_unit_walk(data: bytes) -> tuple[list[int], SvbsError | None]:
    """The faults seen from the sequence header and from each unit's type
    byte and size alone, as :func:`reference_parse` reports them: the offset
    of every temporal delimiter before the first such fault, and the fault
    (None when there is none).  Nothing inside a unit's payload is read."""
    delimiters: list[int] = []
    reader = _RefReader(data)
    try:
        _ref_parse_sequence_header(reader)
        has_header = False
        while reader.pos < len(data):
            unit_offset = reader.pos
            type_byte, size = reader.unpack("<BI")
            reader.take(size)
            if type_byte == UnitType.TEMPORAL_DELIMITER:
                if size:
                    raise InvalidStructureError(f"temporal delimiter payload at offset {unit_offset}")
                delimiters.append(unit_offset)
                has_header = False
            elif type_byte == UnitType.FRAME_HEADER:
                if not delimiters:
                    raise InvalidStructureError(
                        f"frame header before the first temporal delimiter at offset {unit_offset}"
                    )
                if size != 8:
                    raise TruncatedError(unit_offset + UNIT_HEADER_SIZE,
                                         f"frame header payload has {size} bytes, want 8")
                has_header = True
            elif type_byte == UnitType.TILE_GROUP:
                if not has_header:
                    raise InvalidStructureError(
                        f"tile group without preceding frame header at offset {unit_offset}"
                    )
            else:
                raise UnknownUnitTypeError(type_byte, unit_offset)
    except SvbsError as exc:
        return delimiters, exc
    return delimiters, None


# The decoder's original residual arithmetic (through int16) and tile
# geometry, kept here so the reference does not move with the code under test.
def _ref_group_pieces(group: TileGroup) -> list:
    if group.wire is not None:
        return [group.wire]
    tiles = group.tiles
    if len(tiles) == 1 and tiles[0].tile_kind == TileKind.SKIPPED:
        tile = tiles[0]
        return [struct.pack("<BIHHHBH6s", UnitType.TILE_GROUP, 15, group.tg_start, group.tg_end,
                            tile.tile_index, tile.tile_kind, tile.superblock_count,
                            _REF_SKIPPED_MODE)]
    body = [struct.pack("<HH", group.tg_start, group.tg_end)]
    for tile in tiles:
        if tile.tile_kind == TileKind.CODED:
            payload = tile.coded_payload
            body += (struct.pack("<HBI", tile.tile_index, tile.tile_kind, len(payload)), payload)
        else:
            body.append(struct.pack("<HBH6s", tile.tile_index, tile.tile_kind,
                                    tile.superblock_count, _REF_SKIPPED_MODE))
    return [struct.pack("<BI", UnitType.TILE_GROUP, sum(map(len, body))), *body]


def reference_serialize_frame(frame: Frame) -> bytes:
    """A frame's bytes, unit by unit: a parsed tile group's kept bytes, a
    one-stub group packed whole, or else the group's fields."""
    out = [struct.pack("<BI", UnitType.TEMPORAL_DELIMITER, 0)]
    for layer in frame.layers:
        h = layer.header
        flags = (1 if h.cdf_update_disabled else 0) | (2 if h.global_mv_zero else 0)
        out.append(struct.pack("<BIIBBBB", UnitType.FRAME_HEADER, 8, h.frame_index, h.layer_id,
                               h.frame_type, flags, h.base_ref_offset))
        for group in layer.tile_groups:
            out += _ref_group_pieces(group)
    return b"".join(out)


def reference_rewrite_viewport_frame(frame: Frame, selected, config: SequenceConfig) -> Frame:
    """The rewrite tile by tile over the whole grid: the range check, the
    layer lookup, the forwarded groups, then the first missing tile."""
    grid = range(config.tile_count)
    if not all(t in grid for t in selected):
        raise BadIndexError("selected tiles outside grid")
    base = next((l for l in frame.layers if l.header.layer_id == LayerId.BASE), None)
    enhanced = next((l for l in frame.layers if l.header.layer_id == LayerId.ENHANCED), None)
    if base is None or enhanced is None:
        raise InvalidStructureError("input frame must carry a base and an enhanced layer")
    stubs = _stub_groups(config)
    groups = list(stubs)
    for group in enhanced.tile_groups:
        for tile in group.tiles:
            t = tile.tile_index
            if tile.tile_kind == TileKind.CODED and t in selected:
                alone = len(group.tiles) == 1 and group.tg_start == group.tg_end == t
                groups[t] = group if alone else TileGroup(t, t, (tile,))
    missing = [t for t in grid if t in selected and groups[t] is stubs[t]]
    if missing:
        raise TileMissingError(missing[0])
    h = enhanced.header
    header = FrameHeader(h.frame_index, h.layer_id, h.frame_type, True, True, h.base_ref_offset)
    return Frame(layers=(base, LayerFrame(header, tuple(groups))))


def _ref_apply_residual(ref: np.ndarray, res: np.ndarray) -> np.ndarray:
    return (ref.astype(np.int16) + res.astype(np.int16)).astype(np.uint8)


def _ref_tile_region(config: SequenceConfig, tile_index: int) -> tuple[slice, slice]:
    col, row = config.tile_position(tile_index)
    tw, th = config.tile_width, config.tile_height
    return slice(row * th, (row + 1) * th), slice(col * tw, (col + 1) * tw)


def _ref_layer_tile_grid(config: SequenceConfig) -> tuple[int, int]:
    if config.base_single_tile:
        return 1, 1
    return config.tile_cols, config.tile_rows


def _ref_decode_base_frames(bitstream: Bitstream, upto: int) -> list[np.ndarray]:
    config = bitstream.config
    bw, bh = config.base_width, config.base_height
    cols, rows = _ref_layer_tile_grid(config)
    tw, th = bw // cols, bh // rows
    decoded: list[np.ndarray] = []
    for i in range(upto + 1):
        frame = bitstream.frames[i]
        base = next(
            (l for l in frame.layers if l.header.layer_id == LayerId.BASE), None
        )
        if base is None:
            raise MissingBaseError(i)
        key = base.header.frame_type == FrameType.KEY
        out = np.empty((bh, bw), dtype=np.uint8)
        for group in base.tile_groups:
            for tile in group.tiles:
                col, row = tile.tile_index % cols, tile.tile_index // cols
                rs = slice(row * th, (row + 1) * th)
                cs = slice(col * tw, (col + 1) * tw)
                raw = rle_decompress(tile.coded_payload, th * tw)
                region = np.frombuffer(raw, dtype=np.uint8).reshape(th, tw)
                if key:
                    out[rs, cs] = region
                else:
                    out[rs, cs] = _ref_apply_residual(decoded[i - 1][rs, cs], region)
        decoded.append(out)
    return decoded


def reference_decode_frame(
    bitstream: Bitstream, frame_index: int, received_tiles: set[int]
) -> RasterFrame:
    """The decoder that rebuilds the base layer from frame 0;
    ``codec.decode_frame`` must match it bit for bit on valid streams."""
    report = validate_structure(bitstream)
    if report:
        raise InvalidStructureError(
            f"stream fails validation: {report[0].rule} at frame {report[0].frame_index}"
        )
    config = bitstream.config
    if not 0 <= frame_index < len(bitstream.frames):
        raise MissingBaseError(frame_index)
    bases = _ref_decode_base_frames(bitstream, frame_index)
    sf = config.scale_factor

    def upsampled(i: int) -> np.ndarray:
        return upsample_nearest(RasterFrame(bases[i]), sf).samples

    out = upsampled(frame_index).copy()
    frame = bitstream.frames[frame_index]
    enh = next((l for l in frame.layers if l.header.layer_id == LayerId.ENHANCED), None)
    if enh is None:
        return RasterFrame(out)
    ref = None
    for group in enh.tile_groups:
        for tile in group.tiles:
            if tile.tile_kind != TileKind.CODED or tile.tile_index not in received_tiles:
                continue
            if ref is None:
                ref = upsampled(frame_index - enh.header.base_ref_offset)
            rs, cs = _ref_tile_region(config, tile.tile_index)
            raw = rle_decompress(tile.coded_payload, config.tile_height * config.tile_width)
            res = np.frombuffer(raw, dtype=np.uint8).reshape(
                config.tile_height, config.tile_width
            )
            out[rs, cs] = _ref_apply_residual(ref[rs, cs], res)
    return RasterFrame(out)


# Every frame of an encoded stream is a temporal delimiter unit (a bare unit
# header), then per layer a frame header unit (unit header and 8 bytes) and
# its tile groups.  The reference tables read only the tile tables of
# rate_records and price the delimiter and frame headers themselves.
_REF_DELIMITER_BYTES = UNIT_HEADER_SIZE
_REF_FRAME_HEADER_BYTES = UNIT_HEADER_SIZE + 8


def _ref_tile_table(stream, layer_id):
    """Per frame, each tile group's bytes keyed by its first tile: the nonzero
    entries of one layer's tile table (a group is never 0 bytes)."""
    _, tiles = rate_records(stream)[layer_id]
    return [{t: n for t, n in enumerate(row) if n} for row in tiles]


def _ref_svc_tables(config: SequenceConfig, seed: int, cycle: int):
    source = generate_content(seed, config, cycle)
    stream = encode_svc(source)
    base_bytes = [_REF_DELIMITER_BYTES + _REF_FRAME_HEADER_BYTES + sum(groups.values())
                  for groups in _ref_tile_table(stream, LayerId.BASE)]
    enh_header = [_REF_FRAME_HEADER_BYTES] * cycle
    coded = _ref_tile_table(stream, LayerId.ENHANCED)
    skip_group_bytes = tile_group_size(_stub_groups(config)[0])
    return base_bytes, enh_header, coded, skip_group_bytes


def _ref_track_tables(source, gop: int, resolution, cycle: int):
    stream = encode_track(source, gop, resolution)
    header = [_REF_DELIMITER_BYTES + _REF_FRAME_HEADER_BYTES] * cycle
    return header, _ref_tile_table(stream, LayerId.BASE)


def expected_gop_wait_ms(gop: int, fps) -> float:
    """Mean wait imposed by GOP-aligned switching: half a GOP of frames."""
    if gop < 1:
        raise BadArgsError("gop must be >= 1")
    fps = float(fps)
    if fps <= 0:
        raise BadArgsError("fps must be positive")
    return 1000.0 * gop / (2.0 * fps)


def _ref_lcm(*values: int) -> int:
    out = 1
    for v in values:
        if v:
            out = math.lcm(out, v)
    return out


def reference_run_session(
    scheme,
    trace,
    network,
    config: SequenceConfig,
    source_seed: int,
    *,
    projection_kind=ProjectionKind.ERP,
    duration_ms=None,
) -> SessionReport:
    """The session loop that rebuilds its size tables on every call and
    recomputes every tick; ``simulator.run_session`` must equal it in
    switches, seconds and every FrameLog."""
    times = [t for t, _ in trace]
    period = config.frame_period_ms
    projection = Projection(projection_kind, config.width, config.height)

    if scheme.kind == SchemeKind.SVC:
        cycle = config.gop_size
        base_bytes, enh_header, coded, skip_bytes = _ref_svc_tables(config, source_seed, cycle)
        settle_ticks = 4
    else:
        cycle = _ref_lcm(scheme.long_gop, scheme.short_gop)
        source = generate_content(source_seed, config, cycle)
        long_header, long_tiles = _ref_track_tables(
            source, scheme.long_gop, TrackResolution.FULL, cycle)
        if scheme.short_gop > 0:
            short_header, short_tiles = _ref_track_tables(
                source, scheme.short_gop, TrackResolution.FULL, cycle)
        else:
            short_header, short_tiles = None, None
        low_header, low_tiles = _ref_track_tables(
            source, scheme.long_gop, TrackResolution.BASE, cycle)
        settle_ticks = scheme.long_gop + scheme.short_gop + 4

    if duration_ms is None:
        duration_ms = times[-1] + settle_ticks * period
    n_ticks = int(math.ceil(duration_ms / period)) + 1

    tile_cache = {}

    def tiles_of(vp):
        if vp not in tile_cache:
            tile_cache[vp] = frozenset(select_tiles(vp, projection, config))
        return tile_cache[vp]

    pose_known_at = [times[0]] + [t + network.uplink_delay_ms for t in times[1:]]
    poses = [vp for _, vp in trace]

    frames = []
    seconds: dict[int, dict[str, int]] = {}
    known_idx = 0
    # first_tick[i]: the first tick whose known pose is pose i or a later one.
    first_tick = []
    committed_long_idx = 0
    committed_short_idx = None

    for k in range(n_ticks):
        t_k = k * period
        while known_idx + 1 < len(poses) and pose_known_at[known_idx + 1] <= t_k + period * _TICK_EPS:
            known_idx += 1
        while len(first_tick) <= known_idx:
            first_tick.append(k)
        known = poses[known_idx]
        j = k % cycle
        payload: dict[str, int] = {}

        if scheme.kind == SchemeKind.SVC:
            sel = tiles_of(known)
            payload["base"] = base_bytes[j]
            payload["enhanced"] = (
                enh_header[j]
                + sum(coded[j][t] for t in sel)
                + (config.tile_count - len(sel)) * skip_bytes
            )
            hq = sel
            sent = sel
        else:
            if k % scheme.long_gop == 0:
                committed_long_idx = known_idx
            if scheme.short_gop > 0:
                if committed_long_idx == known_idx:
                    committed_short_idx = None
                elif k % scheme.short_gop == 0:
                    committed_short_idx = known_idx
            long_region = tiles_of(poses[committed_long_idx])
            payload["low"] = low_header[j] + sum(low_tiles[j].values())
            payload["long"] = long_header[j] + sum(long_tiles[j][t] for t in long_region)
            hq = long_region
            sent = long_region
            if committed_short_idx is not None:
                short_region = tiles_of(poses[committed_short_idx])
                payload["short"] = short_header[j] + sum(
                    short_tiles[j][t] for t in short_region
                )
                hq = hq | short_region
                sent = sent | short_region

        total = sum(payload.values())
        arrival = t_k + network.downlink_delay_ms + network.serialization_ms(total)
        display = (math.floor(arrival / period + _TICK_EPS) + 1) * period
        frames.append(FrameLog(k, display, frozenset(hq), frozenset(sent), payload))
        bucket = seconds.setdefault(int(t_k // 1000.0), {})
        for name, n in payload.items():
            bucket[name] = bucket.get(name, 0) + n

    # Poses never known, and the stop of the last switch, lie at n_ticks.
    first_tick += [n_ticks] * (len(trace) + 1 - len(first_tick))
    switches = []
    for i in range(1, len(trace)):
        t, vp = trace[i]
        required = tiles_of(vp)
        k0, k_stop = first_tick[i], first_tick[i + 1]
        mtp = frames[k0].display_ms - t if k0 < n_ticks else None
        mthq = None
        for k in range(k0, k_stop):
            if required <= frames[k].hq_tiles:
                mthq = frames[k].display_ms - t
                break
        switches.append(SwitchSample(t_ms=t, mtp_ms=mtp, mthq_ms=mthq))
    return SessionReport(
        scheme_label=scheme.label,
        frame_period_ms=period,
        switches=switches,
        seconds=seconds,
        frames=tuple(frames),
    )


def reference_write_report_csv(report: SessionReport, path) -> None:
    """The CSV report written row by row through ``csv.writer``;
    ``simulator.write_report_csv`` must equal it byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "scheme", "t_ms", "mtp_ms", "mthq_ms", "second", "stream", "bytes"])
        for s in report.switches:
            writer.writerow(
                ["switch", report.scheme_label, s.t_ms,
                 s.mtp_ms, s.mthq_ms if s.mthq_ms is not None else "NOT_REACHED", "", "", ""]
            )
        for sec, streams in sorted(report.seconds.items()):
            for name, n in sorted(streams.items()):
                writer.writerow(["second", report.scheme_label, "", "", "", sec, name, n])


def reference_write_report_json(report: SessionReport, path) -> None:
    """The JSON report as one call of ``json.dumps`` and a newline;
    ``simulator.write_report_json`` must equal it byte for byte."""
    with open(path, "w") as fh:
        fh.write(json.dumps(report_to_json(report)) + "\n")
