"""Shared builders for randomized, structurally valid stream models, and
straightforward reference versions of the optimized kernels, the parser,
the decoder and the session simulator."""

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
    InterMode,
    LayerFrame,
    LayerId,
    PartitionMode,
    RefFrames,
    SuperblockMode,
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
    BadMagicError,
    InvalidStructureError,
    MissingBaseError,
    TruncatedError,
    UnknownUnitTypeError,
)
from svbs.geometry import Projection, ProjectionKind, _frustum_mask, _unproject, select_tiles
from svbs.rewriter import _skipped_tile_group
from svbs.simulator import (
    _TICK_EPS,
    FrameLog,
    SchemeKind,
    SessionReport,
    SwitchSample,
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
                    tile_kind=TileKind.SKIPPED,
                    superblock_count=rng.randint(1, 100),
                    skipped_mode=random_mode(rng),
                )
            )
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


# The cube-map face code as it was before the face table: six-way branches
# over face constants.  geometry._project_cubemap and _unproject_cubemap
# must equal these bit for bit.
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


def _ref_flag(byte: int) -> bool:
    if byte not in (0, 1):
        raise ValueError(f"{byte} is not a valid bool")
    return bool(byte)


def _ref_mode(raw: bytes) -> SuperblockMode:
    p, s, i, r, m, o = raw
    return SuperblockMode(PartitionMode(p), _ref_flag(s), _ref_flag(i), RefFrames(r),
                          InterMode(m), _ref_flag(o))


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
                try:
                    mode = _ref_mode(sub.take(SUPERBLOCK_MODE_SIZE))
                except ValueError as exc:
                    raise InvalidStructureError(
                        f"bad superblock mode at offset {mode_offset}: {exc}"
                    ) from exc
                tiles.append(
                    Tile(tile_index, tile_kind, superblock_count=sb_count, skipped_mode=mode)
                )
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

    frames: list[Frame] = []
    # Pending state of the frame being assembled.
    delims = 0
    metadata: list[bytes] = []
    layers: list[tuple[FrameHeader, list[TileGroup]]] = []
    open_frame = False

    def flush() -> None:
        nonlocal delims, metadata, layers, open_frame
        if not open_frame:
            return
        frames.append(
            Frame(
                layers=tuple(LayerFrame(h, tuple(gs)) for h, gs in layers),
                delimiter_count=delims,
                metadata=tuple(metadata),
            )
        )
        delims = 0
        metadata = []
        layers = []
        open_frame = False

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
            if open_frame and (layers or metadata):
                flush()
            open_frame = True
            delims += 1
        elif unit_type == UnitType.METADATA:
            if layers:
                raise InvalidStructureError(f"metadata after frame header at offset {unit_offset}")
            open_frame = True
            metadata.append(payload)
        elif unit_type == UnitType.FRAME_HEADER:
            header = _ref_parse_frame_header(payload, unit_offset + UNIT_HEADER_SIZE)
            open_frame = True
            layers.append((header, []))
        else:  # TILE_GROUP
            if not layers:
                raise InvalidStructureError(
                    f"tile group without preceding frame header at offset {unit_offset}"
                )
            group = _ref_parse_tile_group(payload, unit_offset + UNIT_HEADER_SIZE)
            layers[-1][1].append(group)
    flush()
    return Bitstream(config=config, frames=tuple(frames))


# The decoder's original residual arithmetic (through int16) and tile
# geometry, kept here so the reference does not move with the code under test.
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
        return upsample_nearest(RasterFrame(config.base_width, config.base_height, bases[i]), sf).samples

    out = upsampled(frame_index).copy()
    frame = bitstream.frames[frame_index]
    enh = next((l for l in frame.layers if l.header.layer_id == LayerId.ENHANCED), None)
    if enh is None:
        return RasterFrame(config.width, config.height, out)
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
    return RasterFrame(config.width, config.height, out)


def _ref_svc_tables(config: SequenceConfig, seed: int, cycle: int):
    source = generate_content(seed, config, cycle)
    stream = encode_svc(source)
    base_bytes = [UNIT_HEADER_SIZE] * cycle
    enh_header = [0] * cycle
    coded: list[dict[int, int]] = [dict() for _ in range(cycle)]
    for rec in rate_records(stream):
        if rec.layer_id == LayerId.BASE:
            base_bytes[rec.frame_index] += rec.n_bytes
        elif rec.tile_index is None:
            enh_header[rec.frame_index] += rec.n_bytes
        else:
            coded[rec.frame_index][rec.tile_index] = rec.n_bytes
    skip_group_bytes = tile_group_size(_skipped_tile_group(0, config))
    return base_bytes, enh_header, coded, skip_group_bytes


def _ref_track_tables(source, gop: int, resolution, cycle: int):
    stream = encode_track(source, gop, resolution)
    header = [UNIT_HEADER_SIZE] * cycle
    tiles: list[dict[int, int]] = [dict() for _ in range(cycle)]
    for rec in rate_records(stream):
        if rec.tile_index is None:
            header[rec.frame_index] += rec.n_bytes
        else:
            tiles[rec.frame_index][rec.tile_index] = rec.n_bytes
    return header, tiles


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
    cycle_frames=None,
) -> SessionReport:
    """The session loop that rebuilds its size tables on every call and
    recomputes every tick; ``simulator.run_session`` must equal it in
    switches, seconds and every FrameLog."""
    times = [t for t, _ in trace]
    period = config.frame_period_ms
    projection = Projection(projection_kind, config.width, config.height)

    if scheme.kind == SchemeKind.SVC:
        cycle = cycle_frames or config.gop_size
        base_bytes, enh_header, coded, skip_bytes = _ref_svc_tables(config, source_seed, cycle)
        settle_ticks = 4
    else:
        low_gop = scheme.low_gop or scheme.long_gop
        cycle = cycle_frames or _ref_lcm(scheme.long_gop, scheme.short_gop, low_gop)
        source = generate_content(source_seed, config, cycle)
        long_header, long_tiles = _ref_track_tables(
            source, scheme.long_gop, TrackResolution.FULL, cycle)
        if scheme.short_gop > 0:
            short_header, short_tiles = _ref_track_tables(
                source, scheme.short_gop, TrackResolution.FULL, cycle)
        else:
            short_header, short_tiles = None, None
        low_header, low_tiles = _ref_track_tables(source, low_gop, TrackResolution.BASE, cycle)
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
    committed_long_idx = 0
    committed_short_idx = None

    for k in range(n_ticks):
        t_k = k * period
        while known_idx + 1 < len(poses) and pose_known_at[known_idx + 1] <= t_k + period * _TICK_EPS:
            known_idx += 1
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

    switches = []
    for i in range(1, len(trace)):
        t, vp = trace[i]
        required = tiles_of(vp)
        k0 = math.ceil(pose_known_at[i] / period - _TICK_EPS)
        k_stop = n_ticks
        if i + 1 < len(trace):
            k_stop = min(n_ticks, math.ceil(pose_known_at[i + 1] / period - _TICK_EPS))
        mtp = frames[k0].display_ms - t if k0 < n_ticks else None
        mthq = None
        for k in range(min(k0, n_ticks), k_stop):
            if required <= frames[k].hq_tiles:
                mthq = frames[k].display_ms - t
                break
        switches.append(SwitchSample(t_ms=t, mtp_ms=mtp, mthq_ms=mthq))
    return SessionReport(
        scheme_label=scheme.label,
        frame_period_ms=period,
        switches=switches,
        seconds=seconds,
        frames=frames,
    )
