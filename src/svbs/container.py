"""Scalable viewport bitstream (SVB) container: object model, bit-exact
serialization, parsing, and structural validation.

Wire layout (little-endian throughout):

    magic "SVBS" | version u8=1 | sequence header (15 bytes)
    then repeated units: unit_type u8 | payload_size u32 | payload

Sequence header: width u16, height u16, scale_factor u8, tile_cols u8,
tile_rows u8, fps_num u16, fps_den u16, gop_size u16, flags u8
(bit0=base_single_tile), ref_window u8.

FrameHeader payload: frame_index u32, layer_id u8, frame_type u8, flags u8
(bit0=cdf_update_disabled, bit1=global_mv_zero), base_ref_offset u8.

TileGroup payload: tg_start u16, tg_end u16, then per tile: tile_index u16,
tile_kind u8, then either coded length u32 + bytes (CODED) or
superblock_count u16 + 6-byte superblock mode record (SKIPPED).

Temporal delimiters carry no payload, unnamed flag bits are 0, boolean
bytes are 0 or 1, and a frame's metadata precedes its layers.  The parser
refuses anything else, so parsing and serialization map the model and the
bytes one to one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from .config import SequenceConfig
from .errors import (
    BadMagicError,
    InvalidStructureError,
    TruncatedError,
    UnknownUnitTypeError,
)

MAGIC = b"SVBS"
VERSION = 1
HEADER_SIZE = 20
UNIT_HEADER_SIZE = 5
SUPERBLOCK_MODE_SIZE = 6
# A frame header unit: the unit header and its fixed 8-byte payload.
FRAME_HEADER_UNIT_SIZE = UNIT_HEADER_SIZE + 8


class UnitType(IntEnum):
    TEMPORAL_DELIMITER = 0
    FRAME_HEADER = 1
    TILE_GROUP = 2
    METADATA = 3


class LayerId(IntEnum):
    BASE = 0
    ENHANCED = 1


class FrameType(IntEnum):
    KEY = 0
    INTER = 1


class TileKind(IntEnum):
    CODED = 0
    SKIPPED = 1


class PartitionMode(IntEnum):
    PARTITION_NONE = 0
    PARTITION_HORZ = 1
    PARTITION_VERT = 2
    PARTITION_SPLIT = 3


class RefFrames(IntEnum):
    REF_TO_BASE_LAYER_ONLY = 0
    REF_TO_PREVIOUS_FRAME = 1


class InterMode(IntEnum):
    ZERO_MV = 0
    NEW_MV = 1


@dataclass(frozen=True)
class SuperblockMode:
    """Per-superblock syntax elements carried by a skipped tile stub."""

    partition_mode: PartitionMode
    skip: bool
    is_inter: bool
    ref_frames: RefFrames
    inter_mode: InterMode
    use_obmc: bool

    def to_bytes(self) -> bytes:
        """One byte per field, in field order."""
        return bytes((self.partition_mode, self.skip, self.is_inter, self.ref_frames,
                      self.inter_mode, self.use_obmc))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SuperblockMode":
        p, s, i, r, m, o = struct.unpack("<6B", raw)
        return cls(PartitionMode(p), _flag(s), _flag(i), RefFrames(r), InterMode(m), _flag(o))


def _flag(byte: int) -> bool:
    """A boolean byte, which is written as 0 or 1 only."""
    if byte > 1:
        raise ValueError(f"{byte} is not a valid bool")
    return byte == 1


@dataclass(frozen=True)
class Tile:
    tile_index: int
    tile_kind: TileKind
    coded_payload: bytes | None = None
    superblock_count: int | None = None
    skipped_mode: SuperblockMode | None = None

    def __post_init__(self) -> None:
        if self.tile_kind == TileKind.CODED:
            if self.coded_payload is None:
                raise InvalidStructureError("CODED tile requires coded_payload")
        else:
            if self.superblock_count is None or self.skipped_mode is None:
                raise InvalidStructureError(
                    "SKIPPED tile requires superblock_count and skipped_mode"
                )


@dataclass(frozen=True)
class TileGroup:
    tg_start: int
    tg_end: int
    tiles: tuple[Tile, ...]


@dataclass(frozen=True)
class FrameHeader:
    frame_index: int
    layer_id: LayerId
    frame_type: FrameType
    cdf_update_disabled: bool = False
    global_mv_zero: bool = False
    base_ref_offset: int = 0


@dataclass(frozen=True)
class LayerFrame:
    header: FrameHeader
    tile_groups: tuple[TileGroup, ...]


@dataclass(frozen=True)
class Frame:
    """One temporal unit: delimiter(s), optional metadata, then layers.

    A well-formed frame has exactly one temporal delimiter; the count is kept
    so malformed streams can still be parsed and reported by the validator.
    """

    layers: tuple[LayerFrame, ...]
    delimiter_count: int = 1
    metadata: tuple[bytes, ...] = ()

    def layer(self, layer_id: LayerId) -> LayerFrame | None:
        """The frame's first layer with ``layer_id``, or None."""
        return next((l for l in self.layers if l.header.layer_id == layer_id), None)


@dataclass(frozen=True)
class Bitstream:
    config: SequenceConfig
    frames: tuple[Frame, ...]


@dataclass(frozen=True)
class Violation:
    frame_index: int
    rule: str
    detail: str = ""


@dataclass(frozen=True)
class FrameSizes:
    frame_index: int
    delimiter_bytes: int
    metadata_bytes: int
    layer_bytes: dict[LayerId, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.delimiter_bytes + self.metadata_bytes + sum(self.layer_bytes.values())


@dataclass(frozen=True)
class RateRecord:
    """Serialized byte cost of one container unit, attributed to a tile."""

    frame_index: int
    layer_id: LayerId
    tile_index: int | None  # None for frame headers
    n_bytes: int


# --- serialization -----------------------------------------------------------


def serialize_sequence_header(config: SequenceConfig) -> bytes:
    flags = 1 if config.base_single_tile else 0
    return MAGIC + struct.pack(
        "<BHHBBBHHHBB",
        VERSION,
        config.width,
        config.height,
        config.scale_factor,
        config.tile_cols,
        config.tile_rows,
        config.fps_num,
        config.fps_den,
        config.gop_size,
        flags,
        config.ref_window,
    )


def _pack_unit(unit_type: UnitType, payload: bytes) -> bytes:
    return struct.pack("<BI", int(unit_type), len(payload)) + payload


def _frame_header_payload(header: FrameHeader) -> bytes:
    flags = (1 if header.cdf_update_disabled else 0) | (2 if header.global_mv_zero else 0)
    return struct.pack(
        "<IBBBB",
        header.frame_index,
        int(header.layer_id),
        int(header.frame_type),
        flags,
        header.base_ref_offset,
    )


def _tile_group_payload(group: TileGroup) -> bytes:
    parts = [struct.pack("<HH", group.tg_start, group.tg_end)]
    for tile in group.tiles:
        parts.append(struct.pack("<HB", tile.tile_index, int(tile.tile_kind)))
        if tile.tile_kind == TileKind.CODED:
            parts.append(struct.pack("<I", len(tile.coded_payload)))
            parts.append(tile.coded_payload)
        else:
            parts.append(struct.pack("<H", tile.superblock_count))
            parts.append(tile.skipped_mode.to_bytes())
    return b"".join(parts)


def iter_frame_units(frame: Frame):
    """Yield (unit_type, payload) pairs for one frame in wire order."""
    for _ in range(frame.delimiter_count):
        yield UnitType.TEMPORAL_DELIMITER, b""
    for blob in frame.metadata:
        yield UnitType.METADATA, blob
    for layer in frame.layers:
        yield UnitType.FRAME_HEADER, _frame_header_payload(layer.header)
        for group in layer.tile_groups:
            yield UnitType.TILE_GROUP, _tile_group_payload(group)


def tile_group_size(group: TileGroup) -> int:
    """Serialized bytes of one tile group unit."""
    return UNIT_HEADER_SIZE + len(_tile_group_payload(group))


def serialize_frame(frame: Frame) -> bytes:
    return b"".join(_pack_unit(t, p) for t, p in iter_frame_units(frame))


def serialized_frame_size(frame: Frame) -> int:
    return sum(UNIT_HEADER_SIZE + len(p) for _, p in iter_frame_units(frame))


def serialize(bitstream: Bitstream) -> bytes:
    """Serialize an object model that passes :func:`validate_structure` to
    bytes; deterministic and injective."""
    report = validate_structure(bitstream)
    if report:
        first = report[0]
        raise InvalidStructureError(
            f"refusing to serialize: {first.rule} at frame {first.frame_index}"
            f" ({len(report)} violation(s) total)"
        )
    parts = [serialize_sequence_header(bitstream.config)]
    for frame in bitstream.frames:
        parts.append(serialize_frame(frame))
    return b"".join(parts)


# --- parsing -----------------------------------------------------------------


_UNIT_HEADER = struct.Struct("<BI")
_SEQUENCE_FIELDS = struct.Struct("<HHBBBHHHBB")
_FRAME_HEADER = struct.Struct("<IBBBB")
_TG_RANGE = struct.Struct("<HH")
_TILE_HEADER = struct.Struct("<HB")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
# Wire bytes compared as plain ints, which is cheaper than building enums.
_CODED, _SKIPPED = int(TileKind.CODED), int(TileKind.SKIPPED)
_UNIT_DELIMITER, _UNIT_FRAME_HEADER, _UNIT_TILE_GROUP, _UNIT_METADATA = (
    int(UnitType.TEMPORAL_DELIMITER), int(UnitType.FRAME_HEADER),
    int(UnitType.TILE_GROUP), int(UnitType.METADATA),
)


def _parse_sequence_header(data: bytes) -> SequenceConfig:
    n = len(data)
    if n < len(MAGIC):
        if data == MAGIC[:n]:
            raise TruncatedError(n)
        raise BadMagicError("stream does not start with SVBS magic")
    if data[:4] != MAGIC:
        raise BadMagicError("stream does not start with SVBS magic")
    if n < 5:
        raise TruncatedError(4)
    version = data[4]
    if version != VERSION:
        raise BadMagicError(f"unsupported container version {version}")
    if n < HEADER_SIZE:
        raise TruncatedError(5)
    (w, h, sf, tc, tr, fn, fd, gop, flags, rw) = _SEQUENCE_FIELDS.unpack_from(data, 5)
    if flags > 1:
        raise InvalidStructureError(f"reserved sequence flag bits 0x{flags:02x} at offset 18")
    # The wire order is the field order.
    return SequenceConfig(w, h, sf, tc, tr, fn, fd, gop, flags == 1, rw)


def _parse_frame_header(data: bytes, start: int, size: int) -> FrameHeader:
    if size != 8:
        raise TruncatedError(start, f"frame header payload has {size} bytes, want 8")
    idx, layer, ftype, flags, ref = _FRAME_HEADER.unpack_from(data, start)
    try:
        layer_id = LayerId(layer)
        frame_type = FrameType(ftype)
    except ValueError as exc:
        raise InvalidStructureError(f"bad frame header enum at offset {start}: {exc}") from exc
    if flags > 3:
        raise InvalidStructureError(f"reserved frame flag bits 0x{flags:02x} at offset {start + 6}")
    return FrameHeader(idx, layer_id, frame_type, bool(flags & 1), bool(flags & 2), ref)


def _parse_tile_group(
    data: bytes, start: int, end: int, modes: dict[bytes, SuperblockMode]
) -> TileGroup:
    """The tile group unit whose payload is ``data[start:end]``, read in place.

    Offsets in errors are absolute.  ``modes`` maps each 6-byte mode record
    already seen in this parse to its SuperblockMode.
    """
    if end - start < 4:
        raise TruncatedError(start)
    tg_start, tg_end = _TG_RANGE.unpack_from(data, start)
    pos = start + 4
    tiles = []
    while pos < end:
        if end - pos < 3:
            raise TruncatedError(pos)
        tile_index, kind = _TILE_HEADER.unpack_from(data, pos)
        pos += 3
        if kind == _CODED:
            if end - pos < 4:
                raise TruncatedError(pos)
            (size,) = _U32.unpack_from(data, pos)
            pos += 4
            if end - pos < size:
                raise TruncatedError(pos)
            tiles.append(
                Tile(tile_index, TileKind.CODED, coded_payload=data[pos : pos + size])
            )
            pos += size
        elif kind == _SKIPPED:
            if end - pos < 2:
                raise TruncatedError(pos)
            (sb_count,) = _U16.unpack_from(data, pos)
            pos += 2
            if end - pos < SUPERBLOCK_MODE_SIZE:
                raise TruncatedError(pos)
            raw = data[pos : pos + SUPERBLOCK_MODE_SIZE]
            mode = modes.get(raw)
            if mode is None:
                try:
                    mode = modes[raw] = SuperblockMode.from_bytes(raw)
                except ValueError as exc:
                    raise InvalidStructureError(
                        f"bad superblock mode at offset {pos}: {exc}"
                    ) from exc
            pos += SUPERBLOCK_MODE_SIZE
            tiles.append(
                Tile(tile_index, TileKind.SKIPPED, superblock_count=sb_count, skipped_mode=mode)
            )
        else:
            raise InvalidStructureError(f"bad tile kind {kind} at offset {pos - 1}")
    return TileGroup(tg_start=tg_start, tg_end=tg_end, tiles=tuple(tiles))


def parse(data: bytes) -> Bitstream:
    """Decode bytes into the object model; the exact inverse of serialization.

    Only bytes the serializer writes are accepted, so re-serializing the
    header and frames of a parsed stream gives back ``data``.  Every unit is
    read in place; each coded payload and metadata blob is copied once.
    Errors carry the absolute byte offset of the fault.
    """
    config = _parse_sequence_header(data)
    modes: dict[bytes, SuperblockMode] = {}

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

    n = len(data)
    pos = HEADER_SIZE
    while pos < n:
        unit_offset = pos
        if n - pos < UNIT_HEADER_SIZE:
            raise TruncatedError(pos)
        type_byte, size = _UNIT_HEADER.unpack_from(data, pos)
        start = pos + UNIT_HEADER_SIZE
        pos = start + size
        if pos > n:
            raise TruncatedError(start)

        if type_byte == _UNIT_TILE_GROUP:
            if not layers:
                raise InvalidStructureError(
                    f"tile group without preceding frame header at offset {unit_offset}"
                )
            layers[-1][1].append(_parse_tile_group(data, start, pos, modes))
        elif type_byte == _UNIT_FRAME_HEADER:
            header = _parse_frame_header(data, start, size)
            open_frame = True
            layers.append((header, []))
        elif type_byte == _UNIT_DELIMITER:
            if size:
                raise InvalidStructureError(f"temporal delimiter payload at offset {unit_offset}")
            if open_frame and (layers or metadata):
                flush()
            open_frame = True
            delims += 1
        elif type_byte == _UNIT_METADATA:
            if layers:
                # Serialization writes a frame's metadata before its layers.
                raise InvalidStructureError(f"metadata after frame header at offset {unit_offset}")
            open_frame = True
            metadata.append(data[start:pos])
        else:
            raise UnknownUnitTypeError(type_byte, unit_offset)
    flush()
    return Bitstream(config=config, frames=tuple(frames))


# --- validation --------------------------------------------------------------

R_TEMPORAL_DELIM = "R_TEMPORAL_DELIM"
R_LAYER_ORDER = "R_LAYER_ORDER"
R_TEMPORAL_IN_ENH = "R_TEMPORAL_IN_ENH"
R_CLOSED_GOP = "R_CLOSED_GOP"
R_REF_WINDOW = "R_REF_WINDOW"
R_FRAME_INDEX = "R_FRAME_INDEX"
R_TG_RANGE = "R_TG_RANGE"
R_TILE_COVERAGE = "R_TILE_COVERAGE"
R_SKIP_IN_BASE = "R_SKIP_IN_BASE"
R_SKIP_FLAGS = "R_SKIP_FLAGS"


def _check_layer_tiles(
    out: list[Violation], pos: int, layer: LayerFrame, config: SequenceConfig
) -> None:
    cols, rows = config.layer_grid(layer.header.layer_id == LayerId.BASE)
    count = cols * rows
    seen: set[int] = set()
    has_skipped = False
    range_broken = False
    for group in layer.tile_groups:
        if group.tg_start > group.tg_end:
            out.append(Violation(pos, R_TG_RANGE, f"tg_start {group.tg_start} > tg_end {group.tg_end}"))
            range_broken = True
            continue
        if group.tg_end >= count:
            out.append(Violation(pos, R_TG_RANGE, f"tg_end {group.tg_end} outside {cols}x{rows} grid"))
            range_broken = True
            continue
        expected = list(range(group.tg_start, group.tg_end + 1))
        actual = [t.tile_index for t in group.tiles]
        if actual != expected:
            out.append(
                Violation(pos, R_TG_RANGE, f"tiles {actual} do not match tg range {expected}")
            )
            range_broken = True
        for tile in group.tiles:
            if tile.tile_index in seen:
                out.append(Violation(pos, R_TILE_COVERAGE, f"tile {tile.tile_index} covered twice"))
            seen.add(tile.tile_index)
            if tile.tile_kind == TileKind.SKIPPED:
                has_skipped = True
                if layer.header.layer_id == LayerId.BASE:
                    out.append(Violation(pos, R_SKIP_IN_BASE, f"tile {tile.tile_index}"))
    if len(seen) != count and not range_broken:
        out.append(
            Violation(pos, R_TILE_COVERAGE, f"layer covers {len(seen)} of {count} grid tiles")
        )
    if has_skipped and layer.header.layer_id == LayerId.ENHANCED:
        if not (layer.header.cdf_update_disabled and layer.header.global_mv_zero):
            out.append(
                Violation(
                    pos,
                    R_SKIP_FLAGS,
                    "skipped tiles require cdf_update_disabled and global_mv_zero",
                )
            )


def validate_structure(bitstream: Bitstream) -> list[Violation]:
    """Structural rule check; empty list means the stream is well formed.

    Violations are data, not exceptions: malformed hand-built models are
    reported rule by rule with the offending frame position.
    """
    out: list[Violation] = []
    config = bitstream.config
    gop = config.gop_size
    for pos, frame in enumerate(bitstream.frames):
        if frame.delimiter_count != 1:
            out.append(
                Violation(pos, R_TEMPORAL_DELIM, f"{frame.delimiter_count} delimiters, want 1")
            )
        if not frame.layers:
            out.append(Violation(pos, R_TEMPORAL_DELIM, "frame has no layers"))
            continue
        prev_layer: LayerId | None = None
        base_seen = False
        for layer in frame.layers:
            header = layer.header
            if header.frame_index != pos:
                out.append(
                    Violation(pos, R_FRAME_INDEX, f"header says frame {header.frame_index}")
                )
            if header.layer_id == LayerId.BASE:
                if base_seen:
                    out.append(Violation(pos, R_LAYER_ORDER, "duplicate base layer"))
                if prev_layer == LayerId.ENHANCED:
                    out.append(Violation(pos, R_LAYER_ORDER, "base layer after enhanced"))
                base_seen = True
                if header.frame_type == FrameType.INTER and pos % gop == 0:
                    out.append(Violation(pos, R_CLOSED_GOP, "INTER base frame at GOP start"))
                if header.frame_type == FrameType.KEY and header.base_ref_offset != 0:
                    out.append(Violation(pos, R_CLOSED_GOP, "KEY frame with nonzero reference"))
            else:
                if prev_layer == LayerId.ENHANCED:
                    # A second enhanced layer can only predict from the
                    # enhanced layer below it, which the schema forbids.
                    out.append(
                        Violation(pos, R_TEMPORAL_IN_ENH, "enhanced layer stacked on enhanced")
                    )
                elif not base_seen:
                    out.append(Violation(pos, R_LAYER_ORDER, "enhanced layer without base"))
                off = header.base_ref_offset
                if off >= config.ref_window:
                    out.append(
                        Violation(pos, R_REF_WINDOW, f"base_ref_offset {off} >= ref_window")
                    )
                target = pos - off
                if target < 0 or target < (pos // gop) * gop:
                    out.append(
                        Violation(
                            pos, R_CLOSED_GOP, f"base reference {target} crosses GOP boundary"
                        )
                    )
            _check_layer_tiles(out, pos, layer, config)
            prev_layer = header.layer_id
    return out


# --- byte accounting ---------------------------------------------------------


def frame_byte_sizes(bitstream: Bitstream) -> list[FrameSizes]:
    """Serialized byte count of every frame, split by layer.

    Totals sum to the serialized file size minus the fixed sequence header.
    """
    report = validate_structure(bitstream)
    if report:
        raise InvalidStructureError(f"{len(report)} structural violation(s)")
    sizes = []
    for pos, frame in enumerate(bitstream.frames):
        meta = sum(UNIT_HEADER_SIZE + len(m) for m in frame.metadata)
        sizes.append(FrameSizes(pos, frame.delimiter_count * UNIT_HEADER_SIZE, meta))
    for rec in rate_records(bitstream):
        per_layer = sizes[rec.frame_index].layer_bytes
        per_layer[rec.layer_id] = per_layer.get(rec.layer_id, 0) + rec.n_bytes
    return sizes


def rate_records(bitstream: Bitstream) -> list[RateRecord]:
    """Serialized unit costs per frame and layer: tile groups attributed to
    their tile, frame headers to tile_index None.  No record covers a
    frame's temporal delimiters or metadata."""
    records = []
    for pos, frame in enumerate(bitstream.frames):
        for layer in frame.layers:
            layer_id = layer.header.layer_id
            records.append(RateRecord(pos, layer_id, None, FRAME_HEADER_UNIT_SIZE))
            for group in layer.tile_groups:
                records.append(RateRecord(pos, layer_id, group.tg_start, tile_group_size(group)))
    return records
