"""Scalable viewport bitstream (SVB) container: object model, bit-exact
serialization, parsing, and structural validation.

Wire layout (little-endian throughout):

    magic "SVBS" | version u8=1 | sequence header (15 bytes)
    then repeated units: unit_type u8 | payload_size u32 | payload

Sequence header: width u16, height u16, scale_factor u8 (>= 1; 1 is a
full-size base layer), tile_cols u8, tile_rows u8, fps_num u16, fps_den u16,
gop_size u16, flags u8 (bit0=base_single_tile), ref_window u8.  A
multi-track track is a stream whose frames hold the base layer alone.

FrameHeader payload: frame_index u32, layer_id u8, frame_type u8, flags u8
(bit0=cdf_update_disabled, bit1=global_mv_zero), base_ref_offset u8.

TileGroup payload: tg_start u16, tg_end u16, then per tile: tile_index u16,
tile_kind u8, then either coded length u32 + bytes (CODED) or
superblock_count u16 + the 6-byte superblock mode record
SKIPPED_MODE_RECORD (SKIPPED).

A frame is one temporal delimiter, then its layers: each a frame header
followed by its tile groups.  Delimiters carry no payload, unnamed flag bits
are 0 and every skipped tile carries SKIPPED_MODE_RECORD.  The parser
refuses anything else, so parsing and serialization map the model and the
bytes one to one.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, field
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


class UnitType(IntEnum):
    TEMPORAL_DELIMITER = 0
    FRAME_HEADER = 1
    TILE_GROUP = 2


class LayerId(IntEnum):
    BASE = 0
    ENHANCED = 1


class FrameType(IntEnum):
    KEY = 0
    INTER = 1


class TileKind(IntEnum):
    CODED = 0
    SKIPPED = 1


# Every member bound to a module name, in declaration order: the per-tile and
# per-layer loops read a module global several times faster than an attribute.
_UNIT_DELIMITER, _UNIT_FRAME_HEADER, _UNIT_TILE_GROUP = UnitType
_BASE, _ENHANCED = LayerId
_KEY, _INTER = FrameType
_CODED, _SKIPPED = TileKind

# The 6-byte superblock mode record of every skipped tile, one byte per
# syntax element: partition_mode PARTITION_NONE (0), skip (1), is_inter (1),
# ref_frames REF_TO_BASE_LAYER_ONLY (0), inter_mode ZERO_MV (0), use_obmc (0).
# Such a superblock decodes as the upscaled base; parse refuses any other.
SKIPPED_MODE_RECORD = bytes((0, 1, 1, 0, 0, 0))
SUPERBLOCK_MODE_SIZE = len(SKIPPED_MODE_RECORD)

# The fixed-size wire pieces, each one struct that serialize packs and parse
# unpacks: the sequence header, a unit header alone or with the fixed fields
# of a frame header or tile group unit after it, and a tile's fields before
# its coded payload or with its mode record.
_SEQUENCE_HEADER = struct.Struct("<4sBHHBBBHHHBB")
_UNIT_HEADER = struct.Struct("<BI")
_FRAME_HEADER_UNIT = struct.Struct("<BIIBBBB")
_TILE_GROUP_UNIT = struct.Struct("<BIHH")
_CODED_TILE = struct.Struct("<HBI")
_SKIPPED_TILE = struct.Struct(f"<HBH{SUPERBLOCK_MODE_SIZE}s")
# A one-stub tile group unit at any grid: unit header, tile range, skipped tile.
_STUB_GROUP_UNIT = struct.Struct(_TILE_GROUP_UNIT.format + _SKIPPED_TILE.format[1:])
HEADER_SIZE = _SEQUENCE_HEADER.size
UNIT_HEADER_SIZE = _UNIT_HEADER.size
FRAME_HEADER_UNIT_SIZE = _FRAME_HEADER_UNIT.size
STUB_GROUP_SIZE = _STUB_GROUP_UNIT.size


@dataclass(frozen=True, slots=True)
class Tile:
    tile_index: int
    tile_kind: TileKind
    coded_payload: bytes | memoryview | None = None  # parse gives a read-only memoryview
    superblock_count: int | None = None

    def __post_init__(self) -> None:
        if self.tile_kind == _CODED:
            if self.coded_payload is None:
                raise InvalidStructureError("CODED tile requires coded_payload")
        elif self.superblock_count is None:
            raise InvalidStructureError("SKIPPED tile requires superblock_count")


@dataclass(frozen=True, slots=True)
class TileGroup:
    tg_start: int
    tg_end: int
    tiles: tuple[Tile, ...]
    # The unit's bytes, set by parse alone; replace() and hand-built groups: None.
    wire: memoryview | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class FrameHeader:
    frame_index: int
    layer_id: LayerId
    frame_type: FrameType
    cdf_update_disabled: bool = False
    global_mv_zero: bool = False
    base_ref_offset: int = 0


@dataclass(frozen=True, slots=True)
class LayerFrame:
    header: FrameHeader
    tile_groups: tuple[TileGroup, ...]


@dataclass(frozen=True, slots=True)
class Frame:
    """One temporal unit: a temporal delimiter, then its layers."""

    layers: tuple[LayerFrame, ...]

    def layer(self, layer_id: LayerId) -> LayerFrame | None:
        """The frame's first layer with ``layer_id``, or None."""
        for layer in self.layers:
            if layer.header.layer_id == layer_id:
                return layer
        return None


@dataclass(frozen=True, slots=True)
class Bitstream:
    config: SequenceConfig
    frames: tuple[Frame, ...]


@dataclass(frozen=True, slots=True)
class Violation:
    frame_index: int
    rule: str
    detail: str = ""


# --- serialization -----------------------------------------------------------


def serialize_sequence_header(config: SequenceConfig) -> bytes:
    # The wire order is the field order; base_single_tile is flag bit 0.
    return _SEQUENCE_HEADER.pack(MAGIC, VERSION, *astuple(config))


_DELIMITER_UNIT = _UNIT_HEADER.pack(_UNIT_DELIMITER, 0)


def _group_pieces(pieces: list, groups) -> list:
    """Append the wire pieces of the tile group units ``groups`` to ``pieces``
    and return it: a parsed group's kept bytes, a one-stub group as one
    struct, or else the fields with coded payloads appended, not copied."""
    for group in groups:
        if (wire := group.wire) is not None:
            pieces.append(wire)
        elif len(tiles := group.tiles) == 1 and (tile := tiles[0]).tile_kind == _SKIPPED:
            pieces.append(_STUB_GROUP_UNIT.pack(
                _UNIT_TILE_GROUP, STUB_GROUP_SIZE - UNIT_HEADER_SIZE, group.tg_start, group.tg_end,
                tile.tile_index, _SKIPPED, tile.superblock_count, SKIPPED_MODE_RECORD))
        else:
            at = len(pieces)
            pieces.append(b"")  # the unit header, once the payload size is known
            size = 4  # the payload's tile range, then its tiles
            for tile in tiles:
                if tile.tile_kind == _CODED:
                    payload = tile.coded_payload
                    pieces += (_CODED_TILE.pack(tile.tile_index, _CODED, len(payload)), payload)
                    size += _CODED_TILE.size + len(payload)
                else:
                    pieces.append(_SKIPPED_TILE.pack(tile.tile_index, tile.tile_kind,
                                                     tile.superblock_count, SKIPPED_MODE_RECORD))
                    size += _SKIPPED_TILE.size
            pieces[at] = _TILE_GROUP_UNIT.pack(_UNIT_TILE_GROUP, size, group.tg_start, group.tg_end)
    return pieces


def _frame_pieces(frame: Frame) -> list:
    """The wire pieces of one frame, in order: the one walk that serializes
    and sizes a frame."""
    pieces = [_DELIMITER_UNIT]
    for layer in frame.layers:
        header = layer.header
        flags = (1 if header.cdf_update_disabled else 0) | (2 if header.global_mv_zero else 0)
        pieces.append(_FRAME_HEADER_UNIT.pack(
            _UNIT_FRAME_HEADER, 8, header.frame_index, header.layer_id, header.frame_type,
            flags, header.base_ref_offset))
        _group_pieces(pieces, layer.tile_groups)
    return pieces


def tile_group_size(group: TileGroup) -> int:
    """Serialized bytes of one tile group unit."""
    return sum(map(len, _group_pieces([], (group,))))


def serialize_frame(frame: Frame) -> bytes:
    """One frame's bytes, one join; a parsed tile group's are its kept bytes."""
    return b"".join(_frame_pieces(frame))


def serialized_frame_size(frame: Frame) -> int:
    return sum(map(len, _frame_pieces(frame)))


def serialize(bitstream: Bitstream) -> bytes:
    """Serialize an object model that passes :func:`validate_structure` to
    bytes; deterministic and injective.  The header and every frame's wire
    pieces are joined once, so no frame is copied before the output."""
    report = validate_structure(bitstream)
    if report:
        first = report[0]
        raise InvalidStructureError(
            f"refusing to serialize: {first.rule} at frame {first.frame_index}"
            f" ({len(report)} violation(s) total)"
        )
    return b"".join([serialize_sequence_header(bitstream.config),
                     *(piece for frame in bitstream.frames for piece in _frame_pieces(frame))])


# --- parsing -----------------------------------------------------------------


def _parse_sequence_header(data: bytes) -> SequenceConfig:
    n = len(data)
    # A prefix of the magic is a cut stream; anything else is not SVBS.
    if data[:len(MAGIC)] != MAGIC[:n]:
        raise BadMagicError("stream does not start with SVBS magic")
    if n <= len(MAGIC):
        raise TruncatedError(n)
    version = data[len(MAGIC)]
    if version != VERSION:
        raise BadMagicError(f"unsupported container version {version}")
    if n < HEADER_SIZE:
        raise TruncatedError(len(MAGIC) + 1)
    (_, _, w, h, sf, tc, tr, fn, fd, gop, flags, rw) = _SEQUENCE_HEADER.unpack_from(data)
    if flags > 1:
        raise InvalidStructureError(f"reserved sequence flag bits 0x{flags:02x} at offset 18")
    # The wire order is the field order.
    return SequenceConfig(w, h, sf, tc, tr, fn, fd, gop, flags == 1, rw)


def _parse_frame_header(data: bytes, unit: int) -> FrameHeader:
    """The frame header unit at offset ``unit``; offsets in errors are absolute."""
    _, _, idx, layer, ftype, flags, ref = _FRAME_HEADER_UNIT.unpack_from(data, unit)
    start = unit + UNIT_HEADER_SIZE
    try:
        layer_id = LayerId(layer)
        frame_type = FrameType(ftype)
    except ValueError as exc:
        raise InvalidStructureError(f"bad frame header enum at offset {start}: {exc}") from exc
    if flags > 3:
        raise InvalidStructureError(f"reserved frame flag bits 0x{flags:02x} at offset {start + 6}")
    return FrameHeader(idx, layer_id, frame_type, bool(flags & 1), bool(flags & 2), ref)


def _parse_tile_group(data: memoryview, unit: int, end: int) -> TileGroup:
    """The tile group unit at ``data[unit:end]``, read in place; each coded
    payload is a slice of ``data``.

    Offsets in errors are absolute: a truncation names the first field of a
    tile that does not fit (a tile's index and kind take 3 bytes).
    """
    pos = unit + _TILE_GROUP_UNIT.size
    if pos > end:
        raise TruncatedError(unit + UNIT_HEADER_SIZE)
    _, _, tg_start, tg_end = _TILE_GROUP_UNIT.unpack_from(data, unit)
    tiles = []
    while pos < end:
        if end - pos < 3:
            raise TruncatedError(pos)
        kind = data[pos + 2]
        if kind == _CODED:
            at = pos + _CODED_TILE.size
            if at > end:
                raise TruncatedError(pos + 3)
            tile_index, _, size = _CODED_TILE.unpack_from(data, pos)
            pos = at + size
            if pos > end:
                raise TruncatedError(at)
            tiles.append(Tile(tile_index, _CODED, data[at:pos]))
        elif kind == _SKIPPED:
            mode_at = pos + _SKIPPED_TILE.size - SUPERBLOCK_MODE_SIZE
            if end - pos < _SKIPPED_TILE.size:
                raise TruncatedError(pos + 3 if end < mode_at else mode_at)
            tile_index, _, sb_count, mode = _SKIPPED_TILE.unpack_from(data, pos)
            if mode != SKIPPED_MODE_RECORD:
                raise InvalidStructureError(
                    f"bad superblock mode at offset {mode_at}: {mode.hex()}, "
                    f"want {SKIPPED_MODE_RECORD.hex()}"
                )
            pos += _SKIPPED_TILE.size
            tiles.append(Tile(tile_index, _SKIPPED, superblock_count=sb_count))
        else:
            raise InvalidStructureError(f"bad tile kind {kind} at offset {pos + 2}")
    group = TileGroup(tg_start, tg_end, tuple(tiles))  # positional: keywords cost per group
    object.__setattr__(group, "wire", data[unit:end])
    return group


def parse(data: bytes, frames: range | None = None) -> Bitstream:
    """Decode bytes into the object model; the exact inverse of serialization.

    Only bytes the serializer writes are accepted, so re-serializing the
    header and frames of a parsed stream gives back ``data``.  Each temporal
    delimiter opens a frame; a frame header before the first one, a tile
    group before its frame header and an unknown unit type are refused.
    Every unit is read in place.  Each coded payload, and each tile group's
    kept bytes, is a read-only memoryview of the input, which is copied once
    first unless it is ``bytes``.  Tile groups with the same one-stub payload
    are one object.
    Errors carry the absolute byte offset of the fault.

    With ``frames``, only the frames at those positions are built; every
    other frame is ``Frame(())``, which :func:`validate_structure` flags, so
    a partly built stream does not serialize.  The unit headers of the whole
    stream are still walked, so every fault seen from a unit's type and size
    is refused wherever it lies; faults inside an unbuilt frame's units are not.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    view = memoryview(data)
    config = _parse_sequence_header(data)
    stubs: dict[bytes, TileGroup] = {}

    # The layers of each frame, as (header, tile groups) pairs, or () for an
    # unbuilt frame; ``layers`` is the open frame's list (one None per layer
    # when unbuilt), None before the first delimiter.
    out: list = []
    layers = None
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
            if not build:
                continue
            if pos - unit_offset != STUB_GROUP_SIZE:
                group = _parse_tile_group(view, unit_offset, pos)
            elif (group := stubs.get(data[start:pos])) is None:
                group = stubs[data[start:pos]] = _parse_tile_group(view, unit_offset, pos)
            layers[-1][1].append(group)
        elif type_byte == _UNIT_FRAME_HEADER:
            if layers is None:
                raise InvalidStructureError(
                    f"frame header before the first temporal delimiter at offset {unit_offset}"
                )
            if pos - unit_offset != FRAME_HEADER_UNIT_SIZE:
                raise TruncatedError(start, f"frame header payload has {size} bytes, want 8")
            layers.append((_parse_frame_header(data, unit_offset), []) if build else None)
        elif type_byte == _UNIT_DELIMITER:
            if size:
                raise InvalidStructureError(f"temporal delimiter payload at offset {unit_offset}")
            build = frames is None or len(out) in frames
            layers = []
            out.append(layers if build else ())
        else:
            raise UnknownUnitTypeError(type_byte, unit_offset)
    return Bitstream(config, tuple(
        Frame(tuple(LayerFrame(h, tuple(gs)) for h, gs in f)) for f in out
    ))


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
    is_base = layer.header.layer_id == _BASE
    cols, rows = config.layer_grid(is_base)
    count = cols * rows
    superblocks = config.tile_superblocks
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
            if tile.tile_kind == _SKIPPED:
                has_skipped = True
                if is_base:
                    out.append(Violation(pos, R_SKIP_IN_BASE, f"tile {tile.tile_index}"))
                elif tile.superblock_count != superblocks:
                    detail = f"tile {tile.tile_index} has {tile.superblock_count} superblocks"
                    out.append(Violation(pos, R_SKIP_FLAGS, f"{detail}, want {superblocks}"))
    if len(seen) != count and not range_broken:
        out.append(
            Violation(pos, R_TILE_COVERAGE, f"layer covers {len(seen)} of {count} grid tiles")
        )
    if has_skipped and layer.header.layer_id == _ENHANCED:
        if not (layer.header.cdf_update_disabled and layer.header.global_mv_zero):
            out.append(Violation(pos, R_SKIP_FLAGS,
                                 "skipped tiles require cdf_update_disabled and global_mv_zero"))


def validate_structure(bitstream: Bitstream, frames: range | None = None) -> list[Violation]:
    """Structural rule check; empty list means the stream is well formed.

    Violations are data, not exceptions: malformed hand-built models are
    reported rule by rule with the offending frame position.  Every rule
    reads only a frame, its position and the config, so ``frames`` (positions
    in the stream) checks just those frames.
    """
    out: list[Violation] = []
    config = bitstream.config
    gop = config.gop_size
    for pos in range(len(bitstream.frames)) if frames is None else frames:
        frame = bitstream.frames[pos]
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
            if header.layer_id == _BASE:
                if base_seen:
                    out.append(Violation(pos, R_LAYER_ORDER, "duplicate base layer"))
                if prev_layer == _ENHANCED:
                    out.append(Violation(pos, R_LAYER_ORDER, "base layer after enhanced"))
                base_seen = True
                if header.frame_type == _INTER and pos % gop == 0:
                    out.append(Violation(pos, R_CLOSED_GOP, "INTER base frame at GOP start"))
                if header.frame_type == _KEY and header.base_ref_offset != 0:
                    out.append(Violation(pos, R_CLOSED_GOP, "KEY frame with nonzero reference"))
            else:
                if prev_layer == _ENHANCED:
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


def rate_records(bitstream: Bitstream) -> dict[LayerId, tuple[list[int], list[list[int]]]]:
    """Serialized byte cost of every unit, as size tables per layer id.

    Each layer id, in order of first appearance, maps to its header bytes
    per frame and its tile-group bytes per frame and tile.  A frame's
    temporal delimiter is charged to the header of its first layer, and a
    tile group to its first tile (``tg_start``).  So the entries of a frame
    with layers sum to :func:`serialized_frame_size`, and those of a valid
    stream to its serialized size less ``HEADER_SIZE``.
    """
    n, tile_count = len(bitstream.frames), bitstream.config.tile_count
    tables = {}
    for pos, frame in enumerate(bitstream.frames):
        delimiter = UNIT_HEADER_SIZE
        for layer in frame.layers:
            layer_id = layer.header.layer_id
            if layer_id not in tables:
                tables[layer_id] = ([0] * n, [[0] * tile_count for _ in range(n)])
            header, tiles = tables[layer_id]
            header[pos] += delimiter + FRAME_HEADER_UNIT_SIZE
            delimiter = 0
            for group in layer.tile_groups:
                tiles[pos][group.tg_start] += tile_group_size(group)
    return tables
