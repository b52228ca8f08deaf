"""Wire-format round-trip, error reporting, and structural validation."""

import bisect
import functools
import random
import re
import struct
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    random_bitstream,
    random_config,
    record_bytes_per_frame,
    reference_parse,
    reference_unit_walk,
)
from svbs.codec import TrackResolution, decode_frame, encode_svc, encode_track, generate_content
from svbs.config import FRAME_PIXEL_BUDGET, SequenceConfig
from svbs.container import (
    HEADER_SIZE,
    R_CLOSED_GOP,
    R_FRAME_INDEX,
    R_LAYER_ORDER,
    R_REF_WINDOW,
    R_SKIP_FLAGS,
    R_SKIP_IN_BASE,
    R_TEMPORAL_DELIM,
    R_TEMPORAL_IN_ENH,
    R_TG_RANGE,
    R_TILE_COVERAGE,
    FRAME_HEADER_UNIT_SIZE,
    SKIPPED_MODE_RECORD,
    UNIT_HEADER_SIZE,
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
    Violation,
    parse,
    rate_records,
    serialize,
    serialize_frame,
    serialize_sequence_header,
    serialized_frame_size,
    tile_group_size,
    validate_structure,
)
from svbs.errors import (
    BadMagicError,
    InvalidStructureError,
    SvbsError,
    TooLargeError,
    TruncatedError,
    UnknownUnitTypeError,
)
from svbs.rewriter import rewrite_viewport_frame


def small_config(**overrides) -> SequenceConfig:
    kw = dict(width=32, height=16, tile_cols=2, tile_rows=2, gop_size=4, ref_window=2)
    kw.update(overrides)
    return SequenceConfig(**kw)


def coded_tile(index: int, payload: bytes = b"\x01\x02") -> Tile:
    return Tile(index, TileKind.CODED, coded_payload=payload)


def coded_layer(pos: int, layer_id: LayerId, cols: int, rows: int, **hdr) -> LayerFrame:
    frame_type = hdr.pop("frame_type", FrameType.KEY if layer_id == LayerId.BASE else FrameType.INTER)
    header = FrameHeader(pos, layer_id, frame_type, **hdr)
    groups = tuple(
        TileGroup(t, t, (coded_tile(t),)) for t in range(cols * rows)
    )
    return LayerFrame(header, groups)


def two_layer_frame(pos: int, config: SequenceConfig, **enh_hdr) -> Frame:
    base = coded_layer(pos, LayerId.BASE, 1, 1)
    enh = coded_layer(pos, LayerId.ENHANCED, config.tile_cols, config.tile_rows, **enh_hdr)
    return Frame(layers=(base, enh))


def _enhanced(groups) -> LayerFrame:
    return LayerFrame(FrameHeader(0, LayerId.ENHANCED, FrameType.INTER), tuple(groups))


def valid_stream(n_frames: int = 2) -> Bitstream:
    config = small_config()
    frames = tuple(two_layer_frame(i, config) for i in range(n_frames))
    return Bitstream(config=config, frames=frames)


class TestRoundTrip:
    def test_simple_stream(self):
        stream = valid_stream()
        assert parse(serialize(stream)) == stream

    def test_random_models(self):
        rng = random.Random(20240824)
        for _ in range(100):
            stream = random_bitstream(rng)
            assert validate_structure(stream) == []
            assert parse(serialize(stream)) == stream

    def test_serialize_deterministic(self):
        stream = valid_stream(3)
        assert serialize(stream) == serialize(stream)

    def test_encoder_output_round_trips(self):
        source = generate_content(5, small_config(), 4)
        stream = encode_svc(source)
        assert parse(serialize(stream)) == stream

    def test_models_hold_enum_members(self):
        # Equal ints would compare equal too; the model keeps the members.
        stream = encode_svc(generate_content(5, small_config(), 2))
        for built in (stream, parse(serialize(stream))):
            for layer in (layer for frame in built.frames for layer in frame.layers):
                assert type(layer.header.layer_id) is LayerId
                assert type(layer.header.frame_type) is FrameType
                assert all(type(tile.tile_kind) is TileKind
                           for group in layer.tile_groups for tile in group.tiles)

    def test_sequence_header_round_trips(self):
        rng = random.Random(35)
        for _ in range(100):
            config = random_config(rng)
            data = serialize_sequence_header(config)
            assert len(data) == HEADER_SIZE
            assert parse(data) == Bitstream(config, ())

    def test_serialize_copies_no_frame_before_its_output(self):
        config = SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4, gop_size=10)
        stream = encode_svc(generate_content(1, config, 30))
        size = len(serialize(stream))
        tracemalloc.start()
        try:
            serialize(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size


class TestPayloadsInPlace:
    """``parse`` reads coded payloads as read-only views of its input."""

    def test_mutating_a_parsed_bytearray_leaves_the_stream(self):
        data = serialize(valid_stream(2))
        buffer = bytearray(data)
        parsed = parse(buffer)
        buffer[HEADER_SIZE:] = bytes(len(buffer) - HEADER_SIZE)
        assert parsed == parse(data) == valid_stream(2)
        assert serialize(parsed) == data

    def test_parsed_tile_equals_and_hashes_like_a_bytes_tile(self):
        parsed = parse(serialize(valid_stream(1))).frames[0].layers[1].tile_groups[0].tiles[0]
        assert isinstance(parsed.coded_payload, memoryview)
        assert parsed.coded_payload.readonly
        built = coded_tile(0)
        assert parsed == built and hash(parsed) == hash(built)
        with pytest.raises(TypeError):
            parsed.coded_payload[0] = 0

    def test_one_stub_groups_are_shared_within_a_parse(self):
        config = small_config()
        frames = tuple(rewrite_viewport_frame(f, {0}, config) for f in valid_stream(3).frames)
        parsed = parse(serialize(Bitstream(config, frames)))
        stubs = {id(g) for f in parsed.frames for g in f.layers[1].tile_groups[1:]}
        assert len(stubs) == config.tile_count - 1
        assert parsed.frames == frames


def _tile_group_unit(group: TileGroup) -> bytes:
    """The serialized unit of one tile group, read from the frame that holds
    it alone: after the delimiter and the frame header."""
    header = FrameHeader(0, LayerId.ENHANCED, FrameType.INTER)
    data = serialize_frame(Frame((LayerFrame(header, (group,)),)))
    return data[UNIT_HEADER_SIZE + FRAME_HEADER_UNIT_SIZE:]


def _kept_bytes_streams() -> dict[str, bytes]:
    """An SVC stream, a full and a base track, and the SVC stream rewritten
    for one tile, each serialized from the model the encoder or the rewriter
    built."""
    config = small_config(width=64, height=32)
    source = generate_content(3, config, 8)
    svc = encode_svc(source)
    rewritten = Bitstream(config, tuple(
        rewrite_viewport_frame(f, {1}, config) for f in svc.frames))
    return {
        "svc": serialize(svc),
        "track-full": serialize(encode_track(source, 4, TrackResolution.FULL)),
        "track-base": serialize(encode_track(source, 4, TrackResolution.BASE)),
        "rewritten": serialize(rewritten),
    }


class TestKeptBytes:
    """A tile group built by ``parse`` keeps its unit's bytes and serializes
    as them; any other group is packed from its fields."""

    @pytest.mark.parametrize("name", ["svc", "track-full", "track-base", "rewritten"])
    def test_parsed_streams_serialize_to_their_input(self, name):
        data = _kept_bytes_streams()[name]
        parsed = parse(data)
        assert serialize(parsed) == data
        assert b"".join(serialize_frame(f) for f in parsed.frames) == data[HEADER_SIZE:]
        for frame in parsed.frames:
            for layer in frame.layers:
                for group in layer.tile_groups:
                    # The kept bytes are the unit, and the fields pack to them.
                    assert group.wire is not None and group.wire.readonly
                    assert bytes(group.wire) == _tile_group_unit(replace(group))
                    assert tile_group_size(group) == len(group.wire)

    def test_replaced_group_serializes_its_edited_fields(self):
        data = _kept_bytes_streams()["svc"]
        parsed = parse(data)
        base, enhanced = parsed.frames[1].layers
        group = enhanced.tile_groups[2]
        payload = bytes(group.tiles[0].coded_payload) + b"\x00\x07"
        edited = replace(group, tiles=(replace(group.tiles[0], coded_payload=payload),))
        assert edited.wire is None and edited != group
        assert _tile_group_unit(edited)[-len(payload):] == payload
        assert tile_group_size(edited) == len(group.wire) + 2
        layers = (base, replace(enhanced, tile_groups=(*enhanced.tile_groups[:2], edited,
                                                       *enhanced.tile_groups[3:])))
        frames = (parsed.frames[0], Frame(layers), *parsed.frames[2:])
        out = serialize(Bitstream(parsed.config, frames))
        assert len(out) == len(data) + 2
        assert parse(out).frames[1].layers[1].tile_groups[2] == edited

    def test_kept_bytes_take_no_part_in_equality(self):
        parsed = parse(serialize(valid_stream(1))).frames[0].layers[1].tile_groups[0]
        built = TileGroup(0, 0, (coded_tile(0),))
        assert built.wire is None and parsed.wire is not None
        assert parsed == built and hash(parsed) == hash(built)
        assert "wire" not in repr(parsed)
        with pytest.raises(TypeError):
            TileGroup(0, 0, (coded_tile(0),), wire=b"")


class TestParseErrors:
    def test_first_three_bytes_truncated(self):
        data = serialize(valid_stream())[:3]
        with pytest.raises(TruncatedError):
            parse(data)

    def test_bad_magic(self):
        data = b"XXXX" + serialize(valid_stream())[4:]
        with pytest.raises(BadMagicError):
            parse(data)

    def test_bad_version(self):
        data = bytearray(serialize(valid_stream()))
        data[4] = 99
        with pytest.raises(BadMagicError):
            parse(bytes(data))

    def test_unknown_unit_type_reports_offset(self):
        data = bytearray(serialize(valid_stream()))
        # First unit starts right after the fixed header.
        data[HEADER_SIZE] = 0xFF
        with pytest.raises(UnknownUnitTypeError) as exc:
            parse(bytes(data))
        assert exc.value.offset == HEADER_SIZE

    def test_truncated_tail(self):
        data = serialize(valid_stream())
        with pytest.raises(TruncatedError):
            parse(data[:-3])

    def test_tile_group_without_header(self):
        data = serialize(valid_stream())
        # Drop every FRAME_HEADER unit by re-serializing a doctored model.
        config = small_config()
        stream = Bitstream(config=config, frames=())
        loose = serialize(stream) + data[HEADER_SIZE:]
        # The tail starts with a temporal delimiter, then a frame header; cut
        # the frame header unit out so a tile group arrives first.
        td = UNIT_HEADER_SIZE
        fh = UNIT_HEADER_SIZE + 8
        broken = loose[: HEADER_SIZE + td] + loose[HEADER_SIZE + td + fh :]
        with pytest.raises(InvalidStructureError):
            parse(broken)

    def test_frame_over_pixel_budget_is_refused(self):
        # At 65532x65532 a 1x1-tile stub would need 1,048,449 superblocks,
        # more than its u16 superblock_count holds; at 12K ERP it needs 16,200.
        largest = SequenceConfig(11520, 5760)
        assert largest.width * largest.height == FRAME_PIXEL_BUDGET
        assert largest.tile_superblocks == 16200
        with pytest.raises(TooLargeError, match="frame pixel budget"):
            SequenceConfig(65532, 65532)
        data = bytearray(serialize_sequence_header(largest))
        assert parse(bytes(data)).config == largest
        struct.pack_into("<HH", data, 5, 65532, 65532)
        with pytest.raises(TooLargeError, match="65532x65532 exceeds the frame pixel budget"):
            parse(bytes(data))

    @pytest.mark.parametrize(
        "field, value",
        [(0, 9), (3, 7), (4, 5), (1, 2), (2, 2), (5, 2),
         (0, 3), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)],
        ids=["partition_mode", "ref_frames", "inter_mode", "skip", "is_inter", "use_obmc",
             "partition_split", "no_skip", "intra", "ref_previous_frame", "new_mv", "obmc"],
    )
    def test_bad_superblock_mode_enum(self, field, value):
        stream = valid_stream(1)
        stub = rewrite_viewport_frame(stream.frames[0], set(), stream.config)
        data = bytearray(serialize(Bitstream(stream.config, (stub,))))
        # The last unit is the enhanced layer's last tile group, which ends
        # with the 6-byte mode record of a skipped tile.
        mode_offset = len(data) - 6
        data[mode_offset + field] = value
        with pytest.raises(InvalidStructureError, match=f"offset {mode_offset}:"):
            parse(bytes(data))


def _delimiter_payload(data: bytes) -> bytes:
    # The first unit is the first frame's temporal delimiter.
    return data[:HEADER_SIZE] + struct.pack("<BI", UnitType.TEMPORAL_DELIMITER, 1) + b"\0" + (
        data[HEADER_SIZE + UNIT_HEADER_SIZE :]
    )


def _set_bit(at: int, mask: int):
    def mutate(data: bytes) -> bytes:
        out = bytearray(data)
        out[at] |= mask
        return bytes(out)
    return mutate


# Frame 0 is a delimiter unit then the frame header unit, whose flags byte
# is the 7th of its payload.
_FRAME_FLAGS = HEADER_SIZE + 2 * UNIT_HEADER_SIZE + 6


class TestParseOnlyCanonicalBytes:
    """Bytes that serialization never writes are refused, so a parse is
    the exact inverse of serialization."""

    @pytest.mark.parametrize(
        "mutate, error, offset",
        [
            (_delimiter_payload, InvalidStructureError, HEADER_SIZE),
            (_set_bit(HEADER_SIZE - 2, 0x80), InvalidStructureError, HEADER_SIZE - 2),
            (_set_bit(_FRAME_FLAGS, 0x40), InvalidStructureError, _FRAME_FLAGS),
            # Unit type 3 was the metadata unit, which no writer produces.
            (lambda data: data + struct.pack("<BI", 3, 0), UnknownUnitTypeError, None),
            # The first frame's delimiter dropped: its frame header comes first.
            (lambda data: data[:HEADER_SIZE] + data[HEADER_SIZE + UNIT_HEADER_SIZE :],
             InvalidStructureError, HEADER_SIZE),
        ],
        ids=["delimiter_payload", "sequence_flag_bit7", "frame_flag_bit6",
             "metadata_after_layers", "frame_header_before_delimiter"],
    )
    def test_refused_with_offset(self, mutate, error, offset):
        data = serialize(valid_stream(1))
        mutant = mutate(data)
        with pytest.raises(error, match=f"offset {offset or len(data)}$"):
            parse(mutant)
        assert outcome(parse, mutant) == outcome(reference_parse, mutant)


class TestValidation:
    def test_encoder_output_is_clean(self):
        source = generate_content(1, small_config(), 4)
        assert validate_structure(encode_svc(source)) == []

    def test_closed_gop_violation(self):
        # Enhanced frame 4 points two frames back, across the GOP boundary
        # at frame 4 (gop_size 4, ref_window 3).
        config = small_config(gop_size=4, ref_window=3)
        frames = tuple(two_layer_frame(i, config) for i in range(5))
        bad = frames[:4] + (two_layer_frame(4, config, base_ref_offset=2),)
        report = validate_structure(Bitstream(config=config, frames=bad))
        assert any(v.rule == R_CLOSED_GOP and v.frame_index == 4 for v in report)

    def test_enhanced_on_enhanced_violation(self):
        config = small_config()
        base = coded_layer(0, LayerId.BASE, 1, 1)
        enh = coded_layer(0, LayerId.ENHANCED, 2, 2)
        frame = Frame(layers=(base, enh, enh))
        report = validate_structure(Bitstream(config=config, frames=(frame,)))
        assert any(v.rule == R_TEMPORAL_IN_ENH for v in report)

    def test_double_delimiter_violation(self):
        # Two delimiters in a row parse as a frame with no layers.
        stream = valid_stream(2)
        empty = serialize_frame(Frame(layers=()))
        assert empty == struct.pack("<BI", UnitType.TEMPORAL_DELIMITER, 0)
        data = (serialize_sequence_header(stream.config) + serialize_frame(stream.frames[0])
                + empty + serialize_frame(stream.frames[1]))
        parsed = parse(data)
        assert parsed == reference_parse(data)
        assert parsed.frames == (stream.frames[0], Frame(layers=()), stream.frames[1])
        assert Violation(1, R_TEMPORAL_DELIM, "frame has no layers") in validate_structure(parsed)

    def test_inter_base_at_gop_start(self):
        config = small_config()
        frame = Frame(
            layers=(coded_layer(0, LayerId.BASE, 1, 1, frame_type=FrameType.INTER),)
        )
        report = validate_structure(Bitstream(config=config, frames=(frame,)))
        assert any(v.rule == R_CLOSED_GOP for v in report)

    def test_ref_window_violation(self):
        config = small_config(gop_size=4, ref_window=1)
        frames = (
            two_layer_frame(0, config),
            two_layer_frame(1, config, base_ref_offset=1),
        )
        report = validate_structure(Bitstream(config=config, frames=frames))
        assert any(v.rule == R_REF_WINDOW and v.frame_index == 1 for v in report)

    def test_frame_index_violation(self):
        config = small_config()
        frame = Frame(layers=(coded_layer(7, LayerId.BASE, 1, 1),))
        report = validate_structure(Bitstream(config=config, frames=(frame,)))
        assert any(v.rule == R_FRAME_INDEX for v in report)

    def test_layer_order_violation(self):
        config = small_config()
        frame = Frame(layers=(coded_layer(0, LayerId.ENHANCED, 2, 2),))
        report = validate_structure(Bitstream(config=config, frames=(frame,)))
        assert any(v.rule == R_LAYER_ORDER for v in report)

    def test_tg_range_violation(self):
        config = small_config()
        base = coded_layer(0, LayerId.BASE, 1, 1)
        groups = (TileGroup(0, 3, (coded_tile(0), coded_tile(1))),)
        enh = LayerFrame(FrameHeader(0, LayerId.ENHANCED, FrameType.INTER), groups)
        report = validate_structure(
            Bitstream(config=config, frames=(Frame(layers=(base, enh)),))
        )
        assert any(v.rule == R_TG_RANGE for v in report)

    def test_tile_coverage_violation(self):
        config = small_config()
        base = coded_layer(0, LayerId.BASE, 1, 1)
        groups = tuple(TileGroup(t, t, (coded_tile(t),)) for t in range(3))
        enh = LayerFrame(FrameHeader(0, LayerId.ENHANCED, FrameType.INTER), groups)
        report = validate_structure(
            Bitstream(config=config, frames=(Frame(layers=(base, enh)),))
        )
        assert any(v.rule == R_TILE_COVERAGE for v in report)

    def test_skipped_in_base_violation(self):
        config = small_config()
        tile = Tile(0, TileKind.SKIPPED, superblock_count=4)
        base = LayerFrame(
            FrameHeader(0, LayerId.BASE, FrameType.KEY), (TileGroup(0, 0, (tile,)),)
        )
        report = validate_structure(Bitstream(config=config, frames=(Frame(layers=(base,)),)))
        assert any(v.rule == R_SKIP_IN_BASE for v in report)

    def test_skip_flags_violation(self):
        config = small_config()
        base = coded_layer(0, LayerId.BASE, 1, 1)
        tiles = [coded_tile(t) for t in range(3)]
        tiles.append(Tile(3, TileKind.SKIPPED, superblock_count=config.tile_superblocks))
        groups = tuple(TileGroup(t, t, (tiles[t],)) for t in range(4))
        enh = LayerFrame(FrameHeader(0, LayerId.ENHANCED, FrameType.INTER), groups)
        report = validate_structure(
            Bitstream(config=config, frames=(Frame(layers=(base, enh)),))
        )
        assert any(v.rule == R_SKIP_FLAGS for v in report)

    def test_stub_superblock_count_violation(self):
        config = small_config()
        stub = rewrite_viewport_frame(two_layer_frame(0, config), {0, 1, 2}, config)
        data = bytearray(serialize(Bitstream(config, (stub,))))
        # The stream ends with tile 3's stub: superblock_count u16, then the
        # 6-byte mode record.  A 16x8 tile is one superblock.
        data[-8:-6] = struct.pack("<H", 65535)
        report = validate_structure(parse(bytes(data)))
        assert report == [Violation(0, R_SKIP_FLAGS, "tile 3 has 65535 superblocks, want 1")]

    @pytest.mark.parametrize(
        "layers, rule, detail",
        [
            (lambda base, enh: (base, _enhanced((TileGroup(2, 1, ()),))),
             R_TG_RANGE, "tg_start 2 > tg_end 1"),
            (lambda base, enh: (base, _enhanced((TileGroup(3, 4, (coded_tile(3),)),))),
             R_TG_RANGE, "tg_end 4 outside 2x2 grid"),
            (lambda base, enh: (base, _enhanced(enh.tile_groups + enh.tile_groups[:1])),
             R_TILE_COVERAGE, "tile 0 covered twice"),
            (lambda base, enh: (), R_TEMPORAL_DELIM, "frame has no layers"),
            (lambda base, enh: (base, base, enh), R_LAYER_ORDER, "duplicate base layer"),
            (lambda base, enh: (enh, base), R_LAYER_ORDER, "base layer after enhanced"),
            (lambda base, enh: (coded_layer(0, LayerId.BASE, 1, 1, base_ref_offset=1), enh),
             R_CLOSED_GOP, "KEY frame with nonzero reference"),
        ],
        ids=["tg_start_after_end", "tg_end_outside_grid", "tile_covered_twice",
             "no_layers", "duplicate_base", "base_after_enhanced", "key_with_reference"],
    )
    def test_rule_detail(self, layers, rule, detail):
        config = small_config()
        base, enh = two_layer_frame(0, config).layers
        frame = Frame(layers=layers(base, enh))
        report = validate_structure(Bitstream(config=config, frames=(frame,)))
        assert Violation(0, rule, detail) in report

    def test_serialize_refuses_invalid_model(self):
        config = small_config()
        frame = Frame(layers=())
        with pytest.raises(InvalidStructureError):
            serialize(Bitstream(config=config, frames=(frame,)))
        # The frame itself still serializes, for tests that need malformed bytes.
        data = serialize_sequence_header(config) + serialize_frame(frame)
        assert len(data) > HEADER_SIZE


def accounted_streams():
    """Valid streams of every kind the pipeline writes or the tests build:
    hand-built, SVC encoder output, both track resolutions, rewritten frames
    and 100 random models."""
    config = small_config(base_single_tile=False)
    source = generate_content(3, config, 6)
    svc = encode_svc(source)
    rewritten = tuple(rewrite_viewport_frame(f, {i % 4}, config) for i, f in enumerate(svc.frames))
    yield valid_stream(3)
    yield svc
    for resolution in TrackResolution:
        yield encode_track(source, 3, resolution)
    yield Bitstream(config, rewritten)
    rng = random.Random(20240825)
    for _ in range(100):
        yield random_bitstream(rng)


class TestByteAccounting:
    """``rate_records`` prices every serialized byte after the header once."""

    def test_totals_match_file_size(self):
        for stream in accounted_streams():
            assert sum(record_bytes_per_frame(stream)) == len(serialize(stream)) - HEADER_SIZE

    def test_per_frame_matches_serialized_size(self):
        for stream in accounted_streams():
            per_frame = record_bytes_per_frame(stream)
            assert per_frame == [serialized_frame_size(f) for f in stream.frames]

    def test_sizes_match_the_serialized_units(self):
        # Each tile group's size is its unit's share of the frame's bytes:
        # type TILE_GROUP, a payload size of the rest, and the next unit
        # starting right after it.
        rng = random.Random(20240826)
        for _ in range(100):
            for frame in random_bitstream(rng).frames:
                data = serialize_frame(frame)
                assert serialized_frame_size(frame) == len(data)
                offset = UNIT_HEADER_SIZE
                for layer in frame.layers:
                    offset += FRAME_HEADER_UNIT_SIZE
                    for group in layer.tile_groups:
                        size = tile_group_size(group)
                        kind, payload_size = struct.unpack_from("<BI", data, offset)
                        assert (kind, payload_size) == (UnitType.TILE_GROUP, size - UNIT_HEADER_SIZE)
                        offset += size
                assert offset == len(data)

    def test_layer_split(self):
        # Per layer, in order of first appearance: the header bytes per frame,
        # the delimiter riding on the first layer, and each tile group's bytes
        # at its tg_start.  Frame 1's enhanced layer is one single-tile group
        # and one three-tile group, so tiles 2 and 3 read 0.
        config = small_config()
        split = (TileGroup(0, 0, (coded_tile(0),)),
                 TileGroup(1, 3, tuple(coded_tile(t) for t in (1, 2, 3))))
        frame = Frame((coded_layer(1, LayerId.BASE, 1, 1), LayerFrame(
            FrameHeader(1, LayerId.ENHANCED, FrameType.INTER), split)))
        stream = Bitstream(config, (two_layer_frame(0, config), frame))
        assert validate_structure(stream) == []
        tables = rate_records(stream)
        assert list(tables) == [LayerId.BASE, LayerId.ENHANCED]
        # A group unit: 5-byte unit header, 4-byte range, then per tile
        # 7 bytes of fields and the 2-byte payload.
        one, three = (UNIT_HEADER_SIZE + 4 + 9 * n for n in (1, 3))
        assert tables[LayerId.BASE] == ([UNIT_HEADER_SIZE + FRAME_HEADER_UNIT_SIZE] * 2,
                                        [[one, 0, 0, 0]] * 2)
        assert tables[LayerId.ENHANCED] == ([FRAME_HEADER_UNIT_SIZE] * 2,
                                            [[one] * 4, [one, three, 0, 0]])
        assert [one, three] == [tile_group_size(g) for g in split]


class TestSuperblockMode:
    def test_mode_round_trip(self):
        # partition none, skip, inter, base layer only, zero motion, no OBMC.
        assert SKIPPED_MODE_RECORD == b"\x00\x01\x01\x00\x00\x00"
        stream = valid_stream(1)
        stub = rewrite_viewport_frame(stream.frames[0], set(), stream.config)
        data = serialize(Bitstream(stream.config, (stub,)))
        assert data.endswith(SKIPPED_MODE_RECORD)
        assert parse(data).frames == (stub,)

    def test_tile_invariants(self):
        with pytest.raises(InvalidStructureError):
            Tile(0, TileKind.CODED)
        with pytest.raises(InvalidStructureError):
            Tile(0, TileKind.SKIPPED)


# --- parse against the reference parser, on mutated streams ---------------


@functools.cache
def seed_streams() -> tuple[bytes, ...]:
    """Valid encoder output, plain and with every other frame rewritten to
    skipped stubs, for a single-tile base and a tiled base."""
    streams = []
    for config in (small_config(), small_config(base_single_tile=False, gop_size=3)):
        stream = encode_svc(generate_content(2, config, 5))
        streams.append(serialize(stream))
        frames = tuple(
            rewrite_viewport_frame(f, {0, 3}, config) if i % 2 else f
            for i, f in enumerate(stream.frames)
        )
        streams.append(serialize(Bitstream(config, frames)))
    return tuple(streams)


def wire_layout(data: bytes) -> tuple[list[int], list[int]]:
    """For a valid stream: the offsets of its u32 size fields (each unit's
    payload size and each coded tile's length), and the offsets of every
    byte outside the coded tile payloads."""
    fields = []
    structure = list(range(HEADER_SIZE))
    pos = HEADER_SIZE
    while pos < len(data):
        unit_type, size = struct.unpack_from("<BI", data, pos)
        fields.append(pos + 1)
        start = pos + UNIT_HEADER_SIZE
        end = start + size
        if unit_type != UnitType.TILE_GROUP:
            structure.extend(range(pos, end))
        else:
            structure.extend(range(pos, start + 4))
            p = start + 4
            while p < end:
                kind = data[p + 2]
                if kind == TileKind.CODED:
                    fields.append(p + 3)
                    structure.extend(range(p, p + 7))
                    p += 7 + struct.unpack_from("<I", data, p + 3)[0]
                else:
                    structure.extend(range(p, p + 11))
                    p += 11
        pos = end
    return fields, structure


def unit_offsets(data: bytes) -> list[int]:
    """The offset of every unit of a valid stream."""
    offsets = []
    pos = HEADER_SIZE
    while pos < len(data):
        offsets.append(pos)
        pos += UNIT_HEADER_SIZE + struct.unpack_from("<I", data, pos + 1)[0]
    return offsets


def outcome(fn, data):
    """The model ``fn`` returns, or the type, message and offset of the
    SvbsError it raises; any other exception propagates."""
    try:
        return fn(data)
    except SvbsError as exc:
        return described(exc)


def described(exc: SvbsError):
    return type(exc), str(exc), getattr(exc, "offset", None)


# Parse and validate allocate in proportion to the input; a decode also
# needs the frame its header declares (8 bytes per pixel covers the base,
# the upsampled reference and the output), since a 100-byte valid stream
# may declare a 65535x65535 frame with zero runs.
MEMORY_FIXED = 4 << 20
MEMORY_PER_PIXEL = 8


def check_mutant(data: bytes) -> None:
    assert outcome(parse, data) == outcome(reference_parse, data)
    tracemalloc.start()
    try:
        try:
            stream = parse(data)
            validate_structure(stream)
            for i in range(len(stream.frames)):
                decode_frame(stream, i, set(range(stream.config.tile_count)))
        except SvbsError:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pixels = 0
    if len(data) >= HEADER_SIZE:
        width, height = struct.unpack_from("<HH", data, 5)
        pixels = width * height
    assert peak < MEMORY_FIXED + MEMORY_PER_PIXEL * pixels


def _fault_offset(fault) -> int:
    """The byte offset of a parse fault: its ``offset``, or the one its message names."""
    return fault[2] if fault[2] is not None else int(re.search(r"offset (\d+)", fault[1])[1])


def check_ranged(data: bytes, frames: range) -> None:
    """``parse(data, frames)`` against the whole-stream parse: the same built
    frames, ``Frame(())`` for the others, and the same refusal of every fault
    seen from a unit's type and size, whether its frame is built or not."""
    whole = outcome(parse, data)
    ranged = outcome(functools.partial(parse, frames=frames), data)
    delimiters, walk_fault = reference_unit_walk(data)
    if isinstance(whole, Bitstream):
        assert walk_fault is None and len(delimiters) == len(whole.frames)
        assert ranged.config == whole.config
        assert ranged.frames == tuple(
            f if pos in frames else Frame(()) for pos, f in enumerate(whole.frames))
        if all(pos in frames for pos in range(len(whole.frames))):
            if validate_structure(whole):  # parses but breaks a rule: refused alike
                assert outcome(serialize, ranged) == outcome(serialize, whole)
            else:
                assert serialize(ranged) == data
        else:  # a partly built stream never serializes
            with pytest.raises(InvalidStructureError):
                serialize(ranged)
    elif walk_fault is not None and whole == described(walk_fault):
        assert ranged == whole  # seen from a unit's type and size: refused anywhere
    else:  # inside a unit: refused only when its frame is built
        frame = bisect.bisect_left(delimiters, _fault_offset(whole)) - 1
        if frame in frames:
            assert ranged == whole
        elif not isinstance(ranged, Bitstream):  # a later fault; a unit may start where it lies
            assert ranged != whole and _fault_offset(ranged) >= _fault_offset(whole)


@st.composite
def mutants(draw):
    streams = seed_streams()
    data = bytearray(draw(st.sampled_from(streams)))
    fields, structure = wire_layout(bytes(data))
    if draw(st.booleans()):  # resize: rewrite one size field
        at = draw(st.sampled_from(fields))
        (old,) = struct.unpack_from("<I", data, at)
        new = draw(
            st.one_of(
                st.integers(-8, 8).map(lambda d: (old + d) % (1 << 32)),
                st.sampled_from([0, 1, 1 << 31, (1 << 32) - 1]),
                st.integers(0, (1 << 32) - 1),
            )
        )
        struct.pack_into("<I", data, at, new)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["flip", "flip", "truncate", "splice"]))
        if op == "flip" and data:
            at = draw(st.one_of(st.sampled_from(structure), st.integers(0, len(data) - 1)))
            data[at % len(data)] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "splice":
            donor = draw(st.sampled_from(streams))
            a = draw(st.integers(0, len(donor)))
            b = draw(st.integers(a, min(len(donor), a + 64)))
            at = draw(st.integers(0, len(data)))
            cut = draw(st.integers(0, min(64, len(data) - at)))
            data[at : at + cut] = donor[a:b]
    return bytes(data)


class TestParseMatchesReference:
    """``parse`` reads units in place; the reference slices them out.  Both
    must agree on every input, and no input may end in anything but an
    SvbsError or a clean decode, within bounded memory."""

    def test_seed_streams_round_trip(self):
        for data in seed_streams():
            stream = parse(data)
            assert stream == reference_parse(data)
            assert serialize(stream) == data

    def test_every_prefix_ending_in_structure(self):
        # A cut inside a coded payload fails like a cut at its first byte.
        for data in seed_streams():
            for n in wire_layout(data)[1] + [len(data)]:
                assert outcome(parse, data[:n]) == outcome(reference_parse, data[:n])

    def test_every_structure_byte_flipped(self):
        for data in seed_streams():
            for at in wire_layout(data)[1]:
                for mask in (0x01, 0xFF):
                    mutant = bytearray(data)
                    mutant[at] ^= mask
                    mutant = bytes(mutant)
                    assert outcome(parse, mutant) == outcome(reference_parse, mutant)

    def test_every_size_field_made_small(self):
        # Short frame headers, tile groups shorter than their range record,
        # and units or tiles that end early or swallow what follows.
        for data in seed_streams():
            for at in wire_layout(data)[0]:
                for size in range(9):
                    mutant = bytearray(data)
                    struct.pack_into("<I", mutant, at, size)
                    mutant = bytes(mutant)
                    assert outcome(parse, mutant) == outcome(reference_parse, mutant)

    @given(mutants(), st.integers(0, 6), st.integers(0, 6))
    # A frame header with no tile group parses but fails R_TILE_COVERAGE.
    @example(data=b"SVBS\x01 \x00\x10\x00\x02\x02\x02\x1e\x00\x01\x00\x04\x00\x01"
                  b"\x02\x00\x00\x00\x00\x00\x01\x08" + bytes(11), first=0, count=1)
    @settings(max_examples=300, deadline=None)
    def test_mutants(self, data, first, count):
        check_mutant(data)
        check_ranged(data, range(first, first + count))

    def test_every_unit_type_and_size_field_changed_in_a_ranged_parse(self):
        # Each of the five frames is built in one range and unbuilt in the other.
        for data in seed_streams():
            changed = []
            for at in wire_layout(data)[0]:
                for size in range(9):
                    changed.append(bytearray(data))
                    struct.pack_into("<I", changed[-1], at, size)
            for at in unit_offsets(data):
                for type_byte in range(4):  # every unit type, and an unknown one
                    changed.append(bytearray(data))
                    changed[-1][at] = type_byte
            for mutant in changed:
                for frames in (range(0, 3), range(3, 5)):
                    check_ranged(bytes(mutant), frames)

    @given(mutants())
    @settings(max_examples=300, deadline=None)
    def test_parsed_mutants_reserialize_exactly(self, data):
        try:
            stream = parse(data)
        except SvbsError:
            return
        frames = b"".join(map(serialize_frame, stream.frames))
        assert serialize_sequence_header(stream.config) + frames == data
