"""Wire-format round-trip, error reporting, and structural validation."""

import functools
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_bitstream, reference_parse
from svbs.codec import decode_frame, encode_svc, generate_content
from svbs.config import SequenceConfig
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
    UNIT_HEADER_SIZE,
    Bitstream,
    Frame,
    FrameHeader,
    FrameType,
    LayerFrame,
    LayerId,
    SuperblockMode,
    Tile,
    TileGroup,
    TileKind,
    UnitType,
    frame_byte_sizes,
    parse,
    serialize,
    serialize_frame,
    serialize_sequence_header,
    serialized_frame_size,
    validate_structure,
)
from svbs.errors import (
    BadMagicError,
    InvalidStructureError,
    SvbsError,
    TruncatedError,
    UnknownUnitTypeError,
)
from svbs.rewriter import CANONICAL_SKIPPED_MODE, rewrite_viewport_frame


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


def valid_stream(n_frames: int = 2) -> Bitstream:
    config = small_config()
    frames = tuple(two_layer_frame(i, config) for i in range(n_frames))
    return Bitstream(config=config, frames=frames)


class TestRoundTrip:
    def test_simple_stream(self):
        stream = valid_stream()
        assert parse(serialize(stream)) == stream

    def test_metadata_and_delimiters_preserved(self):
        config = small_config()
        frame = Frame(
            layers=(coded_layer(0, LayerId.BASE, 1, 1),),
            metadata=(b"opaque", b""),
        )
        stream = Bitstream(config=config, frames=(frame,))
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

    @pytest.mark.parametrize(
        "field, value",
        [(0, 9), (3, 7), (4, 5), (1, 2), (2, 2), (5, 2)],
        ids=["partition_mode", "ref_frames", "inter_mode", "skip", "is_inter", "use_obmc"],
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
        "mutate, offset",
        [
            (_delimiter_payload, HEADER_SIZE),
            (_set_bit(HEADER_SIZE - 2, 0x80), HEADER_SIZE - 2),
            (_set_bit(_FRAME_FLAGS, 0x40), _FRAME_FLAGS),
            (lambda data: data + struct.pack("<BI", UnitType.METADATA, 0), None),
        ],
        ids=["delimiter_payload", "sequence_flag_bit7", "frame_flag_bit6",
             "metadata_after_layers"],
    )
    def test_refused_with_offset(self, mutate, offset):
        data = serialize(valid_stream(1))
        mutant = mutate(data)
        with pytest.raises(InvalidStructureError, match=f"at offset {offset or len(data)}$"):
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
        config = small_config()
        frame = Frame(layers=(coded_layer(0, LayerId.BASE, 1, 1),), delimiter_count=2)
        report = validate_structure(Bitstream(config=config, frames=(frame,)))
        assert any(v.rule == R_TEMPORAL_DELIM for v in report)

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
        tile = Tile(0, TileKind.SKIPPED, superblock_count=4, skipped_mode=CANONICAL_SKIPPED_MODE)
        base = LayerFrame(
            FrameHeader(0, LayerId.BASE, FrameType.KEY), (TileGroup(0, 0, (tile,)),)
        )
        report = validate_structure(Bitstream(config=config, frames=(Frame(layers=(base,)),)))
        assert any(v.rule == R_SKIP_IN_BASE for v in report)

    def test_skip_flags_violation(self):
        config = small_config()
        base = coded_layer(0, LayerId.BASE, 1, 1)
        tiles = [coded_tile(t) for t in range(3)]
        tiles.append(
            Tile(3, TileKind.SKIPPED, superblock_count=4, skipped_mode=CANONICAL_SKIPPED_MODE)
        )
        groups = tuple(TileGroup(t, t, (tiles[t],)) for t in range(4))
        enh = LayerFrame(FrameHeader(0, LayerId.ENHANCED, FrameType.INTER), groups)
        report = validate_structure(
            Bitstream(config=config, frames=(Frame(layers=(base, enh)),))
        )
        assert any(v.rule == R_SKIP_FLAGS for v in report)

    def test_serialize_refuses_invalid_model(self):
        config = small_config()
        frame = Frame(layers=(coded_layer(0, LayerId.BASE, 1, 1),), delimiter_count=2)
        with pytest.raises(InvalidStructureError):
            serialize(Bitstream(config=config, frames=(frame,)))
        # The frame itself still serializes, for tests that need malformed bytes.
        data = serialize_sequence_header(config) + serialize_frame(frame)
        assert len(data) > HEADER_SIZE


class TestByteAccounting:
    def test_totals_match_file_size(self):
        stream = valid_stream(3)
        sizes = frame_byte_sizes(stream)
        assert sum(s.total for s in sizes) == len(serialize(stream)) - HEADER_SIZE

    def test_per_frame_matches_serialized_size(self):
        stream = valid_stream(3)
        for frame, sizes in zip(stream.frames, frame_byte_sizes(stream)):
            assert sizes.total == serialized_frame_size(frame)

    def test_layer_split(self):
        stream = valid_stream(1)
        sizes = frame_byte_sizes(stream)[0]
        assert set(sizes.layer_bytes) == {LayerId.BASE, LayerId.ENHANCED}
        assert sizes.delimiter_bytes == UNIT_HEADER_SIZE
        assert sizes.metadata_bytes == 0

    def test_rejects_invalid_stream(self):
        config = small_config()
        frame = Frame(layers=(coded_layer(3, LayerId.BASE, 1, 1),))
        with pytest.raises(InvalidStructureError):
            frame_byte_sizes(Bitstream(config=config, frames=(frame,)))


class TestSuperblockMode:
    def test_mode_round_trip(self):
        mode = CANONICAL_SKIPPED_MODE
        assert SuperblockMode.from_bytes(mode.to_bytes()) == mode
        assert len(mode.to_bytes()) == 6

    def test_tile_invariants(self):
        with pytest.raises(InvalidStructureError):
            Tile(0, TileKind.CODED)
        with pytest.raises(InvalidStructureError):
            Tile(0, TileKind.SKIPPED, superblock_count=4)


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


def outcome(fn, data):
    """The model ``fn`` returns, or the type, message and offset of the
    SvbsError it raises; any other exception propagates."""
    try:
        return fn(data)
    except SvbsError as exc:
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

    @given(mutants())
    @settings(max_examples=300, deadline=None)
    def test_mutants(self, data):
        check_mutant(data)

    @given(mutants())
    @settings(max_examples=300, deadline=None)
    def test_parsed_mutants_reserialize_exactly(self, data):
        try:
            stream = parse(data)
        except SvbsError:
            return
        frames = b"".join(map(serialize_frame, stream.frames))
        assert serialize_sequence_header(stream.config) + frames == data
