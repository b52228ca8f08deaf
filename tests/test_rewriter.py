"""Viewport-dependent frame rewriting with synthesized skipped tiles."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_bitstream,
    record_bytes_per_frame,
    reference_rewrite_viewport_frame,
    reference_serialize_frame,
)
from svbs.codec import encode_svc, generate_content
from svbs.config import FRAME_PIXEL_BUDGET, SUPERBLOCK_SIZE, SequenceConfig
from svbs.container import (
    FRAME_HEADER_UNIT_SIZE,
    HEADER_SIZE,
    SKIPPED_MODE_RECORD,
    STUB_GROUP_SIZE,
    SUPERBLOCK_MODE_SIZE,
    Bitstream,
    Frame,
    FrameHeader,
    FrameType,
    LayerFrame,
    LayerId,
    Tile,
    TileGroup,
    TileKind,
    UNIT_HEADER_SIZE,
    parse,
    serialize,
    serialize_frame,
    serialize_sequence_header,
    serialized_frame_size,
    tile_group_size,
    validate_structure,
)
from svbs.errors import BadIndexError, InvalidStructureError, SvbsError, TileMissingError
from svbs.geometry import Projection, ProjectionKind, Viewport, select_tiles
from svbs.rewriter import _stub_groups, rewrite_viewport_frame


def small_config(**overrides) -> SequenceConfig:
    kw = dict(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4)
    kw.update(overrides)
    return SequenceConfig(**kw)


def small_stream(n_frames: int = 4) -> Bitstream:
    return encode_svc(generate_content(6, small_config(), n_frames))


def _tile_group_unit(group: TileGroup) -> bytes:
    """The serialized unit of one tile group, read from the frame that holds
    it alone: after the delimiter and the frame header."""
    header = FrameHeader(0, LayerId.ENHANCED, FrameType.INTER)
    data = serialize_frame(Frame((LayerFrame(header, (group,)),)))
    return data[UNIT_HEADER_SIZE + FRAME_HEADER_UNIT_SIZE:]


class TestSkippedTileSynthesis:
    def test_superblock_count_for_hd_grid(self):
        config = SequenceConfig(width=1920, height=1152, tile_cols=3, tile_rows=3)
        tile = _stub_groups(config)[0].tiles[0]
        # 640x384 tile, 64x64 superblocks: 10 x 6.
        assert tile.superblock_count == 60

    def test_count_rounds_up_for_partial_superblocks(self):
        config = SequenceConfig(width=72, height=36, tile_cols=2, tile_rows=1, scale_factor=3)
        tile = _stub_groups(config)[1].tiles[0]
        area = config.tile_width * config.tile_height
        assert tile.superblock_count == math.ceil(area / SUPERBLOCK_SIZE**2)

    def test_canonical_mode(self):
        tile = _stub_groups(small_config())[0].tiles[0]
        assert tile.tile_kind == TileKind.SKIPPED
        payload = _tile_group_unit(TileGroup(0, 0, (tile,)))[UNIT_HEADER_SIZE:]
        # partition none, skip, inter, base layer only, zero motion, no OBMC.
        assert payload[-6:] == SKIPPED_MODE_RECORD == bytes((0, 1, 1, 0, 0, 0))

    def test_group_payload_is_compact(self):
        config = small_config()
        tile = _stub_groups(config)[3].tiles[0]
        payload = _tile_group_unit(TileGroup(3, 3, (tile,)))[UNIT_HEADER_SIZE:]
        assert len(payload) <= 16
        assert UNIT_HEADER_SIZE + len(payload) == 20


class TestRewriteFrame:
    def test_selected_tiles_forwarded_bit_exact(self):
        stream = small_stream()
        frame = stream.frames[1]
        selected = {0, 3}
        out = rewrite_viewport_frame(frame, selected, stream.config)
        assert out.layers[0] == frame.layers[0]  # base untouched
        enh = out.layers[1]
        originals = {
            t.tile_index: t.coded_payload
            for g in frame.layers[1].tile_groups
            for t in g.tiles
        }
        assert len(enh.tile_groups) == stream.config.tile_count
        for t_idx, group in enumerate(enh.tile_groups):
            tile = group.tiles[0]
            assert (group.tg_start, group.tg_end, tile.tile_index) == (t_idx, t_idx, t_idx)
            if t_idx in selected:
                assert tile.tile_kind == TileKind.CODED
                assert tile.coded_payload == originals[t_idx]
            else:
                assert tile.tile_kind == TileKind.SKIPPED

    def test_flags_forced_on(self):
        stream = small_stream()
        out = rewrite_viewport_frame(stream.frames[0], {1}, stream.config)
        header = out.layers[1].header
        assert header.cdf_update_disabled and header.global_mv_zero
        assert header.base_ref_offset == stream.frames[0].layers[1].header.base_ref_offset

    def test_empty_and_full_selection_validate(self):
        stream = small_stream()
        for selected in (set(), set(range(stream.config.tile_count))):
            frames = tuple(
                rewrite_viewport_frame(f, selected, stream.config) for f in stream.frames
            )
            assert validate_structure(Bitstream(stream.config, frames)) == []

    def test_nonadjacent_selection(self):
        config = SequenceConfig(width=160, height=96, tile_cols=4, tile_rows=3, gop_size=4)
        stream = encode_svc(generate_content(6, config, 2))
        out = rewrite_viewport_frame(stream.frames[0], {4, 6, 7, 9}, config)
        kinds = [g.tiles[0].tile_kind for g in out.layers[1].tile_groups]
        coded = {i for i, k in enumerate(kinds) if k == TileKind.CODED}
        assert coded == {4, 6, 7, 9}

    def test_idempotent_for_same_selection(self):
        stream = small_stream()
        once = rewrite_viewport_frame(stream.frames[2], {0, 1}, stream.config)
        twice = rewrite_viewport_frame(once, {0, 1}, stream.config)
        assert once == twice

    def test_growing_selection_after_rewrite_fails(self):
        stream = small_stream()
        narrowed = rewrite_viewport_frame(stream.frames[2], {0}, stream.config)
        with pytest.raises(TileMissingError):
            rewrite_viewport_frame(narrowed, {0, 2}, stream.config)

    def test_selection_outside_grid(self):
        stream = small_stream()
        with pytest.raises(BadIndexError):
            rewrite_viewport_frame(stream.frames[0], {99}, stream.config)

    def test_base_only_frame_rejected(self):
        stream = small_stream()
        from svbs.container import Frame

        base_only = Frame(layers=(stream.frames[0].layers[0],))
        with pytest.raises(InvalidStructureError):
            rewrite_viewport_frame(base_only, {0}, stream.config)

    def test_rewrite_never_grows_the_frame(self):
        stream = small_stream()
        for frame in stream.frames:
            out = rewrite_viewport_frame(frame, {0}, stream.config)
            assert serialized_frame_size(out) <= serialized_frame_size(frame)

    def test_sizes_consistent_with_byte_accounting(self):
        stream = small_stream()
        frames = tuple(
            rewrite_viewport_frame(f, {1, 2}, stream.config) for f in stream.frames
        )
        rewritten = Bitstream(stream.config, frames)
        assert record_bytes_per_frame(rewritten) == [serialized_frame_size(f) for f in frames]
        assert parse(serialize(rewritten)) == rewritten


class TestStubCache:
    """Every rewrite under one config shares one set of stub groups."""

    def test_rewrites_share_the_stub_groups(self):
        stream = small_stream()
        first = rewrite_viewport_frame(stream.frames[0], {0}, stream.config)
        second = rewrite_viewport_frame(stream.frames[1], {3}, stream.config)
        stubs = _stub_groups(stream.config)
        for t in (1, 2):
            assert first.layers[1].tile_groups[t] is second.layers[1].tile_groups[t] is stubs[t]

    def test_another_grid_gets_other_stubs(self):
        stream = small_stream()
        wide = small_config(width=128, tile_cols=4)
        assert _stub_groups(wide)[0] is not _stub_groups(stream.config)[0]
        rewritten = rewrite_viewport_frame(stream.frames[0], set(), stream.config)
        assert all(g.tiles[0].superblock_count == stream.config.tile_superblocks
                   for g in rewritten.layers[1].tile_groups)
        assert _stub_groups(wide)[0].tiles[0].superblock_count == wide.tile_superblocks
        # The simulator prices every stub at STUB_GROUP_SIZE, whatever the grid.
        # It and the other wire sizes are derived from the container's structs.
        assert STUB_GROUP_SIZE == 20
        assert (HEADER_SIZE, UNIT_HEADER_SIZE, FRAME_HEADER_UNIT_SIZE) == (20, 5, 13)
        assert SUPERBLOCK_MODE_SIZE == 6
        for grid in (SequenceConfig(384, 192, tile_cols=6, tile_rows=4), SequenceConfig(64, 32)):
            assert all(tile_group_size(g) == STUB_GROUP_SIZE for g in _stub_groups(grid))

    def test_cache_is_bounded(self):
        # 255x255 tiles is the most a header can declare (u8 fields).  One
        # entry there stays under 16 MiB, so the full cache under 128 MiB.
        config = SequenceConfig(width=255, height=255, scale_factor=1,
                                tile_cols=255, tile_rows=255)
        assert config.width * config.height <= FRAME_PIXEL_BUDGET
        maxsize = _stub_groups.cache_info().maxsize
        assert maxsize is not None and maxsize * 16 <= 128
        tracemalloc.start()
        try:
            stubs = _stub_groups(config)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _stub_groups.cache_clear()
        assert len(stubs) == 255 * 255
        assert size < 16 * 2**20

    def test_multi_tile_group_is_split_per_tile(self):
        config = small_config()
        base = small_stream().frames[1].layers[0]
        tiles = tuple(Tile(t, TileKind.CODED, coded_payload=bytes([t])) for t in range(4))
        header = FrameHeader(1, LayerId.ENHANCED, FrameType.INTER)
        frame = Frame((base, LayerFrame(header, (TileGroup(0, 3, tiles),))))
        out = rewrite_viewport_frame(frame, {1, 2}, config)
        groups = out.layers[1].tile_groups
        assert [(g.tg_start, g.tg_end, len(g.tiles)) for g in groups] == [(t, t, 1) for t in range(4)]
        assert [g.tiles[0] for g in groups[1:3]] == [tiles[1], tiles[2]]
        assert validate_structure(Bitstream(config, (small_stream().frames[0], out))) == []


class TestRewriteSession:
    def test_matches_manual_selection(self):
        config = SequenceConfig(width=768, height=384, tile_cols=6, tile_rows=4)
        stream = encode_svc(generate_content(2, config, 2))
        projection = Projection(ProjectionKind.ERP, 768, 384)
        vp = Viewport.from_degrees(0, 0, 90, 90)
        out = rewrite_viewport_frame(stream.frames[1], select_tiles(vp, projection, config), config)
        coded = {
            g.tiles[0].tile_index
            for g in out.layers[1].tile_groups
            if g.tiles[0].tile_kind == TileKind.CODED
        }
        assert coded == {8, 9, 14, 15}


def _outcome(rewrite, frame, selected, config):
    """The rewritten frame, or the type and message of the error raised."""
    try:
        return rewrite(frame, selected, config)
    except SvbsError as exc:
        return type(exc), str(exc)


class TestMatchesReference:
    """The rewrite and the frame serializer give the reference's frame and
    bytes, or its error, for hand-built and parsed frames of any grouping."""

    @given(seed=st.integers(0, 2**32 - 1),
           source=st.sampled_from(["built", "parsed", "rewritten", "base-only", "enhanced-only"]),
           pick=st.sampled_from(["empty", "coded", "any", "outside-grid"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, seed, source, pick):
        rng = random.Random(seed)
        stream = random_bitstream(rng)
        config = stream.config
        if source in ("parsed", "rewritten"):
            stream = parse(serialize(stream))  # every tile group keeps its wire bytes
        frame = rng.choice(stream.frames)
        if source == "rewritten" and len(frame.layers) == 2:
            frame = rewrite_viewport_frame(frame, set(), config)  # hand-built stubs
        elif source == "base-only":
            frame = Frame(frame.layers[:1])
        elif source == "enhanced-only":
            frame = Frame(frame.layers[1:])
        coded = [t.tile_index for layer in frame.layers[1:] for g in layer.tile_groups
                 for t in g.tiles if t.tile_kind == TileKind.CODED]
        count = config.tile_count
        selected = {"empty": set(),
                    "coded": set(rng.sample(coded, rng.randint(0, len(coded)))),
                    "any": set(rng.sample(range(count), rng.randint(0, count))),
                    "outside-grid": {rng.randrange(count), rng.choice([-1, count, count + 7])},
                    }[pick]

        got = _outcome(rewrite_viewport_frame, frame, selected, config)
        want = _outcome(reference_rewrite_viewport_frame, frame, selected, config)
        assert got == want
        assert serialize_frame(frame) == reference_serialize_frame(frame)
        if isinstance(got, Frame):
            data = serialize_frame(got)
            assert data == reference_serialize_frame(got)
            # Parsed back, each group has its hand-built twin's size and the
            # rewrite gives back the same frame and bytes.
            [parsed] = parse(serialize_sequence_header(config) + data).frames
            assert [tile_group_size(g) for g in parsed.layers[1].tile_groups] == [
                tile_group_size(g) for g in got.layers[1].tile_groups]
            again = rewrite_viewport_frame(parsed, selected, config)
            assert again == got
            assert serialize_frame(again) == data
