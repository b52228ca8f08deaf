"""Mock codec: resampling, run-length coding, layered encode/decode, rates."""

import dataclasses
import functools
import hashlib
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svbs.codec import (
    CONTENT_PIXEL_BUDGET,
    ENCODED_TILE_BUDGET,
    MIN_ZERO_RUN,
    RasterFrame,
    TrackResolution,
    VideoSource,
    decode_frame,
    downsample,
    encode_svc,
    encode_track,
    _wrapped_runs,
    generate_content,
    rle_compress,
    rle_decompress,
    upsample_nearest,
)
from svbs.config import SequenceConfig
from svbs.container import (
    HEADER_SIZE,
    Bitstream,
    Frame,
    FrameType,
    LayerId,
    TileKind,
    parse,
    serialize,
    serialized_frame_size,
    validate_structure,
)
from svbs.errors import (
    BadConfigError,
    BadDimensionsError,
    CorruptRleError,
    MissingBaseError,
    TooLargeError,
)
from svbs.rewriter import rewrite_viewport_frame

from helpers import (
    record_bytes_per_frame,
    reference_decode_frame,
    reference_downsample,
    reference_generate_content_frames,
    reference_rle_compress,
)


def small_config(**overrides) -> SequenceConfig:
    kw = dict(width=64, height=32, tile_cols=2, tile_rows=2, gop_size=4)
    kw.update(overrides)
    return SequenceConfig(**kw)


def random_frame(rng: np.random.Generator, w: int, h: int) -> RasterFrame:
    return RasterFrame(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


def traced_peak(call) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRasterFrame:
    def test_size_is_the_samples_shape(self):
        frame = RasterFrame(np.zeros((3, 5), dtype=np.uint8))
        assert (frame.width, frame.height) == (5, 3)
        assert frame != RasterFrame(np.zeros((5, 3), dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 1)])
    def test_refuses_samples_that_are_not_2d(self, shape):
        with pytest.raises(BadDimensionsError, match="not 2-D"):
            RasterFrame(np.zeros(shape, dtype=np.uint8))

    def test_is_not_equal_to_another_type(self):
        frame = RasterFrame(np.ones((1, 1), dtype=np.uint8))
        assert frame.__eq__(1) is NotImplemented
        assert not frame == 1 and frame != 1


class TestResampling:
    def test_downsample_matches_per_block_oracle(self):
        rng = np.random.default_rng(3)
        for factor in (2, 4):
            frame = random_frame(rng, 16, 8)
            out = downsample(frame, factor)
            for by in range(frame.height // factor):
                for bx in range(frame.width // factor):
                    block = frame.samples[
                        by * factor : (by + 1) * factor, bx * factor : (bx + 1) * factor
                    ]
                    mean = block.astype(int).sum() / (factor * factor)
                    expect = math.floor(mean + 0.5)
                    assert out.samples[by, bx] == expect

    def test_downsample_rounds_half_up(self):
        frame = RasterFrame(np.array([[0, 1], [0, 1]], dtype=np.uint8))
        assert downsample(frame, 2).samples[0, 0] == 1  # mean 0.5 rounds up

    def test_downsample_rejects_bad_factor(self):
        frame = RasterFrame(np.zeros((6, 6), dtype=np.uint8))
        with pytest.raises(BadDimensionsError):
            downsample(frame, 4)

    @pytest.mark.parametrize("factor", [0, -1])
    @pytest.mark.parametrize("resample", [downsample, upsample_nearest])
    def test_factor_below_1_is_refused(self, resample, factor):
        frame = RasterFrame(np.zeros((6, 6), dtype=np.uint8))
        with pytest.raises(BadDimensionsError, match="factor must be >= 1"):
            resample(frame, factor)

    def test_upsample_then_downsample_identity(self):
        rng = np.random.default_rng(4)
        frame = random_frame(rng, 8, 6)
        up = upsample_nearest(frame, 3)
        assert up.width == 24 and up.height == 18
        assert downsample(up, 3) == frame

    @given(
        factor=st.integers(1, 4),
        blocks=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
        fill=st.sampled_from([None, 0, 255]),
    )
    @settings(max_examples=150, deadline=None)
    def test_downsample_matches_reference(self, factor, blocks, seed, fill):
        h, w = blocks[1] * factor, blocks[0] * factor
        rng = np.random.default_rng(seed)
        if fill is None:
            samples = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        else:
            samples = np.full((h, w), fill, dtype=np.uint8)
        out = downsample(RasterFrame(samples), factor)
        assert (out.width, out.height) == (w // factor, h // factor)
        assert np.array_equal(out.samples, reference_downsample(samples, factor))

    def test_upsample_replicates_pixels(self):
        frame = RasterFrame(np.array([[7, 9]], dtype=np.uint8))
        up = upsample_nearest(frame, 2)
        assert up.samples.tolist() == [[7, 7, 9, 9], [7, 7, 9, 9]]

    @given(
        factor=st.integers(1, 4),
        size=st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda s: s[0] != s[1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_upsample_matches_kron(self, factor, size, seed):
        # Non-square frames, so a pass along the wrong axis changes the shape.
        w, h = size
        samples = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
        up = upsample_nearest(RasterFrame(samples), factor)
        assert (up.width, up.height) == (w * factor, h * factor)
        want = np.kron(samples, np.ones((factor, factor), np.uint8))
        assert up.samples.dtype == np.uint8
        assert np.array_equal(up.samples, want)


class TestRle:
    def test_empty_input(self):
        assert rle_compress(b"") == b""
        assert rle_decompress(b"", 0) == b""

    def test_long_zero_run_is_five_bytes(self):
        data = b"\x00" * 65536
        packed = rle_compress(data)
        assert len(packed) == 5
        assert rle_decompress(packed, len(data)) == data

    def test_short_zero_runs_fold_into_literals(self):
        data = b"\x01" + b"\x00" * (MIN_ZERO_RUN - 1) + b"\x02"
        packed = rle_compress(data)
        run_type, length = struct.unpack_from("<BI", packed, 0)
        assert (run_type, length) == (1, len(data))
        assert rle_decompress(packed, len(data)) == data

    @given(
        lead=st.integers(0, MIN_ZERO_RUN - 1),
        chunks=st.lists(st.tuples(st.binary(min_size=1, max_size=8).filter(all),
                                  st.integers(0, MIN_ZERO_RUN - 1)), max_size=40),
        kind=st.sampled_from([bytes, bytearray, memoryview]),
    )
    @settings(max_examples=200, deadline=None)
    def test_without_a_long_zero_run_is_one_literal_record(self, lead, chunks, kind):
        data = bytes(lead) + b"".join(literal + bytes(zeros) for literal, zeros in chunks)
        packed = rle_compress(kind(data))
        assert packed == reference_rle_compress(data)
        assert packed == (struct.pack("<BI", 1, len(data)) + data if data else b"")

    def test_random_round_trip_and_bound(self):
        rng = random.Random(11)
        for _ in range(20):
            data = rng.randbytes(4096)
            packed = rle_compress(data)
            assert rle_decompress(packed, len(data)) == data
            assert len(packed) <= len(data) + 5

    def test_mixed_content(self):
        data = b"\x05" * 10 + b"\x00" * 100 + b"\x09" * 3
        packed = rle_compress(data)
        assert rle_decompress(packed, len(data)) == data
        assert len(packed) < len(data)

    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(1, 12)), max_size=40
        ).map(lambda runs: b"".join(bytes([v]) * n for v, n in runs))
    )
    @settings(max_examples=300, deadline=None)
    @example(b"")
    @example(b"\x00" * 5)
    @example(b"\x00" * 6)
    @example(b"\x00" * 7)
    @example(b"\x00" * 4096)
    @example(b"\x01" + b"\x00" * 5 + b"\x02" + b"\x00" * 6 + b"\x03" + b"\x00" * 7)
    @example(b"\x00" * 6 + b"\x09" + b"\x00" * 5)
    @example(b"\x00" * 7 + b"\x09\x09" + b"\x00" * 6)
    @example(b"\x01" + b"\x00" * 5 + b"\x02")  # no long zero run: one literal record
    @example(b"\x01" + b"\x00" * 6 + b"\x02")
    def test_matches_reference(self, data):
        packed = rle_compress(data)
        assert packed == reference_rle_compress(data)
        assert rle_decompress(packed, len(data)) == data

    @given(
        density=st.floats(0.0, 1.0),
        runs=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(1, 2 * MIN_ZERO_RUN), st.integers(1, 255)),
            max_size=80,
        ),
        lead=st.integers(0, 2 * MIN_ZERO_RUN),
        trail=st.integers(0, 2 * MIN_ZERO_RUN),
    )
    @settings(max_examples=300, deadline=None)
    @example(density=1.0, runs=[(0.0, 2 * MIN_ZERO_RUN, 1)] * 3, lead=0, trail=0)
    @example(density=0.0, runs=[(0.5, 1, 7)] * 40, lead=MIN_ZERO_RUN, trail=MIN_ZERO_RUN - 1)
    @example(density=0.9, runs=[(0.5, MIN_ZERO_RUN - 1, 3), (0.95, 1, 4)] * 20, lead=0,
             trail=MIN_ZERO_RUN)
    def test_dense_and_sparse_match_reference(self, density, runs, lead, trail):
        # Each run is zeros with probability ``density``, else a literal
        # value: dense SVC-like residuals at low density, sparse track-like
        # deltas at high density, and zero runs that lead, trail or fill.
        body = b"".join(bytes([0 if u < density else v]) * n for u, n, v in runs)
        data = b"\0" * lead + body + b"\0" * trail
        packed = rle_compress(data)
        assert packed == reference_rle_compress(data)
        assert rle_decompress(packed, len(data)) == data

    def test_corrupt_inputs(self):
        with pytest.raises(CorruptRleError):
            rle_decompress(b"\x01\x01\x00", 1)  # truncated record header
        with pytest.raises(CorruptRleError):
            rle_decompress(struct.pack("<BI", 1, 10) + b"ab", 10)  # literal overrun
        with pytest.raises(CorruptRleError):
            rle_decompress(struct.pack("<BI", 7, 1), 1)  # unknown run type
        with pytest.raises(CorruptRleError):
            rle_decompress(struct.pack("<BI", 0, 9), 8)  # zero run past the output
        with pytest.raises(CorruptRleError):
            rle_decompress(struct.pack("<BI", 1, 2) + b"ab", 1)  # literal past the output
        with pytest.raises(CorruptRleError):
            rle_decompress(struct.pack("<BI", 0, 7), 8)  # short output

    def test_huge_run_rejected_in_bounded_memory(self):
        for length in (200_000_000, 0xFFFFFFFF):
            tracemalloc.start()
            try:
                with pytest.raises(CorruptRleError):
                    rle_decompress(struct.pack("<BI", 0, length), 4096)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_decode_rejects_wrong_size_tile(self):
        config = small_config()
        stream = encode_svc(generate_content(1, config, 1))
        frame = stream.frames[0]
        enh = next(l for l in frame.layers if l.header.layer_id == LayerId.ENHANCED)
        group = enh.tile_groups[0]
        short = dataclasses.replace(group.tiles[0], coded_payload=rle_compress(b"\x00" * 7))
        enh = dataclasses.replace(
            enh, tile_groups=(dataclasses.replace(group, tiles=(short, *group.tiles[1:])),
                              *enh.tile_groups[1:])
        )
        layers = tuple(enh if l.header.layer_id == LayerId.ENHANCED else l for l in frame.layers)
        doctored = dataclasses.replace(stream, frames=(dataclasses.replace(frame, layers=layers),))
        with pytest.raises(CorruptRleError):
            decode_frame(doctored, 0, {short.tile_index})


class TestContent:
    def test_deterministic(self):
        config = small_config()
        a = generate_content(9, config, 3)
        b = generate_content(9, config, 3)
        assert a.frames == b.frames

    def test_seed_changes_content(self):
        config = small_config()
        a = generate_content(1, config, 1)
        b = generate_content(2, config, 1)
        assert a.frames[0] != b.frames[0]

    def test_negative_seed_rejected(self):
        with pytest.raises(BadConfigError, match="seed must be >= 0"):
            generate_content(-1, small_config(), 1)

    def test_over_budget_is_refused_before_allocating(self):
        config = SequenceConfig(width=768, height=384)
        for frames in (CONTENT_PIXEL_BUDGET // (768 * 384) + 1, 100_000_000):
            tracemalloc.start()
            try:
                with pytest.raises(TooLargeError, match="content pixel budget"):
                    generate_content(1, config, frames)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_encode_over_tile_budget_is_refused_before_the_first_frame(self):
        # 255x255 tiles: one base tile and 65,025 enhanced tiles per SVC frame.
        config = SequenceConfig(width=510, height=510, tile_cols=255, tile_rows=255)
        frame = generate_content(1, config, 1).frames[0]
        source = VideoSource(config, (frame,) * (ENCODED_TILE_BUDGET // 65_025 + 1))
        for encode in (encode_svc, lambda s: encode_track(s, 30, TrackResolution.FULL)):
            tracemalloc.start()
            try:
                with pytest.raises(TooLargeError, match="encoded tile budget"):
                    encode(source)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_temporal_change_sparser_than_downscale_loss(self):
        # Premise of the layering: consecutive frames differ on few pixels,
        # while downscale/upscale loses detail on most pixels.
        config = SequenceConfig(width=128, height=64, tile_cols=2, tile_rows=2)
        source = generate_content(3, config, 2)
        a, b = source.frames
        temporal = np.count_nonzero(a.samples != b.samples)
        lossy = upsample_nearest(downsample(a, 2), 2)
        spatial = np.count_nonzero(a.samples != lossy.samples)
        assert temporal < spatial


    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 40).map(lambda n: 2 * n),
        height=st.integers(1, 24).map(lambda n: 2 * n),
        frames=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_grid_reference(self, seed, width, height, frames):
        config = SequenceConfig(width=width, height=height)
        got = generate_content(seed, config, frames).frames
        want = reference_generate_content_frames(seed, width, height, frames)
        assert [f.samples.tobytes() for f in got] == [f.tobytes() for f in want]

    # At 256x128 a blob's window never spans a whole axis, so a blob near an
    # edge is split into two slices per axis.  At frame 0, seed 0 puts
    # blobs 1 and 2 across the left/right edge, seed 2 puts blob 3 across
    # the top/bottom edge, and seed 6 puts blob 0 across a corner.
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 128).map(lambda n: 2 * n),
        height=st.integers(1, 64).map(lambda n: 2 * n),
        frames=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=0, width=256, height=128, frames=2)
    @example(seed=2, width=256, height=128, frames=2)
    @example(seed=6, width=256, height=128, frames=2)
    def test_matches_full_grid_reference_up_to_256x128(self, seed, width, height, frames):
        config = SequenceConfig(width=width, height=height)
        got = generate_content(seed, config, frames).frames
        want = reference_generate_content_frames(seed, width, height, frames)
        assert [f.samples.tobytes() for f in got] == [f.tobytes() for f in want]

    @pytest.mark.parametrize("center, radius, size, want", [
        (50.0, 10.0, 256, [slice(39, 62)]),  # no wrap
        (3.5, 10.0, 256, [slice(248, 256), slice(0, 16)]),  # wraps past the left edge
        (250.0, 10.0, 256, [slice(239, 256), slice(0, 6)]),  # wraps past the right edge
        (2.0, 1.5, 4, [slice(0, 4)]),  # radius plus slack covers the whole axis
    ])
    def test_wrapped_runs(self, center, radius, size, want):
        runs = _wrapped_runs(center, radius, size)
        assert runs == want
        # The pixels within radius + 1 of center, each once, modulo size.
        lo, hi = math.floor(center - radius) - 1, math.ceil(center + radius) + 1
        covered = np.concatenate([np.arange(size)[r] for r in runs])
        assert sorted(covered) == sorted({i % size for i in range(lo, hi + 1)})


# SHA-256 digests of the content generator and of both encoders' serialized
# output, recorded from the full-grid generator and the straightforward
# kernels.  Any change to these bytes is a format or content change, not an
# optimization.  A ``*_body`` digest covers a track's bytes after the
# sequence header: its frames, whatever the header declares.
GOLDEN = {
    "768x384": (
        SequenceConfig(width=768, height=384, tile_cols=6, tile_rows=4, gop_size=30),
        1, 32,
        {
            "content": "32972ea7eca7861251aead0ae850bb5498ac71ed265d5dfe547a8f91b1352c8e",
            "svc": "2f3ecf5dc79eb55d65c7fc50ecf060109d32bd57aaf560bd2d7c51e1664e1751",
            "track_full": "8212a506d52236b0c35881b555e67828a610b5ce7d766351f620788f45a3bea4",
            "track_base": "ca805668d2648e2962c20f5e868128c2055ecf480adfe00058aff53b0a914935",
            "track_full_body": "ee002bdb30e2d5b43d2689cccb6518dcfe55bf07a1a3ca1e87f6798a9099b658",
            "track_base_body": "22ad219ed74d6382709967be2d879faad194dde22ca701b1b434c6db88bd5a67",
        },
    ),
    "384x192": (
        SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4, gop_size=10,
                       ref_window=2),
        5, 12,
        {
            "content": "dc5aade2d1a545d983bb1c8044a71e2bf4e189af80d234afb72d57a648bdaad1",
            "svc": "6985036dae496210a63d3d9f0b508cf57f6cba9a88142fbed8eba553a3fa0c85",
            "track_full": "aa2bc5465070c60a40c9eb3a1fdfe8f62d28df987383b41dcd6c1b1fdf2d23a5",
            "track_base": "d8dd42fd329f9b5c92c076fce8ac307a6d8a83d23f5f0ed2c8f3a09c42c7728f",
            "track_full_body": "c2d70334d30fba33d776e13530149e2967e9c3f4b950b1c4c31364ab7f356252",
            "track_base_body": "6ea17df608ccb24bcc886698098c097b8848b1f9c86c3df5590d11de23ff7fd6",
        },
    ),
    # Odd tile grid and a tiled base layer.
    "96x48": (
        SequenceConfig(width=96, height=48, tile_cols=4, tile_rows=2, gop_size=4,
                       base_single_tile=False),
        3, 9,
        {
            "content": "f6e4196169c89d70a746c109cfe79967114570fb1316849b4598fd15f6690acf",
            "svc": "6be0c94ef4d15c52c4dd1f18367b2b403d6c912591b6e1bca7a7c8e40499cfd6",
            "track_full": "ccf268510cef8e7ca21107f1ce7cd9f84e9c7a611300d1827dbe526e4b7befa5",
            "track_base": "9413241fca0d7d43e421e34d6ad3dc2ac69f58ab0f8969bf977f4c8613752def",
            "track_full_body": "02d3f039c9dbfcaa77c8a828886de78b400321b360f2dddd4751d5cbe6356072",
            "track_base_body": "80a7664b15d52a292026e7ed799ea0c9e84ff8af98d9dd7d3873b9c59724694f",
        },
    ),
    # A blob's radius plus its one-pixel slack spans the whole 4-pixel height.
    "12x4": (
        SequenceConfig(width=12, height=4, tile_cols=3, tile_rows=1, gop_size=3),
        8, 7,
        {
            "content": "3aab1f12f13bceb289c28c29b496a9917477ec88d6001fa74e041cbfa3da3572",
            "svc": "432daa42cb4b0f49b4617f1cb8164295cb473743d11f92d8fd99a47dcfd8cb32",
            "track_full": "7189d00d80aa8b97b81eeea536e89d2d1a2874bd4e3b36171ca46bdf1a915759",
            "track_base": "11730cfa2a4006491b22cbd0acca39fea085a3c6b753ddb5252f726a6f1220db",
            "track_full_body": "8317a5e3df115bb87c0040c765d08a3c54b48a386e1c4384ea9945c75df1f6f5",
            "track_base_body": "3b944b9241f7b376177faaca5d47cdcb4f98c3ad1de024580122f42afc648e2e",
        },
    ),
}


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digests(self, name):
        config, seed, n, want = GOLDEN[name]
        source = generate_content(seed, config, n)
        gop = config.gop_size
        got = {
            "content": _sha256(*(frame.tobytes() for frame in source.frames)),
            "svc": _sha256(serialize(encode_svc(source))),
        }
        for resolution in TrackResolution:
            data = serialize(encode_track(source, gop, resolution))
            got[f"track_{resolution.value}"] = _sha256(data)
            got[f"track_{resolution.value}_body"] = _sha256(data[HEADER_SIZE:])
        assert got == want


class TestSvcEncoder:
    def test_output_validates_and_round_trips(self):
        source = generate_content(1, small_config(), 8)
        stream = encode_svc(source)
        assert validate_structure(stream) == []
        assert len(stream.frames) == 8

    def test_layer_structure(self):
        config = small_config()
        stream = encode_svc(generate_content(1, config, 4))
        for pos, frame in enumerate(stream.frames):
            base, enh = frame.layers
            assert base.header.layer_id == LayerId.BASE
            assert enh.header.layer_id == LayerId.ENHANCED
            key = pos % config.gop_size == 0
            assert base.header.frame_type == (FrameType.KEY if key else FrameType.INTER)
            assert enh.header.frame_type == FrameType.INTER
            assert len(enh.tile_groups) == config.tile_count

    def test_static_source_base_inter_is_one_zero_run(self):
        config = small_config()
        img = generate_content(1, config, 1).frames[0]
        source = VideoSource(config=config, frames=(img, img, img))
        stream = encode_svc(source)
        for frame in stream.frames[1:]:
            base = frame.layers[0]
            assert base.header.frame_type == FrameType.INTER
            payload = base.tile_groups[0].tiles[0].coded_payload
            assert len(payload) == 5  # single zero-run record

    def test_key_frames_cost_more_than_inter(self):
        config = small_config(gop_size=4)
        stream = encode_svc(generate_content(2, config, 8))
        key_bytes, inter_bytes = [], []
        for frame, n in zip(stream.frames, record_bytes_per_frame(stream, LayerId.BASE)):
            key = frame.layers[0].header.frame_type == FrameType.KEY
            (key_bytes if key else inter_bytes).append(n)
        assert np.mean(key_bytes) > np.mean(inter_bytes)

    def test_wider_ref_window_never_costs_more(self):
        config1 = small_config(gop_size=4, ref_window=1)
        config3 = small_config(gop_size=4, ref_window=3)
        n1 = len(serialize(encode_svc(generate_content(2, config1, 8))))
        n3 = len(serialize(encode_svc(generate_content(2, config3, 8))))
        # The offset search includes 0, so more candidates can only help.
        # Wire cost is identical per frame apart from payload sizes.
        assert n3 <= n1

    def test_ref_offsets_stay_inside_gop(self):
        config = small_config(gop_size=4, ref_window=3)
        stream = encode_svc(generate_content(2, config, 8))
        for pos, frame in enumerate(stream.frames):
            off = frame.layers[1].header.base_ref_offset
            assert 0 <= off < config.ref_window
            assert pos - off >= (pos // config.gop_size) * config.gop_size

    def test_tiled_base_costs_at_least_single_tile(self):
        source_s = generate_content(2, small_config(base_single_tile=True), 4)
        source_t = generate_content(2, small_config(base_single_tile=False), 4)
        n_single = len(serialize(encode_svc(source_s)))
        n_tiled = len(serialize(encode_svc(source_t)))
        assert n_single <= n_tiled

    def test_holds_no_upsampled_plane_cache(self):
        # Each candidate reference is upsampled when it is tried and dropped
        # after: a flat source's encode peaks below half the size of its 60
        # frames, where one cached full-size plane per frame would exceed it.
        config = SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4)
        plane = np.full((192, 384), 128, dtype=np.uint8)
        source = VideoSource(config, tuple(RasterFrame(plane) for _ in range(60)))
        assert traced_peak(lambda: encode_svc(source)) < 60 * plane.nbytes // 2


class TestTrackEncoder:
    def test_full_track_validates(self):
        source = generate_content(1, small_config(), 6)
        stream = encode_track(source, 3, TrackResolution.FULL)
        assert validate_structure(stream) == []
        assert stream.config.base_single_tile is False
        assert stream.config.gop_size == 3

    def test_base_track_is_downscaled_single_tile(self):
        config = small_config()
        stream = encode_track(generate_content(1, config, 4), 2, TrackResolution.BASE)
        assert validate_structure(stream) == []
        assert stream.config == dataclasses.replace(config, gop_size=2)
        assert stream.config.layer_grid(base=True) == (1, 1)
        for frame in stream.frames:
            (layer,) = frame.layers
            (group,) = layer.tile_groups
            (tile,) = group.tiles
            # Raises unless the one tile codes exactly a base-size plane.
            rle_decompress(tile.coded_payload, config.base_width * config.base_height)

    @pytest.mark.parametrize("resolution", ["full", "base", "half", None])
    def test_only_a_track_resolution_is_accepted(self, resolution):
        with pytest.raises(BadConfigError):
            encode_track(generate_content(1, small_config(), 2), 2, resolution)

    def test_smaller_gop_never_cheaper(self):
        source = generate_content(2, small_config(gop_size=30), 30)
        sizes = {
            gop: len(serialize(encode_track(source, gop, TrackResolution.FULL)))
            for gop in (3, 5, 30)
        }
        assert sizes[3] >= sizes[5] >= sizes[30]


def coded_samples_per_frame(stream: Bitstream) -> list[int]:
    """The samples each frame of ``stream`` codes: the summed region sizes
    of the CODED tiles of all its layers."""
    counts = []
    for frame in stream.frames:
        n = 0
        for layer in frame.layers:
            regions = stream.config.layer_regions(base=layer.header.layer_id == LayerId.BASE)
            for group in layer.tile_groups:
                for tile in group.tiles:
                    if tile.tile_kind == TileKind.CODED:
                        rs, cs = regions[tile.tile_index]
                        n += (rs.stop - rs.start) * (cs.stop - cs.start)
        counts.append(n)
    return counts


class TestCodedSamples:
    """PAPER.md's third claim by count: SVC at ``ref_window`` 1 codes the
    base and the enhanced layer, as many samples as ``multitrack(G,0)``'s low
    and full tracks, and a short track adds a second full track."""

    @pytest.mark.parametrize("config, frames", [
        (SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4, gop_size=10), 12),
        (SequenceConfig(width=768, height=384, tile_cols=6, tile_rows=4, gop_size=30), 32),
    ], ids=["384x192", "768x384"])
    def test_samples_per_frame(self, config, frames):
        source = generate_content(1, config, frames)
        wh, sf, gop = config.width * config.height, config.scale_factor, config.gop_size

        def tracks(*specs):
            counts = [coded_samples_per_frame(encode_track(source, g, r)) for g, r in specs]
            return [sum(c) for c in zip(*counts)]

        low = (gop, TrackResolution.BASE)
        svc = coded_samples_per_frame(encode_svc(source))
        assert svc == [wh + wh // (sf * sf)] * frames
        assert tracks(low, (gop, TrackResolution.FULL)) == svc
        assert tracks(low, (gop, TrackResolution.FULL), (5, TrackResolution.FULL)) == [
            2 * wh + wh // (sf * sf)] * frames


# 64x32 with 2x2 tiles, 36x18 with 3x3 tiles (its base layer cannot be halved
# again) and 72x36 at scale factor 3.
TRACK_CONFIGS = [
    small_config(),
    SequenceConfig(width=36, height=18, tile_cols=3, tile_rows=3, gop_size=6),
    SequenceConfig(width=72, height=36, tile_cols=2, tile_rows=1, scale_factor=3, gop_size=5),
]
TRACK_CONFIG_IDS = ["64x32", "36x18", "72x36-sf3"]


class TestTrackDecode:
    """A track is a one-layer stream that ``decode_frame`` reads as it reads
    an SVC stream's base layer."""

    @pytest.mark.parametrize("config", TRACK_CONFIGS, ids=TRACK_CONFIG_IDS)
    def test_full_track_is_the_source(self, config):
        gop = 3
        source = generate_content(2, config, 2 * gop)
        stream = parse(serialize(encode_track(source, gop, TrackResolution.FULL)))
        tile_sets = [set(), {0}, set(range(1, config.tile_count)), set(range(config.tile_count))]
        for i, frame in enumerate(source.frames):
            for tiles in tile_sets:
                assert decode_frame(stream, i, tiles) == frame

    @pytest.mark.parametrize("config", TRACK_CONFIGS, ids=TRACK_CONFIG_IDS)
    def test_base_track_is_the_upscaled_base(self, config):
        sf = config.scale_factor
        source = generate_content(2, config, 6)
        stream = parse(serialize(encode_track(source, 4, TrackResolution.BASE)))
        for i, frame in enumerate(source.frames):
            want = upsample_nearest(downsample(frame, sf), sf)
            assert decode_frame(stream, i, set(range(config.tile_count))) == want

    @pytest.mark.parametrize("config", TRACK_CONFIGS, ids=TRACK_CONFIG_IDS)
    def test_base_track_at_the_svc_gop_is_the_svc_base_layer(self, config):
        source = generate_content(3, config, 2 * config.gop_size + 1)
        track = encode_track(source, config.gop_size, TrackResolution.BASE)
        svc = encode_svc(source)
        assert [f.layers for f in track.frames] == [f.layers[:1] for f in svc.frames]


class TestScaleFactorOne:
    """At scale factor 1 the base layer is the source, so every tile set
    decodes to the source, rewritten or not."""

    @given(tiles=st.sets(st.integers(0, 3)), received=st.sets(st.integers(0, 3)))
    @settings(max_examples=30, deadline=None)
    def test_encode_rewrite_decode_is_bit_exact(self, tiles, received):
        config = small_config(scale_factor=1, gop_size=3)
        source = generate_content(5, config, 5)
        stream = encode_svc(source)
        frames = tuple(rewrite_viewport_frame(f, tiles, config) for f in stream.frames)
        rewritten = parse(serialize(Bitstream(config, frames)))
        for i, frame in enumerate(source.frames):
            assert decode_frame(rewritten, i, received) == frame
            assert decode_frame(stream, i, received) == frame


class TestLayerRegions:
    """``SequenceConfig.layer_regions``, the one tile table of the encoder
    and the decoder, tiles each layer's own plane exactly, in raster order."""

    @pytest.mark.parametrize("scale_factor", [1, 2])
    @pytest.mark.parametrize("base_single_tile", [True, False], ids=["single", "tiled"])
    def test_exact_raster_tiling(self, scale_factor, base_single_tile):
        config = SequenceConfig(96, 48, scale_factor=scale_factor, tile_cols=3, tile_rows=2,
                                base_single_tile=base_single_tile)
        planes = {True: (config.base_height, config.base_width),
                  False: (config.height, config.width)}
        for base, (height, width) in planes.items():
            regions = config.layer_regions(base)
            cols, rows = config.layer_grid(base)
            assert len(regions) == cols * rows
            hits = np.zeros((height, width), dtype=np.int64)
            for rs, cs in regions:
                assert 0 <= rs.start < rs.stop <= height and 0 <= cs.start < cs.stop <= width
                hits[rs, cs] += 1
            assert (hits == 1).all()
            corners = [(rs.start, cs.start) for rs, cs in regions]
            assert corners == sorted(set(corners))
        tw, th = config.tile_width, config.tile_height
        enhanced = config.layer_regions(base=False)
        for t, (rs, cs) in enumerate(enhanced):
            col, row = config.tile_position(t)
            assert (rs, cs) == (slice(row * th, (row + 1) * th), slice(col * tw, (col + 1) * tw))
        if not base_single_tile:
            # A tiled base layer's tiles are the enhanced tiles, downscaled.
            sf = scale_factor
            assert config.layer_regions(base=True) == [
                (slice(rs.start // sf, rs.stop // sf), slice(cs.start // sf, cs.stop // sf))
                for rs, cs in enhanced
            ]

    @pytest.mark.parametrize("tile", [-1, 6])
    def test_tile_position_outside_the_grid_is_refused(self, tile):
        with pytest.raises(BadConfigError, match=f"tile index {tile} outside grid"):
            SequenceConfig(96, 48, tile_cols=3, tile_rows=2).tile_position(tile)


class TestDecode:
    def test_all_tiles_is_lossless(self):
        config = small_config(ref_window=2)
        source = generate_content(4, config, 6)
        stream = encode_svc(source)
        for i in (0, 3, 5):
            out = decode_frame(stream, i, set(range(config.tile_count)))
            assert out == source.frames[i]

    @pytest.mark.parametrize("frame_index", [-1, 2])
    def test_frame_outside_the_stream_is_refused(self, frame_index):
        stream = encode_svc(generate_content(4, small_config(), 2))
        with pytest.raises(MissingBaseError, match=f"for frame {frame_index}$"):
            decode_frame(stream, frame_index, set())

    def test_no_tiles_is_upscaled_base(self):
        config = small_config()
        source = generate_content(4, config, 2)
        stream = encode_svc(source)
        out = decode_frame(stream, 1, set())
        expect = upsample_nearest(downsample(source.frames[1], config.scale_factor), 2)
        assert out == expect

    def test_partial_nonadjacent_tiles(self):
        config = SequenceConfig(width=160, height=96, tile_cols=4, tile_rows=3, gop_size=4)
        source = generate_content(6, config, 3)
        stream = encode_svc(source)
        received = {4, 6, 7, 9}
        out = decode_frame(stream, 2, received)
        base_up = upsample_nearest(downsample(source.frames[2], 2), 2)
        tw, th = config.tile_width, config.tile_height
        for t in range(config.tile_count):
            col, row = config.tile_position(t)
            region = (slice(row * th, (row + 1) * th), slice(col * tw, (col + 1) * tw))
            want = source.frames[2] if t in received else base_up
            assert np.array_equal(out.samples[region], want.samples[region])

    def test_declared_size_over_budget_is_refused_before_allocating(self):
        data = bytearray(serialize(encode_svc(generate_content(1, SequenceConfig(32, 16), 1))))
        struct.pack_into("<HH", data, 5, 32768, 16384)  # the header's width and height
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="frame pixel budget"):
                parse(bytes(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_working_set_does_not_grow_with_gop_position(self):
        # The base layer is decoded in place, so the GOP's last frame holds
        # no more than its first, give or take one base plane.
        config = SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4, gop_size=30)
        stream = encode_svc(generate_content(1, config, 30))
        tiles = set(range(9))
        first = traced_peak(lambda: decode_frame(stream, 0, tiles))
        last = traced_peak(lambda: decode_frame(stream, 29, tiles))
        assert last <= first + config.base_width * config.base_height

    def test_base_only_stream_decodes(self):
        config = small_config()
        source = generate_content(1, config, 3)
        stream = encode_svc(source)
        stripped = stream.__class__(
            config=config,
            frames=tuple(Frame(layers=(f.layers[0],)) for f in stream.frames),
        )
        assert validate_structure(stripped) == []
        out = decode_frame(stripped, 2, set(range(config.tile_count)))
        expect = upsample_nearest(downsample(source.frames[2], 2), 2)
        assert out == expect


@functools.cache
def gop_stream(gop: int, kind: str) -> Bitstream:
    """12 frames at 64x32, 2x2 tiles; a tiled base at GOP 3.  Odd frames
    inside a GOP predict their enhanced tiles from the previous base frame
    where ``ref_window`` allows it (the encoder picks offset 0 on this
    content, so the headers are set by hand; both decoders read the same
    payloads against the same reference).  Kind ``rewritten`` turns every
    third frame into a viewport frame with skipped stubs; kinds ``full`` and
    ``base`` are that resolution's track at the GOP instead."""
    config = small_config(gop_size=gop, ref_window=min(2, gop), base_single_tile=gop != 3)
    source = generate_content(gop, config, 12)
    if kind in ("full", "base"):
        return encode_track(source, gop, TrackResolution(kind))
    rewritten = kind == "rewritten"
    stream = encode_svc(source)
    frames = []
    for i, frame in enumerate(stream.frames):
        if i % 2 and i % gop and config.ref_window > 1:
            base, enh = frame.layers
            header = dataclasses.replace(enh.header, base_ref_offset=1)
            frame = dataclasses.replace(frame, layers=(base, dataclasses.replace(enh, header=header)))
        if rewritten and i % 3 == 1:
            frame = rewrite_viewport_frame(frame, {1, 2}, config)
        frames.append(frame)
    stream = Bitstream(config, tuple(frames))
    assert validate_structure(stream) == []
    return stream


def with_base_payload(stream: Bitstream, frame_index: int, payload: bytes) -> Bitstream:
    """``stream`` with the first base tile of one frame replaced."""
    frame = stream.frames[frame_index]
    base = next(l for l in frame.layers if l.header.layer_id == LayerId.BASE)
    group = base.tile_groups[0]
    tile = dataclasses.replace(group.tiles[0], coded_payload=payload)
    group = dataclasses.replace(group, tiles=(tile, *group.tiles[1:]))
    base = dataclasses.replace(base, tile_groups=(group, *base.tile_groups[1:]))
    layers = tuple(base if l.header.layer_id == LayerId.BASE else l for l in frame.layers)
    frames = list(stream.frames)
    frames[frame_index] = dataclasses.replace(frame, layers=layers)
    return dataclasses.replace(stream, frames=tuple(frames))


class TestRandomAccessDecode:
    """``decode_frame`` decodes the base layer from the frame's GOP start;
    the reference decodes it from frame 0."""

    @given(
        gop=st.sampled_from([1, 3, 10]),
        kind=st.sampled_from(["svc", "rewritten", "full", "base"]),
        frame=st.integers(0, 11),
        tiles=st.sets(st.integers(0, 3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_decode_from_frame_zero(self, gop, kind, frame, tiles):
        stream = gop_stream(gop, kind)
        assert decode_frame(stream, frame, tiles) == reference_decode_frame(stream, frame, tiles)

    def test_corrupt_base_in_the_frames_gop_raises(self):
        stream = gop_stream(3, "svc")
        bad = with_base_payload(stream, 4, b"\x07")  # a truncated RLE record
        assert validate_structure(bad) == []
        for target in (4, 5):
            with pytest.raises(CorruptRleError):
                decode_frame(bad, target, {0, 1})
        assert decode_frame(bad, 3, {0, 1}) == decode_frame(stream, 3, {0, 1})

    def test_corrupt_base_in_an_earlier_gop_is_not_read(self):
        stream = gop_stream(3, "svc")
        bad = with_base_payload(stream, 1, b"\x07")
        all_tiles = set(range(4))
        assert decode_frame(bad, 4, all_tiles) == decode_frame(stream, 4, all_tiles)
        # Decoding from frame 0 read the corrupt payload and failed.
        with pytest.raises(CorruptRleError):
            reference_decode_frame(bad, 4, all_tiles)


class TestMetrics:
    def test_rate_records_match_byte_accounting(self):
        # Encoder output, both track resolutions and rewritten frames: the
        # records price each frame at its serialized size, and the stream at
        # its file size less the sequence header.
        config = small_config()
        source = generate_content(1, config, 4)
        svc = encode_svc(source)
        rewritten = Bitstream(config, tuple(
            rewrite_viewport_frame(f, {1, 2}, config) for f in svc.frames))
        tracks = [encode_track(source, 2, r) for r in TrackResolution]
        for stream in (svc, rewritten, *tracks):
            per_frame = record_bytes_per_frame(stream)
            assert per_frame == [serialized_frame_size(f) for f in stream.frames]
            assert sum(per_frame) == len(serialize(stream)) - HEADER_SIZE
