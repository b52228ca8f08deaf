"""Viewports, frame-to-sphere projections, tile selection."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_tiles,
    reference_accepts,
    reference_project_cubemap,
    reference_project_erp,
    reference_rotation,
    reference_unproject_cubemap,
)
from svbs import geometry
from svbs.config import SequenceConfig
from svbs.errors import BadConfigError, BadTraceError, TooLargeError
from svbs.geometry import (
    ORACLE_PIXEL_BUDGET,
    _BLOCK,
    _block_table,
    _in_bounds,
    _pixel_center_directions,
    _rotation,
    _tiles_of_pixels,
    _unproject,
    _unproject_cubemap,
    Projection,
    ProjectionKind,
    Viewport,
    read_viewport_trace,
    select_tiles,
    tile_coverage_oracle,
    write_viewport_trace,
)

ERP_CONFIG = SequenceConfig(width=768, height=384, tile_cols=6, tile_rows=4)
ERP_PROJ = Projection(ProjectionKind.ERP, 768, 384)
CUBE_CONFIG = SequenceConfig(width=768, height=512, tile_cols=6, tile_rows=4)
CUBE_PROJ = Projection(ProjectionKind.CUBEMAP_3x2, 768, 512)


def random_viewport(rng: random.Random) -> Viewport:
    return Viewport.from_degrees(
        rng.uniform(-180.0, 180.0),
        rng.uniform(-60.0, 60.0),
        rng.uniform(60.0, 120.0),
        rng.uniform(45.0, 90.0),
    )


# Degrees at and one ulp around each bound, signed zeros, and non-finite values.
_EDGE_DEGREES = [d for bound in (-90.0, 0.0, 90.0, 180.0, 360.0)
                 for d in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))]
_EDGE_DEGREES += [-0.0, 5e-324, 1e-320, math.inf, -math.inf, math.nan]


class TestViewport:
    def test_yaw_wraps(self):
        # Yaw is kept as given; the rotation wraps it, so 270 turns the view
        # exactly as -90 does.
        vp, back = Viewport(270.0, 0.0, 90.0, 90.0), Viewport(-90.0, 0.0, 90.0, 90.0)
        assert vp.yaw == 270.0
        assert np.array_equal(_bits(_rotation(vp)), _bits(_rotation(back)))
        assert select_tiles(vp, ERP_PROJ, ERP_CONFIG) == select_tiles(back, ERP_PROJ, ERP_CONFIG)

    def test_bad_angles_rejected(self):
        with pytest.raises(BadConfigError):
            Viewport.from_degrees(0, 100, 90, 90)
        with pytest.raises(BadConfigError):
            Viewport.from_degrees(0, 0, 0, 90)
        with pytest.raises(BadConfigError):
            Viewport.from_degrees(0, 0, 90, 200)

    @given(pose=st.tuples(*[st.one_of(st.floats(), st.sampled_from(_EDGE_DEGREES))] * 4))
    @settings(max_examples=300, deadline=None)
    def test_refuses_what_the_radian_checks_refuse(self, pose):
        try:
            Viewport(*pose)
        except BadConfigError:
            accepted = False
        else:
            accepted = True
        assert accepted == reference_accepts(*pose)

    @given(
        yaw=st.floats(allow_nan=False, allow_infinity=False),
        pitch=st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, -0.0, 0.0, 90.0])),
        h_fov=st.one_of(st.floats(0.0, 360.0, exclude_min=True), st.sampled_from([1e-320, 360.0])),
        v_fov=st.one_of(st.floats(0.0, 180.0, exclude_min=True), st.sampled_from([1e-320, 180.0])),
    )
    @settings(max_examples=200, deadline=None)
    def test_radians_are_derived_bit_for_bit(self, yaw, pitch, h_fov, v_fov):
        assume(reference_accepts(yaw, pitch, h_fov, v_fov))  # 5e-324 degrees is 0 radians
        vp = Viewport(yaw, pitch, h_fov, v_fov)
        assert np.array_equal(_bits(_rotation(vp)), _bits(reference_rotation(vp)))
        radians = [math.radians(x) for x in (pitch, h_fov, v_fov)]
        assert np.array_equal(_bits(vp.radians[1:]), _bits(radians))

    @pytest.mark.parametrize("width, height", [(0, 10), (10, 0), (-2, 10)])
    def test_projection_dimensions_must_be_positive(self, width, height):
        with pytest.raises(BadConfigError, match="projection dimensions must be positive"):
            Projection(ProjectionKind.ERP, width, height)

    def test_cubemap_aspect_enforced(self):
        with pytest.raises(BadConfigError):
            Projection(ProjectionKind.CUBEMAP_3x2, 768, 384)


def _unproject_point(u: float, v: float, projection: Projection) -> np.ndarray:
    return _unproject(np.array([u]), np.array([v]), projection)[0]


class TestErpProjection:
    """The frame is only ever unprojected: pixel centers to directions."""

    def test_cardinal_directions(self):
        for (u, v), axis in {
            (384.0, 192.0): (1, 0, 0),
            (576.0, 192.0): (0, 1, 0),
            (0.0, 192.0): (-1, 0, 0),
            (192.0, 192.0): (0, -1, 0),
            (100.0, 0.0): (0, 0, 1),
            (100.0, 384.0): (0, 0, -1),
        }.items():
            assert _unproject_point(u, v, ERP_PROJ) == pytest.approx(axis, abs=1e-12)


class TestCubemapProjection:
    def test_face_centers(self):
        # A 3x2 map of 3-pixel faces: each face center is a pixel center.
        proj = Projection(ProjectionKind.CUBEMAP_3x2, 9, 6)
        for (u, v), axis in {
            (4.5, 1.5): (1, 0, 0),  # front
            (7.5, 1.5): (0, 1, 0),  # right
            (7.5, 4.5): (0, 0, 1),  # top
            (4.5, 4.5): (-1, 0, 0),  # back
            (1.5, 1.5): (0, -1, 0),  # left
            (1.5, 4.5): (0, 0, -1),  # bottom
        }.items():
            assert _unproject_point(u, v, proj).tolist() == list(axis)

    @given(
        st.floats(-179.9, 179.9),
        st.floats(-89.0, 89.0),
        st.sampled_from([ProjectionKind.ERP, ProjectionKind.CUBEMAP_3x2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_project_unproject_round_trip(self, lon_deg, lat_deg, kind):
        # A direction's pixel under the reference forward map must unproject
        # to a nearby direction: within the angular diagonal of one pixel.
        proj = ERP_PROJ if kind == ProjectionKind.ERP else CUBE_PROJ
        project = reference_project_erp if kind == ProjectionKind.ERP else reference_project_cubemap
        lon, lat = math.radians(lon_deg), math.radians(lat_deg)
        d = np.array([[math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]])
        u, v = project(d, proj.width, proj.height)
        back = _unproject(u, v, proj)[0]
        angle = math.acos(float(np.clip(np.dot(back, d[0]), -1.0, 1.0)))
        assert angle <= 2 * math.pi / proj.width * 3


def _bits(x) -> np.ndarray:
    """The int64 bit patterns of a float64 array, zero signs included."""
    return np.asarray(x, np.float64).view(np.int64)


class TestCubemapFaceTable:
    """The face table unprojects exactly like the six-way branches it
    replaced (``helpers.reference_unproject_cubemap``)."""

    @pytest.mark.parametrize("width, height", [(96, 64), (768, 512)])
    def test_every_pixel_center_is_bit_identical(self, width, height):
        ys, xs = np.mgrid[0:height, 0:width]
        u, v = xs.ravel() + 0.5, ys.ravel() + 0.5
        dirs = _unproject_cubemap(u, v, width, height)
        assert np.array_equal(_bits(dirs), _bits(reference_unproject_cubemap(u, v, width, height)))

    @given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                              st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=64),
           st.integers(1, 256))
    @settings(max_examples=200, deadline=None)
    def test_unprojection_is_bit_identical(self, fractions, face):
        u, v = (np.array(x) * n for x, n in zip(zip(*fractions), (3 * face, 2 * face)))
        got = _unproject_cubemap(u, v, 3 * face, 2 * face)
        assert np.array_equal(_bits(got), _bits(reference_unproject_cubemap(u, v, 3 * face,
                                                                           2 * face)))


class TestSelectTiles:
    def test_equatorial_viewport_covers_one_sixth(self):
        vp = Viewport.from_degrees(0, 0, 90, 90)
        tiles = select_tiles(vp, ERP_PROJ, ERP_CONFIG)
        assert tiles == {8, 9, 14, 15}
        assert len(tiles) / ERP_CONFIG.tile_count == pytest.approx(1 / 6)

    def test_seam_crossing_is_noncontiguous_columns(self):
        vp = Viewport.from_degrees(180, 0, 90, 90)
        tiles = select_tiles(vp, ERP_PROJ, ERP_CONFIG)
        cols = sorted({t % 6 for t in tiles})
        assert cols == [0, 5]

    def test_full_sphere_selects_everything(self):
        vp = Viewport.from_degrees(0, 0, 360, 180)
        assert select_tiles(vp, ERP_PROJ, ERP_CONFIG) == set(range(24))

    def test_yaw_periodicity(self):
        for yaw in (-170, -35, 80):
            a = select_tiles(Viewport.from_degrees(yaw, 10, 80, 60), ERP_PROJ, ERP_CONFIG)
            b = select_tiles(
                Viewport.from_degrees(yaw + 360, 10, 80, 60), ERP_PROJ, ERP_CONFIG
            )
            assert a == b

    # The two seeded tests below keep the names they had when select_tiles
    # sampled rays at a step; selection is now exact at any frame size.
    def test_subset_of_oracle_at_coarse_step(self):
        rng = random.Random(7)
        for _ in range(10):
            vp = random_viewport(rng)
            for proj, config in ((ERP_PROJ, ERP_CONFIG), (CUBE_PROJ, CUBE_CONFIG)):
                fast = select_tiles(vp, proj, config)
                oracle = tile_coverage_oracle(vp, proj, config)
                assert fast <= oracle

    def test_matches_oracle_at_fine_step(self):
        rng = random.Random(8)
        for _ in range(5):
            vp = random_viewport(rng)
            for proj, config in ((ERP_PROJ, ERP_CONFIG), (CUBE_PROJ, CUBE_CONFIG)):
                assert select_tiles(vp, proj, config) == tile_coverage_oracle(
                    vp, proj, config
                )

    @given(
        yaw=st.one_of(st.floats(-180.0, 180.0), st.floats(170.0, 190.0)),
        pitch=st.floats(-90.0, 90.0),
        h_fov=st.floats(1e-6, 360.0),
        v_fov=st.floats(1e-6, 180.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, yaw, pitch, h_fov, v_fov):
        vp = Viewport.from_degrees(yaw, pitch, h_fov, v_fov)
        for proj, config in ((ERP_PROJ, ERP_CONFIG), (CUBE_PROJ, CUBE_CONFIG)):
            assert select_tiles(vp, proj, config) == tile_coverage_oracle(vp, proj, config)

    @pytest.mark.parametrize(
        "kind,width,height,tile_cols",
        [(ProjectionKind.ERP, 2048, 1024, 8), (ProjectionKind.CUBEMAP_3x2, 1920, 1280, 6)],
    )
    def test_matches_brute_force_above_oracle_budget(self, kind, width, height, tile_cols):
        assert width * height > ORACLE_PIXEL_BUDGET
        config = SequenceConfig(width=width, height=height, tile_cols=tile_cols, tile_rows=4)
        proj = Projection(kind, width, height)
        for vp in (
            Viewport.from_degrees(180, 0, 90, 90),
            Viewport.from_degrees(-35, 80, 100, 60),
            Viewport.from_degrees(120, -20, 2, 1),
        ):
            assert select_tiles(vp, proj, config) == brute_force_tiles(vp, proj, config)

    def test_projection_must_match_config(self):
        vp = Viewport.from_degrees(0, 0, 90, 90)
        with pytest.raises(BadConfigError):
            select_tiles(vp, CUBE_PROJ, ERP_CONFIG)

    def test_oracle_pixel_budget(self):
        config = SequenceConfig(width=2048, height=1024)
        proj = Projection(ProjectionKind.ERP, 2048, 1024)
        with pytest.raises(TooLargeError):
            tile_coverage_oracle(Viewport.from_degrees(0, 0, 90, 90), proj, config)


@st.composite
def tile_grids(draw):
    """A projection and a config of at most 200x130 pixels with any tile grid
    the frame allows: tiles of any even size, narrower than a block or not a
    multiple of one, and cube-map tiles straddling faces."""
    if draw(st.booleans()):
        kind = ProjectionKind.ERP
        cols, rows = draw(st.integers(1, 8)), draw(st.integers(1, 6))
        width = cols * 2 * draw(st.integers(1, 100 // cols))
        height = rows * 2 * draw(st.integers(1, 65 // rows))
    else:
        kind = ProjectionKind.CUBEMAP_3x2
        f = draw(st.integers(1, 32))  # faces of 2f pixels
        width, height = 6 * f, 4 * f
        cols = draw(st.sampled_from([c for c in range(1, 9) if 3 * f % c == 0]))
        rows = draw(st.sampled_from([r for r in range(1, 7) if 2 * f % r == 0]))
    config = SequenceConfig(width=width, height=height, tile_cols=cols, tile_rows=rows)
    return Projection(kind, width, height), config


class TestTileGrids:
    @given(
        tile_grids(),
        st.lists(st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0),
                           st.floats(1e-6, 360.0), st.floats(1e-6, 180.0)),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_select_tiles_matches_oracle(self, grid, poses):
        proj, config = grid
        for pose in poses:
            vp = Viewport.from_degrees(*pose)
            assert select_tiles(vp, proj, config) == tile_coverage_oracle(vp, proj, config)

    @given(tile_grids())
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_tiles_inside_their_caps(self, grid):
        proj, config = grid
        table = _block_table(proj, config)
        regions = config.layer_regions(base=False)
        ys, xs = np.mgrid[0 : config.height, 0 : config.width]
        dirs = _unproject(xs.ravel() + 0.5, ys.ravel() + 0.5, proj).reshape(ys.shape + (3,))
        cover = np.zeros(ys.shape, np.int64)
        for (x0, y0, w, h), tile, center, radius in zip(
            table.box.tolist(), table.tile.tolist(), table.center, table.radius
        ):
            rows, cols = regions[tile]
            assert 1 <= w <= _BLOCK and 1 <= h <= _BLOCK
            assert cols.start <= x0 and x0 + w <= cols.stop
            assert rows.start <= y0 and y0 + h <= rows.stop
            cover[y0 : y0 + h, x0 : x0 + w] += 1
            # The angle from the cap center to each of the block's pixel centers.
            d = dirs[y0 : y0 + h, x0 : x0 + w].reshape(-1, 3)
            angle = np.arctan2(np.linalg.norm(np.cross(d, center), axis=1), d @ center)
            assert angle.max() <= radius
        assert (cover == 1).all()


class TestTileSetCache:
    """``select_tiles`` keeps each viewport's tiles for the process, keyed by
    (viewport, projection, config): a key lacking the grid, the projection or
    the frame size would serve one of them the tiles of another."""

    def test_key_holds_grid_projection_and_frame_size(self):
        view = Viewport.from_degrees(30, 45.5, 30, 1)
        keys = [
            (ProjectionKind.ERP, 384, 192, 6, 4),
            (ProjectionKind.ERP, 384, 192, 4, 2),
            (ProjectionKind.CUBEMAP_3x2, 384, 256, 6, 4),
            (ProjectionKind.ERP, 96, 48, 6, 4),
        ]
        sets = []
        for _ in range(2):  # the second pass is served from the cache
            hits = select_tiles.cache_info().hits
            for kind, width, height, cols, rows in keys:
                config = SequenceConfig(width=width, height=height, tile_cols=cols,
                                        tile_rows=rows, gop_size=10)
                projection = Projection(kind, width, height)
                tiles = select_tiles(view, projection, config)
                assert tiles == select_tiles.__wrapped__(view, projection, config)
                sets.append(tiles)
        assert select_tiles.cache_info().hits == hits + len(keys)
        assert len(set(sets)) == len(keys)

    def test_bounded_and_frozen(self):
        assert 0 < select_tiles.cache_info().maxsize < math.inf
        config = SequenceConfig(width=384, height=192, tile_cols=6, tile_rows=4, gop_size=10)
        tiles = select_tiles(Viewport.from_degrees(0, 0, 90, 90),
                             Projection(ProjectionKind.ERP, 384, 192), config)
        assert type(tiles) is frozenset

    def test_signed_zero_pitch_shares_one_entry(self):
        # -0.0 == 0.0 and both hash alike, so two viewports built apart are
        # one key; the one cached set must be right for both.
        down = Viewport(40, -0.0, 100, 70)
        level = Viewport(40, 0.0, 100, 70)
        assert down == level and down is not level
        assert math.copysign(1.0, down.pitch) == -1.0
        first = select_tiles(down, ERP_PROJ, ERP_CONFIG)
        hits = select_tiles.cache_info().hits
        second = select_tiles(level, ERP_PROJ, ERP_CONFIG)
        assert select_tiles.cache_info().hits == hits + 1
        assert second is first
        for vp in (down, level):
            assert first == select_tiles.__wrapped__(vp, ERP_PROJ, ERP_CONFIG)
            assert first == tile_coverage_oracle(vp, ERP_PROJ, ERP_CONFIG)


@st.composite
def slow_walks(draw):
    """A projection and config at most 192 pixels wide with a tile grid from
    1x1 to 8x6, a field of view 20-360 degrees wide and 20-180 high, and a
    walk whose every step turns 0-2 degrees, with pitch within +-89 degrees."""
    if draw(st.booleans()):
        kind = ProjectionKind.ERP
        cols, rows = draw(st.integers(1, 8)), draw(st.integers(1, 6))
        width = cols * 2 * draw(st.integers(1, 96 // cols))
        height = rows * 2 * draw(st.integers(1, 64 // rows))
    else:
        kind = ProjectionKind.CUBEMAP_3x2
        f = draw(st.integers(1, 32))  # faces of 2f pixels
        width, height = 6 * f, 4 * f
        cols = draw(st.sampled_from([c for c in range(1, 9) if 3 * f % c == 0]))
        rows = draw(st.sampled_from([r for r in range(1, 7) if 2 * f % r == 0]))
    config = SequenceConfig(width=width, height=height, tile_cols=cols, tile_rows=rows)
    h_fov, v_fov = draw(st.floats(20.0, 360.0)), draw(st.floats(20.0, 180.0))
    yaw, pitch = draw(st.floats(-180.0, 180.0)), draw(st.floats(-89.0, 89.0))
    poses = [Viewport.from_degrees(yaw, pitch, h_fov, v_fov)]
    for step, heading in draw(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 360.0)),
                                       min_size=1, max_size=24)):
        yaw += step * math.cos(math.radians(heading))
        pitch = min(89.0, max(-89.0, pitch + step * math.sin(math.radians(heading))))
        poses.append(Viewport.from_degrees(yaw, pitch, h_fov, v_fov))
    return Projection(kind, width, height), config, poses


def _turn(axis: np.ndarray, angle: float) -> np.ndarray:
    """The rotation by ``angle`` about the unit vector ``axis`` (Rodrigues)."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


class TestMarginReuse:
    """A selection decided without a scan keeps a margin, and a later miss
    with the same field of view turned less than it returns that selection's
    tiles without selecting.  The tiles must still be the oracle's."""

    @given(slow_walks())
    @settings(max_examples=60, deadline=None)
    def test_slow_walks_match_oracle(self, walk):
        proj, config, poses = walk
        for vp in poses:
            assert select_tiles(vp, proj, config) == tile_coverage_oracle(vp, proj, config)

    def test_a_turn_just_inside_the_margin_keeps_the_oracles_tiles(self):
        # The oracle's own pixel-center test, with the frustum turned by
        # 0.999 of the margin about random axes, roll included.
        rng = random.Random(37)
        probed = 0
        for proj, config in (
            (Projection(ProjectionKind.ERP, 384, 192),
             SequenceConfig(384, 192, tile_cols=6, tile_rows=4)),
            (Projection(ProjectionKind.CUBEMAP_3x2, 384, 256),
             SequenceConfig(384, 256, tile_cols=6, tile_rows=4)),
        ):
            dirs = _pixel_center_directions(proj)
            kept = _block_table(proj, config).kept
            for _ in range(40):
                vp = Viewport.from_degrees(rng.uniform(-180, 180), rng.uniform(-89, 89),
                                           rng.uniform(20, 360), rng.uniform(20, 180))
                kept.clear()
                tiles = select_tiles.__wrapped__(vp, proj, config)
                if not kept:
                    continue  # a scan decided a tile or no block survived
                _, limit, kept_tiles = kept[-1]
                assert kept_tiles is tiles
                margin = 2 * math.asin(limit / math.sqrt(8))
                for _ in range(4):
                    axis = np.array([rng.gauss(0, 1) for _ in range(3)])
                    turned = dirs @ _turn(axis / np.linalg.norm(axis), 0.999 * margin)
                    inside = np.flatnonzero(_in_bounds(vp, turned @ _rotation(vp)))
                    assert _tiles_of_pixels(inside % proj.width, inside // proj.width,
                                            config) == tiles
                probed += 1
        assert probed >= 20

    def test_a_slow_pursuit_runs_fewer_selections_than_poses(self, monkeypatch):
        full = []
        surviving_blocks = geometry._surviving_blocks

        def counted(*args):
            full.append(args[0])
            return surviving_blocks(*args)

        monkeypatch.setattr(geometry, "_surviving_blocks", counted)
        select_tiles.cache_clear()
        _block_table(ERP_PROJ, ERP_CONFIG).kept.clear()
        poses = [Viewport.from_degrees(20 + 0.1 * k, 10 + 0.05 * k, 90, 90) for k in range(100)]
        for k, vp in enumerate(poses):
            tiles = select_tiles(vp, ERP_PROJ, ERP_CONFIG)
            if k % 10 == 0:
                assert tiles == tile_coverage_oracle(vp, ERP_PROJ, ERP_CONFIG)
        assert select_tiles.cache_info().misses == len(poses)
        assert 0 < len(full) < len(poses) / 4


class TestTraces:
    def test_write_read_round_trip(self, tmp_path):
        samples = [
            (0.0, Viewport.from_degrees(0, 0, 90, 90)),
            (250.0, Viewport.from_degrees(-120, 30, 100, 70)),
        ]
        path = tmp_path / "trace.jsonl"
        write_viewport_trace(path, samples)
        assert read_viewport_trace(path) == samples

    @given(
        t_ms=st.floats(allow_nan=False, allow_infinity=False),
        yaw=st.one_of(st.floats(-180.0, 180.0), st.floats(allow_nan=False, allow_infinity=False)),
        pitch=st.floats(-90.0, 90.0),
        h_fov=st.floats(0.0, 360.0, exclude_min=True),
        v_fov=st.floats(0.0, 180.0, exclude_min=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_written_poses_read_back_exactly(self, tmp_path_factory, t_ms, yaw, pitch, h_fov,
                                             v_fov):
        assume(reference_accepts(yaw, pitch, h_fov, v_fov))
        samples = [(t_ms, Viewport(yaw, pitch, h_fov, v_fov))]
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        write_viewport_trace(path, samples)
        back = read_viewport_trace(path)
        # repr tells -0.0 from 0.0, which == does not.
        assert back == samples and repr(back) == repr(samples)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_viewport_trace(path, [(0.0, Viewport.from_degrees(0, 0, 90, 90))])
        path.write_text(path.read_text() + "\n\n")
        assert len(read_viewport_trace(path)) == 1

    @pytest.mark.parametrize("value", ['"500"', "true"], ids=["string", "bool"])
    @pytest.mark.parametrize("key", ["t_ms", "yaw_deg", "pitch_deg", "h_fov_deg", "v_fov_deg"])
    def test_value_that_is_not_a_number_is_refused(self, tmp_path, key, value):
        pose = {"t_ms": "0", "yaw_deg": "0", "pitch_deg": "0", "h_fov_deg": "90",
                "v_fov_deg": "90"} | {key: value}
        path = tmp_path / "trace.jsonl"
        path.write_text("{%s}\n" % ", ".join(f'"{k}": {v}' for k, v in pose.items()))
        with pytest.raises(BadTraceError, match=f"line 1: {key} must be a number"):
            read_viewport_trace(path)

    def test_integer_past_the_float_range_is_refused(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t_ms": 1%s, "yaw_deg": 0, "pitch_deg": 0, "h_fov_deg": 90, '
                        '"v_fov_deg": 90}\n' % ("0" * 400))
        with pytest.raises(BadTraceError, match="line 1: int too large"):
            read_viewport_trace(path)
