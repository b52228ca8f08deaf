"""Spherical viewport to tile-set mapping for ERP and 3x2 cube-map frames.

Conventions: x-forward, z-up, right-handed; yaw rotates about z, pitch about
the rotated y axis (yaw-then-pitch, no roll).  The FOV frustum is defined by
independent horizontal/vertical angular bounds in viewport-local coordinates.
A pose is in degrees wherever it is given or kept: the command line, a trace
file and a :class:`Viewport`, which derives the radians the geometry reads.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .config import SequenceConfig
from .errors import BadConfigError, BadTraceError, TooLargeError

TWO_PI = 2.0 * math.pi
_EDGE_TOL = 1e-12

# Desk-scale ceiling for the brute-force oracle.
ORACLE_PIXEL_BUDGET = 2_000_000


class ProjectionKind(Enum):
    ERP = "erp"
    CUBEMAP_3x2 = "cubemap"


@dataclass(frozen=True)
class Viewport:
    """A pose as given, in degrees: yaw, pitch and the two fields of view.

    ``radians`` is what the geometry reads, derived once: yaw wrapped to
    [-pi, pi), then pitch, h_fov and v_fov.  It takes no part in equality or
    the hash, so a pose compares, caches and writes as the degrees it holds.
    """

    yaw: float
    pitch: float
    h_fov: float
    v_fov: float
    radians: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.yaw):
            raise BadConfigError("yaw must be finite")
        yaw = (math.radians(self.yaw) + math.pi) % TWO_PI - math.pi
        pitch = math.radians(self.pitch)
        h_fov, v_fov = math.radians(self.h_fov), math.radians(self.v_fov)
        if not -math.pi / 2 <= pitch <= math.pi / 2:
            raise BadConfigError("pitch outside [-90, 90] degrees")
        if not 0 < h_fov <= TWO_PI:
            raise BadConfigError("h_fov outside (0, 360] degrees")
        if not 0 < v_fov <= math.pi:
            raise BadConfigError("v_fov outside (0, 180] degrees")
        object.__setattr__(self, "radians", (yaw, pitch, h_fov, v_fov))

    # An alias of the constructor, kept because perfbench/ calls it.
    from_degrees = classmethod(lambda cls, yaw, pitch, h_fov, v_fov: cls(yaw, pitch, h_fov, v_fov))


@dataclass(frozen=True)
class Projection:
    kind: ProjectionKind
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise BadConfigError("projection dimensions must be positive")
        if self.kind == ProjectionKind.CUBEMAP_3x2 and self.width * 2 != self.height * 3:
            raise BadConfigError("3x2 cube map needs width*2 == height*3 (square faces)")


def _rotation(viewport: Viewport) -> np.ndarray:
    yaw, pitch, _, _ = viewport.radians
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    # Rz(yaw) @ Ry(-pitch) multiplied out: the dropped terms are exact zeros, so
    # each entry equals the product's.  Positive pitch raises the view toward +z.
    return np.array([[cy * cp, -sy, -cy * sp], [sy * cp, cy, -sy * sp], [sp, 0.0, cp]])


def _in_bounds(viewport: Viewport, local: np.ndarray) -> np.ndarray:
    """The pixel-center test: membership of directions in the viewport's frame
    (world directions times ``_rotation(viewport)``) in its angular bounds."""
    alpha = np.arctan2(local[:, 1], local[:, 0])
    beta = np.arcsin(np.clip(local[:, 2], -1.0, 1.0))
    _, _, h_fov, v_fov = viewport.radians
    return (np.abs(alpha) <= h_fov / 2 + _EDGE_TOL) & (np.abs(beta) <= v_fov / 2 + _EDGE_TOL)


# --- inverse projections (pixel centers to directions) -----------------------


# One row per face: its (col, row) cell in the 3x2 packing (top row
# left/front/right, bottom row bottom/back/top), then the axis and sign of
# its outward normal, of its in-face coordinate a (along the frame's columns)
# and of b (along its rows).  A face's direction is
# n_sign * e_n + a_sign * a * e_a + b_sign * b * e_b for a, b in [-1, 1].
_FACES = np.array([
    # col, row, n, n_sign, a, a_sign, b, b_sign
    (0, 0, 1, -1, 0, 1, 2, -1),  # left
    (1, 0, 0, 1, 1, 1, 2, -1),  # front
    (2, 0, 1, 1, 0, -1, 2, -1),  # right
    (0, 1, 2, -1, 1, 1, 0, -1),  # bottom
    (1, 1, 0, -1, 1, -1, 2, -1),  # back
    (2, 1, 2, 1, 1, 1, 0, 1),  # top
])
_COL, _ROW, _N, _N_SIGN, _A, _A_SIGN, _B, _B_SIGN = _FACES.T
# The face at 3 * row + col.
_FACE_OF_CELL = np.zeros(6, np.int64)
_FACE_OF_CELL[3 * _ROW + _COL] = range(6)


def _unproject_erp(u: np.ndarray, v: np.ndarray, width: int, height: int) -> np.ndarray:
    lon = (u / width - 0.5) * TWO_PI
    lat = (0.5 - v / height) * math.pi
    cl = np.cos(lat)
    return np.stack([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)], axis=-1)


def _unproject_cubemap(u: np.ndarray, v: np.ndarray, width: int, height: int) -> np.ndarray:
    s = width / 3.0
    cols = np.minimum((u / s).astype(np.int64), 2)
    rows = np.minimum((v / s).astype(np.int64), 1)
    a = (u - cols * s) / s * 2.0 - 1.0
    b = (v - rows * s) / s * 2.0 - 1.0
    faces = _FACE_OF_CELL[3 * rows + cols]
    dirs = np.empty((len(u), 3))
    ids = np.arange(len(u))
    dirs[ids, _N[faces]] = _N_SIGN[faces]
    dirs[ids, _A[faces]] = _A_SIGN[faces] * a
    dirs[ids, _B[faces]] = _B_SIGN[faces] * b
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def _unproject(u: np.ndarray, v: np.ndarray, projection: Projection) -> np.ndarray:
    if projection.kind == ProjectionKind.ERP:
        return _unproject_erp(u, v, projection.width, projection.height)
    return _unproject_cubemap(u, v, projection.width, projection.height)


@lru_cache(maxsize=8)
def _pixel_center_directions(projection: Projection) -> np.ndarray:
    ys, xs = np.mgrid[0 : projection.height, 0 : projection.width]
    return _unproject(xs.ravel() + 0.5, ys.ravel() + 0.5, projection)


# --- tile selection ----------------------------------------------------------


def _tiles_of_pixels(px: np.ndarray, py: np.ndarray, config: SequenceConfig) -> set[int]:
    # The config's width and height divide into whole tiles.
    return set((py // config.tile_height * config.tile_cols + px // config.tile_width).tolist())


def _check_projection(projection: Projection, config: SequenceConfig) -> None:
    if (projection.width, projection.height) != (config.width, config.height):
        raise BadConfigError("projection frame dimensions must match the stream config")


# select_tiles applies the oracle's own pixel-center test, but only where it
# can matter.  Each tile region of config.layer_regions is cut into blocks of
# at most _BLOCK x _BLOCK pixels, each bounded by a spherical cap: a center
# direction plus the largest angle to any of the block's pixel centers.  A
# call drops the blocks whose cap provably misses the frustum, selects a tile
# as soon as one of a surviving block's representative pixel centers (the one
# nearest the block center and the four corners) is inside, and scans pixel
# centers only for the tiles still undecided.  Culling drops only blocks with
# no pixel center inside, so the result equals tile_coverage_oracle.
# A selection decided without a scan also proves a margin: under a smaller
# turn, of angle 2 asin(||R - R0||_F / 2 sqrt(2)), no hit representative leaves
# the frustum and no culled cap reaches it.  Each table keeps 4 such selections.

_BLOCK = 32
# Blocks whose pixel centers are unprojected at once (cap radii, scans).
_SCAN_BLOCKS = 16
# Widens every cap and narrows every margin to absorb rounding.
_RADIUS_PAD = 1e-9


@dataclass(frozen=True)
class _BlockTable:
    """Blocks of one (projection, tile grid), tile by tile and row-major
    inside each tile; entry i of every array describes block i."""

    box: np.ndarray  # (N, 4) x0, y0, width, height in pixels
    tile: np.ndarray
    center: np.ndarray  # (N, 3) cap center directions
    radius: np.ndarray  # cap radius in radians
    sin_radius: np.ndarray  # sin(min(radius, pi/2))
    reps: np.ndarray  # (N, 5, 3) representative pixel-center directions
    kept: deque = field(default_factory=lambda: deque(maxlen=4))  # (pose, limit, tiles)


def _block_pixel_directions(box: np.ndarray, projection: Projection) -> np.ndarray:
    """Directions of every pixel center of the given (x0, y0, w, h) blocks,
    block after block, each block's pixels in row-major order."""
    x0, y0, w, h = box.T[:, :, None, None]
    offsets = np.arange(_BLOCK)
    inside = (offsets < w) & (offsets[:, None] < h)
    u = np.broadcast_to(x0 + offsets, inside.shape)[inside]
    v = np.broadcast_to(y0 + offsets[:, None], inside.shape)[inside]
    return _unproject(u + 0.5, v + 0.5, projection)


@lru_cache(maxsize=8)
def _block_table(projection: Projection, config: SequenceConfig) -> _BlockTable:
    _check_projection(projection, config)
    blocks = np.array([
        (x, y, min(_BLOCK, xs.stop - x), min(_BLOCK, ys.stop - y), t)
        for t, (ys, xs) in enumerate(config.layer_regions(base=False))
        for y in range(ys.start, ys.stop, _BLOCK)
        for x in range(xs.start, xs.stop, _BLOCK)
    ])
    box, tile = blocks[:, :4], blocks[:, 4]
    x0, y0, w, h = box.T
    center = _unproject(x0 + w / 2.0, y0 + h / 2.0, projection)
    # The pixel nearest the block center, then the four corner pixels.
    rep_x = np.stack([x0 + w // 2, x0, x0 + w - 1, x0, x0 + w - 1], axis=1)
    rep_y = np.stack([y0 + h // 2, y0, y0, y0 + h - 1, y0 + h - 1], axis=1)
    reps = _unproject(rep_x.ravel() + 0.5, rep_y.ravel() + 0.5, projection).reshape(-1, 5, 3)

    # Largest squared chord from each block center to its pixel centers.
    chord2 = np.empty(len(box))
    for j in range(0, len(box), _SCAN_BLOCKS):
        ids = slice(j, j + _SCAN_BLOCKS)
        sizes = w[ids] * h[ids]
        d = _block_pixel_directions(box[ids], projection) - np.repeat(center[ids], sizes, axis=0)
        chord2[ids] = np.maximum.reduceat(np.einsum("ij,ij->i", d, d), np.cumsum(sizes) - sizes)
    radius = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(chord2) / 2.0)) + _RADIUS_PAD
    return _BlockTable(
        box=box, tile=tile, center=center, radius=radius,
        sin_radius=np.sin(np.minimum(radius, math.pi / 2)), reps=reps,
    )


def _surviving_blocks(
    v_fov: float, s: float, c: float, table: _BlockTable, rotation: np.ndarray
) -> tuple:
    """Indices of the blocks whose cap may hold a pixel center in the frustum,
    and each cap's gap, at most its angle to the frustum (culled above _EDGE_TOL).
    ``s, c`` are the sine and cosine of half the horizontal FOV."""
    local = table.center @ rotation
    # Band |beta| <= v_fov/2: within a cap of radius r, beta differs from the
    # center's by at most r.
    beta = np.arcsin(np.clip(local[:, 2], -1.0, 1.0))
    band = np.abs(beta) - v_fov / 2 - table.radius
    # Lune |alpha| <= h_fov/2: the intersection (c >= 0) or the union (c < 0)
    # of the half-spaces n.p >= 0, n = (s, -/+c, 0).  A cap lies outside a
    # half-space by -n.c - sin r, at most its angle to it; the greater of the
    # two (intersection) or the lesser (union) is c |y| - s x - sin r.
    gap = np.maximum(band, c * np.abs(local[:, 1]) - s * local[:, 0] - table.sin_radius)
    return np.flatnonzero(gap <= _EDGE_TOL), gap


# One process-wide cache, so a held pose is selected once.  An entry of 9
# tiles at 6x4 takes 728 bytes; all 65,025 tiles at 255x255 take 3.9 MB.
@lru_cache(maxsize=1024)
def select_tiles(
    viewport: Viewport, projection: Projection, config: SequenceConfig
) -> frozenset[int]:
    """Tiles with at least one pixel center inside the viewport's frustum.

    Equal to tile_coverage_oracle at any frame size a config allows (up to
    ``svbs.config.FRAME_PIXEL_BUDGET``), with no budget of its own: memory and
    time scale with the block count, not the pixel count.  The sets of the
    last 1,024 keys are cached, hence frozen; more distinct poses get no hits.
    A selection decided without a scan keeps a margin at any FOV; a miss with
    the same FOVs turned less than it from the kept pose returns the kept set,
    so ``select_tiles.__wrapped__`` may too.
    """
    table = _block_table(projection, config)
    rotation = _rotation(viewport)
    _, _, h_fov, v_fov = viewport.radians
    pose = (h_fov, v_fov, *rotation.ravel().tolist())
    for kept, limit, tiles in tuple(table.kept):  # a copy: another thread may append
        if kept[:2] == pose[:2] and math.dist(kept[2:], pose[2:]) < limit:
            return tiles
    s, c = math.sin(h_fov / 2), math.cos(h_fov / 2)
    blocks, gap = _surviving_blocks(v_fov, s, c, table, rotation)
    local = table.reps[blocks].reshape(-1, 3) @ rotation
    hit = _in_bounds(viewport, local)
    chosen = np.zeros(config.tile_count, dtype=bool)
    chosen[table.tile[blocks[hit.reshape(-1, 5).any(axis=1)]]] = True
    undecided = blocks[~chosen[table.tile[blocks]]]
    for t in set(table.tile[undecided].tolist()):
        ids = undecided[table.tile[undecided] == t]
        for j in range(0, len(ids), _SCAN_BLOCKS):
            dirs = _block_pixel_directions(table.box[ids[j : j + _SCAN_BLOCKS]], projection)
            if _in_bounds(viewport, dirs @ rotation).any():
                chosen[t] = True
                break
    tiles = frozenset(np.flatnonzero(chosen).tolist())
    if blocks.size and not undecided.size:
        # Each representative's lower bounds on its angle inside the boundary
        # (v_fov/2 - |beta|, and s x - c |y|, the lune's gap term negated: n.p
        # of the lesser lune plane, or of the greater where the lune is their
        # union) are not positive outside it.
        # Blocks come tile by tile, so one reduceat gives each tile's best.
        inside = np.minimum(v_fov / 2 - np.arcsin(np.minimum(np.abs(local[:, 2]), 1.0)),
                            s * local[:, 0] - c * np.abs(local[:, 1]))
        owner = table.tile[blocks]
        firsts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        best = np.maximum.reduceat(inside, firsts * 5)
        margin = min(np.minimum.reduce(gap, where=~chosen[table.tile], initial=np.inf),
                     np.minimum.reduce(best, initial=np.inf)) - _EDGE_TOL - _RADIUS_PAD
        if margin > 0:
            table.kept.append((pose, math.sqrt(8) * math.sin(margin / 2), tiles))
    return tiles


def tile_coverage_oracle(
    viewport: Viewport, projection: Projection, config: SequenceConfig
) -> set[int]:
    """Brute force: test every pixel center of the frame against the frustum."""
    _check_projection(projection, config)
    if projection.width * projection.height > ORACLE_PIXEL_BUDGET:
        raise TooLargeError(
            f"{projection.width}x{projection.height} exceeds the oracle pixel budget"
        )
    dirs = _pixel_center_directions(projection)
    idx = np.flatnonzero(_in_bounds(viewport, dirs @ _rotation(viewport)))
    return _tiles_of_pixels(idx % projection.width, idx // projection.width, config)


# --- viewport traces ---------------------------------------------------------


def write_viewport_trace(path, samples: list[tuple[float, Viewport]]) -> None:
    """JSON lines: one {"t_ms", "yaw_deg", "pitch_deg", "h_fov_deg",
    "v_fov_deg"} object per line.  JSON writes each float's shortest repr, so
    :func:`read_viewport_trace` gives back the samples written."""
    with open(path, "w") as fh:
        for t_ms, vp in samples:
            fh.write(json.dumps({"t_ms": t_ms, "yaw_deg": vp.yaw, "pitch_deg": vp.pitch,
                                 "h_fov_deg": vp.h_fov, "v_fov_deg": vp.v_fov}) + "\n")


def read_viewport_trace(path, data: bytes | None = None) -> list[tuple[float, Viewport]]:
    """Samples of a trace written by :func:`write_viewport_trace`, read from
    ``data`` when the caller has read the file's bytes already.

    A line that is not UTF-8 JSON, not an object with the five numeric keys,
    or not a valid pose raises BadTraceError naming the file and the line.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    samples = []
    for lineno, raw in enumerate(data.split(b"\n"), 1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"want a JSON object, not {type(obj).__name__}")
            for key in ("t_ms", "yaw_deg", "pitch_deg", "h_fov_deg", "v_fov_deg"):
                if type(obj[key]) not in (int, float):  # bool and str are not numbers
                    raise TypeError(f"{key} must be a number, not {type(obj[key]).__name__}")
            t_ms = float(obj["t_ms"])
            if not math.isfinite(t_ms):
                raise BadConfigError("t_ms must be finite")
            viewport = Viewport(
                obj["yaw_deg"], obj["pitch_deg"], obj["h_fov_deg"], obj["v_fov_deg"]
            )
        except KeyError as exc:
            raise BadTraceError(f"trace {path} line {lineno}: missing key {exc}") from exc
        except (ValueError, TypeError, OverflowError, RecursionError, BadConfigError) as exc:
            raise BadTraceError(f"trace {path} line {lineno}: {exc}") from exc
        samples.append((t_ms, viewport))
    return samples
