"""Spherical viewport to tile-set mapping for ERP and 3x2 cube-map frames.

Conventions: x-forward, z-up, right-handed; yaw rotates about z, pitch about
the rotated y axis (yaw-then-pitch, no roll).  The FOV frustum is defined by
independent horizontal/vertical angular bounds in viewport-local coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    """Spherical FOV descriptor; angles in radians."""

    yaw: float
    pitch: float
    h_fov: float
    v_fov: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.yaw):
            raise BadConfigError("yaw must be finite")
        object.__setattr__(self, "yaw", _wrap_angle(self.yaw))
        if not -math.pi / 2 <= self.pitch <= math.pi / 2:
            raise BadConfigError("pitch outside [-pi/2, pi/2]")
        if not 0 < self.h_fov <= TWO_PI:
            raise BadConfigError("h_fov outside (0, 2*pi]")
        if not 0 < self.v_fov <= math.pi:
            raise BadConfigError("v_fov outside (0, pi]")

    @classmethod
    def from_degrees(cls, yaw: float, pitch: float, h_fov: float, v_fov: float) -> "Viewport":
        return cls(
            math.radians(yaw), math.radians(pitch), math.radians(h_fov), math.radians(v_fov)
        )


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


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % TWO_PI - math.pi


def _rotation(viewport: Viewport) -> np.ndarray:
    cy, sy = math.cos(viewport.yaw), math.sin(viewport.yaw)
    cp, sp = math.cos(viewport.pitch), math.sin(viewport.pitch)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    # Ry(-pitch): positive pitch raises the view toward +z.
    ry = np.array([[cp, 0.0, -sp], [0.0, 1.0, 0.0], [sp, 0.0, cp]])
    return rz @ ry


def _frustum_mask(viewport: Viewport, dirs: np.ndarray) -> np.ndarray:
    """Membership of world directions in the viewport's angular bounds."""
    local = dirs @ _rotation(viewport)
    alpha = np.arctan2(local[:, 1], local[:, 0])
    beta = np.arcsin(np.clip(local[:, 2], -1.0, 1.0))
    return (np.abs(alpha) <= viewport.h_fov / 2 + _EDGE_TOL) & (
        np.abs(beta) <= viewport.v_fov / 2 + _EDGE_TOL
    )


# --- forward projections -----------------------------------------------------


def _project_erp(dirs: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    lon = np.arctan2(dirs[:, 1], dirs[:, 0])
    lat = np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0))
    u = (lon / TWO_PI + 0.5) * width % width
    v = np.clip((0.5 - lat / math.pi) * height, 0.0, np.nextafter(float(height), 0.0))
    return u, v


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
# The face at 2 * normal axis + (normal component < 0), and at 3 * row + col.
_FACE_OF_NORMAL = np.zeros(6, np.int64)
_FACE_OF_NORMAL[2 * _N + (_N_SIGN < 0)] = range(6)
_FACE_OF_CELL = np.zeros(6, np.int64)
_FACE_OF_CELL[3 * _ROW + _COL] = range(6)


def _project_cubemap(
    dirs: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray]:
    s = width / 3.0
    rows = np.arange(len(dirs))
    # The dominant axis, the first on a tie; a zero component counts as +.
    axis = np.argmax(np.abs(dirs), axis=1)
    n = dirs[rows, axis]
    faces = _FACE_OF_NORMAL[2 * axis + (n < 0)]
    # The signs are exact, so a = a_sign * n_sign * d_a / d_n keeps its bits.
    a = (_A_SIGN * _N_SIGN)[faces] * dirs[rows, _A[faces]] / n
    b = (_B_SIGN * _N_SIGN)[faces] * dirs[rows, _B[faces]] / n
    fa = np.clip((a + 1.0) / 2.0, 0.0, np.nextafter(1.0, 0.0))
    fb = np.clip((b + 1.0) / 2.0, 0.0, np.nextafter(1.0, 0.0))
    return (_COL[faces] + fa) * s, (_ROW[faces] + fb) * s


def project_erp(direction, width: int, height: int) -> tuple[float, float]:
    """Pixel coordinates of one unit direction in an ERP frame."""
    u, v = _project_erp(np.asarray(direction, dtype=np.float64).reshape(1, 3), width, height)
    return float(u[0]), float(v[0])


def project_cubemap(direction, width: int, height: int) -> tuple[float, float]:
    """Pixel coordinates of one unit direction in a 3x2 cube-map frame."""
    if width * 2 != height * 3:
        raise BadConfigError("3x2 cube map needs width*2 == height*3")
    u, v = _project_cubemap(
        np.asarray(direction, dtype=np.float64).reshape(1, 3), width, height
    )
    return float(u[0]), float(v[0])


# --- inverse projections (pixel centers to directions) -----------------------


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
def _pixel_center_directions(kind: ProjectionKind, width: int, height: int) -> np.ndarray:
    projection = Projection(kind, width, height)
    ys, xs = np.mgrid[0:height, 0:width]
    u = xs.ravel().astype(np.float64) + 0.5
    v = ys.ravel().astype(np.float64) + 0.5
    return _unproject(u, v, projection)


# --- tile selection ----------------------------------------------------------


def _tiles_of_pixels(
    px: np.ndarray, py: np.ndarray, config: SequenceConfig
) -> set[int]:
    cols = np.minimum(px // config.tile_width, config.tile_cols - 1)
    rows = np.minimum(py // config.tile_height, config.tile_rows - 1)
    return set(np.unique(rows * config.tile_cols + cols).astype(int).tolist())


def _check_projection(projection: Projection, config: SequenceConfig) -> None:
    if (projection.width, projection.height) != (config.width, config.height):
        raise BadConfigError("projection frame dimensions must match the stream config")


# select_tiles applies the oracle's own pixel-center test, but only where it
# can matter.  Every tile is cut into blocks of at most _BLOCK x _BLOCK pixels,
# each bounded by a spherical cap: a center direction plus the largest angle
# to any of the block's pixel centers.  A call drops the blocks whose cap
# provably misses the frustum, selects a tile as soon as one of a surviving
# block's representative pixel centers (the one nearest the block center and
# the four corners) is inside, and scans pixel centers only for the tiles
# still undecided.  Culling drops only blocks with no pixel center inside, so
# the result equals tile_coverage_oracle at any frame size.

_BLOCK = 32
# Pixels unprojected at once while measuring the block caps.
_TABLE_CHUNK_PIXELS = 1 << 18
# Blocks whose pixel centers are scanned at once for an undecided tile.
_SCAN_BLOCKS = 16
# Widens every cap to absorb rounding in its radius and in the rotation.
_RADIUS_PAD = 1e-9


@dataclass(frozen=True)
class _BlockTable:
    """Blocks of one (projection, tile grid) in raster order; entry i of
    every array describes block i."""

    x0: np.ndarray
    y0: np.ndarray
    w: np.ndarray
    h: np.ndarray
    tile: np.ndarray
    center: np.ndarray  # (N, 3) cap center directions
    radius: np.ndarray  # cap radius in radians
    sin_radius: np.ndarray  # sin(min(radius, pi/2))
    reps: np.ndarray  # (N, 5, 3) representative pixel-center directions


def _block_intervals(extent: int, tiles: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, length and tile of each block interval along one frame axis."""
    size = extent // tiles
    offsets = np.arange(0, size, _BLOCK)
    starts = (np.arange(tiles)[:, None] * size + offsets).ravel()
    lengths = np.tile(np.minimum(_BLOCK, size - offsets), tiles)
    owners = np.repeat(np.arange(tiles), len(offsets))
    return starts, lengths, owners


@lru_cache(maxsize=8)
def _block_table(
    kind: ProjectionKind, width: int, height: int, tile_cols: int, tile_rows: int
) -> _BlockTable:
    projection = Projection(kind, width, height)
    xs, ws, x_tile = _block_intervals(width, tile_cols)
    ys, hs, y_tile = _block_intervals(height, tile_rows)
    nx, ny = len(xs), len(ys)
    x0, w = np.tile(xs, ny), np.tile(ws, ny)
    y0, h = np.repeat(ys, nx), np.repeat(hs, nx)
    tile = np.repeat(y_tile, nx) * tile_cols + np.tile(x_tile, ny)
    center = _unproject(x0 + w / 2.0, y0 + h / 2.0, projection)
    # The pixel nearest the block center, then the four corner pixels.
    rep_x = np.stack([x0 + w // 2, x0, x0 + w - 1, x0, x0 + w - 1], axis=1)
    rep_y = np.stack([y0 + h // 2, y0, y0, y0 + h - 1, y0 + h - 1], axis=1)
    reps = _unproject(rep_x.ravel() + 0.5, rep_y.ravel() + 0.5, projection).reshape(-1, 5, 3)

    # Largest squared chord from each block center to its pixel centers,
    # over one block row and at most _TABLE_CHUNK_PIXELS pixels at a time.
    chord2 = np.empty(nx * ny)
    per_chunk = max(1, _TABLE_CHUNK_PIXELS // (_BLOCK * _BLOCK))
    for i in range(ny):
        rows = np.arange(ys[i], ys[i] + hs[i]) + 0.5
        for j in range(0, nx, per_chunk):
            k = min(j + per_chunk, nx)
            xa, xb = xs[j], xs[k - 1] + ws[k - 1]
            uu, vv = np.meshgrid(np.arange(xa, xb) + 0.5, rows)
            dirs = _unproject(uu.ravel(), vv.ravel(), projection).reshape(len(rows), xb - xa, 3)
            ids = slice(i * nx + j, i * nx + k)
            d = dirs - np.repeat(center[ids], ws[j:k], axis=0)
            col_max = np.einsum("rcx,rcx->rc", d, d).max(axis=0)
            chord2[ids] = np.maximum.reduceat(col_max, xs[j:k] - xa)
    radius = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(chord2) / 2.0)) + _RADIUS_PAD
    return _BlockTable(
        x0=x0, y0=y0, w=w, h=h, tile=tile, center=center, radius=radius,
        sin_radius=np.sin(np.minimum(radius, math.pi / 2)), reps=reps,
    )


def _block_pixel_directions(
    table: _BlockTable, ids: np.ndarray, projection: Projection
) -> np.ndarray:
    """Directions of every pixel center of the given blocks."""
    offsets = np.arange(_BLOCK)
    inside = (offsets < table.w[ids, None, None]) & (offsets[:, None] < table.h[ids, None, None])
    u = np.broadcast_to(table.x0[ids, None, None] + offsets, inside.shape)[inside]
    v = np.broadcast_to(table.y0[ids, None, None] + offsets[:, None], inside.shape)[inside]
    return _unproject(u + 0.5, v + 0.5, projection)


def _surviving_blocks(viewport: Viewport, table: _BlockTable) -> np.ndarray:
    """Indices of the blocks whose cap may hold a pixel center in the frustum."""
    local = table.center @ _rotation(viewport)
    # Band |beta| <= v_fov/2: within a cap of radius r, beta differs from the
    # center's by at most r.
    beta = np.arcsin(np.clip(local[:, 2], -1.0, 1.0))
    keep = np.abs(beta) - viewport.v_fov / 2 <= table.radius + _EDGE_TOL
    # Lune |alpha| <= h_fov/2: the intersection (h_fov <= 180 deg) or the union
    # of the half-spaces n.p >= 0, n = (sin(h_fov/2), -/+cos(h_fov/2), 0).  A
    # cap lies outside a half-space when -n.c > sin r.
    s, c = math.sin(viewport.h_fov / 2), math.cos(viewport.h_fov / 2)
    bound = table.sin_radius + _EDGE_TOL
    out_left = c * local[:, 1] - s * local[:, 0] > bound
    out_right = -c * local[:, 1] - s * local[:, 0] > bound
    if viewport.h_fov <= math.pi:
        keep &= ~(out_left | out_right)
    else:
        keep &= ~(out_left & out_right)
    return np.flatnonzero(keep)


def select_tiles(
    viewport: Viewport, projection: Projection, config: SequenceConfig
) -> set[int]:
    """Tiles with at least one pixel center inside the viewport's frustum.

    Equal to tile_coverage_oracle at any frame size, with no pixel budget:
    memory and time scale with the block count, not the pixel count.
    """
    _check_projection(projection, config)
    table = _block_table(
        projection.kind, projection.width, projection.height, config.tile_cols, config.tile_rows
    )
    blocks = _surviving_blocks(viewport, table)
    reps = table.reps[blocks]
    hit = _frustum_mask(viewport, reps.reshape(-1, 3)).reshape(reps.shape[:2]).any(axis=1)
    chosen = np.zeros(config.tile_count, dtype=bool)
    chosen[table.tile[blocks[hit]]] = True
    undecided = blocks[~chosen[table.tile[blocks]]]
    for t in np.unique(table.tile[undecided]).tolist():
        ids = undecided[table.tile[undecided] == t]
        for j in range(0, len(ids), _SCAN_BLOCKS):
            dirs = _block_pixel_directions(table, ids[j : j + _SCAN_BLOCKS], projection)
            if _frustum_mask(viewport, dirs).any():
                chosen[t] = True
                break
    return set(np.flatnonzero(chosen).tolist())


def tile_coverage_oracle(
    viewport: Viewport, projection: Projection, config: SequenceConfig
) -> set[int]:
    """Brute force: test every pixel center of the frame against the frustum."""
    _check_projection(projection, config)
    if projection.width * projection.height > ORACLE_PIXEL_BUDGET:
        raise TooLargeError(
            f"{projection.width}x{projection.height} exceeds the oracle pixel budget"
        )
    dirs = _pixel_center_directions(projection.kind, projection.width, projection.height)
    mask = _frustum_mask(viewport, dirs)
    idx = np.nonzero(mask)[0]
    px = idx % projection.width
    py = idx // projection.width
    return _tiles_of_pixels(px, py, config)


# --- viewport traces ---------------------------------------------------------


def write_viewport_trace(path, samples: list[tuple[float, Viewport]]) -> None:
    """JSON lines: one {"t_ms", "yaw_deg", "pitch_deg", "h_fov_deg",
    "v_fov_deg"} object per line."""
    with open(path, "w") as fh:
        for t_ms, vp in samples:
            fh.write(
                json.dumps(
                    {
                        "t_ms": t_ms,
                        "yaw_deg": math.degrees(vp.yaw),
                        "pitch_deg": math.degrees(vp.pitch),
                        "h_fov_deg": math.degrees(vp.h_fov),
                        "v_fov_deg": math.degrees(vp.v_fov),
                    }
                )
                + "\n"
            )


def read_viewport_trace(path) -> list[tuple[float, Viewport]]:
    """Samples of a trace written by :func:`write_viewport_trace`.

    A line that is not UTF-8 JSON, not an object with the five numeric keys,
    or not a valid pose raises BadTraceError naming the file and the line.
    """
    samples = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"want a JSON object, not {type(obj).__name__}")
                t_ms = float(obj["t_ms"])
                if not math.isfinite(t_ms):
                    raise BadConfigError("t_ms must be finite")
                viewport = Viewport.from_degrees(
                    obj["yaw_deg"], obj["pitch_deg"], obj["h_fov_deg"], obj["v_fov_deg"]
                )
            except KeyError as exc:
                raise BadTraceError(f"trace {path} line {lineno}: missing key {exc}") from exc
            except (ValueError, TypeError, RecursionError, BadConfigError) as exc:
                raise BadTraceError(f"trace {path} line {lineno}: {exc}") from exc
            samples.append((t_ms, viewport))
    return samples
