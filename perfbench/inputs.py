"""Seeded input generators.  The same workload seed gives the same inputs.

Only plain numbers come out of here; the workloads turn them into svbs
objects, so the program under test receives nothing but generated inputs.
"""

from __future__ import annotations

import random

FRAME_PERIOD_MS = 1000.0 / 30.0

# (uplink_ms, downlink_ms) settings that sim-sweep cycles through.
DELAY_MIX = [(0.0, 0.0), (10.0, 20.0), (30.0, 60.0), (50.0, 100.0)]


def workload_rng(workload: str, seed: int, stream: str) -> random.Random:
    """Independent generator per (workload, seed, purpose)."""
    return random.Random(f"{workload}:{seed}:{stream}")


def content_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, x))


def head_motion(rng: random.Random, ticks: int) -> list[tuple[float, float]]:
    """Continuous head motion sampled once per frame, as (yaw, pitch) degrees.

    Alternates fixations (the pose holds exactly, so poses repeat), saccades
    (a fast move over 3-6 frames) and smooth pursuit (a slow drift).
    """
    yaw = rng.uniform(-180.0, 180.0)
    pitch = rng.uniform(-30.0, 30.0)
    out: list[tuple[float, float]] = []
    while len(out) < ticks:
        out += [(yaw, pitch)] * rng.randint(6, 30)
        target_yaw = yaw + rng.uniform(-110.0, 110.0)
        target_pitch = _clamp(pitch + rng.uniform(-35.0, 35.0), -50.0, 50.0)
        steps = rng.randint(3, 6)
        for s in range(1, steps + 1):
            f = s / steps
            out.append((yaw + f * (target_yaw - yaw), pitch + f * (target_pitch - pitch)))
        yaw, pitch = target_yaw, target_pitch
        rate_yaw = rng.uniform(-1.5, 1.5)  # degrees per frame
        rate_pitch = rng.uniform(-0.5, 0.5)
        for _ in range(rng.randint(5, 25)):
            yaw += rate_yaw
            pitch = _clamp(pitch + rate_pitch, -50.0, 50.0)
            out.append((yaw, pitch))
    return [((y + 180.0) % 360.0 - 180.0, p) for y, p in out[:ticks]]


def discrete_views(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """A few well-separated (yaw, pitch) views in degrees."""
    step = 360.0 / count
    return [
        (((i * step + rng.uniform(-15.0, 15.0)) + 180.0) % 360.0 - 180.0,
         rng.uniform(-30.0, 30.0))
        for i in range(count)
    ]


def switch_trace(
    rng: random.Random, views: int, switches: int
) -> list[tuple[float, int]]:
    """(t_ms, view index) samples: the initial pose, then one per switch.

    Gaps between switches are 5 to 40 frame periods, so sessions mix fast
    switching with dwells longer than a GOP.
    """
    trace = [(0.0, 0)]
    t, view = 200.0, 0
    for _ in range(switches):
        t += rng.uniform(5 * FRAME_PERIOD_MS, 40 * FRAME_PERIOD_MS)
        view = (view + rng.randrange(1, views)) % views
        trace.append((round(t, 3), view))
    return trace


def chain_seeds(rng: random.Random, chains: int) -> list[int]:
    """A fresh content seed for each encode -> rewrite -> decode chain."""
    return [content_seed(rng) for _ in range(chains)]
