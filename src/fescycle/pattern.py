"""Stimulation patterns: per-muscle crank-angle ON intervals for the right
leg, with the left leg always derived by a half-turn rotation.

Intervals are half-open [on_deg, off_deg) on the counterclockwise circle
[0, 360).  Canonical form keeps on in [0, 360) and off in (0, 360]; a
wrapping interval has off < on, and the full circle is the single interval
(0, 360).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .biomech import LEFT, MUSCLE_NAMES
from .errors import (DegenerateInterval, InconsistentConfig, InvalidArgument,
                     NonConvergentPrevAction)

FULL_CIRCLE = (0.0, 360.0)

# extract_pattern's clean-up: OFF gaps shorter than GAP_DEG are closed and ON
# islands shorter than ISLAND_DEG dropped
GAP_DEG = 5.0
ISLAND_DEG = 5.0

SHRINK = "shrink"
EXTEND = "extend"
ROTATE = "rotate"


def interval_arc(iv) -> float:
    on, off = iv
    if off > on:
        return off - on
    return 360.0 - on + off


def interval_contains(iv, angle_deg: float) -> bool:
    on, off = iv
    a = angle_deg % 360.0
    if off > on:
        return on <= a < off
    return a >= on or a < off


def _canonical(on: float, off: float):
    on = on % 360.0
    off = off % 360.0
    if off == 0.0:
        off = 360.0
    return (on, off)


def _validate_intervals(intervals) -> tuple[tuple[float, float], ...]:
    ivs = tuple((float(on), float(off)) for on, off in intervals)
    if not ivs:
        return ivs
    if ivs == (FULL_CIRCLE,):
        return ivs
    total = 0.0
    for on, off in ivs:
        if not (0.0 <= on < 360.0) or not (0.0 < off <= 360.0):
            raise ValueError(f"interval endpoints out of range: ({on}, {off})")
        if on == off:
            raise ValueError(f"zero-length or ambiguous interval at {on}")
        total += interval_arc((on, off))
    if total > 360.0:
        raise ValueError(f"total ON arc {total:.1f} deg exceeds the circle")
    n_wrap = sum(1 for on, off in ivs if off < on)
    if n_wrap > 1:
        raise ValueError("more than one wrapping interval")
    for i in range(len(ivs) - 1):
        if ivs[i][0] >= ivs[i + 1][0]:
            raise ValueError("intervals must be sorted by ON angle")
    # disjointness: each interval's ON angle must not fall inside another
    for i, iv in enumerate(ivs):
        for j, other in enumerate(ivs):
            if i != j and interval_contains(other, iv[0]):
                raise ValueError("intervals overlap")
    return ivs


@dataclass(frozen=True)
class StimulationPattern:
    muscle_names: tuple[str, ...]
    intervals: tuple[tuple[tuple[float, float], ...], ...]
    source: str = "manual"

    def __post_init__(self):
        if len(self.muscle_names) != len(self.intervals):
            raise ValueError("one interval list per muscle required")
        object.__setattr__(
            self, "intervals", tuple(_validate_intervals(ivs) for ivs in self.intervals)
        )

    @property
    def n_muscles(self) -> int:
        return len(self.muscle_names)


@dataclass(frozen=True)
class PatternPerturbation:
    kind: str
    magnitude_deg: float
    muscle: str | None = None  # None applies to every muscle

    def __post_init__(self):
        if self.kind not in (SHRINK, EXTEND, ROTATE):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if abs(self.magnitude_deg) > 45.0:
            raise ValueError("perturbation magnitude limited to 45 degrees")


def empty_pattern(muscle_names, source: str = "manual") -> StimulationPattern:
    names = tuple(muscle_names)
    return StimulationPattern(names, tuple(() for _ in names), source)


def mirror_pattern(p: StimulationPattern) -> StimulationPattern:
    """Left-leg pattern: every interval shifted by a half turn."""
    rotated = []
    for ivs in p.intervals:
        if ivs == (FULL_CIRCLE,):
            rotated.append(ivs)
            continue
        shifted = sorted(_canonical(on + 180.0, off + 180.0) for on, off in ivs)
        rotated.append(tuple(shifted))
    return StimulationPattern(p.muscle_names, tuple(rotated), p.source)


def perturb_pattern(p: StimulationPattern, pert: PatternPerturbation) -> StimulationPattern:
    mag = pert.magnitude_deg
    out = []
    for name, ivs in zip(p.muscle_names, p.intervals):
        if pert.muscle is not None and name != pert.muscle:
            out.append(ivs)
            continue
        if ivs == (FULL_CIRCLE,):
            if pert.kind == SHRINK and mag > 0:
                out.append((_canonical(mag / 2.0, 360.0 - mag / 2.0),))
            else:
                out.append(ivs)
            continue
        new_ivs = []
        for on, off in ivs:
            arc = interval_arc((on, off))
            if pert.kind == ROTATE:
                new_ivs.append(_canonical(on + mag, off + mag))
            elif pert.kind == SHRINK:
                if arc - mag <= 0.0:
                    raise DegenerateInterval(
                        f"shrinking {name} interval [{on}, {off}) by {mag} deg empties it"
                    )
                new_ivs.append(_canonical(on + mag / 2.0, off - mag / 2.0))
            else:  # extend
                if arc + mag >= 360.0:
                    raise DegenerateInterval(
                        f"extending {name} interval [{on}, {off}) by {mag} deg wraps onto itself"
                    )
                new_ivs.append(_canonical(on - mag / 2.0, off + mag / 2.0))
        out.append(tuple(sorted(new_ivs)))
    return StimulationPattern(p.muscle_names, tuple(out), p.source)


def pattern_control(p: StimulationPattern, crank_angle: float, side: str) -> np.ndarray:
    """Binary per-muscle stimulation at one crank angle (radians).

    The degree value is snapped to 1e-9 deg so radian/degree round-trips do
    not flip the control exactly on an interval boundary.
    """
    angle_deg = round(math.degrees(crank_angle) % 360.0, 9) % 360.0
    if side == LEFT:
        angle_deg = round((angle_deg - 180.0) % 360.0, 9) % 360.0
    values = np.zeros(p.n_muscles)
    for i, ivs in enumerate(p.intervals):
        for iv in ivs:
            if interval_contains(iv, angle_deg):
                values[i] = 1.0
                break
    return values


def extract_pattern(actor, config, resolution_deg: float = 1.0,
                    reference_cadence: float = 5.0, threshold: float = 0.5,
                    source: str = "model_based") -> StimulationPattern:
    """Threshold the deterministic policy on a crank-angle grid.

    The previous-action observation channel is fed back while sweeping the
    circle, so the sweep runs three laps: by the second lap the feedback has
    reached a periodic fixed point and the third lap is read out.  Gaps
    shorter than GAP_DEG are merged and ON islands shorter than ISLAND_DEG
    are dropped.
    """
    if not (math.isfinite(resolution_deg) and resolution_deg > 0):
        raise InvalidArgument(f"resolution_deg must be positive and finite, got {resolution_deg}")
    for name, value in (("reference_cadence", reference_cadence), ("threshold", threshold)):
        if not math.isfinite(value):
            raise InvalidArgument(f"{name} must be finite, got {value}")
    if hasattr(actor, "act"):
        policy = lambda obs: actor.act(obs, deterministic=True)
    else:
        policy = actor
    grid_n = round(360.0 / resolution_deg)
    if abs(grid_n * resolution_deg - 360.0) > 1e-9 or grid_n < 4:
        raise ValueError("resolution_deg must divide 360")

    n_muscles = config.n_muscles_per_leg
    prev = np.zeros(n_muscles)
    marks = np.zeros((3, grid_n, n_muscles), dtype=bool)
    for lap in range(3):
        for i in range(grid_n):
            theta = math.radians(i * resolution_deg)
            obs = np.array([math.sin(theta), math.cos(theta), reference_cadence, *prev])
            action = np.asarray(policy(obs), dtype=float)
            if action.shape != (n_muscles,):
                raise ValueError(
                    f"policy returned shape {action.shape}, expected ({n_muscles},)"
                )
            marks[lap, i] = action > threshold
            prev = action
    disagree = float(np.mean(marks[1] != marks[2]))
    if disagree > 0.02:
        raise NonConvergentPrevAction(
            f"previous-action feedback not periodic: {100 * disagree:.1f}% of grid "
            "points differ between consecutive laps"
        )

    intervals = tuple(
        _marks_to_intervals(marks[2, :, m], resolution_deg)
        for m in range(n_muscles)
    )
    return StimulationPattern(tuple(MUSCLE_NAMES[:n_muscles]), intervals, source)


def _circular_runs(mask: np.ndarray):
    """(start, length) of each True run on a circular boolean array."""
    n = len(mask)
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    runs = []
    # rotate so index 0 is False, making runs linear
    offset = int(np.argmin(mask))
    rolled = np.roll(mask, -offset)
    i = 0
    while i < n:
        if rolled[i]:
            j = i
            while j < n and rolled[j]:
                j += 1
            runs.append(((i + offset) % n, j - i))
            i = j
        else:
            i += 1
    return runs


def _marks_to_intervals(mask: np.ndarray, res: float):
    mask = mask.copy()
    n = len(mask)
    if mask.any() and not mask.all():
        off_runs = _circular_runs(~mask)
        for start, length in off_runs:
            if length * res < GAP_DEG:
                idx = (np.arange(start, start + length)) % n
                mask[idx] = True
    if mask.all():
        return (FULL_CIRCLE,)
    on_runs = [r for r in _circular_runs(mask) if r[1] * res >= ISLAND_DEG]
    intervals = []
    for start, length in on_runs:
        on = start * res
        off = ((start + length) % n) * res
        intervals.append(_canonical(on, off))
    return tuple(sorted(intervals))


def pattern_metrics(p: StimulationPattern, q: StimulationPattern) -> dict:
    """Per-muscle arcs, ON/OFF angles, overlap, and ON-angle offset (q vs p)."""
    if p.muscle_names != q.muscle_names:
        raise InconsistentConfig(
            f"muscle sets differ: {p.muscle_names} vs {q.muscle_names}"
        )
    report = {}
    for name, ivs_p, ivs_q in zip(p.muscle_names, p.intervals, q.intervals):
        entry = {
            "on_arc_a": sum(interval_arc(iv) for iv in ivs_p),
            "on_arc_b": sum(interval_arc(iv) for iv in ivs_q),
            "on_angles_a": [iv[0] for iv in ivs_p],
            "off_angles_a": [iv[1] % 360.0 for iv in ivs_p],
            "on_angles_b": [iv[0] for iv in ivs_q],
            "off_angles_b": [iv[1] % 360.0 for iv in ivs_q],
            "overlap_arc": _overlap_arc(ivs_p, ivs_q),
        }
        if ivs_p and ivs_q:
            main_p = max(ivs_p, key=interval_arc)
            main_q = max(ivs_q, key=interval_arc)
            delta = (main_q[0] - main_p[0] + 180.0) % 360.0 - 180.0
            if delta == -180.0:
                delta = 180.0
            entry["on_offset_deg"] = delta
        else:
            entry["on_offset_deg"] = None
        report[name] = entry
    return report


def _to_segments(ivs):
    """Non-wrapping [lo, hi) pieces covering the interval set."""
    segments = []
    for on, off in ivs:
        if off > on:
            segments.append((on, off))
        else:
            segments.append((on, 360.0))
            if off > 0.0:
                segments.append((0.0, off))
    return segments


def _overlap_arc(ivs_a, ivs_b) -> float:
    total = 0.0
    for lo_a, hi_a in _to_segments(ivs_a):
        for lo_b, hi_b in _to_segments(ivs_b):
            lo = max(lo_a, lo_b)
            hi = min(hi_a, hi_b)
            if hi > lo:
                total += hi - lo
    return total


def pattern_to_json(p: StimulationPattern) -> str:
    doc = {
        "source": p.source,
        "n_muscles": p.n_muscles,
        "muscles": {
            name: [[on, off] for on, off in ivs]
            for name, ivs in zip(p.muscle_names, p.intervals)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def pattern_from_json(text: str) -> StimulationPattern:
    doc = json.loads(text)
    names = tuple(doc["muscles"].keys())
    if len(names) != doc.get("n_muscles", len(names)):
        raise ValueError("n_muscles does not match the muscle table")
    intervals = tuple(
        tuple((float(on), float(off)) for on, off in doc["muscles"][name])
        for name in names
    )
    return StimulationPattern(names, intervals, doc.get("source", "manual"))


def save_pattern(p: StimulationPattern, path) -> None:
    with open(path, "w") as fh:
        fh.write(pattern_to_json(p))


def load_pattern(path) -> StimulationPattern:
    with open(path) as fh:
        return pattern_from_json(fh.read())


_RING_COLORS = ("#d62728", "#1f77b4", "#2ca02c")


def _arc_path(cx, cy, r_in, r_out, on_deg, off_deg) -> str:
    """Annular sector path; angles follow the crank convention (CCW from +x)."""
    span = (off_deg - on_deg) % 360.0
    if span == 0.0:
        span = 360.0
    # SVG y grows downward, so CCW crank angles map to negative SVG angles.
    a0 = math.radians(on_deg)
    a1 = math.radians(on_deg + span)
    large = 1 if span > 180.0 else 0
    p = []
    x0o, y0o = cx + r_out * math.cos(a0), cy - r_out * math.sin(a0)
    x1o, y1o = cx + r_out * math.cos(a1), cy - r_out * math.sin(a1)
    x1i, y1i = cx + r_in * math.cos(a1), cy - r_in * math.sin(a1)
    x0i, y0i = cx + r_in * math.cos(a0), cy - r_in * math.sin(a0)
    p.append(f"M {x0o:.2f} {y0o:.2f}")
    p.append(f"A {r_out:.2f} {r_out:.2f} 0 {large} 0 {x1o:.2f} {y1o:.2f}")
    p.append(f"L {x1i:.2f} {y1i:.2f}")
    p.append(f"A {r_in:.2f} {r_in:.2f} 0 {large} 1 {x0i:.2f} {y0i:.2f}")
    p.append("Z")
    return " ".join(p)


def pattern_to_svg(p: StimulationPattern, size: int = 420) -> str:
    """Polar bar diagram: one ring per muscle, ON arcs filled."""
    cx = cy = size / 2.0
    r_max = size / 2.0 - 30.0
    ring = r_max / (p.n_muscles + 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{r_max:.1f}" fill="none" stroke="#999"/>',
    ]
    for tick in (0, 90, 180, 270):
        a = math.radians(tick)
        x = cx + (r_max + 14) * math.cos(a)
        y = cy - (r_max + 14) * math.sin(a)
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="12" text-anchor="middle" '
            f'dominant-baseline="middle">{tick}&#176;</text>'
        )
    for i, (name, ivs) in enumerate(zip(p.muscle_names, p.intervals)):
        r_in = ring * (i + 0.55) + 10
        r_out = ring * (i + 1.25) + 10
        color = _RING_COLORS[i % len(_RING_COLORS)]
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{(r_in + r_out) / 2:.1f}" fill="none" '
            f'stroke="{color}" stroke-opacity="0.15" stroke-width="{r_out - r_in:.1f}"/>'
        )
        for on, off in ivs:
            parts.append(
                f'<path d="{_arc_path(cx, cy, r_in, r_out, on, off)}" fill="{color}" '
                f'fill-opacity="0.85"><title>{name} [{on:.1f}, {off:.1f})</title></path>'
            )
        parts.append(
            f'<text x="{cx:.1f}" y="{cy - (r_in + r_out) / 2:.1f}" font-size="11" '
            f'text-anchor="middle" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_pattern_svg(p: StimulationPattern, path) -> None:
    with open(path, "w") as fh:
        fh.write(pattern_to_svg(p))
