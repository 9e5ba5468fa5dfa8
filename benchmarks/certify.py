"""Independent output checks for the benchmark's operations.

None of these reuse the library's own verifier.  ``spaces.verify_cover``
probes the same r/4 net that the cover builder was greedy on, so it cannot
see a gap between two net points.  The checks here are exact instead:

* interval and circle covers: the union of the closed cover balls is swept
  over the target ball (every gap, the circle wrap included, is at most 2r
  and both ends are within r);
* Cantor covers: the cylinder tree of C(lam) is walked under the target
  ball, and each cylinder is certified as lying inside the union of the
  cover balls, down to a depth cap at which a cylinder is a single float.

Each check returns ``None`` when the output is sound, or a short reason
naming a witness.  Plain floats and the standard library only.
"""

from __future__ import annotations

import bisect
import math


def slack(r: float) -> float:
    """Rounding allowance on a containment test at radius r (16 ulps)."""
    return 16.0 * math.ulp(max(1.0, r))


def _merge(intervals):
    """Union of closed intervals as sorted, disjoint (lo, hi) pairs."""
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _first_gap(lo: float, hi: float, intervals) -> float | None:
    """A point of [lo, hi] outside every interval, or None if they cover it."""
    reach = lo
    for a, b in _merge(intervals):
        if a > reach:
            return 0.5 * (reach + min(a, hi))
        reach = max(reach, b)
        if reach >= hi:
            return None
    return 0.5 * (reach + hi) if reach < hi else None


def interval_cover_gap(x: float, R: float, centres, r: float) -> float | None:
    """A point of [0, 1] within R of x that no closed ball B(c, r) contains."""
    e = slack(r)
    balls = [(c - r - e, c + r + e) for c in centres]
    return _first_gap(max(0.0, x - R), min(1.0, x + R), balls)


def circle_cover_gap(x: float, R: float, centres, r: float) -> float | None:
    """Same for the circle of circumference 1 with the arc-length metric.

    The target arc is unrolled to [0, L] from its left end; each centre's arc
    is placed at its offset and at the offsets one turn either side, so arcs
    that wrap past the seam are counted on both sides.
    """
    e = slack(r)
    half = min(R, 0.5)
    left = x - half
    balls = []
    for c in centres:
        p = (c - left) % 1.0
        balls.extend((p + k - r - e, p + k + r + e) for k in (-1.0, 0.0, 1.0))
    gap = _first_gap(0.0, 2.0 * half, balls)
    return None if gap is None else (left + gap) % 1.0


def cantor_cover_gap(lam: float, x: float, R: float, centres, r: float,
                     depth_cap: int) -> float | None:
    """A point of C(lam) within R of x that no ball B(c, r) contains.

    Cylinders are visited from the root.  One that misses the target, or
    whose part inside the target lies in a single merged cover interval, is
    done.  Otherwise its two end points (which are points of C(lam)) are
    tested directly, and it is split.  A cylinder still undecided at
    ``depth_cap`` is reported, as the cap is set where a cylinder is
    narrower than a float's spacing.
    """
    e = slack(r)
    merged = _merge((c - r - e, c + r + e) for c in centres)
    starts = [m[0] for m in merged]
    a, b = x - R, x + R

    def covered(lo: float, hi: float) -> bool:
        i = bisect.bisect_right(starts, lo) - 1
        return i >= 0 and merged[i][1] >= hi

    stack = [(0.0, 0)]
    while stack:
        lo, depth = stack.pop()
        width = lam**depth
        hi = lo + width
        clo, chi = max(lo, a), min(hi, b)
        if chi < clo or covered(clo, chi):
            continue
        for end in (lo, hi):
            if a <= end <= b and not covered(end, end):
                return end
        if depth >= depth_cap:
            return clo
        stack.append((lo + width - width * lam, depth + 1))
        stack.append((lo, depth + 1))
    return None


def cover_bound(c: float, s: float, R: float, r: float) -> float:
    """Documented cover cardinality bound 4^s c^2 (R/r)^s."""
    return 4.0**s * c**2 * (R / r) ** s


def check_cover(kind: str, c: float, s: float, x: float, R: float, centres,
                r: float, lam: float | None = None, depth_cap: int = 0) -> str | None:
    """Soundness and cardinality of a ball cover, or the reason it fails.

    ``x`` and ``centres`` are embedded coordinates; ``lam`` and ``depth_cap``
    are used for Cantor covers only.
    """
    bound = cover_bound(c, s, R, r)
    if len(centres) > bound * (1.0 + 1e-12):
        return f"count {len(centres)} > bound {bound:.6g}"
    if kind == "interval":
        gap = interval_cover_gap(x, R, centres, r)
    elif kind == "circle":
        gap = circle_cover_gap(x, R, centres, r)
    else:
        gap = cantor_cover_gap(lam, x, R, centres, r, depth_cap)
    if gap is not None:
        return f"uncovered point {gap!r} (r={r!r})"
    return None


def check_sparse(kind: str, c: float, s: float, R: float, coords,
                 r: float) -> str | None:
    """Pairwise separation >= r and the documented cardinality bounds.

    On the circle the sorted coordinates are checked around the wrap too;
    elsewhere consecutive sorted coordinates suffice.
    """
    pts = sorted(coords)
    gaps = [q - p for p, q in zip(pts, pts[1:])]
    if kind == "circle" and len(pts) > 1:
        gaps.append(1.0 - (pts[-1] - pts[0]))
    if gaps and min(gaps) < r:
        return f"points {min(gaps)!r} apart, need >= {r!r}"
    ratio = (R / r) ** s
    lo, hi = ratio / c**2, 4.0**s * c**2 * ratio
    if not lo <= len(pts) <= hi:
        return f"count {len(pts)} outside [{lo:.6g}, {hi:.6g}]"
    return None


def check_non_decreasing(values) -> str | None:
    """Finite and non-decreasing, as partial sums of non-negative terms are."""
    vals = list(values)
    if not all(math.isfinite(v) for v in vals):
        return f"non-finite partial sum in {vals}"
    if any(q < p for p, q in zip(vals, vals[1:])):
        return f"partial sums decrease: {vals}"
    return None
