"""Desk-scale regular metric-measure spaces and explicit covering machinery.

Three concrete space kinds are provided, each with an exactly computable
measure and certified regularity constants (c, s), meaning
c^-1 r^s <= mu(B(x, r)) <= c r^s for all points x and radii r in
[0, 2 * diameter]:

  * the unit interval [0, 1] with length measure: (2, 1)-regular;
  * the circle of circumference 1 with arc-length metric (capped at 1/2)
    and length measure: (2, 1)-regular, diameter 1/2;
  * the Cantor-type set C(lam) generated by x -> lam*x and
    x -> lam*x + (1-lam) for 0 < lam < 1/2, carrying the uniform Bernoulli
    digit measure: (c(lam), log 2 / log(1/lam))-regular with
    c(lam) = 2(1+lam)/(1-lam).

Open and closed balls have equal measure in all three kinds (spheres contain
at most two points and the measures are atomless), so ball_measure serves
both conventions; covers are built from closed balls.

Products carry the max metric, under which a rectangle with equal side radii
is exactly a ball (a cube).  Sparse subsets and covers are constructed
greedily over finite probe nets of resolution r/4; maximality and cover
soundness are certified against the same nets.  A net is built about the
centre's embedded float, and comes as its sorted coordinates and a decoder,
``take``, that builds the points at given indices: floats on the interval,
floats reduced mod 1 on the circle, CantorPoints on C(lam).  The greedies
read only the coordinates, and only the accepted points are decoded.
``_greedy_sorted`` steps between successors and ``verify_cover`` tests the
nearest centres first, each bit for bit what the full scan decides.

Factor protocol.  Everything that differs between kinds lives on the kind's
class, so the Monte Carlo layer and the CLI never name a kind.  A new
regular factor subclasses RegularSpace; sets kind, params (the constructor
arguments, read from descriptors and from CLI tokens such as "cantor:0.25"),
c, s and diameter; and implements embed, validate_point, net (an embedded
centre in; sorted coordinates and their decoder out), ball_measure and
ball_measure_array (one radius and a whole array of radii, bit for bit the
same masses), the counter stream (stream_coords: coordinates only, no
points), density cells (cell_count, stream_cells), text (parse_point,
format_point) and anchor.  Defaults serve the rest: coordinate (the float
the metric reads for a point, embed's) and distances (the line metric
|a - b| between coordinates, elementwise over arrays), which the circle
overrides; distance, ``distances`` of one point's coordinate, as a
one-element array, against another's; period, set only by a metric that
wraps around; and descriptor, built from kind, params, c and s.  A metric is a function of the rounded
difference of two coordinates that grows away from zero (on a line) or from
each multiple of the period, up to the midpoint between two of them: the
sparse-set greedies test a candidate against a few sorted neighbours on
that account, and the sorted one finds each net point's successor by
comparing shifted slices of the coordinates.  On a metric with a period, a
candidate's coordinate enters the metric reduced mod the period: the float
that the circle's net decodes as its point.
Each kind's ball_measure is one call of its ball_measure_array, which checks
the centre and, by one rule (``_checked_radii``), the radii: closed forms for
Interval and Circle, and for Cantor a walk down the centre's digit path.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import rng as crng

__all__ = [
    "RegularSpace",
    "Interval",
    "Circle",
    "Cantor",
    "ProductSpace",
    "CantorPoint",
    "CoverReport",
    "max_sparse_subset",
    "sparse_bounds",
    "cover_ball",
    "cover_rectangle",
    "verify_cover",
    "factor_from_token",
]

_NET_CODE_DIGITS = 60  # the most digits that a Cantor probe net's int64 codes hold
_MASS_BLOCK = 1 << 14  # radii per ball-mass kernel pass: its memory is O(block)
# the most points a probe net may hold; a finer net is a domain error raised
# from a count taken before anything is allocated
MAX_NET_POINTS = 1 << 20


@dataclass(frozen=True)
class CantorPoint:
    """A point of C(lam): a finite digit string and its real embedding.

    The digit string determines the point (trailing zeros implied); ``value``
    is the embedding sum_k d_k (1 - lam) lam^k used for all distances.
    """

    digits: tuple[int, ...]
    value: float

    def __post_init__(self):
        # each digit equals 0 or 1, counted by == as ``in`` tests
        if self.digits.count(0) + self.digits.count(1) != len(self.digits):
            raise ValueError(f"Cantor digits must be 0 or 1, got {self.digits!r}")


class RegularSpace:
    """Base of the factor kinds; subclasses fix (c, s, diameter) and
    implement the factor protocol described in the module docstring."""

    kind: str
    params: tuple[str, ...] = ()
    c: float
    s: float
    diameter: float
    # the length after which a metric that wraps around repeats; None on a line
    period: float | None = None

    def embed(self, point) -> float:
        """Real coordinate of a point (identity except for Cantor points)."""
        raise NotImplementedError

    def distance(self, x, y) -> float:
        """The metric between two points: ``distances`` of their coordinates."""
        return float(self.distances(np.array([self.coordinate(x)]), self.coordinate(y))[0])

    def coordinate(self, point) -> float:
        """The float that ``distances`` reads for a point."""
        return self.embed(point)

    def distances(self, a, b) -> np.ndarray:
        """Elementwise distances between coordinates, one array or both
        (broadcast): the line metric |a - b|."""
        delta = np.subtract(a, b)
        return np.abs(delta, out=delta)

    def validate_point(self, point) -> None:
        raise NotImplementedError

    def ball_measure(self, x, r: float) -> float:
        raise NotImplementedError

    def ball_measure_array(self, x, rs: np.ndarray) -> np.ndarray:
        """Exact ball measures mu(B(x, r)) over a 1-d array of radii."""
        raise NotImplementedError

    def stream_coords(self, seed: int, lane: int, ns: np.ndarray) -> np.ndarray:
        """Embedded coordinates of the counter stream keyed (seed, lane) at
        the indices ns; each value is a function of (seed, lane, n) alone."""
        raise NotImplementedError

    def cell_count(self, delta: float) -> int:
        """Number of density cells, each of diameter at most delta."""
        raise NotImplementedError

    def stream_cells(self, seed: int, lane: int, ns: np.ndarray,
                     delta: float) -> np.ndarray:
        """Cell index in [0, cell_count(delta)) of each stream index."""
        raise NotImplementedError

    def net(self, x: float, R: float, resolution: float):
        """Probe net of the closed ball B(x, R) about the embedded centre x
        (``embed``'s float): points of the space inside the ball such that
        every ball point is within ``resolution`` of the net.

        Returns (coords, take): the sorted coordinates as an array, and a
        function that builds the points at given indices as a list.  The
        greedies and ``verify_cover`` read only the coordinates.
        """
        raise NotImplementedError

    def anchor(self):
        """A canonical point of the space."""
        raise NotImplementedError

    def parse_point(self, token: str):
        """The point that format_point writes as ``token``."""
        raise NotImplementedError

    def format_point(self, point) -> str:
        raise NotImplementedError

    def descriptor(self) -> dict:
        """The kind, its constructor parameters, then c and s."""
        return {"kind": self.kind, **{p: getattr(self, p) for p in self.params},
                "c": self.c, "s": self.s}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(c={self.c}, s={self.s})"


class _UnitCoordinateSpace(RegularSpace):
    """Kinds whose points are floats and whose measure is uniform on [0, 1):
    the interval and the circle share the counter stream, density cells of
    equal length, the anchor 0.5 and the text form."""

    def stream_coords(self, seed: int, lane: int, ns: np.ndarray) -> np.ndarray:
        return crng.uniform01(seed, lane, ns)

    def cell_count(self, delta: float) -> int:
        cells = 1.0 / delta
        if cells == math.inf:
            raise ValueError(f"delta={delta} is too fine for {self!r}: 1/delta overflows a float")
        return max(1, math.ceil(cells))

    def stream_cells(self, seed: int, lane: int, ns: np.ndarray,
                     delta: float) -> np.ndarray:
        cells = self.cell_count(delta)
        coords = self.stream_coords(seed, lane, ns)
        return np.minimum((coords * cells).astype(np.int64), cells - 1)

    def anchor(self) -> float:
        return 0.5

    def parse_point(self, token: str) -> float:
        return _parse_number(token, f"{self.kind} point")

    def format_point(self, point) -> str:
        return format(float(point), ".17g")


class Interval(_UnitCoordinateSpace):
    """The unit interval [0, 1] with Euclidean metric and length measure."""

    kind = "interval"
    c = 2.0
    s = 1.0
    diameter = 1.0

    def embed(self, point) -> float:
        return float(point)

    def validate_point(self, point) -> None:
        x = float(point)
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"interval point {x} outside [0, 1]")

    def ball_measure(self, x, r: float) -> float:
        return float(self.ball_measure_array(x, np.array([float(r)]))[0])

    def ball_measure_array(self, x, rs: np.ndarray) -> np.ndarray:
        # min(r, x) + min(r, 1 - x), each side measured from the centre, so
        # an interior ball weighs 2r exactly however small r is; capped at 1,
        # one array per side.  Both sides are >= 0 for r >= 0 and x in [0, 1]
        self.validate_point(x)
        rs = _checked_radii(rs, self.diameter)
        xv = float(x)
        mass = np.minimum(rs, xv)
        mass += np.minimum(rs, 1.0 - xv)
        np.minimum(mass, 1.0, out=mass)
        # adding 0.0 gives a radius of -0.0 the mass +0.0, as the circle does
        mass += 0.0
        return mass

    def net(self, x: float, R: float, resolution: float):
        coords = _linspace_net(max(0.0, x - R), min(1.0, x + R), resolution)
        return coords, lambda at: coords[at].tolist()


class Circle(_UnitCoordinateSpace):
    """Circle of circumference 1; arc-length metric capped at 1/2."""

    kind = "circle"
    c = 2.0
    s = 1.0
    diameter = 0.5
    period = 1.0

    def embed(self, point) -> float:
        return float(point) % 1.0

    def coordinate(self, point) -> float:
        # the metric reduces mod 1 itself: it reads the float as given, not
        # embed's reduced one (-1e-20 % 1.0 rounds to 1.0)
        return float(point)

    def distances(self, a, b) -> np.ndarray:
        # |a - b| mod 1, then the shorter way round, in two arrays.  For
        # delta >= 0, delta - floor(delta) is exact (Sterbenz: floor(delta)
        # is 0 or within a factor 2 of delta), so it is fmod's, bit for bit
        delta = np.subtract(a, b)
        np.abs(delta, out=delta)
        other = np.floor(delta)
        delta -= other
        np.subtract(1.0, delta, out=other)
        return np.minimum(delta, other, out=delta)

    def validate_point(self, point) -> None:
        x = float(point)
        if not math.isfinite(x):
            raise ValueError(f"circle point {x} is not finite")

    def ball_measure(self, x, r: float) -> float:
        return float(self.ball_measure_array(x, np.array([float(r)]))[0])

    def ball_measure_array(self, x, rs: np.ndarray) -> np.ndarray:
        self.validate_point(x)
        mass = np.multiply(_checked_radii(rs, self.diameter), 2.0)
        np.minimum(mass, 1.0, out=mass)
        # adding 0.0 gives a radius of -0.0 the mass +0.0, as the other kinds do
        mass += 0.0
        return mass

    def net(self, x: float, R: float, resolution: float):
        # the unrolled arc about x; only the points taken are reduced mod 1
        R = min(R, self.diameter)
        coords = _linspace_net(x - R, x + R, resolution)
        return coords, lambda at: (coords[at] % 1.0).tolist()


class Cantor(RegularSpace):
    """C(lam) with the uniform digit measure, 0 < lam < 1/2.

    Depth-k cylinders are intervals of length lam^k and mass 2^-k; the
    regularity exponent is s = log 2 / log(1/lam), for which lam^s = 1/2, and
    c(lam) = 2(1+lam)/(1-lam).
    """

    kind = "cantor"
    params = ("lam",)
    diameter = 1.0

    def __init__(self, lam: float):
        lam = float(lam)
        if not (0.0 < lam < 0.5):
            raise ValueError(f"contraction ratio must be in (0, 1/2), got {lam}")
        self.lam = lam
        self.s = math.log(2.0) / math.log(1.0 / lam)
        self.c = 2.0 * (1.0 + lam) / (1.0 - lam)
        # digits beyond this depth cannot move the float embedding
        self.default_depth = min(64, math.ceil(53.0 * math.log(2.0) / math.log(1.0 / lam)) + 2)
        # the one table of lam^k, k = 0 .. K, up to the first power that
        # underflows to 0.0 (lam^k < 2^-1075 past the bound): every cylinder
        # length, digit weight and digit-path power is read from it
        pw = np.power(lam, np.arange(math.ceil(1075.0 * math.log(2.0) / -math.log(lam)) + 2))
        self._pow = pw[:np.flatnonzero(pw == 0.0)[0] + 1]
        # the weight (1 - lam) lam^k of each digit position the table holds:
        # a later digit weighs 0.0
        self._weights = ((1.0 - lam) * self._pow).tolist()
        # the right child [(1 - lam) lam^k, lam^k] of each cylinder [0, lam^k]
        # with lam^(k+1) > 0, deepest first, as rows far, near, size and mass
        k = np.arange(self._pow.size - 1, -1, -1)
        far = self._pow[::-1]
        tail = np.array([far, (1 - lam) * far, lam * far, np.ldexp(1.0, -k - 1)])
        self._tail = tail[:, lam * far > 0]

    def _powers(self, count: int) -> np.ndarray:
        """lam^k for k < count, read from the table; 0.0 past it."""
        out = np.zeros(count)
        out[:self._pow.size] = self._pow[:count]
        return out

    def _depth(self, length: float) -> int:
        """The first depth k whose cylinders, of length lam^k, are no longer
        than ``length``: the one depth rule of nets and density cells.  The
        table ends at lam^K = 0.0."""
        return int(np.argmax(self._pow <= length))

    def embed_digits(self, digits) -> float:
        """The embedding of one point's digits (ints): ``_embed_rows`` over
        one column."""
        return float(self._embed_rows(np.asarray(digits, dtype=float)[:, None], 1)[0])

    def _embed_rows(self, rows, size: int) -> np.ndarray:
        """The embeddings of ``size`` points whose digit k is the 0/1 integer
        array rows[k]: digit * w_k added row after row, in digit order, so a
        value depends neither on its block nor on the route (stream, net,
        point, text) that built it, as a BLAS dot product's does.  A row past
        the weights would add digit * 0.0, which moves no value."""
        value, term = np.zeros(size), np.empty(size)
        for digit, w in zip(rows, self._weights):
            value += np.multiply(digit, w, out=term)
        return value

    def point(self, digits: Sequence[int]) -> CantorPoint:
        digs = tuple(int(d) for d in digits)
        return CantorPoint(digs, self.embed_digits(digs))

    def embed(self, point) -> float:
        self.validate_point(point)
        return point.value

    def validate_point(self, point) -> None:
        if not isinstance(point, CantorPoint):
            raise ValueError("Cantor space points must be CantorPoint instances")

    def ball_measure(self, x, r: float) -> float:
        return float(self.ball_measure_array(x, np.array([float(r)]))[0])

    def ball_measure_array(self, x, rs: np.ndarray) -> np.ndarray:
        """Exact ball measures about a digit point, _MASS_BLOCK radii a pass:
        on each side of x the ball holds the pieces (``_pieces``) whose far
        end is within r and a share (``_shares``) of at most one more.  Each
        distance is a sum of positive digit weights: comparisons are relative."""
        if not isinstance(x, CantorPoint):
            raise ValueError(f"ball centre must be a finite digit string (CantorPoint), got {x!r}")
        rs = _checked_radii(rs, self.diameter)
        out = np.empty(rs.shape)
        if rs.size == 0:
            return out
        sides = self._pieces(x.digits)
        for start in range(0, rs.size, _MASS_BLOCK):
            r = rs[start:start + _MASS_BLOCK]
            mass = np.zeros(r.size)
            for far, near, size, piece, before in sides:
                k = np.searchsorted(far, r, "right")
                side = before[k]
                cut = np.flatnonzero(r > near[k])
                k = k[cut]
                side[cut] = self._shares(side[cut], piece[k], (r[cut] - near[k]) / size[k])
                mass += side
            # pieces so deep that lam^k underflows lie at distance 0 in floats
            mass[r == 0.0] = 0.0
            out[start:start + r.size] = mass
        return out

    def _pieces(self, digits) -> list[tuple[np.ndarray, ...]]:
        """Each point but x lies in one piece beside x's digit path.  Per side
        of x, nearest first and then +inf: the pieces' far and near ends,
        sizes, masses and nearer mass.  With trailing zeros dropped, x is the
        left end of its depth-K cylinder; on its right lie its depth-m
        cylinder (m = K, or the depth under ``_tail``'s deepest if more), then
        ``_tail``'s pieces of depth m-1 ... K.  For k < K, the child digit d_k
        passed over lies right if d_k = 0, else left, past ``ends``: the
        distances to the ends of x's depth-(k+1) cylinder.  Near is never far - size."""
        depth = max((k + 1 for k, d in enumerate(digits) if d), default=0)
        lam = self.lam
        m = max(depth, self._tail.shape[1])
        pw = self._powers(m + 1).tolist()
        ends = [pw[depth], 0.0]
        sides = ([], [])
        for k in range(depth - 1, -1, -1):
            d = int(digits[k])
            far = ends[d] + (1.0 - lam) * pw[k]
            sides[d].append((far, pw[k] * (1.0 - 2.0 * lam) + ends[d], pw[k + 1],
                             2.0 ** -(k + 1)))
            ends[d] = far
        right, left = (np.array(pieces + [(math.inf, math.inf, 1.0, 0.0)]).T for pieces in sides)
        whole = [[pw[m]], [0.0], [pw[m]], [2.0**-m]]
        right = np.concatenate((whole, self._tail[:, :m - depth], right), axis=1)
        return [(*t, np.concatenate(([0.0], np.cumsum(t[3, :-1])))) for t in (right, left)]

    def _shares(self, found: np.ndarray, weight: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """found + weight * F(rho), F the Cantor function of C(lam), level by
        level: rho >= 1 takes the cylinder, rho >= lam its left child; past
        1 - lam the walk goes right, below lam left.  A cylinder weighing <=
        2^-53 of the mass found weighs half.  Takes fresh arrays as scratch."""
        lam, right = self.lam, 1.0 - self.lam
        total, at = found.copy(), np.arange(rho.size)
        while at.size:
            found += np.where(rho >= 1.0, weight, np.where(rho >= lam, 0.5 * weight, 0.0))
            weight *= 0.5
            on = (rho < lam) | ((rho >= right) & (rho < 1.0))
            rho = np.where(rho >= right, rho - right, rho) / lam
            tiny = weight <= 2.0**-53 * found
            found += np.where(on & tiny, 0.5 * weight, 0.0)
            total[at] = found
            on &= ~tiny
            rho, weight, found, at = rho[on], weight[on], found[on], at[on]
        return total

    def stream_coords(self, seed: int, lane: int, ns: np.ndarray) -> np.ndarray:
        """Digit k of the point at index n is bit k of its hash word: bit
        k mod 8 of byte k // 8, little-endian, as ``crng.bits`` reads it.
        The digits come row by row from the words' leading bytes
        (``_octets``)."""
        depth = self.default_depth
        # the words stay referenced through the embedding: freed before it,
        # a 2^16-index call ran ~15 % slower
        words = crng.words(seed, lane, ns)
        return self._embed_rows(_bit_rows(_octets(words, depth), depth), words.size)

    def _cell_depth(self, delta: float) -> int:
        """Digits that resolve cylinders of diameter <= delta, by the nets'
        depth rule; a depth past the stream's sampling depth is a domain
        error."""
        depth = self._depth(delta)
        if depth > self.default_depth:
            raise ValueError(
                f"delta={delta} needs {depth} digits of {self!r}, more than "
                f"its sampling depth {self.default_depth}"
            )
        return depth

    def cell_count(self, delta: float) -> int:
        return 2 ** self._cell_depth(delta)

    def stream_cells(self, seed: int, lane: int, ns: np.ndarray,
                     delta: float) -> np.ndarray:
        # the leading digits of stream_coords' points read as a binary
        # number, first digit highest: shifted in one digit row at a time
        depth = self._cell_depth(delta)
        words = crng.words(seed, lane, ns)
        cells = np.zeros(words.size, dtype=np.int64)
        for digit in _bit_rows(_octets(words, depth), depth):
            cells <<= 1
            cells |= digit
        return cells

    def _cylinder_codes(self, a: float, b: float, depth: int) -> np.ndarray:
        """The depth-``depth`` cylinders meeting [a, b], ascending, as codes:
        a code's binary digits, first digit highest, are the cylinder's digit
        prefix.  Level by level, a cylinder [lo, hi = lo + lam^d] that meets
        [a, b] splits into its children at lo and hi - lam^(d+1), written
        side by side into the next level's arrays."""
        pw = self._powers(depth + 1)
        codes, lo = np.zeros(1, dtype=np.int64), np.zeros(1)
        for d in range(depth + 1):
            hi = lo + pw[d]
            meets = np.flatnonzero(~((b < lo) | (hi < a)))
            if d == depth:
                return codes[meets]
            kids, ends = np.empty(2 * meets.size, dtype=np.int64), np.empty(2 * meets.size)
            np.left_shift(codes[meets], 1, out=kids[0::2])
            np.add(kids[0::2], 1, out=kids[1::2])
            ends[0::2] = lo[meets]
            np.subtract(hi[meets], pw[d + 1], out=ends[1::2])
            codes, lo = kids, ends

    def cylinders_in(self, a: float, b: float, depth: int) -> list[tuple[int, ...]]:
        """Digit prefixes of all depth-``depth`` cylinders meeting [a, b]."""
        return _code_digits(self._cylinder_codes(a, b, depth), depth)

    def net(self, x: float, R: float, resolution: float):
        if not resolution > 0.0:
            raise ValueError(f"net resolution must be positive, got {resolution}")
        depth = self._depth(resolution)
        # cylinders shorter than the float spacing about the ball have ends
        # that round together: both children of each one would meet the ball,
        # and the walk would double per level past the count below
        spacing = math.ulp(abs(x) + R)
        if self._pow[depth] < spacing:
            raise ValueError(
                f"a Cantor probe net at resolution {resolution!r} about the centre "
                f"{x!r} needs cylinders of length {self._pow[depth]:.6g}, below the "
                f"float spacing {spacing:.6g} there")
        if depth > _NET_CODE_DIGITS:
            raise ValueError(
                f"a Cantor probe net at resolution {resolution!r} needs {depth} digits, "
                f"more than the {_NET_CODE_DIGITS} that a net code holds")
        # the depth-k cylinders meeting the ball lie in B(x, R + lam^k) and
        # weigh 2^-k each, so regularity bounds their number by this count
        _check_net_size(self.c * (R + self._pow[depth]) ** self.s * 2.0**depth, resolution)
        codes = self._cylinder_codes(x - R, x + R, depth)
        # each cylinder's left end, the point of its prefix: one row per
        # digit, first digit highest in the code (depth 0: the one point 0)
        values = self._embed_rows(((codes >> k) & 1 for k in range(depth - 1, -1, -1)),
                                  codes.size)
        inside = np.flatnonzero(np.abs(values - x) <= R)
        order = inside[np.argsort(values[inside], kind="stable")]
        codes, values = codes[order], values[order]

        def take(at) -> list[CantorPoint]:
            # the points at ``at``, their digits decoded in one array pass
            at = np.asarray(at, dtype=np.intp)
            return [CantorPoint(digits, value) for digits, value in zip(
                _code_digits(codes[at], depth), values[at].tolist())]
        return values, take

    def anchor(self) -> CantorPoint:
        return self.point(())

    def parse_point(self, token: str) -> CantorPoint:
        # digit string, optionally after "digits:"; "()" is the empty string
        text = token.removeprefix("digits:")
        if text.strip("01") and text != "()":
            raise ValueError(f"Cantor point {token!r} is not a string of 0s and 1s (or ())")
        return self.point(map(int, text.strip("()")))

    def format_point(self, point) -> str:
        return "".join(str(d) for d in point.digits) or "()"

    def __repr__(self) -> str:
        return f"Cantor(lam={self.lam}, c={self.c:.6g}, s={self.s:.6g})"


def _octets(words: np.ndarray, depth: int) -> np.ndarray:
    """The leading ceil(depth / 8) bytes of each hash word, little-endian,
    transposed into one contiguous (ceil(depth / 8), N) array: digit k of a
    stream point is bit k mod 8 of row k // 8, as ``crng.bits`` reads it."""
    words = words.astype("<u8", copy=False)
    return np.ascontiguousarray(words.view(np.uint8).reshape(-1, 8)[:, :(depth + 7) // 8].T)


def _bit_rows(octets: np.ndarray, depth: int):
    """Digit rows k = 0 .. depth-1 of byte rows: digit k is bit k mod 8 of
    row k // 8.  Each row is written into one scratch array, so a row is
    read before the next one is asked for."""
    bit = np.empty(octets.shape[1], dtype=np.uint8)
    for k in range(depth):
        np.right_shift(octets[k >> 3], k & 7, out=bit)
        yield np.bitwise_and(bit, 1, out=bit)


def _code_digits(codes: np.ndarray, depth: int) -> list[tuple[int, ...]]:
    """The ``depth`` binary digits of each code, highest first, decoded in
    one array pass."""
    digits = (codes[:, None] >> np.arange(depth - 1, -1, -1)) & 1
    return list(map(tuple, digits.tolist()))


_KINDS = {cls.kind: cls for cls in (Interval, Circle, Cantor)}


@dataclass(frozen=True)
class ProductSpace:
    """Product of regular spaces with the max metric.

    The product measure is (C, S)-regular with S = sum_i s_i and
    C = prod_i c_i * 2^S; the extra 2^S absorbs the mismatch of factor
    diameters (all kinds here have diameter 1/2 or 1).
    """

    factors: tuple[RegularSpace, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product space needs at least one factor")

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def s_vector(self) -> tuple[float, ...]:
        return tuple(f.s for f in self.factors)

    def validate_point(self, point: Sequence) -> None:
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.dim}")
        for f, coord in zip(self.factors, point):
            f.validate_point(coord)

    def center(self) -> tuple:
        """The canonical anchor point: the anchor of each factor, which is
        the midpoint 0.5 of the interval and the circle and the left
        endpoint 0 (the empty digit string) of a Cantor set."""
        return tuple(f.anchor() for f in self.factors)

    def descriptor(self) -> dict:
        return {"kind": "product", "factors": [f.descriptor() for f in self.factors]}


def _check_radius(r: float, diameter: float) -> None:
    if r < 0.0 or math.isnan(r):
        raise ValueError(f"radius must be >= 0, got {r}")
    if r > 2.0 * diameter:
        raise ValueError(f"radius {r} exceeds 2 * diameter = {2.0 * diameter}")


def _checked_radii(rs, diameter: float) -> np.ndarray:
    """``rs`` as a float array, each radius in [0, 2 * diameter].  min and
    max propagate NaN, so two comparisons cover the domain without an O(N)
    mask; the loop names the first radius outside it, as ``_check_radius``."""
    rs = np.asarray(rs, dtype=float)
    if rs.size and not (rs.min() >= 0.0 and rs.max() <= 2.0 * diameter):
        for r in rs.ravel():
            _check_radius(float(r), diameter)
    return rs


def _check_net_size(count: float, resolution: float) -> None:
    if not count <= MAX_NET_POINTS:
        raise ValueError(f"a probe net at resolution {resolution!r} needs {count:.6g} "
                         f"points, more than MAX_NET_POINTS = {MAX_NET_POINTS}")


def _linspace_net(lo: float, hi: float, resolution: float) -> np.ndarray:
    if not resolution > 0.0:
        raise ValueError(f"net resolution must be positive, got {resolution}")
    if hi < lo:
        raise ValueError("empty net range")
    if hi == lo:
        return np.array([lo], dtype=float)
    # gaps + 1 <= MAX_NET_POINTS exactly when ceil(gaps) + 1 points fit
    gaps = (hi - lo) / resolution
    _check_net_size(gaps + 1.0, resolution)
    return np.linspace(lo, hi, max(1, math.ceil(gaps)) + 1)


def sparse_bounds(space: RegularSpace, R: float, r: float) -> tuple[float, float]:
    """Cardinality bounds [c^-2 (R/r)^s, 4^s c^2 (R/r)^s] for maximal
    r-sparse subsets of a closed ball of radius R."""
    ratio = (R / r) ** space.s
    return ratio / space.c**2, 4.0**space.s * space.c**2 * ratio


def _check_radii(R: float, r: float) -> None:
    """Ball radius R and inner radius r: positive, finite, r <= 2R."""
    if not (0.0 < r < math.inf and 0.0 < R < math.inf):
        raise ValueError(f"radii must be positive and finite, got R={R}, r={r}")
    if r > 2.0 * R:
        raise ValueError(f"need r <= 2R, got r={r}, R={R}")


def _successors(coords: np.ndarray, r: float) -> np.ndarray:
    """Each sorted coordinate's successor: the first later index k with the
    rounded coords[k] - coords[j] >= r, or len(coords) where there is none.

    The rounded difference does not decrease as k grows or as j falls, so
    an index that passes at offset d passes at every larger one, and its
    predecessors pass at d + 1.  The offsets are compared as shifted slices,
    from the mean spacing's guess down to one that no index passes, and up
    to one that every index in range passes: that brackets every successor,
    and each index's offset is the lower end plus the comparisons in the
    bracket that it fails.  An evenly spaced net takes two or three
    comparisons, a Cantor net one per offset of its wider bracket."""
    n = coords.size
    span = float(coords[-1] - coords[0]) if n else 0.0
    guess = max(1, math.ceil(min(n - 1, r * (n - 1) / span))) if span > 0.0 else 1
    misses = []
    lo = guess
    while lo > 1:
        ahead = coords[lo - 1:] - coords[:n - lo + 1] >= r
        if not np.count_nonzero(ahead):
            break
        lo -= 1
        misses.append(~ahead)
    for d in range(guess, n):
        ahead = coords[d:] - coords[:n - d] >= r
        if np.count_nonzero(ahead) == ahead.size:
            break
        misses.append(~ahead)
    succ = np.arange(lo, lo + n)
    for miss in misses:
        succ[:miss.size] += miss
    return np.minimum(succ, n, out=succ)


def _greedy_sorted(space: RegularSpace, coords: np.ndarray, r: float) -> list[int]:
    """First-fit greedy over a sorted net; exact float distance checks.
    Returns the accepted indices, ascending.

    A candidate is accepted when its coordinate minus the latest accepted
    one is >= r, the subtraction the verification does, never a comparison
    with a rounded prev + r; consecutive accepted coordinates are then r
    apart in the verifier's arithmetic, so all pairs are.  That test passes
    first at the latest point's successor (``_successors``), and the walk
    steps from successor to successor.  A space whose metric wraps around
    (the circle) also rejects a candidate closer than r to the first
    accepted point, the net's first, since the wrap gap to it is what
    shrinks along the arc, or to the latest: both tests run as arrays, at
    every point's successor.  Where one fails, the walk scans on from that
    successor one point at a time, as the plain first-fit does.
    """
    n = coords.size
    if not n:
        return []
    succ = _successors(coords, r)
    accepted = [0]
    add = accepted.append
    # the walk reads a few entries: memoryviews build no list of them all
    after = memoryview(succ)
    k = after[0]
    if space.period is None:
        while k < n:
            add(k)
            k = after[k]
        return accepted
    # a metric with a period reads the coordinates reduced mod the period;
    # a point without a successor gets a test of the last point, never read
    ys = coords % space.period
    clear = ~(space.distances(ys, ys[0]) < r)
    nxt = np.minimum(succ, n - 1)
    fits = memoryview(clear[nxt] & ~(space.distances(ys[nxt], ys) < r))
    clear = memoryview(clear)
    while k < n:
        prev = accepted[-1]
        if not fits[prev]:
            k += 1
            while k < n and (not clear[k] or space.distance(ys[k], ys[prev]) < r):
                k += 1
            if k == n:
                break
        add(k)
        k = after[k]
    return accepted


def _greedy_shuffled(space: RegularSpace, coords: np.ndarray, r: float,
                     seed: int) -> list[int]:
    """Greedy in random candidate order: a candidate is accepted when every
    accepted coordinate lies at least r from it by ``distances``.
    Returns the accepted indices in the order accepted.  The order is a
    stable argsort of the counter words keyed (seed, lane 0) at the indices
    1..len(coords).  The accepted coordinates are kept sorted, and
    ``_clashes`` tests a few of them against the candidate's, reduced mod
    the period on a metric with one."""
    order = np.argsort(crng.words(seed, 0, np.arange(1, coords.size + 1)),
                       kind="stable").tolist()
    vals = coords.tolist()
    keys = vals if space.period is None else (coords % space.period).tolist()
    kept: list[int] = []
    ys: list[float] = []  # the accepted coordinates, ascending
    for idx in order:
        if ys and _clashes(space, ys, keys[idx], r):
            continue
        kept.append(idx)
        bisect.insort(ys, vals[idx])
    return kept


def _clashes(space: RegularSpace, ys: list[float], q: float, r: float) -> bool:
    """Whether some coordinate of the ascending list ``ys`` lies closer than
    r to q, by ``space.distances(ys, q)``: the full check's verdict.

    That distance is a function of the rounded difference y - q, which does
    not decrease as y grows, and the function grows away from each zero of
    the metric (0, and each multiple of a period) up to the midpoint
    between two zeros (module docstring).  So the least distance over ys is
    at the coordinates on either side of each zero within reach, or at the
    first or last: on a wrap, the zeros at and beyond both ends are taken,
    and their neighbours are the first and the last.  Each zero's split is
    found by bisection at q + zero and confirmed by the rounded differences
    beside it; one that they do not confirm sends q to the full check."""
    period = space.period
    zeros = [0.0] if period is None else [
        m * period for m in range(math.floor((ys[0] - q) / period),
                                  math.ceil((ys[-1] - q) / period) + 1)]
    n = len(ys)
    near = set()
    for z in zeros:
        k = bisect.bisect_left(ys, q + z)
        if (k and not ys[k - 1] - q < z) or (k < n and not ys[k] - q >= z):
            near = range(n)
            break
        near.update((max(k - 1, 0), min(k, n - 1)))
    return not (space.distances(np.array([ys[i] for i in near]), q) >= r).all()


def _sparse_indices(space: RegularSpace, x: float, R: float, r: float,
                    seed: int | None) -> tuple[Callable, list[int]]:
    """The probe net of B(x, R) about the embedded centre x, clamped to the
    space: its decoder, and the indices of the points the greedy accepts."""
    coords, take = space.net(x, min(R, space.diameter), r / 4.0)
    if seed is None:
        return take, _greedy_sorted(space, coords, r)
    return take, _greedy_shuffled(space, coords, r, seed)


def _sparse_greedy(space: RegularSpace, x0, R: float, r: float,
                   seed: int | None) -> list:
    """The points the greedy over the probe net of B(x0, R) accepts, decoded
    by the net in one pass."""
    take, kept = _sparse_indices(space, space.embed(x0), R, r, seed)
    return take(kept)


def max_sparse_subset(space: RegularSpace, x0, R: float, r: float,
                      seed: int | None = None) -> list:
    """Maximal r-sparse subset of the closed ball B(x0, R).

    Pairwise distances are >= r exactly; maximality is certified against the
    canonical probe net at resolution r/4 (no net point of the ball can be
    added).  Any maximal set satisfies the cardinality bounds of
    sparse_bounds.  With ``seed`` the candidates are taken in the order of
    the counter words keyed (seed, lane 0) at the net indices 1, 2, ...,
    giving a different (equally valid) maximal set that replays on any numpy
    version; without it the construction is the deterministic first-fit
    over the sorted net.
    """
    _check_radii(R, r)
    if R > space.diameter:
        raise ValueError(f"need R <= diameter, got R={R} > {space.diameter}")
    space.validate_point(x0)
    return _sparse_greedy(space, x0, R, r, seed)


@dataclass(frozen=True)
class CoverReport:
    """A cover of a ball or rectangle by closed balls/cubes of one radius.

    ``factor_centers`` holds the accepted centers per factor; the elements of
    the cover are the Cartesian products (cubes of radius ``radius``), and
    ``count`` is their number, guaranteed <= ``bound``.
    """

    center: object
    target_radii: tuple[float, ...]
    radius: float
    factor_centers: tuple[tuple, ...]
    count: int
    bound: float


def cover_ball(space: RegularSpace, x, R: float, r: float) -> CoverReport:
    """Cover the closed ball B(x, R) by closed balls of radius r.

    Centers form a maximal r-sparse subset of the ball (clamped to the space
    if R exceeds the diameter), so the count is at most 4^s c^2 (R/r)^s.
    """
    _check_radii(R, r)
    space.validate_point(x)
    centers = _sparse_greedy(space, x, R, r, seed=None)
    return CoverReport(
        center=x,
        target_radii=(R,),
        radius=r,
        factor_centers=(tuple(centers),),
        count=len(centers),
        bound=sparse_bounds(space, R, r)[1],
    )


def cover_rectangle(space: ProductSpace, center: Sequence, radii, r: float) -> CoverReport:
    """Cover a rectangle (product of closed balls) by cubes of radius r.

    Factors with side radius exceeding r are covered by radius-r balls; the
    others keep their center coordinate.  The count is at most
    M = prod_{i in I} 4^{s_i} c_i^2 (r_i / r)^{s_i} over I = {i : r_i > r},
    with M = 1 when I is empty.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"cube radius must be positive and finite, got {r}")
    radii_vals = tuple(float(v) for v in radii)
    if len(radii_vals) != space.dim or len(center) != space.dim:
        raise ValueError("center/radii dimension mismatch with the product space")
    space.validate_point(center)
    factor_centers = []
    bound = 1.0
    for factor, x_i, r_i in zip(space.factors, center, radii_vals):
        if not 0.0 < r_i < math.inf:
            raise ValueError(f"rectangle side radii must be positive and finite, got {r_i}")
        if r_i > r:
            centers = _sparse_greedy(factor, x_i, r_i, r, seed=None)
            bound *= sparse_bounds(factor, r_i, r)[1]
        else:
            centers = [x_i]
        factor_centers.append(tuple(centers))
    count = math.prod(len(fc) for fc in factor_centers)
    return CoverReport(
        center=tuple(center),
        target_radii=radii_vals,
        radius=r,
        factor_centers=tuple(factor_centers),
        count=count,
        bound=bound,
    )


def verify_cover(space: RegularSpace | ProductSpace, report: CoverReport) -> bool:
    """Probe-net soundness of a cover: every point of the target's probe net
    at resolution radius/4 lies in a cover element, and count <= bound.

    A product point lies in some cube iff each coordinate lies in some factor
    ball, so rectangle verification reduces to per-factor containment.  Per
    factor, ``_net_covered`` tests each net point against its nearest sorted
    centres, then against every centre only if those leave it uncovered: the
    verdict is that of the comparison with every centre, bit for bit.  Only
    the nets' coordinates are read, never their points.
    """
    if report.count > report.bound * (1.0 + 1e-12):
        return False
    # a few ulps of slack: boundary-exact containments (e.g. a kept center
    # with side radius equal to the cube radius) must not fail by rounding
    limit = report.radius + 16.0 * np.spacing(max(1.0, report.radius))
    factors = space.factors if isinstance(space, ProductSpace) else (space,)
    center = report.center if isinstance(space, ProductSpace) else (report.center,)
    for factor, x_i, R_i, centers in zip(factors, center, report.target_radii,
                                         report.factor_centers):
        coords = factor.net(factor.embed(x_i), min(R_i, factor.diameter),
                            report.radius / 4.0)[0]
        if coords.size and not _net_covered(factor, coords, centers, limit):
            return False
    return True


def _net_covered(factor: RegularSpace, coords: np.ndarray, centers, limit) -> bool:
    """Whether each coordinate lies within ``limit`` of some centre, by
    ``distances``.  The centres are sorted by
    position (mod the period on a metric that wraps around), and one
    searchsorted finds each coordinate's two neighbours among them; a wrap
    adds the first and last.  Candidates only speed the test up: a point
    that none of them covers is tested against every centre."""
    ys = np.array([factor.coordinate(c) for c in centers], dtype=float)
    if ys.size == 0:
        return False
    period = factor.period
    keys = ys if period is None else ys % period
    order = np.argsort(keys, kind="stable")
    ys = ys[order]
    k = np.searchsorted(keys[order], coords if period is None else coords % period)
    near = [ys[np.maximum(k - 1, 0)], ys[np.minimum(k, ys.size - 1)]]
    if period is not None:
        near += [ys[0], ys[-1]]
    covered = np.zeros(coords.size, dtype=bool)
    for y in near:
        covered |= factor.distances(coords, y) <= limit
    return all((factor.distances(coords[j], ys) <= limit).any()
               for j in np.flatnonzero(~covered))


def factor_from_token(token: str) -> RegularSpace:
    """Parse a CLI factor token: the kind, then each constructor parameter
    after a colon ("interval", "circle", "cantor:0.25")."""
    kind, *args = token.split(":")
    cls = _KINDS.get(kind)
    if cls is None or len(args) != len(cls.params):
        raise ValueError(f"unknown space factor {token!r}")
    return cls(*(_parse_number(a, f"space factor {token!r}: {p}")
                 for a, p in zip(args, cls.params)))


def _parse_number(token: str, what: str) -> float:
    """float(token), or a ValueError that names the token as ``what``."""
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{what} {token!r} is not a number") from None
