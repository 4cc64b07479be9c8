"""Discrete sets of finite perimeter on rectangular grids.

A grid is a box of d-dimensional cells (d in {2, 3}) of side h; a set is one
bit per cell.  Perimeter is a weighted count of stencil edges joining a member
cell to a non-member cell; volume is h^d per member cell.  Faces on the outer
hull of the grid are never counted (the grid models an open set, experiments
keep boundaries away from the hull), which makes perimeter symmetric under
complementation.

Weighted counts are accumulated as integer face counts per stencil weight
level, with the weight multiplication done last.  The weight constants carry
34-bit mantissas, so count*weight products are exact in double precision for
any desk-scale count; with power-of-two h this makes the inner/outer/interface
splitting sums agree with perimeter() bit for bit.
"""

import math
import numbers
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


# Elements of a long 1-D array worked on at once: a curve's samples, a CSV's
# rows, an SVG path's points.  The temporaries of one block stay small, and
# no per-value list spans a whole 98,851-sample leaf.
_BLOCK = 4096


class UsageError(ValueError):
    """Caller broke an operation precondition (mismatched grids, bad args)."""


class NumericalError(RuntimeError):
    """A computation could not be completed at the requested scale."""


STENCIL_FACE = "face"
STENCIL_CC = "cc"

# Crofton-style weights: exact on angular average over normal directions.
_W2_FACE = 6746518852 / 2**34        # pi/8 rounded to a 34-bit mantissa
_W2_DIAG = 4770509230 / 2**34        # pi/(8*sqrt(2)), same rounding
# 3-D weights from least squares over uniformly sampled normals with the
# spherical mean pinned to the exact value; 34-bit mantissas.
_W3_FACE = 3195643706 / 2**34
_W3_EDGE = 1834524234 / 2**34
_W3_CORNER = 1328822586 / 2**34

# Canonical offsets: first nonzero component positive, so every undirected
# edge is enumerated exactly once.
_FACE_OFFSETS = {
    2: ((1, 0), (0, 1)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}
_DIAG_LEVELS = {
    2: (( _W2_DIAG, ((1, 1), (1, -1)) ),),
    3: (
        ( _W3_EDGE, ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                     (0, 1, 1), (0, 1, -1)) ),
        ( _W3_CORNER, ((1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1)) ),
    ),
}


def stencil_levels(d, stencil):
    """Weight levels for a stencil: tuple of (unit_weight, offsets).

    Every level, its offsets taken up to sign, maps onto itself under each
    axis flip and each swap of two axes.  So a grid reflection that leaves
    the per-cell data of a problem unchanged leaves its energy unchanged,
    which is what lets mincut.solve number mirror-image cells as one flow
    node after checking only those per-cell arrays.
    """
    if _integer(d, "grid dimension") not in _FACE_OFFSETS:
        raise UsageError(f"grid dimension must be 2 or 3, got {_shown(d)}")
    if stencil == STENCIL_FACE:
        return ((1.0, _FACE_OFFSETS[d]),)
    if stencil == STENCIL_CC:
        face_w = _W2_FACE if d == 2 else _W3_FACE
        return ((face_w, _FACE_OFFSETS[d]),) + _DIAG_LEVELS[d]
    raise UsageError(f"unknown stencil {stencil!r}")


# The one check of each kind of number the library takes.  Each refuses a
# bool, as a number of no kind, and names the input it refuses.

def _shown(value):
    """repr(value), but an integer past 2**64 only by its sign and bit
    length: no message writes out the digits of an unbounded integer."""
    if not isinstance(value, numbers.Integral) or -2**64 < value < 2**64:
        return repr(value)
    return f"<{'negative ' * (value < 0)}integer of {value.bit_length()} bits>"


def _real(value, name):
    """value as a float, +-inf past the float range; UsageError, naming
    it, unless it is a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{name} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:    # an integer past the float range
        return math.inf if value > 0 else -math.inf


def _finite(value, name):
    """value as a float; UsageError, naming it, unless finite and real."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(_real(value, name))):
        raise UsageError(
            f"{name} must be a finite real number, got {_shown(value)}")
    return float(value)


def _positive(value, name):
    """value as a float; UsageError, naming it, unless positive, finite and
    real."""
    x = _real(value, name)
    if not 0 < x < math.inf:
        raise UsageError(f"{name} must be positive and finite, got {x}")
    return x


def _integer(value, name, least=None, most=None):
    """value as an int; UsageError, naming it, unless it is an integer from
    least to the budget most, each bound when given.  An integral float is
    refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {_shown(value)}")
    if least is not None and value < least:
        raise UsageError(
            f"{name} must be an integer >= {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise UsageError(f"{name} must be at most the budget of {most}, "
                         f"got {_shown(value)}")
    return int(value)


def _sequence(value, name, length=None):
    """value as a tuple; UsageError, naming it, unless it is iterable and,
    when length is given, holds that many entries."""
    if not np.iterable(value):
        raise UsageError(f"{name} must be a sequence, got {_shown(value)}")
    items = tuple(value)
    if length is not None and len(items) != length:
        raise UsageError(f"{name} must hold {length} items, got {len(items)}")
    return items


def _finite_array(value, name):
    """value as a new float array; UsageError, naming it, unless it is a
    rectangular array of finite real numbers (bool, int or float dtype)."""
    try:
        arr = np.asarray(value)
    except ValueError:    # a ragged nesting of sequences
        raise UsageError(f"{name} must be a rectangular array") from None
    if arr.dtype.kind not in "biuf":
        raise UsageError(f"{name} must be real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{name} has non-finite entries")
    return arr


def _frozen_array(value, name):
    """value as a read-only float array, checked as _finite_array checks
    it.  A float64 ndarray that owns its data and is already read-only is
    taken as it is; anything else is copied, so a caller's writeable array
    is never made read-only and never shared."""
    if (type(value) is np.ndarray and value.dtype == np.float64
            and value.flags.owndata and not value.flags.writeable):
        if not np.all(np.isfinite(value)):
            raise UsageError(f"{name} has non-finite entries")
        return value
    arr = _finite_array(value, name)
    arr.setflags(write=False)
    return arr


def _chords(x, y):
    """x and y as float arrays, checked as _finite_array checks them, and
    the lengths of the chords between consecutive points (x, y); UsageError
    unless x and y are 1-D, of one length of at least 3, and no point
    repeats the one before it, so that no chord is 0."""
    x, y = _finite_array(x, "x"), _finite_array(y, "y")
    if x.ndim != 1 or x.shape != y.shape or len(x) < 3:
        raise UsageError("x and y must be 1-D, of one length of at least 3")
    ds = np.hypot(np.diff(x), np.diff(y))
    if not ds.all():
        raise UsageError("x and y repeat a point")
    return x, y, ds


def _bool_array(value, name, shape=None):
    """value; UsageError, naming it, unless it is a bool ndarray, of the
    grid's extents shape when shape is given.  It is neither cast nor
    reshaped: a cast would make any nonzero entry a member."""
    if not (isinstance(value, np.ndarray) and value.dtype == bool
            and shape in (None, value.shape)):
        got = (f"a {value.dtype} array of shape {value.shape}"
               if isinstance(value, np.ndarray) else type(value).__name__)
        of = "" if shape is None else f" of the grid's extents {shape}"
        raise UsageError(f"{name} must be a bool array{of}, got {got}")
    return value


def _instance(value, cls, name):
    """value; UsageError, naming it, unless it is an instance of cls."""
    if not isinstance(value, cls):
        raise UsageError(f"{name} must be a {cls.__name__}, got "
                         f"{type(value).__name__}")
    return value


# Most cells a grid may have.  At 2^24 cells a bit array takes 16.8 MB and
# a float64 or int64 per-cell array 134 MB, and every flow node number
# fits int32.  The arc table holds one capacity per arc, int32 when every
# capacity fits and int64 otherwise, so 4 or 8 bytes per stencil offset
# and cell: 16 or 32 bytes per cell (268 or 537 MB) on the 2-D cc
# stencil's 4 offsets, 52 or 104 (872 MB or 1.7 GB) on the 3-D one's 13.
# A solve holds several per-cell arrays beside it.  The check runs before
# any per-cell array exists, so an extent read from a flag or a cell-set
# header cannot ask for terabytes.
_MAX_CELLS = 2**24


@dataclass(frozen=True)
class GridGeometry:
    """Cell layout: extents per axis, cell side h, center of cell (0, ..., 0),
    and the neighborhood stencil used for perimeter.  The extents must be
    integers, and at most _MAX_CELLS = 2^24 cells."""

    dims: tuple
    h: float = 1.0
    origin: tuple = None
    stencil: str = STENCIL_CC

    def __post_init__(self):
        dims = tuple(_integer(n, "grid extent", 1)
                     for n in _sequence(self.dims, "grid extents"))
        stencil_levels(len(dims), self.stencil)
        if math.prod(dims) > _MAX_CELLS:
            raise UsageError(f"grid ({', '.join(map(_shown, dims))}) has more "
                             f"cells than the budget of {_MAX_CELLS}")
        origin = (0.0,) * len(dims) if self.origin is None else tuple(
            _finite(c, "origin entry")
            for c in _sequence(self.origin, "origin", len(dims)))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "h", _positive(self.h, "cell size"))
        object.__setattr__(self, "origin", origin)

    @property
    def d(self):
        return len(self.dims)

    @property
    def ncells(self):
        return math.prod(self.dims)

    def axis_coords(self, k):
        """Cell center coordinates along axis k."""
        return self.origin[k] + self.h * np.arange(self.dims[k])

    def center_mesh(self):
        """Arrays of cell center coordinates, one per axis, shaped like the grid."""
        axes = [self.axis_coords(k) for k in range(self.d)]
        return np.meshgrid(*axes, indexing="ij")

    def compatible(self, other):
        """Grids whose cells line up for bitwise set operations.

        The origin is presentation metadata and not part of compatibility;
        the cell set file format does not carry it.
        """
        _instance(other, GridGeometry, "grid")
        return (self.dims == other.dims and self.h == other.h
                and self.stencil == other.stencil)

    def levels(self):
        return stencil_levels(self.d, self.stencil)


def _require_shared_grid(a, b):
    if not a.grid.compatible(b.grid):
        raise UsageError("operands live on different grids")


@dataclass(frozen=True, eq=False)
class _FrozenBits:
    """One read-only bit per grid cell; equal only to its own kind."""

    grid: GridGeometry
    bits: np.ndarray

    def __post_init__(self):
        _instance(self.grid, GridGeometry, "grid")
        arr = np.array(_bool_array(self.bits, "cell bits", self.grid.dims))
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.grid.compatible(other.grid) and bool(
            np.array_equal(self.bits, other.bits))

    @classmethod
    def from_predicate(cls, grid, pred):
        """Membership from a predicate over cell center coordinate arrays."""
        _instance(grid, GridGeometry, "grid")
        return cls(grid, _instance(pred, Callable, "predicate")(
            *grid.center_mesh()))

    @classmethod
    def _filled(cls, grid, value):
        """Every cell of grid set to the bool value."""
        return cls(grid, np.full(_instance(grid, GridGeometry, "grid").dims,
                                 value))


class CellSet(_FrozenBits):
    """A finite binary labeling of grid cells."""

    def __hash__(self):
        return hash((self.grid.dims, self.grid.h, self.grid.stencil,
                     self.bits.tobytes()))

    @classmethod
    def empty(cls, grid):
        return cls._filled(grid, False)

    @classmethod
    def full(cls, grid):
        return cls._filled(grid, True)

    def count(self):
        return int(np.count_nonzero(self.bits))


class RegionMask(_FrozenBits):
    """A region of interest realized as one bit per cell."""

    @classmethod
    def whole(cls, grid):
        return cls._filled(grid, True)

    @classmethod
    def ball(cls, grid, center, r):
        """Cells whose centers lie within Euclidean distance r of center."""
        _instance(grid, GridGeometry, "grid")
        return cls(grid, _ball_bits(grid, *_ball(grid, center, r)))

    def invert(self):
        return RegionMask(self.grid, ~self.bits)

    def intersect(self, other):
        _require_shared_grid(self, _instance(other, RegionMask, "region"))
        return RegionMask(self.grid, self.bits & other.bits)


def _ball(grid, center, r):
    """center and r as floats; UsageError unless center is a point of the
    grid's dimension and r a positive radius, all finite."""
    center = tuple(_finite(c, "ball center entry")
                   for c in _sequence(center, "ball center", grid.d))
    return center, _positive(r, "ball radius")


def _ball_bits(grid, center, r):
    mesh = grid.center_mesh()
    d2 = np.zeros(grid.dims)
    with np.errstate(over="ignore"):    # squares past the float range: inf
        for k in range(grid.d):
            d2 += (mesh[k] - center[k]) ** 2
        return d2 <= r * r


def complement(D):
    """The complementary cell set on the same grid."""
    _instance(D, CellSet, "cell set D")
    return CellSet(D.grid, ~D.bits)


def lattice(D1, D2):
    """Intersection and union of two cell sets."""
    _instance(D1, CellSet, "cell set D1")
    _require_shared_grid(D1, _instance(D2, CellSet, "cell set D2"))
    return (CellSet(D1.grid, D1.bits & D2.bits),
            CellSet(D1.grid, D1.bits | D2.bits))


def _offset_slices(dims, off):
    lo, hi = [], []
    for n, o in zip(dims, off):
        lo.append(slice(max(0, -o), n - max(0, o)))
        hi.append(slice(max(0, o), n - max(0, -o)))
    return tuple(lo), tuple(hi)


def _level_counts(D, inc_bits):
    """Cut-face counts per stencil weight level.

    A face counts when its two incident cell labels differ and both incident
    cell centers lie in the incidence mask.
    """
    counts = []
    for _w, offsets in D.grid.levels():
        c = 0
        for off in offsets:
            sa, sb = _offset_slices(D.grid.dims, off)
            cut = D.bits[sa] != D.bits[sb]
            if inc_bits is not None:
                cut = cut & inc_bits[sa] & inc_bits[sb]
            c += int(np.count_nonzero(cut))
        counts.append(c)
    return counts


def _value_from_counts(grid, counts):
    acc = 0.0
    for (w, _offs), c in zip(grid.levels(), counts):
        acc = acc + c * w
    return acc * grid.h ** (grid.d - 1)


def perimeter(D, R):
    """Weighted cut size of D restricted to R.

    Sums stencil weight times h^(d-1) over edges whose incident labels differ
    and whose two incident cell centers both lie in R.  Hull faces never
    contribute.
    """
    _instance(D, CellSet, "cell set D")
    _instance(R, RegionMask, "region R")
    _require_shared_grid(D, R)
    return _value_from_counts(D.grid, _level_counts(D, R.bits))


def volume(D, R):
    """Member cell count inside R times h^d."""
    _instance(D, CellSet, "cell set D")
    _require_shared_grid(D, _instance(R, RegionMask, "region R"))
    n = int(np.count_nonzero(D.bits & R.bits))
    return n * D.grid.h ** D.grid.d


@dataclass(frozen=True)
class SplitReport:
    """Boundary faces of a set partitioned by a ball: both incident centers
    inside (inner), both outside (outer), or straddling (interface).

    per_total is constructed as per_inner + per_outer + per_interface in that
    order, so the identity holds exactly, with no tolerance.
    """

    per_inner: float
    per_outer: float
    per_interface: float
    per_total: float


def split_perimeter(D, r, center):
    """Classify every boundary face of D by the ball B_r(center).

    The three parts partition the boundary faces, and with power-of-two h the
    reconstructed total equals perimeter(D, whole grid) exactly.
    """
    grid = _instance(D, CellSet, "cell set D").grid
    center, r = _ball(grid, center, r)
    lo = [grid.origin[k] - 0.5 * grid.h for k in range(grid.d)]
    hi = [grid.origin[k] + (grid.dims[k] - 0.5) * grid.h for k in range(grid.d)]
    gap2 = 0.0
    for k in range(grid.d):
        gap = max(lo[k] - center[k], center[k] - hi[k], 0.0)
        gap2 += gap * gap
    if gap2 > r * r:
        raise UsageError("ball does not intersect the grid")

    ball = _ball_bits(grid, center, r)
    inner = _level_counts(D, ball)
    outer = _level_counts(D, ~ball)
    interface = [t - i - o for t, i, o in
                 zip(_level_counts(D, None), inner, outer)]
    per_inner = _value_from_counts(grid, inner)
    per_outer = _value_from_counts(grid, outer)
    per_interface = _value_from_counts(grid, interface)
    return SplitReport(per_inner, per_outer, per_interface,
                       per_inner + per_outer + per_interface)


def boundary_faces(D):
    """Face-type boundary faces of D as (midpoints, normal_axis) arrays.

    Only axis-aligned faces define the geometric interface; diagonal stencil
    edges contribute to weighted perimeter but not to interface geometry.
    """
    grid = _instance(D, CellSet, "cell set D").grid
    mids = []
    axes = []
    mesh = grid.center_mesh()
    for k, off in enumerate(_FACE_OFFSETS[grid.d]):
        sa, sb = _offset_slices(grid.dims, off)
        cut = D.bits[sa] != D.bits[sb]
        pts = np.stack([0.5 * (mesh[j][sa][cut] + mesh[j][sb][cut])
                        for j in range(grid.d)], axis=1)
        mids.append(pts)
        axes.append(np.full(len(pts), k, dtype=np.int64))
    return np.concatenate(mids, axis=0), np.concatenate(axes)


# Point pairs _farthest_nearest sums in one block: a few arrays of 512 KB
# each at most.
_HAUSDORFF_PAIRS = 2**16


def _hausdorff(a, b):
    """Hausdorff distance of planar point sets, each an (n, 2) array; 0 if
    both are empty, inf if one is.

    The largest squared nearest-point distance of each set to the other
    (_farthest_nearest), the second pass starting from the first's, so
    sqrt is taken once.  sqrt is monotone, so that is the k-d tree's
    largest nearest-point distance to the bit.  When the two sets together
    spread wider in y than in x, both are searched with their columns
    swapped, so that the x windows stay narrow; dy*dy + dx*dx is the same
    float as dx*dx + dy*dy.
    """
    if len(a) == 0 or len(b) == 0:
        return float("inf") if len(a) or len(b) else 0.0
    spread = np.ptp(np.concatenate([a, b]), axis=0)
    if spread[1] > spread[0]:
        a, b = a[:, ::-1], b[:, ::-1]
    return float(np.sqrt(_farthest_nearest(b, a, _farthest_nearest(a, b,
                                                                  0.0))))


def _farthest_nearest(p, q, floor):
    """The largest of floor and the squared distances from each point of p
    to its nearest point of q, both non-empty (n, 2) arrays.

    Every pair's squared distance is summed as dx*dx + dy*dy, as scipy's
    k-d tree sums it, but not every pair is summed.  q is sorted along x.
    Each point of p first gets a bound, its squared distance to the nearer
    of the two points of q on either side of it in x; its nearest point
    lies within the bound's square root of it in x, so only the points of
    q inside that x window (found by binary search, padded past rounding)
    are summed.  The points of p
    run in descending bound, _HAUSDORFF_PAIRS pairs at a time (one point
    at least), and the running maximum ends the pass at the first point
    whose bound does not exceed it: no point after it can raise it.
    """
    q = q[np.argsort(q[:, 0], kind="stable")]
    qx, qy = q[:, 0].copy(), q[:, 1].copy()
    px, py = p[:, 0], p[:, 1]
    j = np.searchsorted(qx, px)
    bound = np.full(len(p), np.inf)
    for k in (np.maximum(j - 1, 0), np.minimum(j, len(q) - 1)):
        dx, dy = px - qx[k], py - qy[k]
        np.minimum(bound, dx * dx + dy * dy, out=bound)
    order = np.argsort(-bound, kind="stable")
    bound = bound[order]
    px, py = px[order], py[order]
    w = np.sqrt(bound) * (1 + 2.0**-40) + 2.0**-40 * np.abs(px)
    lo = np.searchsorted(qx, px - w, side="left")
    ends = np.cumsum(np.searchsorted(qx, px + w, side="right") - lo)
    start = 0
    stop = np.searchsorted(-bound, -floor, side="left")
    while start < stop:
        done = ends[start - 1] if start else 0
        end = min(stop, max(start + 1, np.searchsorted(
            ends, done + _HAUSDORFF_PAIRS, side="right")))
        counts = np.diff(ends[start:end], prepend=done)
        heads = ends[start:end] - counts - done
        cols = np.arange(ends[end - 1] - done) + np.repeat(lo[start:end]
                                                           - heads, counts)
        sq = np.repeat(px[start:end], counts) - qx[cols]
        sq *= sq
        dy = np.repeat(py[start:end], counts) - qy[cols]
        dy *= dy
        sq += dy
        floor = max(floor, np.minimum.reduceat(sq, heads).max())
        start = end
        stop = np.searchsorted(-bound, -floor, side="left")
    return floor


# Cell set file format: header line
#   cmcgrid v1 d=<d> ext=<e1,...> h=<h> stencil=<name>
# then the membership bits, row-major with the last axis fastest, run-length
# encoded as whitespace-separated "<count><0|1>" tokens, newline-terminated.

_HEADER_RE = re.compile(
    r"^cmcgrid v1 d=(\d+) ext=(\d+(?:,\d+)*) h=([^ ]+) stencil=(\S+)$")
_RUN_RE = re.compile(r"([0-9]+)([01])")


def _parse_count(digits, what):
    """int() of a run of digits; UsageError past Python's int-string limit."""
    try:
        return int(digits)
    except ValueError:
        raise UsageError(f"{what} has {len(digits)} digits, over the "
                         f"integer limit") from None


def rle_encode(flat_bits):
    """The run text of a bool array in raster order; the bits are read
    through a uint8 view, not copied."""
    bits = _bool_array(flat_bits, "run bits").ravel().view(np.uint8)
    if bits.size == 0:
        return ""
    edges = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [bits.size]))
    return " ".join(f"{e - s}{bits[s]}" for s, e in zip(starts, ends))


def rle_decode(text, size):
    size = _integer(size, "cell count", 0, _MAX_CELLS)
    tokens = _instance(text, str, "run text").split()
    out = np.empty(size, dtype=bool)
    pos = 0
    for tok in tokens:
        m = _RUN_RE.fullmatch(tok)
        if m is None:
            raise UsageError(f"bad run token {tok!r}")
        n = _parse_count(m.group(1), "run length")
        if n <= 0 or pos + n > size:
            raise UsageError(f"run lengths do not fit {size} cells")
        out[pos:pos + n] = m.group(2) == "1"
        pos += n
    if pos != size:
        raise UsageError(f"runs cover {pos} of {size} cells")
    return out


def cellset_to_text(D):
    grid = _instance(D, CellSet, "cell set D").grid
    ext = ",".join(str(n) for n in grid.dims)
    header = f"cmcgrid v1 d={grid.d} ext={ext} h={grid.h!r} stencil={grid.stencil}"
    return header + "\n" + rle_encode(D.bits) + "\n"


def cellset_from_text(text):
    lines = _instance(text, str, "cell set text").splitlines()
    if not lines:
        raise UsageError("empty cell set document")
    m = _HEADER_RE.match(lines[0].strip())
    if m is None:
        raise UsageError(f"bad cell set header: {lines[0]!r}")
    d = _parse_count(m.group(1), "header d")
    dims = tuple(_parse_count(x, "header ext entry")
                 for x in m.group(2).split(","))
    if len(dims) != d:
        raise UsageError(f"header d={d} does not match ext={dims}")
    try:
        h = float(m.group(3))
    except ValueError:
        raise UsageError(f"bad cell size in header: {m.group(3)!r}")
    grid = GridGeometry(dims, h=h, stencil=m.group(4))
    body = " ".join(lines[1:])
    bits = rle_decode(body, grid.ncells).reshape(dims)
    return CellSet(grid, bits)


def read_cellset(path):
    with open(path, "r", encoding="utf-8") as f:
        return cellset_from_text(f.read())
