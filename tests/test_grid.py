import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmclab import (
    UsageError, STENCIL_FACE, STENCIL_CC, stencil_levels, GridGeometry,
    CellSet, RegionMask, complement, lattice, perimeter, volume,
    split_perimeter, boundary_faces, rle_encode, rle_decode,
    cellset_to_text, cellset_from_text, read_cellset,
)
from cmclab.cli import atomic_write
from oracles import perimeter_recount
from support import traced_peak

W2_FACE = 6746518852 / 2**34
W2_DIAG = 4770509230 / 2**34
W3_FACE = 3195643706 / 2**34
W3_EDGE = 1834524234 / 2**34
W3_CORNER = 1328822586 / 2**34


def random_set(rng, dims, h=1.0, stencil="cc", fill=0.5):
    grid = GridGeometry(dims, h=h, stencil=stencil)
    return CellSet(grid, rng.random(dims) < fill)


class TestGridGeometry:
    def test_basic_properties(self):
        g = GridGeometry((4, 6), h=0.5, origin=(1.0, 2.0))
        assert g.d == 2
        assert g.ncells == 24
        assert np.allclose(g.axis_coords(0), 1.0 + 0.5 * np.arange(4))
        X, Y = g.center_mesh()
        assert X.shape == (4, 6)
        assert X[2, 0] == 2.0 and Y[0, 3] == 3.5

    def test_validation(self):
        with pytest.raises(UsageError):
            GridGeometry((4,))
        with pytest.raises(UsageError):
            GridGeometry((4, 0))
        with pytest.raises(UsageError):
            GridGeometry((4, 4), h=-1.0)
        with pytest.raises(UsageError):
            GridGeometry((4, 4), origin=(0.0,))
        with pytest.raises(UsageError):
            GridGeometry((4, 4), stencil="bogus")

    @pytest.mark.parametrize("dims", [(4.5, 4), ("4", 4), (4, None)],
                             ids=["float", "str", "None"])
    def test_extents_must_be_integers(self, dims):
        # (4.5, 4) once became (4, 4); "4" and None went to int().
        with pytest.raises(UsageError, match="grid extent must be an integer"):
            GridGeometry(dims)

    def test_numpy_integer_extents_are_integers(self):
        assert GridGeometry((np.int64(4), np.uint8(3))).dims == (4, 3)

    def test_compatible_ignores_origin(self):
        a = GridGeometry((4, 4), h=0.5)
        b = GridGeometry((4, 4), h=0.5, origin=(3.0, -1.0))
        c = GridGeometry((4, 4), h=0.25)
        d = GridGeometry((4, 4), h=0.5, stencil="face")
        assert a.compatible(b)
        assert not a.compatible(c)
        assert not a.compatible(d)

    def test_stencil_levels(self):
        (w,), = [tuple(w for w, _ in stencil_levels(2, STENCIL_FACE))]
        assert w == 1.0
        levels2 = stencil_levels(2, STENCIL_CC)
        assert [w for w, _ in levels2] == [W2_FACE, W2_DIAG]
        assert [len(o) for _, o in levels2] == [2, 2]
        levels3 = stencil_levels(3, STENCIL_CC)
        assert [w for w, _ in levels3] == [W3_FACE, W3_EDGE, W3_CORNER]
        assert [len(o) for _, o in levels3] == [3, 6, 4]
        with pytest.raises(UsageError):
            stencil_levels(2, "nope")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("stencil", [STENCIL_FACE, STENCIL_CC])
    def test_stencil_levels_map_onto_themselves_under_reflections(
            self, d, stencil):
        # What lets mincut.solve merge mirror-image cells after checking
        # only the per-cell arrays: every axis flip and every axis swap
        # maps each weight level's undirected offsets onto themselves.
        def reflections():
            for k in range(d):
                yield lambda v, k=k: v[:k] + (-v[k],) + v[k + 1:]
            for i in range(d):
                for j in range(i + 1, d):
                    def swap(v, i=i, j=j):
                        v = list(v)
                        v[i], v[j] = v[j], v[i]
                        return tuple(v)
                    yield swap

        for _w, offsets in stencil_levels(d, stencil):
            level = ({tuple(o) for o in offsets}
                     | {tuple(-c for c in o) for o in offsets})
            for sigma in reflections():
                assert {sigma(o) for o in level} == level


class TestCellSet:
    def test_constructors(self):
        g = GridGeometry((3, 3))
        assert CellSet.empty(g).count() == 0
        assert CellSet.full(g).count() == 9
        D = CellSet.from_predicate(g, lambda x, y: x < 1.5)
        assert D.count() == 6

    def test_bits_read_only(self):
        g = GridGeometry((3, 3))
        D = CellSet.full(g)
        with pytest.raises(ValueError):
            D.bits[0, 0] = False

    def test_equality(self):
        g1 = GridGeometry((3, 3))
        g2 = GridGeometry((3, 3), origin=(5.0, 5.0))
        g3 = GridGeometry((3, 3), h=0.5)
        assert CellSet.full(g1) == CellSet.full(g2)
        assert CellSet.full(g1) != CellSet.full(g3)
        assert CellSet.full(g1) != CellSet.empty(g1)

    def test_kinds_stay_apart_and_hash_by_value(self):
        g = GridGeometry((3, 3))
        bits = np.eye(3, dtype=bool)
        assert CellSet(g, bits) != RegionMask(g, bits)
        assert RegionMask(g, bits) != CellSet(g, bits)
        assert CellSet(g, bits) == CellSet(g, bits.copy())
        assert hash(CellSet(g, bits)) == hash(CellSet(g, bits.copy()))
        with pytest.raises(TypeError):
            hash(RegionMask(g, bits))

    @pytest.mark.parametrize("kind", [CellSet, RegionMask])
    @pytest.mark.parametrize("bits,got", [
        (np.zeros((3, 3), bool), r"a bool array of shape \(3, 3\)"),
        (np.zeros(64, bool), r"a bool array of shape \(64,\)"),
        (np.full((8, 8), 0.5), "a float64 array"),
        (np.ones((8, 8), np.uint8), "a uint8 array"),
        ([["a"] * 8] * 8, "list"),
        ([[True] * 8] * 8, "list"),
    ], ids=["small", "flat", "float", "uint8", "str-list", "bool-list"])
    def test_bits_must_be_bools_of_the_grid_extents(self, kind, bits, got):
        # Neither reshaped nor cast: a cast made any nonzero entry a member.
        with pytest.raises(UsageError, match=got):
            kind(GridGeometry((8, 8)), bits)

    def test_lattice_and_complement(self, rng):
        D1 = random_set(rng, (5, 5))
        D2 = CellSet(D1.grid, rng.random((5, 5)) < 0.5)
        inter, union = lattice(D1, D2)
        assert np.array_equal(inter.bits, D1.bits & D2.bits)
        assert np.array_equal(union.bits, D1.bits | D2.bits)
        assert complement(complement(D1)) == D1
        with pytest.raises(UsageError):
            lattice(D1, CellSet.full(GridGeometry((5, 5), h=2.0)))


class TestRegionMask:
    def test_ball_membership_by_center(self):
        g = GridGeometry((5, 5))
        B = RegionMask.ball(g, (2.0, 2.0), 1.0)
        assert B.bits[2, 2] and B.bits[1, 2] and B.bits[3, 2]
        assert not B.bits[1, 1]

    def test_invert_intersect(self):
        g = GridGeometry((4, 4))
        B = RegionMask.ball(g, (0.0, 0.0), 1.5)
        W = RegionMask.whole(g)
        assert np.array_equal(B.invert().bits, ~B.bits)
        assert np.array_equal(B.intersect(W).bits, B.bits)


class TestPerimeter:
    def test_single_cell_face(self):
        g = GridGeometry((3, 3), h=0.5, stencil="face")
        D = CellSet.from_predicate(g, lambda x, y: (x == 0.5) & (y == 0.5))
        assert D.count() == 1
        assert perimeter(D, RegionMask.whole(g)) == 4 * 1.0 * 0.5

    def test_single_cell_cc_2d(self):
        g = GridGeometry((3, 3), h=1.0, stencil="cc")
        D = CellSet.from_predicate(g, lambda x, y: (x == 1) & (y == 1))
        assert perimeter(D, RegionMask.whole(g)) == 4 * W2_FACE + 4 * W2_DIAG

    def test_single_cell_cc_3d(self):
        g = GridGeometry((3, 3, 3), h=1.0, stencil="cc")
        bits = np.zeros((3, 3, 3), dtype=bool)
        bits[1, 1, 1] = True
        D = CellSet(g, bits)
        expected = 6 * W3_FACE + 12 * W3_EDGE + 8 * W3_CORNER
        assert perimeter(D, RegionMask.whole(g)) == expected

    def test_hull_faces_not_counted(self):
        for dims in [(4, 4), (3, 3, 3)]:
            g = GridGeometry(dims)
            W = RegionMask.whole(g)
            assert perimeter(CellSet.full(g), W) == 0.0
            assert perimeter(CellSet.empty(g), W) == 0.0

    def test_mask_needs_both_cells(self):
        g = GridGeometry((4, 4), stencil="face")
        D = CellSet.from_predicate(g, lambda x, y: x < 1.5)
        left_only = RegionMask.from_predicate(g, lambda x, y: x < 1.5)
        assert perimeter(D, RegionMask.whole(g)) == 4 * 1.0
        assert perimeter(D, left_only) == 0.0

    def test_complement_symmetry(self, rng):
        for stencil in ("face", "cc"):
            D = random_set(rng, (6, 6), stencil=stencil)
            W = RegionMask.whole(D.grid)
            assert perimeter(D, W) == perimeter(complement(D), W)

    def test_h_scaling_exact(self, rng):
        bits = rng.random((5, 5)) < 0.5
        p1 = perimeter(CellSet(GridGeometry((5, 5), h=1.0), bits),
                       RegionMask.whole(GridGeometry((5, 5), h=1.0)))
        p2 = perimeter(CellSet(GridGeometry((5, 5), h=0.5), bits),
                       RegionMask.whole(GridGeometry((5, 5), h=0.5)))
        assert p2 == 0.5 * p1

    def test_recount_oracle(self, rng):
        cases = [((5, 5), "face"), ((5, 5), "cc"),
                 ((6, 4), "cc"), ((3, 4, 3), "face"), ((3, 3, 3), "cc")]
        for dims, stencil in cases:
            for _ in range(4):
                D = random_set(rng, dims, stencil=stencil)
                mask_bits = rng.random(dims) < 0.8
                R = RegionMask(D.grid, mask_bits)
                assert perimeter(D, R) == pytest.approx(
                    perimeter_recount(D, R), abs=1e-14, rel=1e-14)

    def test_volume(self, rng):
        D = random_set(rng, (6, 6), h=0.25)
        W = RegionMask.whole(D.grid)
        assert volume(D, W) == D.count() * 0.25**2
        B = RegionMask.ball(D.grid, (0.5, 0.5), 0.6)
        inside = D.bits & B.bits
        assert volume(D, B) == int(inside.sum()) * 0.25**2


class TestSubmodularity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
           st.sampled_from(["face", "cc"]))
    def test_lattice_inequality_2d(self, k1, k2, stencil):
        g = GridGeometry((4, 4), stencil=stencil)
        b1 = (k1 >> np.arange(16)) & 1
        b2 = (k2 >> np.arange(16)) & 1
        D1 = CellSet(g, b1.astype(bool).reshape(4, 4))
        D2 = CellSet(g, b2.astype(bool).reshape(4, 4))
        inter, union = lattice(D1, D2)
        W = RegionMask.whole(g)
        assert (perimeter(inter, W) + perimeter(union, W)
                <= perimeter(D1, W) + perimeter(D2, W))


class TestSplitPerimeter:
    def test_matches_whole_grid_perimeter(self, rng):
        for h in (1.0, 0.5, 0.25):
            for stencil in ("face", "cc"):
                for _ in range(6):
                    D = random_set(rng, (8, 8), h=h, stencil=stencil)
                    c = tuple(rng.uniform(0, 7 * h, size=2))
                    r = rng.uniform(h, 5 * h)
                    rep = split_perimeter(D, r, c)
                    total = perimeter(D, RegionMask.whole(D.grid))
                    ball = RegionMask.ball(D.grid, c, r)
                    assert rep.per_inner == perimeter(D, ball)
                    assert rep.per_outer == perimeter(D, ball.invert())
                    assert rep.per_total == total
                    assert (rep.per_inner + rep.per_outer
                            + rep.per_interface == total)

    def test_parts_nonnegative(self, rng):
        D = random_set(rng, (8, 8))
        rep = split_perimeter(D, 2.5, (3.5, 3.5))
        assert rep.per_inner >= 0 and rep.per_outer >= 0
        assert rep.per_interface >= 0

    def test_ball_outside_grid(self, rng):
        D = random_set(rng, (8, 8))
        with pytest.raises(UsageError):
            split_perimeter(D, 1.0, (100.0, 100.0))
        with pytest.raises(UsageError):
            split_perimeter(D, -1.0, (3.5, 3.5))


class TestBoundaryFaces:
    def test_single_cell(self):
        g = GridGeometry((3, 3), h=2.0)
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        mids, axes = boundary_faces(CellSet(g, bits))
        assert len(mids) == 4
        assert sorted(axes.tolist()) == [0, 0, 1, 1]
        center = np.array([2.0, 2.0])
        assert np.allclose(np.abs(mids - center).max(axis=1), 1.0)

    def test_full_grid_has_none(self):
        g = GridGeometry((4, 4))
        mids, axes = boundary_faces(CellSet.full(g))
        assert len(mids) == 0 and len(axes) == 0


class TestSerialization:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_rle_round_trip(self, flat):
        arr = np.array(flat, dtype=bool)
        text = rle_encode(arr)
        assert np.array_equal(rle_decode(text, len(arr)), arr)

    def test_rle_size_mismatch(self):
        with pytest.raises(UsageError):
            rle_decode("30 21", 6)

    @pytest.mark.parametrize("size", [-1, 2**24 + 1, 1.5, True],
                             ids=["-1", "2^24+1", "1.5", "True"])
    def test_rle_size_is_checked_before_any_allocation(self, size):
        # Refused by name, with no array sized by the unchecked number:
        # 2^24 + 1 cells would take 16.8 MB.
        def decode():
            with pytest.raises(UsageError, match="cell count"):
                rle_decode("", size)

        assert traced_peak(decode) < 0.1

    def test_rle_malformed(self):
        with pytest.raises(UsageError):
            rle_decode("3x", 3)
        with pytest.raises(UsageError, match="bad run token"):
            rle_decode("4z1", 5)

    def test_text_round_trip(self, rng):
        for dims, h, stencil in [((5, 7), 1.0, "cc"), ((5, 7), 1 / 3, "face"),
                                 ((3, 4, 2), 0.125, "cc")]:
            D = random_set(rng, dims, h=h, stencil=stencil)
            back = cellset_from_text(cellset_to_text(D))
            assert back == D
            assert back.grid.h == h

    def test_file_round_trip(self, rng, tmp_path):
        D = random_set(rng, (6, 6), h=0.5)
        path = tmp_path / "set.csl"
        atomic_write(path, cellset_to_text(D))
        assert read_cellset(path) == D

    def test_origin_not_in_format(self):
        g = GridGeometry((3, 3), origin=(9.0, 9.0))
        D = CellSet.full(g)
        back = cellset_from_text(cellset_to_text(D))
        assert back == D
        assert back.grid.origin == (0.0, 0.0)

    def test_bad_header(self):
        with pytest.raises(UsageError):
            cellset_from_text("wrong v1 d=2 ext=2,2 h=1.0 stencil=cc\n40\n")
        with pytest.raises(UsageError):
            cellset_from_text("cmcgrid v1 d=3 ext=2,2 h=1.0 stencil=cc\n40\n")
        with pytest.raises(UsageError):
            cellset_from_text("cmcgrid v1 d=2 ext=2,2 h=zz stencil=cc\n40\n")

    @pytest.mark.parametrize("ext", ["2,,3", ",2", "2,"])
    def test_empty_ext_field_is_bad_header(self, ext):
        with pytest.raises(UsageError, match="bad cell set header"):
            cellset_from_text(f"cmcgrid v1 d=2 ext={ext} h=1.0 stencil=cc\n"
                              "60\n")
