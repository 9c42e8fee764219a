import json

import numpy as np
import pytest

from lvpat.errors import ParameterError
from lvpat.phantoms import (EllipseIndicator, GridSpec, SquareIndicator,
                            WeightedSum, distance_to_support, eval_phantom,
                            phantom_from_dict, phantom_to_dict, rasterize,
                            training_partition)

from conftest import BOX, TEST_PHANTOM, random_mix

K_WIDTH = 1.75
K_HEIGHT = 0.8752


class TestTrainingPartition:

    def test_first_cell_of_8x4(self):
        cells = training_partition(BOX, 8, 4)
        assert len(cells) == 32
        f1 = cells[0]
        assert f1.x_lo == pytest.approx(-1.25, abs=1e-14)
        assert f1.x_hi == pytest.approx(-1.25 + K_WIDTH / 8, abs=1e-14)
        assert f1.y_lo == pytest.approx(-0.7, abs=1e-14)
        assert f1.y_hi == pytest.approx(-0.7 + K_HEIGHT / 4, abs=1e-14)

    def test_numbering_bottom_to_top_then_right(self):
        cells = training_partition(BOX, 8, 4)
        # second cell sits directly above the first
        assert cells[1].x_lo == cells[0].x_lo
        assert cells[1].y_lo == cells[0].y_hi
        # fifth cell starts the next column at the bottom
        assert cells[4].x_lo == cells[0].x_hi
        assert cells[4].y_lo == cells[0].y_lo

    def test_single_cell(self):
        (cell,) = training_partition(BOX, 1, 1)
        assert (cell.x_lo, cell.x_hi, cell.y_lo, cell.y_hi) == BOX

    def test_areas_tile_exactly(self):
        cells = training_partition(BOX, 16, 8)
        total = sum((c.x_hi - c.x_lo) * (c.y_hi - c.y_lo) for c in cells)
        want = K_WIDTH * K_HEIGHT
        assert abs(total - want) / want <= 1e-12

    def test_every_point_in_exactly_one_cell(self):
        cells = training_partition(BOX, 8, 4)
        rng = np.random.default_rng(2)
        pts = np.stack([rng.uniform(BOX[0], BOX[1], 500),
                        rng.uniform(BOX[2], BOX[3], 500)], axis=-1)
        hits = sum(eval_phantom(c, pts) for c in cells)
        assert np.all(hits == 1.0)
        # interior shared edges as well
        edge_pts = np.array([[cells[0].x_hi, -0.5], [-1.0, cells[0].y_hi]])
        hits = sum(eval_phantom(c, edge_pts) for c in cells)
        assert np.all(hits == 1.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ParameterError):
            training_partition((0.0, 0.0, 0.0, 1.0), 2, 2)
        with pytest.raises(ParameterError):
            training_partition(BOX, 0, 4)


class TestEvaluation:

    def test_half_open_square(self):
        sq = SquareIndicator(0.0, 1.0, 0.0, 1.0)
        assert eval_phantom(sq, np.array([0.0, 0.0])) == 1.0
        assert eval_phantom(sq, np.array([1.0, 1.0])) == 0.0
        assert eval_phantom(sq, np.array([0.0, 0.5])) == 1.0
        assert eval_phantom(sq, np.array([1.0, 0.5])) == 0.0

    def test_reference_phantom_center(self):
        assert eval_phantom(TEST_PHANTOM, np.array([-0.59375, -0.2624])) == 1.0

    def test_reference_phantom_inside_training_box(self):
        x_lo, x_hi, y_lo, y_hi = TEST_PHANTOM.bounding_box()
        assert x_lo > BOX[0] and x_hi < BOX[1]
        assert y_lo > BOX[2] and y_hi < BOX[3]

    def test_weighted_sum_cancellation(self):
        sq = SquareIndicator(0.0, 1.0, 0.0, 1.0)
        p = WeightedSum(((2.0, sq), (-1.0, sq)))
        assert eval_phantom(p, np.array([0.5, 0.5])) == 1.0

    def test_weighted_sum_linear_in_coefficients(self):
        rng = np.random.default_rng(0)
        mix = random_mix(rng)
        pts = rng.uniform(-1.5, 1.5, size=(100, 2))
        direct = eval_phantom(mix, pts)
        by_terms = sum(c * eval_phantom(q, pts) for c, q in mix.terms)
        assert np.array_equal(direct, by_terms)

    def test_nested_sums_flatten(self):
        sq = SquareIndicator(0.0, 1.0, 0.0, 1.0)
        inner = WeightedSum(((2.0, sq),))
        outer = WeightedSum(((0.5, inner), (1.0, sq)))
        assert all(not isinstance(q, WeightedSum) for _, q in outer.terms)
        assert eval_phantom(outer, np.array([0.5, 0.5])) == 2.0

    def test_distance_to_support(self):
        sq = SquareIndicator(0.0, 1.0, 0.0, 1.0)
        assert distance_to_support(sq, (0.5, 0.5)) == 0.0
        assert distance_to_support(sq, (2.0, 0.5)) == pytest.approx(1.0)
        assert distance_to_support(sq, (2.0, 2.0)) == pytest.approx(np.sqrt(2))
        disc = EllipseIndicator((0.0, 0.0), 1.0, 1.0, 0.0)
        assert distance_to_support(disc, (3.0, 0.0)) == pytest.approx(2.0, abs=1e-6)
        assert distance_to_support(disc, (0.1, 0.2)) == 0.0


class TestRasterize:

    def test_reference_grid_shape_and_mask(self, domain):
        grid = GridSpec(origin=(-2.2, -2.2), h=11 / 750, nx=301, ny=301,
                        domain=domain)
        field = rasterize(TEST_PHANTOM, grid)
        assert field.values.shape == (301, 301)
        pts = grid.points()
        assert pts[0, 0, 0] == pytest.approx(-2.2)
        assert pts[-1, -1, 1] == pytest.approx(2.2)
        assert not field.domain_mask[0, 0]
        assert field.domain_mask[150, 150]
        # mask area approximates the ellipse area
        cell_area = grid.h ** 2
        assert field.domain_mask.sum() * cell_area == pytest.approx(
            np.pi * 2.0 * 1.0, rel=0.01)

    def test_grid_arrays_are_read_only_and_computed_once(self, domain):
        grid = GridSpec(origin=(-2.2, -2.2), h=4.4 / 60, nx=61, ny=61,
                        domain=domain)
        twin = GridSpec(origin=(-2.2, -2.2), h=4.4 / 60, nx=61, ny=61,
                        domain=domain)
        for arr, again in ((grid.points(), grid.points()),
                           (grid.mask(), grid.mask())):
            assert again is arr
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 0
        assert rasterize(TEST_PHANTOM, grid).domain_mask is grid.mask()
        # hash and equality stay on the fields, cached arrays or not
        assert grid == twin and hash(grid) == hash(twin)
        assert np.array_equal(twin.mask(), grid.mask())

    def test_zero_phantom(self, small_grid):
        zero = WeightedSum(())
        field = rasterize(zero, small_grid)
        assert np.all(field.values == 0.0)

    def test_box_mass_within_boundary_band(self, small_grid):
        box = SquareIndicator(*BOX)
        field = rasterize(box, small_grid)
        mass = field.values.sum() * small_grid.h ** 2
        area = K_WIDTH * K_HEIGHT
        perim = 2 * (K_WIDTH + K_HEIGHT)
        assert abs(mass - area) <= 2 * perim * small_grid.h

    def test_commutes_with_weighted_sum(self, small_grid):
        rng = np.random.default_rng(4)
        mix = random_mix(rng)
        direct = rasterize(mix, small_grid).values
        combined = sum(c * rasterize(q, small_grid).values for c, q in mix.terms)
        scale = np.abs(combined).max() or 1.0
        assert np.abs(direct - combined).max() / scale <= 1e-13


class TestSerialization:

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for p in [SquareIndicator(0, 1, 2, 3.5), TEST_PHANTOM, random_mix(rng)]:
            again = phantom_from_dict(phantom_to_dict(p))
            pts = rng.uniform(-2, 2, size=(50, 2))
            assert np.array_equal(eval_phantom(p, pts), eval_phantom(again, pts))

    def test_unknown_type_rejected(self):
        with pytest.raises(ParameterError):
            phantom_from_dict({"type": "blob"})

    @pytest.mark.parametrize("spec", [
        {"type": "square", "x_lo": "a", "x_hi": 1, "y_lo": 0, "y_hi": 1},
        {"type": "ellipse", "center": [0, 0], "semi_a": "0.3", "semi_b": 0.2},
        {"type": "ellipse", "center": [0], "semi_a": 0.3, "semi_b": 0.2},
        {"type": "ellipse", "center": [0, 0], "semi_a": 0.3, "semi_b": 0.2,
         "rotation": None},
        [1],
        {"type": "sum", "terms": [[1.0]]},
        {"type": "sum", "terms": [["1", {"type": "square", "x_lo": 0,
                                         "x_hi": 1, "y_lo": 0, "y_hi": 1}]]},
        {"type": "sum", "terms": 5},
    ], ids=["text-edge", "text-semi-axis", "one-center-coordinate",
            "null-rotation", "list-spec", "term-without-spec",
            "text-coefficient", "number-terms"])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ParameterError):
            phantom_from_dict(spec)

    @pytest.mark.parametrize("spec, key", [
        ({"type": "square", "x_lo": 0, "x_hi": 1, "y_lo": 0, "y_hi": 1,
          "y_high": 2}, "y_high"),
        ({"type": "ellipse", "center": [0, 0], "semi_a": 0.3, "semi_b": 0.2,
          "rotaton": 0.4}, "rotaton"),
        ({"type": "sum", "terms": [], "weights": [1.0]}, "weights"),
        ({"type": "sum", "terms": [[1.0, {"type": "square", "x_lo": 0,
                                          "x_hi": 1, "y_lo": 0, "y_hi": 1,
                                          "note": "cell"}]]}, "note"),
    ], ids=["square", "ellipse", "sum", "sum-term"])
    def test_unknown_spec_key_rejected(self, spec, key):
        # a misspelled optional key would otherwise fall back to its default
        with pytest.raises(ParameterError, match=repr(key)):
            phantom_from_dict(spec)


class TestNonFinite:

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("edge", range(4))
    def test_square_edges(self, edge, bad):
        edges = [-0.5, 0.5, -0.25, 0.75]
        edges[edge] = bad
        with pytest.raises(ParameterError, match="finite"):
            SquareIndicator(*edges)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["center_x", "center_y", "semi_a",
                                       "semi_b", "rotation"])
    def test_ellipse_values(self, field, bad):
        values = {"center_x": 0.1, "center_y": -0.2, "semi_a": 0.3,
                  "semi_b": 0.2, "rotation": 0.4}
        values[field] = bad
        with pytest.raises(ParameterError, match="finite"):
            EllipseIndicator((values["center_x"], values["center_y"]),
                             values["semi_a"], values["semi_b"],
                             values["rotation"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sum_coefficients(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            WeightedSum(((1.0, TEST_PHANTOM), (bad, SquareIndicator(0, 1, 0, 1))))

    def test_nested_sum_coefficient_overflow(self):
        # finite factors whose product is not: the flat coefficient is inf
        inner = WeightedSum(((1e200, TEST_PHANTOM),))
        with pytest.raises(ParameterError, match="finite"):
            WeightedSum(((1e200, inner),))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_spec_coefficient(self, literal):
        spec = json.loads('{"type": "sum", "terms": [[%s, {"type": "square", '
                          '"x_lo": 0, "x_hi": 1, "y_lo": 0, "y_hi": 1}]]}'
                          % literal)
        with pytest.raises(ParameterError, match="finite"):
            phantom_from_dict(spec)
