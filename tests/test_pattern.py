import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fescycle import biomech as bm
from fescycle import pattern as pt
from fescycle.errors import DegenerateInterval, InconsistentConfig, NonConvergentPrevAction

TWO_MUSCLES = (bm.QUADRICEPS, bm.HAMSTRINGS)


def simple_pattern(quad=( (30.0, 150.0), ), ham=( (210.0, 330.0), )):
    return pt.StimulationPattern(TWO_MUSCLES, (tuple(quad), tuple(ham)))


class TestIntervalBasics:
    def test_arc_plain_and_wrapping(self):
        assert pt.interval_arc((30.0, 150.0)) == 120.0
        assert pt.interval_arc((300.0, 20.0)) == 80.0
        assert pt.interval_arc(pt.FULL_CIRCLE) == 360.0

    def test_membership(self):
        assert pt.interval_contains((30.0, 150.0), 30.0)
        assert not pt.interval_contains((30.0, 150.0), 150.0)
        assert pt.interval_contains((300.0, 20.0), 350.0)
        assert pt.interval_contains((300.0, 20.0), 5.0)
        assert not pt.interval_contains((300.0, 20.0), 100.0)

    def test_validation_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            pt.StimulationPattern(TWO_MUSCLES, (((10.0, 100.0), (50.0, 120.0)), ()))

    def test_validation_rejects_oversized(self):
        with pytest.raises(ValueError):
            pt.StimulationPattern(TWO_MUSCLES, (((0.0, 200.0), (200.0, 170.0)), ()))


class TestMirror:
    def test_plain_interval(self):
        p = simple_pattern()
        m = pt.mirror_pattern(p)
        assert m.intervals[0] == ((210.0, 330.0),)

    def test_wraparound_interval(self):
        p = simple_pattern(quad=((300.0, 20.0),))
        m = pt.mirror_pattern(p)
        assert m.intervals[0] == ((120.0, 200.0),)

    def test_involution(self):
        p = simple_pattern(quad=((30.0, 150.0), (200.0, 220.0)), ham=((300.0, 20.0),))
        assert pt.mirror_pattern(pt.mirror_pattern(p)) == p

    @given(
        on=st.integers(0, 359),
        width=st.integers(1, 200),
    )
    def test_involution_property(self, on, width):
        off = (on + width) % 360
        p = pt.StimulationPattern(("Quadriceps",), (((float(on), float(off or 360)),),))
        assert pt.mirror_pattern(pt.mirror_pattern(p)) == p

    def test_full_circle_is_fixed_point(self):
        p = pt.StimulationPattern(TWO_MUSCLES, ((pt.FULL_CIRCLE,), ()))
        assert pt.mirror_pattern(p).intervals[0] == (pt.FULL_CIRCLE,)


class TestPerturb:
    def test_rotate(self):
        p = simple_pattern()
        out = pt.perturb_pattern(p, pt.PatternPerturbation(pt.ROTATE, 10.0))
        assert out.intervals[0] == ((40.0, 160.0),)
        assert out.intervals[1] == ((220.0, 340.0),)

    def test_shrink(self):
        p = simple_pattern()
        out = pt.perturb_pattern(p, pt.PatternPerturbation(pt.SHRINK, 20.0))
        assert out.intervals[0] == ((40.0, 140.0),)

    def test_extend(self):
        p = simple_pattern()
        out = pt.perturb_pattern(p, pt.PatternPerturbation(pt.EXTEND, 20.0))
        assert out.intervals[0] == ((20.0, 160.0),)

    def test_shrink_that_empties_interval_raises(self):
        # a 40-degree arc shrunk by 45 degrees would invert
        p = simple_pattern(quad=((30.0, 70.0),))
        with pytest.raises(DegenerateInterval):
            pt.perturb_pattern(p, pt.PatternPerturbation(pt.SHRINK, 45.0))

    def test_shrink_to_exactly_zero_raises(self):
        p = simple_pattern(quad=((30.0, 70.0),))
        with pytest.raises(DegenerateInterval):
            pt.perturb_pattern(p, pt.PatternPerturbation(pt.SHRINK, 40.0))

    def test_magnitude_rail(self):
        with pytest.raises(ValueError):
            pt.PatternPerturbation(pt.ROTATE, 46.0)

    def test_rotation_wraps(self):
        p = simple_pattern(quad=((340.0, 20.0),))
        out = pt.perturb_pattern(p, pt.PatternPerturbation(pt.ROTATE, 30.0))
        assert out.intervals[0] == ((10.0, 50.0),)


class TestPatternControl:
    def test_right_inside_interval(self):
        p = simple_pattern()
        u = pt.pattern_control(p, math.radians(90.0), bm.RIGHT)
        np.testing.assert_array_equal(u, [1.0, 0.0])

    def test_left_uses_rotated_angle(self):
        p = simple_pattern()
        u = pt.pattern_control(p, math.radians(270.0), bm.LEFT)
        np.testing.assert_array_equal(u, [1.0, 0.0])

    def test_empty_pattern_never_stimulates(self):
        p = pt.empty_pattern(TWO_MUSCLES)
        for deg in range(0, 360, 7):
            np.testing.assert_array_equal(
                pt.pattern_control(p, math.radians(deg), bm.RIGHT), [0.0, 0.0]
            )

    def test_mirror_control_identity_on_grid(self):
        p = simple_pattern(quad=((30.0, 150.0),), ham=((300.0, 40.0),))
        m = pt.mirror_pattern(p)
        for deg in range(360):
            theta = math.radians(deg)
            lhs = pt.pattern_control(m, theta, bm.RIGHT)
            rhs = pt.pattern_control(p, math.radians(deg - 180.0), bm.RIGHT)
            np.testing.assert_array_equal(lhs, rhs)

    def test_left_right_mirror_equivalence(self):
        p = simple_pattern()
        for deg in range(360):
            theta = math.radians(deg)
            np.testing.assert_array_equal(
                pt.pattern_control(p, theta, bm.LEFT),
                pt.pattern_control(pt.mirror_pattern(p), theta, bm.RIGHT),
            )


class SyntheticPolicy:
    """Deterministic policy with a known square-ish ON window per muscle."""

    def __init__(self, windows, sharpness=60.0):
        self.windows = windows
        self.sharpness = sharpness

    def __call__(self, obs):
        theta = math.atan2(obs[0], obs[1])  # sin, cos
        deg = math.degrees(theta) % 360.0
        out = []
        for centre, half_width in self.windows:
            delta = math.radians(deg - centre)
            level = math.cos(delta) - math.cos(math.radians(half_width))
            out.append(1.0 / (1.0 + math.exp(-self.sharpness * level)))
        return np.array(out)


class TestExtractPattern:
    def test_constant_one_gives_full_circle(self, nominal_2m):
        policy = lambda obs: np.ones(2)
        pat = pt.extract_pattern(policy, nominal_2m)
        assert pat.intervals == ((pt.FULL_CIRCLE,), (pt.FULL_CIRCLE,))

    def test_constant_below_threshold_gives_empty(self, nominal_2m):
        policy = lambda obs: np.full(2, 0.4)
        pat = pt.extract_pattern(policy, nominal_2m)
        assert pat.intervals == ((), ())

    def test_square_wave_recovered_within_resolution(self, nominal_2m):
        # crosses 0.5 exactly at 30 and 150 degrees
        policy = SyntheticPolicy([(90.0, 60.0), (270.0, 45.0)])
        pat = pt.extract_pattern(policy, nominal_2m, resolution_deg=1.0)
        (quad,), (ham,) = pat.intervals
        assert quad[0] == pytest.approx(30.0, abs=1.0 + 1e-9)
        assert quad[1] == pytest.approx(150.0, abs=1.0 + 1e-9)
        assert ham[0] == pytest.approx(225.0, abs=1.0 + 1e-9)
        assert ham[1] == pytest.approx(315.0, abs=1.0 + 1e-9)

    def test_small_islands_removed_and_gaps_merged(self, nominal_2m):
        def policy(obs):
            deg = math.degrees(math.atan2(obs[0], obs[1])) % 360.0
            on = 40.0 <= deg < 160.0 and not (80.0 <= deg < 83.0)  # 3 deg notch
            island = 200.0 <= deg < 203.0  # 3 deg blip
            return np.array([1.0 if (on or island) else 0.0, 0.0])

        pat = pt.extract_pattern(policy, nominal_2m, resolution_deg=1.0)
        assert len(pat.intervals[0]) == 1
        on, off = pat.intervals[0][0]
        assert on == pytest.approx(40.0, abs=1.0)
        assert off == pytest.approx(160.0, abs=1.0)

    def test_prev_action_feedback_reaches_fixed_point(self, nominal_2m):
        # policy echoes the crank window but nudged by prev action; converges
        base = SyntheticPolicy([(90.0, 60.0), (270.0, 45.0)])

        def policy(obs):
            out = base(obs)
            return np.clip(out + 0.02 * (obs[3:] - 0.5), 0.0, 1.0)

        pat = pt.extract_pattern(policy, nominal_2m)
        assert len(pat.intervals[0]) == 1

    def test_non_periodic_feedback_raises(self, nominal_2m):
        # prev-action feedback walks an irrational-step cycle, so consecutive
        # laps never agree
        def policy(obs):
            return np.array([(float(obs[3]) + 0.37) % 1.0, 0.0])

        with pytest.raises(NonConvergentPrevAction):
            pt.extract_pattern(policy, nominal_2m)

    def test_bad_resolution_rejected(self, nominal_2m):
        with pytest.raises(ValueError):
            pt.extract_pattern(lambda obs: np.ones(2), nominal_2m, resolution_deg=7.0)

    def test_wraparound_window(self, nominal_2m):
        policy = SyntheticPolicy([(0.0, 45.0), (180.0, 30.0)])
        pat = pt.extract_pattern(policy, nominal_2m)
        (quad,), _ = pat.intervals
        on, off = quad
        assert on == pytest.approx(315.0, abs=1.0 + 1e-9)
        assert off == pytest.approx(45.0, abs=1.0 + 1e-9)


class TestPatternMetrics:
    def test_identical_patterns(self):
        p = simple_pattern()
        report = pt.pattern_metrics(p, p)
        quad = report[bm.QUADRICEPS]
        assert quad["overlap_arc"] == 120.0
        assert quad["on_offset_deg"] == 0.0

    def test_disjoint_patterns(self):
        p = simple_pattern(quad=((0.0, 90.0),), ham=())
        q = simple_pattern(quad=((180.0, 270.0),), ham=())
        report = pt.pattern_metrics(p, q)
        assert report[bm.QUADRICEPS]["overlap_arc"] == 0.0

    def test_partial_overlap(self):
        p = simple_pattern(quad=((30.0, 150.0),), ham=())
        q = simple_pattern(quad=((60.0, 180.0),), ham=())
        report = pt.pattern_metrics(p, q)
        assert report[bm.QUADRICEPS]["overlap_arc"] == 90.0
        assert report[bm.QUADRICEPS]["on_offset_deg"] == 30.0

    def test_wraparound_overlap(self):
        p = simple_pattern(quad=((300.0, 60.0),), ham=())
        q = simple_pattern(quad=((350.0, 90.0),), ham=())
        report = pt.pattern_metrics(p, q)
        assert report[bm.QUADRICEPS]["overlap_arc"] == 70.0

    def test_muscle_set_mismatch(self):
        p = simple_pattern()
        q = pt.StimulationPattern((bm.QUADRICEPS,), (((30.0, 150.0),),))
        with pytest.raises(InconsistentConfig):
            pt.pattern_metrics(p, q)


class TestSerialization:
    def test_round_trip_byte_identical(self):
        p = simple_pattern(quad=((31.0, 149.5),), ham=((300.0, 20.0),))
        text1 = pt.pattern_to_json(p)
        again = pt.pattern_from_json(text1)
        assert pt.pattern_to_json(again) == text1
        assert again == p

    def test_full_circle_round_trip(self):
        p = pt.StimulationPattern(TWO_MUSCLES, ((pt.FULL_CIRCLE,), ()), "manual")
        assert pt.pattern_from_json(pt.pattern_to_json(p)) == p

    def test_svg_contains_arcs_and_labels(self):
        p = simple_pattern()
        svg = pt.pattern_to_svg(p)
        assert svg.startswith("<svg")
        assert "Quadriceps" in svg
        assert "<path" in svg
        assert "0&#176;" in svg

    def test_svg_full_circle_has_no_path_but_ring(self):
        p = pt.StimulationPattern(TWO_MUSCLES, ((pt.FULL_CIRCLE,), ()), "manual")
        svg = pt.pattern_to_svg(p)
        assert "<path" in svg
