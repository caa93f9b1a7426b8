"""Membership math, variable construction, fuzzification, valence."""

import random

import numpy as np
import pytest

from carebot.errors import ValidationError
from carebot.fuzzy import (EMOTION_LABELS, TRAPEZOIDAL, TRIANGULAR,
                           LinguisticVariable, MembershipFunction,
                           default_emotion_variable,
                           default_head_angle_variable,
                           default_input_variables, default_sound_variable,
                           fuzzify, membership_degree, membership_grid,
                           three_term_variable, trapezoid, triangle,
                           valence_score)
from oracles import piecewise_membership


class TestMembershipFunctions:
    def test_triangle_matches_oracle_at_random_points(self):
        rng = random.Random(101)
        for _ in range(200):
            a = rng.uniform(-5, 5)
            b = a + rng.uniform(0.01, 3)
            c = b + rng.uniform(0.01, 3)
            mf = triangle(a, b, c)
            for _ in range(10):
                x = rng.uniform(a - 1, c + 1)
                expected = piecewise_membership("triangle", (a, b, c), x)
                assert membership_degree(mf, x) == pytest.approx(expected, abs=1e-12)

    def test_trapezoid_matches_oracle_at_random_points(self):
        rng = random.Random(102)
        for _ in range(200):
            a = rng.uniform(-5, 5)
            b = a + rng.uniform(0.01, 2)
            c = b + rng.uniform(0.01, 2)
            d = c + rng.uniform(0.01, 2)
            mf = trapezoid(a, b, c, d)
            for _ in range(10):
                x = rng.uniform(a - 1, d + 1)
                expected = piecewise_membership("trapezoid", (a, b, c, d), x)
                assert membership_degree(mf, x) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_left_edge_is_a_step(self):
        mf = trapezoid(0.0, 0.0, 0.5, 1.0)
        assert membership_degree(mf, 0.0) == 1.0
        assert membership_degree(mf, -0.001) == 0.0

    def test_degenerate_right_edge_is_a_step(self):
        mf = trapezoid(0.0, 0.5, 1.0, 1.0)
        assert membership_degree(mf, 1.0) == 1.0
        assert membership_degree(mf, 1.001) == 0.0

    def test_fully_degenerate_spike(self):
        mf = triangle(0.5, 0.5, 0.5)
        assert membership_degree(mf, 0.5) == 1.0
        assert membership_degree(mf, 0.499) == 0.0
        assert membership_degree(mf, 0.501) == 0.0

    def test_grid_agrees_with_scalar(self):
        rng = random.Random(103)
        shapes = [triangle(-1, 0, 1), trapezoid(0, 1, 2, 3),
                  trapezoid(0, 0, 0, 1), trapezoid(0, 1, 1, 1),
                  triangle(0, 0, 1), triangle(0, 1, 1)]
        xs = np.array(sorted(rng.uniform(-2, 4) for _ in range(500)))
        for mf in shapes:
            grid = membership_grid(mf, xs)
            for x, g in zip(xs, grid):
                assert g == pytest.approx(membership_degree(mf, float(x)), abs=1e-12)

    def test_rejects_descending_params(self):
        with pytest.raises(ValidationError):
            triangle(1.0, 0.5, 2.0)
        with pytest.raises(ValidationError):
            trapezoid(0.0, 2.0, 1.0, 3.0)

    def test_rejects_non_finite_params(self):
        with pytest.raises(ValidationError):
            triangle(0.0, float("nan"), 1.0)
        with pytest.raises(ValidationError):
            trapezoid(0.0, 1.0, 2.0, float("inf"))

    def test_rejects_wrong_param_count(self):
        with pytest.raises(ValidationError, match="breakpoints"):
            MembershipFunction(shape=TRIANGULAR, params=(0.0, 1.0))
        with pytest.raises(ValidationError, match="breakpoints"):
            MembershipFunction(shape=TRAPEZOIDAL, params=(0.0, 1.0, 2.0))


class TestLinguisticVariables:
    def test_default_head_angle_anchors(self):
        var = default_head_angle_variable()
        assert fuzzify(var, 0.0).degrees["normal"] == 1.0
        assert fuzzify(var, 25.0).degrees["low"] == 1.0
        assert fuzzify(var, 45.0).degrees["high"] == 1.0

    def test_default_sound_anchors(self):
        var = default_sound_variable()
        assert fuzzify(var, 0.1).degrees["low"] == 1.0
        assert fuzzify(var, 0.5).degrees["normal"] == 1.0
        assert fuzzify(var, 0.9).degrees["high"] == 1.0

    def test_default_emotion_anchors(self):
        var = default_emotion_variable()
        assert fuzzify(var, -1.0).degrees["negative"] == 1.0
        assert fuzzify(var, 0.0).degrees["neutral"] == 1.0
        assert fuzzify(var, 1.0).degrees["positive"] == 1.0

    def test_every_default_variable_covers_its_universe(self):
        for var in default_input_variables().values():
            lo, hi = var.universe
            for x in np.linspace(lo, hi, 10_000):
                degrees = fuzzify(var, float(x)).degrees
                assert max(degrees.values()) > 0.0, f"{var.name} uncovered at {x}"

    def test_coverage_gap_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            LinguisticVariable(
                name="gappy",
                universe=(0.0, 1.0),
                terms={"left": triangle(0.0, 0.1, 0.2), "right": triangle(0.8, 0.9, 1.0)},
            )

    def test_coverage_gap_between_samples_rejected(self):
        # Every term is 0 on the open interval (0.5, 0.50001), which falls
        # between two points of a 2,001-point sample grid over [0, 1].
        with pytest.raises(ValidationError, match=r"no term covers x=0\.500005$"):
            LinguisticVariable(
                name="split",
                universe=(0.0, 1.0),
                terms={"low": trapezoid(0.0, 0.0, 0.5, 0.5),
                       "high": trapezoid(0.50001, 0.50001, 1.0, 1.0)},
            )

    @pytest.mark.parametrize("terms, gap", [
        # Both edges fall to 0 at 0.5: the point itself is a dead zone.
        ({"low": trapezoid(0.0, 0.0, 0.3, 0.5), "high": trapezoid(0.5, 0.7, 1.0, 1.0)}, "0.5"),
        # A triangle is 0 at its feet, so it leaves the universe bounds bare.
        ({"mid": triangle(0.0, 0.5, 1.0)}, "0"),
        ({"low": trapezoid(0.0, 0.0, 0.5, 1.0)}, "1"),
    ])
    def test_coverage_gap_at_an_open_end_rejected(self, terms, gap):
        with pytest.raises(ValidationError, match=rf"no term covers x={gap}$"):
            LinguisticVariable(name="bare", universe=(0.0, 1.0), terms=terms)

    @pytest.mark.parametrize("terms", [
        # A closed end covers the point where the next term starts from 0.
        {"low": trapezoid(0.0, 0.0, 0.5, 0.5), "high": trapezoid(0.5, 0.7, 1.0, 1.0)},
        # A vertical edge is 1 at the breakpoint itself.
        {"low": triangle(0.0, 0.0, 0.5), "high": trapezoid(0.2, 0.5, 0.5, 1.0),
         "top": triangle(0.9, 1.0, 1.0)},
        # One point term is enough to close a single-point gap.
        {"low": trapezoid(0.0, 0.0, 0.3, 0.5), "at": trapezoid(0.5, 0.5, 0.5, 0.5),
         "high": trapezoid(0.5, 0.7, 1.0, 1.0)},
    ])
    def test_exact_cover_accepted(self, terms):
        var = LinguisticVariable(name="tight", universe=(0.0, 1.0), terms=terms)
        for x in (0.0, 0.5, 1.0, *np.linspace(0.0, 1.0, 1001)):
            assert max(fuzzify(var, float(x)).degrees.values()) > 0.0

    def test_support_outside_universe_rejected(self):
        with pytest.raises(ValidationError):
            LinguisticVariable(
                name="overhang",
                universe=(0.0, 1.0),
                terms={"wide": trapezoid(-0.5, 0.0, 1.0, 1.5)},
            )

    def test_three_term_variable_layout(self):
        var = three_term_variable("v", (0.0, 10.0), (2.0, 5.0, 8.0),
                                  ("small", "mid", "big"))
        assert var.term_names == ("small", "mid", "big")
        assert membership_degree(var.term("small"), 0.0) == 1.0
        assert membership_degree(var.term("mid"), 5.0) == 1.0
        assert membership_degree(var.term("big"), 10.0) == 1.0


class TestFuzzify:
    def test_out_of_universe_clamps_and_flags(self):
        var = default_sound_variable()
        below = fuzzify(var, -0.2)
        above = fuzzify(var, 1.7)
        assert below.clamped and above.clamped
        assert below.degrees == fuzzify(var, 0.0).degrees
        assert above.degrees == fuzzify(var, 1.0).degrees

    def test_in_universe_not_flagged(self):
        var = default_sound_variable()
        assert not fuzzify(var, 0.3).clamped

    def test_degrees_cover_all_terms(self):
        var = default_head_angle_variable()
        assert set(fuzzify(var, 30.0).degrees) == set(var.term_names)


class TestValence:
    def test_order_is_fixed(self):
        assert EMOTION_LABELS == ("anger", "happiness", "sadness", "surprise",
                                  "disgust", "fear")

    def test_pure_happiness_is_plus_one(self):
        probs = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert valence_score(probs) == 1.0

    def test_pure_anger_is_minus_one(self):
        probs = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert valence_score(probs) == -1.0

    def test_equals_twice_happiness_minus_one(self):
        # With probabilities summing to 1, the score collapses to 2p(h) - 1.
        rng = random.Random(104)
        for _ in range(300):
            raw = [rng.random() for _ in range(6)]
            total = sum(raw)
            probs = tuple(v / total for v in raw)
            score = valence_score(probs)
            assert score == pytest.approx(2 * probs[1] - 1, abs=1e-9)
            assert -1.0 <= score <= 1.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            valence_score((0.5, 0.1, 0.1, 0.1, 0.1, 0.2))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            valence_score((-0.1, 0.5, 0.2, 0.2, 0.1, 0.1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            valence_score((0.5, 0.5))
