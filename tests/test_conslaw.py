import math

import numpy as np
import pytest

from charmax.conslaw import (ConservationLaw, VerticalTangentError,
                             blowup_time, envelope, propagation_speed,
                             singular_time)
from charmax.expr import EvalDomainError, evaluate, parse


def law(a_text, h_text):
    return ConservationLaw.from_parts(parse(a_text, n=1), parse(h_text, n=1))


RECIP = law("u", "1/(x+1)")
RAMP = law("u", "-2*x")


def intersection_oracle(cl, s, delta=1e-5):
    """Crossing time of the characteristic lines through s and s + delta,
    averaged over both offsets: the limit as delta -> 0 is the singular
    time, independently of any derivative formula."""
    def crossing(d):
        g0, g1 = cl.g_at(s), cl.g_at(s + d)
        if g0 == g1:
            return math.inf
        return d / (g0 - g1)

    return 0.5 * (crossing(delta) + crossing(-delta))


class TestConstruction:
    def test_composition(self):
        assert RECIP.g == parse("1/(x+1)", n=1)  # a = u, g = h
        gp = RECIP.g_prime_at(0.0)
        assert abs(gp + 1.0) <= 1e-12

    def test_speed_must_use_u_only(self):
        with pytest.raises(ValueError, match="u only"):
            ConservationLaw.from_parts(parse("u + x", n=1), parse("x", n=1))

    def test_data_must_use_x_only(self):
        with pytest.raises(ValueError, match="x only"):
            ConservationLaw.from_parts(parse("u", n=1), parse("t", n=1))


class TestCharacteristicLine:
    # the characteristic from s is x = s + g(s) t at height u = h(s)
    def test_burgers_through_origin(self):
        assert evaluate(RECIP.h, {"x1": 0.0}) == 1.0
        assert RECIP.g_at(0.0) == 1.0
        assert 0.0 + RECIP.g_at(0.0) * 1.0 == 1.0  # x = t

    def test_constant_speed_parallel(self):
        cl = law("2", "x^2")
        slopes = {cl.g_at(s) for s in (-1.0, 0.0, 1.0)}
        assert slopes == {2.0}

    def test_ramp_line(self):
        assert evaluate(RAMP.h, {"x1": 1.0}) == -2.0
        assert 1.0 + RAMP.g_at(1.0) * 0.5 == 0.0  # x = 1 - 2t

    def test_data_domain_violation_propagates(self):
        with pytest.raises(EvalDomainError):
            RECIP.g_at(-1.0)
        with pytest.raises(EvalDomainError):
            evaluate(RECIP.h, {"x1": -1.0})


class TestSingularTime:
    def test_reciprocal_formula(self):
        for s in (0.0, 0.5, 1.0, 2.0):
            assert abs(singular_time(RECIP, s) - (s + 1.0) ** 2) <= 1e-10

    def test_ramp_constant(self):
        for s in (-0.1, 0.0, 0.1):
            assert singular_time(RAMP, s) == 0.5

    def test_increasing_data_never_focuses(self):
        cl = law("u", "x")
        for s in np.linspace(-1, 1, 11):
            assert singular_time(cl, float(s)) is None
            # brute force: nearby lines only cross in the past
            assert intersection_oracle(cl, float(s)) < 0

    def test_agrees_with_intersection_oracle(self):
        for s in np.linspace(-0.1, 1.0, 100):
            t_formula = singular_time(RECIP, float(s))
            t_oracle = intersection_oracle(RECIP, float(s))
            assert abs(t_formula - t_oracle) <= 1e-6 * (1.0 + abs(t_formula))


class TestEnvelope:
    def test_on_fold_curve(self):
        env = envelope(RECIP, (-0.1, 0.1), 41)
        assert len(env) == 41
        assert np.abs(env.t - (env.x + 1.0) ** 2 / 4.0).max() <= 1e-10

    def test_tangency_points(self):
        env = envelope(RECIP, (0.0, 1.0), 3)  # s = 0, 0.5, 1
        for s, t, x in zip(env.s, env.t, env.x):
            assert abs(t - (s + 1.0) ** 2) <= 1e-10
            assert abs(x - (2.0 * (s + 1.0) - 1.0)) <= 1e-10

    def test_ramp_envelope_degenerates_to_point(self):
        env = envelope(RAMP, (-0.1, 0.1), 21)
        assert np.abs(env.t - 0.5).max() <= 1e-12
        assert np.abs(env.x).max() <= 1e-12

    def test_empty_envelope_allowed(self):
        cl = law("u", "x")
        env = envelope(cl, (-1.0, 1.0), 11)
        assert len(env) == 0


class TestBlowup:
    def test_ramp_exact(self):
        assert blowup_time(RAMP, (-0.1, 0.1)) == 0.5

    def test_reciprocal_on_unit_range(self):
        assert abs(blowup_time(RECIP, (0.0, 1.0)) - 1.0) <= 1e-12

    def test_no_blowup_marker(self):
        cl = law("u", "x")
        assert blowup_time(cl, (-1.0, 1.0)) == math.inf

    def test_interior_minimum(self):
        # g = exp(-s^2), t* = exp(s^2) / (2 s) for s > 0, smallest at
        # s = 1/sqrt(2): the golden-section search narrows from both sides
        cl = law("u", "exp(-x^2)")
        assert abs(blowup_time(cl, (-2.0, 2.0))
                   - math.sqrt(math.e / 2.0)) <= 1e-10


class TestPropagationSpeed:
    def test_inverse_sqrt_t(self):
        for s in (0.0, 1.0):
            speed = propagation_speed(RECIP, s)
            tstar = singular_time(RECIP, s)
            assert abs(speed - 1.0 / math.sqrt(tstar)) <= 1e-10

    def test_tangency_to_characteristic(self):
        for s in np.linspace(-0.1, 1.0, 25):
            speed = propagation_speed(RECIP, float(s))
            assert abs(speed - RECIP.g_at(float(s))) <= 1e-8

    def test_degenerate_envelope_reported(self):
        with pytest.raises(VerticalTangentError):
            propagation_speed(RAMP, 0.05)

    def test_removable_zero_gives_the_limit(self):
        # h = -x^3 - x: dt*/ds and dx*/ds both vanish at s = 0, an isolated
        # zero of dt*/ds, where the speed is the limit g(0) = -0.0
        cl = law("u", "-x^3 - x")
        assert evaluate(cl.t_prime, {"x1": 0.0}) == 0.0
        assert evaluate(cl.x_prime, {"x1": 0.0}) == 0.0
        speed = propagation_speed(cl, 0.0)
        assert speed == 0.0 and math.copysign(1.0, speed) == -1.0
        assert abs(propagation_speed(cl, 0.1) + 0.101) <= 1e-12

    def test_requires_singular_time(self):
        cl = law("u", "x")
        with pytest.raises(ValueError, match="no singular time"):
            propagation_speed(cl, 0.0)


class TestCsv:
    def test_header_and_rows(self):
        env = envelope(RECIP, (-0.1, 0.1), 5)
        text = env.to_csv(RECIP)
        lines = text.strip().splitlines()
        assert lines[0] == "s,t,x,speed"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[1]) == singular_time(RECIP, float(first[0]))
