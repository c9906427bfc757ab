import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import fekete, shift
from specrad.shift import FiniteVector, WeightedShift


class TestWeightedShift:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            WeightedShift((0.5, 0.7))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightedShift((0.5, -0.1))

    def test_tail_continues_last_weight(self):
        t = WeightedShift((1.0, 0.5, 0.25))
        assert t.weight(3) == 0.25
        assert t.weight(100) == 0.25
        assert t.tail == 0.25

    def test_harmonic_generator(self):
        t = shift.harmonic_weights(0.5, 1.0, 100)
        assert t.weight(1) == 1.5
        assert t.weight(4) == 0.75
        assert t.tail == 0.5 + 1.0 / 100


class TestFiniteVector:
    def test_norms(self):
        x = FiniteVector({1: 3.0, 2: -4.0}, 2.0)
        assert x.norm() == pytest.approx(5.0, rel=1e-15)
        assert FiniteVector({1: 3.0, 2: -4.0}, 1.0).norm() == pytest.approx(7.0)
        assert FiniteVector({1: 3.0, 2: -4.0}, math.inf).norm() == 4.0

    def test_zero(self):
        assert FiniteVector({}, 2.0).norm() == 0.0

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            FiniteVector({0: 1.0}, 2.0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            FiniteVector({1: 1.0}, 0.5)

    @pytest.mark.parametrize(
        "values",
        [
            {1: 1e155},  # |x|^2 overflows
            {1: 1e-200},  # |x|^2 underflows to 0
            {1: 3e-170, 4: -4e-170j, 9: 1e-171},  # the sum is subnormal
            {1: 1e200, 2: 1e300 + 1e300j, 3: -5e299},
        ],
    )
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_norm_at_the_float_range(self, values, p):
        with mpmath.workdps(50):
            exact = mpmath.fsum(abs(mpmath.mpc(v)) ** p for v in values.values()) ** (1 / mpmath.mpf(p))
        assert FiniteVector(values, p).norm() == pytest.approx(float(exact), rel=4e-16, abs=0)

    def test_norm_of_an_inf_entry(self):
        assert FiniteVector({1: math.inf, 2: 1e200}, 2.0).norm() == math.inf


class TestApplyPower:
    def test_pure_shift(self):
        t = shift.constant_weights(1.0, 10)
        out = shift.apply_power(t, shift.unit_vector(2, 2.0), 1)
        assert out.values == {1: 1.0 + 0j}

    def test_shifted_off_front(self):
        t = shift.harmonic_weights(0.5, 1.0, 10)
        x = FiniteVector({1: 2.0, 3: -1.0}, 1.0)
        assert shift.apply_power(t, x, 3).values == {}

    def test_two_step_product(self):
        # weights 1/2, 1/3, ...: T^2 e_3 = (a_1 a_2) e_1 = e_1 / 6
        t = WeightedShift(tuple(1.0 / (j + 1) for j in range(1, 8)))
        out = shift.apply_power(t, shift.unit_vector(3, 2.0), 2)
        assert set(out.values) == {1}
        assert out.values[1] == pytest.approx(1.0 / 6.0, rel=1e-15)


class TestPowerNormFormula:
    def test_all_ones(self):
        t = shift.constant_weights(1.0, 5)
        for power in (1, 3, 17):
            assert shift.power_norm_formula(t, power) == 1.0

    def test_constant_half(self):
        t = shift.constant_weights(0.5, 5)
        for power in (1, 4, 20):
            assert shift.power_norm_formula(t, power) == pytest.approx(
                2.0**-power, rel=1e-12
            )

    def test_three_weights(self):
        t = WeightedShift((0.9, 0.8, 0.7))
        assert shift.power_norm_formula(t, 3) == pytest.approx(0.504, rel=1e-12)

    def test_zero_weight_short_circuits(self):
        t = WeightedShift((1.0, 0.5, 0.0))
        assert shift.power_norm_formula(t, 3) == 0.0
        assert shift.power_norm_formula(t, 50) == 0.0


class TestOpNormEmpirical:
    def test_all_ones(self):
        t = shift.constant_weights(1.0, 50)
        for p in (1.0, 2.0, math.inf):
            attained, ratio = shift.op_norm_empirical(t, 7, p, trials=10)
            assert attained == 1.0
            assert ratio <= 1.0 + 1e-12

    def test_constant_half_power_four(self):
        t = shift.constant_weights(0.5, 50)
        for p in (1.0, 2.0, math.inf):
            attained, _ = shift.op_norm_empirical(t, 4, p, trials=5)
            assert attained == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_harmonic_attainment(self):
        t = shift.harmonic_weights(0.5, 1.0, 100)
        attained, ratio = shift.op_norm_empirical(t, 5, 2.0, trials=40)
        direct = 1.0
        for j in range(1, 6):
            direct *= 0.5 + 1.0 / j
        assert attained == pytest.approx(direct, rel=1e-14)
        assert ratio <= attained * (1 + 1e-12)

    def test_matches_formula_every_p(self):
        t = shift.harmonic_weights(0.25, 2.0, 200)
        for power in (1, 2, 5, 13, 50):
            formula = shift.power_norm_formula(t, power)
            for p in (1.0, 2.0, math.inf):
                attained, _ = shift.op_norm_empirical(t, power, p, trials=3)
                assert abs(attained - formula) <= 1e-12 * max(attained, formula)

    def test_weights_past_the_float_range(self):
        attained, ratio = shift.op_norm_empirical(WeightedShift((1e200,) * 3), 1, 2.0, 3)
        assert attained == 1e200
        assert ratio <= attained * (1 + 1e-12)

    def test_contraction_bound(self):
        rng = np.random.default_rng(89)
        t = shift.harmonic_weights(0.3, 1.5, 80)
        for _ in range(30):
            power = int(rng.integers(1, 20))
            p = float(rng.choice([1.0, 2.0, np.inf]))
            values = {
                int(j): complex(rng.standard_normal(), rng.standard_normal())
                for j in rng.integers(1, 60, size=6)
            }
            x = FiniteVector(values, p)
            bound = shift.power_norm_formula(t, power) * x.norm()
            assert shift.apply_power(t, x, power).norm() <= bound * (1 + 1e-12)


# --- window products and trial draws against the per-weight loops --------------
# The references are apply_power and op_norm_empirical as they were before the
# window product became one math.prod call and the trial draws became one
# standard_normal call; the current code must agree with them bit for bit.


def _reference_apply_power(t, x, power):
    out = {}
    for m, v in x.values.items():
        j = m - power
        if j < 1:
            continue
        coeff = 1.0
        for i in range(j, m):
            coeff *= t.weight(i)
            if coeff == 0.0:
                break
        if coeff != 0.0:
            out[j] = coeff * v
    return FiniteVector(out, x.p)


def _reference_op_norm_empirical(t, power, p, trials, seed):
    attained = _reference_apply_power(t, shift.unit_vector(power + 1, p), power).norm()
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        size = int(rng.integers(1, 12))
        indices = rng.integers(1, power + 40, size=size)
        values = {}
        for idx in indices:
            values[int(idx)] = complex(rng.standard_normal(), rng.standard_normal())
        x = FiniteVector(values, p)
        nx = x.norm()
        if nx == 0.0:
            continue
        best = max(best, _reference_apply_power(t, x, power).norm() / nx)
    return attained, best


def _nonincreasing(moduli):
    # sorted moduli, some of them zero; 1e200-sized ones overflow a window
    # product to inf, and a zero after them makes it nan
    return st.lists(
        st.one_of(moduli, st.just(0.0)), min_size=1, max_size=30
    ).map(lambda w: WeightedShift(tuple(sorted(w, reverse=True))))


SHIFTS = st.one_of(
    _nonincreasing(st.floats(0.0, 2.0)),
    _nonincreasing(st.floats(1e150, 1e250)),
    _nonincreasing(st.floats(1e-200, 1e-100)),
)
POWERS_P = (st.integers(1, 60), st.sampled_from([1.0, 2.0, 3.5, math.inf]))


class TestAgainstPerWeightLoops:
    @settings(max_examples=150, deadline=None)
    @given(SHIFTS, *POWERS_P, st.integers(0, 2**32 - 1))
    def test_op_norm_empirical(self, t, power, p, seed):
        got = shift.op_norm_empirical(t, power, p, 4, seed)
        assert repr(got) == repr(_reference_op_norm_empirical(t, power, p, 4, seed))

    @settings(max_examples=150, deadline=None)
    @given(
        SHIFTS,
        *POWERS_P,
        st.dictionaries(st.integers(1, 100), st.complex_numbers(max_magnitude=1e3), max_size=8),
    )
    def test_apply_power(self, t, power, p, values):
        x = FiniteVector(values, p)
        got = shift.apply_power(t, x, power).values
        assert repr(got) == repr(_reference_apply_power(t, x, power).values)


class TestShiftLimitExperiment:
    def test_constant_weight_roots(self):
        t = shift.constant_weights(0.75, 10)
        rep = shift.shift_limit_experiment(t, 40)
        for r in rep.root:
            assert r == pytest.approx(0.75, rel=1e-12)

    def test_zero_weight_absorbs(self):
        t = WeightedShift((1.0, 0.5, 0.0))
        rep = shift.shift_limit_experiment(t, 6)
        assert rep.root[0] == 1.0
        assert rep.root[2:] == [0.0, 0.0, 0.0, 0.0]

    def test_harmonic_converges_to_tail(self):
        t = shift.harmonic_weights(0.5, 1.0, 4000)
        rep = shift.shift_limit_experiment(t, 2000)
        assert abs(rep.root[-1] - 0.5) <= 0.01
        mins = rep.running_min
        assert all(a >= b for a, b in zip(mins, mins[1:]))

    def test_power_norms_are_submultiplicative(self):
        t = shift.harmonic_weights(0.4, 0.8, 60)
        seq = fekete.PrefixSequence(
            tuple(shift.power_norm_formula(t, l) for l in range(1, 41))
        )
        assert fekete.check_submultiplicative(seq) == []

    def test_limit_bracket_certifies_above_tail(self):
        t = shift.harmonic_weights(0.5, 1.0, 500)
        seq = fekete.PrefixSequence(
            tuple(shift.power_norm_formula(t, l) for l in range(1, 201))
        )
        upper, _ = fekete.limit_bracket(seq)
        assert upper >= t.tail


def test_weights_csv_round_trip():
    # harmonic:0.5,1 written with 17 significant digits reads back bit for bit
    text = "j,alpha\n1,1.5\n2,1\n3,0.83333333333333326\n4,0.75\n"
    assert shift.read_weights_csv(text).weights == shift.harmonic_weights(0.5, 1.0, 4).weights


def test_weights_csv_header_required():
    with pytest.raises(ValueError, match="header"):
        shift.read_weights_csv("x,y\n1,0.5\n")


def test_weights_csv_indices_must_count_up():
    with pytest.raises(ValueError, match="row 2 has index j = 3"):
        shift.read_weights_csv("j,alpha\n1,0.5\n3,0.4\n")
