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
        assert t.tail == t.weights[2] == 0.25
        # past the prefix T moves x_101 to index 100 scaled by alpha_100 = tail
        y = shift.apply_power(t, FiniteVector({101: 1.0}, 2.0), 1)
        assert y.values == {100: 0.25}

    def test_harmonic_generator(self):
        t = shift.harmonic_weights(0.5, 1.0, 100)
        assert t.weights[0] == 1.5
        assert t.weights[3] == 0.75
        assert t.tail == 0.5 + 1.0 / 100


def _reference_harmonic_weights(a, b, m):
    """The per-element comprehension that harmonic_weights replaced."""
    return tuple([a + b / j for j in range(1, m + 1)])


def _reference_check_weights(weights):
    """The validation loop that WeightedShift replaced: its message, or None."""
    if not weights:
        return "need at least one weight"
    prev = math.inf
    for i, w in enumerate(weights):
        if not w >= 0.0:
            return "weight alpha_%d = %r is negative or NaN" % (i + 1, w)
        if w > prev:
            return "weights must be nonincreasing: alpha_%d = %r > alpha_%d = %r" % (i + 1, w, i, prev)
        prev = w
    return None


def _message(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, allow_infinity=True), st.floats(0.0, allow_infinity=True),
       st.integers(0, 300) | st.just(5000))
def test_harmonic_weights_match_the_comprehension(a, b, m):
    want = _reference_harmonic_weights(a, b, m)
    if not want:
        assert _message(shift.harmonic_weights, a, b, m) == "need at least one weight"
        return
    got = shift.harmonic_weights(a, b, m).weights
    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
    assert all(type(w) is float for w in got)


weight_values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.inf, -1e-300, math.nan]) | st.floats()


@settings(max_examples=300, deadline=None)
@given(st.lists(weight_values, max_size=12) | st.lists(st.floats(0, 10), max_size=12).map(
    lambda w: sorted(w, reverse=True)))
def test_weight_checks_match_the_loop(weights):
    # the same first bad index, with the same message; nonincreasing lists pass
    assert _message(WeightedShift, tuple(weights)) == _reference_check_weights(weights)


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

    # abs(complex) once raised OverflowError here
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_modulus_past_the_float_range_reads_inf(self, p):
        assert FiniteVector({1: complex(1.5e308, 1.5e308)}, p).norm() == math.inf

    # the caught overflow of 1e200**2 left errno at ERANGE, and abs(complex)
    # read it for the nan part and raised
    def test_nan_entry_after_an_overflowing_norm(self):
        w = FiniteVector({1: 1e200}, 2.0)
        v = FiniteVector({1: complex(math.nan, 0.0)}, 2.0)
        norms = [w.norm(), v.norm()]
        assert norms[0] == 1e200 and math.isnan(norms[1])

    # max() once skipped a nan unless it came first; at 1e200 and p = 2 the
    # overflow of big**2 also left errno at ERANGE for the next vector
    @pytest.mark.parametrize("big, p", [(1.0, math.inf), (1e200, math.inf),
                                        (math.inf, math.inf), (1e200, 2.0)])
    def test_nan_entry_gives_nan_in_any_order(self, big, p):
        for values in ({1: big, 2: math.nan}, {2: math.nan, 1: big}):
            assert math.isnan(FiniteVector(values, p).norm())


class TestApplyPower:
    def test_pure_shift(self):
        t = WeightedShift((1.0,) * 10)
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

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError, match="power must be >= 1"):
            shift.apply_power(WeightedShift((1.0,)), shift.unit_vector(1, 2.0), 0)


class TestPowerNormFormula:
    def test_all_ones(self):
        t = WeightedShift((1.0,) * 5)
        for power in (1, 3, 17):
            assert shift.power_norm_formula(t, power) == 1.0

    def test_constant_half(self):
        t = WeightedShift((0.5,) * 5)
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

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError, match="power must be >= 1"):
            shift.power_norm_formula(WeightedShift((1.0,)), 0)


class TestOpNormEmpirical:
    def test_all_ones(self):
        t = WeightedShift((1.0,) * 50)
        for p in (1.0, 2.0, math.inf):
            attained, ratio = shift.op_norm_empirical(t, 7, p, trials=10)
            assert attained == 1.0
            assert ratio <= 1.0 + 1e-12

    def test_constant_half_power_four(self):
        t = WeightedShift((0.5,) * 50)
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

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            shift.op_norm_empirical(WeightedShift((1.0,)), 1, 2.0, trials=0)

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
# window product became one math.prod call, the trial draws became one
# standard_normal call and the trials stopped building FiniteVectors; the
# current code must agree with them bit for bit.


def _reference_apply_power(t, x, power):
    out = {}
    for m, v in x.values.items():
        j = m - power
        if j < 1:
            continue
        coeff = 1.0
        for i in range(j, m):
            # alpha_i, constant at the tail past the prefix
            coeff *= t.weights[i - 1] if i <= len(t.weights) else t.tail
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
    @pytest.mark.parametrize("power", [1, 3, 10, 25])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_op_norm_empirical_at_the_battery_parameters(self, power, p):
        # selftest's shift check: harmonic weights 0.5 + 1/j, 200 of them, 20 trials
        t = shift.harmonic_weights(0.5, 1.0, 200)
        for seed in range(0, 2**32, 2**29 + 1):  # 8 seeds across the battery's range
            got = shift.op_norm_empirical(t, power, p, 20, seed)
            assert repr(got) == repr(_reference_op_norm_empirical(t, power, p, 20, seed))

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

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_products_that_round_to_zero(self, p):
        # 5e-324 times a part below 1/2 rounds to 0: an entry whose parts
        # both do is dropped, and a trial whose entries all do has norm 0
        t = WeightedShift((5e-324,))
        for power in (1, 2, 3):
            for seed in range(20):
                got = shift.op_norm_empirical(t, power, p, 20, seed)
                assert repr(got) == repr(_reference_op_norm_empirical(t, power, p, 20, seed))

    @pytest.mark.parametrize("weight", [0.5, 1e200])
    def test_zero_draws(self, monkeypatch, weight):
        # a draw of exactly 0.0 (numpy's ziggurat can return one) in both
        # parts makes a zero entry, which is no entry; were it shifted, a
        # window product of inf (1e200^2) would turn it into nan
        real = np.random.default_rng

        class ZeroingDraws:
            def __init__(self, seed):
                self.rng, self.drawn = real(seed), 0

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def standard_normal(self, size=None):
                draws = self.rng.standard_normal(1 if size is None else size)
                # both parts of every third entry, counted across calls
                entry = (self.drawn + np.arange(draws.size)) // 2
                draws[entry % 3 == 0] = 0.0
                self.drawn += draws.size
                return float(draws[0]) if size is None else draws

        monkeypatch.setattr(np.random, "default_rng", ZeroingDraws)
        t = WeightedShift((weight,) * 3)
        for p in (1.0, 2.0, math.inf):
            for seed in range(10):
                got = shift.op_norm_empirical(t, 2, p, 20, seed)
                assert repr(got) == repr(_reference_op_norm_empirical(t, 2, p, 20, seed))


class TestShiftLimitExperiment:
    def test_constant_weight_roots(self):
        t = WeightedShift((0.75,) * 10)
        rep = shift.shift_limit_experiment(t, 40)
        for r in rep.root:
            assert r == pytest.approx(0.75, rel=1e-12)

    def test_zero_weight_absorbs(self):
        t = WeightedShift((1.0, 0.5, 0.0))
        rep = shift.shift_limit_experiment(t, 6)
        assert rep.root[0] == 1.0
        assert rep.root[2:] == [0.0, 0.0, 0.0, 0.0]

    def test_max_power_zero_rejected(self):
        with pytest.raises(ValueError, match="max_power must be >= 1"):
            shift.shift_limit_experiment(WeightedShift((1.0,)), 0)

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
