import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from finiteot.measure import (
    DiscreteMeasure,
    TestFunction,
    dirac,
    empirical_from_samples,
    integrate,
    measures_equal,
    new_measure,
    pushforward,
)
from finiteot.numerics import (
    INF,
    DataError,
    DomainError,
    NormalizationError,
    ShapeError,
    check_extended,
    is_inf,
)


def rational_measures(max_n=6):
    return (
        st.integers(1, max_n)
        .flatmap(lambda n: st.lists(st.integers(0, 9), min_size=n, max_size=n))
        .filter(lambda raw: sum(raw) > 0)
        .map(lambda raw: DiscreteMeasure(tuple(F(w, sum(raw)) for w in raw)))
    )


class TestConstruction:
    def test_half_half(self):
        assert new_measure([F(1, 2), F(1, 2)]).weights == (F(1, 2), F(1, 2))

    def test_dirac_weights_are_valid(self):
        assert new_measure([1, 0, 0]).weights == (1, 0, 0)

    def test_underweight_rejected(self):
        with pytest.raises(NormalizationError):
            new_measure([0.3, 0.3])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            new_measure([F(3, 2), F(-1, 2)])

    @pytest.mark.parametrize(
        "weights, error, message",
        [
            ([F(3, 2), F(-1, 2)], DomainError, "negative weight -1/2"),
            ([2, -1], DomainError, "negative weight -1"),
            ([F(1, 2), F(1, 3)], NormalizationError, "weights sum to 5/6, not 1"),
            ([1, 1], NormalizationError, "weights sum to 2, not 1"),
            ([F(1, 2), 1, F(-1, 2)], DomainError, "negative weight -1/2"),
            ([0.5, 0.25], NormalizationError, "weights sum to 0.75, not 1"),
            ([F(1, 2), INF], DomainError, "infinite weight"),
            ([INF, F(-1, 2)], DomainError, "infinite weight"),
            ([F(-1, 2), INF], DomainError, "negative weight -1/2"),
            ([1, float("nan")], DataError, "NaN weight"),
        ],
    )
    def test_error_messages(self, weights, error, message):
        with pytest.raises(error) as info:
            new_measure(weights)
        assert str(info.value) == message

    def test_exact_weights_of_every_exact_type(self):
        assert new_measure([True, False]).weights == (1, 0)
        assert new_measure([F(1, 3), 0, F(2, 3)]).mode == "rational"
        assert new_measure([F(1, 2), 0.5]).mode == "float"


class TestDirac:
    def test_at_zero(self):
        assert dirac(0, 2).weights == (1, 0)

    def test_at_one_of_three(self):
        assert dirac(1, 3).weights == (0, 1, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            dirac(3, 2)


class TestEmpirical:
    def test_balanced_samples(self):
        assert empirical_from_samples([0, 0, 1, 1], 2).weights == (F(1, 2), F(1, 2))

    def test_single_sample(self):
        assert empirical_from_samples([2], 3).weights == (0, 0, 1)

    def test_counting(self):
        assert empirical_from_samples([0, 1, 1, 1], 2).weights == (F(1, 4), F(3, 4))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            empirical_from_samples([], 2)

    def test_converges_to_source(self):
        rng = random.Random(123)
        target = [0.2, 0.5, 0.3]
        n_samples = 10**5
        samples = rng.choices(range(3), weights=target, k=n_samples)
        emp = empirical_from_samples(samples, 3)
        for w, t in zip(emp.weights, target):
            assert abs(float(w) - t) < 0.01


class TestPushforward:
    def test_collapse_to_dirac(self):
        mu = new_measure([F(1, 2), F(1, 2)])
        assert pushforward(mu, {0: 0, 1: 0}).weights == (1, 0)

    def test_identity(self):
        mu = new_measure([1, 0])
        assert pushforward(mu, {0: 0, 1: 1}).weights == (1, 0)

    def test_preimage_sums(self):
        mu = new_measure([F(1, 4), F(1, 4), F(1, 2)])
        out = pushforward(mu, {0: 1, 1: 1, 2: 0}, n_target=3)
        assert out.weights == (F(1, 2), F(1, 2), 0)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            pushforward(new_measure([1]), {0: 5})

    @given(rational_measures(), st.randoms(use_true_random=False))
    def test_mass_preserved(self, mu, rnd):
        table = {i: rnd.randrange(mu.n) for i in range(mu.n)}
        assert sum(pushforward(mu, table).weights) == 1


class TestIntegrate:
    def test_expectation(self):
        assert integrate(new_measure([F(1, 2), F(1, 2)]), TestFunction((0, 1))) == F(1, 2)

    def test_dirac_evaluation(self):
        assert integrate(new_measure([1, 0]), TestFunction((7, -3))) == 7

    def test_weighted(self):
        assert integrate(new_measure([F(1, 4), F(3, 4)]), TestFunction((4, 0))) == 1

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            integrate(new_measure([1]), TestFunction((1, 2)))

    @given(rational_measures(max_n=4), st.integers(-5, 5))
    def test_linearity(self, mu, alpha):
        phi = tuple(range(mu.n))
        psi = tuple((-1) ** i for i in range(mu.n))
        combo = tuple(alpha * a + b for a, b in zip(phi, psi))
        assert integrate(mu, combo) == alpha * integrate(mu, phi) + integrate(mu, psi)


class TestEquality:
    def test_equal_in_both_modes(self):
        mu = new_measure([F(1, 2), F(1, 2)])
        assert measures_equal(mu, mu, "weights")
        assert measures_equal(mu, mu, "test_functions")

    def test_diracs_differ(self):
        assert not measures_equal(dirac(0, 2), dirac(1, 2), "weights")
        assert not measures_equal(dirac(0, 2), dirac(1, 2), "test_functions")

    def test_uniform_thirds(self):
        mu = new_measure([F(1, 3)] * 3)
        nu = new_measure([F(1, 3)] * 3)
        assert measures_equal(mu, nu, "weights")

    def test_size_mismatch_raises(self):
        with pytest.raises(DomainError):
            measures_equal(dirac(0, 2), dirac(0, 3))

    @given(rational_measures(), rational_measures())
    def test_modes_agree(self, mu1, mu2):
        if mu1.n != mu2.n:
            return
        assert measures_equal(mu1, mu2, "weights") == measures_equal(
            mu1, mu2, "test_functions"
        )


def reference_float_check(w):
    """The float weights' check as it was before its screen of the weights
    as given: every weight whose float reads with its sign bit set, or as
    NaN or +inf, judged as given; then the total, added left to right."""
    a = np.array(w, dtype=np.float64)
    for k in np.logical_or(np.signbit(a), np.logical_not(a < INF)).nonzero()[0].tolist():
        x = check_extended(w[k], "weight")
        if is_inf(x):
            raise DomainError("infinite weight")
        if x < 0:
            raise DomainError(f"negative weight {x}")
    total = sum(w)
    if abs(total - 1) > 1e-12:
        raise NormalizationError(f"weights sum to {total!r}, not 1")
    return a


def float_check_outcome(check, w):
    try:
        a = check(w)
    except Exception as exc:  # compared, not hidden
        return type(exc).__name__, str(exc)
    return a.tobytes(), a.flags.writeable


class TestFloatWeightScreen:
    """Float weights that are all at least 0 as given and below +inf pass a
    screen of Python comparisons; any others are judged one by one as
    before, with the same errors and the same array."""

    WEIRD = [
        (None, 1.0),
        ("0.5", "0.5"),
        (float("nan"), 1.0),
        (1.0, float("nan")),
        (-0.0, 1.0),
        (F(-1, 10**400), 1.0),
        (F(1, 10**400), 1.0),
        (0.5, F(1, 2)),
        (float("inf"), 0.0),
        (0.0, -float("inf")),
        (np.float64(0.5), 0.5),
        (True, 0.0),
        (-1e-300, 1.0),
        (0.25, 0.25, 0.5, -0.0),
        (0.5, 0.5 + 1e-13),
        (2.0, -1.0),
    ]

    @staticmethod
    def ours(w):
        measure = DiscreteMeasure(w)
        return measure.float_weights if measure.mode == "float" else None

    @pytest.mark.parametrize("w", WEIRD, ids=range(len(WEIRD)))
    def test_edge_weights(self, w):
        with np.errstate(all="ignore"):
            want = float_check_outcome(reference_float_check, w)
            got = float_check_outcome(self.ours, w)
        assert got[0] == want[0] and (len(got) == 2 or got[1] == want[1])

    def test_seeded_battery(self):
        rng = random.Random(91)
        kinds = [
            lambda: rng.random(),
            lambda: -rng.random() * 10 ** -rng.randint(0, 300),
            lambda: F(rng.randint(0, 9), rng.randint(1, 9)),
            lambda: rng.randint(0, 3),
            lambda: rng.choice((0.0, -0.0, INF, float("nan"))),
        ]
        passed = 0
        for _ in range(400):
            raw = [rng.choice(kinds[: rng.randint(1, 5)])() for _ in range(rng.randint(1, 8))]
            raw.append(rng.random())  # a float, so the weights read as float
            total = sum(x for x in raw if x == x and not is_inf(x) and x > 0) or 1
            w = tuple(x / total for x in raw) if rng.random() < 0.8 else tuple(raw)
            with np.errstate(all="ignore"):
                want = float_check_outcome(reference_float_check, w)
                got = float_check_outcome(self.ours, w)
            assert got == (want if isinstance(want[0], str) else (want[0], False)), w
            passed += not isinstance(want[0], str)
        assert 100 < passed < 300, passed
