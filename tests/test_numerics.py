import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from finiteot.numerics import FLOAT, INF, RATIONAL, infer_mode


class TestInferMode:
    @pytest.mark.parametrize(
        "values, mode",
        [
            ([F(1), INF], RATIONAL),
            ([1, 0.5], FLOAT),
            ([np.float64("inf"), 2], RATIONAL),
            ([np.int64(1)], FLOAT),
            ([True], RATIONAL),
        ],
    )
    def test_cases(self, values, mode):
        assert infer_mode(values) == mode

    def test_only_plus_inf_decides_nothing(self):
        assert infer_mode([F(1, 2), INF, 3]) == RATIONAL
        assert infer_mode([F(1, 2), -INF]) == FLOAT
        assert infer_mode([F(1, 2), float("nan")]) == FLOAT
        assert infer_mode(iter([INF, 0])) == RATIONAL

    def test_no_python_call_per_value(self):
        """A 100 x 100 matrix of Fractions and +inf is told apart by type:
        counting Python calls, unlike timing them, holds on any host."""
        rng = random.Random(100)
        matrix = [
            [INF if rng.random() < 0.2 else F(rng.randint(0, 99), 7) for _ in range(100)]
            for _ in range(100)
        ]
        values = [x for row in matrix for x in row]
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            mode = infer_mode(values)
        finally:
            sys.setprofile(previous)
        assert mode == RATIONAL
        assert calls < 50, f"{calls} Python calls for 10,000 values"
