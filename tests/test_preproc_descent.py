"""The line-searched descent that LFR and OPP share, on the toy objective f(x) = 1 + x^2 from x = 1."""

import math
import warnings

import pytest

from fairbench.errors import FairbenchWarning, FitError
from fairbench.preproc.descent import descend

# steps of length 1, 2 and 4 along -x/4 take x from 1 to 0.75, 0.375 and 0, the minimum
TRACE = (2.0, 1.5625, 1.140625, 1.0)

# name: (objective at x = 1, descend's arguments, (length above which a trial is broken, what it returns),
#        expected (trace, reason, each direction's trial lengths) or the expected error)
CASES = {
    # the first step's relative drop is 0.21875, which does not stop a descent at that tolerance
    "converged": (2.0, dict(tol=0.21875), None, (TRACE, "converged", [[1], [2], [4]])),
    "floor": (2.0, dict(tol=0.15, floor=4.0), None, ((2.0, 1.5625), "converged", [[1]])),
    "line search": (2.0, dict(tol=0.0), None, (TRACE, "line search", [[1], [2], [4], [8 * 0.5**k for k in range(60)]])),
    "max_iter": (2.0, dict(tol=0.0, max_iter=2), None, (TRACE[:3], "max_iter", [[1], [2]])),
    "cap": (2.0, dict(tol=0.15, cap=1.5), None,
            ((2.0, 1.5625, 1.2197265625, 1.0858306884765625), "converged", [[1], [1.5], [1.5]])),
    "no point halves": (2.0, dict(tol=0.15), (0.5, None), ((2.0, 1.765625), "converged", [[1, 0.5]])),
    "non-finite halves": (2.0, dict(tol=0.15), (0.5, (-math.inf, 0.0)), ((2.0, 1.765625), "converged", [[1, 0.5]])),
    "non-finite start": (math.nan, dict(tol=0.15), None, "non-finite objective at initialization: nan"),
}


@pytest.mark.parametrize("case", CASES)
def test_descend_steps_halves_and_stops_by_its_one_rule(case):
    start, args, broken, expected = CASES[case]
    tried = []

    def direction(x):
        tried.append([])

        def trial(t):
            tried[-1].append(t)
            if broken is not None and t > broken[0]:
                return broken[1]
            reached = x - t * x / 4
            return 1.0 + reached * reached, reached
        return trial

    args = {"max_iter": 100, "floor": 1.0, "cap": math.inf, **args}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected, str):
            with pytest.raises(FitError, match=expected):
                descend("toy", start, 1.0, direction, **args)
            return
        point, trace, reason = descend("toy", start, 1.0, direction, **args)

    assert (trace, reason, tried) == expected
    assert point == math.sqrt(trace[-1] - 1.0)
    messages = [(w.category, str(w.message)) for w in caught]
    assert messages == ([(FairbenchWarning, "toy stopped at max_iter=2 steps: last relative objective drop 0.27 >= tol 0")]
                        if reason == "max_iter" else [])
