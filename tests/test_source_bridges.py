"""on_rows and on_window, the one bridge from arrays to a source.

A source without an array form is called once per row, in order (t-major
over a window), on Python floats: a list of them per chart point and one
per time. Its values are stacked as a float array, ints included, equal
bit for bit to the per-row calls. An array form serves only where all its
values are finite; one NaN sends every row to the source itself, which
raises at the first row it cannot evaluate.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavetraj.errors import EvaluationError
from wavetraj.expressions import on_rows, on_window, with_array_form

PROFILE = settings(max_examples=200, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])

numbers = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf]))


def _recording(kind, calls):
    """A source of x and t without an array form that records its arguments.

    "count" gives the int number of calls made before it, "vector" one value
    per coordinate and "matrix" n rows of n.
    """
    def source(x, t):
        assert type(x) is list and all(type(e) is float for e in x) and type(t) is float
        calls.append((x, t))
        if kind == "count":
            return len(calls) - 1
        if kind == "vector":
            return [e * t for e in x]
        return [[a - b * t for b in x] for a in x]

    return source


@PROFILE
@given(kind=st.sampled_from(["count", "vector", "matrix"]),
       points=st.integers(1, 3).flatmap(lambda n: st.lists(
           st.lists(numbers, min_size=n, max_size=n), min_size=1, max_size=5)),
       times=st.one_of(numbers, st.lists(numbers, min_size=1, max_size=4)))
def test_a_source_without_an_array_form_is_called_once_per_row(kind, points, times):
    calls = []
    source = _recording(kind, calls)
    window = on_window(source, np.array(points), times)
    # t-major: every point at the first time, then every point at the next
    pairs = [(p, t) for t in np.atleast_1d(times).tolist() for p in points]
    # repr, since a NaN equals no NaN
    assert repr(calls) == repr(pairs)
    reference = []
    reference_source = _recording(kind, reference)
    per_row = np.array([reference_source(p, t) for p, t in pairs], dtype=float)
    assert window.dtype == np.float64
    assert window.shape == np.shape(times) + (len(points),) + per_row.shape[1:]
    assert window.tobytes() == per_row.tobytes()
    # on_rows itself, on one time per point
    calls.clear()
    rows = on_rows(source, np.array([p for p, _ in pairs]), np.array([t for _, t in pairs]))
    assert repr(calls) == repr(pairs)
    assert rows.dtype == np.float64 and rows.tobytes() == per_row.tobytes()


def _failing(calls):
    """x1 + t, raising EvaluationError where x1 < 0, with an array form NaN at the last row only."""
    def source(x, t):
        calls.append(x)
        if x[0] < 0.0:
            raise EvaluationError("x1 + t", {"x1": x[0], "t": t}, ValueError("x1 < 0"))
        return x[0] + t

    def on_arrays(x, t):
        out = np.asarray(x, dtype=float)[..., 0] + t
        out[-1] = math.nan
        return out

    return with_array_form(source, on_arrays)


def test_an_array_form_with_one_nan_falls_back_and_raises_at_the_first_failing_row():
    points = np.array([[1.0, 0.0], [-2.0, 0.0], [-3.0, 0.0], [4.0, 0.0]])
    calls = []
    with pytest.raises(EvaluationError) as info:
        on_window(_failing(calls), points, np.array([0.5, 1.5]))
    assert info.value.point == {"x1": -2.0, "t": 0.5}
    assert calls == [[1.0, 0.0], [-2.0, 0.0]]
    # with no failing row, the NaN alone still sends every row to the source
    calls.clear()
    out = on_rows(_failing(calls), np.abs(points), np.full(4, 0.25))
    assert calls == np.abs(points).tolist()
    assert out.tolist() == [1.25, 2.25, 3.25, 4.25]


def test_an_array_form_whose_values_are_all_finite_makes_no_call():
    calls = []
    source = with_array_form(_recording("count", calls), lambda x, t: np.zeros(len(x)))
    assert on_rows(source, np.ones((3, 2)), np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert calls == []
