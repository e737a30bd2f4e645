"""format_g10 against Python's own f"{x:.10g}"."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftbias._format import WIDTH, format_g10


def rendered(values) -> list[str]:
    """format_g10's rows with their NULs dropped, one string per value."""
    out = format_g10(np.asarray(values, dtype=np.float64))
    assert out.dtype == np.uint8 and out.shape == (len(values), WIDTH)
    lines = np.column_stack([out, np.full(len(out), ord("\n"), np.uint8)]).reshape(-1)
    return lines[lines != 0].tobytes().decode("ascii").splitlines()


def assert_matches_python(values) -> None:
    expected = [f"{value:.10g}" for value in values]
    wrong = [(value, a, b) for value, a, b in zip(values, rendered(values), expected) if a != b]
    assert not wrong, wrong[:5]


def nudged(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


ulps = st.integers(-2, 2)
# The float64 path covers |x| in about [1e-35, 1e54); k from the whole range
# would seldom land there.
decades = st.one_of(st.integers(-45, 45), st.integers(-330, 298))


def tie(m: int, k: int) -> float:
    """(m + 0.5) * 10**k, exact for 0 <= k <= 7 and the nearest double elsewhere."""
    return float(f"{m}5e{k - 1}")


FAMILIES = {
    # nan, both infinities, both zeros and subnormals among them
    "floats": st.floats(),
    "ties": st.builds(lambda m, k, steps: nudged(tie(m, k), steps), st.integers(10**9, 10**10 - 1), decades, ulps),
    # values that round up to the next power of ten at 10 digits
    "carries": st.builds(lambda tail, k: float(f"9.999999999{tail}e{k}"), st.integers(5, 10**6), decades),
    "powers_of_ten": st.builds(lambda k, steps: nudged(float(f"1e{k}"), steps), st.integers(-323, 308), ulps),
    # both sides of the switches to exponent notation at 1e-4 and 1e10
    "switches": st.one_of(
        st.builds(nudged, st.sampled_from([1e-4, 9.9999999995e-05, 1e10, 9999999999.5]), st.integers(-3, 3)),
        st.floats(9.99999999e-05, 1.00000001e-04),
        st.floats(9999999990.0, 10000000010.0),
    ),
    "extremes": st.one_of(
        st.floats(1e289, 1e291),
        st.floats(1e-291, 1e-289),
        st.floats(1e307, 1.7976931348623157e308),
        st.floats(0.0, 1e-307),
    ),
}


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
def test_matches_python_formatting(family, data):
    magnitudes = data.draw(st.lists(FAMILIES[family], min_size=1, max_size=40))
    signs = data.draw(st.lists(st.booleans(), min_size=len(magnitudes), max_size=len(magnitudes)))
    assert_matches_python([-x if negative else x for x, negative in zip(magnitudes, signs)])


def test_seeded_ties():
    # Most doubles nearest to a 10-digit tie scale back onto it exactly, where
    # rint would round half to even whatever side the double lies on.
    rng = np.random.default_rng(7)
    ms, ks = rng.integers(10**9, 10**10, 100_000).tolist(), rng.integers(-45, 46, 100_000).tolist()
    assert_matches_python([tie(m, k) for m, k in zip(ms, ks)])


def test_a_million_values_across_the_exponent_range():
    rng = np.random.default_rng(20261018)
    size = 1_000_000
    exponents = rng.integers(-300, 301, size).astype(float)
    values = rng.uniform(1.0, 10.0, size) * 10.0**exponents * rng.choice([-1.0, 1.0], size)
    assert_matches_python(values.tolist())


def test_special_values_and_sizes():
    assert format_g10(np.array([])).shape == (0, WIDTH)
    assert rendered([0.345]) == ["0.345"]
    assert rendered([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0]) == ["nan", "nan", "inf", "-inf", "0", "-0"]
