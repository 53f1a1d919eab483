import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curator import csvtext
from curator.samplers import _CSV_BLOCK_ROWS, SampleSet


def cpython_text(block, int_columns):
    """The reference: CPython's ``%d`` and ``%.17g`` of every cell."""
    return "".join(
        ",".join(["%d" % v for v in row[:int_columns]] + ["%.17g" % v for v in row[int_columns:]])
        + "\n"
        for row in block.tolist()
    ).encode()


def float_lines(values):
    """format_block's text of one %.17g column, as lines."""
    return csvtext.format_block(np.asarray(values, dtype=np.float64)[:, None], 0).decode().splitlines()


def covered(values):
    """Which values the %.17g kernel formats itself, not the row fallback."""
    v = np.asarray(values, dtype=np.float64)[None, :]
    return csvtext._float_slots(v, np.empty((csvtext._FLOAT_SLOTS - 1, *v.shape), np.uint8))[0]


def assert_formats(values):
    values = np.asarray(values, dtype=np.float64)
    assert float_lines(values) == ["%.17g" % v for v in values.tolist()]


def neighbours(x, ulps):
    """x and the ``ulps`` doubles on either side of it."""
    up, down, out = x, x, [x]
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


class TestFloatKernel:
    def test_every_exponent_and_trailing_zero_count(self):
        rng = np.random.default_rng(0)
        values = []
        for e in range(-6, 17):
            for zeros in range(17):
                digits = rng.integers(10**16, 10**17, size=8) // 10**zeros * 10**zeros
                values += [float(f"{d}e{e - 16}") for d in digits.tolist()]
        values = np.array(values)
        assert_formats(values)
        assert_formats(-values)
        # the kernel, not the fallback, prints all but a few of them
        assert covered(values).mean() > 0.99

    def test_ties_at_the_18th_digit_round_half_to_even(self):
        # N / 2^17 with N odd has exactly 18 significant digits, the last a 5
        rng = np.random.default_rng(1)
        n = rng.integers(2**16, 5 * 2**17, size=20000) * 2 + 1
        n = np.concatenate([n, [2**17 + 1, 10 * 2**17 - 1]])
        values = n / 2.0**17
        assert all(("%.18g" % v).endswith("5") for v in values.tolist())
        assert_formats(values)
        assert covered(values).all()
        # N * 5^17 ends in 25 or 75, so the 17th digit is a 2 that stays, or a 7
        # that rounds up to 8: both sides of a tie occur
        assert {("%.18g" % v)[-2] for v in values.tolist()} == {"2", "7"}

    def test_powers_of_ten_and_their_neighbours(self):
        values = [x for k in range(-9, 20) for x in neighbours(float(f"1e{k}"), 40)]
        assert_formats(values)
        assert_formats(np.negative(values))
        # exact at 17 digits is 9.9999999999999995e-07; checking the rounded
        # digits' range, not the exact product's, prints 1e-06
        assert float_lines([1e-06]) == ["9.9999999999999995e-07"]

    def test_values_that_round_up_a_power_of_ten(self):
        # the largest doubles below 10^k, and values whose 17 digits carry into
        # an 18th: the kernel must print these as CPython does or leave them
        values = [np.nextafter(float(f"1e{k}"), 0.0) for k in range(-7, 18)]
        values += [float(f"{d}e{k}") for k in range(-7, 17) for d in ("9.99999999999999995", "9.9999999999999999")]
        assert_formats(values)

    def test_zeros_subnormals_infinities_and_nan(self):
        tiny = np.finfo(np.float64).smallest_normal
        values = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0.0),
                  np.inf, -np.inf, np.nan, -np.nan, np.finfo(np.float64).max]
        assert_formats(values)
        assert float_lines([0.0, -0.0]) == ["0", "-0"]
        assert covered([0.0, -0.0]).all()
        assert not covered([5e-324, np.inf, -np.inf, np.nan]).any()

    def test_the_exponent_range_is_covered(self):
        rng = np.random.default_rng(2)
        values = rng.choice([-1.0, 1.0], size=50000) * 10.0 ** rng.uniform(-5.99, 16.99, size=50000)
        assert_formats(values)
        assert covered(values).mean() > 0.999
        # past the range every value falls back
        assert not covered([1e-7, 9e-8, 1e17, 1e300]).any()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_any_double(self, values):
        assert_formats(values)


class TestIntKernel:
    EDGES = [0.0, -0.0, 0.5, -0.5, 9.99, -9.99, 10.0, 123.0, 2.0**31, 1e9, 1e10 - 1, -(1e10 - 1),
             1e10 - 0.5, 1e10, -1e10, 1e10 + 1, 2.0**53, 1e15]

    def test_at_and_past_the_fast_width(self):
        block = np.array(self.EDGES)[:, None]
        assert csvtext.format_block(block, 1) == cpython_text(block, 1)
        ok = csvtext._int_slots(block.T, np.empty((csvtext._INT_SLOTS - 1, *block.T.shape), np.uint8))
        np.testing.assert_array_equal(ok[0], np.abs(np.trunc(block[:, 0])) < 1e10)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10**12, 10**12) | st.floats(-1e11, 1e11), min_size=1, max_size=30))
    def test_any_integer(self, values):
        block = np.array(values, dtype=np.float64)[:, None]
        assert csvtext.format_block(block, 1) == cpython_text(block, 1)

    def test_nan_in_an_int_column_raises_as_the_template_does(self):
        with pytest.raises(ValueError):
            "%d" % float("nan")
        with pytest.raises(ValueError):
            csvtext.format_block(np.array([[1.0, 0.5], [np.nan, 0.5]]), 1)


def sample_table(rows, seed=0):
    rng = np.random.default_rng(seed)
    data = np.empty((rows, 11))
    data[:, :4] = rng.integers(0, 1000, size=(rows, 4))
    data[:, 4:7] = data[:, 1:4] / 999
    data[:, 7:] = rng.normal(size=(rows, 4)) * 10.0 ** rng.integers(-8, 18, size=(rows, 4))
    columns = ["t", "i", "j", "k", "x", "y", "z", "u", "v", "w", "wz"]
    return SampleSet(columns=columns, data=data)


class TestToCsv:
    @pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
    def test_block_edges(self, tmp_path, rows):
        s = sample_table(rows, seed=rows)
        s.to_csv(tmp_path / "s.csv")
        header = (",".join(s.columns) + "\n").encode()
        assert (tmp_path / "s.csv").read_bytes() == header + cpython_text(s.data, 4)

    def test_no_runtime_warning(self, tmp_path):
        s = sample_table(64)
        tiny = np.finfo(np.float64).smallest_normal
        specials = [0.0, -0.0, 5e-324, -tiny / 3, np.inf, -np.inf, np.nan, 1e-320]
        s.data[:len(specials), 7] = specials
        s.data[:len(specials), 4] = specials[::-1]
        s.data[:2, :4] = -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s.to_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes().split(b"\n", 1)[1] == cpython_text(s.data, 4)
