"""Genotype mapping: bit lengths, decoding, encoding."""

import math

import numpy as np
import pytest

from ecsqp.encoding import (
    DECODE_BLOCK,
    FLOAT32_BIT_LENGTH,
    EncodingSpec,
    compute_bit_length,
    decode,
    decode_batch,
    encode,
    random_bits,
)


def bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestComputeBitLength:
    def test_worked_range(self):
        # 1000 grid cells fit in 10 bits: 2^9 <= 1000 <= 2^10
        assert compute_bit_length(-5.0, 5.0, 0.01) == 10

    def test_single_interval_pins_one_bit(self):
        assert compute_bit_length(0.0, 1.0, 1.0) == 1

    def test_wide_range(self):
        # smallest l with 2^l >= 100000, confirmed by brute force
        ratio = 100000
        expected = next(l for l in range(1, 64) if 2**l >= ratio)
        assert compute_bit_length(-500.0, 500.0, 0.01) == expected == 17

    def test_exact_power_takes_smaller_length(self):
        assert compute_bit_length(-5.12, 5.12, 0.01) == 10  # ratio exactly 1024

    def test_ratio_one_ulp_above_a_power_takes_the_next_length(self):
        # math.log2 rounds 1024 plus one ulp down to exactly 10
        upper = 1024.0000000000002
        assert upper > 2**10 and math.log2(upper) == 10.0
        assert compute_bit_length(0.0, upper, 1.0) == 11
        spec = EncodingSpec.for_bounds([0.0], [upper], 1.0)
        assert spec.widths.tolist() == [11] and spec.total_length == 11

    def test_both_inequality_sides_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lo = rng.uniform(-100, 0)
            hi = lo + rng.uniform(0.5, 300)
            p = rng.uniform(1e-4, 0.5)
            l = compute_bit_length(lo, hi, p)
            ratio = (hi - lo) / p
            assert ratio <= 2**l
            if l > 1:
                assert 2 ** (l - 1) <= ratio

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            compute_bit_length(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            compute_bit_length(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            compute_bit_length(2.0, 1.0, 0.1)

    @pytest.mark.parametrize("lower, upper, precision", [
        (0.0, 1.0, 1e-320), (-1.7e308, 1.7e308, 1.0), (0.0, math.inf, 1.0),
    ])
    def test_ratio_past_the_float_range_raises(self, lower, upper, precision):
        # math.log2(inf) would raise OverflowError, which no caller turns into a config error
        with pytest.raises(ValueError, match="not finite"):
            compute_bit_length(lower, upper, precision)


class TestDecode:
    def test_worked_example_follows_mapping_formula(self):
        # 1011000010 encodes the integer 706; the range map places it at
        # -5 + 10/1023 * 706.  (A published version of this example prints
        # -4.37, which actually corresponds to the integer 64.)
        spec = EncodingSpec.for_bounds([-5.0], [5.0], 0.01)
        c = bits("1011000010")
        assert int("1011000010", 2) == 706
        expected = -5.0 + 10.0 / 1023.0 * 706
        assert decode(c, spec)[0] == pytest.approx(expected, abs=1e-12)
        assert decode(bits("0001000000"), spec)[0] == pytest.approx(-4.37, abs=0.005)

    def test_all_zero_hits_lower_bound(self):
        spec = EncodingSpec.for_bounds([-5.0, -500.0], [5.0, 500.0], 0.01)
        x = decode(np.zeros(spec.total_length, dtype=np.uint8), spec)
        assert x[0] == -5.0 and x[1] == -500.0

    def test_all_one_hits_upper_bound(self):
        spec = EncodingSpec.for_bounds([-5.0, -500.0], [5.0, 500.0], 0.01)
        x = decode(np.ones(spec.total_length, dtype=np.uint8), spec)
        assert x[0] == 5.0 and x[1] == 500.0

    def test_length_mismatch(self):
        spec = EncodingSpec.for_bounds([-5.0], [5.0], 0.01)
        with pytest.raises(ValueError):
            decode(bits("101"), spec)

    def test_batch_agrees_with_single(self, rng):
        spec = EncodingSpec.for_bounds([-15.0, 0.0, -5.0], [30.0, 2.0, 5.0], 0.01)
        mat = random_bits(spec.total_length, 50, rng)
        batch = decode_batch(mat, spec)
        for i in range(50):
            np.testing.assert_array_equal(batch[i], decode(mat[i], spec))

    def test_matmul_is_bitwise_equal_to_per_field_loop(self, rng):
        # widths 1, 10, 17, 34 and 53 bits; 53 is the widest field allowed
        spec = EncodingSpec.for_bounds(
            [0.0, -5.0, -500.0, 0.0, -1.0], [1.0, 5.0, 500.0, 10.0, 1.0],
            [1.0, 0.01, 0.01, 1e-9, 2.0**-52],
        )
        assert spec.widths.tolist() == [1, 10, 17, 34, 53]

        def per_field_loop(mat):
            out = np.empty((mat.shape[0], spec.dimension))
            start = 0
            for i, (lo, up, l) in enumerate(zip(spec.lower, spec.upper, spec.widths)):
                field = mat[:, start : start + l].astype(np.int64)
                codes = field @ (2 ** np.arange(l - 1, -1, -1)).astype(np.int64)
                out[:, i] = lo + (up - lo) * (codes / (2**l - 1))
                start += l
            return out

        mat = random_bits(spec.total_length, 500, rng)
        mat[0] = 0
        mat[1] = 1
        np.testing.assert_array_equal(decode_batch(mat, spec), per_field_loop(mat))

    def test_fields_up_to_24_bits_decode_exactly_in_float32(self, rng):
        # widths 1..24: precision span / (2**w - 0.5) derives w bits
        lower = np.array([-0.3 * w for w in range(1, 25)])
        upper = np.array([0.7 * w + 0.1 for w in range(1, 25)])
        spec = EncodingSpec.for_bounds(lower, upper,
                                       (upper - lower) / (2.0 ** np.arange(1, 25) - 0.5))
        assert spec.widths.tolist() == list(range(1, 25))
        assert spec._decoder[0].dtype == np.float32

        def reference(row):
            # exact codes as Python ints; int / int is correctly rounded
            out, start = [], 0
            for lo, up, l in zip(spec.lower.tolist(), spec.upper.tolist(), spec.widths.tolist()):
                code = int("".join(map(str, row[start : start + l])), 2)
                out.append(lo + (up - lo) * (code / (2**l - 1)))
                start += l
            return out

        mat = random_bits(spec.total_length, 400, rng)
        mat[0] = 0
        mat[1] = 1
        mat[2] = np.arange(spec.total_length) % 2
        ends = np.cumsum(spec.widths)
        # every other field all ones, the rest all zeros, and the reverse
        field_index = np.searchsorted(ends, np.arange(spec.total_length), side="right")
        mat[3] = field_index % 2
        mat[4] = 1 - mat[3]
        got = decode_batch(mat, spec)
        assert got.dtype == np.float64
        want = np.array([reference(row) for row in mat])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_a_25_bit_field_keeps_float64(self):
        spec = EncodingSpec.for_bounds([0.0, -5.0], [1.0, 5.0], [1.0 / (2**25 - 0.5), 0.01])
        assert spec.widths.tolist() == [25, 10]
        assert spec._decoder[0].dtype == np.float64
        # codes from 2**24 up, where float32 no longer holds every integer
        codes = [2**24, 2**24 + 1, 2**24 + 3, 2**25 - 3, 2**25 - 1]
        mat = np.zeros((len(codes), spec.total_length), np.uint8)
        for row, code in zip(mat, codes):
            row[:25] = (code >> np.arange(24, -1, -1)) & 1
        np.testing.assert_array_equal(
            decode_batch(mat, spec)[:, 0], [code / (2**25 - 1) for code in codes]
        )

    def test_monotone_in_integer_code(self):
        spec = EncodingSpec.for_bounds([2.0], [7.0], 0.01)
        l = int(spec.widths[0])
        codes = np.arange(2**l)
        mat = ((codes[:, None] >> np.arange(l - 1, -1, -1)) & 1).astype(np.uint8)
        values = decode_batch(mat, spec)[:, 0]
        assert np.all(np.diff(values) > 0)


def width_spec(widths) -> EncodingSpec:
    """A spec whose fields have the given bit widths (and distinct ranges):
    precision span / (2**w - 0.5) derives w bits."""
    bounds = [(-0.3 * w - i, 0.7 * w + 0.1 + i) for i, w in enumerate(widths)]
    lower, upper = np.array(bounds).T
    spec = EncodingSpec.for_bounds(lower, upper,
                                   (upper - lower) / (2.0 ** np.array(widths) - 0.5))
    assert spec.widths.tolist() == list(widths)
    return spec


def dense_decode(mat: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """The decode as a product with the dense ``(L, n)`` place-value matrix
    whose column i holds field i's powers of two and zeros elsewhere (float32
    while no field is wider than 24 bits), kept as the oracle."""
    widths = spec.widths.tolist()
    exact_in_float32 = max(widths) <= FLOAT32_BIT_LENGTH
    W = np.zeros((spec.total_length, spec.dimension),
                 dtype=np.float32 if exact_in_float32 else np.float64)
    start = 0
    for i, w in enumerate(widths):
        W[start:start + w, i] = 2.0 ** np.arange(w - 1, -1, -1)
        start += w
    denom = np.array([2.0**w - 1 for w in widths])
    return spec.lower + (spec.upper - spec.lower) * ((mat @ W) / denom)


def edge_rows(mat: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """``mat`` with its first rows all zeros, all ones, and alternately whole
    fields of zeros and of ones."""
    field = np.repeat(np.arange(spec.dimension), spec.widths)
    mat[0], mat[1] = 0, 1
    mat[2] = field % 2
    mat[3] = 1 - mat[2]
    return mat


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDecodeOracle:
    """The per-field decode in row blocks equals the dense place-value
    product bit for bit."""

    @pytest.mark.parametrize("width", range(1, 54))
    def test_every_width_equals_dense_oracle(self, width, rng):
        # widths 1-24 decode in float32, 25-53 in float64
        spec = width_spec([width] * 3)
        assert spec._decoder[0].dtype == (np.float32 if width <= 24 else np.float64)
        mat = edge_rows(random_bits(spec.total_length, 60, rng), spec)
        assert_bitwise(decode_batch(mat, spec), dense_decode(mat, spec))

    @pytest.mark.parametrize("widths", [
        (1, 10, 17, 34, 53), (24, 25), (25, 24, 1), (3, 1, 24), (13, 10, 13, 7),
    ])
    def test_unequal_widths_equal_dense_oracle(self, widths, rng):
        # shorter fields are left-padded with zero bits to the widest
        spec = width_spec(widths)
        assert spec._decoder[1] is not None
        mat = edge_rows(random_bits(spec.total_length, 200, rng), spec)
        assert_bitwise(decode_batch(mat, spec), dense_decode(mat, spec))

    @pytest.mark.parametrize("widths", [(13,) * 8, (13,) * 10, (17,) * 3, (24, 25), (5, 53, 2)])
    def test_row_counts_around_the_block_size_equal_dense_oracle(self, widths, rng):
        # a block holds DECODE_BLOCK fields: unless n divides it, a block
        # boundary falls inside a row
        spec = width_spec(widths)
        rows = DECODE_BLOCK // spec.dimension
        mat = edge_rows(random_bits(spec.total_length, 2 * rows + 2, rng), spec)
        want = dense_decode(mat, spec)
        for m in (1, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1, 2 * rows + 2):
            assert_bitwise(decode_batch(mat[:m], spec), want[:m])

    def test_empty_batch_decodes_to_no_rows(self):
        spec = width_spec((4, 9))
        assert decode_batch(np.zeros((0, 13), np.uint8), spec).shape == (0, 2)


class TestEncode:
    def test_lower_bounds_give_all_zero(self):
        spec = EncodingSpec.for_bounds([-5.0, -1.0], [5.0, 4.0], 0.01)
        c = encode([-5.0, -1.0], spec)
        assert c.dtype == np.uint8 and not c.any()

    def test_round_trip_is_exact(self, rng):
        # encode is the exact inverse of decode on every grid point
        spec = EncodingSpec.for_bounds([-5.0, -500.0], [5.0, 500.0], [0.01, 0.01])
        for _ in range(1000):
            c = random_bits(spec.total_length, 1, rng)[0]
            np.testing.assert_array_equal(encode(decode(c, spec), spec), c)

    def test_midpoint_ties_round_down(self):
        spec = EncodingSpec.for_bounds([0.0], [3.0], 1.0)
        # grid {0, 1, 2, 3}; 1.5 sits exactly between codes 1 and 2
        np.testing.assert_array_equal(encode([1.5], spec), bits("01"))

    def test_nearest_grid_point_error_bound(self, rng):
        spec = EncodingSpec.for_bounds([-5.0], [5.0], 0.01)
        step = 10.0 / (2 ** int(spec.widths[0]) - 1)  # grid spacing
        for _ in range(300):
            x = rng.uniform(-5.0, 5.0)
            back = decode(encode([x], spec), spec)[0]
            assert abs(back - x) <= step / 2 + 1e-12
            assert abs(back - x) <= 0.01 / 2 + 1e-12  # step is below the precision here

    def test_clamps_marginal_overshoot_only(self):
        spec = EncodingSpec.for_bounds([0.0], [1.0], 0.01)
        assert decode(encode([1.005], spec), spec)[0] == 1.0
        with pytest.raises(ValueError):
            encode([1.5], spec)


def loop_encode(x, spec: EncodingSpec) -> np.ndarray:
    """The encode as a loop over the variables, one Python integer code each,
    kept as the oracle."""
    fields = []
    for xi, lo, up, p, l in zip(np.asarray(x, dtype=float), spec.lower, spec.upper,
                                spec.precision, spec.widths.tolist(), strict=True):
        if xi < lo - p or xi > up + p:
            raise ValueError(f"value {xi} outside [{lo}, {up}] beyond clamp tolerance")
        xi = min(max(xi, lo), up)
        denom = 2**l - 1
        code = int(math.ceil((xi - lo) / (up - lo) * denom - 0.5))  # round half down
        code = min(max(code, 0), denom)
        fields.append(((code >> np.arange(l - 1, -1, -1)) & 1).astype(np.uint8))
    return np.concatenate(fields)


def encode_inputs(spec: EncodingSpec, rng, count: int) -> list[np.ndarray]:
    """Points to encode: random ones in range, grid points, grid points moved
    half a step either way (ties), and points past the bounds by up to twice
    the precision (clamped within one, raising beyond)."""
    lower, upper, p = spec.lower, spec.upper, spec.precision
    step = (upper - lower) / (2.0**spec.widths - 1)
    n = spec.dimension
    grid = decode_batch(random_bits(spec.total_length, count, rng), spec)
    past = rng.uniform(0.0, 2.0, (count, n)) * p
    return [*rng.uniform(lower, upper, (count, n)), *grid, *(grid + step / 2),
            *(grid - step / 2), *(lower - past), *(upper + past)]


class TestEncodeOracle:
    """The vectorized encode equals the per-variable loop bit for bit and
    raises where it does, with the same message."""

    @pytest.mark.parametrize("widths", [
        (1, 10, 17, 34, 53), (24, 25), (25, 24, 1), (53, 53), (10,) * 10, (17, 17),
    ])
    def test_equals_loop_oracle(self, widths, rng):
        spec = width_spec(widths)
        raised = 0
        for x in encode_inputs(spec, rng, 200):
            try:
                want = loop_encode(x, spec)
            except ValueError as err:
                raised += 1
                with pytest.raises(ValueError) as got:
                    encode(x, spec)
                assert str(got.value) == str(err)
                continue
            got = encode(x, spec)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
        assert 0 < raised < 1200

    def test_exact_midpoints_equal_loop_oracle(self):
        # codes are the values themselves: every k + 0.5 is a tie, to the smaller code
        spec = EncodingSpec.for_bounds([0.0, 0.0], [2.0**25 - 1, 1023.0], 1.0)
        assert spec.widths.tolist() == [25, 10]
        for k in (0, 1, 2, 511, 1021, 2**24, 2**25 - 2):
            x = [k + 0.5, min(k, 1022) + 0.5]
            np.testing.assert_array_equal(encode(x, spec), loop_encode(x, spec))
            np.testing.assert_array_equal(decode(encode(x, spec), spec), [k, min(k, 1022)])

    def test_first_offending_variable_raises(self):
        spec = width_spec((5, 12, 3))
        x = np.array([spec.lower[0], spec.upper[1] + 3 * spec.precision[1],
                      spec.lower[2] - 3 * spec.precision[2]])
        with pytest.raises(ValueError, match=f"value {x[1]} outside") as got:
            encode(x, spec)
        with pytest.raises(ValueError) as want:
            loop_encode(x, spec)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, value):
        spec = width_spec((10, 25))
        for i in range(2):
            x = (spec.lower + spec.upper) / 2
            x[i] = value
            with pytest.raises(ValueError, match="outside"):
                encode(x, spec)


class TestSpecs:
    def test_total_length_sums_fields(self):
        spec = EncodingSpec.for_bounds([-5.0, -500.0], [5.0, 500.0], 0.01)
        assert spec.total_length == 10 + 17
        assert spec.dimension == 2

    def test_widths_cannot_be_passed(self):
        assert EncodingSpec.for_bounds([0.0], [1.0], 0.01).widths.tolist() == [7]
        with pytest.raises(TypeError):
            EncodingSpec.for_bounds([0.0], [1.0], 0.01, widths=[3])
        with pytest.raises(TypeError):  # nor a spec built around for_bounds' checks
            EncodingSpec([0.0], [1.0], 0.01, [3])

    def test_fields_wider_than_53_bits_rejected(self):
        assert EncodingSpec.for_bounds([0.0], [1.0], 2.0**-53).widths.tolist() == [53]
        with pytest.raises(ValueError, match="exceeds 53"):
            EncodingSpec.for_bounds([0.0, 0.0], [1.0, 1.0], [0.1, 2.0**-54])  # derived width 54

    def test_grid_is_read_only_copies_of_the_bounds(self):
        lower, upper = np.array([-5.0, 0.0]), np.array([5.0, 2.0])
        spec = EncodingSpec.for_bounds(lower, upper, [0.01, 0.5])
        for grid in (spec.lower, spec.upper, spec.precision, spec.widths):
            assert grid.ndim == 1 and not grid.flags.writeable
        np.testing.assert_array_equal(spec.precision, [0.01, 0.5])
        np.testing.assert_array_equal(spec.widths, [10, 2])
        assert lower.flags.writeable and upper.flags.writeable
        lower[0] = -1.0
        assert spec.lower[0] == -5.0

    @pytest.mark.parametrize("lower, upper, precision", [
        ([], [], 0.1), ([0.0, 0.0], [1.0], 0.1), ([0.0, 0.0], [1.0, 1.0], [0.1, 0.1, 0.1]),
    ])
    def test_bad_shapes_rejected(self, lower, upper, precision):
        with pytest.raises(ValueError):
            EncodingSpec.for_bounds(lower, upper, precision)
