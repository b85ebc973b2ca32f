"""Genotype mapping: bit lengths, decoding, encoding."""

import math

import numpy as np
import pytest

from ecsqp.encoding import (
    DECODE_BLOCK,
    FLOAT32_BIT_LENGTH,
    EncodingSpec,
    VariableSpec,
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
        assert VariableSpec(0.0, upper, 1.0).bit_length == 11
        assert EncodingSpec.for_bounds([0.0], [upper], 1.0).total_length == 11

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
        spec = EncodingSpec(
            variables=(
                VariableSpec(0.0, 1.0, 1.0),
                VariableSpec(-5.0, 5.0, 0.01),
                VariableSpec(-500.0, 500.0, 0.01),
                VariableSpec(0.0, 10.0, 1e-9),
                VariableSpec(-1.0, 1.0, 2.0**-52),
            )
        )
        assert [v.bit_length for v in spec.variables] == [1, 10, 17, 34, 53]

        def per_field_loop(mat):
            out = np.empty((mat.shape[0], spec.dimension))
            start = 0
            for i, var in enumerate(spec.variables):
                l = var.bit_length
                field = mat[:, start : start + l].astype(np.int64)
                codes = field @ (2 ** np.arange(l - 1, -1, -1)).astype(np.int64)
                out[:, i] = var.lower + (var.upper - var.lower) * (codes / (2**l - 1))
                start += l
            return out

        mat = random_bits(spec.total_length, 500, rng)
        mat[0] = 0
        mat[1] = 1
        np.testing.assert_array_equal(decode_batch(mat, spec), per_field_loop(mat))

    def test_fields_up_to_24_bits_decode_exactly_in_float32(self, rng):
        # widths 1..24: precision span / (2**w - 0.5) derives w bits
        fields = [(-0.3 * w, 0.7 * w + 0.1) for w in range(1, 25)]
        spec = EncodingSpec(tuple(
            VariableSpec(lo, up, (up - lo) / (2**w - 0.5))
            for w, (lo, up) in enumerate(fields, start=1)
        ))
        assert [v.bit_length for v in spec.variables] == list(range(1, 25))
        assert spec._decoder[0].dtype == np.float32

        def reference(row):
            # exact codes as Python ints; int / int is correctly rounded
            out, start = [], 0
            for v in spec.variables:
                code = int("".join(map(str, row[start : start + v.bit_length])), 2)
                out.append(v.lower + (v.upper - v.lower) * (code / (2**v.bit_length - 1)))
                start += v.bit_length
            return out

        mat = random_bits(spec.total_length, 400, rng)
        mat[0] = 0
        mat[1] = 1
        mat[2] = np.arange(spec.total_length) % 2
        ends = np.cumsum([v.bit_length for v in spec.variables])
        # every other field all ones, the rest all zeros, and the reverse
        field_index = np.searchsorted(ends, np.arange(spec.total_length), side="right")
        mat[3] = field_index % 2
        mat[4] = 1 - mat[3]
        got = decode_batch(mat, spec)
        assert got.dtype == np.float64
        want = np.array([reference(row) for row in mat])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_a_25_bit_field_keeps_float64(self):
        spec = EncodingSpec((
            VariableSpec(0.0, 1.0, 1.0 / (2**25 - 0.5)),
            VariableSpec(-5.0, 5.0, 0.01),
        ))
        assert [v.bit_length for v in spec.variables] == [25, 10]
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
        l = spec.variables[0].bit_length
        codes = np.arange(2**l)
        mat = ((codes[:, None] >> np.arange(l - 1, -1, -1)) & 1).astype(np.uint8)
        values = decode_batch(mat, spec)[:, 0]
        assert np.all(np.diff(values) > 0)


def width_spec(widths) -> EncodingSpec:
    """A spec whose fields have the given bit widths (and distinct ranges):
    precision span / (2**w - 0.5) derives w bits."""
    bounds = [(-0.3 * w - i, 0.7 * w + 0.1 + i) for i, w in enumerate(widths)]
    spec = EncodingSpec(tuple(
        VariableSpec(lo, up, (up - lo) / (2**w - 0.5)) for (lo, up), w in zip(bounds, widths)
    ))
    assert [v.bit_length for v in spec.variables] == list(widths)
    return spec


def dense_decode(mat: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """The decode as a product with the dense ``(L, n)`` place-value matrix
    whose column i holds field i's powers of two and zeros elsewhere (float32
    while no field is wider than 24 bits), kept as the oracle."""
    widths = [v.bit_length for v in spec.variables]
    exact_in_float32 = max(widths) <= FLOAT32_BIT_LENGTH
    W = np.zeros((spec.total_length, spec.dimension),
                 dtype=np.float32 if exact_in_float32 else np.float64)
    start = 0
    for i, w in enumerate(widths):
        W[start:start + w, i] = 2.0 ** np.arange(w - 1, -1, -1)
        start += w
    lower = np.array([v.lower for v in spec.variables])
    span = np.array([v.upper - v.lower for v in spec.variables])
    denom = np.array([2.0**w - 1 for w in widths])
    return lower + span * ((mat @ W) / denom)


def edge_rows(mat: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """``mat`` with its first rows all zeros, all ones, and alternately whole
    fields of zeros and of ones."""
    field = np.repeat(np.arange(spec.dimension), [v.bit_length for v in spec.variables])
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
        spec = EncodingSpec(variables=(VariableSpec(0.0, 3.0, 1.0),))
        # grid {0, 1, 2, 3}; 1.5 sits exactly between codes 1 and 2
        np.testing.assert_array_equal(encode([1.5], spec), bits("01"))

    def test_nearest_grid_point_error_bound(self, rng):
        spec = EncodingSpec.for_bounds([-5.0], [5.0], 0.01)
        var = spec.variables[0]
        step = (var.upper - var.lower) / (2**var.bit_length - 1)  # grid spacing
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


class TestSpecs:
    def test_total_length_sums_fields(self):
        spec = EncodingSpec.for_bounds([-5.0, -500.0], [5.0, 500.0], 0.01)
        assert spec.total_length == 10 + 17
        assert spec.dimension == 2

    def test_bit_length_is_derived_only(self):
        assert VariableSpec(0.0, 1.0, 0.01).bit_length == 7
        with pytest.raises(TypeError):
            VariableSpec(0.0, 1.0, 0.01, bit_length=3)

    def test_fields_wider_than_53_bits_rejected(self):
        assert VariableSpec(0.0, 1.0, 2.0**-53).bit_length == 53
        with pytest.raises(ValueError, match="exceeds 53"):
            VariableSpec(0.0, 1.0, 2.0**-54)  # derived width 54
