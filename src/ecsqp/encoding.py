"""Real <-> binary genotype mapping for bounded continuous variables.

Each decision variable is stored as an unsigned big-endian bit field whose
length is derived from the variable's range and precision requirement.  A
chromosome is a uint8 row of 0/1 values that concatenates the fields of all
variables; a population is an ``(N, L)`` matrix of such rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "EncodingSpec",
    "VariableSpec",
    "compute_bit_length",
    "decode",
    "decode_batch",
    "encode",
    "random_bits",
]

#: Widest field whose integer codes float64 holds exactly; decoding relies on it.
MAX_BIT_LENGTH = 53
#: Widest field whose integer codes float32 holds exactly.
FLOAT32_BIT_LENGTH = 24
#: Fields per place-value product in :func:`decode_batch`, below the size at
#: which OpenBLAS runs a product on several threads.
DECODE_BLOCK = 8192


def compute_bit_length(lower: float, upper: float, precision: float) -> int:
    """Smallest bit count ``l`` with ``(upper - lower) / precision <= 2**l``.

    At least one bit is always allocated, so degenerate ranges that would fit
    in zero bits still produce a usable field.  When the ratio is an exact
    power of two the smaller admissible ``l`` is returned.  ``math.log2`` can
    round a ratio just above ``2**l`` down to ``l``; that case gets ``l + 1``.
    """
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    if not precision > 0:
        raise ValueError(f"precision must be positive, got {precision}")
    ratio = (float(upper) - float(lower)) / float(precision)  # overflows to inf, unwarned
    if not math.isfinite(ratio):
        raise ValueError(f"range [{lower}, {upper}] over precision {precision} is not finite")
    l = max(1, math.ceil(math.log2(ratio)))
    return l + 1 if ratio > 2**l else l


@dataclass(frozen=True)
class VariableSpec:
    """Range, precision and bit budget of one encoded variable.

    ``bit_length`` is derived from the precision requirement via
    :func:`compute_bit_length`.
    """

    lower: float
    upper: float
    precision: float
    bit_length: int = field(init=False)

    def __post_init__(self) -> None:
        l = compute_bit_length(self.lower, self.upper, self.precision)
        if l > MAX_BIT_LENGTH:
            raise ValueError(
                f"bit_length {l} exceeds {MAX_BIT_LENGTH}, the widest field "
                "decoded exactly in float64"
            )
        object.__setattr__(self, "bit_length", l)


@dataclass(frozen=True)
class EncodingSpec:
    """Ordered variable layout of a chromosome."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("EncodingSpec needs at least one variable")
        object.__setattr__(self, "variables", tuple(self.variables))

    @classmethod
    def for_bounds(cls, lower, upper, precision) -> "EncodingSpec":
        """Build a spec from bound vectors and a scalar or per-variable precision."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("lower/upper length mismatch")
        prec = np.broadcast_to(np.asarray(precision, dtype=float), lower.shape)
        return cls(
            tuple(
                VariableSpec(lo, up, p)
                for lo, up, p in zip(lower, upper, prec, strict=True)
            )
        )

    @cached_property
    def total_length(self) -> int:
        return sum(v.bit_length for v in self.variables)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    @cached_property
    def _decoder(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray,
                                np.ndarray]:
        """``(powers, spread, lower, span, denom)`` for decoding field by field.

        ``powers`` is the ``(w,)`` place-value vector of the widest field
        (big-endian: the first bit is the most significant), and a row's
        fields, each left-padded with zero bits to width ``w``, decode as
        ``row.reshape(n, w) @ powers``.  ``spread`` is None when every field
        is ``w`` bits wide; otherwise it holds each bit's column in the
        ``n * w`` padded row.  Every code is an integer below 2**53, so the
        product is exact in float64.  When no field is wider than 24 bits,
        ``powers`` is float32: every partial sum is then an integer below
        2**24, so the float32 product is exact too, and dividing it by the
        float64 ``denom`` gives the float64 result bit for bit.
        """
        widths = np.array([v.bit_length for v in self.variables])
        w = int(widths.max())
        powers = 2.0 ** np.arange(w - 1, -1, -1)
        if w <= FLOAT32_BIT_LENGTH:
            powers = powers.astype(np.float32)
        spread = None
        if (widths < w).any():  # field i's bits shift right by its padding and all before it
            spread = np.arange(self.total_length) + np.repeat(np.cumsum(w - widths), widths)
        lower = np.array([v.lower for v in self.variables])
        span = np.array([v.upper - v.lower for v in self.variables])
        denom = 2.0**widths - 1
        return powers, spread, lower, span, denom


def random_bits(length: int, count: int, rng) -> np.ndarray:
    """Uniform random ``(count, length)`` bit matrix; ``(R, count, length)``
    from the R generators of an :class:`ecsqp.evolution.RunStreams`."""
    return rng.integers(0, 2, size=(count, length), dtype=np.uint8)


def decode_batch(bits: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """Decode a ``(m, L)`` bit matrix into a ``(m, n)`` matrix of reals.

    The fields go through the place-value product in blocks of
    :data:`DECODE_BLOCK`, which keeps each product below the size at which
    the BLAS starts threads.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("expected a 2-D bit matrix")
    if bits.shape[1] != spec.total_length:
        raise ValueError(
            f"chromosome length {bits.shape[1]} does not match encoding length "
            f"{spec.total_length}"
        )
    powers, spread, lower, span, denom = spec._decoder
    m, n, w = bits.shape[0], spec.dimension, powers.shape[0]
    if spread is not None:
        padded = np.zeros((m, n * w), dtype=np.uint8)
        padded[:, spread] = bits
        bits = padded
    fields = bits.reshape(m * n, w)
    codes = np.empty(m * n, dtype=powers.dtype)
    for start in range(0, m * n, DECODE_BLOCK):
        stop = start + DECODE_BLOCK
        np.matmul(fields[start:stop], powers, out=codes[start:stop])
    x = codes.reshape(m, n) / denom
    x *= span
    x += lower
    return x


def decode(bits: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """Decode one length-L bit row into its real-valued phenotype vector."""
    return decode_batch(bits[None, :], spec)[0]


def encode(x, spec: EncodingSpec) -> np.ndarray:
    """Nearest-grid-point inverse of :func:`decode`, as a uint8 bit row.

    Values marginally outside a variable's range (by at most its precision)
    are clamped; anything further out raises.  Midpoint ties round toward the
    smaller integer code.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dimension,):
        raise ValueError(f"expected vector of length {spec.dimension}, got {x.shape}")
    fields = []
    for xi, var in zip(x, spec.variables, strict=True):
        if xi < var.lower - var.precision or xi > var.upper + var.precision:
            raise ValueError(
                f"value {xi} outside [{var.lower}, {var.upper}] beyond clamp tolerance"
            )
        xi = min(max(xi, var.lower), var.upper)
        denom = 2**var.bit_length - 1
        t = (xi - var.lower) / (var.upper - var.lower) * denom
        code = int(math.ceil(t - 0.5))  # round half down
        code = min(max(code, 0), denom)
        digits = (code >> np.arange(var.bit_length - 1, -1, -1)) & 1
        fields.append(digits.astype(np.uint8))
    return np.concatenate(fields)
