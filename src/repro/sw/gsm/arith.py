"""GSM 06.10 fixed-point arithmetic primitives.

The full-rate codec is specified (ETSI GSM 06.10) in terms of saturating
16/32-bit fixed-point operations.  These helpers reproduce the reference
semantics: ``add``/``sub`` saturate to 16 bits, ``l_add``/``l_sub`` to 32
bits, ``mult_r`` is the rounded Q15 multiply, ``gsm_div`` the fractional
divide, ``norm`` the normalisation shift count of a 32-bit value.

Keeping the arithmetic faithful matters for the reproduction: the encoder's
output parameters (LARs, LTP lags/gains, RPE pulses) only take sensible
values when the saturation behaviour matches the spec.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from typing import Iterable, List, Sequence

MIN_WORD = -32768
MAX_WORD = 32767
MIN_LONGWORD = -(1 << 31)
MAX_LONGWORD = (1 << 31) - 1


def saturate(value: int) -> int:
    """Clamp to the signed 16-bit range."""
    if value > MAX_WORD:
        return MAX_WORD
    if value < MIN_WORD:
        return MIN_WORD
    return value


def saturate_each(values: Iterable[int]) -> List[int]:
    """:func:`saturate` applied to every value of a sequence."""
    return [MAX_WORD if value > MAX_WORD else MIN_WORD if value < MIN_WORD else value
            for value in values]


def saturate_long(value: int) -> int:
    """Clamp to the signed 32-bit range."""
    if value > MAX_LONGWORD:
        return MAX_LONGWORD
    if value < MIN_LONGWORD:
        return MIN_LONGWORD
    return value


def add(a: int, b: int) -> int:
    """Saturating 16-bit addition."""
    return saturate(a + b)


def sub(a: int, b: int) -> int:
    """Saturating 16-bit subtraction."""
    return saturate(a - b)


def l_add(a: int, b: int) -> int:
    """Saturating 32-bit addition."""
    return saturate_long(a + b)


def l_sub(a: int, b: int) -> int:
    """Saturating 32-bit subtraction."""
    return saturate_long(a - b)


def mult(a: int, b: int) -> int:
    """Q15 multiply: ``(a*b) >> 15``; -32768*-32768 saturates to 32767."""
    return saturate((a * b) >> 15)


def mult_r(a: int, b: int) -> int:
    """Rounded Q15 multiply."""
    return saturate((a * b + 16384) >> 15)


def l_mult(a: int, b: int) -> int:
    """32-bit Q31 multiply: ``(a*b) << 1``; -32768*-32768 saturates."""
    return saturate_long((a * b) << 1)


def abs_s(a: int) -> int:
    """Saturating absolute value (|−32768| = 32767)."""
    if a == MIN_WORD:
        return MAX_WORD
    return -a if a < 0 else a


def asl(a: int, shift: int) -> int:
    """Arithmetic shift left of a 16-bit word (negative shift = right)."""
    if shift >= 16:
        return 0 if a == 0 else (MAX_WORD if a > 0 else MIN_WORD)
    if shift <= -16:
        return -1 if a < 0 else 0
    if shift < 0:
        return asr(a, -shift)
    return saturate(a << shift)


def asr(a: int, shift: int) -> int:
    """Arithmetic shift right of a 16-bit word (negative shift = left)."""
    if shift >= 16:
        return -1 if a < 0 else 0
    if shift < 0:
        return asl(a, -shift)
    # Python's >> is already an arithmetic shift for negative integers.
    return a >> shift


def l_asl(a: int, shift: int) -> int:
    """Arithmetic shift left of a 32-bit word."""
    if shift >= 32:
        return 0 if a == 0 else (MAX_LONGWORD if a > 0 else MIN_LONGWORD)
    if shift <= -32:
        return -1 if a < 0 else 0
    if shift < 0:
        return l_asr(a, -shift)
    return saturate_long(a << shift)


def l_asr(a: int, shift: int) -> int:
    """Arithmetic shift right of a 32-bit word."""
    if shift >= 32:
        return -1 if a < 0 else 0
    if shift < 0:
        return l_asl(a, -shift)
    return a >> shift


def norm(a: int) -> int:
    """Number of left shifts needed to normalise a non-zero 32-bit value."""
    if a == 0:
        raise ValueError("norm() of zero is undefined in GSM 06.10")
    if a == MIN_LONGWORD:
        return 0
    if a < 0:
        a = ~a
        if a == 0:
            return 31
    count = 0
    while a < 0x40000000:
        a <<= 1
        count += 1
    return count


def gsm_div(numerator: int, denominator: int) -> int:
    """Fractional division: num/den in Q15 with 0 <= num <= den, den > 0."""
    if numerator == 0:
        return 0
    if denominator <= 0 or numerator < 0 or numerator > denominator:
        raise ValueError("gsm_div requires 0 <= num <= den and den > 0")
    result = 0
    num = numerator
    for _ in range(15):
        result <<= 1
        num <<= 1
        if num >= denominator:
            num -= denominator
            result += 1
    return result


def correlate(x: Sequence[int], y: Sequence[int]) -> List[int]:
    """Exact cross-correlation ``c[j] = sum(x[k] * y[j + k])`` of 16-bit words.

    One value per full overlap, ``j = 0 .. len(y) - len(x)``, computed with
    a single big-integer multiply (Kronecker substitution).  Each word is
    biased by 2**15 into [0, 2**16) and each sequence is packed as base
    2**64 digits, ``x`` reversed, so digit ``len(x) - 1 + j`` of the product
    is ``sum((x[k] + 2**15) * (y[j + k] + 2**15))``.  That digit is a sum of
    at most ``len(x)`` products below 2**32, so it stays below 2**64 and no
    digit carries into the next one for any ``len(x) < 2**32``.  Removing
    the bias leaves ``c[j]`` minus ``2**15 * (sum(x) + window_sum(y, j))``
    minus ``len(x) * 2**30``; the window sums come from a prefix sum of
    ``y``.  The digit argument needs every word in [-32768, 32767], so
    other values are rejected.
    """
    n, m = len(x), len(y)
    if not 0 < n <= m:
        raise ValueError("correlate() needs 0 < len(x) <= len(y)")
    if min(min(x), min(y)) < MIN_WORD or max(max(x), max(y)) > MAX_WORD:
        raise ValueError("correlate() takes 16-bit words only")
    bias = 1 << 15
    packed_x = array("Q", [value + bias for value in reversed(x)]).tobytes()
    packed_y = array("Q", [value + bias for value in y]).tobytes()
    product = (int.from_bytes(packed_x, sys.byteorder)
               * int.from_bytes(packed_y, sys.byteorder))
    digits = array("Q")
    digits.frombytes(product.to_bytes(8 * (n + m), sys.byteorder))
    prefix = list(accumulate(y, initial=0))
    constant = bias * (sum(x) + n * bias)
    return [digits[n - 1 + j] - bias * (prefix[j + n] - prefix[j]) - constant
            for j in range(m - n + 1)]
