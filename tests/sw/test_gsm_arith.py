"""Tests for the GSM 06.10 fixed-point arithmetic primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sw.gsm import (
    MAX_LONGWORD,
    MAX_WORD,
    MIN_LONGWORD,
    MIN_WORD,
    abs_s,
    add,
    asl,
    asr,
    gsm_div,
    l_add,
    l_asl,
    l_asr,
    l_mult,
    l_sub,
    mult,
    mult_r,
    norm,
    saturate,
    sub,
)

words = st.integers(min_value=MIN_WORD, max_value=MAX_WORD)
longwords = st.integers(min_value=MIN_LONGWORD, max_value=MAX_LONGWORD)


class TestSaturatingAdd:
    def test_plain_addition(self):
        assert add(100, 200) == 300
        assert sub(100, 200) == -100

    def test_positive_saturation(self):
        assert add(30000, 10000) == MAX_WORD
        assert l_add(MAX_LONGWORD, 1) == MAX_LONGWORD

    def test_negative_saturation(self):
        assert add(-30000, -10000) == MIN_WORD
        assert sub(MIN_WORD, 1) == MIN_WORD
        assert l_sub(MIN_LONGWORD, 1) == MIN_LONGWORD

    @given(words, words)
    def test_add_always_in_range(self, a, b):
        assert MIN_WORD <= add(a, b) <= MAX_WORD
        assert MIN_WORD <= sub(a, b) <= MAX_WORD

    @given(longwords, longwords)
    def test_l_add_always_in_range(self, a, b):
        assert MIN_LONGWORD <= l_add(a, b) <= MAX_LONGWORD


class TestMultiplication:
    def test_mult_basic(self):
        assert mult(16384, 16384) == 8192  # 0.5 * 0.5 = 0.25 in Q15
        assert mult(MIN_WORD, MIN_WORD) == MAX_WORD

    def test_mult_r_rounds(self):
        assert mult_r(3, 3) == 0
        assert mult_r(MIN_WORD, MIN_WORD) == MAX_WORD
        assert mult_r(16384, 16384) == 8192

    def test_l_mult(self):
        assert l_mult(2, 3) == 12
        assert l_mult(MIN_WORD, MIN_WORD) == MAX_LONGWORD

    @given(words, words)
    def test_mult_in_range(self, a, b):
        assert MIN_WORD <= mult(a, b) <= MAX_WORD
        assert MIN_WORD <= mult_r(a, b) <= MAX_WORD
        assert MIN_LONGWORD <= l_mult(a, b) <= MAX_LONGWORD


class TestMinWordOperands:
    """-32768 * -32768 is the only product that leaves the Q15/Q31 range."""

    def test_min_word_squared_saturates(self):
        assert mult(MIN_WORD, MIN_WORD) == MAX_WORD
        assert mult_r(MIN_WORD, MIN_WORD) == MAX_WORD
        assert l_mult(MIN_WORD, MIN_WORD) == MAX_LONGWORD

    def test_min_word_with_other_operands_is_exact(self):
        assert mult(MIN_WORD, MAX_WORD) == -32767
        assert mult_r(MIN_WORD, MAX_WORD) == -32767
        assert l_mult(MIN_WORD, MAX_WORD) == -2147418112
        assert mult(MIN_WORD, 1) == -1
        assert mult_r(MIN_WORD, 1) == -1
        assert l_mult(MIN_WORD, 1) == -65536
        assert mult(MIN_WORD, -1) == 1
        assert mult_r(MIN_WORD, -1) == 1
        assert l_mult(MIN_WORD, -1) == 65536
        assert mult(MIN_WORD, 0) == mult_r(MIN_WORD, 0) == l_mult(MIN_WORD, 0) == 0


class TestAbsAndShifts:
    def test_abs_s(self):
        assert abs_s(-5) == 5
        assert abs_s(5) == 5
        assert abs_s(MIN_WORD) == MAX_WORD

    def test_asl_asr(self):
        assert asl(1, 3) == 8
        assert asl(MAX_WORD, 1) == MAX_WORD  # saturates
        assert asr(-8, 2) == -2
        assert asr(8, 2) == 2
        assert asl(4, -1) == 2  # negative shift flips direction
        assert asr(4, -1) == 8

    def test_extreme_shifts(self):
        assert asl(5, 20) == MAX_WORD
        assert asl(-5, 20) == MIN_WORD
        assert asl(0, 20) == 0
        assert asr(-1, 20) == -1
        assert asr(1, 20) == 0
        assert l_asl(1, 40) == MAX_LONGWORD
        assert l_asr(-1, 40) == -1

    @given(words, st.integers(min_value=-20, max_value=20))
    def test_asl_in_range(self, a, shift):
        assert MIN_WORD <= asl(a, shift) <= MAX_WORD
        assert MIN_WORD <= asr(a, shift) <= MAX_WORD


class TestNormAndDiv:
    def test_norm_known_values(self):
        assert norm(0x40000000) == 0
        assert norm(0x20000000) == 1
        assert norm(1) == 30
        assert norm(MIN_LONGWORD) == 0
        # Negative values are normalised via their one's complement (~-2 == 1).
        assert norm(-2) == 30

    def test_norm_zero_rejected(self):
        with pytest.raises(ValueError):
            norm(0)

    @given(longwords.filter(lambda v: v != 0))
    def test_norm_normalises(self, value):
        shift = norm(value)
        shifted = value << shift
        if value > 0:
            assert 0x40000000 <= shifted <= MAX_LONGWORD
        else:
            assert MIN_LONGWORD <= shifted < -0x40000000 or value == MIN_LONGWORD

    def test_gsm_div_basic(self):
        assert gsm_div(0, 100) == 0
        assert gsm_div(1, 2) == 16384  # 0.5 in Q15
        assert gsm_div(100, 100) == 32767

    def test_gsm_div_invalid(self):
        with pytest.raises(ValueError):
            gsm_div(5, 0)
        with pytest.raises(ValueError):
            gsm_div(10, 5)
        with pytest.raises(ValueError):
            gsm_div(-1, 5)

    @given(st.integers(min_value=0, max_value=MAX_WORD),
           st.integers(min_value=1, max_value=MAX_WORD))
    def test_gsm_div_in_range(self, num, den):
        if num > den:
            num, den = den, num
        result = gsm_div(num, den)
        assert 0 <= result <= MAX_WORD
        # The fractional quotient approximates num/den in Q15.
        assert abs(result / 32768 - num / den) < 0.001 + 1 / 32768

    def test_saturate(self):
        assert saturate(100000) == MAX_WORD
        assert saturate(-100000) == MIN_WORD
        assert saturate(42) == 42
