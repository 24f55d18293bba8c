"""Property tests for the GSM encoder kernels against naive references.

The encoder's hot loops run as whole-sequence kernels: one big-integer
cross-correlation and a stage-by-stage lattice filter.  Both must equal
the straightforward per-sample definitions exactly, including at the
16-bit extremes where the saturating arithmetic bites.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sw.gsm import MAX_WORD, MIN_WORD, add, correlate, mult_r
from repro.sw.gsm.lpc import (
    INTERPOLATION_REGIONS,
    ShortTermState,
    decode_lar,
    interpolate_lar,
    lar_to_reflection,
    short_term_analysis,
)
from repro.sw.gsm.tables import FRAME_SAMPLES, LAR_BITS, LPC_ORDER

# Full-scale values are drawn often: they are where saturation and the
# correlation's digit bound are tested hardest.
words = st.one_of(st.sampled_from([MIN_WORD, MAX_WORD, MIN_WORD + 1, 0, -1]),
                  st.integers(min_value=MIN_WORD, max_value=MAX_WORD))
frames = st.lists(words, min_size=FRAME_SAMPLES, max_size=FRAME_SAMPLES)
larcs = st.tuples(*(st.integers(min_value=0, max_value=(1 << bits) - 1)
                    for bits in LAR_BITS))


def naive_correlate(x, y):
    return [sum(x[k] * y[j + k] for k in range(len(x)))
            for j in range(len(y) - len(x) + 1)]


def per_sample_analysis(state, larc, samples):
    """The per-sample short-term analysis lattice (GSM 06.10, 4.2.10)."""
    current_larpp = decode_lar(larc)
    output = [0] * FRAME_SAMPLES
    u = state.analysis_u
    for region, (start, end) in enumerate(INTERPOLATION_REGIONS):
        larp = interpolate_lar(state.previous_larpp, current_larpp, region)
        rp = lar_to_reflection(larp)
        for position in range(start, end):
            di = samples[position]
            sav = di
            for order in range(LPC_ORDER):
                temp = add(u[order], mult_r(rp[order], di))
                di = add(di, mult_r(rp[order], u[order]))
                u[order] = sav
                sav = temp
            output[position] = di
    state.previous_larpp = current_larpp
    return output


class TestCorrelate:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_naive_double_loop(self, data):
        x = data.draw(st.lists(words, min_size=1, max_size=40))
        y = data.draw(st.lists(words, min_size=len(x), max_size=200))
        assert correlate(x, y) == naive_correlate(x, y)

    def test_full_scale_worst_case(self):
        # Largest biased products (both words -32768 -> 0 or 32767 -> 65535).
        for x_value in (MIN_WORD, MAX_WORD):
            for y_value in (MIN_WORD, MAX_WORD):
                x = [x_value] * 40
                y = [y_value] * 200
                assert correlate(x, y) == [40 * x_value * y_value] * 161

    @pytest.mark.parametrize("x, y", [
        ([MAX_WORD + 1], [0, 0]),
        ([0], [MIN_WORD - 1]),
        ([1, 2], [3, 4, 1 << 20]),
    ])
    def test_rejects_out_of_range_words(self, x, y):
        with pytest.raises(ValueError):
            correlate(x, y)

    @pytest.mark.parametrize("x, y", [([], [1, 2]), ([1, 2, 3], [1, 2])])
    def test_rejects_bad_lengths(self, x, y):
        with pytest.raises(ValueError):
            correlate(x, y)


class TestShortTermAnalysis:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(larcs, frames), min_size=2, max_size=2))
    def test_stagewise_equals_per_sample_lattice(self, stream):
        fast, oracle = ShortTermState(), ShortTermState()
        for larc, samples in stream:
            assert (short_term_analysis(fast, list(larc), samples)
                    == per_sample_analysis(oracle, list(larc), samples))
            assert fast.analysis_u == oracle.analysis_u
            assert fast.previous_larpp == oracle.previous_larpp

    def test_full_scale_square_wave(self):
        fast, oracle = ShortTermState(), ShortTermState()
        samples = [MIN_WORD if n % 2 else MAX_WORD for n in range(FRAME_SAMPLES)]
        for larc in ([63, 0, 31, 0, 15, 0, 7, 0], [0, 63, 0, 31, 0, 15, 0, 7]):
            assert (short_term_analysis(fast, larc, samples)
                    == per_sample_analysis(oracle, larc, samples))
        assert fast.analysis_u == oracle.analysis_u
