"""GSM 06.10 sections 4.2.1-4.2.10 — short-term (LPC) analysis and filtering.

Autocorrelation with dynamic scaling, Schur recursion to reflection
coefficients, LAR transformation, quantisation/decoding, per-region
interpolation and the short-term analysis / synthesis lattice filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import List, Sequence, Tuple

from .arith import (
    MAX_WORD,
    abs_s,
    add,
    asl,
    asr,
    gsm_div,
    mult,
    mult_r,
    norm,
    saturate,
    saturate_each,
    sub,
)
from .tables import (
    FRAME_SAMPLES,
    LAR_A,
    LAR_B,
    LAR_INVA,
    LAR_MAC,
    LAR_MIC,
    LPC_ORDER,
)


# ---------------------------------------------------------------------------
# 4.2.1 / 4.2.2 — autocorrelation and Schur recursion
# ---------------------------------------------------------------------------

def autocorrelation(samples: Sequence[int]) -> List[int]:
    """Compute L_ACF[0..8] with the spec's dynamic scaling."""
    if len(samples) != FRAME_SAMPLES:
        raise ValueError("autocorrelation works on one 160-sample frame")
    smax = min(MAX_WORD, max(map(abs, samples)))
    # Dynamic scaling: leave 4 bits of headroom for the 160-term sums.
    scale = 0 if smax == 0 else max(0, 4 - norm(smax << 16))
    scaled = [value >> scale for value in samples]
    return [sum(map(mul, scaled[lag:], scaled)) << 1 for lag in range(LPC_ORDER + 1)]


def schur(acf: Sequence[int]) -> List[int]:
    """Schur recursion: 9 autocorrelation values → 8 reflection coefficients."""
    if len(acf) != LPC_ORDER + 1:
        raise ValueError("schur() expects 9 autocorrelation values")
    reflection = [0] * LPC_ORDER
    if acf[0] == 0:
        return reflection
    shift = norm(acf[0])
    normalised = [asr(asl(value, shift), 16) for value in acf]
    # Initialise the P and K arrays as in the reference implementation
    # (P[0..8] and K[1..8] both start from the normalised autocorrelation).
    p = [normalised[index] for index in range(9)]
    k = [0] + [normalised[index] for index in range(1, 9)]
    for order in range(LPC_ORDER):
        if p[0] <= 0 or p[0] < abs_s(p[1]):
            # Unstable or degenerate frame: remaining coefficients are zero.
            for rest in range(order, LPC_ORDER):
                reflection[rest] = 0
            break
        coefficient = gsm_div(abs_s(p[1]), p[0])
        if p[1] > 0:
            coefficient = -coefficient
        reflection[order] = saturate(coefficient)
        if order == LPC_ORDER - 1:
            break
        # Schur recursion update.
        p[0] = add(p[0], mult_r(p[1], coefficient))
        for i in range(1, LPC_ORDER - order):
            p[i] = add(p[i + 1], mult_r(k[i], coefficient))
            k[i] = add(k[i], mult_r(p[i + 1], coefficient))
    return reflection


# ---------------------------------------------------------------------------
# 4.2.3 / 4.2.4 — reflection coefficients → LAR, quantisation
# ---------------------------------------------------------------------------

def reflection_to_lar(reflection: Sequence[int]) -> List[int]:
    """Piecewise-linear approximation of the log-area ratio transform."""
    lars: List[int] = []
    for r in reflection:
        temp = abs_s(r)
        if temp < 22118:
            temp >>= 1
        elif temp < 31130:
            temp = sub(temp, 11059)
        else:
            temp = sub(temp, 26112) << 2
        lars.append(-temp if r < 0 else temp)
    return lars


def quantize_lar(lars: Sequence[int]) -> List[int]:
    """Quantise and code the 8 LARs (output includes the MIC offset)."""
    larc: List[int] = []
    for index, lar in enumerate(lars):
        temp = mult(LAR_A[index], lar)
        temp = add(temp, LAR_B[index])
        temp = add(temp, 256)
        temp = asr(temp, 9)
        temp = max(LAR_MIC[index], min(LAR_MAC[index], temp))
        larc.append(temp - LAR_MIC[index])  # coded value is always >= 0
    return larc


def decode_lar(larc: Sequence[int]) -> List[int]:
    """Decode coded LARs back to LARpp (used by both encoder and decoder)."""
    larpp: List[int] = []
    for index, coded in enumerate(larc):
        temp1 = (coded + LAR_MIC[index]) << 10
        temp2 = LAR_B[index] << 1
        temp1 = sub(temp1, temp2)
        temp1 = mult_r(LAR_INVA[index], temp1)
        larpp.append(add(temp1, temp1))
    return larpp


# ---------------------------------------------------------------------------
# 4.2.9 — interpolation of the LARs over the four sub-frame regions
# ---------------------------------------------------------------------------

def interpolate_lar(previous: Sequence[int], current: Sequence[int], region: int
                    ) -> List[int]:
    """LARp for one of the four interpolation regions (0..3)."""
    larp: List[int] = []
    for index in range(LPC_ORDER):
        old, new = previous[index], current[index]
        if region == 0:
            value = add(asr(old, 2), asr(new, 2))
            value = add(value, asr(old, 1))
        elif region == 1:
            value = add(asr(old, 1), asr(new, 1))
        elif region == 2:
            value = add(asr(old, 2), asr(new, 2))
            value = add(value, asr(new, 1))
        else:
            value = new
        larp.append(value)
    return larp


def lar_to_reflection(larp: Sequence[int]) -> List[int]:
    """Convert interpolated LARp values back to reflection coefficients rp."""
    rp: List[int] = []
    for lar in larp:
        temp = abs_s(lar)
        if temp < 11059:
            temp <<= 1
        elif temp < 20070:
            temp = add(temp, 11059)
        else:
            temp = add(asr(temp, 2), 26112)
        rp.append(-temp if lar < 0 else temp)
    return rp


# ---------------------------------------------------------------------------
# 4.2.10 — short-term analysis and synthesis lattice filters
# ---------------------------------------------------------------------------

@dataclass
class ShortTermState:
    """Lattice filter memories of the short-term analysis/synthesis filters."""

    analysis_u: List[int] = field(default_factory=lambda: [0] * LPC_ORDER)
    synthesis_v: List[int] = field(default_factory=lambda: [0] * (LPC_ORDER + 1))
    #: LARpp of the previous frame (for interpolation).
    previous_larpp: List[int] = field(default_factory=lambda: [0] * LPC_ORDER)


#: Sample ranges of the four interpolation regions within a frame.
INTERPOLATION_REGIONS: List[Tuple[int, int]] = [(0, 13), (13, 27), (27, 40), (40, 160)]


def short_term_analysis(state: ShortTermState, larc: Sequence[int],
                        samples: Sequence[int]) -> List[int]:
    """Short-term analysis filtering of one frame; returns the residual d[].

    The filter is an all-zero lattice: stage i maps the forward signal
    ``d`` and the backward signal ``a`` (both the input at stage 0) to

        d'[n] = add(d[n], mult_r(rp[i], a[n-1]))
        a'[n] = add(a[n-1], mult_r(rp[i], d[n]))

    where ``a[-1]`` is the stage's memory ``u[i]`` from the previous frame.
    Stage i + 1 needs only stage i, so the frame runs stage by stage over
    all 160 samples.  ``rp`` comes from :func:`lar_to_reflection` and lies
    within +-32767, so ``mult_r`` never saturates here; the adds do.
    """
    current_larpp = decode_lar(larc)
    reflections = [
        lar_to_reflection(interpolate_lar(state.previous_larpp, current_larpp, region))
        for region in range(len(INTERPOLATION_REGIONS))
    ]
    u = state.analysis_u
    d = list(samples)
    a = d
    for stage in range(LPC_ORDER):
        rp: List[int] = []
        for (start, end), coefficients in zip(INTERPOLATION_REGIONS, reflections):
            rp += [coefficients[stage]] * (end - start)
        delayed = [u[stage]] + a[:-1]
        u[stage] = a[-1]
        a = saturate_each([back + ((r * forward + 16384) >> 15)
                           for back, r, forward in zip(delayed, rp, d)])
        d = saturate_each([forward + ((r * back + 16384) >> 15)
                           for forward, r, back in zip(d, rp, delayed)])
    state.previous_larpp = current_larpp
    return d


def short_term_synthesis(state: ShortTermState, larc: Sequence[int],
                         residual: Sequence[int]) -> List[int]:
    """Short-term synthesis filtering of one frame of reconstructed residual."""
    current_larpp = decode_lar(larc)
    output = [0] * FRAME_SAMPLES
    v = state.synthesis_v
    for region, (start, end) in enumerate(INTERPOLATION_REGIONS):
        larp = interpolate_lar(state.previous_larpp, current_larpp, region)
        rp = lar_to_reflection(larp)
        for position in range(start, end):
            sri = residual[position]
            for order in range(LPC_ORDER - 1, -1, -1):
                sri = sub(sri, mult_r(rp[order], v[order]))
                v[order + 1] = add(v[order], mult_r(rp[order], sri))
            output[position] = sri
            v[0] = sri
    state.previous_larpp = current_larpp
    return output
