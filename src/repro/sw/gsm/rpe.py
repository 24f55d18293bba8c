"""GSM 06.10 section 4.2.13-4.2.17 — regular pulse excitation (RPE) coding.

The 40-sample long-term residual of each sub-frame is weighted, decimated
onto one of four interleaved grids of 13 pulses, block-quantised with an
adaptive PCM scheme (6-bit block maximum + 3-bit pulses) and reconstructed
for the encoder's local feedback loop.
"""

from __future__ import annotations

from operator import mul
from typing import List, Sequence, Tuple

from .arith import MAX_WORD, add, asl, asr, correlate, saturate_each, sub
from .tables import RPE_FAC, RPE_H, RPE_NRFAC, RPE_PULSES, SUBFRAME_SAMPLES

#: The FIR sum ``sum(H[i] * x[k + 10 - i])`` is a correlation with reversed H.
_H_REVERSED = RPE_H[::-1]


def weighting_filter(e: Sequence[int]) -> List[int]:
    """FIR weighting of the 40-sample long-term residual (impulse response H)."""
    if len(e) != SUBFRAME_SAMPLES:
        raise ValueError("the weighting filter works on 40-sample sub-frames")
    # The reference implementation zero-pads the signal by 5 samples on both
    # sides and keeps the central 40 outputs.  8192 rounds (0.5 in the
    # chosen format) before the sum is scaled back by >> 14 and saturated.
    padded = [0] * 5 + list(e) + [0] * 5
    return saturate_each([(8192 + total) >> 14
                          for total in correlate(_H_REVERSED, padded)])


def grid_selection(x: Sequence[int]) -> Tuple[int, List[int]]:
    """Choose the interleaved grid with maximum energy.

    Returns ``(mc, xm)`` where ``mc`` is the 2-bit grid index and ``xm`` the
    13 selected samples.
    """
    best_grid = 0
    best_energy = -1
    for grid in range(4):
        pulses = [sample >> 2 for sample in x[grid:grid + 3 * RPE_PULSES:3]]
        energy = sum(map(mul, pulses, pulses))
        if energy > best_energy:
            best_energy = energy
            best_grid = grid
    return best_grid, list(x[best_grid:best_grid + 3 * RPE_PULSES:3])


def quantize_xmax(xmax: int) -> Tuple[int, int, int]:
    """Quantise the block maximum to 6 bits.

    Returns ``(xmaxc, exponent, mantissa)``; exponent/mantissa are reused by
    the APCM quantisation of the pulses.
    """
    exponent = 0
    temp = asr(xmax, 9)
    while temp > 0 and exponent < 6:
        exponent += 1
        temp = asr(temp, 1)
    xmaxc = add(asr(xmax, exponent + 5), exponent << 3)
    xmaxc = max(0, min(63, xmaxc))
    exponent, mantissa = decode_xmaxc(xmaxc)
    return xmaxc, exponent, mantissa


def decode_xmaxc(xmaxc: int) -> Tuple[int, int]:
    """Split the coded block maximum into (exponent, mantissa) per the spec."""
    exponent = 0
    if xmaxc > 15:
        exponent = asr(xmaxc, 3) - 1
    mantissa = xmaxc - (exponent << 3)
    if mantissa == 0:
        exponent = -4
        mantissa = 7
    else:
        while mantissa <= 7:
            mantissa = (mantissa << 1) | 1
            exponent -= 1
        mantissa -= 8
    return exponent, mantissa


def apcm_quantize(xm: Sequence[int], exponent: int, mantissa: int) -> List[int]:
    """Quantise the 13 grid pulses to 3 bits each.

    ``exponent`` and ``mantissa`` come from :func:`decode_xmaxc`, so the
    shift ``6 - exponent`` lies in 0..10.  ``mult(value, factor)`` cannot
    saturate for a factor in 0..32767, and its ``>> 15`` merges with the
    following ``asr(., 12)``.
    """
    shift = 6 - exponent
    factor = RPE_NRFAC[mantissa]
    quantised = [((value * factor) >> 27) + 4
                 for value in saturate_each([sample << shift for sample in xm])]
    return [0 if value < 0 else 7 if value > 7 else value for value in quantised]


def apcm_dequantize(xmc: Sequence[int], exponent: int, mantissa: int) -> List[int]:
    """Inverse APCM: reconstruct the 13 pulses.

    ``xmc`` holds 3-bit codes, so ``((code << 1) - 7) << 12`` lies within
    +-28672 and neither the rounded Q15 multiply nor the rounding add
    saturates.
    """
    factor = RPE_FAC[mantissa]
    shift = sub(6, exponent)
    rounding = asl(1, sub(shift, 1))
    return [((((factor * (((coded << 1) - 7) << 12)) + 16384) >> 15) + rounding) >> shift
            for coded in xmc]


def grid_position(mc: int, xmp: Sequence[int]) -> List[int]:
    """Re-expand 13 pulses onto the 40-sample grid ``mc``."""
    ep = [0] * SUBFRAME_SAMPLES
    ep[mc:mc + 3 * RPE_PULSES:3] = xmp
    return ep


def rpe_encode(e: Sequence[int]) -> Tuple[int, int, List[int], List[int]]:
    """Full RPE encoding of one sub-frame residual.

    Returns ``(mc, xmaxc, xmc, ep)`` where ``ep`` is the locally
    reconstructed excitation used for the encoder's feedback loop.
    """
    weighted = weighting_filter(e)
    mc, xm = grid_selection(weighted)
    xmax = min(MAX_WORD, max(map(abs, xm)))
    xmaxc, exponent, mantissa = quantize_xmax(xmax)
    xmc = apcm_quantize(xm, exponent, mantissa)
    xmp = apcm_dequantize(xmc, exponent, mantissa)
    ep = grid_position(mc, xmp)
    return mc, xmaxc, xmc, ep


def rpe_decode(mc: int, xmaxc: int, xmc: Sequence[int]) -> List[int]:
    """Reconstruct the 40-sample excitation from the coded RPE parameters."""
    exponent, mantissa = decode_xmaxc(xmaxc)
    xmp = apcm_dequantize(xmc, exponent, mantissa)
    return grid_position(mc, xmp)
