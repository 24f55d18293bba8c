"""GSM 06.10 section 4.2.11 — long-term predictor (LTP).

For every 40-sample sub-frame the encoder searches the best lag (40..120)
into the reconstructed short-term residual history, quantises the LTP gain
against the DLB decision levels, and produces the long-term residual that
the RPE stage encodes.  The decoder (and the encoder's local feedback loop)
reconstructs ``dpp`` with the dequantised gain.
"""

from __future__ import annotations

from operator import mul, sub
from typing import List, Sequence, Tuple

from .arith import (
    MAX_WORD,
    add,
    correlate,
    mult,
    mult_r,
    norm,
    saturate,
    saturate_each,
)
from .tables import LTP_DLB, LTP_MAX_LAG, LTP_MIN_LAG, LTP_QLB, SUBFRAME_SAMPLES


def ltp_parameters(d: Sequence[int], dp_history: Sequence[int]
                   ) -> Tuple[int, int]:
    """Search the LTP lag and quantise the gain for one sub-frame.

    ``d`` is the 40-sample short-term residual of the sub-frame;
    ``dp_history`` holds the last 120 reconstructed residual samples, with
    ``dp_history[-1]`` being the most recent one.

    Returns ``(Nc, bc)``: the lag (40..120) and the 2-bit coded gain.

    All 81 lag correlations come from one :func:`~.arith.correlate` call.
    The simulated cost of the search is annotated separately, as the ARM7
    reference loop of 81 x 40 multiply-accumulates per sub-frame
    (``mapping._encode_cost_cycles``); it models the target core and does
    not depend on how the host computes the search.
    """
    if len(d) != SUBFRAME_SAMPLES:
        raise ValueError("LTP works on 40-sample sub-frames")
    if len(dp_history) < LTP_MAX_LAG:
        raise ValueError("LTP history must hold at least 120 samples")

    # Scale d down to avoid overflow in the correlation (spec: based on dmax).
    dmax = min(MAX_WORD, max(map(abs, d)))
    scale = 0 if dmax == 0 else max(0, 6 - norm(dmax << 16))
    wt = [value >> scale for value in d]

    # Search the lag maximising the cross-correlation; ties go to the
    # shortest lag, and with no positive correlation the lag stays 40.
    # correlate() yields one value per offset into the history, from lag
    # 120 down to lag 40, so reverse it to index by lag - 40.
    history = dp_history[-LTP_MAX_LAG:]
    by_lag = correlate(wt, history)[::-1]
    best_correlation = max(0, max(by_lag))
    best_lag = LTP_MIN_LAG
    if best_correlation:
        best_lag += by_lag.index(best_correlation)

    # Rescale the winning correlation and compute the power of the history
    # segment, then quantise the gain b = S/R against the DLB table.
    l_max = (best_correlation << 1) >> (6 - scale)
    start = LTP_MAX_LAG - best_lag
    segment = [value >> 3 for value in history[start:start + SUBFRAME_SAMPLES]]
    l_power = sum(map(mul, segment, segment)) << 1

    if l_max <= 0:
        return best_lag, 0
    if l_max >= l_power:
        return best_lag, 3
    # Normalise both and compare S/R with the decision levels.
    temp = norm(l_power)
    s = saturate((l_max << temp) >> 16)
    r = saturate((l_power << temp) >> 16)
    bc = 0
    for level in range(3):
        if r <= mult(s, LTP_DLB[level]):
            break
        bc = level + 1
    return best_lag, bc


def ltp_filter(d: Sequence[int], dp_history: Sequence[int], lag: int, bc: int
               ) -> Tuple[List[int], List[int]]:
    """Long-term analysis filtering of one sub-frame.

    Returns ``(e, dpp_predicted)``: the long-term residual handed to the RPE
    encoder and the gain-weighted prediction that the caller combines with
    the reconstructed residual to update the history.
    """
    bp = LTP_QLB[bc]
    start = len(dp_history) - lag
    # mult_r(bp, x): bp is a positive Q15 gain, so the product never
    # saturates; only the subtraction does.
    predicted = [(bp * value + 16384) >> 15
                 for value in dp_history[start:start + SUBFRAME_SAMPLES]]
    return saturate_each(map(sub, d, predicted)), predicted


def ltp_synthesis(erp: Sequence[int], dp_history: Sequence[int], lag: int, bc: int
                  ) -> List[int]:
    """Reconstruct ``drp`` for one sub-frame (decoder side / encoder feedback)."""
    lag = min(LTP_MAX_LAG, max(LTP_MIN_LAG, lag))
    bp = LTP_QLB[bc]
    reconstructed: List[int] = []
    for k in range(SUBFRAME_SAMPLES):
        prediction = mult_r(bp, dp_history[-lag + k])
        reconstructed.append(add(erp[k], prediction))
    return reconstructed
