"""GSM 06.10 section 4.2.0 — preprocessing.

Downscaling of the 16-bit input samples, DC offset compensation (a first
order high-pass with a 32-bit accumulator) and pre-emphasis filtering.
The filter state lives in :class:`PreprocessState` so that consecutive
frames of one channel are processed continuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .arith import MAX_LONGWORD, MAX_WORD, MIN_LONGWORD, MIN_WORD
from .tables import FRAME_SAMPLES


@dataclass
class PreprocessState:
    """Persistent state of the offset-compensation and pre-emphasis filters."""

    z1: int = 0
    l_z2: int = 0
    mp: int = 0


def preprocess_frame(state: PreprocessState, samples: Sequence[int]) -> List[int]:
    """Preprocess one frame of 160 samples, updating ``state`` in place."""
    if len(samples) != FRAME_SAMPLES:
        raise ValueError(f"a GSM frame has {FRAME_SAMPLES} samples")
    output: List[int] = []
    z1 = state.z1
    l_z2 = state.l_z2
    mp = state.mp
    for sample in samples:
        # 4.2.0.1: downscale to 13 bits and shift back up by two.
        sample = MAX_WORD if sample > MAX_WORD else MIN_WORD if sample < MIN_WORD else sample
        so = (sample >> 3) << 2
        # 4.2.0.2: offset compensation (high-pass with alpha = 32735/32768).
        # |s1 << 15| <= 32764 * 2**15 and lsp lies in 0..32767, so
        # l_s2 = L_ADD(s1 << 15, MULT_R(lsp, 32736)) cannot saturate; the
        # L_MULT(msp, 32735) >> 1 term can push l_z2 past 32 bits.
        msp = l_z2 >> 15
        lsp = l_z2 - (msp << 15)
        l_s2 = ((so - z1) << 15) + ((lsp * 32736 + 16384) >> 15)
        z1 = so
        l_z2 = msp * 32735 + l_s2
        if l_z2 > MAX_LONGWORD:
            l_z2 = MAX_LONGWORD
        elif l_z2 < MIN_LONGWORD:
            l_z2 = MIN_LONGWORD
        sof = (l_z2 + 16384) >> 15
        sof = MAX_WORD if sof > MAX_WORD else MIN_WORD if sof < MIN_WORD else sof
        # 4.2.0.3: pre-emphasis with beta = 28180/32768 (the rounded product
        # of a 16-bit mp with -28180 fits 16 bits; the add saturates).
        s = sof + ((mp * -28180 + 16384) >> 15)
        mp = sof
        output.append(MAX_WORD if s > MAX_WORD else MIN_WORD if s < MIN_WORD else s)
    state.z1 = z1
    state.l_z2 = l_z2
    state.mp = mp
    return output
