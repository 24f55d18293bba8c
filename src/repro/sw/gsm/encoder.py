"""GSM 06.10 full-rate encoder.

One :class:`GsmEncoder` instance encodes a continuous stream of 160-sample
frames into 76 parameters per frame (8 LAR codes plus, per sub-frame, the
LTP lag and gain, the RPE grid index, the coded block maximum and the 13
coded pulses).  The encoder keeps the preprocessing, short-term filter and
LTP-history state between frames, as the recommendation requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import List, Sequence

from .arith import saturate_each
from .lpc import (
    ShortTermState,
    autocorrelation,
    quantize_lar,
    reflection_to_lar,
    schur,
    short_term_analysis,
)
from .ltp import ltp_filter, ltp_parameters
from .preprocess import PreprocessState, preprocess_frame
from .rpe import rpe_encode
from .tables import (
    FRAME_SAMPLES,
    LPC_ORDER,
    LTP_MAX_LAG,
    PARAMETERS_PER_FRAME,
    RPE_PULSES,
    SUBFRAME_SAMPLES,
    SUBFRAMES_PER_FRAME,
)


@dataclass
class GsmFrameParameters:
    """The 76 parameters of one encoded frame, kept in structured form."""

    larc: List[int]
    lags: List[int]
    gains: List[int]
    grids: List[int]
    xmaxcs: List[int]
    pulses: List[List[int]]

    def flatten(self) -> List[int]:
        """Serialise to the canonical 76-word parameter list."""
        words = list(self.larc)
        for subframe in range(SUBFRAMES_PER_FRAME):
            words.append(self.lags[subframe])
            words.append(self.gains[subframe])
            words.append(self.grids[subframe])
            words.append(self.xmaxcs[subframe])
            words.extend(self.pulses[subframe])
        return words

    @classmethod
    def from_words(cls, words: Sequence[int]) -> "GsmFrameParameters":
        """Rebuild the structured form from a 76-word parameter list."""
        if len(words) != PARAMETERS_PER_FRAME:
            raise ValueError(
                f"a GSM frame has {PARAMETERS_PER_FRAME} parameters, got {len(words)}"
            )
        larc = list(words[:LPC_ORDER])
        lags, gains, grids, xmaxcs, pulses = [], [], [], [], []
        cursor = LPC_ORDER
        for _ in range(SUBFRAMES_PER_FRAME):
            lags.append(words[cursor])
            gains.append(words[cursor + 1])
            grids.append(words[cursor + 2])
            xmaxcs.append(words[cursor + 3])
            pulses.append(list(words[cursor + 4:cursor + 4 + RPE_PULSES]))
            cursor += 4 + RPE_PULSES
        return cls(larc, lags, gains, grids, xmaxcs, pulses)


@dataclass
class GsmEncoderState:
    """All persistent state of one encoder channel."""

    preprocess: PreprocessState = field(default_factory=PreprocessState)
    short_term: ShortTermState = field(default_factory=ShortTermState)
    #: Reconstructed short-term residual history (the last 120 samples).
    dp_history: List[int] = field(default_factory=lambda: [0] * LTP_MAX_LAG)


class GsmEncoder:
    """Stateful GSM 06.10 full-rate encoder for one speech channel."""

    def __init__(self) -> None:
        self.state = GsmEncoderState()
        self.frames_encoded = 0

    def encode_frame(self, samples: Sequence[int]) -> GsmFrameParameters:
        """Encode one frame of 160 linear PCM samples."""
        if len(samples) != FRAME_SAMPLES:
            raise ValueError(f"a GSM frame has {FRAME_SAMPLES} samples")
        state = self.state

        # 4.2.0 — preprocessing.
        preprocessed = preprocess_frame(state.preprocess, samples)

        # 4.2.1-4.2.8 — LPC analysis and LAR coding.
        acf = autocorrelation(preprocessed)
        reflection = schur(acf)
        lars = reflection_to_lar(reflection)
        larc = quantize_lar(lars)

        # 4.2.9-4.2.10 — short-term analysis filtering (residual d[0..159]).
        residual = short_term_analysis(state.short_term, larc, preprocessed)

        lags: List[int] = []
        gains: List[int] = []
        grids: List[int] = []
        xmaxcs: List[int] = []
        pulses: List[List[int]] = []

        # 4.2.11-4.2.17 — per-sub-frame LTP + RPE coding with local feedback.
        for subframe in range(SUBFRAMES_PER_FRAME):
            start = subframe * SUBFRAME_SAMPLES
            d_sub = residual[start:start + SUBFRAME_SAMPLES]
            lag, gain = ltp_parameters(d_sub, state.dp_history)
            e, predicted = ltp_filter(d_sub, state.dp_history, lag, gain)
            grid, xmaxc, xmc, ep = rpe_encode(e)
            # Reconstructed residual fed back into the LTP history.
            dpp = saturate_each(map(add, ep, predicted))
            state.dp_history = (state.dp_history + dpp)[-LTP_MAX_LAG:]
            lags.append(lag)
            gains.append(gain)
            grids.append(grid)
            xmaxcs.append(xmaxc)
            pulses.append(xmc)

        self.frames_encoded += 1
        return GsmFrameParameters(larc, lags, gains, grids, xmaxcs, pulses)

    def encode_stream(self, samples: Sequence[int]) -> List[GsmFrameParameters]:
        """Encode a multiple-of-160 sample stream frame by frame."""
        if len(samples) % FRAME_SAMPLES:
            raise ValueError("stream length must be a multiple of 160 samples")
        frames = []
        for start in range(0, len(samples), FRAME_SAMPLES):
            frames.append(self.encode_frame(samples[start:start + FRAME_SAMPLES]))
        return frames
