"""Known-answer vectors for the GSM 06.10 codec.

``golden_gsm_kat.json`` holds, for a fixed set of input streams, the
flattened encoder parameters of every frame and the decoder output of the
same frames.  The encoder kernels may be rewritten for host speed, but the
encoded parameters must stay bit-identical: the simulated GSM workload
compares the platform run against the host codec, so drift in the codec
itself would go unnoticed without these fixed answers.

Each stream is encoded by one encoder instance, so filter and LTP-history
state is carried across frames.  To re-record after a deliberate change of
the codec's output, run ``PYTHONPATH=src python tests/perf/test_gsm_kat.py``
and explain the change in the commit message.
"""

import json
import os

import pytest

from repro.sw.gsm import (
    FRAME_SAMPLES,
    GsmDecoder,
    GsmEncoder,
    generate_silence,
    generate_speech_like,
)

KAT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_gsm_kat.json")


def _square(frames, half_period):
    """Full-scale square wave alternating -32768 and 32767."""
    return [-32768 if (n // half_period) % 2 == 0 else 32767
            for n in range(frames * FRAME_SAMPLES)]


def _lcg_noise(frames, seed):
    """Uniform 16-bit noise over the full input range."""
    state = seed
    samples = []
    for _ in range(frames * FRAME_SAMPLES):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        samples.append(((state >> 15) & 0xFFFF) - 32768)
    return samples


def _step(frames, at, low, high):
    return [low if n < at else high for n in range(frames * FRAME_SAMPLES)]


def kat_inputs():
    """The named input streams the vectors were recorded on."""
    return {
        "speech-seed-1234": generate_speech_like(16, seed=1234),
        "speech-seed-42": generate_speech_like(16, seed=42),
        "speech-seed-2005": generate_speech_like(16, seed=2005),
        "silence": generate_silence(4),
        "square-alternating": _square(4, 1),
        "square-period-80": _square(4, 40),
        "lcg-noise": _lcg_noise(6, seed=99),
        "step": _step(4, 200, -32768, 32767),
    }


def encode_and_decode(samples):
    frames = GsmEncoder().encode_stream(samples)
    params = [word for frame in frames for word in frame.flatten()]
    return params, GsmDecoder().decode_stream(frames)


@pytest.fixture(scope="module")
def kat():
    with open(KAT_PATH) as handle:
        return json.load(handle)


def test_kat_covers_every_input(kat):
    assert sorted(kat) == sorted(kat_inputs())


@pytest.mark.parametrize("name", sorted(kat_inputs()))
def test_codec_matches_known_answers(kat, name):
    params, decoded = encode_and_decode(kat_inputs()[name])
    assert params == kat[name]["params"]
    assert decoded == kat[name]["decoded"]


if __name__ == "__main__":
    vectors = {}
    for case, stream in kat_inputs().items():
        params, decoded = encode_and_decode(stream)
        vectors[case] = {"params": params, "decoded": decoded}
    with open(KAT_PATH, "w") as handle:
        handle.write("{\n")
        lines = [f'  {json.dumps(case)}: {json.dumps(vectors[case])}'
                 for case in sorted(vectors)]
        handle.write(",\n".join(lines))
        handle.write("\n}\n")
