import numpy as np
import pytest

from freqbin.comb import pair_for_index
from freqbin.config import load_config
from freqbin.counting import DetectorModel, FringeDataset
from freqbin.hom import Envelope


@pytest.fixture
def model():
    return load_config().resonator


@pytest.fixture
def detector():
    return DetectorModel(0.5, 0.5, 100.0, 1e-9)


@pytest.fixture
def envelope(model):
    return Envelope.from_fwhm(model.fwhm)


@pytest.fixture
def pair2(model):
    return pair_for_index(model, 2)


def exact_dataset(taus, probabilities, scale, dwell=1.0, metadata=None):
    """Quantized noise-free counts round(scale * p) as a dataset.

    With a large scale the rounding error is far below any fit tolerance,
    so self-consistency tests see effectively exact model data.
    """
    counts = np.round(scale * np.asarray(probabilities)).astype(np.int64)
    return FringeDataset(np.asarray(taus, dtype=np.float64), counts, dwell,
                         metadata or {})
