import numpy as np
import pytest
from hypothesis import settings

from viskey import classify, font
from viskey.bitimage import BitImage


def bits(text):
    """Build a BitImage from rows of '1'/'0' (or '#'/' ') separated by newlines."""
    rows = [r for r in text.splitlines() if r.strip("")]
    grid = [[1 if ch in "1#" else 0 for ch in row] for row in rows if row]
    return BitImage(np.array(grid, dtype=np.uint8))


def blank(w, h):
    """An all-white w x h image."""
    return BitImage(np.zeros((h, w), dtype=np.uint8))


def random_image(rng, w, h, density=0.5):
    return BitImage((rng.random((h, w)) < density).astype(np.uint8))


@pytest.fixture(scope="session")
def model():
    """The recognition model, trained on the corpus glyphs; it serves every scheme."""
    return classify.train_model(font.corpus())


# Every Hypothesis test sets its own example count except the protocol state
# machine in test_cas.py, which runs the profile's: a few in Tier-1, more with
# `pytest --hypothesis-profile protocol`.
settings.register_profile("tier1", max_examples=10)
settings.register_profile("protocol", max_examples=300)
settings.load_profile("tier1")
