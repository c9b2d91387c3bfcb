"""Training on the corpus glyphs and 1-nearest-neighbor recognition.

A clean stack of shares decodes back to the secret bit for bit (exact
block-count decode, see `denoise`), and `font.corpus()` stretches its glyphs
to the grid with the same `ocr.normalize_glyph` step that reads them, so a
character read from a stacked key image looks exactly like its corpus glyph.
The model therefore learns the corpus glyphs as they are, and one model
serves every scheme; queries match by plain Euclidean nearest neighbor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .bitimage import BitImage
from .denoise import decide_blocks
from .font import ALPHABET
from .ocr import FEATURE_LEN, extract_features, normalize_glyphs, segment, single_glyph
from .vcs import SchemeParams

log = logging.getLogger(__name__)

MODEL_MAGIC = "viskey-model"


@dataclass(frozen=True)
class LabeledSample:
    label: str
    features: np.ndarray
    source_id: str

    def __post_init__(self):
        if self.label not in ALPHABET:
            raise ValueError(f"label {self.label!r} not in the 36-class alphabet")
        if len(self.features) != FEATURE_LEN:
            raise ValueError(f"feature vector must have {FEATURE_LEN} components")


@dataclass(frozen=True)
class Model:
    samples: tuple
    skipped: tuple = field(default=(), compare=False, kw_only=True)

    def without_font(self, font_id: str) -> "Model":
        """Leave-one-font-out view of the same trained model."""
        kept = tuple(s for s in self.samples if not s.source_id.endswith(f"_{font_id}"))
        return Model(kept)

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """One row of features per sample, built once per model."""
        return np.stack([s.features for s in self.samples])

    @cached_property
    def tie_order(self) -> np.ndarray:
        """Sample indices by (alphabet rank of the label, training index):
        the 1-NN tie rule, built once per model."""
        ranks = [ALPHABET.index(s.label) for s in self.samples]
        return np.lexsort((np.arange(len(ranks)), ranks))


def euclidean_distance(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((b - a) ** 2)))


def train_model(glyphs) -> Model:
    """Train on (source_id, BitImage) pairs such as `font.corpus()`; each
    source id has the form <LABEL>_<FONTID>.

    Features are taken from each glyph as it is; images that do not segment
    into exactly one glyph are skipped with a warning.
    """
    kept = []
    skipped = []
    for source_id, glyph in glyphs:
        label, _, font_id = source_id.partition("_")
        if label not in ALPHABET or not font_id:
            raise ValueError(f"corpus source id {source_id!r} not of form <LABEL>_<FONTID>")
        try:
            kept.append((label, source_id, single_glyph(glyph)))
        except ValueError as e:
            log.warning("skipping %s: %s", source_id, e)
            skipped.append(source_id)
    if not kept:
        raise ValueError("no usable corpus glyphs")
    feats = extract_features(np.stack([bitmap for _, _, bitmap in kept]))
    samples = tuple(LabeledSample(label, f, source_id)
                    for (label, source_id, _), f in zip(kept, feats))
    return Model(samples, skipped=tuple(skipped))


def nearest(X, model: Model):
    """Index and Euclidean distance of the nearest training sample for each
    row of the (k, 48) array X. Ties prefer the alphabet-smaller label
    (digits before letters), then the earlier training sample."""
    if not model.samples:
        raise ValueError("empty model")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected one feature vector per row, got shape {X.shape}")
    F = model.feature_matrix
    # row by row, so the largest temporary is one (S, 48) difference
    dists = np.array([np.sqrt(np.sum((F - x) ** 2, axis=1)) for x in X])
    dists = dists.reshape(len(X), len(F))
    # argmin takes the first minimum, so scanning in tie order applies the rule
    order = model.tie_order
    best = order[np.argmin(dists[:, order], axis=1)]
    return best, dists[np.arange(len(best)), best]


def classify_1nn(x, model: Model):
    """Nearest training sample's label and distance for one feature vector."""
    (best,), (dist,) = nearest([x], model)
    return model.samples[best].label, float(dist)


def decode_string(img: BitImage, model: Model, params: SchemeParams) -> str:
    """Read a raw OR-stacked key image of the given scheme back into its text."""
    clean = decide_blocks(img, params)
    best, _ = nearest(extract_features(normalize_glyphs(clean, segment(clean))), model)
    return "".join(model.samples[i].label for i in best)


def save_model(model: Model, path) -> None:
    lines = [f"{MODEL_MAGIC} {FEATURE_LEN} {len(model.samples)}"]
    for s in model.samples:
        vals = " ".join(f"{v:.9g}" for v in s.features)
        lines.append(f"{s.label} {s.source_id} {vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> Model:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty model file {path}")
    head = lines[0].split()
    if len(head) != 3 or head[0] != MODEL_MAGIC:
        raise ValueError(f"bad model header {lines[0]!r}")
    feature_len, n_samples = int(head[1]), int(head[2])
    if feature_len != FEATURE_LEN:
        raise ValueError(f"model has {feature_len} features per sample, expected {FEATURE_LEN}")
    samples = []
    for line in lines[1 : n_samples + 1]:
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"model sample line {line!r} lacks a label and a source id")
        label, source_id = parts[0], parts[1]
        feats = np.array([float(v) for v in parts[2:]])
        samples.append(LabeledSample(label, feats, source_id))
    if len(samples) != n_samples:
        raise ValueError(f"model file holds {len(samples)} samples, header says {n_samples}")
    if not samples:  # nothing to match: every decode would fail
        raise ValueError(f"model file {path} holds no samples")
    return Model(tuple(samples))
