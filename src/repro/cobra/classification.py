"""Shot classification: tennis / close-up / audience / other (Fig. 5).

"The same algorithm encapsulates shot classification ... The court shots
are recognized based on dominant color ... A shot is classified as a
close-up, if it contains a significant amount of skin colored pixels.
For the classification, we also use entropy characteristics, mean and
variance."

The court colour is *not* a parameter: "The dominant color that occurs
most frequently is supposed to be the tennis court color.  By analyzing
the dominant color of all shots, our segmentation algorithm is
generalized to work with different classes of tennis courts without
changing any parameters."
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.cobra.histogram import (dominant_color, entropy, mean_intensity,
                                   skin_fraction, variance_intensity)
from repro.cobra.segmentation import Shot

__all__ = ["ClassifiedShot", "estimate_court_color", "classify_shots",
           "CLOSEUP_SKIN_FRACTION", "AUDIENCE_ENTROPY"]

CLOSEUP_SKIN_FRACTION = 0.25
AUDIENCE_ENTROPY = 7.0


@dataclass(frozen=True)
class ClassifiedShot:
    """A shot with its category and the features used to decide it."""

    begin: int
    end: int
    category: str
    dominant_color: tuple[int, int, int]
    skin_fraction: float
    entropy: float
    mean: float
    variance: float

    @property
    def length(self) -> int:
        return self.end - self.begin + 1


def _middle_frame(frames: np.ndarray, shot: Shot) -> np.ndarray:
    return frames[(shot.begin + shot.end) // 2]


def estimate_court_color(frames: np.ndarray, shots: list[Shot]
                         ) -> tuple[int, int, int]:
    """The most frequent per-shot dominant colour = the court colour."""
    votes = Counter(dominant_color(_middle_frame(frames, shot))
                    for shot in shots)
    return votes.most_common(1)[0][0]


def classify_shots(frames: np.ndarray, shots: list[Shot],
                   court_color: tuple[int, int, int] | None = None
                   ) -> list[ClassifiedShot]:
    """Assign each shot one of the four categories of the paper."""
    if court_color is None:
        court_color = estimate_court_color(frames, shots)
    classified: list[ClassifiedShot] = []
    for shot in shots:
        frame = _middle_frame(frames, shot)
        dom = dominant_color(frame)
        skin = skin_fraction(frame)
        ent = entropy(frame)
        mean = mean_intensity(frame)
        variance = variance_intensity(frame)
        # entropy first: an audience mosaic's modal colour holds a few
        # pixels and may happen to be the court's
        if ent >= AUDIENCE_ENTROPY:
            category = "audience"
        elif dom == court_color:
            category = "tennis"
        elif skin >= CLOSEUP_SKIN_FRACTION:
            category = "closeup"
        else:
            category = "other"
        classified.append(ClassifiedShot(
            shot.begin, shot.end, category, dom, skin, ent, mean, variance))
    return classified
