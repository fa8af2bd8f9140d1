"""Hamming-distance helpers shared by the decoy engine and the attack side.

Distances are always computed between magnitude bit patterns; the sign
never enters because decoys share the sign of their coefficient by
construction.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hamming_distance", "hamming_to", "hub_element"]

HUB_TAU = 1  # largest distance from a hub to every other element of its set


def hamming_distance(a: int, b: int) -> int:
    """Hamming distance between the magnitude bits of two integers."""
    return (abs(int(a)) ^ abs(int(b))).bit_count()


def hamming_to(values: np.ndarray, target: int) -> np.ndarray:
    """Vectorized magnitude-bit Hamming distance of ``values`` to ``target``."""
    mags = np.abs(np.asarray(values)).astype(np.uint64)
    return np.bitwise_count(mags ^ np.uint64(abs(int(target))))


def hub_element(values):
    """The unique element within distance `HUB_TAU` of all others, if any.

    Returns the hub value when exactly one element of ``values`` has
    magnitude-bit Hamming distance <= `HUB_TAU` to every other element,
    and ``None`` otherwise (no hub, or several, as when two elements
    share a magnitude and sit within `HUB_TAU` of the rest).
    """
    vals = [int(v) for v in values]
    hubs = [
        v
        for idx, v in enumerate(vals)
        if all(hamming_distance(v, u) <= HUB_TAU for j, u in enumerate(vals) if j != idx)
    ]
    return hubs[0] if len(hubs) == 1 else None
