"""Order statistics shared by the end-to-end and per-layer reports."""

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between the closest ranks; q in [0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)
