"""Set-based projection of a pairing: an independent reference for the array sampler."""
import numpy as np


def projected_pairs(pairing):
    """Vertex pairs (p // r, q // r) of the matched points p < q, in increasing order of p."""
    r, matches = pairing.r, pairing.matches
    p = np.flatnonzero(np.arange(len(matches)) < matches)
    return list(zip((p // r).tolist(), (matches[p] // r).tolist()))


def is_simple(pairs):
    """True iff no pair is a loop and no pair repeats."""
    return len(set(pairs)) == len(pairs) and all(u != v for u, v in pairs)
