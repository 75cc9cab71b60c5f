"""Set-based projection of a pairing, an independent reference for the array
sampler, the samplers' int64 construction, and the pairing's own validity
check, which only tests call."""
import numpy as np

from fdst.errors import InvalidInputError
from fdst.graphs import Pairing


def reference_pairing(n, r, rng):
    """int64 matches pairing perm[2i] with perm[2i+1], for perm = rng.permutation(r*n)."""
    perm = rng.permutation(n * r)
    matches = np.empty(n * r, dtype=np.int64)
    matches[perm[0::2]] = perm[1::2]
    matches[perm[1::2]] = perm[0::2]
    return matches


def reference_simple_pairing(n, r, rng):
    """(matches, rejections) of the first reference pairing whose projection is simple."""
    rejections = 0
    while True:
        matches = reference_pairing(n, r, rng)
        if is_simple(projected_pairs(Pairing(n=n, r=r, matches=matches))):
            return matches, rejections
        rejections += 1


def validate_pairing(pairing):
    """Raise unless ``matches`` has r*n entries and is a fixed-point-free involution."""
    m = pairing.num_points()
    pts = np.arange(m)
    if len(pairing.matches) != m:
        raise InvalidInputError("matches has wrong length")
    if np.any(pairing.matches == pts):
        raise InvalidInputError("pairing has a fixed point")
    if not np.array_equal(pairing.matches[pairing.matches], pts):
        raise InvalidInputError("matches is not an involution")


def projected_pairs(pairing):
    """Vertex pairs (p // r, q // r) of the matched points p < q, in increasing order of p."""
    r, matches = pairing.r, pairing.matches
    p = np.flatnonzero(np.arange(len(matches)) < matches)
    return list(zip((p // r).tolist(), (matches[p] // r).tolist()))


def is_simple(pairs):
    """True iff no pair is a loop and no pair repeats."""
    return len(set(pairs)) == len(pairs) and all(u != v for u, v in pairs)
