"""Counter-based random streams with reproducible substreams.

Every stream is a pure function of ``(seed, stream_id)`` and the sequence of
calls made on it.  Distinct stream ids select statistically independent
substreams of the same seed through the Philox counter-based generator, so
parallel work never has to share or split a live stream.

Reproducibility notes:

* Uniforms are built directly from the raw 64-bit Philox output (a fixed,
  platform-independent algorithm), not from any library distribution method,
  so the values cannot drift with library upgrades.
* Normal variates use the Box-Muller transform on that uniform stream.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .io import is_count, is_integer

_MASK64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Deterministic 64-bit hash of a tuple of integers.

    Used to derive substream ids from structured coordinates such as
    (cell index, replicate index).  The mixing is the splitmix64 finalizer
    folded over the parts; unlike builtin ``hash`` it is stable across
    platforms and processes.

    Parameters
    ----------
    *parts : int
        Integers (:func:`~depthrisk.io.is_integer`, else DomainError), masked to 64 bits.

    Returns
    -------
    int
        A 64-bit integer.
    """
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = acc ^ _word(p, "mix64 part")
        acc = (acc * 0xBF58476D1CE4E5B9) & _MASK64
        acc ^= acc >> 27
        acc = (acc * 0x94D049BB133111EB) & _MASK64
        acc ^= acc >> 31
    return acc


def _word(value, what: str) -> int:
    if not is_integer(value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value) & _MASK64


def _draw_count(n) -> int:
    if not is_count(n, 0):
        raise DomainError(f"draw count must be a nonnegative integer, got {n!r}")
    return int(n)


class RngStream:
    """One reproducible stream of uniforms and normals.

    Parameters
    ----------
    seed : int
        Master seed, an integer as a :func:`mix64` part is (64-bit).
    stream_id : int, optional
        Substream selector, likewise.  Streams with the same seed and
        distinct ids are independent.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _word(seed, "seed")
        self.stream_id = _word(stream_id, "stream_id")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniforms(self, n: int) -> np.ndarray:
        """Draw ``n`` doubles uniform on the open interval (0, 1).

        Each raw 64-bit word is reduced to an odd 53-bit mantissa, so the
        result is always strictly inside (0, 1) and downstream log or
        quantile transforms never see an endpoint.
        """
        n = _draw_count(n)
        raw = self._bitgen.random_raw(n)
        if n == 0:
            return np.empty(0, dtype=float)
        mant = ((np.asarray(raw, dtype=np.uint64) >> np.uint64(12)) << np.uint64(1)) | np.uint64(1)
        return mant.astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """Draw ``n`` standard normal variates via Box-Muller.

        Box-Muller on the uniform stream (rather than a rejection method)
        keeps the draw sequence identical on every platform.  An odd ``n``
        still consumes a whole pair of uniforms and discards one normal.
        """
        n = _draw_count(n)
        if n == 0:
            return np.empty(0, dtype=float)
        m = (n + 1) // 2
        u1 = self.uniforms(m)
        u2 = self.uniforms(m)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:n]
