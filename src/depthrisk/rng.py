"""Counter-based random streams with reproducible substreams.

Every stream is a pure function of ``(seed, stream_id)`` and the sequence of
calls made on it.  Distinct stream ids select statistically independent
substreams of the same seed through the Philox counter-based generator, so
parallel work never has to share or split a live stream.

Reproducibility notes:

* Uniforms are built directly from the raw 64-bit Philox output (a fixed,
  platform-independent algorithm), not from any library distribution method,
  so the values cannot drift with library upgrades.  Each word keeps its top
  52 bits k = raw >> 12, which are spliced under the exponent of 1.0: the
  bits ``k | 0x3FF0000000000000`` read as a double are 1 + k * 2**-52, in
  [1, 2).  Subtracting 1 - 2**-53 leaves (2k + 1) * 2**-53, an odd multiple
  of 2**-53 that is exactly representable, so the subtraction does not round
  and no integer-to-float conversion is needed.
* Normal variates use the Box-Muller transform on that uniform stream,
  computed in place on the uniforms' buffer (:func:`normal_rows`).  The
  angle 2 pi u enters through the tangent of the half angle, t = tan(pi (u -
  1/2)), whose rational forms give its cosine and sine: numpy runs float64
  ``tan``, like ``log``, through a SIMD loop chosen by CPU, but ``sin`` and
  ``cos`` as scalar libm on some hosts.
* :func:`uniform_rows` and :func:`normal_rows` draw one row per stream in
  one pass; row r is bit for bit what ``streams[r]`` alone gives, and the
  stream methods are their one-row case.  A draw count ``n`` is any integer
  >= 0, checked by :func:`~depthrisk.io.check_count`.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .io import check_count, is_integer

_MASK64 = (1 << 64) - 1
_ONE_BITS = 0x3FF0000000000000  # the exponent field of 1.0
_ONE_LESS_HALF_ULP = 1.0 - 2.0**-53

# Values per chunk of an elementwise pass over a long array (Box-Muller
# here, both laws' draws, the oracle's scoring, and the nodes of the
# Frank-Gumbel model grid and truth quadrature): a few float arrays of this
# many values fit in a 2 MiB L2 cache.
CHUNK = 1 << 14


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
        """Draw ``n`` doubles uniform on the open interval (0, 1): the one-row
        case of :func:`uniform_rows`."""
        return uniform_rows([self], n)[0]

    def normals(self, n: int) -> np.ndarray:
        """Draw ``n`` standard normal variates: the one-row case of
        :func:`normal_rows`."""
        return normal_rows([self], n)[0]


def uniform_rows(streams, n: int) -> np.ndarray:
    """A C-contiguous (k, n) array whose row r is the next ``n`` uniforms of
    ``streams[r]``, each strictly inside (0, 1).

    Each raw 64-bit word is reduced to an odd 53-bit mantissa, so the result
    is always strictly inside (0, 1) and downstream log or quantile
    transforms never see an endpoint.  The words of all rows are spliced in
    one pass.
    """
    n = check_count(n, 0, "n")
    if len(streams) == 1:  # spliced in place, not copied: oracle batches are MBs
        raw = streams[0]._bitgen.random_raw(n)[None]
    else:
        raw = np.empty((len(streams), n), dtype=np.uint64)
        for row, stream in zip(raw, streams):
            row[...] = stream._bitgen.random_raw(n)
    raw >>= np.uint64(12)
    raw |= np.uint64(_ONE_BITS)
    u = raw.view(np.float64)
    u -= _ONE_LESS_HALF_ULP
    return u


def normal_rows(streams, n: int) -> np.ndarray:
    """A C-contiguous (k, n) array whose row r is the next ``n`` standard
    normal variates of ``streams[r]``, by Box-Muller.

    Box-Muller on the uniform stream (rather than a rejection method) keeps
    the words each normal consumes the same on every platform.  Each row
    takes m = (n + 1) // 2 radius uniforms, then m angle uniforms; it holds
    the m cosine normals, then the first n - m sine normals, so an odd ``n``
    still consumes a whole pair of uniforms and discards one normal.

    The radius is r = sqrt(-2 log u1).  The angle u2 is evaluated by the
    tangent half-angle t = tan(pi (u2 - 1/2)) = -cot(pi u2), so r cos 2 pi u2
    = r (t - 1)(t + 1) / (1 + t^2) and r sin 2 pi u2 = -2 r t / (1 + t^2).
    Against 40-digit arithmetic the two factors err by under 4 * 2**-53
    absolute (libm's cos and sin of the rounded 2 pi u2 by up to 6 * 2**-53),
    and |t| < 3e15 for the odd 53-bit uniforms, so t^2 is finite.

    The transform runs in place on the uniforms' own buffer, ``CHUNK``
    columns at a time with one reused scratch row: each radius becomes its
    cosine normal and each angle its sine normal, the same operations in the
    same order as forming them apart, so the same bits.  That buffer is
    returned; only k > 1 rows of an odd ``n`` are compacted by a copy.
    """
    n = check_count(n, 0, "n")
    m = (n + 1) // 2
    u = uniform_rows(streams, 2 * m)
    row = np.empty((len(u), min(CHUNK, m)))
    for start in range(0, m, CHUNK):
        radius = u[:, start : min(start + CHUNK, m)]
        angle = u[:, m + start : m + start + CHUNK]
        scratch = row[:, : angle.shape[1]]
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle -= 0.5
        angle *= np.pi
        np.tan(angle, out=angle)
        np.multiply(angle, angle, out=scratch)
        scratch += 1.0
        np.divide(radius, scratch, out=scratch)
        np.subtract(angle, 1.0, out=radius)
        radius *= scratch
        scratch *= angle
        angle += 1.0
        radius *= angle
        np.multiply(scratch, -2.0, out=angle)
    z = u[:, :n]
    return z if z.flags.c_contiguous else z.copy()
