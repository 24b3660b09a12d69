"""Counter-based random substreams.

One master 64-bit seed is split into independent substreams by keying a
Philox4x64-10 counter-based generator with (seed, stream index). Streams are
order-independent, so draws for cluster i are identical no matter how many
clusters are generated or in what order.

`philox_raw` evaluates the generator for a whole array of stream indices at
once: row j holds the words `np.random.Philox(key=(seed, streams[j]))` gives
through `random_raw`. `normals` maps those words to standard normals with a
fixed number of words per variate (Box-Muller): each word w becomes
u = (w >> 11) * 2**-53 in [0, 1), and the words pair up as (u1, u2) ->
r*cos(2*pi*u2), r*sin(2*pi*u2) with r = sqrt(-2*log1p(-u1)). So m normals
of one stream always use the same 2*ceil(m/2) words, and the m normals are
a prefix of any longer draw from that stream.

`substream` gives one stream as a `np.random.Generator`, for the samplers
that draw a single long stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "philox_raw", "normals"]

MASK64 = 2**64 - 1
MASK32 = np.uint64(2**32 - 1)
SHIFT32 = np.uint64(32)
ROUNDS = 10
MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64 round multipliers
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments between rounds


def _seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed = {seed}: not a 64-bit unsigned integer, [0, 2**64 - 1]")
    return seed


def substream(seed: int, stream: int) -> np.random.Generator:
    """Generator for substream `stream` of master `seed`; bit-reproducible."""
    key = np.array([_seed(seed), int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m*x, by 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & MASK32, x >> SHIFT32
    ll, lh, hl = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (ll >> SHIFT32) + (lh & MASK32) + (hl & MASK32)
    hi = x_hi * m_hi + (lh >> SHIFT32) + (hl >> SHIFT32) + (mid >> SHIFT32)
    return hi, x * np.uint64(m)  # uint64 array products wrap modulo 2**64


def philox_raw(seed: int, streams, n_words: int) -> np.ndarray:
    """(len(streams), n_words) uint64: row j is stream streams[j]'s first words.

    Bit for bit `np.random.Philox(key=(seed, streams[j])).random_raw(n_words)`:
    block b (4 words) encrypts the counter (b + 1, 0, 0, 0) under that key.
    """
    k0 = _seed(seed)
    k1 = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
    blocks = -(-int(n_words) // 4)
    shape = (len(k1), blocks)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    x1 = x2 = x3 = np.zeros(shape, dtype=np.uint64)
    for r in range(ROUNDS):
        if r:
            k0, k1 = (k0 + WEYL[0]) & MASK64, k1 + np.uint64(WEYL[1])
        hi0, lo0 = _mulhilo(MULT[0], x0)
        hi1, lo1 = _mulhilo(MULT[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=-1).reshape(len(k1), 4 * blocks)[:, :n_words]


def normals(seed: int, streams, m: int) -> np.ndarray:
    """(len(streams), m) standard normals; row j depends only on (seed, streams[j])."""
    pairs = -(-int(m) // 2)
    u = (philox_raw(seed, streams, 2 * pairs) >> np.uint64(11)) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    t = 2.0 * np.pi * u[:, 1::2]
    z = np.empty_like(u)
    np.multiply(r, np.cos(t), out=z[:, 0::2])
    np.multiply(r, np.sin(t), out=z[:, 1::2])
    return z[:, :m]
