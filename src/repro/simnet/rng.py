"""Batched Mersenne-Twister randomness with an exact ``random.Random`` shim.

The simulator draws randomness one variate at a time (a loss draw per
packet, a jitter draw per transmission, ...), and campaign records are
pinned bit-identical across refactors, so the draw *sequence* is part of
the repo's compatibility contract.  This module batches the underlying
entropy generation without changing a single draw:

* :class:`BatchedRandom` subclasses :class:`random.Random` and overrides
  the two primitives every stdlib distribution is built from --
  ``random()`` and ``getrandbits()``.  Both consume pre-drawn blocks of
  raw 32-bit Mersenne-Twister output words produced vectorized by a
  ``numpy.random.MT19937`` bit generator whose state is transplanted from
  the CPython generator.  ``gauss()``, the simulator's hottest
  distribution, is overridden too: it is CPython's own Box-Muller code,
  reading its two uniforms straight from the pre-folded blocks.
* CPython and numpy implement the *same* MT19937, so the word stream is
  identical, and the overridden primitives reproduce CPython's exact
  word-to-value mapping (``random()`` folds two words; ``getrandbits``
  consumes ``ceil(k/32)`` words little-endian).  Every inherited method
  (``uniform``, ``expovariate``, ``choice``, ``randrange``, ``shuffle``,
  ...) therefore returns the exact values a seeded ``random.Random``
  would -- the compat-shim tests pin this, and ``gauss``, per call and
  under arbitrary interleavings.
* ``seed``/``getstate``/``setstate`` keep the CPython-visible state
  authoritative: ``getstate`` rolls the transplanted generator forward by
  the number of words actually handed out, so round-tripping state between
  :class:`BatchedRandom` and :class:`random.Random` is lossless.
"""

from __future__ import annotations

import random
from math import cos as _cos
from math import log as _log
from math import pi as _pi
from math import sin as _sin
from math import sqrt as _sqrt
from typing import Any, List, Optional, Tuple

import numpy as _np

#: doubling block schedule: derived streams that draw a handful of values
#: stay cheap, the simulator's main stream amortises towards large blocks.
_BLOCK_MIN = 256
_BLOCK_MAX = 8192

_MT_N = 624  # MT19937 state words
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, the CPython random() scale
_TWOPI = 2.0 * _pi  # random.TWOPI


def _transplant(internal: Tuple[int, ...]):
    """Build a numpy MT19937 bit generator from CPython's 625-int state."""
    bg = _np.random.MT19937()
    bg.state = {
        "bit_generator": "MT19937",
        "state": {"key": internal[:_MT_N], "pos": internal[_MT_N]},
    }
    return bg


class BatchedRandom(random.Random):
    """Drop-in ``random.Random`` drawing raw MT words in vectorized blocks."""

    def __init__(self, seed: Any = None):
        # Buffer attributes must exist before Random.__init__ triggers the
        # first self.seed() call.
        self._words: List[int] = []
        self._fev: List[float] = []
        self._fodd: List[float] = []
        self._pos = 0
        self._bg: Any = None
        self._base: Optional[Tuple[int, ...]] = None
        self._drawn = 0
        self._block = _BLOCK_MIN
        super().__init__(seed)

    # -- state management --------------------------------------------------

    def seed(self, a: Any = None, version: int = 2) -> None:
        super().seed(a, version)
        self._resync()

    def setstate(self, state: Tuple[Any, ...]) -> None:
        super().setstate(state)
        self._resync()

    def getstate(self) -> Tuple[Any, ...]:
        consumed = self._drawn - (len(self._words) - self._pos)
        if consumed == 0:
            return (3, self._base, self.gauss_next)
        bg = _transplant(self._base)
        bg.random_raw(consumed)
        state = bg.state["state"]
        internal = tuple(int(w) for w in state["key"]) + (int(state["pos"]),)
        return (3, internal, self.gauss_next)

    def _resync(self) -> None:
        """Rebuild the block source from the CPython-visible MT state."""
        self._words = []
        self._fev = []
        self._fodd = []
        self._pos = 0
        self._drawn = 0
        self._block = _BLOCK_MIN
        _version, internal, _gauss = super().getstate()
        self._base = tuple(internal)
        self._bg = _transplant(self._base)

    # -- block plumbing ----------------------------------------------------

    def _refill(self, need: int) -> List[int]:
        """Extend the buffer (keeping any unconsumed tail) by a fresh block."""
        tail = self._words[self._pos :]
        count = max(self._block, need)
        self._block = min(_BLOCK_MAX, self._block * 2)
        raw = self._bg.random_raw(count)
        self._drawn += count
        words = tail + raw.tolist()
        self._words = words
        self._pos = 0
        # Pre-fold word pairs into CPython-exact random() floats for both
        # pair alignments (getrandbits consumes single words, so random()
        # can start on either parity).  The integer fold (a*2**26 + b with
        # a < 2**27, b < 2**26) stays below 2**53, so the uint64->float64
        # conversion and the scale by the exact power 2**-53 are both
        # exact -- bit-identical to CPython's float-arithmetic fold.
        arr = _np.array(words, dtype=_np.uint64)
        n = len(words)
        hi = arr >> 5
        lo = arr >> 6
        self._fev = ((hi[0 : n - 1 : 2] * 67108864 + lo[1:n:2]) * _INV_2_53).tolist()
        self._fodd = (
            (hi[1 : n - 1 : 2] * 67108864 + lo[2:n:2]) * _INV_2_53
        ).tolist()
        return words

    # -- the two primitives every stdlib distribution reduces to -----------

    def random(self) -> float:
        """Exactly CPython's ``random_random``: fold two 32-bit words."""
        pos = self._pos
        try:
            if pos & 1:
                value = self._fodd[pos >> 1]
            else:
                value = self._fev[pos >> 1]
        except IndexError:
            self._refill(2)
            self._pos = 2
            return self._fev[0]
        self._pos = pos + 2
        return value

    def getrandbits(self, k: int) -> int:
        """Exactly CPython's ``getrandbits``: little-endian 32-bit chunks."""
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        words = self._words
        pos = self._pos
        if k <= 32:
            if pos >= len(words):
                words = self._refill(1)
                pos = 0
            self._pos = pos + 1
            return words[pos] >> (32 - k)
        nwords = (k - 1) // 32 + 1
        if pos + nwords > len(words):
            words = self._refill(nwords)
            pos = 0
        result = 0
        shift = 0
        remaining = k
        for i in range(nwords):
            chunk = words[pos + i]
            if remaining < 32:
                chunk >>= 32 - remaining
            result |= chunk << shift
            shift += 32
            remaining -= 32
        self._pos = pos + nwords
        return result

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Exactly CPython's ``Random.gauss``, drawing from the blocks.

        Its two ``random()`` calls read consecutive pre-folded floats of
        one parity; at a block edge they fall back to ``random()``.
        """
        z = self.gauss_next
        self.gauss_next = None
        if z is None:
            pos = self._pos
            floats = self._fodd if pos & 1 else self._fev
            i = pos >> 1
            if i + 1 < len(floats):
                u1 = floats[i]
                u2 = floats[i + 1]
                self._pos = pos + 4
            else:
                u1 = self.random()
                u2 = self.random()
            x2pi = u1 * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - u2))
            z = _cos(x2pi) * g2rad
            self.gauss_next = _sin(x2pi) * g2rad
        return mu + z * sigma
