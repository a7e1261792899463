"""Named deterministic random streams.

Every source of randomness in an experiment (flow sizes, arrival times,
source/destination picks, ECMP tie-breaks) draws from its own named stream.
Streams are derived from the experiment seed and the stream name, so adding a
new consumer of randomness never perturbs existing streams — a property the
regression tests rely on.

A stream is a pure-Python PCG64 generator (XSL-RR output on a 128-bit LCG)
seeded by numpy's ``SeedSequence`` hash. Every method below draws exactly
what the same-named method of ``numpy.random.Generator(PCG64(...))`` draws
from the same seed, bit for bit, and leaves the bit generator in the same
state (``tests/test_rng_numpy.py`` holds the two side by side). Keeping the
algorithm in-tree freezes the streams: numpy may change ``Generator``
streams between releases (NEP 19), this module does not change with it, and
a run does not load numpy at all.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Iterable, List, Optional, Union

from repro.sim.ziggurat import EXP_R, FE, FI, KE, KI, NOR_INV_R, NOR_R, WE, WI

#: domain-separation tag ("fork" in ASCII) for derived registries
FORK_TAG = 0x666F726B

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence hash constants (O'Neill's seed_seq_fe, as numpy uses them)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def seed_words(entropy: Iterable[int], n_words: int) -> List[int]:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)``.

    Each non-negative integer of ``entropy`` contributes its 32-bit words,
    least significant first; the words are hashed into a pool of four and
    the pool is hashed out again, two 32-bit words (low first) per result.
    """
    words: List[int] = []
    for value in entropy:
        value = int(value)
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        words.append(value & _M32)
        value >>= 32
        while value:
            words.append(value & _M32)
            value >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    out32: List[int] = []
    hash_const = _INIT_B
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        out32.append(value ^ (value >> 16))
    return [out32[2 * i] | (out32[2 * i + 1] << 32) for i in range(n_words)]


class Stream:
    """``numpy.random.Generator(PCG64(SeedSequence(entropy)))``, in Python.

    Only the methods the simulator draws from are here, each with numpy's
    algorithm: ``random`` (53-bit double), ``integers`` (Lemire's method on
    the bit generator's buffered 32-bit draws, low half first), ziggurat
    ``exponential`` / ``lognormal``, ``pareto``, ``permutation`` (masked
    rejection) and ``choice(replace=False)`` (Floyd's algorithm, then a
    Lemire shuffle). Scalars come back as Python ``int`` / ``float`` and
    arrays as lists.
    """

    __slots__ = ("_state", "_inc", "_has32", "_u32")

    def __init__(self, entropy: Iterable[int]) -> None:
        s_hi, s_lo, i_hi, i_lo = seed_words(entropy, 4)
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _M128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128
        self._state = state
        self._inc = inc
        self._has32 = False
        self._u32 = 0

    @property
    def state(self) -> dict:
        """The bit generator's state in ``PCG64.state``'s layout."""
        return {"bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": int(self._has32), "uinteger": self._u32}

    def _next64(self) -> int:
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        rot = s >> 122
        v = ((s >> 64) ^ s) & _M64
        return ((v >> rot) | (v << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._u32
        v = self._next64()
        self._has32 = True
        self._u32 = v >> 32
        return v & _M32

    def _bounded(self, rng: int) -> int:
        """Uniform on ``[0, rng]`` by Lemire's multiply-and-reject."""
        if rng == 0:
            return 0
        if rng <= _M32:
            if rng == _M32:
                return self._next32()
            draw, bits, mask = self._next32, 32, _M32
        elif rng == _M64:
            return self._next64()
        else:
            draw, bits, mask = self._next64, 64, _M64
        excl = rng + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - rng) % excl
            while m & mask < threshold:
                m = draw() * excl
        return m >> bits

    def _interval(self, hi: int) -> int:
        """Uniform on ``[0, hi]`` by masked rejection (``hi < 2**32``)."""
        mask = (1 << hi.bit_length()) - 1
        while True:
            value = self._next32() & mask
            if value <= hi:
                return value

    def random(self) -> float:
        """A double uniform on [0, 1): the top 53 bits of one draw."""
        return (self._next64() >> 11) * _TO_DOUBLE

    def integers(self, low: int, high: Optional[int] = None,
                 size: Optional[int] = None) -> Union[int, List[int]]:
        """Integers uniform on ``[low, high)`` (``[0, low)`` if no high)."""
        if high is None:
            low, high = 0, low
        rng = int(high) - int(low) - 1
        if rng < 0:
            raise ValueError(f"low >= high: integers({low}, {high})")
        if size is None:
            return low + self._bounded(rng)
        return [low + self._bounded(rng) for _ in range(size)]

    def _standard_exponential(self) -> float:
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return x
            if idx == 0:
                return EXP_R - math.log1p(-self.random())
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return x

    def exponential(self, scale: float = 1.0) -> float:
        return scale * self._standard_exponential()

    def _standard_normal(self) -> float:
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return (-(NOR_R + xx) if (rabs >> 8) & 1
                                else NOR_R + xx)
            elif ((FI[idx - 1] - FI[idx]) * self.random() + FI[idx]
                  < math.exp(-0.5 * x * x)):
                return x

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        return math.exp(mean + sigma * self._standard_normal())

    def pareto(self, a: float) -> float:
        """Pareto II (Lomax) with shape ``a``: ``expm1(E / a)``."""
        return math.expm1(self._standard_exponential() / a)

    def permutation(self, n: int) -> List[int]:
        """A random ordering of ``range(n)`` (Fisher-Yates from the top)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            out[i], out[j] = out[j], out[i]
        return out

    def choice(self, n: int, size: int, replace: bool = True) -> List[int]:
        """``size`` distinct values of ``range(n)``; only ``replace=False``."""
        if replace:
            raise NotImplementedError("only choice(..., replace=False) is "
                                      "implemented")
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct values of "
                             f"range({n})")
        if n > 10000 and size > n // 50:
            # numpy's tail shuffle of the whole range for large draws
            out = list(range(n))
            self._shuffle(out, max(n - size, 1))
            return out[n - size:]
        out = []
        seen = set()
        for j in range(n - size, n):
            val = self._bounded(j)
            if val in seen:
                val = j
            seen.add(val)
            out.append(val)
        self._shuffle(out, 1)
        return out

    def _shuffle(self, items: List[int], first: int) -> None:
        for i in range(len(items) - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]


class RngRegistry:
    """A registry of named :class:`Stream` s."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, Stream] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> Stream:
        """Return (creating if needed) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # Stable across processes and Python versions: derive the child
            # seed from CRC32 of the name rather than hash().
            child = zlib.crc32(name.encode("utf-8"))
            gen = Stream([self._seed, child])
            self._streams[name] = gen
        return gen

    def fork(self, salt: int) -> "RngRegistry":
        """Derive an independent registry (e.g., per repetition).

        The child seed is ``SeedSequence([seed, FORK_TAG, salt])``'s first
        64-bit word rather than a linear mix: the old ``seed * P + salt``
        derivation collided whenever ``seed1 * P + salt1 == seed2 * P +
        salt2`` (e.g. (7, P) and (8, 0)), handing two unrelated scenarios
        every random stream in common.
        """
        return RngRegistry(seed=seed_words([self._seed, FORK_TAG, salt], 1)[0])
