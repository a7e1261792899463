"""``repro.sim.rng.Stream`` against numpy's ``Generator(PCG64)``.

The simulator's streams are a pure-Python PCG64 generator that must draw
exactly what numpy draws from the same seed. Every check here compares
values *and* the full bit-generator state (``state``, ``inc``,
``has_uint32``, ``uinteger``) after each call, so a method that returns
the right value but consumes the stream differently fails too. The
ziggurat tables are checked entry by entry against a live numpy, through
draws from crafted PCG64 states whose next output is chosen.
"""

import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.sim import ziggurat
from repro.sim.rng import FORK_TAG, RngRegistry, Stream, seed_words

_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)

#: every stream name a shipped run draws from: the deployment shuffle,
#: each traffic source of the default and streamed suites, a fault
#: stream, and the north-south example's relabelling stream
STREAM_NAMES = ("deployment", "traffic.bg", "traffic.fg", "traffic.burst",
                "traffic.incast", "traffic.jobs", "faults.0.h0.0.0->tor0.0",
                "north-south")


def _numpy_twin(entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _same(ours: Stream, gen: np.random.Generator, what="") -> None:
    assert ours.state == gen.bit_generator.state, what


def _exercise(ours: Stream, gen: np.random.Generator, rounds: int) -> None:
    """Every method the simulator draws with, state checked after each."""
    for i in range(rounds):
        n = 1 + 37 * i % 200
        for call in (lambda g: g.random(),
                     lambda g: g.integers(0, n),
                     lambda g: g.exponential(2.5),
                     lambda g: g.lognormal(1.0, 1.5),
                     lambda g: g.pareto(1.3)):
            assert call(ours) == call(gen), i
            _same(ours, gen, i)
    for n in (1, 2, 3, 8, 24, 97):
        assert ours.permutation(n) == gen.permutation(n).tolist()
        _same(ours, gen, f"permutation({n})")
        for k in sorted({0, 1, n // 2, n - 1, n}):
            assert (ours.choice(n, size=k, replace=False)
                    == gen.choice(n, size=k, replace=False).tolist()), (n, k)
            _same(ours, gen, f"choice({n}, {k})")


def _crafted(*outputs):
    """A PCG64 ``(state, inc)`` whose next one or two 64-bit outputs are
    ``outputs``: each output fixes a post-step state up to its free high
    bits (XSL-RR is invertible once the rotation is chosen), and ``inc``
    links two consecutive states."""

    def state_for(out, spin):
        rot = 5
        hi = (rot << 58) | spin
        lo = hi ^ (((out << rot) | (out >> (64 - rot))) & _M64)
        return (hi << 64) | lo

    first = state_for(outputs[0], 0x1234567)
    if len(outputs) == 1:
        inc = 1
    else:
        second = state_for(outputs[1], 0x89ABCDE)
        if (second - first * _PCG_MULT) % 2 == 0:  # inc must be odd
            second = state_for(outputs[1], 0x89ABCDF)
        inc = (second - first * _PCG_MULT) & _M128
    return ((first - inc) * _PCG_MULT_INV) & _M128, inc


def _pair_at(state, inc):
    """Our stream and a numpy generator, both at ``(state, inc)``."""
    ours = Stream([0])
    ours._state, ours._inc = state, inc
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return ours, np.random.Generator(bitgen)


def _exp_word(idx, ri):
    return ((ri << 8) | idx) << 3


def _nor_word(idx, rabs, sign=0):
    return (((rabs << 1) | sign) << 8) | idx


def _draws_one_word(method, word) -> bool:
    """Whether numpy's ``method`` takes its fast path on ``word``."""
    state, inc = _crafted(word)
    _, gen = _pair_at(state, inc)
    getattr(gen, method)()
    return gen.bit_generator.state["state"]["state"] \
        == (state * _PCG_MULT + inc) & _M128


class TestSeeding:
    @pytest.mark.parametrize("entropy", [
        [0], [1], [2**32 - 1], [2**32], [2**64 + 5], [3, 0xDEADBEEF],
        [1, FORK_TAG, 2**40], list(range(9)), [2**200 + 1],
    ])
    def test_seed_words_are_generate_state(self, entropy):
        want = np.random.SeedSequence(entropy).generate_state(6, np.uint64)
        assert seed_words(entropy, 6) == want.tolist()

    def test_negative_entropy_is_refused(self):
        with pytest.raises(ValueError):
            seed_words([-1], 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_fork_is_the_seed_sequence_word(self, seed):
        for salt in (0, 1, 7, 2**31, 2**40 + 3):
            child = RngRegistry(seed).fork(salt)
            want = np.random.SeedSequence([seed, FORK_TAG, salt]) \
                .generate_state(1, np.uint64)[0]
            assert child.seed == int(want)
            name = "traffic.bg"
            _same(child.stream(name), _numpy_twin(
                [child.seed, zlib.crc32(name.encode())]))


class TestStreams:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_stream_name_draws_what_numpy_draws(self, seed):
        registry = RngRegistry(seed)
        for name in STREAM_NAMES:
            ours = registry.stream(name)
            gen = _numpy_twin([seed, zlib.crc32(name.encode())])
            _same(ours, gen, name)
            _exercise(ours, gen, rounds=12)

    def test_integers_for_every_small_range(self):
        ours, gen = Stream([5, 6]), _numpy_twin([5, 6])
        for n in range(1, 301):
            for _ in range(7):
                assert ours.integers(0, n) == gen.integers(0, n), n
                _same(ours, gen, n)
        # n == 1 consumes nothing; a sized call is that many scalar calls
        before = ours.state
        assert ours.integers(0, 1) == 0 and ours.state == before
        assert ours.integers(3, 2**40, 5) == gen.integers(3, 2**40, 5).tolist()
        _same(ours, gen)
        assert ours.integers(2**33) == gen.integers(2**33)
        _same(ours, gen)

    def test_large_choice_takes_numpy_tail_shuffle(self):
        ours, gen = Stream([9]), _numpy_twin([9])
        assert ours.choice(20_000, size=1_000, replace=False) \
            == gen.choice(20_000, size=1_000, replace=False).tolist()
        _same(ours, gen)

    def test_long_runs_stay_in_step(self):
        """Long enough to pass through every ziggurat slow path."""
        ours, gen = Stream([1, 2]), _numpy_twin([1, 2])
        assert [ours.exponential(3.0) for _ in range(100_000)] \
            == gen.exponential(3.0, 100_000).tolist()
        assert [ours.lognormal(2.0, 0.5) for _ in range(50_000)] \
            == gen.lognormal(2.0, 0.5, 50_000).tolist()
        _same(ours, gen)

    def test_bad_arguments_raise(self):
        ours = Stream([0])
        with pytest.raises(ValueError):
            ours.integers(5, 5)
        with pytest.raises(ValueError):
            ours.choice(3, size=4, replace=False)
        with pytest.raises(NotImplementedError):
            ours.choice(3, size=2)


class TestZigguratTables:
    def test_widths_are_numpy_draws_at_unit_rank(self):
        """rank 1 on the fast path returns the strip width itself."""
        for idx in range(256):
            for table, method, word in (
                    (ziggurat.WE, "standard_exponential", _exp_word(idx, 1)),
                    (ziggurat.WI, "standard_normal", _nor_word(idx, 1))):
                state, inc = _crafted(word)
                _, gen = _pair_at(state, inc)
                assert getattr(gen, method)() == table[idx], (method, idx)

    def test_thresholds_are_numpy_fast_path_edges(self):
        """``K[idx] - 1`` takes numpy's fast path and ``K[idx]`` does not."""
        for idx in range(256):
            for table, method, word, top in (
                    (ziggurat.KE, "standard_exponential", _exp_word, 1 << 53),
                    (ziggurat.KI, "standard_normal", _nor_word, 1 << 52)):
                k = table[idx]
                if k > 0:
                    assert _draws_one_word(method, word(idx, k - 1)), idx
                if k < top:
                    assert not _draws_one_word(method, word(idx, k)), idx

    def test_density_tables_are_numpy_data(self):
        """``FE`` / ``FI`` sit verbatim in numpy's generator extension,
        just below ``WE`` / ``WI`` (numpy's table layout)."""
        with open(np.random._generator.__file__, "rb") as f:
            blob = f.read()
        for dens, width in ((ziggurat.FE, ziggurat.WE),
                            (ziggurat.FI, ziggurat.WI)):
            packed = struct.pack("<256d", *dens) + struct.pack("<256d", *width)
            assert packed in blob

    def test_slow_paths_draw_what_numpy_draws(self):
        """From each strip's threshold, with chosen follow-up words: the
        wedge tests against ``FE`` / ``FI``, and at strip 0 the tails."""
        for idx in range(256):
            for follow in (0, 1 << 63, 0x9E3779B97F4A7C15, _M64):
                for method, word in (
                        ("exponential",
                         _exp_word(idx, min(ziggurat.KE[idx], (1 << 53) - 1))),
                        ("lognormal",
                         _nor_word(idx, min(ziggurat.KI[idx], (1 << 52) - 1),
                                   sign=follow & 1))):
                    ours, gen = _pair_at(*_crafted(word, follow))
                    assert getattr(ours, method)() == getattr(gen, method)()
                    _same(ours, gen, (method, idx, follow))


def test_a_run_does_not_import_numpy():
    """numpy is the reference here, not a dependency: a fresh interpreter
    runs a cell and summarizes its FCTs without loading it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys\n"
            "from tests.util import tiny_cfg\n"
            "from repro.experiments import run_experiment\n"
            "run_experiment(tiny_cfg()).fct()\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
