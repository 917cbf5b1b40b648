"""Keyed random streams, and many users' PCG64 draws computed at once.

`stream(seed, *key)` defines every random stream of training: numpy's
PCG64, seeded through SeedSequence from the key. `KeyedStreams` draws
exactly as `stream(seed, tag, epoch, u)` for every user u of an epoch and
purpose without building a generator per user: `seat(u)` re-seats one
shared generator at u's stream, and `integers`, `random` and `raw` make
the first call of many users' streams in one pass.

In that pass a row whose call takes at most `SHORT_OUTPUTS` 64-bit outputs
is computed in numpy. PCG64 is a 128-bit LCG with the XSL-RR output
(O'Neill, "PCG", 2014), so output j of a stream is a fixed function of its
seeded state: s_j = A_j*s_0 + C_j*inc mod 2**128, with A_j = M**j and
C_j = 1 + M + ... + M**(j-1), then rotr64(hi ^ lo, hi >> 58). 128-bit
values are (hi, lo) pairs of uint64 arrays. Bounded integers are
numpy's Lemire rejection (Lemire, "Fast Random Integer Generation in an
Interval", ACM TOMACS 2019) on the 32-bit halves of the outputs, low half
first, and uniforms are the top 53 bits of an output. Longer rows, rows
where a candidate is rejected and domains of 2**32 or more are drawn by
the seated generator. `check_numpy` compares the computed draws with
numpy's own for a few keys, so that a numpy whose generator changes fails
loudly instead of changing every sample; training runs it before its
first epoch.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy's SeedSequence constants (NEP 19): the pool-of-4 entropy hash and
# mix, then generate_state's output hash
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill, "PCG", 2014)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1

# a row whose call takes more 64-bit outputs than this is drawn by its seated
# generator: computing an output costs about 0.15 us, a seat and a numpy call
# about 4-10 us a row
SHORT_OUTPUTS = 32


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, tag, ...) key."""
    return np.random.default_rng((seed,) + key)


def _seed_states(key: tuple[int, ...], users: np.ndarray) -> np.ndarray:
    """`SeedSequence(key + (u,)).generate_state(4, np.uint64)` for every u
    in `users`, one row each, in uint32 arithmetic on all users at once.

    As SeedSequence does, each int is read as its little-endian 32-bit
    words (0 as one word); the first four words fill the pool, and each
    word past the fourth is then mixed into every pool word. `key` holds
    three ints or more, and every user is below 2**32, one word.
    """
    u32 = np.uint32
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ u32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * u32(hash_a)
        return value ^ (value >> u32(16))

    def mix(x, y):
        value = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return value ^ (value >> u32(16))

    users = np.asarray(users, dtype=np.uint32)
    words = [np.full(len(users), value >> shift & _MASK32, dtype=np.uint32)
             for value in key for shift in range(0, max(value.bit_length(), 1), 32)]
    words.append(users)
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = np.empty((len(users), 8), dtype=np.uint32)
    hash_b = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * u32(hash_b)
        out[:, i] = value ^ (value >> u32(16))
    # each uint64 is a little-endian pair of words, as in generate_state
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _jump_table() -> np.ndarray:
    """Rows (A hi, A lo, C hi, C lo) by columns j = 0..SHORT_OUTPUTS + 1:
    j LCG steps take a state s to A_j*s + C_j*inc mod 2**128. Output j of
    a stream is read off the state j + 1 steps past its start."""
    a, c, cols = 1, 0, []
    for _ in range(SHORT_OUTPUTS + 2):
        cols.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
        a, c = a * _PCG64_MULT & _MASK128, (c * _PCG64_MULT + 1) & _MASK128
    return np.array(cols, dtype=np.uint64).T.copy()


_JUMP = _jump_table()


def _mul(a_hi, a_lo, b_hi, b_lo):
    """a*b mod 2**128 as (hi, lo); the high half of a_lo*b_lo is summed
    from the products of their 32-bit limbs."""
    a0, a1, b0, b1 = a_lo & _MASK32, a_lo >> 32, b_lo & _MASK32, b_lo >> 32
    cross_a, cross_b = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    hi = a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
    return hi + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2**128 as (hi, lo)."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions starts[i] + j for j < lengths[i], laid end to end."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _lemire(domain: int, outputs: np.ndarray, counts: np.ndarray):
    """`integers(0, domain, size=k)` of rows of k = `counts` values from
    their streams' first (k + 1) // 2 `outputs`, laid end to end: the
    values, and a mask of the rows that reject a candidate."""
    halves = np.asarray(outputs, dtype="<u8").view("<u4")
    words = (counts + 1) // 2
    m = halves[_spans(2 * (np.cumsum(words) - words), counts)].astype(np.uint64) * domain
    rejected = (m & _MASK32) < (2**32 - domain) % domain
    unfinished = None
    if rejected.any():
        owner = np.repeat(np.arange(len(counts)), counts)
        unfinished = np.bincount(owner[rejected], minlength=len(counts)) > 0
    return m >> 32, unfinished


def _seated(key: tuple[int, ...], users: np.ndarray) -> np.ndarray:
    """Rows (start hi, start lo, inc hi, inc lo) by columns: the PCG64 of
    `stream(*key, u)` for every u in `users`. From `_seed_states`'
    (initstate, initseq), `pcg64_set_seed` sets inc = 2*initseq + 1 and,
    from state 0, takes one LCG step (to inc), adds initstate and takes one
    more step; start is the state before that step, initstate + inc."""
    init_hi, init_lo, seq_hi, seq_lo = _seed_states(key, users).T
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    return np.stack(_add(init_hi, init_lo, *inc) + inc)


class KeyedStreams:
    """The streams `stream(seed, tag, epoch, u)` of the users u < n.

    `integers`, `random` and `raw` take rows (users[i], counts[i]) and
    return each row's values of one call on a fresh stream of its user,
    laid end to end, so a user in two rows draws the same values twice.
    """

    def __init__(self, seed: int, tag: int, epoch: int, n: int):
        self._keys = _seated((seed, tag, epoch), np.arange(n))
        self._rng = np.random.Generator(np.random.PCG64(0))

    def seat(self, u: int) -> np.random.Generator:
        """A generator that draws exactly as `stream(seed, tag, epoch, u)`.

        Every call returns the same generator, re-seated, so each call
        spends the one before.
        """
        start_hi, start_lo, inc_hi, inc_lo = self._keys[:, u].tolist()
        inc = inc_hi << 64 | inc_lo
        state = ((start_hi << 64 | start_lo) * _PCG64_MULT + inc) & _MASK128
        self._rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                         "state": {"state": state, "inc": inc}}
        return self._rng

    def raw(self, users, counts) -> np.ndarray:
        """`bit_generator.random_raw(k)` of each (u, k) in zip(users,
        counts), from u's stream, laid end to end."""
        counts = np.asarray(counts, dtype=np.int64)
        return self._draw(users, counts, counts, np.uint64, lambda x, _: (x, None),
                          lambda rng, k: rng.bit_generator.random_raw(k))

    def random(self, users, counts) -> np.ndarray:
        """`random(k)` of each (u, k) in zip(users, counts), from u's
        stream, laid end to end."""
        counts = np.asarray(counts, dtype=np.int64)
        return self._draw(users, counts, counts, np.float64,
                          lambda x, _: ((x >> 11) * 2.0**-53, None),
                          lambda rng, k: rng.random(k))

    def integers(self, users, counts, domain: int) -> np.ndarray:
        """`integers(0, domain, size=k)` of each (u, k) in zip(users,
        counts), from u's stream, laid end to end."""
        counts = np.asarray(counts, dtype=np.int64)
        # two 32-bit candidates an output; numpy draws wider domains otherwise
        words = ((counts + 1) // 2 if domain < 2**32
                 else np.full(len(counts), SHORT_OUTPUTS + 1))
        return self._draw(users, counts, words, np.int64,
                          lambda x, counts: _lemire(domain, x, counts),
                          lambda rng, k: rng.integers(0, domain, size=k))

    def _draw(self, users, counts, words, dtype, compute, call) -> np.ndarray:
        """Row i's counts[i] values of users[i]'s stream, laid end to end.

        Row i's call takes words[i] 64-bit outputs. The rows of at most
        SHORT_OUTPUTS are computed at once: `compute(outputs, counts)`
        returns their values and a mask of the rows it cannot finish, or
        None. Every other row is `call(seat(u), k)`.
        """
        users = np.asarray(users, dtype=np.int64)
        out = np.empty(int(counts.sum()), dtype=dtype)
        starts = np.cumsum(counts) - counts
        called = words > SHORT_OUTPUTS
        if not called.all():
            short = np.flatnonzero(~called)
            values, unfinished = compute(self._outputs(users[short], words[short]),
                                         counts[short])
            out[_spans(starts[short], counts[short])] = values
            if unfinished is not None:
                called[short[unfinished]] = True
        for u, k, at in zip(users[called].tolist(), counts[called].tolist(),
                            starts[called].tolist()):
            out[at:at + k] = call(self.seat(u), k)
        return out

    def _outputs(self, users: np.ndarray, words: np.ndarray) -> np.ndarray:
        """The first words[i] 64-bit outputs of users[i]'s stream, laid end
        to end; each count is at most SHORT_OUTPUTS. Output j is the XSL-RR
        of the state j + 1 LCG steps past the stream's start."""
        steps = np.arange(2, words.sum() + 2) - np.repeat(np.cumsum(words) - words, words)
        a_hi, a_lo, c_hi, c_lo = _JUMP[:, steps]
        start_hi, start_lo, inc_hi, inc_lo = self._keys[:, np.repeat(users, words)]
        hi, lo = _add(*_mul(a_hi, a_lo, start_hi, start_lo), *_mul(c_hi, c_lo, inc_hi, inc_lo))
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (64 - rot & 63)


@functools.cache
def check_numpy() -> None:
    """Raise RuntimeError unless the draws `KeyedStreams` computes equal
    numpy's own for a few keys, over every count up to SHORT_OUTPUTS.

    Not run at import: that would load `numpy.random` (about 2 MB) before
    the data is read, so peak memory would grow by it.
    """
    users = np.arange(SHORT_OUTPUTS + 1)
    for key in ((0, 1, 0), (2**40 + 3, 5, 2**32 + 7)):
        streams = KeyedStreams(*key, len(users))
        for draw, counts, call in (
                (streams.raw, users, lambda rng, k: rng.bit_generator.random_raw(k)),
                (streams.random, users, np.random.Generator.random),
                (lambda users, counts: streams.integers(users, counts, 1200), 2 * users,
                 lambda rng, k: rng.integers(0, 1200, size=k))):
            want = [call(stream(*key, u), k) for u, k in zip(users.tolist(), counts.tolist())]
            if not np.array_equal(draw(users, counts), np.concatenate(want)):
                raise RuntimeError(f"numpy {np.__version__}'s PCG64 draws differ from those "
                                   f"trustdae.streams computes for key {key}; training "
                                   "would change its samples")
