"""numpy's seeded PCG64 uniform stream, drawn in pure Python.

``uniforms(seed)`` yields, bit for bit, the doubles in [0, 1) behind
``numpy.random.Generator(numpy.random.PCG64(seed)).uniform``, so the CLI's
sample needs no ``numpy.random`` import:

* the four seed words are ``SeedSequence(seed).generate_state(4, uint64)``
  (numpy's SeedSequence, after O'Neill's ``seed_seq_fe``);
* the generator is PCG64, the 128-bit LCG with the XSL-RR 128/64 output of
  O'Neill, *PCG: A Family of Simple Fast Space-Efficient Statistically Good
  Algorithms for Random Number Generation* (HMC-CS-2014-0905), stepped
  before each output as numpy's ``pcg64_next64`` does;
* each double is ``(next64 >> 11) * 2**-53``, and numpy's ``uniform(lo, hi)``
  is ``lo + (hi - lo) * u``.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence constants (pool of four 32-bit words)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 2.0**-53


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)`` as ints."""
    entropy = []
    while True:  # the int's 32-bit words, least significant first; 0 is [0]
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    state = []  # eight 32-bit words, cycling through the pool
    hash_const = _INIT_B
    for value in pool * 2:
        value ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


def uniforms(seed: int):
    """Endless stream of the doubles in [0, 1) that numpy's PCG64(seed)
    ``Generator`` draws, in order; ``seed`` is an int >= 0."""
    w = _seed_words(seed)
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = (inc + (w[0] << 64 | w[1])) & _MASK128  # srandom: step from 0, add
    state = (state * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        xored = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out = (xored >> rot | xored << (64 - rot)) & _MASK64
        yield (out >> 11) * _TWO_M53
