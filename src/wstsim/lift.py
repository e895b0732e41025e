"""Bit fragments <-> transmit constellation.

A fragment of 3*m bits is chunked in order into three m-bit blocks.  Each
block is Gray-mapped onto a square 2^m-QAM symbol: the first m/2 bits select
the in-phase level through the reflected binary Gray code over the odd
levels -(M-1), ..., M-1 (ascending, M = 2^(m/2)), the last m/2 bits select
the quadrature level the same way.  The three QAM symbols then become the
basis coefficients of the field element x = q1 + q2*eta + q3*eta^2, and the
transmitted row is the triple of real embeddings of x.  Every step is exact
and invertible, so the composite map is a bijection between {0,1}^(3m) and
the 2^(3m)-point constellation.

levels gives a fragment's six PAM levels (re and im of q1, q2, q3) and lift
the row it sends; unlift maps six levels, as the decoder returns them, back.

A fragment is the int its bits spell, most significant bit first, below
2^(3m); m is not stored with it, every caller passes it.  Its (m/2)-bit
Gray words are integer fields.  levels and unlift index per-axis tables by
them, built from integer Gray arithmetic (_gray_axis); no bit is ever held
as a character.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import FieldElement, embed


def _check_m(m: int) -> None:
    if not isinstance(m, int) or m < 2 or m % 2:
        raise ValueError(f"m must be an even integer >= 2, got {m!r}")


def pam_levels(m: int) -> tuple[int, ...]:
    """Odd per-axis levels of square 2^m-QAM: -(M-1), ..., M-1."""
    _check_m(m)
    order = 1 << (m // 2)
    return tuple(range(-(order - 1), order, 2))


@lru_cache(maxsize=None, typed=True)
def _gray_axis(m: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """Per-axis Gray tables of 2^m-QAM: (m/2)-bit word -> PAM level, and back.

    The first is indexed by the word's integer value, the second maps a
    level to that value.  The r-th level from the bottom, 2r - (M - 1), is
    labelled by the r-th reflected Gray word r ^ (r >> 1), so adjacent levels
    differ in one bit.  Built once per m, 2^(m/2) entries each; lift and
    unlift index them, and must not write to them.
    """
    _check_m(m)
    top = (1 << (m // 2)) - 1
    level = [0] * (top + 1)
    for r in range(top + 1):
        level[r ^ (r >> 1)] = 2 * r - top
    return tuple(level), {lv: v for v, lv in enumerate(level)}


def levels(value: int, m: int) -> tuple[int, int, int, int, int, int]:
    """The six PAM levels of a 3m-bit fragment: re and im of q1, q2, q3.

    The six (m/2)-bit Gray words of value, most significant first, are the
    in-phase and quadrature words of q1, q2 and q3.  A value outside
    0 .. 2^(3m) - 1 raises ValueError.  unlift is the inverse.
    """
    level = _gray_axis(m)[0]
    if not 0 <= value < 1 << 3 * m:
        raise ValueError(f"a fragment is an int of 3*m = {3 * m} bits, got {value!r}")
    half = m // 2
    mask = (1 << half) - 1
    return (
        level[value >> 5 * half & mask], level[value >> 4 * half & mask],
        level[value >> 3 * half & mask], level[value >> m & mask],
        level[value >> half & mask], level[value & mask],
    )


def lift(value: int, m: int) -> tuple[complex, complex, complex]:
    """The row a 3m-bit fragment sends: the three embeddings of its lattice
    point x = q1 + q2*eta + q3*eta^2, the QAM symbols q from levels."""
    x = FieldElement(*levels(value, m))
    return embed(x, 0), embed(x, 1), embed(x, 2)


def unlift(coordinates, m: int) -> int:
    """Exact inverse of levels for the 2^m-QAM constellation: the fragment.

    coordinates are one point's six PAM levels (the real and imaginary parts
    of q1, q2, q3), as a decoder returns them for each helper.  A level
    outside the constellation raises ValueError: the decoder contract
    guarantees in-alphabet coordinates, so that signals a bug upstream
    rather than channel noise.
    """
    word = _gray_axis(m)[1]
    if len(coordinates) != 6:
        raise ValueError(f"a point has six PAM levels, got {len(coordinates)}")
    c0, c1, c2, c3, c4, c5 = coordinates
    half = m // 2
    try:
        return (
            word[c0] << 5 * half | word[c1] << 4 * half | word[c2] << 3 * half
            | word[c3] << m | word[c4] << half | word[c5]
        )
    except KeyError:
        raise ValueError(
            f"{tuple(coordinates)!r} has a level outside {1 << m}-QAM"
        ) from None


def random_fragment(rng, m: int) -> int:
    """Draw a uniformly random 3m-bit fragment from a numpy Generator (one
    0/1 draw per bit, most significant first)."""
    _check_m(m)
    value = 0
    for b in rng.integers(0, 2, size=3 * m).tolist():
        value = (value << 1) | b
    return value
