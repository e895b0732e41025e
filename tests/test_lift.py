import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import embedded_row
from wstsim.algebra import FieldElement, GaussianInt
from wstsim.encoder import average_row_energy
from wstsim.lift import (
    _check_m,
    _gray_axis,
    levels,
    lift,
    pam_levels,
    random_fragment,
    unlift,
)


# ---------------------------------------------------------------------------
# the string Gray coder: the oracle for lift's integer tables
# ---------------------------------------------------------------------------


def _gray_rank(bits: str) -> int:
    """Position of a reflected-Gray word in the Gray sequence."""
    n = int(bits, 2)
    mask = n >> 1
    while mask:
        n ^= mask
        mask >>= 1
    return n


def _gray_word(rank: int, width: int) -> str:
    return format(rank ^ (rank >> 1), f"0{width}b")


def _check_bits(bits: str) -> None:
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"expected a nonempty string of 0/1, got {bits!r}")


@dataclass(frozen=True)
class QamSymbol:
    """One Gray-labelled 2^m-QAM symbol; both coordinates odd and in range."""

    value: GaussianInt
    m: int

    def __post_init__(self) -> None:
        _check_m(self.m)
        bound = (1 << (self.m // 2)) - 1
        for c in (self.value.re, self.value.im):
            if c % 2 == 0 or abs(c) > bound:
                raise ValueError(
                    f"{self.value!r} is not a {1 << self.m}-QAM symbol "
                    f"(coordinates must be odd with magnitude <= {bound})"
                )


def gray_encode(bits: str) -> QamSymbol:
    """Map an m-bit string to a QAM symbol (in-phase bits first)."""
    _check_bits(bits)
    m = len(bits)
    _check_m(m)
    half = m // 2
    top = (1 << half) - 1
    i_level = 2 * _gray_rank(bits[:half]) - top
    q_level = 2 * _gray_rank(bits[half:]) - top
    return QamSymbol(GaussianInt(i_level, q_level), m)


def gray_decode(q: QamSymbol) -> str:
    """Exact inverse of gray_encode."""
    half = q.m // 2
    top = (1 << half) - 1
    return _gray_word((q.value.re + top) // 2, half) + _gray_word(
        (q.value.im + top) // 2, half
    )


def all_bitstrings(width):
    return ("".join(b) for b in itertools.product("01", repeat=width))


def string_element(bits: str, m: int) -> FieldElement:
    """The lattice point's field element of a 3m-bit string through the
    string Gray coder."""
    q = [gray_encode(bits[i * m : (i + 1) * m]).value for i in range(3)]
    return FieldElement(*q)


def element(value: int, m: int) -> FieldElement:
    """The field element of a fragment's lattice point, from its levels."""
    return FieldElement.from_ints(*levels(value, m))


# ---------------------------------------------------------------------------
# Gray map
# ---------------------------------------------------------------------------


def test_gray_m2_corners():
    assert gray_encode("00").value == GaussianInt(-1, -1)
    assert gray_encode("11").value == GaussianInt(1, 1)


def test_gray_m4_example():
    # per-axis Gray order 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
    assert gray_encode("1000").value == GaussianInt(3, -3)


def test_gray_decode_examples():
    assert gray_decode(QamSymbol(GaussianInt(1, -1), 2)) == "10"
    assert gray_decode(QamSymbol(GaussianInt(-1, 3), 4)) == "0110"


def test_gray_roundtrip_exhaustive():
    for m in (2, 4):
        for bits in all_bitstrings(m):
            assert gray_decode(gray_encode(bits)) == bits


def test_gray_adjacent_levels_differ_in_one_bit():
    # the defining Gray property, per axis
    for m in (2, 4, 6):
        half = m // 2
        by_level = {}
        for bits in all_bitstrings(half):
            by_level[gray_encode(bits + "0" * half).value.re] = bits
        levels = sorted(by_level)
        assert levels == list(pam_levels(m))
        for a, b in zip(levels, levels[1:]):
            diff = sum(x != y for x, y in zip(by_level[a], by_level[b]))
            assert diff == 1


def test_gray_rejects_bad_input():
    with pytest.raises(ValueError):
        gray_encode("0")  # odd length
    with pytest.raises(ValueError):
        gray_encode("01a1")
    with pytest.raises(ValueError):
        QamSymbol(GaussianInt(2, 1), 2)  # even coordinate
    with pytest.raises(ValueError):
        QamSymbol(GaussianInt(3, 1), 2)  # out of range for 4-QAM


EVEN_M = range(2, 17, 2)


@pytest.mark.parametrize("m", EVEN_M)
def test_integer_gray_tables_equal_the_string_coder(m):
    # a word written on both axes is the symbol with that level on both
    half = m // 2
    oracle = tuple(gray_encode(format(v, f"0{half}b") * 2).value.re for v in range(1 << half))
    level, word = _gray_axis(m)
    assert level == oracle
    assert word == {lv: v for v, lv in enumerate(oracle)}


@pytest.mark.parametrize("m", EVEN_M)
def test_integer_gray_table_adjacent_levels_differ_in_one_bit(m):
    level, word = _gray_axis(m)
    assert sorted(level) == list(pam_levels(m))
    ladder = [word[lv] for lv in pam_levels(m)]
    assert all((a ^ b).bit_count() == 1 for a, b in zip(ladder, ladder[1:]))


def test_pam_levels():
    assert pam_levels(2) == (-1, 1)
    assert pam_levels(4) == (-3, -1, 1, 3)
    with pytest.raises(ValueError):
        pam_levels(3)


# ---------------------------------------------------------------------------
# levels / lift / unlift
# ---------------------------------------------------------------------------


def test_lift_all_zero_fragment():
    expected = GaussianInt(-1, -1)
    assert levels(0, 2) == (-1,) * 6
    assert element(0, 2).coefficients() == (expected, expected, expected)
    assert abs(lift(0, 2)[0] - complex(-1, -1) * 3.801938) < 1e-5


def test_lift_block_order_example():
    assert levels(0b110001, 2) == (1, 1, -1, -1, -1, 1)
    assert element(0b110001, 2).coefficients() == (
        GaussianInt(1, 1),
        GaussianInt(-1, -1),
        GaussianInt(-1, 1),
    )


def test_lift_injective_m2():
    assert len({levels(v, 2) for v in range(64)}) == 64
    assert len({lift(v, 2) for v in range(64)}) == 64


def test_lift_equals_gray_encode_composition():
    rng = np.random.default_rng(7)
    for m in (6, 8):
        for _ in range(500):
            v = random_fragment(rng, m)
            x = string_element(format(v, f"0{3 * m}b"), m)
            assert element(v, m) == x
            assert lift(v, m) == embedded_row(x)


@pytest.mark.parametrize("m", [2, 4])
def test_integer_fragments_match_the_string_gray_path(m):
    # every 3m-bit integer, MSB first, lifts to the point its bit string
    # gives through gray_encode, and unlift inverts it
    for v, bits in enumerate(all_bitstrings(3 * m)):
        x = string_element(bits, m)
        assert element(v, m) == x
        assert lift(v, m) == embedded_row(x)
        assert unlift(levels(v, m), m) == v
    # random_fragment reads its 0/1 draws as the bits, most significant first
    for seed in range(50):
        draws = np.random.default_rng(seed).integers(0, 2, size=3 * m)
        old_bits = "".join("1" if b else "0" for b in draws)
        assert random_fragment(np.random.default_rng(seed), m) == int(old_bits, 2)


def test_roundtrip_exhaustive_m2():
    for v in range(1 << 6):
        assert unlift(levels(v, 2), 2) == v


def test_roundtrip_exhaustive_m4():
    for v in range(1 << 12):
        assert unlift(levels(v, 4), 4) == v


def test_roundtrip_random_m6():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        v = random_fragment(rng, 6)
        assert unlift(levels(v, 6), 6) == v


def test_unlift_rejects_out_of_constellation():
    coords = levels(0, 4)  # levels reach +-3
    with pytest.raises(ValueError):
        unlift(coords, 2)
    with pytest.raises(ValueError):
        unlift(coords, 3)  # odd m
    with pytest.raises(ValueError):
        unlift((1,) * 5, 2)  # one level short of a point


def test_fragment_validation():
    # levels and lift take exactly the ints 0 .. 2^(3m) - 1, at every even m
    for m in range(2, 17, 2):
        top = (1 << 3 * m) - 1
        assert unlift(levels(top, m), m) == top
        for bad in (top + 1, 1 << 3 * m + 1, -1, -top):
            for f in (levels, lift):
                with pytest.raises(ValueError, match=rf"fragment is an int of 3\*m = {3 * m} bits, got {bad}"):
                    f(bad, m)
    for m in (1, 3, 5, 0, -2):
        for f in (levels, lift):
            with pytest.raises(ValueError, match=f"m must be an even integer >= 2, got {m}"):
                f(0, m)


def _float_bits(row):
    return [(z.real.hex(), z.imag.hex()) for z in row]


def test_lift_equals_the_object_path_bit_for_bit():
    # the table-indexed levels and lift against GaussianInt ->
    # FieldElement -> embeddings built through gray_encode: same element
    # and the same floats, signs of zero included; lift's row is the
    # embeddings of the element levels gives, and unlift inverts levels
    rng = np.random.default_rng(20)
    for m in range(2, 17, 2):
        if m <= 4:
            values = range(1 << (3 * m))
        else:
            values = [int(v) for v in rng.integers(0, 1 << (3 * m), size=2000)]
        for v in values:
            oracle = string_element(format(v, f"0{3 * m}b"), m)
            x = FieldElement.from_ints(*levels(v, m))
            assert x == oracle
            assert _float_bits(lift(v, m)) == _float_bits(embedded_row(oracle)) == _float_bits(embedded_row(x))
            assert unlift(levels(v, m), m) == v


def test_value_object_reprs():
    assert repr(element(5, 2)) == (
        "FieldElement(c0=GaussianInt(re=-1, im=-1), "
        "c1=GaussianInt(re=-1, im=1), c2=GaussianInt(re=-1, im=1))"
    )
    assert repr(lift(5, 2)) == (
        "((-3.801937735804839+1.8019377358048387j), "
        "(-0.7530203962825329-1.246979603717467j), (-2.4450418679126282+0.44504186791262823j))"
    )


# ---------------------------------------------------------------------------
# constellation geometry
# ---------------------------------------------------------------------------


def test_embedded_rows_differ_everywhere_m2():
    # nonzero differences have nonzero norm, so no embedding can vanish
    rows = np.array([lift(v, 2) for v in range(64)])
    n = len(rows)
    for i in range(n - 1):
        diffs = rows[i + 1 :] - rows[i]
        assert np.min(np.abs(diffs)) > 1e-6


def test_average_energy_matches_encoder_normalizer():
    # cross-module consistency: exhaustive mean energy at m=2 equals the
    # analytic value the encoder normalizes with
    rows = np.array([lift(v, 2) for v in range(64)])
    measured = float(np.mean(np.sum(np.abs(rows) ** 2, axis=1))) / 3.0
    assert abs(measured - average_row_energy(2)) < 1e-9
