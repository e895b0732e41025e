import itertools

import numpy as np
import pytest

from wstsim.algebra import FieldElement, GaussianInt
from wstsim.encoder import average_row_energy
from wstsim.lift import (
    Fragment,
    LatticePoint,
    QamSymbol,
    gray_decode,
    gray_encode,
    lift,
    pam_levels,
    random_fragment,
    unlift,
)


def all_bitstrings(width):
    return ("".join(b) for b in itertools.product("01", repeat=width))


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


def test_pam_levels():
    assert pam_levels(2) == (-1, 1)
    assert pam_levels(4) == (-3, -1, 1, 3)
    with pytest.raises(ValueError):
        pam_levels(3)


# ---------------------------------------------------------------------------
# lift / unlift
# ---------------------------------------------------------------------------


def test_lift_all_zero_fragment():
    point = lift(Fragment("000000", 2))
    expected = GaussianInt(-1, -1)
    assert point.element.coefficients() == (expected, expected, expected)
    assert abs(point.embedded_row[0] - complex(-1, -1) * 3.801938) < 1e-5


def test_lift_block_order_example():
    point = lift(Fragment("110001", 2))
    assert point.element.coefficients() == (
        GaussianInt(1, 1),
        GaussianInt(-1, -1),
        GaussianInt(-1, 1),
    )


def test_lift_injective_m2():
    images = {lift(Fragment(b, 2)).element.coefficients() for b in all_bitstrings(6)}
    assert len(images) == 64


def test_lift_equals_gray_encode_composition():
    rng = np.random.default_rng(7)
    cases = [(2, list(all_bitstrings(6))), (4, list(all_bitstrings(12)))]
    cases += [(m, [random_fragment(rng, m).bits for _ in range(500)]) for m in (6, 8)]
    for m, fragments in cases:
        for bits in fragments:
            q = [gray_encode(bits[i * m : (i + 1) * m]).value for i in range(3)]
            assert lift(Fragment(bits, m)) == LatticePoint.from_element(FieldElement(*q))


def test_roundtrip_exhaustive_m2():
    for bits in all_bitstrings(6):
        frag = Fragment(bits, 2)
        assert unlift(lift(frag).coordinates, 2) == frag


def test_roundtrip_exhaustive_m4():
    for bits in all_bitstrings(12):
        frag = Fragment(bits, 4)
        assert unlift(lift(frag).coordinates, 4) == frag


def test_roundtrip_random_m6():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        frag = random_fragment(rng, 6)
        assert unlift(lift(frag).coordinates, 6) == frag


def test_unlift_rejects_out_of_constellation():
    coords = lift(Fragment("0000" * 3, 4)).coordinates  # levels reach +-3
    with pytest.raises(ValueError):
        unlift(coords, 2)
    with pytest.raises(ValueError):
        unlift(coords, 3)  # odd m
    with pytest.raises(ValueError):
        unlift((1,) * 5, 2)  # one level short of a point


def test_fragment_validation():
    with pytest.raises(ValueError):
        Fragment("0000000", 2)  # wrong length
    with pytest.raises(ValueError):
        Fragment("0" * 9, 3)  # odd m


# ---------------------------------------------------------------------------
# constellation geometry
# ---------------------------------------------------------------------------


def test_embedded_rows_differ_everywhere_m2():
    # nonzero differences have nonzero norm, so no embedding can vanish
    rows = np.array([lift(Fragment(b, 2)).embedded_row for b in all_bitstrings(6)])
    n = len(rows)
    for i in range(n - 1):
        diffs = rows[i + 1 :] - rows[i]
        assert np.min(np.abs(diffs)) > 1e-6


def test_average_energy_matches_encoder_normalizer():
    # cross-module consistency: exhaustive mean energy at m=2 equals the
    # analytic value the encoder normalizes with
    rows = np.array([lift(Fragment(b, 2)).embedded_row for b in all_bitstrings(6)])
    measured = float(np.mean(np.sum(np.abs(rows) ** 2, axis=1))) / 3.0
    assert abs(measured - average_row_energy(2)) < 1e-9
