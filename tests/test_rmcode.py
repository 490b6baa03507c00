from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb
from unittest import mock

import pytest

from bwlist.arith import GaussianInt, phi_pow, rsd
from bwlist.lattice import is_member
from bwlist.rmcode import (
    LowerBoundInstance,
    algebraic_normal_form,
    enumerate_subspaces,
    lower_bound_instance,
    rm_enumerate,
    rm_min_distance,
    subspace_char_vector,
)
from reference import (
    NotAMember,
    bw_from_rm_layers,
    bw_to_rm_layers,
    gaussian_binomial,
    random_member,
    rm_is_codeword,
)
from symmetry import to_cvector


def test_anf_is_self_inverse() -> None:
    rng = random.Random(3)
    for nvars in (1, 2, 3, 4):
        size = 1 << nvars
        for _ in range(20):
            word = tuple(rng.randint(0, 1) for _ in range(size))
            assert algebraic_normal_form(algebraic_normal_form(word)) == word


def test_anf_of_single_monomial() -> None:
    # evaluations of x0*x1 over F_2^2 in subset order: 0,0,0,1
    assert algebraic_normal_form((0, 0, 0, 1)) == (0, 0, 0, 1)
    # constant 1
    assert algebraic_normal_form((1, 1, 1, 1)) == (1, 0, 0, 0)


def test_rm_codeword_degrees() -> None:
    assert rm_is_codeword((1, 1, 1, 1), 0)
    assert not rm_is_codeword((0, 1, 0, 1), 0)
    assert rm_is_codeword((0, 1, 0, 1), 1)
    assert not rm_is_codeword((0, 0, 0, 1), 1)
    assert rm_is_codeword((0, 0, 0, 1), 2)
    with pytest.raises(ValueError, match="not a power of two"):
        rm_is_codeword((0, 1, 1), 1)
    with pytest.raises(ValueError, match="0 or 1"):
        rm_is_codeword((0, 2), 1)


def test_rm_enumerate_counts() -> None:
    for nvars in (1, 2, 3):
        for degree in range(nvars + 1):
            dim = sum(comb(nvars, i) for i in range(degree + 1))
            words = list(rm_enumerate(degree, nvars))
            assert len(words) == 1 << dim
            assert len(set(words)) == len(words)
            assert all(rm_is_codeword(w, degree) for w in words)


def test_rm_min_distance_closed_form() -> None:
    for nvars in (1, 2, 3, 4):
        for degree in range(nvars):
            assert rm_min_distance(degree, nvars) == 1 << (nvars - degree)


def test_rm_min_distance_refuses_a_code_too_large_to_enumerate() -> None:
    # RM(3, 5) has 2^26 codewords of 32 bits, some 17 minutes of
    # enumeration, and RM(1, 19) only 2^20, but of 2^19 bits each; the
    # refusal names k and comes before the first codeword
    with mock.patch("bwlist.rmcode.rm_enumerate") as enumerate_:
        for degree, nvars, k in ((3, 5, 26), (1, 19, 20)):
            with pytest.raises(ValueError, match=rf"2\^{k} codewords"):
                rm_min_distance(degree, nvars)
    enumerate_.assert_not_called()


def test_rm_min_distance_sizes_a_huge_degree_at_once() -> None:
    # a degree past nvars adds no monomial, so k stops at 2^nvars: RM(10^12,
    # 3) is all eight-bit words, sized without a loop over the degree
    start = time.perf_counter()
    assert rm_min_distance(10**12, 3) == 1
    assert time.perf_counter() - start < 1


def test_gaussian_binomial_values() -> None:
    assert gaussian_binomial(2, 1) == 3
    assert gaussian_binomial(3, 1) == 7
    assert gaussian_binomial(3, 2) == 7
    assert gaussian_binomial(4, 2) == 35
    for n in range(6):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)
            assert gaussian_binomial(n, k) >= 1


def test_enumerate_subspaces_matches_count() -> None:
    for n in range(6):
        for k in range(n + 1):
            spaces = list(enumerate_subspaces(n, k))
            assert len(spaces) == gaussian_binomial(n, k)
            assert len({s.basis for s in spaces}) == len(spaces)
            assert len({frozenset(s.points()) for s in spaces}) == len(spaces)
            for s in spaces:
                assert len(s.basis) == k
                pts = list(s.points())
                assert len(pts) == 1 << k
                # reduced row echelon form: a row's pivot is its top bit, so
                # no row has a bit above its pivot; the pivots are distinct
                # and descending, and each is set in its own row only
                assert all(0 < row < 1 << n for row in s.basis)
                pivots = [row.bit_length() - 1 for row in s.basis]
                assert all(a > b for a, b in zip(pivots, pivots[1:]))
                for i, p in enumerate(pivots):
                    assert [j for j, row in enumerate(s.basis)
                            if row >> p & 1] == [i]


def test_char_vector_degree_matches_codimension() -> None:
    for n in (2, 3):
        for k in range(n + 1):
            for s in enumerate_subspaces(n, k):
                word = subspace_char_vector(s)
                assert sum(word) == 1 << k
                assert rm_is_codeword(word, n - k)
                if n - k > 0:
                    assert not rm_is_codeword(word, n - k - 1)


def test_layer_round_trip_on_members() -> None:
    rng = random.Random(44)
    for n in range(5):
        for _ in range(15):
            member = random_member(rng, n)
            layers, residual = bw_to_rm_layers(member)
            assert len(layers) == n
            for d, layer in enumerate(layers):
                assert rm_is_codeword(layer, d)
            assert bw_from_rm_layers(layers, residual) == member


def test_layering_rejects_non_members() -> None:
    with pytest.raises(NotAMember):
        bw_to_rm_layers([GaussianInt(1, 0), GaussianInt(0, 0)])


# the level-6 indicators of x0 x1 x2 and of x3 x4 x5
_LOW = tuple(int(j & 0b000111 == 0b000111) for j in range(64))
_HIGH = tuple(int(j & 0b111000 == 0b111000) for j in range(64))


def test_level6_member_without_layered_form() -> None:
    # phi^3 * (1_low + 1_high): where the indicators overlap, 2 = -i*phi^2
    # carries a degree-6 parity word into layer 5, outside RM(5, 6)
    member = [phi_pow(3) * GaussianInt(a + b, 0) for a, b in zip(_LOW, _HIGH)]
    assert is_member(member)
    with pytest.raises(ValueError,
                       match="^member has no layered form: layer 5 ") as info:
        bw_to_rm_layers(member)
    assert not isinstance(info.value, NotAMember)


def test_level6_degree_valid_stack_outside_lattice() -> None:
    # phi^3 * (1_low XOR 1_high): a degree-3 word in layer 3, yet no member
    xor = [a ^ b for a, b in zip(_LOW, _HIGH)]
    vector = [phi_pow(3) * GaussianInt(bit, 0) for bit in xor]
    assert not is_member(vector)
    with pytest.raises(NotAMember):
        bw_to_rm_layers(vector)
    zero = [0] * 64
    stack = [zero, zero, zero, xor, zero, zero]
    assert all(rm_is_codeword(bits, d) for d, bits in enumerate(stack))
    with pytest.raises(NotAMember):
        bw_from_rm_layers(stack)


def test_layer_assembly_validates_degrees() -> None:
    # a degree-1 word is not allowed in the degree-0 slot
    with pytest.raises(ValueError, match="layer 0 fails the degree-0 check"):
        bw_from_rm_layers([(0, 1)])


def test_lower_bound_instance_small() -> None:
    inst = lower_bound_instance(2, Fraction(1, 2))
    assert isinstance(inst, LowerBoundInstance)
    assert inst.scale_exp == 1
    assert len(inst.witnesses) == gaussian_binomial(2, 1) == 3
    r = inst.received
    for e in inst.witnesses:
        assert is_member(e.point)
        diff = r - to_cvector(e.point)
        assert diff.norm_sq() == (1 << 2) - (1 << 1)
        assert e.distance == rsd(r, to_cvector(e.point))


def test_lower_bound_instance_distances() -> None:
    for n, eps, k in ((3, Fraction(1, 4), 1), (4, Fraction(1, 4), 2)):
        inst = lower_bound_instance(n, eps)
        assert inst.scale_exp == k
        assert len(inst.witnesses) == gaussian_binomial(n, n - k)
        assert inst.received[0] == phi_pow(k)
        for e in inst.witnesses:
            assert (inst.received - to_cvector(e.point)).norm_sq() == (1 << n) - (1 << k)
            assert e.distance <= 1 - eps


def test_lower_bound_instance_validates_eps() -> None:
    with pytest.raises(ValueError):
        lower_bound_instance(2, Fraction(1, 8))
    with pytest.raises(ValueError):
        lower_bound_instance(2, 2)
