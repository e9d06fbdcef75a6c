"""Ordinal kernel tests.

The independent oracle below works on a plain descending (exponent, coeff)
list with *integer* exponents, so it covers ordinals under w^w.  It is kept
deliberately separate from the package implementation.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeforcing.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    height_split,
    is_limit,
    is_omega_fixed,
    left_subtract,
    node_at,
    _exp_succ,
    omega_mul,
    parse_natural,
    parse_ordinal,
)

from seed_reference import node_at as reference_node_at

O = parse_ordinal


# --- independent oracle on [(int_exponent, coeff), ...] descending ---------


def oracle_cmp(a: list, b: list) -> int:
    if not a and not b:
        return 0
    if not a:
        return -1
    if not b:
        return 1
    if a[0] != b[0]:
        return -1 if a[0] < b[0] else 1
    return oracle_cmp(a[1:], b[1:])


def oracle_add(a: list, b: list) -> list:
    if not b:
        return a
    if not a:
        return b
    e, c = a[0]
    lead = b[0][0]
    if e < lead:
        return b
    if e == lead:
        return [(e, c + b[0][1])] + b[1:]
    return [a[0]] + oracle_add(a[1:], b)


def oracle_omega_mul(a: list) -> list:
    return [(e + 1, c) for e, c in a]


def to_list(o: Ordinal) -> list:
    return [(e.as_int(), c) for e, c in o.terms]


def from_list(terms: list) -> Ordinal:
    return Ordinal(tuple((Ordinal.from_int(e), c) for e, c in terms))


def random_small(rng: random.Random) -> Ordinal:
    exps = sorted(rng.sample(range(0, 6), rng.randint(0, 3)), reverse=True)
    return from_list([(e, rng.randint(1, 9)) for e in exps])


# --- codec ------------------------------------------------------------------


def test_parse_trivia():
    assert O("0") == ZERO
    assert O("w*2+3") == Ordinal(((ONE, 2), (ZERO, 3)))
    assert O("w") == OMEGA
    assert str(O("w^w*2+w*3+4")) == "w^w*2+w*3+4"
    assert str(O("w^(w+1)+1")) == "w^(w+1)+1"


def test_parse_round_trip_derived():
    s = "w^w*2+w+1"
    assert str(O(s)) == s


# naturals are ASCII: superscript two is a digit to str.isdigit but not to
# int(), and Arabic-Indic three is one to both
NON_ASCII_DIGITS = ["w*\u00b2", "w^\u00b2", "w*\u0663", "\u0663", "w*1\u0663"]


@pytest.mark.parametrize(
    "bad",
    ["", "w+w", "1+2", "w^", "w*0", "0+1", "w*", "(w)", "w^()", "3+w", "w+", "01"]
    + NON_ASCII_DIGITS,
)
def test_parse_rejects(bad):
    with pytest.raises(OrdinalParseError):
        O(bad)


def _parse_outcome(text: str) -> str:
    try:
        return f"ok {O(text)}"
    except Exception as exc:
        return f"{type(exc).__name__} {exc}"


def test_parse_outcomes_are_pinned():
    # every string of length 0 to 5 over the grammar's characters; the digest
    # pins each value, and each error's type, text and position
    texts = ["".join(c) for n in range(6) for c in itertools.product("0129w^*+()", repeat=n)]
    texts += NON_ASCII_DIGITS
    assert len(texts) == 111_116
    digest = hashlib.sha256("\n".join(map(_parse_outcome, texts)).encode()).hexdigest()
    assert digest == "8ca7d3f27d84fe1d3c3fd19ac13f497bd4ff108799b6839e3fbf6c39328c0a3a"


def test_codec_round_trip_random():
    rng = random.Random(0xC0DEC)
    for _ in range(1000):
        o = random_small(rng)
        assert O(str(o)) == o


# --- order -------------------------------------------------------------------


def test_cmp_trivia():
    assert O("w") > O("5")
    assert O("w^2+1") == O("w^2+1")
    assert O("w*2") > O("w+100")  # oracle: leading terms (1,2) vs (1,1)


def test_cmp_matches_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = random_small(rng), random_small(rng)
        want = oracle_cmp(to_list(a), to_list(b))
        got = (a > b) - (a < b)
        assert got == want, (a, b)


def test_total_order_on_triples():
    rng = random.Random(8)
    for _ in range(500):
        a, b, c = (random_small(rng) for _ in range(3))
        if a <= b and b <= a:
            assert a == b
        if a <= b and b <= c:
            assert a <= c


# --- addition ----------------------------------------------------------------


def test_add_trivia():
    a = O("w^2+w")
    assert ZERO + a == a
    assert a + ZERO == a
    assert O("3") + O("w") == O("w")


def test_add_derived_example():
    # oracle: (w+1) + w*2 drops the finite tail and merges the w-terms
    assert to_list(O("w+1") + O("w*2")) == oracle_add([(1, 1), (0, 1)], [(1, 2)])
    assert O("w+1") + O("w*2") == O("w*3")


def test_add_matches_oracle_and_associates():
    rng = random.Random(9)
    for _ in range(1000):
        a, b, c = (random_small(rng) for _ in range(3))
        assert to_list(a + b) == oracle_add(to_list(a), to_list(b))
        assert (a + b) + c == a + (b + c)


# --- omega multiplication and height decomposition ----------------------------


def test_omega_mul_trivia():
    assert omega_mul(ZERO) == ZERO
    assert omega_mul(ONE) == OMEGA
    # w*(w+1) = w*w + w*1 by left distributivity
    assert omega_mul(O("w+1")) == omega_mul(O("w")) + omega_mul(O("1"))
    assert omega_mul(O("w+1")) == O("w^2+w")


def test_omega_mul_left_distributive():
    rng = random.Random(10)
    for _ in range(1000):
        a, b = random_small(rng), random_small(rng)
        assert omega_mul(a + b) == omega_mul(a) + omega_mul(b)
        assert to_list(omega_mul(a)) == oracle_omega_mul(to_list(a))


def test_height_split_trivia():
    assert height_split(ZERO) == (ZERO, 0)
    assert height_split(O("w*2+3")) == (O("2"), 3)
    # w*w = w^2, checked through omega_mul
    assert omega_mul(O("w")) == O("w^2")
    assert height_split(O("w^2")) == (O("w"), 0)


def test_node_at_trivia():
    assert node_at(ZERO, 0) == ZERO
    assert node_at(ONE, 0) == OMEGA
    assert node_at(O("w"), 5) == omega_mul(O("w")) + O("5")
    assert node_at(O("w"), 5) == O("w^2+5")
    with pytest.raises(ValueError, match="^offset must be a natural number$"):
        node_at(ONE, -1)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
)
def test_parse_natural_refuses_a_natural_past_the_digit_limit_by_its_length():
    n = sys.get_int_max_str_digits()
    assert parse_natural("1" * n) == int("1" * n)
    with pytest.raises(ValueError) as exc:
        parse_natural("1" * (n + 1))
    assert str(exc.value) == f"natural number has too many digits: {n + 1}"


def test_height_split_node_at_inverse():
    rng = random.Random(11)
    for _ in range(1000):
        g = random_small(rng)
        h, k = height_split(g)
        assert node_at(h, k) == g
        h2 = random_small(rng)
        k2 = rng.randint(0, 30)
        assert height_split(node_at(h2, k2)) == (h2, k2)


def test_is_omega_fixed():
    assert is_omega_fixed(ZERO)
    assert not is_omega_fixed(OMEGA)  # w*w = w^2 != w
    assert omega_mul(O("w^w")) == O("w^w")
    assert is_omega_fixed(O("w^w"))
    assert is_omega_fixed(O("w^w*2"))
    assert not is_omega_fixed(O("w^w+1"))


def test_is_limit():
    assert not is_limit(ZERO)
    assert not is_limit(O("3"))
    assert is_limit(O("w"))
    assert is_limit(O("w^2+w"))
    assert not is_limit(O("w+1"))


def test_left_subtract():
    rng = random.Random(12)
    for _ in range(500):
        a, c = random_small(rng), random_small(rng)
        b = a + c
        assert a + left_subtract(a, b) == b
    assert left_subtract(O("w"), O("w*2")) == O("w")
    with pytest.raises(ValueError):
        left_subtract(O("w^2"), O("w"))


# --- hypothesis spot checks ----------------------------------------------------


small_ordinal = st.builds(
    from_list,
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 9)), max_size=3).map(
        lambda ts: sorted({e: c for e, c in ts}.items(), reverse=True)
    ),
)


@settings(max_examples=200, derandomize=True)
@given(small_ordinal, small_ordinal)
def test_add_monotone_right(a, b):
    assert a + b >= a
    if b != ZERO:
        assert a + b > a


@settings(max_examples=200, derandomize=True)
@given(small_ordinal)
def test_codec_identity(o):
    assert parse_ordinal(str(o)) == o


# heights whose exponents are themselves small ordinals: 0, finite or infinite
height_ordinal = st.lists(st.tuples(small_ordinal, st.integers(1, 9)), max_size=3).map(
    lambda ts: Ordinal(tuple(sorted({e: c for e, c in ts}.items(), reverse=True)))
)


@settings(max_examples=300, derandomize=True)
@given(height_ordinal, st.integers(0, 10**6))
def test_node_at_builds_the_composition_in_one_step(h, k):
    node = node_at(h, k)
    assert node == omega_mul(h) + Ordinal.from_int(k)
    assert str(node) == str(omega_mul(h) + Ordinal.from_int(k))
    assert type(node) is Ordinal and all(type(e) is Ordinal for e, _ in node.terms)
    assert vars(node) == {"height": h} and node.height is h
    assert Ordinal.height.func(node) == h  # the memo holds the height the terms give


@settings(max_examples=300, derandomize=True)
@given(height_ordinal, st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_node_at_reads_w_times_the_height_from_a_memo_on_it(h, offsets):
    twin = Ordinal(h.terms)  # equal to h, with nothing memoised
    key, text = hash(h), str(h)
    node_at(h, offsets[0])  # fills the memo on h
    for k in offsets:
        node = node_at(h, k)
        assert node == reference_node_at(h, k) and str(node) == str(reference_node_at(h, k))
        assert node is not node_at(h, k)
        assert vars(node) == {"height": h} and node.height is h
    assert h == twin and twin == h and hash(h) == key == hash(twin) and str(h) == text
    for copied in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert type(copied) is Ordinal and copied == h and hash(copied) == key
        assert str(copied) == text
        assert node_at(copied, offsets[-1]) == reference_node_at(h, offsets[-1])


@settings(max_examples=300, derandomize=True)
@given(height_ordinal)
def test_omega_mul_takes_each_exponent_to_its_left_successor(h):
    assert all(_exp_succ(e) == ONE + e for e, _ in h.terms)
    assert omega_mul(h) == Ordinal(tuple((ONE + e, c) for e, c in h.terms))
