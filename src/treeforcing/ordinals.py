"""Cantor-normal-form ordinal arithmetic below epsilon_0.

Ordinals play two roles here: they label tree nodes, and they index tree
levels.  A node label g determines its level through the decomposition
g = w*h + k with k finite; h is the *height* of g, ``g.height``, kept in g's
instance dict after the first read (``node_at`` fills it for its labels).

A value is a finite sum of terms w^e * c with strictly decreasing ordinal
exponents e and positive integer coefficients c.  The empty sum is 0.
Coefficients are plain Python ints, so they never overflow.

``Ordinal(terms)`` checks that its terms are in normal form; the kernel
builds its own results, normal by construction, through the unchecked ``_normal``.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import itemgetter


class OrdinalParseError(ValueError):
    """The string does not match the ordinal grammar."""


class Ordinal(tuple):
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` lists (exponent, coefficient) pairs with exponents strictly
    decreasing and every coefficient >= 1; ``()`` denotes 0.

    The value is a tuple holding exactly ``(terms,)``.  Tuple order on it is
    the Cantor-normal-form order: the first differing term decides, its
    exponent before its coefficient, and a proper prefix is smaller.  So
    hashing, equality and comparison are tuple's own C slots, recursing
    through the exponents without a Python frame, and the hash equals the
    one a frozen dataclass with the single field ``terms`` gives, so set
    orders do not depend on the representation.  ``height`` is memoised in
    the instance dict, which assignment cannot reach.  Being a tuple, an
    ordinal also compares equal to the plain tuple ``(terms,)``; the library
    never mixes the two.
    """

    terms = property(itemgetter(0), doc="The (exponent, coefficient) pairs, highest first.")

    def __new__(cls, terms: tuple[tuple["Ordinal", int], ...] = ()) -> "Ordinal":
        prev = None
        for exp, coeff in terms:
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient must be a positive int, got {coeff!r}")
            if prev is not None and not exp < prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp
        return tuple.__new__(cls, (terms,))

    def __getnewargs__(self) -> tuple:
        return (self[0],)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Ordinal is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Ordinal is immutable; cannot delete {name!r}")

    # named in the class body so that they are the class's own attributes;
    # CPython still fills the type slots with tuple's C functions
    __hash__ = tuple.__hash__
    __eq__ = tuple.__eq__
    __lt__ = tuple.__lt__

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        """Ordinal sum; left terms below the leading exponent of ``other`` are absorbed."""
        if not other.terms:
            return self
        lead = other.terms[0][0]
        kept = tuple(t for t in self.terms if t[0] > lead)
        merged = next((c for e, c in self.terms if e == lead), 0)
        if merged:
            head = ((lead, merged + other.terms[0][1]),)
            return _normal(kept + head + other.terms[1:])
        return _normal(kept + other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    @cached_property
    def height(self) -> "Ordinal":
        """h in self = w*h + k with k < w: the level of the node labelled self."""
        # w*h is the sum of the terms whose exponent e is nonzero (e[0], its terms)
        return _normal(tuple((_exp_pred(e), c) for e, c in self[0] if e[0]))

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == ZERO)

    def as_int(self) -> int:
        if not self.terms:
            return 0
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1]

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        make = _normal if isinstance(n, int) else Ordinal  # Ordinal refuses a non-int
        return make(((ZERO, n),)) if n else ZERO

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "+".join(_term_str(e, c) for e, c in self.terms)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


def _normal(terms: tuple[tuple[Ordinal, int], ...]) -> Ordinal:
    """``Ordinal(terms)`` without its checks, for terms already in normal form."""
    return tuple.__new__(Ordinal, (terms,))


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def _term_str(exp: Ordinal, coeff: int) -> str:
    if exp == ZERO:
        return str(coeff)
    if exp == ONE:
        return "w" if coeff == 1 else f"w*{coeff}"
    if exp == OMEGA:
        base = "w^w"
    elif exp.is_finite:
        base = f"w^{exp.as_int()}"
    else:
        base = f"w^({exp})"
    return base if coeff == 1 else f"{base}*{coeff}"


def omega_mul(a: Ordinal) -> Ordinal:
    """w * a.  Each exponent e becomes 1 + e (left distributivity over the sum)."""
    return _normal(tuple([(_exp_succ(e), c) for e, c in a[0]]))


def is_limit(a: Ordinal) -> bool:
    """Nonzero with no finite part."""
    return bool(a.terms) and a.terms[-1][0] != ZERO


def is_omega_fixed(a: Ordinal) -> bool:
    """True iff w * a == a (so heights >= a survive the w-scaling of labels)."""
    return omega_mul(a) == a


def height_split(g: Ordinal) -> tuple[Ordinal, int]:
    """Decompose g = w*h + k with k < w; returns (h, k).

    h is the height of the node labelled g and k its offset within the level.
    """
    terms = g.terms
    return g.height, terms[-1][1] if terms and terms[-1][0] == ZERO else 0


def _exp_succ(e: Ordinal) -> Ordinal:
    # 1 + e: 1 for e == 0, e for infinite e, else e's successor
    if not e[0]:
        return ONE
    lead, c = e[0][0]
    return e if lead[0] else _normal(((ZERO, c + 1),))


def _exp_pred(e: Ordinal) -> Ordinal:
    # unique x with 1 + x == e; e >= 1 here, so e is finite iff its leading exponent is 0
    lead, c = e[0][0]
    return e if lead[0] else _normal(((ZERO, c - 1),)) if c > 1 else ZERO


def node_at(height: Ordinal, offset: int) -> Ordinal:
    """Inverse of height_split: the node label w*height + offset."""
    if offset < 0:
        raise ValueError("offset must be a natural number")
    node = omega_mul(height)  # a fresh ordinal, so its memo is its own
    if offset:
        node = _normal(node[0] + ((ZERO, offset),))
    node.__dict__["height"] = height
    return node


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique c with a + c == b; requires a <= b."""
    if b < a:
        raise ValueError(f"cannot left-subtract {a} from {b}")
    at, bt = a.terms, b.terms
    for i, (ea, ca) in enumerate(at):
        eb, cb = bt[i]
        if ea < eb:
            return _normal(bt[i:])
        if ca < cb:
            return _normal(((eb, cb - ca),) + bt[i + 1 :])
    return _normal(bt[len(at) :])


# -- parsing -----------------------------------------------------------
#
# ordinal := "0" | sum
# sum     := term ("+" term)*          exponents strictly decreasing
# term    := nat | "w" | "w*" nat | "w^" atom | "w^" atom "*" nat
# atom    := nat | "w" | "(" ordinal ")"
# nat     := [1-9][0-9]*
#
# Parentheses may nest at most MAX_NESTING deep.  The library's own labels
# nest a few levels; the bound keeps the recursive descent (and printing,
# which recurses the same way) far from the interpreter's recursion limit.

MAX_NESTING = 100


def parse_ordinal(text: str) -> Ordinal:
    value, pos = _parse_sum(text, 0, 0)
    if pos != len(text):
        raise _fail("trailing input", text, pos)
    return value


def parse_natural(text: str) -> int:
    """A natural number in ASCII digits: the form of every natural a flag or a
    rho specification gives."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a natural number, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on digits
        raise ValueError(f"natural number has too many digits: {len(text)}") from None


# a term's head: a natural, or w with an optional exponent: a natural, w or "("
_HEAD = re.compile(r"([1-9][0-9]*)|w(?:\^(?:([1-9][0-9]*)|(w)|(\())?)?")
_NAT = re.compile(r"[1-9][0-9]*")


def _fail(why: str, text: str, pos: int) -> OrdinalParseError:
    return OrdinalParseError(f"{why} at position {pos}: {text!r}")


def _int(digits: str, text: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits
        raise _fail("natural number has too many digits", text, pos) from None


def _parse_sum(text: str, pos: int, depth: int) -> tuple[Ordinal, int]:
    """The ordinal at pos, inside ``depth`` parentheses, and the position after it."""
    if text.startswith("0", pos):
        return ZERO, pos + 1
    terms = []
    ordered = True  # a disorder is reported after the whole sum is read
    while True:
        head = _HEAD.match(text, pos)
        if head is None:
            raise _fail("expected a natural number", text, pos)
        pos = head.end()
        finite, nat, omega, paren = head.groups()
        if finite:
            exp, coeff = ZERO, _int(finite, text, head.start())
        else:
            if paren:
                if depth == MAX_NESTING:
                    raise _fail(f"parentheses nest deeper than {MAX_NESTING}", text, pos - 1)
                exp, pos = _parse_sum(text, pos, depth + 1)
                if not text.startswith(")", pos):
                    raise _fail("expected ')'", text, pos)
                pos += 1
            elif nat:
                exp = Ordinal.from_int(_int(nat, text, head.start(2)))
            elif omega:
                exp = OMEGA
            elif text[pos - 1] == "^":
                raise _fail("expected a natural number", text, pos)
            else:
                exp = ONE
            coeff = 1
            if text.startswith("*", pos):
                nat = _NAT.match(text, pos + 1)
                if nat is None:
                    raise _fail("expected a natural number", text, pos + 1)
                coeff, pos = _int(nat.group(), text, pos + 1), nat.end()
        if terms and not exp < terms[-1][0]:
            ordered = False
        terms.append((exp, coeff))
        if not text.startswith("+", pos):
            break
        pos += 1
    if not ordered:
        raise _fail("exponents must be strictly decreasing", text, pos)
    return _normal(tuple(terms)), pos
