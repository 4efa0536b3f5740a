"""The 8-dimensional algebra A(1) generated by Sq1 and Sq2.

Basis monomials are alternating words in the letters {1, 2}, written with
the outermost operation on the left ("12" is Sq1Sq2, i.e. Sq1 applied
after Sq2).  The defining relations are Sq1Sq1 = 0 and Sq2Sq2 = Sq1Sq2Sq1;
these force the two degree-6 words to coincide, and we use "1212" as the
normal form of the top class.  Multiplication goes through a once-built
8x8 table produced by string rewriting; the same table gives the action
on free modules (``free_bases``, ``free_word_times``), which builds A(1)
itself and every stage of a resolution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

WORDS: Tuple[str, ...] = ("", "1", "2", "12", "21", "121", "212", "1212")
DEGREES: Tuple[int, ...] = (0, 1, 2, 3, 3, 4, 5, 6)
WORD_INDEX: Dict[str, int] = {w: i for i, w in enumerate(WORDS)}
DIM = len(WORDS)
TOP_DEGREE = 6

# Rewriting rules, each mapping a factor to its replacement (None = zero).
_RULES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("11", None),
    ("22", "121"),
    ("2121", "1212"),
)


def reduce_word(word: str) -> Optional[str]:
    """Normal form of a word in the letters {1,2}; None means the word is 0."""
    if word.strip("12"):  # some letter is neither 1 nor 2
        raise ValueError(f"A(1) word {word!r} has a letter other than 1 and 2")
    while True:
        if word_degree(word) > TOP_DEGREE:
            return None
        for pat, rep in _RULES:
            pos = word.find(pat)
            if pos >= 0:
                if rep is None:
                    return None
                word = word[:pos] + rep + word[pos + len(pat):]
                break
        else:
            return word


def word_degree(word: str) -> int:
    return sum(int(c) for c in word)


def _build_table() -> Tuple[Tuple[Optional[int], ...], ...]:
    table = []
    for a in WORDS:
        row: List[Optional[int]] = []
        for b in WORDS:
            nf = reduce_word(a + b)
            row.append(None if nf is None else WORD_INDEX[nf])
        table.append(tuple(row))
    return tuple(table)


MUL_TABLE = _build_table()


class A1Element:
    """GF(2) linear combination of the 8 normal-form basis monomials."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits >> DIM:
            raise ValueError("coefficient vector has more than 8 bits")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("A1Element is immutable")

    @classmethod
    def from_word(cls, word: str) -> "A1Element":
        nf = reduce_word(word)
        return cls(0 if nf is None else 1 << WORD_INDEX[nf])

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "A1Element":
        out = cls(0)
        for w in words:
            out = out + cls.from_word(w)
        return out

    def __add__(self, other: "A1Element") -> "A1Element":
        return A1Element(self.bits ^ other.bits)

    def __mul__(self, other: "A1Element") -> "A1Element":
        out = 0
        a = self.bits
        while a:
            i = (a & -a).bit_length() - 1
            a &= a - 1
            b = other.bits
            row = MUL_TABLE[i]
            while b:
                j = (b & -b).bit_length() - 1
                b &= b - 1
                k = row[j]
                if k is not None:
                    out ^= 1 << k
        return A1Element(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, A1Element) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("A1", self.bits))

    def words(self) -> Tuple[str, ...]:
        return tuple(WORDS[i] for i in range(DIM) if (self.bits >> i) & 1)

    def degree(self) -> int:
        degs = sorted({DEGREES[i] for i in range(DIM) if (self.bits >> i) & 1})
        if len(degs) != 1:
            raise ValueError(f"degree of a non-homogeneous element: {self}")
        return degs[0]

    def __repr__(self) -> str:
        if self.bits == 0:
            return "0"
        return " + ".join("Sq" + "·Sq".join(w) if w else "1" for w in self.words())


ONE = A1Element.from_word("")
SQ1 = A1Element.from_word("1")
SQ2 = A1Element.from_word("2")


def basis() -> Tuple[A1Element, ...]:
    return tuple(A1Element(1 << i) for i in range(DIM))


def graded_dimensions() -> Tuple[int, ...]:
    dims = [0] * (TOP_DEGREE + 1)
    for d in DEGREES:
        dims[d] += 1
    return tuple(dims)


def milnor_primitive(i: int) -> A1Element:
    """Q0 = Sq1 and Q1 = Sq1Sq2 + Sq2Sq1."""
    if i == 0:
        return SQ1
    if i == 1:
        return A1Element.from_words(["12", "21"])
    raise ValueError(f"milnor_primitive expects i in {{0,1}}, got {i}")


def top_class() -> A1Element:
    """The unique nonzero degree-6 element, Sq2Sq2Sq2 in normal form."""
    return A1Element.from_word("222")


_WORDS_BY_DEGREE: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(i for i in range(DIM) if DEGREES[i] == d) for d in range(TOP_DEGREE + 1))


def words_of_degree(d: int) -> Tuple[int, ...]:
    """Indices into WORDS of the basis words of degree d, ascending; () outside 0..6."""
    return _WORDS_BY_DEGREE[d] if 0 <= d <= TOP_DEGREE else ()


# -- free modules -----------------------------------------------------------------


def free_bases(gen_degrees: Sequence[int], top: int) -> Dict[int, List[Tuple[int, int]]]:
    """Bases of the degrees <= top of the free module on generators in these degrees.

    Degree d's basis is pairs (generator index, word index): generator by
    generator, and within one the words in ``WORDS`` order.  This is the
    column order of ``GradedA1Module.word_images``, which must stay the same.
    """
    out: Dict[int, List[Tuple[int, int]]] = {}
    for i, t in enumerate(gen_degrees):
        for widx, dw in enumerate(DEGREES):
            if t + dw <= top:
                out.setdefault(t + dw, []).append((i, widx))
    return out


def free_positions(basis: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, int], int]:
    """The position map of one free degree: each basis pair to its bit, ``1 << position``."""
    return {bw: 1 << p for p, bw in enumerate(basis)}


def free_word_times(widx: int, v: int, basis: Sequence[Tuple[int, int]],
                    target: Mapping[Tuple[int, int], int]) -> int:
    """The word ``WORDS[widx]`` times v, a vector of the free degree with this basis.

    ``target`` is the position map of the degree it lands in.  A product of
    two basis words of A(1) is one basis word or 0, so the word sends each
    set bit (gi, u) of v to (gi, MUL_TABLE[widx][u]) or to 0.
    """
    row, acc = MUL_TABLE[widx], 0
    while v:
        low = v & -v
        gi, u = basis[low.bit_length() - 1]
        k = row[u]
        if k is not None:
            acc ^= target[(gi, k)]
        v ^= low
    return acc


def free_word_images(fbasis: Mapping[int, Sequence[Tuple[int, int]]],
                     gens: Sequence[Tuple[int, int]], d: int) -> List[int]:
    """``GradedA1Module.word_images`` into the free module with bases ``fbasis``."""
    target = free_positions(fbasis.get(d, ()))
    return [free_word_times(widx, v, fbasis[t], target)
            for t, v in gens for widx in words_of_degree(d - t)]
