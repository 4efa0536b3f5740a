"""Exactness-driven constraint solving for long exact sequences of
finitely generated abelian groups (2-primary).

Groups are tracked as a free rank plus the 2-log of the torsion order,
both as intervals; each map carries interval variables for the rank and
torsion order of its image.  Propagation uses only what exactness
implies: rank additivity, order additivity for finite groups, subgroup
and quotient bounds, exponent bounds, and the splitting of extensions
with free quotient.  The solver therefore never narrows an unknown beyond
what order-counting and rank-alternation justify.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .ext import format_group


def _iv_exact(a) -> Optional[int]:
    return a[0] if a[1] is not None and a[0] == a[1] else None


def _iv_sub(total, part):
    """Interval for x with part + x = total (clamped at 0)."""
    lo = 0 if total[0] is None else max(0, total[0] - (part[1] if part[1] is not None else total[0]))
    if total[1] is None:
        hi = None
    else:
        hi = max(0, total[1] - part[0])
    return (lo, hi)


def _iv_add(a, b):
    hi = None if (a[1] is None or b[1] is None) else a[1] + b[1]
    return (a[0] + b[0], hi)


class LESError(ValueError):
    pass


ANNOTATIONS = ("zero", "injective", "surjective", "iso")


class PartialGroup(NamedTuple):
    """Finitely generated abelian group knowledge: rank and 2-torsion intervals.

    Immutable: ``solve_les`` reports each slot's narrowed intervals in a
    new record built with ``_replace``.
    """

    rank: Tuple[int, Optional[int]] = (0, None)
    torlog: Tuple[int, Optional[int]] = (0, None)
    exp_log: Optional[int] = None  # exponent of torsion divides 2^exp_log
    factors: Optional[Tuple[int, ...]] = None  # exact torsion invariant factors
    known: bool = False

    @classmethod
    def zero(cls) -> "PartialGroup":
        return cls.exact(0, ())

    @classmethod
    def exact(cls, rank: int, factors: Sequence[int]) -> "PartialGroup":
        factors = tuple(sorted((int(f) for f in factors), reverse=True))
        for f in factors:
            if f < 2 or f & (f - 1):
                raise LESError(f"torsion orders must be 2-powers >= 2, got {f}")
        tl = sum(f.bit_length() - 1 for f in factors)
        e = max((f.bit_length() - 1 for f in factors), default=0)
        return cls((rank, rank), (tl, tl), e, factors, known=True)

    @classmethod
    def unknown(cls, exp_log: Optional[int] = None,
                finite: bool = False) -> "PartialGroup":
        return cls((0, 0) if finite else (0, None), (0, None), exp_log, None, known=False)

    @classmethod
    def parse(cls, text: str) -> "PartialGroup":
        text = text.strip()
        if text == "?":
            return cls.unknown()
        if text in ("?fin", "?finite"):
            return cls.unknown(finite=True)
        if text.startswith("?exp"):
            e = int(text[4:])
            if e < 1 or e & (e - 1):
                raise LESError(f"the exponent of ?exp must be a 2-power, got {e}")
            return cls.unknown(exp_log=e.bit_length() - 1, finite=True)
        if text == "0":
            return cls.zero()
        rank = 0
        factors: List[int] = []
        for term in text.replace("⊕", "+").split("+"):
            term = term.strip()
            mult = 1
            if "^" in term and term.startswith("("):
                base, mult_s = term.rsplit("^", 1)
                term = base.strip("() ")
                mult = int(mult_s)
            elif term.startswith("Z^"):
                term, mult = "Z", int(term[2:])
            if mult < 0:
                raise LESError(f"negative multiplicity in {text!r}")
            for _ in range(mult):
                if term == "Z":
                    rank += 1
                elif term.startswith("Z/"):
                    factors.append(int(term[2:]))
                else:
                    raise LESError(f"cannot parse group term {term!r}")
        return cls.exact(rank, factors)

    def order_str(self) -> str:
        r = _iv_exact(self.rank)
        if self.rank[0] > 0:
            return "infinite"
        t = self.torlog
        if r == 0:
            if _iv_exact(t) is not None:
                return str(2 ** t[0])
            hi = "inf" if t[1] is None else str(2 ** t[1])
            return f"[{2 ** t[0]}, {hi}]"
        return "unknown"

    def group_str(self) -> str:
        if self.factors is not None and _iv_exact(self.rank) is not None:
            return format_group(self.rank[0], self.factors)
        return f"rank {self.rank}, |torsion| in 2^{self.torlog}"


class LESProblem:
    """Slots of a long exact sequence, listed in arrow order.

    ``annotations[i]`` annotates map i: labels[i] -> labels[i+1].  The
    arguments are checked here: a malformed problem raises LESError.
    """

    __slots__ = ("name", "labels", "groups", "annotations")

    def __init__(self, name: str, labels: List[str], groups: List[PartialGroup],
                 annotations: Optional[Dict[int, str]] = None):
        self.name = name
        self.labels = labels
        self.groups = groups
        self.annotations = {} if annotations is None else annotations
        if len(self.labels) != len(self.groups):
            raise LESError("labels and groups must align")
        if len(self.groups) < 3:
            raise LESError("an exact-sequence window needs at least 3 slots")
        for i, a in self.annotations.items():
            if not 0 <= i < len(self.groups) - 1:
                raise LESError(f"annotation on missing map {i}")
            if a not in ANNOTATIONS:
                raise LESError(f"unknown annotation {a!r}")

    def __repr__(self) -> str:
        return f"LESProblem({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def __eq__(self, other):
        if type(other) is not LESProblem:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)


class SlotReport(NamedTuple):
    label: str
    group: PartialGroup
    determined: Optional[str]
    order: str
    candidates: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()


class LESSolution(NamedTuple):
    problem: LESProblem
    slots: List[SlotReport]
    contradiction: Optional[str] = None

    def slot(self, label: str) -> SlotReport:
        for s in self.slots:
            if s.label == label:
                return s
        raise KeyError(label)


def solve_les(problem: LESProblem) -> LESSolution:
    n = len(problem.groups)
    # [rank, torlog] intervals of each slot ("g", j) and of the image of
    # each map ("im", i): groups[i] -> groups[i+1]
    iv = {("g", j): [g.rank, g.torlog] for j, g in enumerate(problem.groups)}
    iv.update({("im", i): [(0, None), (0, None)] for i in range(n - 1)})
    im_factors: List[Optional[Tuple[int, ...]]] = [None] * (n - 1)
    contradiction: Optional[str] = None

    def meet(key, k: int, bound) -> None:
        """Narrow interval k (0 rank, 1 torsion) of ``key`` to its meet with
        ``bound``; an empty meet keeps the interval and records the first
        contradiction, around the slot or map that ``key`` names."""
        nonlocal contradiction, changed
        cur = iv[key][k]
        his = [h for h in (cur[1], bound[1]) if h is not None]
        new = (max(cur[0], bound[0]), min(his, default=None))
        if new[1] is not None and new[0] > new[1]:
            if contradiction is None:
                j = key[1]
                contradiction = ("exactness violated around "
                                 + " -> ".join(problem.labels[max(0, j - 1):j + 2]))
        elif new != cur:
            iv[key][k] = new
            changed = True

    for _round in range(6 * n + 20):
        changed = False
        for i in range(n - 1):
            src, tgt = iv[("g", i)], iv[("g", i + 1)]
            im = ("im", i)
            ann = problem.annotations.get(i)
            # the image is a subgroup of the target and a quotient of the
            # source; a quotient's torsion is bounded only by a finite source
            for k in (0, 1):
                if k == 0 or src[0] == (0, 0):
                    meet(im, k, (0, src[k][1]))
                meet(im, k, (0, tgt[k][1]))
            # an exponent-2^e source has an image inside the target's largest
            # exponent-2^e subgroup, read off the target's narrowed rank
            exp_log, factors = problem.groups[i].exp_log, problem.groups[i + 1].factors
            if exp_log is not None and factors is not None and src[0] == tgt[0] == (0, 0):
                meet(im, 1, (0, sum(min(exp_log, f.bit_length() - 1) for f in factors)))
            if ann == "zero":
                for k in (0, 1):
                    meet(im, k, (0, 0))
            # an injective (surjective) map has the image of its source
            # (target), and exactness makes the map before (after) it zero
            for end, j, other in (("injective", i, i - 1), ("surjective", i + 1, i + 1)):
                if ann not in (end, "iso"):
                    continue
                for k in (0, 1):
                    meet(im, k, iv[("g", j)][k])
                for k in (0, 1):
                    meet(("g", j), k, iv[im][k])
                factors = problem.groups[j].factors
                if factors is not None and (j == i or im_factors[i] is None):
                    im_factors[i] = factors
                if 0 <= other < n - 1:
                    for k in (0, 1):
                        meet(("im", other), k, (0, 0))
            rank, tor = iv[im]
            if rank == (0, 0) and tor in ((0, 0), (1, 1)):
                im_factors[i] = (2,) * tor[0]
        # exactness at interior slots; the torsion rules need a finite slot
        for j in range(1, n - 1):
            g, left, right = iv[("g", j)], iv[("im", j - 1)], iv[("im", j)]
            for k in (0, 1):
                if k == 1 and g[0] != (0, 0):
                    break
                meet(("g", j), k, _iv_add(left[k], right[k]))
                meet(("im", j - 1), k, _iv_sub(g[k], right[k]))
                meet(("im", j), k, _iv_sub(g[k], left[k]))
        if contradiction or not changed:
            break

    slots: List[SlotReport] = []
    for j, g in enumerate(problem.groups):
        g = g._replace(rank=iv[("g", j)][0], torlog=iv[("g", j)][1])
        notes: List[str] = []
        determined: Optional[str] = None
        candidates: Tuple[str, ...] = ()
        if g.known and g.factors is not None:
            determined = g.group_str()
        else:
            r = _iv_exact(g.rank)
            t = _iv_exact(g.torlog)
            # reconstruction: ker = im(map j - 1) known as a group, and the
            # quotient, im(map j), free (the last slot has no map j)
            if j >= 1 and r is not None:
                ker_factors = im_factors[j - 1]
                quot_free = j < n - 1 and iv[("im", j)][1] == (0, 0) and \
                    _iv_exact(iv[("im", j)][0]) is not None
                if ker_factors is not None and quot_free:
                    g = g._replace(factors=ker_factors)
                    determined = PartialGroup.exact(r, ker_factors).group_str()
                    notes.append("extension splits: quotient by the kernel is free")
            if determined is None and r == 0 and t is not None:
                if t == 0:
                    determined = "0"
                elif t == 1:
                    determined = "Z/2"
                else:
                    candidates = tuple(_abelian_types(t))
                    notes.append(f"order {2 ** t} exact; isomorphism type undetermined")
        slots.append(SlotReport(problem.labels[j], g, determined, g.order_str(),
                                candidates, tuple(notes)))
    return LESSolution(problem, slots, contradiction)


def _abelian_types(torlog: int) -> List[str]:
    """All abelian 2-groups of order 2^torlog, as strings."""
    def partitions(k: int, cap: int):
        if k == 0:
            yield []
            return
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                yield [first] + rest

    out = []
    for p in partitions(torlog, torlog):
        out.append(" + ".join(f"Z/{2 ** e}" for e in p))
    return out


# -- the characteristic fiber-sequence figures --------------------------------


def gm_figure_problem() -> LESProblem:
    """Characteristic LES for the Guillou-Marin structure (known columns).

    Sequence order: ... -> Ω^σ_{k-2} -> π_{k-1} -> Ω^GM_{k-1} -> ... with
    the figure's marked surjection Ω^GM_4 ->> Ω^σ_2.
    """
    G = PartialGroup.parse
    labels = ["S4", "pi5", "O5", "S3", "pi4", "O4", "S2", "pi3", "O3", "S1",
              "pi2", "O2", "S0", "pi1", "O1", "Sm1", "pi0", "O0", "0b"]
    groups = [G("0"), G("?"), G("0"), G("Z/2"), G("?"), G("Z^2"),
              G("Z + Z/8"), G("?"), G("0"), G("Z/2"), G("?"), G("0"),
              G("Z/2"), G("?"), G("0"), G("0"), G("?"), G("Z"), G("0")]
    annotations = {5: "surjective"}
    return LESProblem("GM characteristic LES", labels, groups, annotations)


def kt_minus_figure_problem() -> LESProblem:
    """Characteristic LES for KT^-; the degree-2 characteristic map is zero."""
    G = PartialGroup.parse
    labels = ["T3", "pi4", "O4", "T2", "pi3", "O3", "T1", "pi2", "O2",
              "T0", "pi1", "O1", "Tm1", "pi0", "O0", "0b"]
    groups = [G("(Z/2)^2"), G("?"), G("(Z/2)^3"), G("(Z/2)^2"), G("?"),
              G("0"), G("Z/2"), G("?"), G("Z/2"), G("Z/2"), G("?"),
              G("0"), G("0"), G("?"), G("Z/2"), G("0")]
    annotations = {2: "surjective", 8: "zero"}
    return LESProblem("KT- characteristic LES", labels, groups, annotations)


def kt_plus_figure_problem() -> LESProblem:
    """Characteristic LES for KT^+, including the exponent-2 degree-5 slot."""
    G = PartialGroup.parse
    labels = ["O5", "T3", "pi4", "O4", "T2", "pi3", "O3", "T1", "pi2",
              "O2", "T0", "pi1", "O1", "Tm1", "pi0", "O0", "0b"]
    groups = [PartialGroup.unknown(exp_log=1, finite=True),
              G("Z/8 + Z/2"), G("?"), G("(Z/2)^3"), G("(Z/2)^2"), G("?"),
              G("0"), G("Z/2"), G("?"), G("Z/2"), G("Z/2"), G("?"),
              G("0"), G("0"), G("?"), G("Z/2"), G("0")]
    annotations = {3: "surjective", 9: "iso"}
    return LESProblem("KT+ characteristic LES", labels, groups, annotations)


def gm_nonexact_problem() -> LESProblem:
    """A previously proposed (non-exact) sequence around degree 4.

    Encoded with the groups the sequence would have to contain; the solver
    exhibits the contradiction by rank counting, which is the tensor-with-Q
    argument in arithmetic form.  The encoding of the erroneous sequence is
    a documented choice.
    """
    G = PartialGroup.parse
    labels = ["S3", "P4", "GM4", "S2", "P3"]
    groups = [G("Z/2"), G("0"), G("Z^2"), G("Z + Z/8"), G("0")]
    return LESProblem("previously proposed GM sequence (not exact)", labels, groups, {})


FIGURES = {
    "gm": gm_figure_problem,
    "kt-minus": kt_minus_figure_problem,
    "kt-plus": kt_plus_figure_problem,
    "gm-nonexact": gm_nonexact_problem,
}


# -- text format ---------------------------------------------------------------


def parse_les(text: str) -> LESProblem:
    """Parse the LES text format; every error names a line.

    LES <name>
    SLOT <index> <label> = <group|?|?fin|?exp2>
    MAP <i> -> <i+1> = zero|injective|surjective|iso

    Too few or no SLOT lines are blamed on the last line, a gap in the slot
    indices on the SLOT line just after it.  LES, each SLOT and each MAP
    are given once: a second line is refused, naming the first.
    """
    name = "les"
    name_line: Optional[int] = None
    slots: Dict[int, Tuple[int, str, PartialGroup]] = {}  # index -> (line, label, group)
    maps: Dict[int, Tuple[int, str]] = {}  # source index -> (line, annotation)
    last = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        last = ln
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, eq, body = line.partition("=")
        hparts = head.replace("->", " ").split()
        try:
            if parts[0] == "LES":
                if name_line is not None:
                    raise LESError(f"duplicate LES (first on line {name_line})")
                name, name_line = " ".join(parts[1:]), ln
            elif parts[0] == "SLOT" and eq and len(hparts) in (2, 3):
                idx = int(hparts[1])
                if idx in slots:
                    raise LESError(f"duplicate SLOT {idx} (first on line {slots[idx][0]})")
                label = hparts[2] if len(hparts) > 2 else f"slot{idx}"
                slots[idx] = (ln, label, PartialGroup.parse(body))
            elif parts[0] == "MAP" and eq and len(hparts) == 3:
                i, j = int(hparts[1]), int(hparts[2])
                if j != i + 1:
                    raise LESError("annotations reference adjacent slots only")
                if i in maps:
                    raise LESError(f"duplicate MAP {i} -> {j} (first on line {maps[i][0]})")
                if body.strip() not in ANNOTATIONS:
                    raise LESError(f"unknown annotation {body.strip()!r}")
                maps[i] = (ln, body.strip())
            else:
                raise LESError("expected LES <name>, SLOT <index> <label> = <group> "
                               "or MAP <i> -> <i+1> = " + "|".join(ANNOTATIONS))
        except ValueError as e:
            raise LESError(f"line {ln}: {e}") from None
    if not slots:
        raise LESError(f"line {max(last, 1)}: no SLOT lines")
    idxs = sorted(slots)
    for prev, idx in zip(idxs, idxs[1:]):
        if idx != prev + 1:
            raise LESError(f"line {slots[idx][0]}: slot indices must be consecutive "
                           f"(no SLOT {prev + 1})")
    if len(idxs) < 3:
        raise LESError(f"line {last}: an exact-sequence window needs at least 3 slots")
    for i, (ln, _) in maps.items():
        if not idxs[0] <= i < idxs[-1]:
            raise LESError(f"line {ln}: annotation on missing map {i} -> {i + 1}")
    labels = [slots[i][1] for i in idxs]
    groups = [slots[i][2] for i in idxs]
    anns = {i - idxs[0]: a for i, (_, a) in maps.items()}
    return LESProblem(name, labels, groups, anns)
