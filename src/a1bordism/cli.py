"""Command-line surface: pipelines, charts, decompositions, LES, obstructions.

Each verb computes its result once (a pipeline report, a chart, a
verdict) and renders it as ASCII or, where --format tsv is offered, as
tab-separated rows; both renderers read the same result, and the exit
status comes from the result, never from the format.

Exit status: 0 on fully certified results, 1 on argument and input-file
errors (including a window past a truncated module's cutoff), 2 when a
mathematical result is uncertified or undecided (partial output is
still printed), including a non-injective two-form pullback and a
failed internal invariant check.  Output is deterministic; --jobs is
accepted for compatibility and changes nothing, because the engine runs
single-threaded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

from . import ext as ext_mod
from . import les as les_mod
from . import modules as md
from . import obstruction as ob
from . import pipelines as pl
from . import spaces as sp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCERTIFIED = 2


def _tsv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A header line and one line per row, fields separated by tabs."""
    return "".join("\t".join(map(str, row)) + "\n" for row in [header, *rows])


VERDICT_HEADER = ("degree", "class", "pullback", "verdict")


def _structure_module(name: str, cutoff: int):
    if name.endswith(".a1mod"):
        with open(name) as fh:
            return md.parse_a1mod(fh.read())
    if name.endswith(".space"):
        with open(name) as fh:
            pres, a, b, shift = sp.parse_space(fh.read())
        return sp.twist(pres, a, b, shift)
    if name in sp.STRUCTURE_NAMES:
        return sp.named_structure(name, cutoff)
    if name in md.CATALOG_NAMES:
        return md.catalog(name, cutoff)
    raise ValueError(
        f"unknown module {name!r}; structures: {', '.join(sp.STRUCTURE_NAMES)}; "
        f"catalog: {', '.join(md.CATALOG_NAMES)}; or a .a1mod/.space file path")


def cmd_list(args) -> Tuple[str, int]:
    lines = ["pipelines:"]
    lines += [f"  {n}" for n in sp.STRUCTURE_NAMES]
    lines.append("catalog modules:")
    lines += [f"  {n}" for n in md.CATALOG_NAMES]
    lines.append("spaces:")
    lines += [f"  {n}" for n in sp.SPACE_NAMES]
    lines.append("les figures:")
    lines += [f"  {n}" for n in sorted(les_mod.FIGURES)]
    return "\n".join(lines) + "\n", EXIT_OK


MODULE_CUTOFF = 12  # `module`'s cutoff for a catalog module or named structure


def cmd_module(args) -> Tuple[str, int]:
    m = _structure_module(args.name, MODULE_CUTOFF if args.cutoff is None else args.cutoff)
    if args.cutoff is not None and args.name.endswith((".a1mod", ".space")):
        # a file is read whole; a given cutoff cuts it, and cannot extend it
        if args.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        m = m.truncate(args.cutoff)
    return md.format_a1mod(m), EXIT_OK


def cmd_ext(args) -> Tuple[str, int]:
    for flag, value in (("--max-n", args.max_n), ("--max-s", args.max_s)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    max_t = args.max_n + args.max_s
    m = _structure_module(args.name, max_t)
    res = ext_mod.minimal_resolution(m, max_s=args.max_s, max_t=max_t)
    chart = ext_mod.ext_chart(res)
    if args.format == "tsv":
        return ext_mod.chart_tsv(chart, args.max_n, args.max_s), EXIT_OK
    return ext_mod.chart_ascii(chart, args.max_n, args.max_s), EXIT_OK


def cmd_bordism(args) -> Tuple[str, int]:
    report = pl.run_pipeline(args.name, args.through, max_s=args.max_s)
    if args.format == "tsv":
        text = _tsv(("degree", "group", "certified", "odd_part"),
                    [(r.degree, r.group_str(), "yes" if r.certified else "no", r.odd_part)
                     for r in report.rows])
    else:
        lines = [f"2-complete {args.name} bordism through degree {args.through}"]
        for r in report.rows:
            mark = "" if r.certified else "   [UNCERTIFIED]"
            lines.append(f"  Omega_{r.degree} = {r.group_str()}{mark}")
        lines.append("notes:")
        for r in report.rows:
            for w in r.warnings:
                lines.append(f"  deg {r.degree}: {w}")
        lines.append(f"  odd-primary part: {report.rows[0].odd_part}")
        for p in report.provenance:
            lines.append(f"  {p}")
        text = "\n".join(lines) + "\n"
    return text, EXIT_OK if report.certified else EXIT_UNCERTIFIED


def cmd_decompose(args) -> Tuple[str, int]:
    dec = pl.decompose_structure(args.name, args.through)
    lines = [f"{args.name} through degree {args.through}:"]
    for g, label in dec.free_summands:
        lines.append(f"  free A(1) summand at degree {g}  (generator {label})")
    for pname, susp in dec.catalog_summands:
        lines.append(f"  {pname} suspended by {susp}")
    rem = dec.remainder
    if dec.catalog_summands:
        lines.append("  match certified by explicit isomorphism witness")
        code = EXIT_OK
    elif rem.total_dim() == 0:
        lines.append("  remainder: 0")
        code = EXIT_OK
    else:
        dims = {d: rem.dim(d) for d in rem.degrees()}
        lines.append(f"  unidentified remainder with dims {dims}")
        code = EXIT_UNCERTIFIED
    for note in dec.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n", code


def cmd_les(args) -> Tuple[str, int]:
    if args.problem in les_mod.FIGURES:
        problem = les_mod.FIGURES[args.problem]()
    else:
        with open(args.problem) as fh:
            problem = les_mod.parse_les(fh.read())
    sol = les_mod.solve_les(problem)
    lines = [f"LES: {problem.name}"]
    code = EXIT_OK
    if sol.contradiction:
        lines.append(f"  CONTRADICTION: {sol.contradiction}")
        code = EXIT_UNCERTIFIED
    for s in sol.slots:
        if s.group.known:
            continue
        if s.determined is not None:
            lines.append(f"  {s.label} = {s.determined}")
        else:
            extra = f"; candidates: {', '.join(s.candidates)}" if s.candidates else ""
            lines.append(f"  {s.label}: order {s.order}{extra}")
        for note in s.notes:
            lines.append(f"    note: {note}")
    return "\n".join(lines) + "\n", code


def _mod_sq1(v: ob.EvaluationVerdict) -> str:
    return "nonzero" if v.nonzero_mod_sq1 else "zero"


def cmd_obstruction(args) -> Tuple[str, int]:
    code = EXIT_OK
    if args.which == "one-form":
        one = ob.primary_obstruction_oneform()
        wu = ob.evaluate_obstruction_on("WuManifold", "21", "z2")
        spin = ob.evaluate_obstruction_on("SpinPlaceholder")
        header = VERDICT_HEADER
        row = (one.degree, one.expression, one.pullback,
               f"nonzero on WuManifold: {wu.nonzero_mod_sq1}; "
               f"zero on spin: {not spin.nonzero_mod_sq1}")
        lines = [
            f"obstruction = {one.expression}",
            f"  {_mod_sq1(wu)} on: WuManifold (value {wu.value})",
            f"  {_mod_sq1(spin)} on: spin placeholder ({spin.detail})",
            f"  derivation: {one.note}",
        ]
    elif args.which == "two-form":
        two = ob.twoform_degree6_injectivity()
        header = VERDICT_HEADER
        row = (6, ", ".join(two.basis), ", ".join(two.images),
               "injective" if two.injective else "not injective")
        lines = [f"degree-6 pullback on {two.basis}: {two.images}", f"  {two.conclusion}"]
        code = EXIT_OK if two.injective else EXIT_UNCERTIFIED
    elif args.which == "evaluate":
        v = ob.evaluate_obstruction_on(args.space, args.word, args.generator)
        verdict = f"{_mod_sq1(v)} mod Im Sq1"
        header = ("space", "class", "value", "verdict")
        row = (v.space, v.expression, v.value, verdict)
        lines = [f"{v.expression} on {v.space}: {v.value} ({verdict})", f"  {v.detail}"]
    else:
        raise ValueError(f"unknown obstruction command {args.which!r}")
    if args.format == "tsv":
        return _tsv(header, [row]), code
    return "\n".join(lines) + "\n", code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="a1bordism",
        description="Characteristic bordism via Ext over A(1): pipelines, Adams "
                    "charts, decompositions, LES constraints, and symmetry-breaking "
                    "obstructions.",
        epilog="ASCII charts: one column per n = t-s, dots stacked by filtration s, "
               "'|' marks an h0-multiplication into the dot above.",
    )
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the engine runs single-threaded, "
                        "so output is identical for every value")
    sub = p.add_subparsers(dest="verb", required=True)

    sub.add_parser("list", help="list pipelines, catalog modules, spaces, figures")

    q = sub.add_parser("module", help="print a module (catalog name, structure "
                                      "name, or .a1mod/.space file) in .a1mod format")
    q.add_argument("name")
    q.add_argument("--cutoff", type=int, default=None,
                   help=f"top degree to print (default {MODULE_CUTOFF} for a catalog "
                        "module or structure; a file is printed whole)")

    q = sub.add_parser("ext", help="Ext chart of a module, named structure, "
                                   "or .a1mod/.space file")
    q.add_argument("name")
    q.add_argument("--max-n", type=int, default=8)
    q.add_argument("--max-s", type=int, default=10)
    q.add_argument("--format", choices=("ascii", "tsv"), default="ascii")

    q = sub.add_parser("bordism", help="run a named bordism pipeline")
    q.add_argument("name")
    q.add_argument("--through", type=int, default=4)
    q.add_argument("--max-s", type=int, default=pl.DEFAULT_MAX_S)
    q.add_argument("--format", choices=("ascii", "tsv"), default="ascii")

    q = sub.add_parser("decompose", help="split a structure module into catalog pieces")
    q.add_argument("name")
    q.add_argument("--through", type=int, default=6)

    q = sub.add_parser("les", help="solve a long-exact-sequence constraint problem")
    q.add_argument("problem", help="figure name (gm, kt-minus, kt-plus, gm-nonexact) "
                                   "or a problem file")

    q = sub.add_parser("obstruction", help="symmetry-breaking obstruction checks")
    q.add_argument("which", choices=("one-form", "two-form", "evaluate"))
    q.add_argument("--space", default="WuManifold")
    q.add_argument("--word", default="21")
    q.add_argument("--generator", default="z2")
    q.add_argument("--format", choices=("ascii", "tsv"), default="ascii")
    return p


COMMANDS = {
    "list": cmd_list,
    "module": cmd_module,
    "ext": cmd_ext,
    "bordism": cmd_bordism,
    "decompose": cmd_decompose,
    "les": cmd_les,
    "obstruction": cmd_obstruction,
}


def run(argv: Optional[List[str]] = None) -> Tuple[str, int]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return "", EXIT_USAGE if e.code else EXIT_OK
    try:
        return COMMANDS[args.verb](args)
    except md.InvariantError as e:
        return f"error: undecided: internal invariant failed: {e}\n", EXIT_UNCERTIFIED
    except (ValueError, OSError) as e:
        return f"error: {e}\n", EXIT_USAGE


def main(argv: Optional[List[str]] = None) -> int:
    text, code = run(argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
