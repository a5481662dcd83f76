"""Batch command-line interface.

Subcommands expose each engine layer (dims, validate, perp, chain, baer,
witness, freeness, iota) plus the built-in scenario runner; each accepts
only the options it reads, and ``scenario`` refuses an option that the
named scenario does not read.  Output is deterministic given the flags;
--format structured (dims, scenario) emits the line-oriented
machine-readable form.  Exit codes: 0 all expectations met,
1 a computed counterexample to an expectation, 2 inconclusive, 3 an error
(unreadable input, a parse error, an invalid request or a usage error such
as a malformed option value).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import milnor, textio
from .annihilator import (HomIdeal, IdealChain, chain_perp_profile,
                          perp_subset_in_algebra)
from .baer import baer_test, build_witness
from .comodule import (ExtendedSpec, _coassociativity_messages, extended,
                       iota, validate_coaction)
from .gmodule import (GradedModule, Window, coproduct, dual_regular,
                      freeness_test, regular)
from .milnor import Algebra
from .scenarios import (EXIT_CODES, READS, ScenarioConfig,
                        render_structured, render_text, run_scenario)

# kept apart from the verdict codes, 2 being "inconclusive"
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR, not argparse's 2; subparsers
    inherit the class through add_subparsers."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_window(text: str) -> Window:
    lo, hi = text.split("..")
    return Window(int(lo), int(hi))


def _parse_max(text: str) -> int:
    """--max: a degree bound, refused when negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a degree >= 0, got {value}")
    return value


def _parse_subalgebra(text: str) -> Algebra:
    if text == "full":
        return Algebra.full()
    return Algebra.subalgebra(int(text))


def _algebra_and_window(args) -> tuple[Algebra, Window]:
    """--subalgebra and --window, defaulting to the full algebra on 0..12."""
    algebra = Algebra.full() if args.subalgebra is None else args.subalgebra
    window = Window(0, 12) if args.window is None else args.window
    return algebra, window


def _load_module(args) -> GradedModule:
    spec = args.module
    if spec in ("regular", "dual-regular"):
        build = regular if spec == "regular" else dual_regular
        return build(*_algebra_and_window(args))
    if args.window is not None or args.subalgebra is not None:
        raise ValueError("a module file carries its own window and algebra")
    with open(spec, "r", encoding="utf-8") as fh:
        return textio.parse_module(fh.read())


def _parse_ideal(text: str) -> HomIdeal:
    gens = [milnor.parse_element(part) for part in text.split(";") if part.strip()]
    return HomIdeal(gens)


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_dims(args) -> int:
    lines = []
    alg = args.subalgebra
    top = alg.top_degree()
    dmax = args.max if top is None else min(args.max, top)
    if args.format == "structured":
        lines.append("schema steenmod.report/1")
    for d in range(dmax + 1):
        basis = alg.basis(d)
        if args.format == "structured":
            lines.append(f"dim.{d} {len(basis)}")
        else:
            names = " ".join(str(milnor.Element([s])) for s in basis)
            lines.append(f"degree {d}: dim {len(basis)}  {names}")
    _emit(lines)
    return 0


def io_roundtrip(path: str) -> tuple[str, bool, list[str]]:
    """Parse a module or comodule file, re-print, re-parse; bit-exact check.

    Returns (kind, parse-print-parse fixpoint reached, axiom violations).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if textio.header_line(text) == textio.COMODULE_HEADER:
        kind, parse, show, check = ("comodule", textio.parse_comodule,
                                    textio.print_comodule, validate_coaction)
    else:
        kind, parse, show, check = ("module", textio.parse_module,
                                    textio.print_module,
                                    GradedModule.validate)
    obj = parse(text)
    bad = check(obj)
    reprint = show(obj)
    if reprint == text:
        # parsing the reprint would give obj again, and printing it reprint
        return kind, True, bad
    again = parse(reprint)
    return kind, again == obj and show(again) == reprint, bad


def cmd_validate(args) -> int:
    kind, fixpoint, bad = io_roundtrip(args.file)
    lines = [f"kind: {kind}", f"violations: {len(bad)}"]
    for v in bad[:10]:
        lines.append(f"  {v}")
    lines.append(f"roundtrip: {'bit-exact' if fixpoint else 'BROKEN'}")
    _emit(lines)
    return 0 if fixpoint and not bad else 1


def cmd_perp(args) -> int:
    if args.elements and args.module != "regular":
        raise ValueError("--elements takes elements of --module regular only")
    m = _load_module(args)
    lines = []
    if args.elements:
        elems = []
        for part in args.elements.split(";"):
            e = milnor.parse_element(part)
            d = e.degree()
            if d is None:
                raise ValueError("perp elements must be nonzero homogeneous")
            elems.append((d, milnor.coords_of(e, d, m.algebra)))
        wi = perp_subset_in_algebra(elems, m)
        lines.append("algebra-degree dim certified")
        for k in range(0, wi.window.hi + 1):
            if k in wi.spaces:
                lines.append(f"{k} {wi.spaces[k].dim} yes")
            else:
                lines.append(f"{k} ? no")
    else:
        ideal = _parse_ideal(args.ideal)
        prof = chain_perp_profile(IdealChain([ideal]), m)
        lines.append("degree dim certified")
        for d in prof.window:
            cert = "yes" if prof.certified[d] else "no"
            lines.append(f"{d} {prof.stages[d][0].dim} {cert}")
    _emit(lines)
    return 0


def cmd_chain(args) -> int:
    m = _load_module(args)
    chain = _load_chain(args.chain)
    prof = chain_perp_profile(chain, m)
    lines = [f"stages: {len(chain.stages)}",
             "degree stage-dims ell certified"]
    for d in prof.window:
        dims = "/".join(str(prof.stages[d][i].dim)
                        for i in range(prof.num_stages))
        cert = "yes" if prof.certified[d] else "no"
        note = " (moving at final stage)" if prof.ell[d] == prof.num_stages else ""
        lines.append(f"{d} {dims} {prof.ell[d]}{note} {cert}")
    _emit(lines)
    return 0


def _load_chain(text: str):
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    return textio.parse_chain(text)


def cmd_baer(args) -> int:
    m = _load_module(args)
    if args.shifts:
        shifts = [int(t) for t in args.shifts.split(",")]
        m = coproduct([(m, s) for s in shifts])
    ideal = _parse_ideal(args.ideal)
    v = baer_test(ideal, args.shift, m)
    lines = [f"ideal: {ideal}",
             f"shift: {args.shift}",
             f"status: {v.status}",
             f"map-space-dim: {v.hom_dim}",
             f"restriction-dim: {v.extendable_dim}",
             f"relations-complete: {v.constraints_complete}",
             f"note: {v.note}"]
    if v.witness is not None:
        for gd, vd, mask in v.witness:
            lines.append(f"witness-value: generator-degree {gd} "
                         f"value-degree {vd} coords {mask:x}")
    _emit(lines)
    return 0 if v.passed else (1 if v.status == "fails" else 2)


def cmd_witness(args) -> int:
    m = _load_module(args)
    chain = _load_chain(args.chain)
    dfun = None
    if args.degree_function:
        dfun = [int(t) for t in args.degree_function.split(",")]
    w = build_witness(chain, m, dfun)
    lines = [str(chain),
             f"degree-function: {list(w.degree_function)}",
             f"forced-stages: {w.forced_stages} of {len(w.choices)}",
             f"extension-fails: {w.extension_fails}",
             f"note: {w.note}"]
    for n, (deg, mask) in enumerate(w.choices):
        lines.append(f"choice {n}: degree {deg} coords {mask:x}")
    for n in sorted(w.stage_witnesses):
        lines.append(f"destabilizer {n}: {w.stage_witnesses[n]}")
    _emit(lines)
    return 0


def cmd_freeness(args) -> int:
    m = _load_module(args)
    sub = m.algebra if args.over is None else args.over
    if sub.is_full:
        raise ValueError("freeness runs over a finite subalgebra; pass --over N")
    v = freeness_test(m, sub)
    lines = [f"status: {v.status}"]
    if v.status == "free":
        lines.append("gr-injective: yes (free = injective over a finite "
                     "self-dual subalgebra, on the certified range)")
    lines.append(f"generators: {dict(sorted(v.generator_degrees.items()))}")
    if v.witness:
        lines.append(f"witness: {v.witness}")
    if v.certified_degrees:
        lines.append(f"certified: {min(v.certified_degrees)}.."
                     f"{max(v.certified_degrees)}")
    _emit(lines)
    return 0 if v.status == "free" else (1 if v.status == "not_free" else 2)


def _parse_v_dims(text: str) -> dict[int, int]:
    """--v 'DEG:DIM,...': each degree once, each part two integers."""
    v_dims: dict[int, int] = {}
    for part in text.split(","):
        fields = part.split(":")
        try:
            d, n = (int(f) for f in fields)
        except ValueError:
            raise ValueError(
                f"bad --v part {part!r} (expected DEG:DIM)") from None
        if d in v_dims:
            raise ValueError(f"--v repeats degree {d}")
        v_dims[d] = n
    return v_dims


def cmd_iota(args) -> int:
    spec = ExtendedSpec(_parse_v_dims(args.v))
    com = extended(spec, *_algebra_and_window(args))
    m = iota(com)
    # one composition check of m: each failure is one module violation,
    # and regrouped they are the coaction violations
    failures = m._failing_compositions()
    lines = [f"v: {dict(spec.v_dims)}",
             f"comodule-dims: {[com.dims[d] for d in com.window]}",
             f"coaction-violations: "
             f"{len(_coassociativity_messages(failures))}",
             f"module-violations: {len(failures)}"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(textio.print_module(m))
        lines.append(f"module-written: {args.out}")
    _emit(lines)
    return 0 if not failures else 1


def cmd_scenario(args) -> int:
    # option -> (ScenarioConfig field, value); an option not given is None
    options = {"--seed": ("seed", args.seed),
               "--window": ("window", args.window),
               "--n": ("subalgebra", args.n),
               "--stages": ("stages", args.stages),
               "--max": ("max_degree", args.max)}
    given = {}
    for option, (field, value) in options.items():
        if value is None:
            continue
        if args.name in READS and field not in READS[args.name]:
            raise ValueError(f"scenario {args.name} does not read {option}")
        given[field] = value
    rep = run_scenario(args.name, ScenarioConfig(**given))
    if args.format == "structured":
        sys.stdout.write(render_structured(rep))
    else:
        sys.stdout.write(render_text(rep))
    return EXIT_CODES[rep.status]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="steenmod",
        description="desk-scale graded-module computations over the mod-2 "
                    "Steenrod algebra and its finite subalgebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, module=False):
        p.add_argument("--window", type=_parse_window, default=None,
                       help="degree window LO..HI (default 0..12)")
        p.add_argument("--subalgebra", type=_parse_subalgebra, default=None,
                       help="N or 'full' (default full)")
        if module:
            p.add_argument("--module", default="regular",
                           help="'regular', 'dual-regular', or a module file")

    p = sub.add_parser("dims", help="basis dimensions per degree")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--max", type=_parse_max, default=24)
    p.add_argument("--subalgebra", type=_parse_subalgebra,
                   default=Algebra.full())
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("validate", help="parse, validate and round-trip a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("perp", help="annihilator tables")
    add_common(p, module=True)
    p.add_argument("--ideal", default="Sq(1)",
                   help="generators separated by ';'")
    p.add_argument("--elements", default="",
                   help="elements of --module regular, written as algebra "
                        "elements, whose algebra annihilator is wanted")
    p.set_defaults(func=cmd_perp)

    p = sub.add_parser("chain", help="perp profile of an ascending chain")
    add_common(p, module=True)
    p.add_argument("--chain", required=True,
                   help="chain file or inline 'chain: [Sq(1)] ; ...'")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("baer", help="graded extension test")
    add_common(p, module=True)
    p.add_argument("--ideal", default="Sq(1)")
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--shifts", default="",
                   help="coproduct suspension shifts, comma separated")
    p.set_defaults(func=cmd_baer)

    p = sub.add_parser("witness", help="chain witness map construction")
    add_common(p, module=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--degree-function", default="",
                   help="d(n) for each stage, in stage order; derived from "
                        "the profile when omitted")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("freeness", help="freeness / gr-injectivity test")
    add_common(p, module=True)
    p.add_argument("--over", type=_parse_subalgebra, default=None,
                   help="finite subalgebra to test over (default: the "
                        "module's own)")
    p.set_defaults(func=cmd_freeness)

    p = sub.add_parser("iota", help="embed an extended comodule as a module")
    add_common(p)
    p.add_argument("--v", required=True, help="graded dims like '0:1,-2:1'")
    p.add_argument("--out", default="", help="write the module file here")
    p.set_defaults(func=cmd_iota)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument("name")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized parts of catalogs")
    p.add_argument("--window", type=_parse_window, default=None)
    p.add_argument("--n", type=int, default=None, help="subalgebra index")
    p.add_argument("--stages", type=int, default=None)
    p.add_argument("--max", type=_parse_max, default=None)
    p.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except textio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
