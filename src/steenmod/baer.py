"""The graded extension (Baer) test and witness maps.

The extension test asks whether every graded map from a suspended ideal
into a target module extends over the inclusion into the suspended regular
module.  Maps out of an ideal are coordinatized by their values on the
ideal's generators; the constraints are the degreewise relations among the
generators, processed in ascending degree.  Every genuine restriction
satisfies all constraints, so the map space matching the restriction space
certifies extends_all even when higher relations are not representable in
the window; a failure verdict instead requires every relation degree to
have been visible, otherwise the run reports inconclusive.

What depends only on the ideal and the algebra is its presentation: the
generators' degrees and coordinates, and per degree the relation rows
and the minimal ones among them (next paragraph), each computed on its
first read.  There is
one per (generators, algebra), memoized in ``_PRESENTATIONS`` and
fetched once per test, so a catalog run at many shifts and targets
computes each degree's relations once.  A test then walks only the
degrees where the target is nonzero.

Only a minimal presentation of the relations is imposed.  The relations
form a left submodule, and the squares Sq(2^k) generate the algebra
(Milnor, Ann. of Math. 67, 1958), so the relations of degree e are spanned
by the Sq(2^k)-multiples of lower ones plus a few indecomposable rows.  In
a module the constraints of a * rho are a's action applied to those of rho,
so the multiples add nothing once the lower degrees are imposed, and the
constraint row space after each degree is the one the full relation space
gives.  The argument needs the target to be a module; ``steenmod baer
--module FILE`` does not check that, so run ``steenmod validate`` on the
file first.

A witness packages the chain data r -> (r x_0, r x_1, ...): each x_n is
annihilated by stage n, and its degree -d(n) tracks, stage by stage, where
the perp chain moves.  A finite coproduct of copies of a gr-injective
module is again gr-injective, so the assembled map itself always extends
at desk scale; what survives of the infinite phenomenon is support
forcing: a destabilized stage n forces every extension to be nonzero in
component n, so no extension supported on boundedly many stages exists as
the chain grows.  The ``Witness`` record holds the degree function, the
choices, the forced stages with a destabilizing generator for each, and
that verdict, all re-checkable.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import milnor
from ._f2pure import column_kernel, insert, transpose
from ._records import fields_equal
from .annihilator import HomIdeal, IdealChain, PerpProfile, _profile_for
from .f2 import Subspace, kernel, mask_to_bits, mul_rows
from .gmodule import GradedModule
from .milnor import Algebra, Element

EXTENDS_ALL = "extends_all"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


# -- the extension test --------------------------------------------------------


class BaerVerdict:
    __slots__ = ("status", "hom_dim", "extendable_dim",
                 "constraints_complete", "note", "witness")

    def __init__(self, status: str, hom_dim: int, extendable_dim: int,
                 constraints_complete: bool, note: str,
                 witness: Optional[tuple[tuple[int, int, int], ...]] = None):
        self.status = status  # extends_all / fails / inconclusive
        self.hom_dim = hom_dim
        self.extendable_dim = extendable_dim
        self.constraints_complete = constraints_complete
        self.note = note
        # a map admitting no extension: its values on the ideal's
        # generators, one (generator degree, value degree, coords) each
        self.witness = witness

    __eq__ = fields_equal

    @property
    def passed(self) -> bool:
        return self.status == EXTENDS_ALL


def _generator_relations(gen_coords: tuple[tuple[int, int], ...], e: int,
                         algebra: Algebra
                         ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Degree-e relations among ideal generators, as kernel rows.

    The relation space is the kernel of (+)_i A^(e-|g_i|) -> A^e,
    (b_i) -> sum b_i g_i, with columns laid out as
    [(generator index, basis index)].  Not memoized itself: each degree
    is computed once per presentation (``_presentation``).

    The kernel's canonical basis is ``_f2pure.column_kernel`` of the
    columns' masks in A^e, the right multiplications by the generators,
    read from the generators' coordinates as ``milnor.right_multiplication``
    reads them: a monomial's from ``milnor._right_action``'s memo, a sum's
    as the XOR of the stride slices of ``product_columns(e - |g_i|, |g_i|)``
    at its terms.
    """
    cols: list[int] = []
    layout: list[tuple[int, int]] = []
    for gi, (gd, gv) in enumerate(gen_coords):
        k = e - gd
        if k < 0:
            continue
        basis = algebra.basis(gd)
        if gv & (gv - 1) == 0:  # a monomial
            part = milnor._right_action(basis[gv.bit_length() - 1], k,
                                        algebra).rows
        else:
            part = [0] * algebra.dim(k)
            if part:
                block = milnor.product_columns(k, gd, algebra)
                for j in mask_to_bits(gv):
                    part = [a ^ b for a, b in
                            zip(part, block[j::len(basis)])]
        cols.extend(part)
        layout.extend((gi, j) for j in range(len(part)))
    if not cols:
        return (), ()
    return tuple(column_kernel(cols, algebra.dim(e))), tuple(layout)


def _minimal_relations(pres: "_Presentation", e: int) -> tuple[int, ...]:
    """The degree-e relation rows of the presentation that are
    independent modulo D_e, the sum over the squares Sq(2^k) of the
    algebra of Sq(2^k) * R_(e - 2^k), in the same column layout.  Not
    memoized itself: ``_Presentation._minimal_at`` computes each degree
    once, and the lower relations are read through the same record.

    They span R_e together with D_e, and there are dim R_e - dim D_e of
    them.  Sq(2^k) sends a lower relation's block of generator i, in
    A^(m), m = e - 2^k - |g_i|, to A^(m + 2^k) through the columns of
    Sq(2^k) in ``milnor.product_columns(2^k, m)``, shifted to the block's
    offset at degree e; one kernel product maps every lower row at once.
    The images go into one pivot table (``_f2pure.insert``), then the
    rows of R_e; a row with a nonzero residue is kept as it is.
    """
    rows, layout = pres._relations_at(e)
    if not rows:
        return ()
    algebra = pres.algebra
    offsets = {gi: pos for pos, (gi, j) in enumerate(layout) if j == 0}
    table: dict[int, int] = {}
    s = 1
    while s <= e - pres.min_gd and algebra.contains((s,)):
        lower, lower_layout = pres._relations_at(e - s)
        if lower:
            sq = algebra.basis(s).index((s,))
            shifted = []
            for gi, j in lower_layout:
                if j == 0:  # a generator's block starts: look up its slice
                    m = e - s - pres.gens[gi][0]
                    dm = algebra.dim(m)
                    cols = milnor.product_columns(s, m, algebra)[
                        sq * dm:(sq + 1) * dm]
                    off = offsets.get(gi)
                shifted.append(0 if off is None else cols[j] << off)
            for v in mul_rows(lower, shifted):
                insert(table, v)
        s <<= 1
    return tuple(v for v in rows if insert(table, v))


class _Presentation:
    """An ideal's generators over one algebra and the relations among
    them, read one degree at a time.

    gens holds each generator's (degree, coordinate mask) in the
    algebra's basis, terms its monomials, min_gd and max_gd the least
    and largest generator degree.  relations maps a degree e to
    ``_generator_relations`` of e (rows and layout), minimal to
    ``_minimal_relations`` of e; both are filled on first read, by
    ``_relations_at`` and ``_minimal_at``.  The per-test reads are plain
    attribute and dict reads and underscore-named methods, which the
    benchmark's tracer (``perfbench/tracer.py``) leaves unwrapped.
    """

    __slots__ = ("algebra", "gens", "terms", "min_gd", "max_gd",
                 "relations", "minimal")

    def __init__(self, generators: tuple[Element, ...], algebra: Algebra):
        self.algebra = algebra
        self.gens = tuple((g.degree(), milnor.coords_of(g, g.degree(), algebra))
                          for g in generators)
        self.terms = tuple(tuple(g.terms) for g in generators)
        self.min_gd = min(gd for gd, _ in self.gens)
        self.max_gd = max(gd for gd, _ in self.gens)
        self.relations: dict[int, tuple[tuple[int, ...],
                                        tuple[tuple[int, int], ...]]] = {}
        self.minimal: dict[int, tuple[int, ...]] = {}

    def _relations_at(self, e: int
                      ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        out = self.relations.get(e)
        if out is None:
            out = self.relations[e] = _generator_relations(self.gens, e,
                                                           self.algebra)
        return out

    def _minimal_at(self, e: int) -> tuple[int, ...]:
        out = self.minimal.get(e)
        if out is None:
            out = self.minimal[e] = _minimal_relations(self, e)
        return out


# the one presentation per (ideal generators, algebra)
_PRESENTATIONS: dict[tuple[tuple[Element, ...], Algebra], _Presentation] = {}


def _presentation(generators: tuple[Element, ...], algebra: Algebra
                  ) -> _Presentation:
    """The memoized presentation of the ideal with these generators over
    the algebra; a generator outside the algebra raises ValueError and
    leaves no entry."""
    key = (generators, algebra)
    pres = _PRESENTATIONS.get(key)
    if pres is None:
        pres = _PRESENTATIONS[key] = _Presentation(generators, algebra)
    return pres


def baer_test(ideal: HomIdeal, shift: int, target: GradedModule) -> BaerVerdict:
    """Do all graded maps Sigma^shift(ideal) -> target extend over the algebra?

    The target is a single module; build coproducts first for multi-summand
    questions (extension over a finite direct sum holds iff it holds in
    every summand).

    Precondition: the target is a module, or at least its action
    composes on every pair (Sq(2^k), c) of a square and a basis monomial
    in the window: action(Sq(2^k) c) = action(Sq(2^k)) action(c).  That
    is the first pass of ``GradedModule.validate``, and every module the
    library builds satisfies it.  Under it, the constraints of a relation
    Sq(2^k) * rho are combinations of rho's, so at each degree only the
    rows of ``_minimal_relations`` are imposed and the constraint row
    space is the one the full relation space gives.

    Everything that depends on the ideal and the algebra alone is read
    from their one presentation in ``_PRESENTATIONS`` (``_presentation``),
    fetched once per call: the generators' degrees and coordinates, and
    the relation and minimal rows of each degree, computed on their first
    read and kept for every later test.  Dimensions inside the target's
    window are read from ``target.dims``; ``dim`` is consulted only past
    an edge.

    The restrictions y -> (g_i y)_i of the elements y of target degree
    shift span the column space of the generators' action matrices on
    that degree, stacked; a generator's matrix is the XOR of its terms'
    action rows.  Only its dimension, the rank of the stacked rows,
    enters the verdict: the size of a pivot table they are inserted into
    (``_f2pure.insert``).  The space itself, the canonical span of the
    stacked matrix's columns, is built only for a failing map's witness.

    The degree loop visits the relation degrees e from
    max(min |g_i|, window.lo - shift) up, and only those where the
    target is nonzero at shift + e.  Starting at the window's bottom
    skips nothing: shift + min |g_i| passed the value-degree check, so a
    lower shift + e lies below an exact bottom edge, where the target is
    0.  For the same reason every degree the minimal-presentation
    argument uses is known.  A degree with no relations imposes nothing.

    The constraints of relation degree e are assembled by one kernel
    product: the relation rows times one wide row per relation column, in
    which that column's action rows on the target sit side by side, each
    shifted to its generator's block; a column no row uses is not read.
    Cutting the product rows into pieces of the map-space width gives one
    constraint per (relation, target row).  Each is inserted into one
    pivot table (``_f2pure.insert``), so no row is reduced twice and the
    rank of the constraints is the size of the table.  The rank
    never passes total - ext_dim, as every restriction satisfies every
    constraint, so the loop stops as soon as it gets there, at the first
    visited degree that has relations; the minimal rows of a degree are
    computed only while the rank is short of it.
    """
    algebra = target.algebra
    pres = _presentation(ideal.generators, algebra)
    lo, hi = target.window.lo, target.window.hi
    dims = target.dims

    gen_info = []  # (degree, value dim, offset)
    total = 0
    for gd, _ in pres.gens:
        d = shift + gd
        td = dims[d] if lo <= d <= hi else target.dim(d)
        if td is None:
            return BaerVerdict(INCONCLUSIVE, 0, 0, False,
                               f"value degree {d} leaves the window")
        gen_info.append((gd, td, total))
        total += td

    # restriction space: images of y in C^shift under y -> (g_i y)_i, the
    # column space of the generators' action matrices stacked
    sd = dims[shift] if lo <= shift <= hi else target.dim(shift)
    if sd is None:
        return BaerVerdict(INCONCLUSIVE, 0, 0, False,
                           "restriction source degree leaves the window")
    restr: list[int] = []
    if sd:
        for terms, (_, td, _) in zip(pres.terms, gen_info):
            if td:
                rows = target.action(terms[0], shift).rows
                for t in terms[1:]:
                    rows = [a ^ b for a, b in
                            zip(rows, target.action(t, shift).rows)]
                restr.extend(rows)
    ranked: dict[int, int] = {}
    for v in restr:
        insert(ranked, v)
    ext_dim = len(ranked)

    window_cap = hi - shift
    alg_top = algebra.top_degree()
    rel_cap = None if alg_top is None else alg_top + pres.max_gd

    # the constraint system in echelon form, each row keyed by its lowest
    # set bit; its rank determines the surviving map-space dimension
    # without materializing a basis
    pivots: dict[int, int] = {}
    goal = total - ext_dim  # the rank at which the map space is pinned
    mask = (1 << total) - 1
    last = window_cap if rel_cap is None else min(window_cap, rel_cap)
    done_note = None
    for e in range(max(pres.min_gd, lo - shift), last + 1):
        if not dims[shift + e]:
            continue
        rel_rows, layout = pres._relations_at(e)
        if not rel_rows:
            continue
        rows = pres._minimal_at(e) if len(pivots) < goal else ()
        if rows:
            # constraint row (relation rho, output row r): the XOR over the
            # set bits c of rho of row r of c's action, shifted to c's
            # generator block.  Column c's action rows are packed into one
            # wide int, row r at bits r * total, so a single product yields
            # every output row of every relation.
            used = 0
            for v in rows:
                used |= v
            packed = [0] * len(layout)
            while used:
                low = used & -used
                used ^= low
                c = low.bit_length() - 1
                gi, j = layout[c]
                gd, _, off = gen_info[gi]
                acc = 0
                for v in reversed(target.action(algebra.basis(e - gd)[j],
                                                shift + gd).rows):
                    acc = (acc << total) | v
                packed[c] = acc << off
            for v in mul_rows(rows, packed):
                while v:
                    insert(pivots, v & mask)
                    v >>= total
                if len(pivots) == goal:
                    break
        if len(pivots) == goal:
            done_note = (f"map space pinned to restrictions by "
                         f"relations of degree <= {e}")
            break
    hom_dim = total - len(pivots)
    if done_note is not None:
        return BaerVerdict(EXTENDS_ALL, hom_dim, ext_dim, True, done_note)
    # relations of degree past the window impose unseen constraints unless
    # the target is zero there
    complete = target.top_exact or (rel_cap is not None
                                    and rel_cap <= window_cap)
    if hom_dim == ext_dim:
        return BaerVerdict(EXTENDS_ALL, hom_dim, ext_dim, complete,
                           "all visible maps are restrictions")
    status = FAILS if complete else INCONCLUSIVE
    witness = None
    if status == FAILS:
        # the kernel's basis is canonical, whatever form the rows are in
        sol = kernel(list(pivots.values()), total)
        ext_space = Subspace.from_vectors(transpose(restr, sd), total)
        for v in sol.basis:
            if not ext_space.contains(v):
                witness = tuple((gd, shift + gd, (v >> off) & ((1 << td) - 1))
                                for gd, td, off in gen_info)
                break
    note = ("a visible map admits no extension" if status == FAILS else
            "map space exceeds restrictions but some relations leave the window")
    return BaerVerdict(status, hom_dim, ext_dim, complete, note, witness)


# -- witness construction ------------------------------------------------------


class Witness:
    """The chain map r -> (r x_0, ..., r x_K) and its extension verdict.

    degree_function holds d(n) in stage order, x_n having degree -d(n);
    choices holds each x_n as (degree, coordinate mask in M).
    """

    __slots__ = ("degree_function", "choices", "forced_stages",
                 "stage_witnesses", "extension_fails", "note")

    def __init__(self, degree_function: tuple[int, ...],
                 choices: list[tuple[int, int]], forced_stages: list[int],
                 stage_witnesses: dict[int, str], extension_fails: bool,
                 note: str):
        self.degree_function = degree_function
        self.choices = choices
        self.forced_stages = forced_stages
        self.stage_witnesses = stage_witnesses
        self.extension_fails = extension_fails
        self.note = note

    __eq__ = fields_equal


def track_destabilizing_degrees(profile: PerpProfile) -> tuple[int, ...]:
    """Suspension degrees d(n) following where each stage's perp moves.

    Stage n below the last uses the certified degree closest to zero where
    the perp drops from stage n to n+1 (so x_n at that degree can be chosen
    outside the next perp); the last stage uses the first lower degree
    where its perp is nonzero.  Returned as d(n) in stage order, with x_n
    of degree -d(n).
    """
    K = profile.num_stages - 1
    degrees: list[int] = []
    for n in range(K):
        cands = [d for d in profile.window
                 if profile.certified[d]
                 and profile.stages[d][n] != profile.stages[d][n + 1]]
        if not cands:
            raise ValueError(f"no certified destabilizing degree for stage {n}")
        degrees.append(max(cands))
    prev = degrees[-1] if degrees else profile.window.hi + 1
    cands = [d for d in profile.window
             if profile.certified[d] and d < prev
             and profile.stages[d][K].dim > 0]
    if not cands:
        raise ValueError("no admissible degree for the final stage")
    degrees.append(max(cands))
    return tuple(-d for d in degrees)


def build_witness(chain: IdealChain, m: GradedModule,
                  degree_function: Optional[Sequence[int]] = None,
                  prefer_stable: bool = False,
                  profile: Optional[PerpProfile] = None) -> Witness:
    """Choose x_n in the stage-n perp per stage and analyze the extension.

    x_n is homogeneous of degree -d(n); by default it is chosen outside the
    union's perp when possible (the destabilizing choice that drives the
    obstruction), while prefer_stable picks inside the union's perp when
    possible (the choice available to bounded families).  The assembled map
    on the union ideal into the coproduct of components Sigma^d(n) M
    lands in the direct sum and extends componentwise via y_n = x_n, so a
    plain extension always exists for a finite chain; the reported failure
    means every extension is forced to full support across the
    destabilized stages, the finite-chain image of the unbounded-chain
    non-extension.  Whether that failure refutes a bounded-family flag is a
    question for the profile trend, which the classifier reads.
    degree_function gives d(n) for each stage, in stage order; by default
    ``track_destabilizing_degrees`` derives it from the profile.  profile,
    when given, is the chain's perp profile in m, which is then not
    computed again.
    """
    profile = _profile_for(chain, m, profile)
    K = len(chain.stages) - 1
    union = chain.stages[-1]

    dvals = (track_destabilizing_degrees(profile) if degree_function is None
             else tuple(degree_function))
    if len(dvals) != K + 1:
        raise ValueError("degree function must supply one value per stage")

    choices: list[tuple[int, int]] = []
    forced: list[int] = []
    stage_witnesses: dict[int, str] = {}
    for n, dn in enumerate(dvals):
        deg = -dn
        if deg not in m.window:
            raise ValueError(f"stage {n}: required degree {deg} leaves the window")
        if not profile.certified[deg]:
            raise ValueError(f"stage {n}: perp at degree {deg} is uncertified")
        stage_perp = profile.stages[deg][n]
        union_perp = profile.stages[deg][K]
        if stage_perp.dim == 0:
            raise ValueError(
                f"stage {n}: no nonzero perp element at degree {deg}")
        if prefer_stable and union_perp.dim > 0:
            pick = union_perp.basis[0]
        else:
            pick = None
            for v in stage_perp.basis:
                if not union_perp.contains(v):
                    pick = v
                    break
            if pick is None:
                pick = stage_perp.basis[0]
        if n < K and not union_perp.contains(pick):
            forced.append(n)
            stage_witnesses[n] = _union_killer_witness(union, m, deg, pick)
        choices.append((deg, pick))

    fails = all(n in forced for n in range(K))
    note = (
        "every extension is nonzero in each destabilized stage component; no "
        "extension of bounded support exists as stages grow with the window"
        if fails else
        "some stage admits a union-stable choice; the witness map extends "
        "with support below the last stage")
    return Witness(dvals, choices, forced, stage_witnesses, fails, note)


def _union_killer_witness(union: HomIdeal, m: GradedModule, deg: int,
                          vec: int) -> str:
    """Name a union generator that moves vec, which lies outside the
    union's perp at a certified degree.  That perp is the kernel of the
    stacked generator actions, so if none moves vec the profile is not m's.
    """
    for g in union.generators:
        if m.dim(deg + g.degree()) is None:
            continue
        if m.action_of(g, deg).apply(vec):
            return (f"{g} moves the choice at degree {deg} "
                    f"(nonzero image in degree {deg + g.degree()})")
    raise ValueError(f"no union generator moves the choice at degree {deg}: "
                     f"the perp profile does not belong to the module")
