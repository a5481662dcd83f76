"""Annihilator (perp) computations and the suspension-injectivity classifier.

For a set X of homogeneous algebra elements and a module M, X-perp is the
degreewise kernel of the joint action; for a set Y of module elements,
Y-perp is the degreewise space of algebra elements killing all of Y.  An
ascending chain of homogeneous left ideals induces, in every module degree,
a descending chain of perp subspaces whose stabilization record drives the
classifier.

Chains are finite lists, so "eventually constant" is evaluated as
"constant over the supplied tail": the stabilization index l(d) is the
last stage at which the perp still moves, with the convention that a move
at the final supplied stage reports l(d) = number of stages (no
stabilization was witnessed at d).  Evidence verdicts are therefore open
to revision by longer chains; a counterexample verdict rests only on
certified degrees.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import milnor
from ._f2pure import column_kernel, transpose
from ._records import fields_equal, fields_hash
from .f2 import Subspace, kernel, mul_rows
from .gmodule import GradedModule, Window
from .milnor import Algebra, Element


class HomIdeal:
    """A left ideal given by finitely many homogeneous generators."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[Element]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("ideal has an empty generator list")
        for g in gens:
            if g.is_zero() or not g.is_homogeneous():
                raise ValueError("ideal generators must be nonzero homogeneous")
        self.generators = gens

    __eq__ = fields_equal
    __hash__ = fields_hash

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree() for g in self.generators)

    def max_generator_degree(self) -> int:
        return max(self.generator_degrees())

    def __str__(self) -> str:
        return "[" + ",".join(str(g) for g in self.generators) + "]"


class IdealChain:
    __slots__ = ("stages",)

    def __init__(self, stages: Iterable[HomIdeal]):
        st = tuple(stages)
        if not st:
            raise ValueError("empty chain")
        self.stages = st

    __eq__ = fields_equal
    __hash__ = fields_hash

    def __len__(self) -> int:
        return len(self.stages)

    def __str__(self) -> str:
        return "chain: " + " ; ".join(str(s) for s in self.stages)


def sq_power_chain(count: int) -> IdealChain:
    """(Sq(1)) <= (Sq(1),Sq(2)) <= (Sq(1),Sq(2),Sq(4)) <= ... with `count` stages."""
    if count < 1:
        raise ValueError("need at least one stage")
    stages = []
    for t in range(count):
        gens = [Element.sq(1 << j) for j in range(t + 1)]
        stages.append(HomIdeal(gens))
    return IdealChain(stages)


class WindowIdeal:
    """A homogeneous left ideal recorded degreewise on a window.

    Only the provided degrees are recorded; a degree absent from `spaces`
    is *unknown* (typically uncertified), not zero, and asking for it is an
    error.  Negative degrees are vacuously zero.
    """

    __slots__ = ("algebra", "window", "spaces")

    def __init__(self, algebra: Algebra, window: Window,
                 spaces: dict[int, Subspace]):
        self.algebra = algebra
        self.window = window
        self.spaces = {}
        for d, sp in spaces.items():
            if d not in window or d < 0:
                continue
            if sp.ambient_dim != algebra.dim(d):
                raise ValueError(f"wrong ambient dimension at degree {d}")
            self.spaces[d] = sp

    def space(self, d: int) -> Subspace:
        if d in self.spaces:
            return self.spaces[d]
        if d < 0:
            return Subspace.zero(0)
        raise ValueError(f"degree {d} is not recorded (uncertified or outside "
                         f"the window)")

    def dim(self, d: int) -> int:
        return self.space(d).dim

    def contains_element(self, e: Element) -> bool:
        d = e.degree()
        if d is None:
            raise ValueError("need a homogeneous element")
        return self.space(d).contains(milnor.coords_of(e, d, self.algebra))


def ideal_span(ideal: HomIdeal, algebra: Algebra, window: Window) -> WindowIdeal:
    """Degreewise span of {b * g : g generator, b basis monomial}."""
    spaces: dict[int, Subspace] = {}
    for d in window:
        if d < 0:
            continue
        vectors: list[int] = []
        for g in ideal.generators:
            e = g.degree()
            if e > d:
                continue
            vectors.extend(
                milnor.right_multiplication(g, d - e, algebra).rows)
        spaces[d] = Subspace.from_vectors(vectors, algebra.dim(d))
    return WindowIdeal(algebra, window, spaces)


class PerpProfile:
    """Per-degree descending perp subspaces of a chain, with stabilization data.

    l(d) is 0 when the observed chain never moves at d, the index of the
    last observed move otherwise, and num_stages when the final pair still
    moves (stability unwitnessed at d).  A degree is certified when every
    generator action needed at d was representable.
    """

    __slots__ = ("window", "num_stages", "stages", "ell", "certified")

    def __init__(self, window: Window, num_stages: int,
                 stages: dict[int, list[Subspace]], ell: dict[int, int],
                 certified: dict[int, bool]):
        self.window = window
        self.num_stages = num_stages
        self.stages = stages
        self.ell = ell
        self.certified = certified

    __eq__ = fields_equal

    def certified_degrees(self) -> list[int]:
        return [d for d in self.window if self.certified[d]]


def _stage_perp(ideal: HomIdeal, m: GradedModule, d: int,
                prev: Optional[tuple[HomIdeal, Subspace, bool]] = None
                ) -> tuple[Subspace, bool]:
    """Perp subspace of one ideal at a window degree d of m, with certified
    flag: the kernel of every generator whose target degree is known.

    prev, when given, is the previous stage's (ideal, perp, certified) at
    d.  When its generators are among this ideal's, only the new ones are
    imposed, on its perp: one product of their stacked action rows with
    the transposed perp basis gives, per target coordinate, which basis
    vectors reach it; the kernel of that product picks the combinations of
    basis vectors that every new generator kills, and XORing those basis
    vectors back together gives the perp.  A generator is skipped,
    and the degree uncertified, exactly when its target is unknown, so
    this equals the kernel of all the stacked blocks, and so does the flag.
    Otherwise every generator's block is stacked against the full basis.
    """
    n = m.dims[d]
    gens = ideal.generators
    base, certified = None, True
    if prev is not None:
        old = set(prev[0].generators)
        if old <= set(gens):
            gens = [g for g in gens if g not in old]
            _, base, certified = prev
    rows: list[int] = []
    for g in gens:
        if m.dim(d + g.degree()) is None:
            certified = False
            continue
        rows.extend(m.action_of(g, d).rows)
    if base is None:
        if not rows:
            return Subspace.full(n), certified
        return kernel(rows, n), certified
    basis = base.basis
    if not rows or not basis:
        return base, certified
    reach = mul_rows(rows, transpose(basis, n))
    keep = kernel(reach, len(basis)).basis
    return Subspace.from_vectors(mul_rows(keep, basis), n), certified


def verify_ascending(chain: IdealChain, algebra: Algebra, window: Window) -> Optional[str]:
    """None when each stage's generators lie in the next stage's span;
    otherwise a message naming the first offending generator.  The window
    must reach the degree of every generator."""
    for t, later in enumerate(chain.stages[1:]):
        span = ideal_span(later, algebra, window)
        for g in chain.stages[t].generators:
            if not span.contains_element(g):
                return (f"stage {t} generator {g} is not in stage {t + 1} "
                        f"(checked degreewise on {window})")
    return None


def chain_perp_profile(chain: IdealChain, m: GradedModule) -> PerpProfile:
    """Descending perp chains per degree, stabilization indices, certification.

    ``_stage_perp`` computes each (stage, degree) once.  A stage whose
    generators include the previous stage's imposes only its new
    generators on the previous stage's perp; otherwise, and at the first
    stage, it stacks every generator's block.  Both give the same
    canonical subspace and flag, and the descent of every pair of stages
    is asserted (Galois antitonicity).
    """
    span_hi = max(st.max_generator_degree() for st in chain.stages)
    msg = verify_ascending(chain, m.algebra, Window(0, span_hi))
    if msg:
        raise ValueError(f"chain is not ascending: {msg}")
    num = len(chain.stages)
    stages: dict[int, list[Subspace]] = {}
    ell: dict[int, int] = {}
    certified: dict[int, bool] = {}
    for d in m.window:
        per_stage: list[Subspace] = []
        cert = True
        prev = None
        for ideal in chain.stages:
            sp, c = _stage_perp(ideal, m, d, prev)
            prev = ideal, sp, c
            cert = cert and c
            per_stage.append(sp)
        for i in range(1, num):
            if not per_stage[i - 1].contains_subspace(per_stage[i]):
                raise AssertionError(
                    f"perp chain not descending at degree {d} (Galois antitonicity)")
        moves = [i for i in range(1, num) if per_stage[i - 1] != per_stage[i]]
        if not moves:
            val = 0
        elif moves[-1] == num - 1:
            val = num  # still moving at the last supplied stage
        else:
            val = moves[-1]
        stages[d] = per_stage
        ell[d] = val
        certified[d] = cert
    return PerpProfile(m.window, num, stages, ell, certified)


def _profile_for(chain: IdealChain, m: GradedModule,
                 profile: Optional[PerpProfile]) -> PerpProfile:
    """The chain's perp profile in m: computed when profile is None, else
    the given one, which must cover m's window with one stage per stage
    of the chain."""
    if profile is None:
        return chain_perp_profile(chain, m)
    if profile.window != m.window or profile.num_stages != len(chain):
        raise ValueError(
            f"profile covers {profile.window} with {profile.num_stages} "
            f"stages; the module window is {m.window} and the chain has "
            f"{len(chain)} stages")
    return profile


def perp_subset_in_algebra(elements: Sequence[tuple[int, int]],
                           m: GradedModule) -> WindowIdeal:
    """Degreewise annihilator in the algebra of a set of module elements.

    elements are (degree, coordinate mask) pairs in m's bases.  Result at
    algebra degree k is {r in A^k : r y = 0 for all y}, certified where all
    the targets are representable; uncertified degrees are omitted.  An
    element whose mask does not fit the module's known dimension at its
    degree is refused.
    """
    for dy, vy in elements:
        n = m.dim(dy)
        if n is not None and (vy < 0 or vy >> n):
            raise ValueError(f"element at degree {dy} does not fit the "
                             f"module, whose dimension there is {n}")
    algebra = m.algebra
    kmax = m.window.width
    spaces: dict[int, Subspace] = {}
    for k in range(0, kmax + 1):
        basis_k = algebra.basis(k)
        if not basis_k or any(m.dim(dy) is None or m.dim(dy + k) is None
                              for dy, _ in elements):
            continue
        # column of b in A^k: the coordinates of b y for every element y,
        # each element's part shifted to its own rows
        cols = [0] * len(basis_k)
        nrows = 0
        for dy, vy in elements:
            for i, seq in enumerate(basis_k):
                cols[i] |= m.action(seq, dy).apply(vy) << nrows
            nrows += m.dim(dy + k)
        spaces[k] = Subspace(len(basis_k), column_kernel(cols, nrows))
    out = WindowIdeal(algebra, Window(0, kmax), spaces)
    _check_left_ideal(out, kmax)
    return out


def _check_left_ideal(wi: WindowIdeal, kmax: int) -> None:
    """Closure of the degreewise family under left multiplication: every
    b * r with r in the family must land back in it."""
    for k, sp in wi.spaces.items():
        for v in sp.basis:
            for j in range(1, kmax - k + 1):
                if k + j not in wi.spaces:
                    continue
                r = milnor.element_from_coords(v, k, wi.algebra)
                mm = milnor.right_multiplication(r, j, wi.algebra)
                for col in mm.rows:
                    if not wi.spaces[k + j].contains(col):
                        raise AssertionError(
                            f"annihilator not a left ideal at degree {k + j}")


# -- classifier ---------------------------------------------------------------


VERDICT_EVIDENCE = "evidence_holds"
VERDICT_COUNTER = "counterexample"
VERDICT_INCONCLUSIVE = "inconclusive"

FAMILIES = ("strictly", "unboundedly", "bounded_abovely", "bounded_belowly",
            "finite_sets")


def _moves_past_every_bound(profiles: Sequence[PerpProfile]) -> bool:
    """Whether observed perp movement passes every candidate stage bound:
    for each bound b below the longest chain's length, some certified
    degree of some chain has l(d) > b.  As l(d) never exceeds its chain's
    length, that holds exactly when a longest chain still moves at its
    last supplied stage at some certified degree."""
    longest = max((p.num_stages for p in profiles), default=0)
    return any(p.certified[d] and p.ell[d] == longest
               for p in profiles for d in p.window)


def classify_sigma(m: GradedModule, chains: Sequence[IdealChain],
                   profiles: Optional[Sequence[PerpProfile]] = None
                   ) -> dict[str, str]:
    """Evaluate the taxonomy against a chain catalog on the module's window.

    Returns the verdict of each suspension family (``strictly``,
    ``unboundedly``, ``bounded_abovely``, ``bounded_belowly`` and
    ``finite_sets``) on keeping injectivity.  Only counterexamples are
    definitive; evidence verdicts hold for the supplied chain catalog and
    window.

    profiles, when given, holds each chain's perp profile in m, in the
    order of chains, so that a caller who already has them does not pay
    for them twice.

    Structural branch: every degree piece is finite-dimensional, so every
    descending perp chain stabilizes degreewise, which is evidence for the
    strict and finite-set families.  When the module vanishes past one
    window edge, the families bounded away from that edge are effectively
    finite, so stabilization is uniform over them.  Otherwise the observed
    profiles decide: movement at stage depths past every candidate bound
    is a counterexample, uniform stability of every supplied chain on the
    window is (non-definitive) evidence, and anything else is
    inconclusive.  The unbounded family inherits the verdict of an open
    side, and is structural evidence when the module has finite support.

    Over a finite A(n) every family is structural evidence, and the chains
    and profiles are not read: A(n) is finite dimensional, hence
    Noetherian, so coproducts of its injectives are injective (the graded
    Bass-Papp theorem).  Movement at the last supplied stage of a chain
    there says only that the chain was cut short.
    """
    if profiles is None:
        profiles = [None] * len(chains)
    elif len(profiles) != len(chains):
        raise ValueError(f"{len(profiles)} profiles for {len(chains)} chains")
    if not m.algebra.is_full:
        return dict.fromkeys(FAMILIES, VERDICT_EVIDENCE)
    profiles = [_profile_for(c, m, p) for c, p in zip(chains, profiles)]

    if _moves_past_every_bound(profiles):
        open_side = VERDICT_COUNTER
    elif profiles and all(p.ell[d] < p.num_stages
                          for p in profiles for d in p.window
                          if p.certified[d]):
        open_side = VERDICT_EVIDENCE
    else:
        open_side = VERDICT_INCONCLUSIVE
    # bounded-above families probe degrees >= m (paper indexing m - N):
    # effectively finite when the module is bounded above, and dually.
    return {
        "strictly": VERDICT_EVIDENCE,
        "unboundedly": (VERDICT_EVIDENCE if m.top_exact and m.bottom_exact
                        else open_side),
        "bounded_abovely": VERDICT_EVIDENCE if m.top_exact else open_side,
        "bounded_belowly": VERDICT_EVIDENCE if m.bottom_exact else open_side,
        "finite_sets": VERDICT_EVIDENCE,
    }
