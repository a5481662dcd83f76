"""Built-in scenario runs: each reproduces one concrete claim about the
algebra and its dual regular module on a bounded window, prints the data
it certified, and exits 0 only when every expectation of the scenario is
met by the computation (1 = a computed counterexample to the expectation,
2 = inconclusive at the window edge).

Reports are deterministic given (configuration, seed): catalogs are fixed
or seeded, iteration orders sorted, and every claim is stated next to the
degree range it was certified on.
"""

from __future__ import annotations

from typing import Optional

from . import catalogs
from .annihilator import chain_perp_profile, classify_sigma, sq_power_chain
from .baer import baer_test, build_witness
from .comodule import (ExtendedSpec, _coassociativity_messages, extended,
                       iota, iota_matches_suspended_duals)
from .gmodule import Window, dual_regular, free_module, freeness_test, regular
from .milnor import Algebra

OK = "ok"
COUNTEREXAMPLE = "counterexample-to-expectation"
INCONCLUSIVE = "inconclusive"

EXIT_CODES = {OK: 0, COUNTEREXAMPLE: 1, INCONCLUSIVE: 2}


class Report:
    __slots__ = ("scenario", "claim", "status", "lines")

    def __init__(self, scenario: str, claim: str, status: str = OK,
                 lines: Optional[list[tuple[str, str]]] = None):
        self.scenario = scenario
        self.claim = claim
        self.status = status
        self.lines = [] if lines is None else lines

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def expect(self, name: str, holds: bool, detail: str = "") -> None:
        if holds:
            value = "met"
        else:
            value = "NOT-MET" + (f" ({detail})" if detail else "")
        self.add(f"expect.{name}", value)
        if not holds and self.status == OK:
            self.status = COUNTEREXAMPLE

    def mark_inconclusive(self, detail: str) -> None:
        self.add("inconclusive", detail)
        if self.status == OK:
            self.status = INCONCLUSIVE


class ScenarioConfig:
    __slots__ = ("window", "subalgebra", "stages", "seed", "max_degree")

    def __init__(self, window: Optional[Window] = None,
                 subalgebra: Optional[int] = None, stages: int = 4,
                 seed: int = 0, max_degree: int = 24):
        self.window = window
        self.subalgebra = subalgebra
        self.stages = stages
        self.seed = seed
        self.max_degree = max_degree


def run_dims(cfg: ScenarioConfig) -> Report:
    rep = Report("dims", "basis dimension tables for the algebra and its "
                         "finite subalgebras")
    full = Algebra.full()
    dmax = cfg.max_degree
    for d in range(dmax + 1):
        rep.add(f"dim.full.{d}", full.dim(d))
    for n in range(0, 4):
        sub = Algebra.subalgebra(n)
        top = sub.top_degree()
        total = sum(sub.dim(d) for d in range(top + 1))
        rep.add(f"subalgebra.{n}.top_degree", top)
        rep.add(f"subalgebra.{n}.total_dim", total)
    return rep


def run_prop_3_1(cfg: ScenarioConfig) -> Report:
    rep = Report(
        "prop-3-1",
        "the dual regular module admits an ascending chain of homogeneous "
        "left ideals whose degreewise annihilator chain has no uniform "
        "stabilization bound on the window, and the tracked witness map "
        "forces full extension support")
    window = cfg.window or Window(-30, 0)
    chain = sq_power_chain(cfg.stages)
    rep.add("window", window)
    rep.add("chain", chain)
    module = dual_regular(Algebra.full(), window)

    prof = chain_perp_profile(chain, module)
    for d in sorted(prof.window):
        dims = "/".join(str(prof.stages[d][i].dim) for i in range(prof.num_stages))
        cert = "certified" if prof.certified[d] else "uncertified"
        rep.add(f"perp.{d}", f"dims {dims} ell {prof.ell[d]} {cert}")

    certified = prof.certified_degrees()
    rep.expect("all-degrees-certified", len(certified) == len(list(window)))
    rep.expect("stabilization-indices-bounded",
               all(prof.ell[d] <= prof.num_stages for d in certified))
    for t in range(cfg.stages):
        deeper = [d for d in certified if prof.ell[d] > t]
        rep.add(f"deeper-than.{t}", max(deeper) if deeper else "none")
        rep.expect(f"movement-past-stage-{t}", bool(deeper))

    w = build_witness(chain, module, profile=prof)
    rep.add("witness.degree-function", list(w.degree_function))
    for n, (deg, mask) in enumerate(w.choices):
        rep.add(f"witness.choice.{n}", f"degree {deg} coords {mask:x}")
    for n in sorted(w.stage_witnesses):
        rep.add(f"witness.destabilizer.{n}", w.stage_witnesses[n])
    rep.add("witness.forced-stages", w.forced_stages)
    rep.add("witness.note", w.note)
    rep.expect("witness-extension-fails", w.extension_fails)

    flags = classify_sigma(module, [chain], [prof])
    for name, verdict in sorted(flags.items()):
        rep.add(f"classify.{name}", verdict)
    rep.expect("bounded-abovely-evidence",
               flags["bounded_abovely"] == "evidence_holds")
    rep.expect("bounded-belowly-counterexample",
               flags["bounded_belowly"] == "counterexample")
    return rep


def run_cor_2_6(cfg: ScenarioConfig) -> Report:
    rep = Report(
        "cor-2-6",
        "bounded-below coproducts of suspended copies of the regular module "
        "pass every extension test in the structured ideal catalog")
    window = cfg.window or Window(0, 24)
    pad = 8
    rep.add("window", window)
    rep.add("seed", cfg.seed)
    full = Algebra.full()
    base = regular(full, Window(window.lo, window.hi + pad))
    ideals = catalogs.structured_ideal_catalog(full, cfg.seed)
    rep.add("catalog-size", len(ideals))

    shift_families = [(0,), (0, 0), (0, 8), (0, 2, 5), (1, 3), (0, 2, 4, 8),
                      (8, 8), (0, 1, 2, 3)]
    t_range = range(-9, window.hi + 1)
    single: dict[tuple[int, int], str] = {}
    worst = "extends_all"
    for ii, idl in enumerate(ideals):
        for t in t_range:
            v = baer_test(idl, -t, base)
            single[(ii, t)] = v.status
            if v.status != "extends_all":
                worst = v.status
                rep.add(f"non-extension.{ii}.{t}", f"{idl} status {v.status}")
    rep.add("single-summand-runs", len(single))
    rep.expect("all-single-summand-extend",
               all(s == "extends_all" for s in single.values()))

    # coproduct verdicts decompose over summands; run a few directly as a
    # cross-check of the block machinery
    checked = 0
    agree = True
    for fam in shift_families[:4]:
        cop = free_module(fam, full,
                          Window(window.lo, window.hi + pad))
        for ii, idl in enumerate(ideals[:4]):
            for m_shift in (0, 3):
                v = baer_test(idl, m_shift, cop)
                expected = all(
                    single.get((ii, s - m_shift), "extends_all") == "extends_all"
                    for s in fam)
                agree = agree and (v.passed == expected)
                checked += 1
    rep.add("direct-coproduct-crosschecks", checked)
    rep.expect("coproduct-decomposition-agrees", agree)
    rep.add("families", "; ".join(str(list(f)) for f in shift_families))
    rep.expect("no-failures", worst == "extends_all")
    return rep


def run_faith_equiv_a1(cfg: ScenarioConfig) -> Report:
    rep = Report(
        "faith-equiv-a1",
        "over the smallest nontrivial finite subalgebra, a module of the "
        "corpus passes every extension test against the exhaustive ideal "
        "catalog if and only if it is free")
    ideals = catalogs.all_a1_ideals()
    corpus = catalogs.a1_module_corpus()
    rep.add("ideal-catalog-size", len(ideals))
    rep.add("corpus-size", len(corpus))
    disagreements = 0
    for name, module in corpus:
        fr = freeness_test(module)
        all_extend = True
        witness = ""
        for idl in ideals:
            for shift in range(module.window.lo - 6, module.window.hi + 1):
                v = baer_test(idl, shift, module)
                if v.status != "extends_all":
                    all_extend = False
                    witness = f"{idl} shift {shift} {v.status}"
                    break
            if not all_extend:
                break
        agree = (fr.status == "free") == all_extend
        if not agree:
            disagreements += 1
        detail = "extends-all" if all_extend else witness
        rep.add(f"module.{name}", f"freeness {fr.status}; baer {detail}; "
                                  f"{'agree' if agree else 'DISAGREE'}")
    rep.add("disagreements", disagreements)
    rep.expect("zero-disagreements", disagreements == 0)
    return rep


def run_iota_bounded_above(cfg: ScenarioConfig) -> Report:
    rep = Report(
        "iota-bounded-above",
        "the adjoint-action embedding sends a bounded-above extended "
        "comodule to a module identical to the matching coproduct of "
        "suspended dual regular modules, free over the finite subalgebra")
    window = cfg.window or Window(-20, 0)
    n = cfg.subalgebra if cfg.subalgebra is not None else 1
    v = ExtendedSpec({0: 1, -2: 1})
    rep.add("window", window)
    rep.add("v-dims", dict(v.v_dims))
    full = Algebra.full()
    module = iota(extended(v, full, window))
    # coassociativity is the composition check of the module, its failures
    # regrouped, so one run of the check decides both
    failures = module._failing_compositions()
    bad = _coassociativity_messages(failures)
    rep.expect("coaction-valid", not bad, "; ".join(bad[:2]))
    rep.expect("module-valid", not failures)
    rep.expect("bit-identical-to-suspended-duals",
               iota_matches_suspended_duals(module, v))
    verdict = freeness_test(module, Algebra.subalgebra(n))
    rep.add("freeness", verdict.status)
    rep.add("generator-degrees", dict(sorted(verdict.generator_degrees.items())))
    rep.expect("free-over-subalgebra", verdict.is_free)
    if verdict.status == "window_inconclusive":
        rep.mark_inconclusive(verdict.witness or "freeness window too small")
    return rep


def run_iota_failure(cfg: ScenarioConfig) -> Report:
    rep = Report(
        "iota-failure",
        "an extended comodule whose generators run to the lower window edge "
        "embeds as a coproduct of suspended dual regular modules inheriting "
        "the unbounded annihilator destabilization, so the tracked witness "
        "map forces full extension support")
    window = cfg.window or Window(-30, 0)
    rep.add("window", window)
    v = ExtendedSpec({-7 * k: 1 for k in range(4)})
    rep.add("v-dims", dict(v.v_dims))
    full = Algebra.full()
    com = extended(v, full, window)
    module = iota(com)
    rep.expect("bit-identical-to-suspended-duals",
               iota_matches_suspended_duals(module, v))

    chain = sq_power_chain(cfg.stages)
    rep.add("chain", chain)
    prof = chain_perp_profile(chain, module)
    w = build_witness(chain, module, profile=prof)
    rep.add("witness.degree-function", list(w.degree_function))
    rep.add("witness.forced-stages", w.forced_stages)
    for n in sorted(w.stage_witnesses):
        rep.add(f"witness.destabilizer.{n}", w.stage_witnesses[n])
    rep.expect("witness-extension-fails", w.extension_fails)

    flags = classify_sigma(module, [chain], [prof])
    for name, verdict in sorted(flags.items()):
        rep.add(f"classify.{name}", verdict)
    rep.expect("bounded-belowly-counterexample",
               flags["bounded_belowly"] == "counterexample")
    return rep


SCENARIOS = {
    "dims": run_dims,
    "prop-3-1": run_prop_3_1,
    "cor-2-6": run_cor_2_6,
    "faith-equiv-a1": run_faith_equiv_a1,
    "iota-bounded-above": run_iota_bounded_above,
    "iota-failure": run_iota_failure,
}

# the ScenarioConfig fields each scenario reads; the CLI refuses the others
READS = {
    "dims": ("max_degree",),
    "prop-3-1": ("window", "stages"),
    "cor-2-6": ("window", "seed"),
    "faith-equiv-a1": (),
    "iota-bounded-above": ("window", "subalgebra"),
    "iota-failure": ("window", "stages"),
}


def run_scenario(name: str, cfg: ScenarioConfig) -> Report:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(available: {', '.join(sorted(SCENARIOS))})")
    return SCENARIOS[name](cfg)


def render_text(rep: Report) -> str:
    out = [f"scenario: {rep.scenario}",
           f"claim: {rep.claim}",
           f"status: {rep.status}"]
    out.extend(f"  {k} = {v}" for k, v in rep.lines)
    return "\n".join(out) + "\n"


def render_structured(rep: Report) -> str:
    out = ["schema steenmod.report/1",
           f"scenario {rep.scenario}",
           f"status {rep.status}"]
    out.extend(f"{k} {v}" for k, v in rep.lines)
    return "\n".join(out) + "\n"
