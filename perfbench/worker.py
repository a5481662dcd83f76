"""One benchmark worker: a fresh interpreter that runs a job spec.

Usage: python perfbench/worker.py '<json spec>'

The spec's ``mode`` selects what the worker does:

- ``scenarios``: run the ``warm`` scenario jobs once, untimed, then the
  ``jobs`` list ``passes`` times, timing each job and hashing its
  structured report.
- ``write-files``: write the module files the CLI workload reads, and the
  perp dimensions each listed ideal must produce on the dual file.
- ``cli``: run one ``steenmod`` CLI command in this process (used by the
  traced run, so the tracer can be installed first).

With ``trace`` set to a path, the tracer is installed after the imports
(and after the warm pass) and its spans are written to that path at the
end.  The worker's report goes to the ``out`` path as JSON; clock values
are ``time.perf_counter()`` readings, which share one clock across the
processes of a machine.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import steenmod.cli  # noqa: E402
from steenmod import textio  # noqa: E402
from steenmod.annihilator import HomIdeal, ideal_span  # noqa: E402
from steenmod.comodule import ExtendedSpec, extended, iota  # noqa: E402
from steenmod.gmodule import Window, dual_regular, regular  # noqa: E402
from steenmod.milnor import Algebra, parse_element  # noqa: E402
from steenmod.scenarios import (EXIT_CODES, ScenarioConfig,  # noqa: E402
                                render_structured, run_scenario)

T_READY = time.perf_counter()

# The files the CLI workload reads; names are relative to the spec's dir.
CLI_WINDOW = 24
IOTA_SPEC = {0: 1, -2: 1}
IOTA_WINDOW = Window(-20, 0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(name: str, seed: int) -> dict:
    t0 = time.perf_counter()
    rep = run_scenario(name, ScenarioConfig(seed=seed))
    text = render_structured(rep)
    t1 = time.perf_counter()
    return {"name": name, "seed": seed, "t0": t0, "t1": t1,
            "status": rep.status, "exit": EXIT_CODES[rep.status],
            "digest": digest(text),
            "not_met": [k for k, v in rep.lines
                        if k.startswith("expect.") and v != "met"],
            "non_extensions": [v.rsplit(" status ", 1)[-1]
                               for k, v in rep.lines
                               if k.startswith("non-extension.")]}


def parse_ideal(text: str) -> HomIdeal:
    return HomIdeal(parse_element(p) for p in text.split(";") if p.strip())


def write_files(spec: dict) -> dict:
    full = Algebra.full()
    modules = {
        "regular.stm": regular(full, Window(0, CLI_WINDOW)),
        "dual-regular.stm": dual_regular(full, Window(-CLI_WINDOW, 0)),
        "iota.stm": iota(extended(ExtendedSpec(IOTA_SPEC), full, IOTA_WINDOW)),
    }
    for fname, module in modules.items():
        with open(os.path.join(spec["dir"], fname), "w", encoding="utf-8") as fh:
            fh.write(textio.print_module(module))
    # perp of an ideal in the dual regular module at degree d is the
    # annihilator of the ideal's degree -d part: dim A^-d - dim I^-d
    perp_dims = {}
    for text in spec["perp_ideals"]:
        span = ideal_span(parse_ideal(text), full, Window(0, CLI_WINDOW))
        perp_dims[text] = {str(d): full.dim(-d) - span.dim(-d)
                           for d in range(-CLI_WINDOW, 1)}
    return {"perp_dims": perp_dims}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(steenmod.cli.__file__).startswith(src + os.sep):
        print(f"steenmod imported from {steenmod.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    report = {"t_start": T_START, "t_ready": T_READY}
    mode = spec["mode"]
    tracer = None
    exit_code = 0
    if mode == "scenarios":
        report["warm"] = [run_job(n, s) for n, s in spec.get("warm", [])]
        if spec.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        report["passes"] = [[run_job(n, s) for n, s in spec["jobs"]]
                            for _ in range(spec.get("passes", 1))]
    elif mode == "write-files":
        report.update(write_files(spec))
    elif mode == "cli":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            exit_code = steenmod.cli.main(spec["argv"])
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    else:
        print(f"unknown worker mode {mode!r}", file=sys.stderr)
        return 3
    report["t_done"] = time.perf_counter()
    if tracer is not None:
        tracer.dump(spec["trace"])
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
