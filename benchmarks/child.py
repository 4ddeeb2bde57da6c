"""Work that runs in a fresh interpreter, started by ``run.py``.

    child.py sweep --props roundtrip,commutativity [--trace]
    child.py mix --seed N
    child.py cli-trace --mix FILE --seconds S

Each mode prints one JSON object on its last stdout line and explains any
failed check on stderr.  ``ctrect`` is imported from the ``src`` directory of
the checkout this file sits in, through ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import mix
from spans import Recorder, Summary, install

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden" / "verify-6x6.txt"
MAX_CELLS = MAX_ENTRY = 6
ROOT_SPAN = "workload"

CALL_LAYERS = (
    "tableaux.violations",
    "bijection.rho",
    "bijection.rho_inv",
    "jeu_de_taquin.rectify_k",
    "jeu_de_taquin.rectify_once",
    "jeu_de_taquin.dominant_path",
    "jeu_de_taquin.shifting_entries",
    "ct_rectify.phi",
    "ct_rectify.eviction",
)
MODULE_TOTALS = ("tableaux", "bijection", "jeu_de_taquin", "ct_rectify", "polynomials", "cli")
PER_CALL_US = (
    "tableaux.parse_filling",
    "tableaux.render_filling",
    "ct_rectify.phi_steps",
    "jeu_de_taquin.rectify_k_steps",
    "jeu_de_taquin.evacuate",
)


def _import_ctrect():
    import ctrect

    if SRC.resolve() not in Path(ctrect.__file__).resolve().parents:
        sys.exit(f"ctrect was imported from {ctrect.__file__}, not from {SRC}")
    return ctrect


def golden_reports(text: str) -> dict[str, str]:
    """Property name -> expected ``VerifyReport.render()`` text."""
    blocks = text.rstrip("\n").split("\n\n")
    return {block.split("\n", 1)[0].removeprefix("property: "): block for block in blocks}


def layer_metrics(rec, instances: int) -> tuple[dict[str, float], str | None]:
    """Per-layer figures of one traced repetition, and a complaint if the
    self times do not add up to the traced wall time."""
    s = Summary(rec)
    m: dict[str, float] = {}
    for name in CALL_LAYERS:
        m[f"{name}.calls"] = s.calls.get(name, 0)
        m[f"{name}.self_s"] = s.self_s.get(name, 0.0)
    m["tableaux.violations.calls_per_instance"] = m["tableaux.violations.calls"] / instances
    built = s.counts.get("tableaux.Filling.constructed", 0)
    m["tableaux.Filling.constructed"] = built
    m["tableaux.Filling.per_instance"] = built / instances
    m["polynomials.enumerate.self_s"] = s.self_s.get("polynomials.enumerate", 0.0)
    m["polynomials.enumerate.tableaux"] = s.counts.get("polynomials.enumerate.tableaux", 0)
    hits = s.counts.get("polynomials.enumerate.hits", 0)
    lookups = hits + s.counts.get("polynomials.enumerate.misses", 0)
    m["polynomials.enumerate.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["polynomials.expand.self_s"] = s.self_s.get("polynomials.expand", 0.0)
    for module in MODULE_TOTALS:
        m[f"{module}.self_s"] = s.prefix_self_s(module)
    m["verify.harness.self_s"] = s.prefix_self_s("verify")
    for name in PER_CALL_US:
        durations = s.durations(name)
        m[f"{name}.us_per_call"] = statistics.median(durations) * 1e6 if durations else 0.0
    m["trace.wall_s"] = s.roots_s
    m["trace.unattributed_s"] = s.self_s.get(ROOT_SPAN, 0.0)
    accounted = sum(s.self_s.values())
    problem = None
    if abs(accounted - s.roots_s) > 1e-6 * s.roots_s + 1e-6:
        problem = f"self times add up to {accounted:.6f} s, traced wall time is {s.roots_s:.6f} s"
    return m, problem


def sweep(props: list[str], traced: bool) -> dict:
    _import_ctrect()
    from ctrect.verify import run_property

    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    # the time it spawned this one.
    ready = time.monotonic()
    golden = golden_reports(GOLDEN.read_text(encoding="utf-8"))
    if traced:
        rec = Recorder()
        install(rec)
        span = rec.span
    else:
        span = lambda name: contextlib.nullcontext()  # noqa: E731
    out: dict = {"ready": ready, "properties": {}, "attempted": 0, "failed": 0}
    started = time.perf_counter()
    with span(ROOT_SPAN):
        for prop in props:
            t0 = time.perf_counter()
            with span(f"verify.{prop}"):
                report = run_property(prop, MAX_CELLS, MAX_ENTRY)
            seconds = time.perf_counter() - t0
            out["properties"][prop] = {"instances": report.instances, "seconds": seconds}
            out["attempted"] += report.instances
            out["failed"] += len(report.counterexamples)
            if report.render() != golden.get(prop):
                print(f"{prop}: report differs from the golden:\n{report.render()}", file=sys.stderr)
                out["failed"] += 0 if report.counterexamples else 1
    out["seconds"] = time.perf_counter() - started
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        out["layers"], problem = layer_metrics(rec, out["attempted"])
        if problem:
            print(problem, file=sys.stderr)
            out["failed"] += 1
    return out


def make_mix(seed: int) -> dict:
    _import_ctrect()
    calls, problems = mix.generate(seed)
    for problem in problems:
        print(problem, file=sys.stderr)
    return {"calls": calls, "problems": len(problems)}


def cli_trace(mix_file: Path, seconds: float) -> dict:
    """Alternate untraced and traced in-process passes over the call mix.

    The enumeration caches are cleared before every call, as a fresh
    process would find them."""
    _import_ctrect()
    from ctrect import cli, polynomials

    calls = json.loads(mix_file.read_text(encoding="utf-8"))["calls"]
    caches = (polynomials.enumerate_ssyt, polynomials.enumerate_rssyt, polynomials.enumerate_ct)
    parser_s = []
    for _ in range(21):
        t0 = time.perf_counter()
        cli.build_parser()
        parser_s.append(time.perf_counter() - t0)

    main_s: dict[str, list[float]] = {}
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    traced = False
    while not layers or time.perf_counter() < deadline:
        rec = Recorder() if traced else None
        uninstall = install(rec) if traced else None
        total = 0.0
        with rec.span(ROOT_SPAN) if traced else contextlib.nullcontext():
            for call in calls:
                for cache in caches:
                    cache.cache_clear()
                code, stdout, dt = mix.run_in_process(cli.main, call["argv"], call["stdin"])
                total += dt
                attempted += 1
                if not mix.matches(call, code, stdout):
                    failed += 1
                    print(f"{' '.join(call['argv'])}: output differs from the golden", file=sys.stderr)
                if not traced:
                    main_s.setdefault(call["argv"][0], []).append(dt)
        pass_s[traced].append(total)
        if traced:
            uninstall()
            m, problem = layer_metrics(rec, len(calls))
            layers.append(m)
            if problem:
                print(problem, file=sys.stderr)
                failed += 1
        traced = not traced
    return {
        "layers": {k: statistics.median(p[k] for p in layers) for k in layers[0]},
        "main_us": {cmd: statistics.median(v) * 1e6 for cmd, v in main_s.items()},
        "build_parser_us": statistics.median(parser_s) * 1e6,
        "trace_overhead_ratio": statistics.median(pass_s[False]) / statistics.median(pass_s[True]),
        "passes": len(layers),
        "attempted": attempted,
        "failed": failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--props", required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("mix")
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("cli-trace")
    p.add_argument("--mix", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.mode == "sweep":
        result = sweep(args.props.split(","), args.trace)
    elif args.mode == "mix":
        result = make_mix(args.seed)
    else:
        result = cli_trace(args.mix, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
