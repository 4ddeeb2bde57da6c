"""Benchmark of ctrect: exhaustive verify sweeps and single CLI calls.

    python3 benchmarks/run.py --workload sweep-ct --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; ``ctrect`` is imported from its ``src``.
Workloads:

* ``sweep-ct``: ``run_property`` for roundtrip and commutativity at
  max-cells 6, max-entry 6, all k, in a fresh interpreter per repetition;
* ``sweep-rssyt``: lemma41, lemma42, lemma43, dominance and
  schur-identities at the same bounds, likewise;
* ``cli-calls``: a closed loop with one client, running one
  ``python -m ctrect.cli`` process after another over a seeded call mix.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` a separate traced run gives the per-layer metrics.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the sample counts.  Every failed check is explained on
stderr and counted in ``failed``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SWEEPS = {
    "sweep-ct": ("roundtrip", "commutativity"),
    "sweep-rssyt": ("lemma41", "lemma42", "lemma43", "dominance", "schur-identities"),
}
WORKLOADS = (*SWEEPS, "cli-calls")

MIN_CALLS = 100  # the p90 then has at least 10 samples beyond it
SETUP_REPEATS = 5
PROBE_REPEATS = 15
MAX_RUN_S = 160  # hard stop, so that the run exits within 180 s
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ctrect.cli; "
    "print(time.perf_counter() - t)"
)


class Failures:
    """Attempted and failed operations; every failure is explained on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def fail(self, message: str) -> None:
        print(f"FAILED: {message}", file=sys.stderr)
        self.add(1, 1)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p percent
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


class Spawner:
    """Starts one child process at a time and waits for it with ``wait4``, so
    each child's own peak resident memory is known."""

    def __init__(self, workdir: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.out = workdir / "stdout"
        self.err = workdir / "stderr"
        self.pid: int | None = None

    def run(self, args: list[str], stdin: Path | None = None) -> dict:
        """Run ``python <args>``; return exit code, output, wall seconds from
        spawn to exit, spawn time on the monotonic clock and peak RSS in MB."""
        with open(self.out, "w+b") as out, open(self.err, "w+b") as err, (
            open(stdin, "rb") if stdin else open(os.devnull, "rb")
        ) as inp:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=inp, stdout=out, stderr=err, cwd=ROOT, env=self.env
            )
            self.pid = proc.pid
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
            self.pid = None
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "code": proc.returncode,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace"),
                "spawned": spawned,
                "seconds": ended - spawned,
                "rss_mb": usage.ru_maxrss / 1024,
            }

    def run_json(self, args: list[str], failures: Failures) -> dict | None:
        """Run a ``child.py`` mode; its last stdout line is JSON."""
        res = self.run([str(CHILD), *args])
        sys.stderr.write(res["stderr"])
        lines = res["stdout"].splitlines()
        if res["code"] != 0 or not lines:
            failures.fail(f"child.py {' '.join(args)} exited with {res['code']}")
            return None
        return {**json.loads(lines[-1]), "_run": res}

    def kill(self) -> None:
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped by wait4
            self.pid = None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctrect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except FileNotFoundError:  # no git on this machine
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


# ------------------------------------------------------------------ sweeps


def sweep_rep(spawner: Spawner, props: tuple[str, ...], traced: bool, failures: Failures) -> dict | None:
    args = ["sweep", "--props", ",".join(props)] + (["--trace"] if traced else [])
    rep = spawner.run_json(args, failures)
    if rep is not None:
        failures.add(rep["attempted"], rep["failed"])
    return rep


def run_sweep(spawner: Spawner, workload: str, seconds: float, traced: bool, failures: Failures):
    props = SWEEPS[workload]
    started = time.monotonic()
    if not traced:
        reps = []
        while not reps or time.monotonic() - started < seconds:
            rep = sweep_rep(spawner, props, False, failures)
            if rep is None:
                break
            reps.append(rep)
        if not reps:
            return None, {}
        walls_ms = [rep["_run"]["seconds"] * 1e3 for rep in reps]
        metrics = {
            "setup_s": statistics.median(rep["ready"] - rep["_run"]["spawned"] for rep in reps),
            "instances_per_s": statistics.median(rep["attempted"] / rep["seconds"] for rep in reps),
            "call_ms_p50": percentile(walls_ms, 50),
            "call_ms_p90": percentile(walls_ms, 90),
            "peak_rss_mb": max(rep["_run"]["rss_mb"] for rep in reps),
        }
        return metrics, {"percentile_samples": len(reps)}

    # Untraced and traced repetitions alternate, so that both see the same
    # machine; the untraced ones give the per-property times and the base
    # of the overhead ratio.
    reps: dict[bool, list[dict]] = {False: [], True: []}
    while not reps[True] or time.monotonic() - started < seconds:
        with_trace = len(reps[False]) > len(reps[True])
        rep = sweep_rep(spawner, props, with_trace, failures)
        if rep is None:
            return None, {}
        reps[with_trace].append(rep)
    plain, traced_reps = reps[False], reps[True]
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced_reps)
        for name in traced_reps[0]["layers"]
    }
    for prop in props:
        metrics[f"verify.{prop}.s"] = statistics.median(rep["properties"][prop]["seconds"] for rep in plain)
        metrics[f"verify.{prop}.instances"] = plain[0]["properties"][prop]["instances"]
    ips = {traced: statistics.median(r["attempted"] / r["seconds"] for r in reps[traced]) for traced in reps}
    metrics["trace_overhead_ratio"] = ips[True] / ips[False]
    return metrics, {"traced_repetitions": len(traced_reps), "untraced_repetitions": len(plain)}


# ------------------------------------------------------------------- cli


def make_mix(spawner: Spawner, seed: int, workdir: Path, repeats: int, failures: Failures):
    """Build the call mix ``repeats`` times in fresh interpreters; return the
    mix, its file, and the wall time of each build."""
    outputs, walls = [], []
    for _ in range(repeats):
        built = spawner.run_json(["mix", "--seed", str(seed)], failures)
        if built is None:
            return None, None, walls
        outputs.append(built["_run"]["stdout"])
        walls.append(built["_run"]["seconds"])
    if len(set(outputs)) != 1:
        failures.fail(f"seed {seed} gave different call mixes in {repeats} set-ups")
    data = json.loads(outputs[0].splitlines()[-1])
    for _ in range(data["problems"]):
        failures.fail("an oracle rejected a generated input or its library result")
    mix_file = workdir / "mix.json"
    mix_file.write_text(outputs[0], encoding="utf-8")
    for i, call in enumerate(data["calls"]):
        if call["stdin"] is not None:
            call["stdin_file"] = workdir / f"stdin-{i}.txt"
            call["stdin_file"].write_text(call["stdin"], encoding="utf-8")
    return data["calls"], mix_file, walls


def run_cli(spawner: Spawner, seed: int, seconds: float, traced: bool, workdir: Path, failures: Failures):
    calls, mix_file, setup_walls = make_mix(
        spawner, seed, workdir, 1 if traced else SETUP_REPEATS, failures
    )
    if calls is None:
        return None, {}
    started = time.monotonic()
    if not traced:
        latencies_ms, rss_mb = [], []
        while len(latencies_ms) < MIN_CALLS or time.monotonic() - started < seconds:
            if time.monotonic() - started > MAX_RUN_S / 2:
                break
            call = calls[len(latencies_ms) % len(calls)]
            res = spawner.run(["-m", "ctrect.cli", *call["argv"]], call.get("stdin_file"))
            if not mix.matches(call, res["code"], res["stdout"]):
                failures.fail(f"ctrect {' '.join(call['argv'])}: exit {res['code']}, stdout differs from golden")
            else:
                failures.add(1)
            latencies_ms.append(res["seconds"] * 1e3)
            rss_mb.append(res["rss_mb"])
        elapsed = time.monotonic() - started
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "instances_per_s": len(latencies_ms) / elapsed,
            "call_ms_p50": percentile(latencies_ms, 50),
            "call_ms_p90": percentile(latencies_ms, 90),
            "peak_rss_mb": max(rss_mb),
        }
        return metrics, {"percentile_samples": len(latencies_ms), "setups": len(setup_walls)}

    interpreter_ms, import_ms = [], []
    for _ in range(PROBE_REPEATS):
        interpreter_ms.append(spawner.run(["-c", "pass"])["seconds"] * 1e3)
        probe = spawner.run(["-c", IMPORT_PROBE])
        if probe["code"] != 0:
            failures.fail(f"importing ctrect.cli failed: {probe['stderr'].strip()}")
            return None, {}
        import_ms.append(float(probe["stdout"]) * 1e3)
    remaining = max(1.0, seconds - (time.monotonic() - started))
    traced_run = spawner.run_json(["cli-trace", "--mix", str(mix_file), "--seconds", f"{remaining:.3f}"], failures)
    if traced_run is None:
        return None, {}
    failures.add(traced_run["attempted"], traced_run["failed"])
    metrics = dict(traced_run["layers"])
    metrics["cli.interpreter_ms"] = statistics.median(interpreter_ms)
    metrics["cli.import_ms"] = statistics.median(import_ms)
    metrics["cli.build_parser_us"] = traced_run["build_parser_us"]
    for command, us in traced_run["main_us"].items():
        metrics[f"cli.main_us.{command}"] = us
    metrics["trace_overhead_ratio"] = traced_run["trace_overhead_ratio"]
    return metrics, {
        "traced_passes": traced_run["passes"],
        "calls_per_pass": len(calls),
        "probe_samples": PROBE_REPEATS,
    }


# ------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "ctrect" / "__init__.py").is_file():
        print(f"error: no ctrect sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    failures = Failures()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ctrect-bench-", dir=ROOT / ".bench_build") as tmp:
        spawner = Spawner(Path(tmp))

        def out_of_time(signum, frame):
            spawner.kill()
            raise TimeoutError(f"run exceeded {MAX_RUN_S} s")

        signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(MAX_RUN_S)
        try:
            warm = spawner.run(["-c", "import ctrect.cli"])  # writes bytecode before timing
            if warm["code"] != 0:
                print(f"error: cannot import ctrect.cli:\n{warm['stderr']}", file=sys.stderr)
                return 2
            if args.workload in SWEEPS:
                metrics, samples = run_sweep(spawner, args.workload, args.seconds, bool(args.trace), failures)
            else:
                metrics, samples = run_cli(spawner, args.seed, args.seconds, bool(args.trace), Path(tmp), failures)
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
            spawner.kill()
    if metrics is None:
        print("error: no repetition completed; nothing to report", file=sys.stderr)
        return 1

    unknown = set(metrics) - {m["name"] for m in wanted}
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    result = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)  # a layer the workload never enters reads 0
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git": git_hash(),
        "src_sha256": source_digest(),
        "samples": samples,
        "error_rate": failures.failed / max(failures.attempted, 1),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
