"""Verification harness: property runs, reports, determinism."""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from functools import partial
from itertools import islice

import pytest

from ctrect import polynomials, run_property, tableaux, verify
from ctrect.verify import PROPERTY_NAMES, Counterexample, VerifyReport, brief
from ctrect import Filling, InvalidTableauError, InvariantViolationError

from test_polynomials import _brute_force_shapes, _hook_content_count


ALL_GREEN_BOUNDS = (4, 4)


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_all_properties_hold_at_small_bounds(name):
    report = run_property(name, *ALL_GREEN_BOUNDS)
    assert report.ok, report.render()
    assert report.instances > 0


def test_instance_counts_pinned():
    # frozen on first run; a change signals an enumeration regression
    assert run_property("roundtrip", 4, 4).instances == 360
    assert run_property("commutativity", 4, 4).instances == 312
    assert run_property("dominance", 4, 4).instances == 180


def _unit_counts(name: str, max_cells: int, max_entry: int) -> list[tuple[tuple, int]]:
    """A property's work units, in order, each with its instance count from
    the hook-content formula, which shares no code with the enumerators:
    s_lam(1^E) tableaux of each partition lam of each kind, and one instance
    per k in 1..rows for a property that takes k; no unit where lam has more
    than E rows, which holds no tableau.  schur-identities checks 4 fixed
    identities and E + 1 per partition."""
    shapes = [lam for m in range(1, max_cells + 1) for lam in _brute_force_shapes(m, partition=True)]
    if name == "schur-identities":
        return [(("schur", ()), 4)] + [(("schur", lam), max_entry + 1) for lam in shapes]
    prop = verify.PROPERTIES[name]
    return [
        ((kind, lam), _hook_content_count(lam, max_entry) * (len(lam) if prop.takes_k else 1))
        for kind in prop.kinds
        for lam in shapes
        if len(lam) <= max_entry
    ]


def _counted_instances(name: str, max_cells: int, max_entry: int) -> int:
    return sum(count for _, count in _unit_counts(name, max_cells, max_entry))


# The pinned counts above and the goldens all have max-entry = max-cells; an
# enumerator that dropped tableaux only where the two differ would pass them.
@pytest.mark.parametrize("bounds", [(6, 3), (7, 2), (4, 7)], ids=["6x3", "7x2", "4x7"])
@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_instance_counts_match_the_hook_content_formula(name, bounds):
    assert run_property(name, *bounds, jobs=1).instances == _counted_instances(name, *bounds)


# An enumerator that skips a tableau leaves every check green over fewer
# instances; the count per sorted shape, against s_lam(1^E), catches it.
@pytest.mark.parametrize("name, kind", [("lemma42", "rssyt"), ("commutativity", "ct")])
def test_a_dropped_tableau_fails_the_count(monkeypatch, name, kind):
    real = verify._ENUMERATE[kind]
    monkeypatch.setitem(
        verify._ENUMERATE, kind, lambda shape, e: islice(real(shape, e), shape == (2, 1), None)
    )
    with pytest.raises(InvariantViolationError) as exc:
        run_property(name, 4, 4, jobs=1)
    assert str(exc.value) == f"{kind} tableaux of shape (2, 1): 38 instances, expected 40"


# Beyond the goldens (max-entry = max-cells, where every unit holds a
# tableau): the units and each one's count, and the pooled report.
@pytest.mark.parametrize("bounds", [(9, 3), (8, 2)], ids=["9x3", "8x2"])
@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_each_unit_holds_its_hook_content_count(monkeypatch, name, bounds):
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = run_property(name, *bounds, jobs=2)
    # Recorded in-process; the pool above must get the unpatched driver.
    counted = []
    real = verify._check_unit

    def recording(check, unit, max_entry, ks):
        count, ces = real(check, unit, max_entry, ks)
        counted.append((unit, count))
        return count, ces

    monkeypatch.setattr(verify, "_check_unit", recording)
    serial = run_property(name, *bounds, jobs=1)
    assert serial.render() == pooled.render()
    assert counted == _unit_counts(name, *bounds)


def _counting_streams(monkeypatch) -> list[tuple[str, tuple]]:
    """Records, in-process, the kind and shape of each composition-tableau
    and reverse-SSYT stream a sweep opens."""
    opened = []

    def counting(kind, real):
        def wrapped(shape, max_entry):
            opened.append((kind, shape))
            return real(shape, max_entry)

        return wrapped

    monkeypatch.setattr(verify, "_ct_fillings", counting("ct", verify._ct_fillings))
    monkeypatch.setitem(verify._ENUMERATE, "rssyt", counting("rssyt", verify._ENUMERATE["rssyt"]))
    return opened


def test_no_unit_opened_past_max_entry_rows(monkeypatch):
    # With entries <= 1 a tableau has one row: one stream per kind for each
    # of the 16 one-row shapes, not one per composition of up to 16 cells.
    opened = _counting_streams(monkeypatch)
    report = run_property("roundtrip", 16, 1, jobs=1)
    assert (report.instances, report.ok) == (32, True)
    assert opened == [(kind, (m,)) for kind in ("ct", "rssyt") for m in range(1, 17)]


def test_no_unit_opened_below_the_smallest_k(monkeypatch):
    opened = _counting_streams(monkeypatch)
    report = run_property("commutativity", 5, 5, k_range=(3, 3), jobs=1)
    assert report.ok
    assert {len(comp) for _, comp in opened} == {3, 4, 5}
    lams = {tuple(sorted(comp, reverse=True)) for _, comp in opened}
    assert lams == {lam for m in range(1, 6) for lam in _brute_force_shapes(m, partition=True) if len(lam) >= 3}
    assert report.instances == sum(_hook_content_count(lam, 5) for lam in lams)


def test_dominance_reports_a_path_that_disagrees_with_the_trace(monkeypatch):
    monkeypatch.setattr(verify, "_dominant_path", lambda t: [(1, 2, 99)])
    report = run_property("dominance", 3, 3, jobs=1)
    assert report.counterexamples
    assert all(ce.expected == "dominant path equals trace shifts" for ce in report.counterexamples)
    assert report.counterexamples[0].actual.startswith("dominant path [(1, 2, 99)] disagrees with slide shifts ")


def _plant_eviction(monkeypatch, mutate):
    real = verify._eviction
    monkeypatch.setattr(verify, "_eviction", lambda t, k: mutate(real(t, k)))


def _reversed(report):
    return {c: v[::-1] for c, v in report.items()}


def _first_entry_dropped(report):
    # from the leftmost column with shifting entries
    if not report:
        return report
    c = min(report)
    return {**report, c: report[c][1:]}


def _extra_column(report):
    return {**report, max(report, default=1) + 1: [1, 2]}


@pytest.mark.parametrize("name", ["lemma42", "lemma43"])
def test_eviction_compared_per_column_as_multisets(monkeypatch, name):
    # Columns of two or more shifting entries occur at 4/4, and their
    # reversal must not count as a disagreement.
    _plant_eviction(monkeypatch, _reversed)
    report = run_property(name, 4, 4, jobs=1)
    assert report.instances == 312
    assert report.counterexamples == []


@pytest.mark.parametrize("name", ["lemma42", "lemma43"])
@pytest.mark.parametrize(
    "mutate, count, actual",
    [
        (_first_entry_dropped, 240, "{col 2: [1]}"),
        (_extra_column, 312, "{col 2: [3, 1], col 3: [2, 1]}"),
    ],
)
def test_eviction_disagreement_reported_with_sorted_columns(monkeypatch, name, mutate, count, actual):
    _plant_eviction(monkeypatch, mutate)
    report = run_property(name, 4, 4, jobs=1)
    assert len(report.counterexamples) == count
    assert report.render().splitlines()[3] == f"counterexamples: {count}"
    pinned = [ce for ce in report.counterexamples if ce.instance == "k=2: 4 3 / 2 1"]
    assert pinned == [Counterexample("k=2: 4 3 / 2 1", "{col 2: [3, 1]}", actual)]


def test_lemma43_k_range_starting_above_one(monkeypatch):
    # The bottom rows of u are gathered one per k, so a run from k = 2 must
    # already hold two of them at its first k.
    _plant_eviction(monkeypatch, _first_entry_dropped)
    full = run_property("lemma43", 5, 5, jobs=1)
    part = run_property("lemma43", 5, 5, k_range=(2, 3), jobs=1)
    assert part.counterexamples
    assert part.counterexamples == [
        ce for ce in full.counterexamples if ce.instance.startswith(("k=2: ", "k=3: "))
    ]


@pytest.mark.parametrize(
    "name, calls",
    [
        # 180 ct and 180 reverse SSYT at 4/4, three checks each: the input,
        # its image and the image mapped back (540 ct + 540 rssyt).
        ("roundtrip", 540 + 540),
        # 180 ct inputs and their 180 images under rho; per (u, k) instance
        # (312) one rectification output and one phi output, and one rho_inv
        # output except in the 15 one-column cases whose k empties the
        # tableau (789 ct + 492 rssyt).
        ("commutativity", 789 + 492),
        # 180 reverse SSYT at 4/4, each validated once, plus one output
        # check per rectification (312 (t, k) instances; 180 for
        # dominance's k = 1) or per rho_inv (180, lemma43).
        ("lemma41", 180 + 312),
        ("lemma42", 180 + 312),
        ("lemma43", 180 + 180),
        ("dominance", 180 + 180),
    ],
)
def test_each_enumerated_tableau_is_validated_once(monkeypatch, name, calls):
    real = tableaux.violations
    seen = []

    def counting(kind, f):
        seen.append(kind)
        return real(kind, f)

    monkeypatch.setattr(tableaux, "violations", counting)
    # In-process, so that the calls are counted here and not in workers.
    run_property(name, 4, 4, jobs=1)
    assert len(seen) == calls


def test_a_sweep_keeps_no_tableau():
    # The sweeps stream their tableaux; the public enumerators' caches stay
    # empty however many properties run.  In-process, so that the caches
    # looked at are the ones the sweeps would fill.
    caches = (polynomials.enumerate_ssyt, polynomials.enumerate_rssyt, polynomials.enumerate_ct)
    for cache in caches:
        cache.cache_clear()
    for name in PROPERTY_NAMES:
        run_property(name, 4, 4, jobs=1)
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


def test_schur_identities_enumerates_each_shape_once(monkeypatch):
    # One composition-tableau stream per composition at max_entry, and one
    # reverse-SSYT stream per partition (in schur_expand), plus the fixed
    # s21 in 3 variables; not one of each per number of variables.  Counted
    # in-process.
    calls = {"ct": [], "rssyt": []}

    def counting(kind, real):
        def wrapped(shape, max_entry):
            calls[kind].append((shape, max_entry))
            return real(shape, max_entry)

        return wrapped

    monkeypatch.setattr(verify, "_ct_fillings", counting("ct", verify._ct_fillings))
    monkeypatch.setattr(polynomials, "_rssyt_fillings", counting("rssyt", polynomials._rssyt_fillings))
    assert run_property("schur-identities", 6, 6, jobs=1).ok
    compositions = [c for m in range(1, 7) for c in polynomials.compositions(m)]
    partitions = [p for m in range(1, 7) for p in polynomials.partitions(m)]
    assert len(calls["ct"]) == 63
    assert sorted(calls["ct"]) == sorted((c, 6) for c in compositions)
    assert len(calls["rssyt"]) == 30
    assert sorted(calls["rssyt"]) == sorted([(p, 6) for p in partitions] + [((2, 1), 3)])


INVALID = {"ct": Filling([[2], [1]]), "rssyt": Filling([[1, 2]])}


def _counting_pool(started: list[int], **options):
    """A ProcessPoolExecutor factory with ``options`` that records the
    worker count of each pool it starts."""

    def pool(max_workers):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, **options)

    return pool


@pytest.mark.parametrize(
    "name, kind",
    [
        ("roundtrip", "ct"),
        ("roundtrip", "rssyt"),
        ("commutativity", "ct"),
        ("lemma41", "rssyt"),
        ("lemma42", "rssyt"),
        ("lemma43", "rssyt"),
        ("dominance", "rssyt"),
    ],
)
def test_the_streams_reject_an_invalid_tableau(monkeypatch, name, kind):
    # The subject streams are the validation boundary: a stream that yields
    # an invalid filling stops the run before any kernel sees it.  From a
    # worker the error reaches the caller as itself.  The planted stream
    # reaches the workers only if they are forked from this process.
    monkeypatch.setitem(verify._ENUMERATE, kind, lambda shape, max_entry: iter([INVALID[kind]]))
    started: list[int] = []
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _counting_pool(started, mp_context=fork))
    # Two usable CPUs, so that the jobs=2 half crosses a worker on any host.
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for jobs in (1, 2):
        with pytest.raises(InvalidTableauError) as exc:
            run_property(name, 2, 2, jobs=jobs)
        assert exc.value.kind == kind
        assert exc.value.violations == tableaux.violations(kind, INVALID[kind])
    assert started == [2]


def test_k_range_restriction():
    full = run_property("commutativity", 4, 4)
    only_k1 = run_property("commutativity", 4, 4, k_range=(1, 1))
    assert only_k1.instances < full.instances
    assert only_k1.ok


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_jobs_do_not_change_the_report(monkeypatch, name):
    # Each property's work units and their arguments go through the pool,
    # which two usable CPUs start on any host.
    started: list[int] = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _counting_pool(started))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = run_property(name, 4, 4, jobs=1)
    parallel = run_property(name, 4, 4, jobs=2)
    assert started == [2]
    assert serial.render() == parallel.render()
    assert serial.instances == parallel.instances


def _serial_executor(asked: list[int], submitted: list[tuple] | None = None):
    """A stand-in for ProcessPoolExecutor that records the worker count
    asked for and the work units submitted, and runs each unit in-process
    as it is submitted, so no process is started."""

    class SerialExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def submit(self, fn, *args):
            if submitted is not None:
                submitted.append(args[1])
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    return SerialExecutor


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [
        (1000, 8, 8), (3, 8, 3), (1000, 64, 11), (2, 1, None), (2, None, None), (1, 8, None),
        (None, 8, 8), (None, 64, 11), (None, 1, None), (None, None, None),
    ],
)
def test_jobs_are_clamped_to_cpus_and_units(monkeypatch, jobs, cpus, workers):
    # lemma42 at 4/4 has 11 work units, one per partition of 1..4 cells.
    # Where os has no sched_getaffinity, the CPUs are os.cpu_count(), which
    # may return None.  One worker runs in-process.  jobs=None asks for one
    # worker per CPU.
    asked: list[int] = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _serial_executor(asked))
    monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    report = run_property("lemma42", 4, 4, jobs=jobs)
    assert asked == ([] if workers is None else [workers])
    assert report.render() == run_property("lemma42", 4, 4, jobs=1).render()


def test_jobs_are_clamped_to_the_cpus_this_process_may_use(monkeypatch):
    # The host has 8 CPUs, but the process may run on only one of them.
    asked: list[int] = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _serial_executor(asked))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    for jobs in (8, None):
        report = run_property("lemma42", 4, 4, jobs=jobs)
        assert asked == []
        assert report.render() == run_property("lemma42", 4, 4, jobs=1).render()


def _every_subject_fails(_kind, subject, _cases):
    yield repr(subject), "", ""


@pytest.mark.parametrize("name", ["roundtrip", "commutativity", "schur-identities"])
def test_the_pool_gets_the_largest_units_first(monkeypatch, name):
    # Units are submitted by descending cell count, ties in unit order, and
    # their results are put back in unit order: with a counterexample for
    # every subject, the report is still the serial one.
    asked: list[int] = []
    submitted: list[tuple] = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _serial_executor(asked, submitted))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    prop = verify.PROPERTIES[name]
    failing = verify._Property(prop.kinds, prop.takes_k, _every_subject_fails)
    monkeypatch.setitem(verify.PROPERTIES, name, failing)
    serial = run_property(name, 4, 4, jobs=1)
    pooled = run_property(name, 4, 4)
    assert asked == [2]
    shapes = [s for m in range(5) for s in polynomials.partitions(m)]
    units = [(kind, s) for kind in prop.kinds for s in shapes if s or kind == "schur"]
    assert sum(submitted[0][1]) == 4
    assert submitted == sorted(units, key=lambda unit: -sum(unit[1]))
    assert len(serial.counterexamples) >= len(units)
    assert pooled.counterexamples == serial.counterexamples
    assert pooled.render() == serial.render()


def test_no_worker_outlives_the_call(monkeypatch):
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert run_property("lemma42", 4, 4, jobs=2).ok
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_an_error(monkeypatch):
    # A worker's error reaches the caller only once the pool is shut down,
    # so no worker is left running.
    monkeypatch.setitem(verify._ENUMERATE, "rssyt", lambda shape, max_entry: iter([INVALID["rssyt"]]))
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=fork))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(InvalidTableauError):
        run_property("lemma42", 4, 4, jobs=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_property("lemma42", 4, 4, jobs=jobs)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("roundtrip", 2, True), {}, "max_entry must be an int, got True"),
        (("roundtrip", 2.0, 2), {}, "max_cells must be an int, got 2.0"),
        (("roundtrip", True, 2), {}, "max_cells must be an int, got True"),
        (("roundtrip", 2, "2"), {}, "max_entry must be an int, got '2'"),
        (("lemma41", 3, 3), {"k_range": (1, 2.0)}, "a k_range end must be an int, got 2.0"),
        (("lemma41", 3, 3), {"k_range": (True, 2)}, "a k_range end must be an int, got True"),
        (("roundtrip", 2, 2), {"jobs": 2.0}, "jobs must be an int, got 2.0"),
        (("roundtrip", 2, 2), {"jobs": True}, "jobs must be an int, got True"),
    ],
)
def test_non_integer_bounds_and_jobs_rejected(args, kwargs, message):
    # Filling's rule for its slots: an int, and not a bool.
    with pytest.raises(ValueError) as exc:
        run_property(*args, **kwargs)
    assert str(exc.value) == message


def test_report_render_shape():
    report = run_property("dominance", 3, 3)
    lines = report.render().splitlines()
    assert lines[0] == "property: dominance"
    assert lines[1] == "bounds: max-cells=3 max-entry=3 k=1..rows"
    assert lines[2].startswith("instances: ")
    assert lines[3] == "counterexamples: 0"


def test_report_json_fields():
    report = run_property("dominance", 3, 3)
    data = report.to_json()
    assert data["property"] == "dominance"
    assert data["counterexamples"] == []
    assert data["seconds"] >= 0


def test_report_json_with_a_counterexample():
    report = VerifyReport("lemma42", 3, 4, (1, 2), 5, [Counterexample("i", "e", "a")], 0.5)
    data = report.to_json()
    assert data["counterexamples"] == [{"instance": "i", "expected": "e", "actual": "a"}]
    assert list(data["counterexamples"][0]) == ["instance", "expected", "actual"]
    assert json.dumps(data) == (
        '{"property": "lemma42", "max_cells": 3, "max_entry": 4, "k_range": [1, 2],'
        ' "instances": 5, "counterexamples": [{"instance": "i", "expected": "e", "actual": "a"}],'
        ' "seconds": 0.5}'
    )


def test_unknown_property():
    with pytest.raises(ValueError):
        run_property("nope", 3, 3)


def test_bad_bounds():
    with pytest.raises(ValueError, match="^max_cells must be at least 1, got 0$"):
        run_property("dominance", 0, 3)
    with pytest.raises(ValueError, match=r"^bad k_range 2\.\.1: expected A\.\.B with 1 <= A <= B$"):
        run_property("dominance", 3, 3, k_range=(2, 1))


@pytest.mark.parametrize("k_range", [(0, 1), (3, 2)])
def test_bad_k_range_message(k_range):
    lo, hi = k_range
    message = f"bad k_range {lo}..{hi}: expected A..B with 1 <= A <= B"
    with pytest.raises(ValueError) as exc:
        run_property("lemma41", 2, 2, k_range=k_range)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["roundtrip", "dominance", "schur-identities"])
def test_k_range_rejected_where_no_k_is_taken(name):
    message = f"property {name!r} takes no k range; only commutativity, lemma41, lemma42, lemma43 do"
    with pytest.raises(ValueError) as exc:
        run_property(name, 3, 3, k_range=(2, 3))
    assert str(exc.value) == message
    # a bad range is still reported as one
    with pytest.raises(ValueError, match=r"^bad k_range 3\.\.2: "):
        run_property(name, 3, 3, k_range=(3, 2))


@pytest.mark.parametrize("name", ["commutativity", "lemma41", "lemma42", "lemma43"])
def test_k_range_past_every_tableau_in_bounds_rejected(name):
    # A tableau in bounds has at most min(max_cells, max_entry) rows.
    for bounds, k_range, rows in [((3, 3), (4, 5), 3), ((6, 2), (3, 4), 2), ((2, 6), (3, 3), 2)]:
        lo, hi = k_range
        message = f"k range {lo}..{hi} takes no tableau within max-cells={bounds[0]} max-entry={bounds[1]}"
        with pytest.raises(ValueError) as exc:
            run_property(name, *bounds, k_range=k_range)
        assert str(exc.value) == f"{message}: none has more than {rows} rows"
    # A range that reaches into the bounds still runs: the one-column
    # tableau 3 / 2 / 1 (or its reverse) has k = 3.
    report = run_property(name, 3, 3, k_range=(3, 9))
    assert report.instances == 1
    assert report.ok


def test_brief_rendering():
    assert brief(Filling(())) == "(empty)"
    assert brief(Filling([[2, None], [1]])) == "2 . / 1"
    assert brief(Filling([[1], []])) == "1 / "


def _rows_reversed(real):
    return lambda *args: Filling(real(*args).rows[::-1])


def _columns_reversed(real):
    return lambda traces: _reversed(real(traces))


def _first_only(real):
    return lambda values: islice(real(values), 1)


# Each row plants one fault in a name ``verify`` reads, and pins the
# report's counterexample count and its first block.
@pytest.mark.parametrize(
    "name, attr, plant, bounds, count, block",
    [
        ("roundtrip", "_rho_inv", _rows_reversed, (3, 3), 12, ("1 / 2", "1 / 2", "2 / 1")),
        ("commutativity", "_phi", _rows_reversed, (3, 3), 5, ("k=1: 1 / 2 / 3", "1 / 2", "2 / 1")),
        (
            "lemma41", "shifting_entries", _columns_reversed, (4, 4), 20,
            ("k=2: 2 2 / 1 1", "strictly decreasing round-ordered shifts per column", "{col 2: [1, 2]}"),
        ),
        (
            "dominance", "_is_dominant", lambda real: lambda t, r, c: False, (3, 3), 20,
            ("1 1", "every left-shifted entry diagonally dominant at its source", "not dominant at [(1, 2)]"),
        ),
        (
            "schur-identities", "monomial_sym_expand", lambda real: lambda parts, n: 2 * real(parts, n),
            (2, 2), 2, ("s21 == m21 + 2*m111", "identity holds", "identity fails"),
        ),
        (
            "schur-identities", "_rearrangements", _first_only, (3, 3), 2,
            (
                "shape (2, 1), 2 variables",
                "composition-tableau and reverse-SSYT weight sums agree",
                "sums differ",
            ),
        ),
        (
            "schur-identities", "is_symmetric", lambda real: lambda p: False, (2, 2), 3,
            (
                "schur (1,), 2 variables",
                "symmetric and quasisymmetric",
                "symmetric=False quasisymmetric=True",
            ),
        ),
    ],
)
def test_each_checker_reports_a_planted_failure(monkeypatch, name, attr, plant, bounds, count, block):
    monkeypatch.setattr(verify, attr, plant(getattr(verify, attr)))
    lines = run_property(name, *bounds, jobs=1).render().splitlines()
    instance, expected, actual = block
    assert lines[3:7] == [
        f"counterexamples: {count}",
        f"  [1] instance: {instance}",
        f"      expected: {expected}",
        f"      actual:   {actual}",
    ]
