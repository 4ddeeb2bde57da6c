"""Verification harness: property runs, reports, determinism."""

from __future__ import annotations

import json
from itertools import islice

import pytest

from ctrect import polynomials, run_property, tableaux, verify
from ctrect.verify import PROPERTY_NAMES, Counterexample, VerifyReport, brief
from ctrect import Filling, InvalidTableauError


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


def test_dominance_reports_a_path_that_disagrees_with_the_trace(monkeypatch):
    monkeypatch.setattr(verify, "_dominant_path", lambda t: [(1, 2, 99)])
    report = run_property("dominance", 3, 3)
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
    report = run_property(name, 4, 4)
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
    report = run_property(name, 4, 4)
    assert len(report.counterexamples) == count
    assert report.render().splitlines()[3] == f"counterexamples: {count}"
    pinned = [ce for ce in report.counterexamples if ce.instance == "k=2: 4 3 / 2 1"]
    assert pinned == [Counterexample("k=2: 4 3 / 2 1", "{col 2: [3, 1]}", actual)]


def test_lemma43_k_range_starting_above_one(monkeypatch):
    # The bottom rows of u are gathered one per k, so a run from k = 2 must
    # already hold two of them at its first k.
    _plant_eviction(monkeypatch, _first_entry_dropped)
    full = run_property("lemma43", 5, 5)
    part = run_property("lemma43", 5, 5, k_range=(2, 3))
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
    run_property(name, 4, 4)
    assert len(seen) == calls


def test_a_sweep_keeps_no_tableau():
    # The sweeps stream their tableaux; the public enumerators' caches stay
    # empty however many properties run.
    caches = (polynomials.enumerate_ssyt, polynomials.enumerate_rssyt, polynomials.enumerate_ct)
    for cache in caches:
        cache.cache_clear()
    for name in PROPERTY_NAMES:
        run_property(name, 4, 4)
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


def test_schur_identities_enumerates_each_shape_once(monkeypatch):
    # One composition-tableau stream per composition at max_entry, and one
    # reverse-SSYT stream per partition (in schur_expand), plus the fixed
    # s21 in 3 variables; not one of each per number of variables.
    calls = {"ct": [], "rssyt": []}

    def counting(kind, real):
        def wrapped(shape, max_entry):
            calls[kind].append((shape, max_entry))
            return real(shape, max_entry)

        return wrapped

    monkeypatch.setattr(verify, "_ct_fillings", counting("ct", verify._ct_fillings))
    monkeypatch.setattr(polynomials, "_rssyt_fillings", counting("rssyt", polynomials._rssyt_fillings))
    assert run_property("schur-identities", 6, 6).ok
    compositions = [c for m in range(1, 7) for c in polynomials.compositions(m)]
    partitions = [p for m in range(1, 7) for p in polynomials.partitions(m)]
    assert len(calls["ct"]) == 63
    assert sorted(calls["ct"]) == sorted((c, 6) for c in compositions)
    assert len(calls["rssyt"]) == 30
    assert sorted(calls["rssyt"]) == sorted([(p, 6) for p in partitions] + [((2, 1), 3)])


INVALID = {"ct": Filling([[2], [1]]), "rssyt": Filling([[1, 2]])}


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
    # an invalid filling stops the run before any kernel sees it.
    monkeypatch.setitem(verify._ENUMERATE, kind, lambda shape, max_entry: iter([INVALID[kind]]))
    with pytest.raises(InvalidTableauError):
        run_property(name, 2, 2)


def test_k_range_restriction():
    full = run_property("commutativity", 4, 4)
    only_k1 = run_property("commutativity", 4, 4, k_range=(1, 1))
    assert only_k1.instances < full.instances
    assert only_k1.ok


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_jobs_do_not_change_the_report(name):
    # Each property's work units and their arguments go through the pool.
    serial = run_property(name, 4, 4, jobs=1)
    parallel = run_property(name, 4, 4, jobs=2)
    assert serial.render() == parallel.render()
    assert serial.instances == parallel.instances


def _serial_executor(asked: list[int]):
    """A stand-in for ProcessPoolExecutor that records the worker count
    asked for and maps in-process, so no process is started."""

    class SerialExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    return SerialExecutor


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(1000, 8, 8), (3, 8, 3), (1000, 64, 11), (2, 1, None), (2, None, None), (1, 8, None)],
)
def test_jobs_are_clamped_to_cpus_and_units(monkeypatch, jobs, cpus, workers):
    # lemma42 at 4/4 has 11 work units, one per partition of 1..4 cells.
    # Where os has no sched_getaffinity, the CPUs are os.cpu_count(), which
    # may return None.  One worker runs in-process.
    asked: list[int] = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _serial_executor(asked))
    monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    report = run_property("lemma42", 4, 4, jobs=jobs)
    assert asked == ([] if workers is None else [workers])
    assert report.render() == run_property("lemma42", 4, 4).render()


def test_jobs_are_clamped_to_the_cpus_this_process_may_use(monkeypatch):
    # The host has 8 CPUs, but the process may run on only one of them.
    asked: list[int] = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _serial_executor(asked))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    report = run_property("lemma42", 4, 4, jobs=8)
    assert asked == []
    assert report.render() == run_property("lemma42", 4, 4).render()


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_property("lemma42", 4, 4, jobs=jobs)


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
    with pytest.raises(ValueError):
        run_property("dominance", 0, 3)
    with pytest.raises(ValueError):
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
    lines = run_property(name, *bounds).render().splitlines()
    instance, expected, actual = block
    assert lines[3:7] == [
        f"counterexamples: {count}",
        f"  [1] instance: {instance}",
        f"      expected: {expected}",
        f"      actual:   {actual}",
    ]
