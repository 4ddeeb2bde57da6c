"""Command-line interface: golden outputs, exit codes, formats."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import ctrect
from ctrect.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(ctrect.__file__).resolve().parent.parent)
CLI = (sys.executable, "-m", "ctrect.cli")


def cli_env() -> dict[str, str]:
    """The environment for a CLI subprocess: this checkout's ``ctrect``, and
    stdout block-buffered, as it is by default on a pipe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestValidate:
    def test_valid_ct(self, capsys):
        code, out, _ = run(capsys, "validate", "--kind", "ct", fx("ct_u.txt"))
        assert code == 0
        assert out == "valid ct\n"

    def test_invalid_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n3 2\n")
        code, out, _ = run(capsys, "validate", "--kind", "ct", str(bad))
        assert code == 2
        assert "[triple] at (2,2)" in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 0\n")
        code, _, err = run(capsys, "validate", "--kind", "ct", str(bad))
        assert code == 2
        assert "row 1 column 2" in err

    @pytest.mark.parametrize(
        "kind,fixture",
        [
            ("ssyt", "ssyt_young_fig.txt"),
            ("syt", "syt_standard_fig.txt"),
            ("rssyt", "rssyt_weight_fig.txt"),
            ("rssyt", "rssyt_t.txt"),
            ("rssyt", "rssyt_eviction.txt"),
            ("rssyt", "rssyt_evac_input.txt"),
            ("ct", "ct_u.txt"),
            ("ct", "ct_phi1_input.txt"),
            ("ct", "ct_phi3_input.txt"),
        ],
    )
    def test_all_fixtures_validate(self, capsys, kind, fixture):
        code, out, _ = run(capsys, "validate", "--kind", kind, fx(fixture))
        assert code == 0
        assert out == f"valid {kind}\n"


class TestTransforms:
    def test_rho_golden(self, capsys):
        code, out, _ = run(capsys, "rho", fx("ct_u.txt"))
        assert code == 0
        assert out == (FIXTURES / "rssyt_t.txt").read_text()

    def test_rho_inv_golden(self, capsys):
        code, out, _ = run(capsys, "rho-inv", fx("rssyt_t.txt"))
        assert code == 0
        assert out == (FIXTURES / "ct_u.txt").read_text()

    def test_rho_json_output(self, capsys):
        code, out, _ = run(capsys, "rho", "--json", fx("ct_u.txt"))
        assert code == 0
        assert json.loads(out)["rows"][0] == [7, 7, 5, 3, 1]

    def test_json_input_accepted(self, capsys, tmp_path):
        src = tmp_path / "t.json"
        src.write_text('{"rows": [[2, 2], [3, 1]]}')
        code, out, _ = run(capsys, "rho", str(src))
        assert code == 0
        assert out == "3 2\n2 1\n"

    def test_invalid_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n")
        code, _, err = run(capsys, "rho", str(bad))
        assert code == 2
        assert "row-order" in err

    def test_evacuate_golden(self, capsys):
        code, out, _ = run(capsys, "evacuate", fx("rssyt_evac_input.txt"))
        assert code == 0
        assert out == (FIXTURES / "rssyt_evac_expected.txt").read_text()

    def test_evacuate_entry_above_cell_count_exits_2(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("5 1\n2\n"))
        code, out, err = run(capsys, "evacuate")
        assert code == 2
        assert out == ""
        assert err == "error: entry 5 exceeds the cell count 3; n - entry would be negative\n"

    def test_evacuate_invalid_tableau_lists_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n")
        code, out, err = run(capsys, "evacuate", str(bad))
        assert code == 2
        assert out == ""
        assert err == "[row-order] at (1,2): 2 > 1: rows must weakly decrease\n"


class TestRectify:
    def test_ct_single_cell_golden(self, capsys):
        code, out, _ = run(
            capsys, "rectify", "--kind", "ct", "--cells", "1", fx("ct_phi1_input.txt")
        )
        assert code == 0
        assert out == (FIXTURES / "ct_phi1_expected.txt").read_text()

    def test_ct_three_cells_golden(self, capsys):
        code, out, _ = run(
            capsys, "rectify", "--kind", "ct", "--cells", "3", fx("ct_phi3_input.txt")
        )
        assert code == 0
        assert out == (FIXTURES / "ct_phi3_expected.txt").read_text()

    def test_rssyt_golden(self, capsys):
        code, out, err = run(
            capsys, "rectify", "--kind", "rssyt", "--cells", "1", fx("rssyt_t.txt")
        )
        assert code == 0
        assert out == (FIXTURES / "rssyt_t_rectified.txt").read_text()
        assert "shift column 2: 7" in err
        assert "shift column 3: 3" in err

    def test_ct_eleven_cells_matches_the_detour(self, capsys, tmp_path):
        source = tmp_path / "u.txt"
        source.write_text("3 1 1\n5 5 5 3\n6 4 3 2\n")
        code, out, err = run(capsys, "rectify", "--kind", "ct", "--cells", "2", str(source))
        assert (code, err) == (0, "")
        assert out == "3 3 3\n4 1 1\n5 5 2\n"

    def test_kernel_invariant_failure_exits_1(self, capsys, monkeypatch):
        from ctrect.tableaux import InvariantViolationError

        def broken(kind, f, what):
            raise InvariantViolationError(f"{what}: planted")

        monkeypatch.setattr("ctrect.ct_rectify.check_invariant", broken)
        code, out, err = run(
            capsys, "rectify", "--kind", "ct", "--cells", "1", fx("ct_phi1_input.txt")
        )
        assert code == 1
        assert out == ""
        assert err == "counterexample: phi did not produce a composition tableau: planted\n"

    def test_ct_trace_shows_holes(self, capsys):
        code, out, _ = run(
            capsys,
            "rectify", "--kind", "ct", "--cells", "3", "--trace", fx("ct_phi3_input.txt"),
        )
        assert code == 0
        assert "== remove 3 cell(s) from column 1" in out
        assert "== swap into column 1" in out
        assert "== reorder rows" in out
        assert "6 . 6 3" in out  # hole rendered as "."
        assert out.rstrip().endswith("6 6 2")

    def test_rssyt_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "rectify", "--kind", "rssyt", "--cells", "1", "--trace", fx("rssyt_t.txt"),
        )
        assert code == 0
        assert "== remove 1 cell(s) from column 1" in out
        assert "== slide 7 left from (1,2)" in out
        assert "== vacate (4,3)" in out

    @pytest.mark.parametrize(
        "kind, source, golden",
        [
            ("rssyt", "rssyt_eviction.txt", "rssyt_eviction_trace3.txt"),
            ("ct", "ct_phi3_input.txt", "ct_phi3_trace.txt"),
        ],
    )
    def test_three_cell_trace_golden(self, capsys, kind, source, golden):
        code, out, _ = run(
            capsys, "rectify", "--kind", kind, "--cells", "3", "--trace", fx(source)
        )
        assert code == 0
        assert out == (FIXTURES / golden).read_text()

    def test_bad_k_exits_64(self, capsys):
        code, _, err = run(
            capsys, "rectify", "--kind", "rssyt", "--cells", "9", fx("rssyt_t.txt")
        )
        assert code == 64
        assert "k must be in" in err

    @pytest.mark.parametrize(
        "argv",
        [["rectify", "--kind", "ct"], ["rectify", "--kind", "rssyt"], ["eviction"]],
        ids=["rectify-ct", "rectify-rssyt", "eviction"],
    )
    def test_k_on_an_empty_tableau_exits_64_and_names_it(self, capsys, monkeypatch, argv):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, err = run(capsys, *argv, "--cells", "1")
        assert code == 64
        assert out == ""
        assert err == "error: k must be in 1..rows, but the tableau has no rows\n"

    @pytest.mark.parametrize("kind", ["rssyt", "ct"])
    def test_trace_with_json_exits_64_before_reading_input(self, capsys, kind):
        code, out, err = run(
            capsys, "rectify", "--kind", kind, "--trace", "--json", "/no/such/file.txt"
        )
        assert code == 64
        assert out == ""
        assert err == "error: --json does not apply to --trace output\n"


class TestEviction:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "eviction", "--cells", "3", fx("rssyt_eviction.txt"))
        assert code == 0
        assert out == "column 2: 8 4\ncolumn 3: 6\n"

    def test_no_shifts_prints_nothing(self, capsys, tmp_path):
        src = tmp_path / "t.txt"
        src.write_text("2\n1\n")
        code, out, _ = run(capsys, "eviction", "--cells", "1", str(src))
        assert code == 0
        assert out == ""


class TestExpand:
    def test_mqsym_21(self, capsys):
        code, out, _ = run(capsys, "expand", "mqsym", "2,1", "--vars", "3")
        assert code == 0
        assert out == "1: 2,1,0\n1: 2,0,1\n1: 0,2,1\n"

    def test_schur_21(self, capsys):
        code, out, _ = run(capsys, "expand", "schur", "2,1", "--vars", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert "2: 1,1,1" in lines

    def test_msym_21(self, capsys):
        code, out, _ = run(capsys, "expand", "msym", "2,1", "--vars", "3")
        assert code == 0
        assert out == "1: 2,1,0\n1: 2,0,1\n1: 1,2,0\n1: 1,0,2\n1: 0,2,1\n1: 0,1,2\n"

    def test_bad_parts_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "schur", "2,x", "--vars", "3")
        assert code == 2
        assert "bad shape" in err

    def test_zero_part_exits_2(self, capsys):
        code, out, err = run(capsys, "expand", "schur", "2,0", "--vars", "3")
        assert code == 2
        assert out == ""
        assert err == "error: bad shape '2,0': parts must be positive\n"

    def test_non_partition_shape_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "schur", "1,2", "--vars", "3")
        assert code == 2
        assert "not a partition shape" in err
        code, out, err = run(capsys, "expand", "msym", "1,2", "--vars", "3")
        assert code == 2
        assert out == ""
        assert err == "error: (1, 2) is not a partition shape\n"

    @pytest.mark.parametrize("basis", ["schur", "msym", "mqsym"])
    @pytest.mark.parametrize("nvars", ["0", "-1"])
    def test_vars_below_one_exits_64(self, capsys, basis, nvars):
        code, out, err = run(capsys, "expand", basis, "1", "--vars", nvars)
        assert code == 64
        assert out == ""
        assert "--vars must be at least 1" in err


class TestCheckQsym:
    def test_quasisymmetric_file(self, capsys, tmp_path):
        src = tmp_path / "p.txt"
        src.write_text("1: 2,1,0\n1: 2,0,1\n1: 0,2,1\n")
        code, out, _ = run(capsys, "check-qsym", str(src))
        assert code == 0
        assert out == "quasisymmetric: true\nsymmetric: false\n"

    def test_not_quasisymmetric_exits_1(self, capsys, tmp_path):
        src = tmp_path / "p.txt"
        src.write_text("1: 2,0\n")
        code, out, _ = run(capsys, "check-qsym", str(src))
        assert code == 1
        assert out == "quasisymmetric: false\nsymmetric: false\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1: x\n", "line 1: invalid literal for int() with base 10: 'x'"),
            ("1: -1,0\n", "line 1: exponents must be nonnegative"),
            # int() reads each of these; a term takes ASCII decimals only.
            ("1_0: 1,0\n", "line 1: invalid literal for int() with base 10: '1_0'"),
            ("1: 1,0\n٣: 0,1\n", "line 2: invalid literal for int() with base 10: '٣'"),
            ("1: １,0\n", "line 1: invalid literal for int() with base 10: '１'"),
        ],
    )
    def test_bad_polynomial_exits_2(self, capsys, tmp_path, text, message):
        src = tmp_path / "p.txt"
        src.write_text(text)
        code, out, err = run(capsys, "check-qsym", str(src))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_sixty_variables_finish_at_once(self, capsys, tmp_path):
        # One term of the composition (1,)*30: its comb(60, 30) placements
        # are counted, not walked.
        src = tmp_path / "p.txt"
        src.write_text("1: " + ",".join(["0"] * 30 + ["1"] * 30) + "\n")
        started = time.perf_counter()
        code, out, _ = run(capsys, "check-qsym", str(src))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == "quasisymmetric: false\nsymmetric: false\n"


class TestVerify:
    def test_roundtrip_small(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--property", "roundtrip", "--max-cells", "4", "--max-entry", "4",
        )
        assert code == 0
        assert out == (
            "property: roundtrip\n"
            "bounds: max-cells=4 max-entry=4 k=1..rows\n"
            "instances: 360\n"
            "counterexamples: 0\n"
        )
        assert err.startswith("time: ")

    def test_a_count_mismatch_exits_1_with_no_report(self, capsys, monkeypatch):
        from itertools import islice

        from ctrect import verify

        real = verify._ENUMERATE["rssyt"]
        monkeypatch.setitem(verify._ENUMERATE, "rssyt", lambda shape, e: islice(real(shape, e), shape == (2, 1), None))
        code, out, err = run(
            capsys,
            "verify", "--property", "lemma42", "--max-cells", "4", "--max-entry", "4", "--jobs", "1",
        )
        assert (code, out) == (1, "")
        assert err == "counterexample: rssyt tableaux of shape (2, 1): 38 instances, expected 40\n"

    def test_stdout_deterministic_across_jobs(self, capsys):
        argv = ["verify", "--property", "lemma43", "--max-cells", "4", "--max-entry", "3"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv, "--jobs", "2")
        assert out1 == out2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_64(self, capsys, jobs):
        code, out, err = run(
            capsys,
            "verify", "--property", "dominance", "--max-cells", "3", "--max-entry", "3",
            "--jobs", jobs,
        )
        assert code == 64
        assert out == ""
        assert "jobs must be at least 1" in err

    def test_unknown_property_exits_64(self, capsys):
        from ctrect.verify import PROPERTY_NAMES

        code, out, err = run(
            capsys, "verify", "--property", "nope", "--max-cells", "2", "--max-entry", "2"
        )
        assert code == 64
        assert out == ""
        assert "unknown property 'nope'" in err
        assert all(name in err for name in PROPERTY_NAMES)

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        out_file.write_text("an earlier, longer report " * 1000)
        code, _, _ = run(
            capsys,
            "verify", "--property", "dominance", "--max-cells", "3", "--max-entry", "3",
            "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["property"] == "dominance"
        assert data["counterexamples"] == []

    def test_unwritable_out_fails_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("ctrect.verify.run_property", no_sweep)
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys,
            "verify", "--property", "roundtrip", "--max-cells", "2", "--max-entry", "2",
            "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_a_run_stopped_before_the_write_keeps_out_as_it_was(self, capsys, tmp_path):
        kept = tmp_path / "kept.json"
        kept.write_text("earlier report\n")
        absent = tmp_path / "absent.json"
        for path in (kept, absent):
            code, out, err = run(
                capsys,
                "verify", "--property", "nope", "--max-cells", "2", "--max-entry", "2",
                "--out", str(path),
            )
            assert code == 64
            assert out == ""
            assert "unknown property 'nope'" in err
        assert kept.read_text() == "earlier report\n"
        assert not absent.exists()

    def test_k_range_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--property", "commutativity", "--max-cells", "4",
            "--max-entry", "4", "--k-range", "2..3",
        )
        assert code == 0
        assert "bounds: max-cells=4 max-entry=4 k=2..3" in out

    @pytest.mark.parametrize("raw", ["x", "1..", "0..1"])
    def test_bad_k_range_exits_64(self, capsys, raw):
        code, out, err = run(
            capsys,
            "verify", "--property", "lemma41", "--max-cells", "2", "--max-entry", "2",
            "--k-range", raw,
        )
        assert code == 64
        assert out == ""
        assert f"bad --k-range {raw!r}" in err

    def test_k_range_on_a_property_without_k_exits_64(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--property", "dominance", "--max-cells", "3", "--max-entry", "3",
            "--k-range", "2..3",
        )
        assert code == 64
        assert out == ""
        assert err == (
            "error: property 'dominance' takes no k range;"
            " only commutativity, lemma41, lemma42, lemma43 do\n"
        )

    def test_k_range_past_every_tableau_in_bounds_exits_64(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--property", "commutativity", "--max-cells", "3", "--max-entry", "3",
            "--k-range", "4..5",
        )
        assert code == 64
        assert out == ""
        assert err == (
            "error: k range 4..5 takes no tableau within max-cells=3 max-entry=3:"
            " none has more than 3 rows\n"
        )

    def test_commutativity_instance_count_pinned(self, capsys):
        # frozen on first run as a regression value
        code, out, _ = run(
            capsys,
            "verify", "--property", "commutativity", "--max-cells", "6", "--max-entry", "6",
        )
        assert code == 0
        assert "instances: 19148" in out
        assert "counterexamples: 0" in out

    def test_counterexample_report_exits_1(self, capsys, monkeypatch):
        # every real property holds, so exercise the failure contract with a
        # canned report
        from ctrect.verify import Counterexample, VerifyReport

        canned = VerifyReport(
            "roundtrip", 3, 3, None, 5,
            [Counterexample("2 1 / 1", "2 1 / 1", "2 / 1 1")], 0.0,
        )
        monkeypatch.setattr("ctrect.run_property", lambda *a, **kw: canned)
        code, out, _ = run(
            capsys,
            "verify", "--property", "roundtrip", "--max-cells", "3", "--max-entry", "3",
        )
        assert code == 1
        assert "counterexamples: 1" in out
        assert "[1] instance: 2 1 / 1" in out
        assert "actual:   2 / 1 1" in out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-cells", "3"])
        assert exc.value.code == 64

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n3 1\n"))
        code, out, _ = run(capsys, "rho")
        assert code == 0
        assert out == "3 2\n2 1\n"

    def test_trailing_blank_line_accepted(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n2\n\n"))
        code, out, _ = run(capsys, "rho")
        assert code == 0
        assert out == "2 1\n1\n"

    def test_blank_line_between_rows_exits_2(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n\n2\n"))
        code, _, err = run(capsys, "rho")
        assert code == 2
        assert err == "[shape] at (2,1): empty row\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "rho", "/no/such/file.txt")
        assert code == 2
        assert "No such file" in err

    def test_closed_stdout_exits_141_quietly(self):
        # About 250 kB of output, more than a pipe buffers, so the writer
        # is still writing when the reader goes.
        argv = [*CLI, "expand", "msym", "1,1,1", "--vars", "30"]
        with subprocess.Popen(argv, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"1: 1,1,1,0,")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_stdout_closed_before_the_exit_flush_exits_141_quietly(self):
        # One line stays in the block buffer until main flushes it; the
        # reader is gone before the process starts.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [*CLI, "expand", "msym", "1,1,1", "--vars", "3"],
                env=cli_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    # A descriptor closed at start-up leaves its sys stream None: stdin is
    # then input that cannot be read, stdout output that went nowhere.
    def test_closed_stdin_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert run(capsys, "rho") == (2, "", "error: stdin: closed\n")

    def test_closed_stdout_at_start_up_exits_141_quietly(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        code = main(["rho", fx("ct_u.txt")])
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (141, "")

    @pytest.mark.parametrize(
        "redirect, status, stderr",
        [("<&-", 2, b"error: stdin: closed\n"), (f"{fx('ct_u.txt')} >&-", 141, b"")],
        ids=["stdin", "stdout"],
    )
    def test_closed_stream_from_a_shell(self, redirect, status, stderr):
        command = " ".join([*CLI, "rho"]) + f" {redirect}"
        done = subprocess.run(["sh", "-c", command], env=cli_env(), capture_output=True, timeout=60)
        assert (done.returncode, done.stderr) == (status, stderr)

    # Stderr closed (None in the process) or open only for reading, so that
    # each write raises OSError: the exit code is the one an open stderr
    # gets, and stdout holds only the output.
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    @pytest.mark.parametrize(
        "args, stdin, status",
        [
            ("rho /no/such", b"", 2),
            ("rho", b"1 2\n3\n", 2),
            ("rho --bogus", b"", 64),
            ("check-qsym", b"1: 2,0\n", 1),
            (f"rectify --kind rssyt --cells 1 {fx('rssyt_t.txt')}", b"", 0),
        ],
        ids=["missing-file", "invalid-tableau", "usage", "counterexample", "stderr-lines"],
    )
    def test_closed_stderr_from_a_shell(self, redirect, args, stdin, status):
        command = " ".join([*CLI, args])
        shell = partial(subprocess.run, input=stdin, env=cli_env(), capture_output=True, timeout=60)
        with_stderr = shell(["sh", "-c", command])
        done = shell(["sh", "-c", f"{command} {redirect}"])
        assert with_stderr.returncode == status
        assert (done.returncode, done.stdout, done.stderr) == (status, with_stderr.stdout, b"")

    @pytest.mark.parametrize("stderr", [None, "unwritable"])
    def test_closed_stderr_raises_nothing_out_of_main(self, capsys, monkeypatch, stderr):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        def broken(kind, f, what):
            raise ctrect.InvariantViolationError(f"{what}: planted")

        monkeypatch.setattr("ctrect.ct_rectify.check_invariant", broken)
        codes = []
        for argv in [
            ["rho", "/no/such"],
            ["rectify", "--kind", "ct", "--cells", "1", fx("ct_phi1_input.txt")],
            ["rectify", "--kind", "rssyt", "--cells", "1", fx("rssyt_t.txt")],
        ]:
            # A failed write drops the stream, so each call starts with one.
            monkeypatch.setattr(sys, "stderr", stderr and Unwritable())
            codes.append(main(argv))
        monkeypatch.undo()
        assert codes == [2, 1, 0]
        assert capsys.readouterr().out == (FIXTURES / "rssyt_t_rectified.txt").read_text()


class TestUnreadableInput:
    """Input the parsers cannot read exits 2 with one ``error:`` line."""

    @pytest.mark.parametrize("subcommand", ["rho", "validate --kind ct", "check-qsym"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, subcommand):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\n\xff\n")
        code, out, err = run(capsys, *subcommand.split(), str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not UTF-8 text (byte 4)\n"

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch, errors):
        import io

        stdin = io.TextIOWrapper(io.BytesIO(b"1 2\n\xff\n"), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "rho")
        assert code == 2
        assert out == ""
        assert err == "error: stdin: not UTF-8 text (byte 4)\n"

    # Stdin's bytes give what the same bytes in a file give, whatever the
    # text layer's encoding: the locale's, or latin-1 under
    # PYTHONIOENCODING, which would read b"\xc3\xa9" as two characters.
    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    @pytest.mark.parametrize(
        "data",
        [b"2 1\r\n3\r\n", b'{"rows": [1\r\n', "é 1\n".encode()],
        ids=["crlf-text", "crlf-json", "non-ascii"],
    )
    def test_stdin_reads_as_a_file_does(self, capsys, monkeypatch, tmp_path, encoding, data):
        import io

        path = tmp_path / "in.txt"
        path.write_bytes(data)
        expected = run(capsys, "rho", str(path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding=encoding))
        assert run(capsys, "rho") == expected

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"rows": ' + "[" * 100_000)
        code, out, err = run(capsys, "rho", str(deep))
        assert code == 2
        assert out == ""
        assert err == "error: bad JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rows": [1', "bad JSON: Expecting ',' delimiter: line 1 column 12 (char 11)"),
            ('{"a": 1}', 'JSON tableau must be an object with a "rows" list'),
            ('{"rows": [1]}', "row 1: expected a list"),
        ],
    )
    def test_malformed_json_tableau_exits_2(self, capsys, monkeypatch, text, message):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "rho")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


HELP_COMMANDS = (
    "validate", "rho", "rho-inv", "rectify", "evacuate", "eviction", "expand", "check-qsym", "verify"
)


def help_golden() -> dict[str, str]:
    """The texts of ``fixtures/cli_help.txt``, keyed by the ``$ ctrect ... -h``
    line above each."""
    blocks: dict[str, str] = {}
    for line in (FIXTURES / "cli_help.txt").read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ "):
            key = line[2:].rstrip("\n")
            blocks[key] = ""
        else:
            blocks[key] += line
    return blocks


class TestHelp:
    """Every ``-h`` text at 80 columns, byte for byte."""

    def test_golden_holds_the_top_level_and_every_command(self):
        assert list(help_golden()) == ["ctrect -h"] + [f"ctrect {c} -h" for c in HELP_COMMANDS]

    @pytest.mark.parametrize("argv", [[]] + [[c] for c in HELP_COMMANDS], ids=["top", *HELP_COMMANDS])
    def test_help_matches_the_golden(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "-h"])
        assert exit_info.value.code == 0
        expected = help_golden()[" ".join(["ctrect", *argv, "-h"])]
        if not argv and sys.version_info >= (3, 13):
            # Python 3.13's argparse keeps the subcommand list and its "..."
            # on one usage line.
            expected = expected.replace("}\n              ...\n", "} ...\n", 1)
        assert capsys.readouterr().out == expected


# int() reads each of these as an integer; ctrect's one integer rule,
# ``parse_int``, refuses them wherever the CLI reads a number.
NOT_INTEGERS = ["1_0", "٣", "１"]
INT_FLAGS = {
    "rectify --cells": ["rectify", "--kind", "ct", fx("ct_u.txt"), "--cells"],
    "eviction --cells": ["eviction", fx("rssyt_t.txt"), "--cells"],
    "expand --vars": ["expand", "schur", "1", "--vars"],
    "verify --max-cells": ["verify", "--property", "roundtrip", "--max-entry", "2", "--max-cells"],
    "verify --max-entry": ["verify", "--property", "roundtrip", "--max-cells", "2", "--max-entry"],
    "verify --jobs": ["verify", "--property", "roundtrip", "--max-cells", "2", "--max-entry", "2", "--jobs"],
}


class TestIntegerRule:
    @pytest.mark.parametrize("raw", NOT_INTEGERS)
    @pytest.mark.parametrize("flag", INT_FLAGS)
    def test_int_flag_refuses_what_only_int_reads(self, capsys, flag, raw):
        with pytest.raises(SystemExit) as exc:
            main([*INT_FLAGS[flag], raw])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        option = flag.split()[1]
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {raw!r}\n")

    @pytest.mark.parametrize("raw", NOT_INTEGERS)
    def test_shape_refuses_what_only_int_reads(self, capsys, raw):
        code, out, err = run(capsys, "expand", "msym", raw, "--vars", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: bad shape {raw!r}: expected comma-separated integers\n"

    @pytest.mark.parametrize("raw", [*NOT_INTEGERS, *(f"1..{tok}" for tok in NOT_INTEGERS)])
    def test_k_range_refuses_what_only_int_reads(self, capsys, raw):
        code, out, err = run(
            capsys,
            "verify", "--property", "lemma41", "--max-cells", "2", "--max-entry", "2",
            "--k-range", raw,
        )
        assert code == 64
        assert out == ""
        assert f"bad --k-range {raw!r}" in err

    def test_signs_and_spaces_still_read(self, capsys):
        code, out, _ = run(capsys, "expand", "msym", " 1,+1", "--vars", "+2")
        assert code == 0
        assert out == "1: 1,1\n"
