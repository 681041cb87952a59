from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmskit
from mmskit import DomainError, GuaranteeViolation, allocation_from_json, instance_from_json
from mmskit.cli import main
from mmskit.gen import default_corpus, write_corpus


def run(args):
    return main([str(a) for a in args])


def write_instance(tmp_path, rows, name="inst.json"):
    from mmskit import Instance, instance_to_json

    path = tmp_path / name
    path.write_text(instance_to_json(Instance.from_rows(rows)))
    return path


class TestStartup:
    @pytest.mark.parametrize("module, unused", [
        ("mmskit", {"dataclasses", "multiprocessing"}),
        ("mmskit.cli", {"multiprocessing"}),
    ])
    def test_import_loads_no_unused_module(self, module, unused):
        # A fresh interpreter without site (-S) holds only what the import
        # itself loads.
        src = str(Path(mmskit.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import {module}; print(*sys.modules)"
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert not unused & set(done.stdout.split())


class TestGenSolveVerifyPipeline:
    def test_round_trip_passes(self, tmp_path):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        report = tmp_path / "report.json"
        assert run(["gen", "--seed", 11, "--family", "uniform", "--n", "2:4",
                    "--m", "4:12", "--grid", 50, "-o", inst]) == 0
        assert run(["solve", "--alpha", "3/4+3/3836", "-i", inst, "-o", alloc]) == 0
        code = run(["verify", "-i", inst, "-a", alloc, "--alpha", "3/4+3/3836",
                    "-o", report])
        assert code == 0
        assert json.loads(report.read_text())["pass"] is True

    def test_gen_zero_agents_keeps_good_count(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert run(["gen", "--seed", 1, "--n", 0, "--m", 3, "-o", inst]) == 0
        assert json.loads(inst.read_text()) == {"m": 3, "n": 0, "values": []}
        assert mmskit.instance_from_json(inst.read_text()).m == 3

    def test_complete_flag_empties_pool(self, tmp_path):
        inst = write_instance(tmp_path, [[9, 7, 5, 4, 3, 2, 2, 1], [8, 8, 6, 5, 3, 3, 2, 1]])
        out = tmp_path / "alloc.json"
        assert run(["solve", "--alpha", "3/4", "-i", inst, "--complete", "-o", out]) == 0
        alloc = allocation_from_json(out.read_text())
        assert len(alloc.unassigned) == 0

    def test_determinism_byte_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            inst = tmp_path / f"inst-{tag}.json"
            alloc = tmp_path / f"alloc-{tag}.json"
            report = tmp_path / f"report-{tag}.json"
            run(["gen", "--seed", 99, "--family", "heavy-singles", "--n", "2:6",
                 "--m", "2:18", "--grid", 100, "-o", inst])
            run(["solve", "--alpha", "3/4+3/3836", "-i", inst, "-o", alloc])
            run(["verify", "-i", inst, "-a", alloc, "--alpha", "3/4+3/3836", "-o", report])
            paths.append((inst.read_bytes(), alloc.read_bytes(), report.read_bytes()))
        assert paths[0] == paths[1]


class TestMmsCommand:
    def test_single_agent_total(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[5, 4, 3]])
        assert run(["mms", "-i", inst, "--agent", 1, "-d", 1]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == "12" and out["witness"] == [[1, 2, 3]]

    def test_default_d_is_n(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[3, 2, 1], [1, 1, 1]])
        assert run(["mms", "-i", inst, "--agent", 1]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == 2


    @pytest.mark.parametrize("d_args", [[], ["-d", 2]])
    def test_instance_without_agents_is_usage_error(self, tmp_path, capsys, d_args):
        # Checked before d defaults to n = 0 or agent 1 is range-checked.
        inst = tmp_path / "empty.json"
        inst.write_text('{"n":0,"m":2,"values":[]}')
        assert run(["mms", "-i", inst, "--agent", 1, *d_args]) == 2
        assert capsys.readouterr().err == "error: the instance has no agents\n"


class TestReduceCommand:
    def test_emits_instance_map_and_trace(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[4, 1, 1, 1, 1], [1, 1, 1, 1, 1]])
        assert run(["reduce", "-i", inst, "--epsilon", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"instance", "order_map", "trace"}
        assert out["trace"]["scaling"] == {"1": 4, "2": 2}
        assert out["trace"]["steps"][0]["rule"] == "R1"


class TestErrorPaths:
    def test_alpha_above_bound_is_usage_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[1, 1]])
        assert run(["solve", "--alpha", "9/10", "-i", inst]) == 2
        assert "3/4 + 3/3836" in capsys.readouterr().err

    def test_float_alpha_rejected(self, tmp_path):
        inst = write_instance(tmp_path, [[1, 1]])
        assert run(["solve", "--alpha", "0.75", "-i", inst]) == 2

    def test_verification_failure_exit_one(self, tmp_path):
        inst = write_instance(tmp_path, [[1, 1], [1, 1]])
        bad = tmp_path / "bad-alloc.json"
        bad.write_text('{"bundles":[[1,2],[]],"unassigned":[]}')
        assert run(["verify", "-i", inst, "-a", bad, "--alpha", "1"]) == 1

    def test_non_ascii_digits_usage_error(self, tmp_path):
        inst = write_instance(tmp_path, [[1, 1]])
        assert run(["solve", "--alpha", "\u0663/\u0664", "-i", inst]) == 2
        inst.write_text('{"n":1,"m":2,"values":[["\uff11\uff12",1]]}', encoding="utf-8")
        assert run(["solve", "--alpha", "3/4", "-i", inst]) == 2

    def test_integer_options_take_only_ascii_digits(self, tmp_path, capsys):
        # Arabic-Indic and fullwidth digits in every integer option, and in
        # both ends of a range: argparse rejects each with exit 2.
        inst = write_instance(tmp_path, [[1, 1]])
        manifest = write_corpus(default_corpus(1), tmp_path / "corpus")
        out = tmp_path / "out.json"
        gen = ["gen", "--seed", "7", "--n", "3", "--m", "4", "-o", out]
        cases = [
            ["gen", "--seed", "\u0667", "--n", "\u0663", "--m", "4", "--grid", "\u0661\u0660", "-o", out],
            [*gen, "--seed", "\uff17"],
            [*gen, "--n", "\u0662:3"],
            [*gen, "--n", "2:\uff13"],
            [*gen, "--m", "\u0664"],
            [*gen, "--m", "4:\uff15"],
            [*gen, "--grid", "\uff11\uff10"],
            ["mms", "-i", inst, "--agent", "\u0661"],
            ["mms", "-i", inst, "-d", "\uff12"],
            ["mms", "-i", inst, "--budget", "\u0665"],
            ["solve", "--alpha", "3/4", "-i", inst, "--budget", "\uff15"],
            ["bench", "-i", manifest, "--jobs", "\u0662"],
        ]
        for args in cases:
            with pytest.raises(SystemExit) as done:
                run(args)
            assert done.value.code == 2, args
            assert "ASCII digits" in capsys.readouterr().err
        assert not out.exists()
        # ASCII values keep their meaning, surrounding whitespace included.
        assert run(["gen", "--seed", " 7 ", "--n", "2: 3", "--m", "4", "--grid", "10", "-o", out]) == 0
        again = tmp_path / "again.json"
        assert run(["gen", "--seed", "7", "--n", "2:3", "--m", "4", "--grid", "10", "-o", again]) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_repeated_good_ids_usage_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[1, 1, 1], [1, 1, 1]])
        alloc = tmp_path / "alloc.json"
        for text in ('{"bundles":[[2,1,1],[]],"unassigned":[3]}',
                     '{"bundles":[[2,1],[]],"unassigned":[3,3]}'):
            alloc.write_text(text)
            assert run(["verify", "-i", inst, "-a", alloc, "--alpha", "1/2"]) == 2
            assert "twice" in capsys.readouterr().err

    def test_wrongly_typed_allocation_fields_usage_error(self, tmp_path):
        inst = write_instance(tmp_path, [[1, 1], [1, 1]])
        bad = tmp_path / "bad-alloc.json"
        for text in ('{"bundles":5,"unassigned":[]}', '{"bundles":[[1],[2]],"unassigned":7}'):
            bad.write_text(text)
            assert run(["verify", "-i", inst, "-a", bad, "--alpha", "1"]) == 2

    def test_boolean_agent_count_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('{"n":true,"m":1,"values":[[1]]}')
        assert run(["mms", "-i", inst]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_budget_is_usage_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[977, 953, 911, 877, 859, 823, 787]] * 3)
        assert run(["mms", "-i", inst, "--budget=-5"]) == 2
        assert run(["solve", "--alpha", "3/4", "-i", inst, "--budget=-5"]) == 2
        manifest = write_corpus(default_corpus(2), tmp_path / "corpus")
        capsys.readouterr()
        assert run(["bench", "-i", manifest, "--budget=-5"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "nonnegative" in out.err

    def test_budget_exhaustion_exit_three(self, tmp_path, capsys):
        # The value search must probe on this row, and its probes take 25
        # nodes, so `mms` fails at budget 5 and writes nothing.
        inst = write_instance(tmp_path, [[937, 929, 919, 911, 907, 887, 883, 881, 877, 863]])
        assert run(["mms", "-i", inst, "--agent", 1, "-d", 3, "--budget", 5]) == 3
        assert capsys.readouterr().out == ""

    def test_guarantee_violation_exit_four(self, tmp_path, monkeypatch, capsys):
        import mmskit.cli as cli

        def boom(*args, **kwargs):
            raise GuaranteeViolation("forced", {"alpha": "3/4", "bags": {}})

        monkeypatch.setattr(cli, "solve", boom)
        monkeypatch.chdir(tmp_path)
        inst = write_instance(tmp_path, [[1, 1]])
        assert run(["solve", "--alpha", "3/4", "-i", inst]) == 4
        dump = tmp_path / "mmskit-state-dump.json"
        assert dump.exists()
        assert json.loads(dump.read_text())["alpha"] == "3/4"

    def test_missing_input_usage_error(self, tmp_path):
        assert run(["solve", "--alpha", "3/4", "-i", tmp_path / "nope.json"]) == 2

    def test_gen_grid_past_the_draw_bound_is_usage_error(self, tmp_path):
        # Values are drawn from [0, grid], so grid 2^64 needs a draw below
        # 2^64 + 1. The CLI runs in a child process so that a draw loop that
        # never ends fails the test by timeout instead of stalling the suite.
        src = str(Path(mmskit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "mmskit.cli", "gen", "--seed", "1", "--n", "1", "--m", "1",
             "--grid", str(2**64), "-o", str(tmp_path / "inst.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2 and "2^64" in done.stderr
        assert not (tmp_path / "inst.json").exists()

    def test_gen_grid_above_the_largest_draw_names_grid(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert run(["gen", "--seed", 1, "--n", 1, "--m", 2, "--grid", 2**64, "-o", out]) == 2
        assert "grid must be in [1, 2^64 - 1], got 18446744073709551616" in capsys.readouterr().err
        assert not out.exists()
        assert run(["gen", "--seed", 1, "--n", 1, "--m", 2, "--grid", 2**64 - 1, "-o", out]) == 0
        assert max(json.loads(out.read_text())["values"][0]) < 2**64

    @pytest.mark.parametrize("values", [
        # Both denominators have 3000 digits, within Python's 4300-digit
        # conversion limit, but the share's denominator, their product, has 6000.
        [f"1/{10**2999 + 1}", f"1/{10**2999 + 3}"],
        # Two 4300-digit integers: their sum, the share, has 4301 digits.
        [10**4300 - 1, 10**4300 - 1],
    ], ids=["fractions", "integers"])
    @pytest.mark.parametrize("command", ["mms", "reduce", "verify"])
    def test_result_past_the_int_string_limit_is_usage_error(self, tmp_path, capsys, command, values):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"n": 1, "m": 2, "values": [values]}))
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"bundles":[[1,2]],"unassigned":[]}')
        args = {"mms": ["mms", "-i", inst], "reduce": ["reduce", "-i", inst],
                "verify": ["verify", "-i", inst, "-a", alloc, "--alpha", "3/4"]}[command]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert "Python's int-string conversion limit" in captured.err and captured.out == ""

    def test_zero_denominator_usage_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[1, 1]])
        for args in (["solve", "--alpha", "1/0", "-i", inst],
                     ["solve", "--alpha", "3/4", "--delta", "1/0", "-i", inst],
                     ["reduce", "--epsilon", "1/0", "-i", inst]):
            assert run(args) == 2
            assert "zero denominator" in capsys.readouterr().err


_FIELDS = st.one_of(st.integers(-1, 4), st.booleans(), st.none(), st.floats(-2, 4, allow_nan=False),
                    st.text(max_size=2), st.lists(st.integers(0, 3), max_size=2))
_GOOD_VALUES = st.one_of(st.integers(0, 9), st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 9)))
_BAD_VALUES = st.one_of(
    _FIELDS,
    st.builds("{}/0".format, st.integers(0, 9)),
    st.sampled_from(["-1/2", "1/-2", "1.5", "1/2/3", "", "x", "3/4+1/4", "1e3", "\u0663", "1/\u0664",
                     "\uff11\uff12", "\u00b2", " 3 "]),
    st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["n", "p"]), st.integers(0, 3), max_size=1),
)


@st.composite
def _instance_files(draw):
    """Instance file text with at most one fault: wrong shapes or field
    types, bools, floats, negative values, "p/q" text with zero denominators
    or non-ASCII digits, nested lists, a missing key, no object, no JSON."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    fault = draw(st.sampled_from(["none", "value", "n", "m", "rows", "key", "top", "text"]))
    values = st.one_of(_GOOD_VALUES, _BAD_VALUES) if fault == "value" else _GOOD_VALUES
    obj = {"n": n, "m": m, "values": draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                                    min_size=n, max_size=n))}
    if fault in ("n", "m"):
        obj[fault] = draw(_FIELDS)
    elif fault == "rows":
        ragged = st.lists(st.lists(values, max_size=m + 1), max_size=n + 1)
        obj["values"] = draw(st.one_of(_BAD_VALUES, ragged))
    elif fault == "key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif fault == "top":
        obj = draw(_BAD_VALUES)
    return draw(st.sampled_from(["", "{", "[1,", "nan"])) if fault == "text" else json.dumps(obj)


class TestMalformedInput:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_instance_files())
    def test_exit_codes(self, tmp_path_factory, text):
        # Every command ends with a code in 0-3 and never raises; a file the
        # instance parser rejects is exit 2 with one `error:` line.
        base = tmp_path_factory.getbasetemp()
        inst, alloc, out = base / "fuzz.json", base / "fuzz-alloc.json", base / "fuzz-out.json"
        inst.write_text(text, encoding="utf-8")
        try:
            parsed = instance_from_json(text)
        except DomainError:
            parsed = None
        n, m = (0, 0) if parsed is None else (parsed.n, parsed.m)
        alloc.write_text(json.dumps({"bundles": [[]] * n, "unassigned": list(range(1, m + 1))}))
        for args in (["mms", "-i", inst], ["solve", "--alpha", "3/4", "-i", inst], ["reduce", "-i", inst],
                     ["verify", "-i", inst, "-a", alloc, "--alpha", "3/4"]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = run([*args, "-o", out])
            assert 0 <= code <= 3, (args, text)
            if parsed is None:
                assert code == 2 and err.getvalue().startswith("error: "), (args, text)
                assert err.getvalue().count("\n") == 1, (args, text)


class TestBench:
    def test_small_corpus_csv_and_summary(self, tmp_path, capsys):
        manifest = write_corpus(default_corpus(8), tmp_path / "corpus")
        out_csv = tmp_path / "bench.csv"
        assert run(["bench", "-i", manifest, "-o", out_csv]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["instances"] == 8 and summary["all_pass"] is True
        assert set(summary["rules"]) == {"R1", "R2", "R3", "R4", "R5"}
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 8
        assert {"id", "branch", "min_ratio", "agent_ratios", "pass", "runtime_s"} <= set(rows[0])

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        manifest = write_corpus(default_corpus(6), tmp_path / "corpus")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["bench", "-i", manifest, "-o", a]) == 0
        capsys.readouterr()
        assert run(["bench", "-i", manifest, "-o", b, "--jobs", 2]) == 0

        def strip_runtime(path):
            return [
                {k: v for k, v in row.items() if k != "runtime_s"}
                for row in csv.DictReader(Path(path).open())
            ]

        assert strip_runtime(a) == strip_runtime(b)

    def test_failed_row_does_not_end_the_run(self, tmp_path):
        # the n=1 instance needs no search; the other exceeds a 3-node budget;
        # one file is missing, one truncated, one not UTF-8, one holds a number
        # too long to read, and the last five manifest entries are malformed.
        # The CLI runs in a child process so that a hung worker pool fails the
        # test by timeout instead of stalling the suite.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_instance(corpus, [[5, 4, 3]], "easy.json")
        write_instance(corpus, [[937, 929, 919, 911, 907, 887, 883, 881, 877, 863]] * 3,
                       "hard.json")
        manifest = corpus / "manifest.json"
        (corpus / "truncated.json").write_text((corpus / "easy.json").read_text()[:-5])
        (corpus / "latin1.json").write_bytes('{"n": 1, "m": 1, "values": [["\u00e9"]]}'.encode("latin-1"))
        (corpus / "huge.json").write_text('{"n": 1, "m": 1, "values": [[' + "9" * 5000 + "]]}")
        manifest.write_text(json.dumps({"entries": [
            {"id": "easy", "path": "easy.json"}, {"id": "hard", "path": "hard.json"},
            {"id": "missing", "path": "missing.json"}, {"id": "truncated", "path": "truncated.json"},
            {"id": "latin1", "path": "latin1.json"}, {"id": "huge", "path": "huge.json"},
            {"id": "no-path"}, {"path": "easy.json"}, "not-an-object",
            {"id": "bad-spec", "path": "easy.json", "spec": 7}, {"id": "bad-path", "path": 7}]}))
        src = str(Path(mmskit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for jobs in (1, 2):
            out_csv = tmp_path / f"bench-{jobs}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "mmskit.cli", "bench", "-i", str(manifest), "-o", str(out_csv),
                 "--budget", "3", "--jobs", str(jobs)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 1, done.stderr
            summary = json.loads(done.stdout)
            assert summary["instances"] == 11 and summary["failed"] == 10
            assert summary["all_pass"] is False
            easy, hard, missing, truncated, latin1, huge, *malformed = csv.DictReader(out_csv.open())
            assert (easy["id"], easy["status"], easy["pass"]) == ("easy", "ok", "True")
            assert easy["min_ratio"] == "1"
            assert (hard["id"], hard["status"], hard["pass"]) == (
                "hard", "OracleBudgetExceeded", "False")
            assert hard["min_ratio"] == hard["agent_ratios"] == ""
            assert (missing["id"], missing["status"], missing["pass"]) == (
                "missing", "FileNotFoundError", "False")
            assert (truncated["id"], truncated["status"], truncated["pass"]) == (
                "truncated", "DomainError", "False")
            assert (latin1["id"], latin1["status"], latin1["pass"]) == (
                "latin1", "UnicodeDecodeError", "False")
            assert (huge["id"], huge["status"], huge["pass"]) == ("huge", "DomainError", "False")
            assert [(r["id"], r["status"], r["pass"]) for r in malformed] == [
                ("no-path", "KeyError", "False"), ("", "KeyError", "False"),
                ("", "DomainError", "False"), ("bad-spec", "DomainError", "False"),
                ("bad-path", "DomainError", "False")]

    def test_ratio_past_the_int_string_limit_fails_only_its_row(self, tmp_path, capsys):
        # Each value has a 3000-digit denominator; the agents' ratios, sums
        # over their product, have about 6000 digits.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        row = [f"1/{10**2999 + k}" for k in (1, 1, 3, 3, 7, 7)]
        (corpus / "long.json").write_text(json.dumps({"n": 2, "m": 6, "values": [row, row]}))
        write_instance(corpus, [[5, 4, 3]], "easy.json")
        manifest = corpus / "manifest.json"
        manifest.write_text(json.dumps({"entries": [
            {"id": "long", "path": "long.json"}, {"id": "easy", "path": "easy.json"}]}))
        out_csv = tmp_path / "bench.csv"
        assert run(["bench", "-i", manifest, "-o", out_csv]) == 1
        assert json.loads(capsys.readouterr().out)["failed"] == 1
        long, easy = csv.DictReader(out_csv.open())
        assert (long["status"], long["min_ratio"], long["pass"]) == ("DomainError", "", "False")
        assert (easy["status"], easy["pass"]) == ("ok", "True")

    @pytest.mark.parametrize(
        "manifest", [[], "x", {"entries": None}, {"entries": 5}, {"entries": {}}],
        ids=["list", "string", "null-entries", "int-entries", "object-entries"])
    def test_manifest_without_entries_list_is_usage_error(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run(["bench", "-i", path]) == 2
        captured = capsys.readouterr()
        assert "'entries' list" in captured.err and captured.out == ""

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        manifest = write_corpus(default_corpus(1), tmp_path / "corpus")
        out_csv = tmp_path / "bench.csv"
        assert run(["bench", "-i", manifest, "-o", out_csv, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "--jobs must be at least 1" in captured.err and captured.out == ""
        assert not out_csv.exists()

    def test_bad_threshold_is_usage_error(self, tmp_path):
        manifest = write_corpus(default_corpus(1), tmp_path / "corpus")
        assert run(["bench", "-i", manifest, "--alpha", "1/0"]) == 2
        assert run(["bench", "-i", manifest, "--alpha", "9/10"]) == 2
