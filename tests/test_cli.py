from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import mmskit
from mmskit import GuaranteeViolation, allocation_from_json
from mmskit.cli import main
from mmskit.gen import default_corpus, write_corpus


def run(args):
    return main([str(a) for a in args])


def write_instance(tmp_path, rows, name="inst.json"):
    from mmskit import Instance, instance_to_json

    path = tmp_path / name
    path.write_text(instance_to_json(Instance.from_rows(rows)))
    return path


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

    def test_budget_exhaustion_exit_three(self, tmp_path):
        inst = write_instance(tmp_path, [[977, 953, 911, 877, 859, 823, 787, 757, 733, 701]])
        assert run(["mms", "-i", inst, "--agent", 1, "-d", 3, "--budget", 3]) == 3

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

    def test_zero_denominator_usage_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [[1, 1]])
        for args in (["solve", "--alpha", "1/0", "-i", inst],
                     ["solve", "--alpha", "3/4", "--delta", "1/0", "-i", inst],
                     ["reduce", "--epsilon", "1/0", "-i", inst]):
            assert run(args) == 2
            assert "zero denominator" in capsys.readouterr().err


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
        # the n=1 instance needs no search; the other exceeds a 3-node budget.
        # The CLI runs in a child process so that a hung worker pool fails the
        # test by timeout instead of stalling the suite.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_instance(corpus, [[5, 4, 3]], "easy.json")
        write_instance(corpus, [[977, 953, 911, 877, 859, 823, 787, 757, 733, 701]] * 3,
                       "hard.json")
        manifest = corpus / "manifest.json"
        manifest.write_text(json.dumps({"entries": [
            {"id": "easy", "path": "easy.json"}, {"id": "hard", "path": "hard.json"}]}))
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
            assert summary["instances"] == 2 and summary["failed"] == 1
            assert summary["all_pass"] is False
            easy, hard = csv.DictReader(out_csv.open())
            assert (easy["id"], easy["status"], easy["pass"]) == ("easy", "ok", "True")
            assert easy["min_ratio"] == "1"
            assert (hard["id"], hard["status"], hard["pass"]) == (
                "hard", "OracleBudgetExceeded", "False")
            assert hard["min_ratio"] == hard["agent_ratios"] == ""

    def test_bad_threshold_is_usage_error(self, tmp_path):
        manifest = write_corpus(default_corpus(1), tmp_path / "corpus")
        assert run(["bench", "-i", manifest, "--alpha", "1/0"]) == 2
        assert run(["bench", "-i", manifest, "--alpha", "9/10"]) == 2
