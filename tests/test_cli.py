"""The command-line front end stays a thin adapter over the library."""

import json
import subprocess
import sys

from bruhatb.cli import main
from bruhatb.orders import build_poset, poset_comparable, poset_from_json_obj


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bruhatb", *args],
                          capture_output=True, text=True)


class TestEnumerate:
    def test_type_b_level2(self, capsys):
        assert main(["enumerate", "--family", "B", "--n", "2", "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["[-2,-1]", "[2,*]", "[-2,1]", "[1,*]"]

    def test_json_format(self, capsys):
        assert main(["enumerate", "--family", "A", "--n", "3", "--k", "2",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == ["{1,2}", "{1,3}", "{2,3}"]

    def test_unsupported_level_exits_2(self, capsys):
        assert main(["enumerate", "--family", "B", "--n", "3", "--k", "4"]) == 2


class TestPoset:
    def test_json_counts(self, capsys):
        assert main(["poset", "--family", "B", "--n", "2", "--k", "1",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["nodes"]) == 8 and len(obj["edges"]) == 8

    def test_json_round_trips_through_library(self, capsys):
        assert main(["poset", "--family", "B", "--n", "2", "--k", "2",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert poset_from_json_obj(obj) == poset_comparable(build_poset("B", 2, 2))

    def test_text_summary(self, capsys):
        assert main(["poset", "--family", "A", "--n", "3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "nodes 6" in out and "graded True" in out

    def test_scope_limit_message(self, capsys):
        assert main(["poset", "--family", "B", "--n", "2", "--k", "3"]) == 2
        assert "k in {1, 2}" in capsys.readouterr().err

    def test_dot_deterministic_across_processes(self):
        a = run_cli("poset", "--family", "B", "--n", "2", "--k", "1",
                    "--format", "dot")
        b = run_cli("poset", "--family", "B", "--n", "2", "--k", "1",
                    "--format", "dot")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout.startswith("digraph")


class TestChains:
    def test_level2_single_chain(self, capsys):
        assert main(["chains", "--family", "B", "--n", "2", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "[2,1,*]"

    def test_level1_chain_count(self, capsys):
        assert main(["chains", "--family", "B", "--n", "2", "--k", "1",
                     "--format", "json"]) == 0
        chains = json.loads(capsys.readouterr().out)
        assert len(chains) == 2
        assert chains[0] == ["[-2,-1]", "[2,*]", "[-2,1]", "[1,*]"]


class TestExport:
    def test_requires_out(self, capsys):
        assert main(["export", "--family", "B", "--n", "2", "--k", "2"]) == 2

    def test_writes_dot_file(self, tmp_path):
        out = tmp_path / "poset.dot"
        assert main(["export", "--family", "B", "--n", "2", "--k", "2",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph")

    def test_writes_json_file(self, tmp_path):
        out = tmp_path / "poset.json"
        assert main(["export", "--family", "B", "--n", "2", "--k", "1",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert poset_from_json_obj(obj) == poset_comparable(build_poset("B", 2, 1))


class TestVerify:
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "--suite", "typeB-k2", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "FAIL" not in out

    def test_suite_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "weyl", "--n", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        reports = json.loads(out.read_text())
        assert reports and all(r["result"] for r in reports)

    def test_parallel_jobs_same_reports(self, tmp_path, capsys):
        seq = tmp_path / "seq.json"
        par = tmp_path / "par.json"
        assert main(["verify", "--suite", "appendix", "--n", "2",
                     "--out", str(seq)]) == 0
        assert main(["verify", "--suite", "appendix", "--n", "2",
                     "--jobs", "4", "--out", str(par)]) == 0
        capsys.readouterr()
        assert json.loads(seq.read_text()) == json.loads(par.read_text())

    def test_unknown_suite_is_usage_error(self):
        proc = run_cli("verify", "--suite", "bogus")
        assert proc.returncode == 2

    def test_failing_suite_exits_1_with_counterexample(self, monkeypatch, capsys):
        import bruhatb.cli as cli
        failing = [{"check": "demo", "params": {"n": 2}, "result": False,
                    "counterexample": {"rho": "(1 2)"}}]
        monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: failing)
        assert main(["verify", "--suite", "all", "--n", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexample" in out


    def test_rank_below_two_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "all", "--n", "0"]) == 2
        assert "--n >= 2" in capsys.readouterr().err

    def test_nonpositive_jobs_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "weyl", "--n", "2", "--jobs", "-3"]) == 2
        assert "--jobs >= 1" in capsys.readouterr().err

    def test_run_without_checks_fails(self, monkeypatch, capsys):
        import bruhatb.cli as cli
        monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: [])
        assert main(["verify", "--suite", "all", "--n", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "checks passed" not in out

    def test_unwritable_report_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["verify", "--suite", "weyl", "--n", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")


class TestUsage:
    def test_unwritable_poset_out_is_usage_error(self, tmp_path):
        proc = run_cli("poset", "--family", "B", "--n", "2", "--k", "1",
                       "--out", str(tmp_path / "missing" / "poset.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write")
        assert "Traceback" not in proc.stderr


    def test_missing_verb(self):
        assert run_cli().returncode == 2

    def test_node_budget_env(self):
        proc = run_cli("poset", "--family", "B", "--n", "3", "--k", "1",
                       "--format", "json")
        assert proc.returncode == 0
        import os
        env = dict(os.environ, BRUHAT_MAX_NODES="5")
        proc = subprocess.run(
            [sys.executable, "-m", "bruhatb", "poset", "--family", "B",
             "--n", "3", "--k", "1"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "BRUHAT_MAX_NODES" in proc.stderr
