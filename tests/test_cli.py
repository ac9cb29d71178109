"""The command-line front end stays a thin adapter over the library."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bruhatb
from bruhatb.cli import main
from bruhatb.orders import build_poset, poset_comparable, poset_from_json_obj

# the directory the imported package lives in, first on the child's path, so
# that the child runs the same checkout as this process
SRC = str(Path(bruhatb.__file__).resolve().parent.parent)


def run_cli(*args, **env):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "bruhatb", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


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


class TestChainBudget:
    # sha256 of the standard output of `chains`, pinned from the listing
    # before the chain budget existed
    GOLDEN = {
        ("B", 3, 1, "text"): "f1c6bb213deabe15210f4b49ac91a872f33b387a1d41edeb614d022a4d98382e",
        ("B", 3, 1, "json"): "bffaaa5f9299d3c3508f2a5923cdc33633fa62fd0c216cfb837d378120da986c",
        ("A", 4, 1, "text"): "32fe2b5a51c53d1208c161f2d9e3e78ae87773ff6db41f326472d00542b0e5be",
        ("A", 4, 1, "json"): "3b9c6b8d4d115a33e48de294cc4cfced5226d111361927218f2fa55258906245",
        ("B", 2, 2, "text"): "55d31f98915aad11d67d092121d6f8d0759929ee62e3870e57a7b119e72fa8a3",
        ("B", 2, 2, "json"): "9982b48da7d05db99626f94763a5b6a5f19faf812a9fe61b919167a368110110",
    }

    @staticmethod
    def chains(family, n, k, fmt="text"):
        return main(["chains", "--family", family, "--n", str(n), "--k", str(k),
                     "--format", fmt])

    @pytest.mark.parametrize("family,n,k,fmt", sorted(GOLDEN))
    def test_listing_under_the_budget_is_unchanged(self, capsys, family, n, k, fmt):
        assert self.chains(family, n, k, fmt) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[family, n, k, fmt]

    def test_over_the_budget_lists_nothing(self, monkeypatch, capsys):
        # B(5,1) has 701,149,020 chains, one per reduced word of B_5's longest
        # element: the standard Young tableaux of the 5 x 5 square, by the
        # hook-length formula 25! / (1 * 2^2 * 3^3 * 4^4 * 5^5 * 6^4 * ... * 9);
        # over the default budget of 10^6
        import bruhatb.cli as cli

        def not_listed(p):
            raise AssertionError("chains listed over the budget")
        monkeypatch.setattr(cli, "maximal_chains", not_listed)
        assert self.chains("B", 5, 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: B(5,1) has 701149020 maximal chains, over "
                                "the budget of 1000000 (BRUHAT_MAX_CHAINS)\n")

    def test_budget_is_inclusive(self, monkeypatch, capsys):
        # B(2,1) has 2 chains
        monkeypatch.setenv("BRUHAT_MAX_CHAINS", "2")
        assert self.chains("B", 2, 1) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        monkeypatch.setenv("BRUHAT_MAX_CHAINS", "1")
        assert self.chains("B", 2, 1) == 2
        assert "has 2 maximal chains, over the budget of 1 " in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1", "abc"])
    def test_bad_budget_is_usage_error(self, monkeypatch, capsys, budget):
        monkeypatch.setenv("BRUHAT_MAX_CHAINS", budget)
        assert self.chains("B", 2, 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: BRUHAT_MAX_CHAINS must be a positive "
                                f"integer, got {budget!r}\n")


class TestExport:
    def test_requires_out(self, capsys):
        assert main(["export", "--family", "B", "--n", "2", "--k", "2"]) == 2
        assert capsys.readouterr().err == "error: export needs --out\n"

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


    def test_raising_task_fails_the_run(self, monkeypatch, capsys):
        import bruhatb.verify as verify

        def boom():
            raise ValueError("internal slip")
        monkeypatch.setattr(verify, "_suite_tasks",
                            lambda name, n: [boom, lambda: verify._report(
                                "demo", {"n": n}, True)])
        assert main(["verify", "--suite", "weyl", "--n", "2"]) == 1
        captured = capsys.readouterr()
        fail = [line for line in captured.out.splitlines()
                if line.startswith("FAIL")]
        assert len(fail) == 1 and "ValueError: internal slip" in fail[0]
        assert "in boom" in captured.out    # the traceback is reported
        assert "ok   demo" in captured.out and not captured.err

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

    def test_dot_format_rejected_for_listings(self):
        for verb in ("enumerate", "chains"):
            proc = run_cli(verb, "--family", "B", "--n", "2", "--format", "dot")
            assert proc.returncode == 2 and proc.stdout == ""
            assert "invalid choice: 'dot'" in proc.stderr

    def test_node_budget_env(self):
        proc = run_cli("poset", "--family", "B", "--n", "3", "--k", "1",
                       "--format", "json")
        assert proc.returncode == 0
        proc = run_cli("poset", "--family", "B", "--n", "3", "--k", "1",
                       BRUHAT_MAX_NODES="5")
        assert proc.returncode == 2
        assert "BRUHAT_MAX_NODES" in proc.stderr
        proc = run_cli("poset", "--family", "B", "--n", "3", "--k", "1",
                       BRUHAT_MAX_NODES="abc")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: BRUHAT_MAX_NODES must be a positive integer")

    def test_internal_error_exits_3(self, monkeypatch, capsys):
        # exit 1 means a check failed, so an unexpected exception gets its own
        import bruhatb.cli as cli

        def broken(*args):
            raise RuntimeError("a new heap has the canonical form of a known class")
        monkeypatch.setattr(cli, "build_poset", broken)
        assert main(["poset", "--family", "B", "--n", "3", "--k", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: internal: RuntimeError: a new heap")
