"""CLI drivers: exit codes, report determinism, descriptor ingestion."""

from __future__ import annotations

import argparse
import enum
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import nilcrit
import nilcrit.cli as cli
from nilcrit.cli import build_parser, main, report_text

SRC = Path(nilcrit.__file__).resolve().parents[1]
SCALE_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_corpus_listing(self, capsys):
        code, out, _ = run(["corpus"], capsys)
        assert code == 0
        assert "S4" in out and "PSL2_7" in out

    def test_series(self, capsys):
        code, out, _ = run(["series", "S4"], capsys)
        assert code == 0
        assert "[24, 12, 4, 1]" in out

    def test_criterion_consistent_exit_zero(self, capsys):
        code, out, _ = run(["criterion", "S4", "S3", "--k", "1..2"], capsys)
        assert code == 0
        assert "0 inconsistencies" in out

    def test_criterion_routes_insoluble_to_probe(self, capsys):
        code, out, _ = run(["criterion", "A5", "--k", "1"], capsys)
        assert code == 0
        assert "probed" in out

    def test_gamma_kind(self, capsys):
        code, out, _ = run(["criterion", "S4", "--k", "1..2", "--kind", "gamma"], capsys)
        assert code == 0
        assert "consistent=True" in out

    def test_probe_exit_zero_without_candidates(self, capsys):
        code, out, _ = run(["probe", "A5", "S5", "--k", "1..2"], capsys)
        assert code == 0
        assert "0 candidate counterexamples" in out

    def test_focal(self, capsys):
        code, out, _ = run(["focal", "S4", "S3", "--k", "1..3"], capsys)
        assert code == 0
        assert "0 failures" in out

    def test_tower(self, capsys):
        code, out, _ = run(["tower", "S4"], capsys)
        assert code == 0
        assert "height 3" in out
        assert "[2, 3, 4]" in out

    def test_lemmas_single_group(self, capsys):
        code, out, _ = run(["lemmas", "S3", "--k", "1..2"], capsys)
        assert code == 0
        assert "0 failures" in out


class TestErrors:
    def test_unknown_group_exit_two(self, capsys):
        code, _, err = run(["series", "NoSuchGroup"], capsys)
        assert code == 2
        assert "builtin" in err

    def test_bad_descriptor_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.grp"
        path.write_text("degree: 3\ngen: [1, 1, 3]\n")
        code, _, err = run(["series", str(path)], capsys)
        assert code == 2
        assert "InvalidPermutation" in err

    def test_degree_above_256_exit_two(self, tmp_path, capsys):
        path = tmp_path / "wide.grp"
        path.write_text("degree: 257\ngen: (1 2)\n")
        code, _, err = run(["series", str(path)], capsys)
        assert code == 2
        assert "ParseError" in err and "limit of 256 points" in err

    def test_directory_as_descriptor_exit_two(self, tmp_path, capsys):
        code, _, err = run(["series", str(tmp_path)], capsys)
        assert code == 2
        assert "ParseError" in err and str(tmp_path) in err

    def test_undecodable_descriptor_exit_two(self, tmp_path, capsys):
        path = tmp_path / "binary.grp"
        path.write_bytes(b"degree: 3\n\xff\n")
        code, _, err = run(["series", str(path)], capsys)
        assert code == 2
        assert "ParseError" in err and str(path) in err

    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_unwritable_json_path_is_usage_error(self, target, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "S3", "--json", str(tmp_path / target)])
        assert exc.value.code == 2
        assert "argument --json" in capsys.readouterr().err

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["criterion", "--kind", "epsilon"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("depth", ["x", "3..1", "-1"])
    def test_bad_depth_is_usage_error(self, depth, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["criterion", "S3", "--k", depth])
        assert exc.value.code == 2
        assert "argument --k" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tower", "series"])
    @pytest.mark.parametrize("cap", ["0", "-5", "x"])
    def test_bad_cap_is_usage_error(self, command, cap, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "S4", "--cap", cap])
        assert exc.value.code == 2
        assert "argument --cap" in capsys.readouterr().err

    def test_cap_one_is_valid_and_enforced(self, capsys):
        code, _, err = run(["tower", "S4", "--cap", "1"], capsys)
        assert code == 1
        assert "exceeds cap 1" in err

    def test_depth_zero_is_valid(self, capsys):
        code, out, _ = run(["focal", "S3", "--k", "0"], capsys)
        assert code == 0
        assert "depths [0]" in out


class TestDescriptorIngestion:
    def test_file_group_through_cli(self, tmp_path, capsys):
        path = tmp_path / "v4.grp"
        path.write_text("id: V4copy\ndegree: 4\norder: 4\n"
                        "gen: (1 2)(3 4)\ngen: (1 3)(2 4)\n")
        code, out, _ = run(["series", str(path)], capsys)
        assert code == 0
        assert "[4, 1]" in out

    def test_degree_256_group_through_cli(self, tmp_path, capsys):
        path = tmp_path / "v4_256.grp"
        path.write_text("degree: 256\norder: 4\ngen: (1 256)(2 255)\ngen: (1 2)(255 256)\n")
        code, out, _ = run(["series", str(path)], capsys)
        assert code == 0
        assert "[4, 1]" in out


class TestReportDeterminism:
    def test_identical_reports_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code, _, _ = run(["criterion", "S4", "S3", "D12", "--k", "1..3",
                              "--json", str(p)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lemma_report_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "l1.json", tmp_path / "l2.json"]
        for p in paths:
            code, _, _ = run(["lemmas", "S4", "--k", "1..2", "--json", str(p)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("argv", [
        ["lemmas", "S4xC3", "--k", "1..3"],
        ["criterion", str(SCALE_CORPUS / "S4wrC2.grp"), "--k", "1..3"],
        ["focal", str(SCALE_CORPUS / "S4xS4.grp"), "--k", "1..3"],
        ["probe", str(SCALE_CORPUS / "PSL2_11.grp"), "--k", "1..3"],
        ["tower", "S3xS3"],
    ])
    def test_reports_identical_across_hash_seeds(self, argv):
        # bytes hashes are salted per process, so set iteration orders differ
        reports = []
        for seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
            proc = subprocess.run([sys.executable, "-m", "nilcrit.cli", *argv, "--json", "-"],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append(proc.stdout)
        assert b'"records"' in reports[0]
        assert reports[0] == reports[1]

    def test_report_shape(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        run(["probe", "A5", "--k", "1", "--json", str(path)], capsys)
        report = json.loads(path.read_text())
        assert report["tool"]["name"] == "nilcrit"
        assert report["command"] == "probe"
        assert report["aggregate"]["candidate_counterexamples"] == 0
        assert len(report["corpus_hash"]) == 64
        rec = report["records"][0]
        assert rec["criterion"]["holds"] is False
        w = rec["criterion"]["witness"]
        assert w["order_ab"] != w["order_a"] * w["order_b"]

    def test_witness_replays_from_serialized_images(self, tmp_path, capsys):
        from nilcrit.perm import Permutation
        path = tmp_path / "report.json"
        run(["probe", "A5", "--k", "1", "--json", str(path)], capsys)
        w = json.loads(path.read_text())["records"][0]["criterion"]["witness"]
        a = Permutation.from_one_based(w["a"]["images"])
        b = Permutation.from_one_based(w["b"]["images"])
        assert a.order() == w["order_a"]
        assert b.order() == w["order_b"]
        assert (a * b).order() == w["order_ab"] != a.order() * b.order()


def parse_outcome(parse, argv):
    """The Namespace parsed, or the exit code and the text written on the way out."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


SUBCOMMAND_ARGVS = [
    [],
    ["S4", "S3", "--k", "2", "--cap", "500", "--seed", "3", "--json", "-", "--strict",
     "--filter", "soluble"],
    ["--k=1..4", "--kind", "gamma"],
    ["--k", "x"], ["--k", "3..1"], ["--k", "-1"],
    ["--cap", "0"], ["--cap", "x"],
    ["--kind", "epsilon"],
    ["--json", "no/such/dir/r.json"], ["--json", "."],
    ["--filter", "odd"],
    ["--bogus"], ["S4", "--bogus", "1"], ["--bogus", "--k", "x"],
    ["--version"], ["-h"], ["S4", "--help"],
    ["--stri"], ["--s"],
    ["--", "S4", "--k"],
]


class TestSubcommandParser:
    """One subcommand's own parser against the full parser of every subcommand."""

    @staticmethod
    def full_subparser(name):
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices[name]

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_help_is_the_full_parsers(self, name):
        own = cli._subcommand_parser(name).format_help()
        assert own == self.full_subparser(name).format_help()

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    @pytest.mark.parametrize("rest", SUBCOMMAND_ARGVS, ids=" ".join)
    def test_parses_and_fails_as_the_full_parser(self, name, rest):
        argv = [name, *rest]
        expected = parse_outcome(build_parser().parse_args, argv)
        assert parse_outcome(cli._parse_args, argv) == expected

    @pytest.mark.parametrize("argv", [[], ["--version"], ["-h"], ["nosuch"], ["seri"],
                                      ["--bogus", "series"]])
    def test_other_argvs_go_to_the_full_parser(self, argv):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(
            build_parser().parse_args, argv)

    def test_leftover_arguments_are_reported_by_the_full_parser(self):
        code, _, err = parse_outcome(cli._parse_args, ["lemmas", "S4", "--bogus"])
        assert code == 2
        assert "nilcrit: error: unrecognized arguments: --bogus" in err

    def test_a_subcommand_runs_without_the_full_parser(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        code, out, _ = run(["series", "S4"], capsys)
        assert code == 0
        assert "[24, 12, 4, 1]" in out


def oracle_text(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


class Colour(enum.IntEnum):
    RED = 1


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2**200, max_value=2**200)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers()) | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers(), inner)),
    max_leaves=25)


class TestReportText:
    """The report writer against ``json.dumps(sort_keys=True, indent=2)``."""

    @given(json_values)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": [[], [{}]], "d": ()})
    @example({'"\\\n\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600': 'q"\t\u00ff\U0001f600'})
    @example([-1, 0, 10**30, -10**30, True, False, None, 1.5, float("nan"), float("-inf")])
    @example({"images": list(range(1, 257)), "nested": [[3, 1, 2], (4, 5)]})
    @example({"e": Colour.RED, "f": [Colour.RED, 2], "g": 2.0, "h": -0.0})
    @example({1: "int key", 2: [1]})
    def test_matches_json_dumps(self, value):
        assert report_text(value) == oracle_text(value)

    @pytest.mark.parametrize("value", [
        {"a": [1, object()]},
        {"a": {1, 2}},
        [{"k": {(1, 2): 3}}],
        {"mixed": {1: 0, "a": 0}},
    ])
    def test_rejects_what_json_dumps_rejects(self, value):
        with pytest.raises(TypeError) as expected:
            oracle_text(value)
        with pytest.raises(TypeError) as got:
            report_text(value)
        assert str(got.value) == str(expected.value)

    def test_cli_reports_match_json_dumps(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run(["probe", "A5", "--k", "1", "--json", str(path)], capsys)
        assert code == 0
        text = path.read_text()
        assert text == oracle_text(json.loads(text))
