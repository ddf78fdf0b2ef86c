"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_blocks, split_blocks
from repro.cobalt.dsl import ForwardPattern, PureAnalysis

GOOD_COBALT = """
forward optimization cliConstProp {
  stmt(Y := C)
  followed by
  !mayDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}

analysis cliTaint {
  stmt(decl X)
  followed by
  !stmt(... := &X)
  defines
  notTainted(X)
  with witness
  notPointedTo(X)
}
"""

BAD_COBALT = """
forward optimization cliBroken {
  stmt(Y := C)
  followed by
  !syntacticDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}
"""

PROGRAM = """
main(n) {
  decl a;
  decl b;
  a := 2;
  b := a;
  return b;
}
"""


@pytest.fixture()
def cobalt_file(tmp_path):
    path = tmp_path / "opts.cobalt"
    path.write_text(GOOD_COBALT)
    return str(path)


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.il"
    path.write_text(PROGRAM)
    return str(path)


class TestBlockSplitting:
    def test_splits_two_blocks(self):
        blocks = split_blocks(GOOD_COBALT)
        assert len(blocks) == 2
        assert blocks[0].lstrip().startswith("forward optimization")
        assert blocks[1].lstrip().startswith("analysis")

    def test_parse_blocks_types(self):
        items = parse_blocks(GOOD_COBALT)
        assert isinstance(items[0], ForwardPattern)
        assert isinstance(items[1], PureAnalysis)

    def test_empty_file_rejected(self):
        with pytest.raises(SystemExit):
            split_blocks("// nothing here")


class TestCheckCommand:
    def test_check_sound_file(self, cobalt_file, capsys):
        assert main(["check", cobalt_file]) == 0
        out = capsys.readouterr().out
        assert "cliConstProp: SOUND" in out
        assert "cliTaint: SOUND" in out

    def test_check_unsound_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cobalt"
        path.write_text(BAD_COBALT)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "counterexample context" in out


class TestWitnessInference:
    def test_infer_flag_rescues_missing_witness(self, tmp_path, capsys):
        # Correct guard/rule but a useless witness: plain check fails,
        # --infer-witness reconstructs eta(Y) == C and proves it.
        source = """
        forward optimization lazyConstProp {
          stmt(Y := C)
          followed by
          !mayDef(Y)
          until
          X := Y  =>  X := C
          with witness
          true
        }
        """
        path = tmp_path / "lazy.cobalt"
        path.write_text(source)
        assert main(["check", str(path)]) == 1
        assert main(["check", str(path), "--infer-witness"]) == 0
        out = capsys.readouterr().out
        assert "inferred witness" in out


class TestRunCommand:
    def test_run(self, program_file, capsys):
        assert main(["run", program_file, "5"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_run_stuck(self, tmp_path, capsys):
        path = tmp_path / "stuck.il"
        path.write_text("main(n) { decl x; x := 1 / n; return x; }")
        assert main(["run", str(path), "0"]) == 2


class TestOptCommand:
    def test_opt_with_trust(self, program_file, capsys):
        assert main(["opt", program_file, "--passes", "constProp", "--trust"]) == 0
        out = capsys.readouterr().out
        assert "b := 2" in out

    def test_opt_verifies_first(self, program_file, capsys):
        assert main(["opt", program_file, "--passes", "constProp"]) == 0
        err = capsys.readouterr().err
        assert "constProp: sound" in err

    def test_unknown_pass(self, program_file):
        with pytest.raises(SystemExit):
            main(["opt", program_file, "--passes", "noSuchPass", "--trust"])

    def test_engine_stats_flag(self, program_file, capsys):
        code = main(
            ["opt", program_file, "--passes", "constProp", "--trust",
             "--engine-stats"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "b := 2" in captured.out
        assert "engine stats:" in captured.err
        assert "worklist pops" in captured.err
        assert "hit rate" in captured.err

    def test_engine_flag_is_gone(self, program_file, capsys):
        """The reference sweep was retired; its selector is an argparse
        error (exit 2), not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["opt", program_file, "--passes", "constProp", "--trust",
                  "--engine", "reference"])
        assert exc.value.code == 2
        # argparse reads ``--engine`` as an abbreviation of
        # ``--engine-stats``, which takes no value.
        assert "unrecognized arguments: reference" in capsys.readouterr().err

    def test_pipeline(self, program_file, capsys):
        code = main(
            [
                "opt",
                program_file,
                "--passes",
                "constProp,deadAssignElim",
                "--trust",
                "--iterate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skip" in out  # a := 2 became dead and was removed


class TestCounterexampleCommand:
    def test_synthesizes_for_unsound(self, tmp_path, capsys):
        path = tmp_path / "bad.cobalt"
        path.write_text(BAD_COBALT)
        assert main(["counterexample", str(path)]) == 1
        out = capsys.readouterr().out
        assert "miscompilation found" in out


@pytest.fixture()
def small_suite(monkeypatch):
    """Shrink the shipped suite to one optimization so CLI runs are fast."""
    from repro import opts as suite

    keep = [o for o in suite.ALL_OPTIMIZATIONS if o.name == "constProp"]
    assert keep
    monkeypatch.setattr(suite, "ALL_ANALYSES", [])
    monkeypatch.setattr(suite, "ALL_OPTIMIZATIONS", keep)
    return keep


class TestJsonOutput:
    """``--json`` must emit exactly the daemon's wire schema — the CLI
    document and ``SuiteReport.to_wire()`` may not drift."""

    def test_suite_json_matches_to_wire(self, small_suite, capsys):
        import json

        from repro.api import SuiteReport, verify_suite
        from repro.service.wire import WIRE_VERSION

        assert main(["suite", "--json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["schema_version"] == WIRE_VERSION
        assert doc["kind"] == "suite-report"
        # The progress table moved to stderr: stdout is one JSON document.
        assert "SOUND" not in captured.out
        assert "constProp" in captured.err

        local = verify_suite()
        reference = local.to_wire()
        assert set(doc) == set(reference)
        decoded = SuiteReport.from_wire(doc)
        assert decoded.canonical() == local.canonical()
        assert decoded.backend == local.backend

    def test_suite_without_json_keeps_table_on_stdout(self, small_suite,
                                                      capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "constProp" in out and "SOUND" in out

    def test_cache_stats_json_document(self, tmp_path, capsys):
        import json

        from repro.service.wire import dumps, envelope
        from repro.verify.cache import SCHEMA_VERSION

        target = str(tmp_path / "cache")
        assert main(["cache", "stats", "--dir", target, "--json"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == dumps(envelope("cache-stats", {
            "location": target,
            "objects": 0,
            "schema": SCHEMA_VERSION,
        }))
        json.loads(out)  # and it is valid JSON

    def test_fuzz_json_carries_the_canonical_report(self, capsys):
        import json

        args = ["fuzz", "--kind", "axioms", "--cases", "2", "--seed", "7",
                "--no-corpus", "--quiet"]
        assert main(args) == 0
        plain = capsys.readouterr().out.strip()
        assert main(args + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "fuzz-report"
        assert doc["ok"] is True
        assert doc["seed"] == 7
        [campaign] = doc["campaigns"]
        assert campaign["kind"] == "axioms"
        assert campaign["canonical"] == plain


class TestRetiredProverFlag:
    def test_prover_alias_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["--prover", "incremental", "suite"])
        assert "--prover-mode" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kernel", "reference", "verify"],
            ["--prover-mode", "reference", "verify"],
        ],
        ids=["kernel", "prover-mode"],
    )
    def test_twin_selectors_are_gone(self, argv, capsys):
        """The reference kernel and search mode were retired; selecting
        them is an argparse error (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "repro-cobalt: error:" in capsys.readouterr().err


class TestServeSubcommand:
    def test_serve_is_registered_with_defaults(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.fn is cmd_serve
        assert args.port == 0
        assert args.host == "127.0.0.1"
        assert args.max_jobs == 8
        assert args.burst == 20.0
