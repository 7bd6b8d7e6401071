import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dpln
from dpln import cli
from dpln.cli import (ConfigError, ExperimentConfig, main, parse_config_text,
                      run_fruit_colors, run_joint, run_learn_formula)
from dpln.chainer import MAX_SEARCH_DEPTH, ChainConfig, backward_chain
from dpln.sexpr import MAX_DEPTH

import learn_formula_reference as reference
from conftest import tall_implication_kb

SPARROW_KB = """
(InheritanceLink (stv 1.0 1.0) (ConceptNode "sparrow") (ConceptNode "bird"))
(InheritanceLink (stv 1.0 1.0) (ConceptNode "bird") (ConceptNode "animal"))
"""

APPLE_KB = """
(ImplicationLink (stv 0.7 0.9)
    (PredicateNode "apple") (PredicateNode "green"))
(EvaluationLink (stv 1.0 1.0)
    (PredicateNode "apple") (ConceptNode "apple-001"))
"""

FRUIT_CONFIG = """
# single fruit, two colors
fruits = ["apple"]
colors = ["green", "red"]
probabilities.apple.green = 0.7
probabilities.apple.red = 0.3
n_samples = 40
lr = 0.1
steps = 60
seed = 7
"""


def test_parse_config_text_values():
    cfg = parse_config_text("""
    # a full-line comment
    name = "hello"
    count = 12
    rate = 0.5
    flag = true
    other = false
    items = ["a", "b"]
    nested.inner.leaf = 3
    """)
    assert cfg["name"] == "hello"
    assert cfg["count"] == 12 and isinstance(cfg["count"], int)
    assert cfg["rate"] == 0.5 and isinstance(cfg["rate"], float)
    assert cfg["flag"] is True and cfg["other"] is False
    assert cfg["items"] == ["a", "b"]
    assert cfg["nested"] == {"inner": {"leaf": 3}}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match=r"\(at line 2, column 4\)$"):
        parse_config_text("seed = 1\nlr 0.5")
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigError):
        parse_config_text("key = @nonsense")
    with pytest.raises(ConfigError):
        parse_config_text("= value")


def test_experiment_config_load_and_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(FRUIT_CONFIG)
    cfg = ExperimentConfig.load(str(path), {"steps": 5, "out_dir": None})
    assert cfg.fruits == ["apple"]
    assert cfg.n_samples == 40
    assert cfg.steps == 5  # flag override wins
    assert cfg.out_dir == "out"  # None overrides are ignored


def test_experiment_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(str(path), {})


def test_validate_fruit_bad_probabilities():
    cfg = ExperimentConfig(fruits=["apple"], colors=["green", "red"],
                           true_probabilities={"apple": {"green": 0.7,
                                                         "red": 0.4}})
    with pytest.raises(ConfigError) as err:
        cfg.validate_fruit()
    assert "apple" in str(err.value)

    cfg.true_probabilities = {"apple": {"green": 1.0}}
    with pytest.raises(ConfigError):
        cfg.validate_fruit()


@pytest.mark.parametrize("green, red, bad", [(1.5, -0.5, "green"),
                                             (-0.5, 1.5, "green"),
                                             (1.0, float("nan"), "red")])
def test_validate_fruit_probability_outside_unit_interval(green, red, bad):
    """Each probability must lie in [0, 1], even when they sum to 1."""
    cfg = ExperimentConfig(fruits=["apple"], colors=["green", "red"],
                           true_probabilities={"apple": {"green": green,
                                                         "red": red}})
    with pytest.raises(ConfigError, match=r"probabilities\.apple\.%s must "
                       r"be a number in \[0, 1\]" % bad):
        cfg.validate_fruit()


def test_fruit_colors_report_structure(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FRUIT_CONFIG)
    out = tmp_path / "out"
    rc = main(["fruit-colors", "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "fruit-colors"
    pairs = {(p["fruit"], p["color"]) for p in report["pairs"]}
    assert pairs == {("apple", "green"), ("apple", "red")}
    assert len(report["pairs"]) == 2  # each pair exactly once
    for p in report["pairs"]:
        assert p["abs_diff"] == pytest.approx(
            abs(p["learned"] - p["empirical"]), abs=1e-9)
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 1 + 60


def test_fruit_colors_degenerate_distribution(tmp_path):
    cfg = ExperimentConfig(
        experiment="fruit-colors", fruits=["apple"], colors=["green", "red"],
        true_probabilities={"apple": {"green": 1.0, "red": 0.0}},
        n_samples=30, lr=0.5, steps=800, seed=1,
        out_dir=str(tmp_path / "out"))
    result = run_fruit_colors(cfg)
    learned = {p["color"]: p["learned"] for p in result["pairs"]}
    assert learned["green"] >= 0.99
    assert learned["red"] <= 0.01


def test_fruit_colors_instance_naming(tmp_path):
    cfg = ExperimentConfig(
        experiment="fruit-colors", fruits=["kiwi"], colors=["green", "red"],
        true_probabilities={"kiwi": {"green": 0.5, "red": 0.5}},
        n_samples=3, steps=2, seed=0, out_dir=str(tmp_path / "out"))
    run_fruit_colors(cfg)
    # zero-padded 1-based instance names, mirroring "apple-001"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_samples"] == 3


def test_reports_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FRUIT_CONFIG)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["fruit-colors", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_invalid_probabilities_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FRUIT_CONFIG.replace("0.3", "0.4"))
    assert main(["fruit-colors", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("names, message", [
    ('fruits = ["apple"]\ncolors = ["red", "red"]\n'
     'probabilities.apple.red = 0.5\n', "'red' repeats"),
    ('fruits = ["apple", "apple"]\ncolors = ["green", "red"]\n'
     'probabilities.apple.green = 0.7\nprobabilities.apple.red = 0.3\n',
     "'apple' repeats"),
    ('fruits = ["apple", "green"]\ncolors = ["green", "red"]\n'
     'probabilities.apple.green = 0.7\nprobabilities.apple.red = 0.3\n'
     'probabilities.green.green = 0.5\nprobabilities.green.red = 0.5\n',
     "'green' repeats"),
], ids=["color-twice", "fruit-twice", "fruit-and-color"])
def test_fruit_config_repeated_name_exits_1(tmp_path, capsys, names, message):
    """A fruit or colour listed twice, or a name that is both, is a config
    error: no run samples or reports a pair twice."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(names + "n_samples = 5\nsteps = 2\n")
    assert main(["fruit-colors", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_learn_formula_zero_steps(tmp_path):
    cfg = ExperimentConfig(experiment="learn-formula", steps=0, lr=2.0,
                           out_dir=str(tmp_path / "out"))
    result = run_learn_formula(cfg)
    assert all(v == 0.0 for v in result["weights"].values())
    # untrained sigmoid outputs 0.5 everywhere; worst target is 0.2 or 1.0
    assert result["max_abs_error"] == pytest.approx(0.5)


@pytest.mark.parametrize("neg_conditional", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("steps", [0, 30])
@pytest.mark.parametrize("grid_size,heldout_size",
                         [(g, h) for g in (1, 3, 5) for h in (2, 3, 7)])
def test_learn_formula_matches_the_direct_path(tmp_path, grid_size,
                                               heldout_size, steps,
                                               neg_conditional):
    """learn-formula through the KB, the chainer and train reports exactly
    what the direct loss closure did (tests/learn_formula_reference.py),
    also where every held-out point is a training point (grid 3, held-out
    3)."""
    def run(runner, name):
        cfg = ExperimentConfig(
            experiment="learn-formula", lr=2.0, steps=steps,
            grid_size=grid_size, heldout_size=heldout_size,
            neg_conditional=neg_conditional, out_dir=str(tmp_path / name))
        return runner(cfg), [(tmp_path / name / f).read_bytes()
                             for f in ("report.json", "loss.csv")]

    assert run(run_learn_formula, "kb") == run(reference.run_learn_formula,
                                               "reference")


def test_joint_zero_steps(tmp_path):
    """joint with no steps trains nothing: the strengths stay at 0.5, and
    the zero-weight formula predicts sigmoid(0) = 0.5 for every held-out
    target, each read through predict."""
    cfg = ExperimentConfig(experiment="joint", steps=0, lr=2.0,
                           out_dir=str(tmp_path / "out"))
    result = run_joint(cfg)
    assert all(v == 0.0 for v in result["weights"].values())
    assert result["learned_strengths"] == [0.5] * 6
    assert (tmp_path / "out" / "loss.csv").read_text().splitlines() == \
        ["step,loss"]
    # exact modus ponens at P(B|not A) = 0.2: hidden contexts at P(A) 0.7
    # and 0.9, then the known-strength grid midpoints
    targets = [s * p_a + 0.2 * (1.0 - p_a) for s in result["true_strengths"]
               for p_a in (0.7, 0.9)]
    targets += [p_bga * p_a + 0.2 * (1.0 - p_a) for p_a in (0.3, 0.6, 0.9)
                for p_bga in (0.25, 0.45, 0.65)]
    assert result["max_heldout_abs_error"] == max(abs(0.5 - t) for t in targets)
    assert result["max_heldout_abs_error"] == pytest.approx(0.285)


@pytest.mark.parametrize("runner,steps,count", [
    (run_learn_formula, 30, 9), (run_joint, 0, 21), (run_joint, 30, 21)],
    ids=["learn-formula", "joint-0-steps", "joint-30-steps"])
def test_heldout_targets_have_one_proof_that_predict_reads(
        tmp_path, monkeypatch, runner, steps, count):
    """Every held-out target that learn-formula (grid 3, held-out 3: each
    held-out point is also a training point) and joint read through
    predict has exactly one backward_chain proof at depth 1, and its
    replayed strength is predict's."""
    calls = []
    predict = cli.predict

    def checking(kb, rules, dataset, depth):
        strengths = predict(kb, rules, dataset, depth)
        for ex, strength in zip(dataset, strengths):
            proofs = backward_chain(kb, rules, ex.target,
                                    ChainConfig(max_depth=1))
            assert len(proofs) == 1
            assert proofs[0][1].value == strength.value
        calls.append(len(dataset))
        return strengths
    monkeypatch.setattr(cli, "predict", checking)
    runner(ExperimentConfig(lr=2.0, steps=steps, grid_size=3, heldout_size=3,
                            out_dir=str(tmp_path)))
    assert calls == [count]


def test_chain_forward_command(tmp_path, capsys):
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text(SPARROW_KB)
    rc = main(["chain", "--kb", str(kb_path), "--forward", "--steps", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '(InheritanceLink (stv 1 ' in out
    assert '(ConceptNode "sparrow") (ConceptNode "animal")' in out


def test_chain_backward_command(tmp_path, capsys):
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text(APPLE_KB)
    rc = main(["chain", "--kb", str(kb_path), "--target",
               '(EvaluationLink (PredicateNode "green") '
               '(ConceptNode "apple-001"))'])
    assert rc == 0
    out = capsys.readouterr().out
    # P(A)=1: conclusion strength equals the stored implication strength
    assert "strength 0.7" in out
    assert '(PredicateNode "green")' in out


def test_chain_repeated_target_variable(tmp_path, capsys):
    """Over Inh(a, b) and Inh(b, a) at depth 2, --target Inh($T, $T) prints
    the lines the ground Inh(a, a) and Inh(b, b) print, in their order."""
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text('(ConceptNode (stv 0.4 0.9) "a")\n'
                       '(ConceptNode (stv 0.7 0.9) "b")\n'
                       '(InheritanceLink (stv 0.9 0.8) (ConceptNode "a") '
                       '(ConceptNode "b"))\n'
                       '(InheritanceLink (stv 0.6 0.9) (ConceptNode "b") '
                       '(ConceptNode "a"))\n')

    def chain(target):
        assert main(["chain", "--kb", str(kb_path), "--target", target,
                     "--depth", "2"]) == 0
        return capsys.readouterr().out.splitlines()

    got = chain('(InheritanceLink (VariableNode "$T") (VariableNode "$T"))')
    assert len(got) == 4
    for name in "ab":
        ground = '(InheritanceLink (ConceptNode "%s") (ConceptNode "%s"))' % (
            name, name)
        expected = chain(ground)
        assert len(expected) == 2
        assert [line for line in got if line.startswith(ground + " ;")] == expected


def test_chain_depth_bound(tmp_path, capsys):
    """--depth up to MAX_SEARCH_DEPTH runs; above it exits 1, never with
    a RecursionError's exit 2."""
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text('(InheritanceLink (stv 0.9 0.9) (ConceptNode "a") '
                       '(ConceptNode "b"))\n')
    chain = ["chain", "--kb", str(kb_path), "--target",
             '(InheritanceLink (ConceptNode "a") (ConceptNode "b"))', "--depth"]
    assert main(chain + [str(MAX_SEARCH_DEPTH)]) == 0
    assert "strength 0.9" in capsys.readouterr().out
    for depth in (MAX_SEARCH_DEPTH + 1, 10 ** 6):
        assert main(chain + [str(depth)]) == 1
        assert ("max_depth must be <= %d" % MAX_SEARCH_DEPTH
                in capsys.readouterr().err)


def test_chain_depth_200_on_a_tall_chain(tmp_path, capsys):
    """On a 200-link implication chain, --depth 200 exits 0: the search for
    Eval(p200, y) descends the whole chain to Eval(p0, y) and finds the
    proofs from the Eval(p199, y) fact, one per modus ponens rule of the
    standard set.  (The chain's end for x is not asked here: with two modus
    ponens rules its proofs double at every link.)"""
    kb_path = tmp_path / "tall.scm"
    kb_path.write_text(tall_implication_kb(200))
    assert main(["chain", "--kb", str(kb_path), "--target",
                 '(EvaluationLink (PredicateNode "p200") (ConceptNode "y"))',
                 "--depth", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("; strength 0.9")


def test_chain_backward_underivable_is_empty_success(tmp_path, capsys):
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text(APPLE_KB)
    rc = main(["chain", "--kb", str(kb_path), "--target",
               '(EvaluationLink (PredicateNode "purple") '
               '(ConceptNode "apple-001"))'])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_chain_malformed_kb(tmp_path, capsys):
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text('(ConceptNode "ok")\n(WhatLink (ConceptNode "x"))\n')
    rc = main(["chain", "--kb", str(kb_path), "--forward"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("stv", ["(stv 1.5 0.9)", "(stv nan 0.9)",
                                 "(stv 0.5 2)"])
def test_chain_out_of_range_stv(tmp_path, capsys, stv):
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text('(ConceptNode "ok")\n(ConceptNode %s "x")\n' % stv)
    rc = main(["chain", "--kb", str(kb_path), "--forward"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_experiment_config_neg_conditional_range(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("neg_conditional = 1.5\n")
    assert main(["learn-formula", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1


def test_chain_missing_file(tmp_path, capsys):
    rc = main(["chain", "--kb", str(tmp_path / "absent.scm"), "--forward"])
    assert rc == 1


def _nested_list_kb(levels: int) -> str:
    """A ConceptNode fact, then one form nested ``levels`` deep on line 2."""
    return ('(ConceptNode "ok")\n' + "(ListLink " * (levels - 1)
            + '(ConceptNode "x")' + ")" * (levels - 1) + "\n")


def test_chain_too_deep_nesting_exits_1(tmp_path, capsys):
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text(_nested_list_kb(3000))
    rc = main(["chain", "--kb", str(kb_path), "--forward"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_chain_nesting_at_limit_runs(tmp_path):
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text(_nested_list_kb(MAX_DEPTH))
    assert main(["chain", "--kb", str(kb_path), "--forward"]) == 0


@pytest.mark.parametrize("line", ['steps = "abc"', "lr = true",
                                  'fruits = ["apple", 3]', "out = 5"])
def test_experiment_config_bad_value_type(tmp_path, capsys, line):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(line + "\n")
    assert main(["learn-formula", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert repr(line.split()[0]) in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key, value", [
    ("learn-formula", "seed = 7 # note\n", "seed", 7),
    ("fruit-colors", 'fruits = ["a, b", "c"]\ncolors = ["green"]\n'
     'probabilities."a, b".green = 1\nprobabilities.c.green = 1\n'
     "n_samples = 3\n", "pairs", [["a, b", "green"], ["c", "green"]]),
])
def test_config_toml_comments_and_quoted_commas(tmp_path, command, config,
                                                key, value):
    """A comment after a value, and a comma inside a quoted list item, are
    TOML that the experiment commands accept."""
    cfg_path, out = tmp_path / "cfg.txt", tmp_path / "out"
    cfg_path.write_text(config)
    assert main([command, "--config", str(cfg_path), "--steps", "2",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    if key == "pairs":
        report[key] = [[p["fruit"], p["color"]] for p in report[key]]
    assert report[key] == value


def test_import_leaves_tomllib_unloaded():
    """tomllib is imported when a config is read, and dpln.replay when
    trace_loss first compiles, not with dpln.cli."""
    code = ("import sys, dpln.cli; "
            "print('tomllib' in sys.modules, 'dpln.replay' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(dpln.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False False\n"


def test_experiment_config_int_for_float(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("lr = 1\nneg_conditional = 0\n")
    cfg = ExperimentConfig.load(str(cfg_path), {})
    assert cfg.lr == 1 and cfg.neg_conditional == 0


@pytest.mark.parametrize("args", [["learn-formula", "--lr", "0"],
                                  ["learn-formula", "--steps", "-1"],
                                  ["fruit-colors", "--steps", "0"]])
def test_experiment_bad_lr_or_steps_exits_1(tmp_path, args):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FRUIT_CONFIG)
    assert main(args + ["--config", str(cfg_path),
                        "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("mode", [["--target", '(InheritanceLink '
                                  '(ConceptNode "sparrow") (ConceptNode "animal"))',
                                  "--steps", "0"],
                                  ["--forward", "--depth", "0"]])
def test_chain_ignores_the_other_modes_bound(tmp_path, capsys, mode):
    """--steps only bounds --forward and --depth only bounds --target, so
    a zero for the unused one is not an error."""
    kb_path = tmp_path / "kb.scm"
    kb_path.write_text(SPARROW_KB)
    assert main(["chain", "--kb", str(kb_path)] + mode) == 0
    assert '(ConceptNode "sparrow") (ConceptNode "animal")' in capsys.readouterr().out


SPARROW_TARGET = ('(InheritanceLink (ConceptNode "sparrow") '
                  '(ConceptNode "animal"))')

# case -> (argument list with {kb}/{cfg}/{raw}/{out} placeholders, message)
BAD_INPUTS = {
    "chain --depth 0": (["chain", "--kb", "{kb}", "--target", SPARROW_TARGET,
                         "--depth", "0"], "max_depth must be >= 1"),
    "chain --forward --steps 0": (["chain", "--kb", "{kb}", "--forward",
                                   "--steps", "0"], "max_steps must be >= 1"),
    "--kb is a directory": (["chain", "--kb", "{dir}", "--forward"],
                            "Is a directory"),
    "--config is a directory": (["learn-formula", "--config", "{dir}"],
                                "Is a directory"),
    "--kb not UTF-8": (["chain", "--kb", "{raw}", "--forward"], "decode"),
    "--config not UTF-8": (["learn-formula", "--config", "{raw}"], "decode"),
    "fruit-colors --lr inf": (["fruit-colors", "--config", "{cfg}",
                               "--lr", "inf"], "lr must be positive and finite"),
    "joint --lr inf": (["joint", "--lr", "inf"],
                       "lr must be positive and finite"),
    "learn-formula --lr inf": (["learn-formula", "--lr", "inf"],
                               "lr must be positive and finite"),
    "config lr = 1e999": (["learn-formula", "--config", "{big_lr}"],
                          "lr must be positive and finite"),
    "KB BindLink": (["chain", "--kb", "{bindlink}", "--forward"],
                    "line 2: unknown atom type 'BindLink'"),
    "--target with a nested stv": (["chain", "--kb", "{kb}", "--target",
                                    '(InheritanceLink (ConceptNode "sparrow")'
                                    '\n(ConceptNode (stv 0.3 0.9) "animal"))'],
                                   "line 2: a query cannot carry a truth value"),
    "fruit probability above 1": (["fruit-colors", "--config", "{bad_prob}"],
                                  "probabilities.apple.green must be a "
                                  "number in [0, 1]"),
    "config list nested 2000 deep": (["learn-formula", "--config", "{deep}"],
                                     "config nests too deeply (at line 1)"),
    "config list nested 600 deep on line 3": (
        ["learn-formula", "--config", "{deep3}"],
        "config nests too deeply (at line 3)"),
    "KB form with two truth values": (
        ["chain", "--kb", "{double_stv}", "--forward"],
        "line 3: multiple truth values in one form"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_1_with_message(tmp_path, capsys, case):
    paths = {"kb": tmp_path / "kb.scm", "cfg": tmp_path / "cfg.txt",
             "raw": tmp_path / "latin1.txt", "big_lr": tmp_path / "lr.txt",
             "dir": tmp_path / "a-directory",
             "bindlink": tmp_path / "bindlink.scm",
             "bad_prob": tmp_path / "bad_prob.txt",
             "deep": tmp_path / "deep.txt", "deep3": tmp_path / "deep3.txt",
             "double_stv": tmp_path / "double_stv.scm"}
    paths["kb"].write_text(SPARROW_KB)
    paths["cfg"].write_text(FRUIT_CONFIG)
    paths["raw"].write_bytes(b'(ConceptNode "caf\xe9")\n')
    paths["big_lr"].write_text("lr = 1e999\n")
    paths["bindlink"].write_text('(ConceptNode "a")\n'
                                 '(BindLink (ConceptNode "a"))\n')
    paths["bad_prob"].write_text(FRUIT_CONFIG.replace("0.7", "1.5")
                                 .replace("0.3", "-0.5"))
    paths["deep"].write_text("seed = %s1%s\n" % ("[" * 2000, "]" * 2000))
    # brackets in a string or a comment do not nest: line 3 is the deepest
    nest = "[" * 700 + "]" * 700
    paths["deep3"].write_text('out = "%s"  # %s\nlr = 0.1\nseed = %s1%s\n'
                              % (nest, nest, "[" * 600, "]" * 600))
    paths["double_stv"].write_text('(ConceptNode "a")\n(ConceptNode (stv 0.5 0.5)'
                                   '\n(stv 0.7 0.7) "b")\n')
    paths["dir"].mkdir()
    template, message = BAD_INPUTS[case]
    args = [a.format(**{k: str(v) for k, v in paths.items()})
            for a in template]
    if args[0] != "chain":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- property: no input exits 2 --------------------------------------------

def _token_text(tokens):
    """Byte strings built from the format's own tokens, which reach deeper
    into the parser than uniformly random bytes."""
    return st.lists(st.sampled_from(tokens), max_size=30).map(
        lambda parts: "".join(parts).encode())


_KB_BYTES = st.binary(max_size=200) | _token_text([
    "(", ")", " ", "\n", ";", '"', '"a"', '"$P"', "stv", "0.5", "1", "-1",
    "nan", "1e999", "ConceptNode", "PredicateNode", "VariableNode",
    "EvaluationLink", "ImplicationLink", "InheritanceLink", "LambdaLink",
    "NotLink", "AndLink", "BindLink"])
# no size keys (n_samples, grid_size, ...): a large one is valid and slow
_CONFIG_BYTES = st.binary(max_size=200) | _token_text([
    "=", " ", "\n", "#", ";", ".", ",", "[", "]", '"', "lr", "steps", "seed",
    "out", "fruits", "colors", "probabilities", "apple", "neg_conditional",
    "0.5", "1", "-1", "1e999", "nan", "true", '"x"'])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kb=_KB_BYTES, config=_CONFIG_BYTES,
       command=st.sampled_from(["fruit-colors", "learn-formula", "joint"]))
def test_random_input_never_exits_2(tmp_path, capsys, kb, config, command):
    """Any bytes as a KB or a config exit 0 or 1, never 2 (internal error)."""
    kb_path, config_path = tmp_path / "kb.scm", tmp_path / "cfg.txt"
    kb_path.write_bytes(kb)
    config_path.write_bytes(config)
    assert main(["chain", "--kb", str(kb_path), "--forward", "--steps", "5"]) in (0, 1)
    assert main([command, "--config", str(config_path), "--steps", "1",
                 "--out", str(tmp_path / "out")]) in (0, 1)
    assert "internal error" not in capsys.readouterr().err
