"""CLI subcommands, exit codes, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cobweb as cobweb_pkg
from cobweb import BlockMatrix, cli, cobweb, cobweb_of_sizes, const, custom, fib, \
    from_blocks, mobius, nat, root, suites, zeta
from cobweb.formats import poset_from_json, poset_to_json

from conftest import brute_chains


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """Run the CLI as its own interpreter, so a traceback would reach stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(cobweb_pkg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cobweb.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def assert_one_line_diagnostic(code, err):
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("cobweb: ")


@pytest.fixture
def nat5_file(tmp_path):
    p = tmp_path / "nat5.json"
    p.write_text(poset_to_json(cobweb(nat(), 5)))
    return str(p)


@pytest.fixture
def rooted_file(tmp_path):
    p = tmp_path / "rooted.json"
    p.write_text(poset_to_json(root(fib(), 4)))
    return str(p)


def test_gen_writes_poset(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run_cli(capsys, "gen", "--seq", "nat", "--levels", "3",
                         "-o", str(out))
    assert code == 0
    assert poset_from_json(out.read_text()) == cobweb(nat(), 3)


def test_gen_root_flag(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seq", "fib", "--levels", "4", "--root")
    assert code == 0
    P = poset_from_json(out)
    assert P.level_sizes == (1, 1, 1, 2, 3)


def test_gen_with_blocks_file(tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[[1, 0], [1, 1]]]))
    code, out, _ = run_cli(capsys, "gen", "--blocks", str(blocks))
    assert code == 0
    P = poset_from_json(out)
    assert P.level_sizes == (2, 2) and not P.is_cobweb


@pytest.mark.parametrize("n_blocks, code, err", [
    (10, 0, ""), (11, 1, "cobweb: levels 13 exceeds COBWEB_MAX_LEVELS=12\n")],
    ids=["12-levels-rooted", "13-levels-rooted"])
def test_gen_blocks_root_counts_the_root_against_the_level_cap(tmp_path, capsys, monkeypatch,
                                                               n_blocks, code, err):
    monkeypatch.delenv("COBWEB_MAX_LEVELS", raising=False)
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[[1]]] * n_blocks))
    got_code, out, got_err = run_cli(capsys, "gen", "--blocks", str(blocks), "--root")
    assert (got_code, got_err) == (code, err)
    if code == 0:
        assert poset_from_json(out) == cobweb_of_sizes([1] * (n_blocks + 2))


@pytest.mark.parametrize("levels, code, err", [
    (11, 0, ""), (12, 1, "cobweb: levels 13 exceeds COBWEB_MAX_LEVELS=12\n")],
    ids=["12-levels-rooted", "13-levels-rooted"])
def test_gen_root_counts_the_root_against_the_level_cap(capsys, monkeypatch, levels, code, err):
    monkeypatch.delenv("COBWEB_MAX_LEVELS", raising=False)
    got_code, out, got_err = run_cli(capsys, "gen", "--seq", "const:1", "--levels",
                                     str(levels), "--root")
    assert (got_code, got_err) == (code, err)
    if code == 0:
        assert poset_from_json(out).level_sizes == (1,) * (levels + 1)


def test_gen_blocks_with_an_agreeing_seq_names_the_sequence(tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[[1, 1]]]))
    assert run_cli(capsys, "gen", "--blocks", str(blocks), "--seq", "nat") == (
        0, '{"level_sizes": [1, 2], "blocks": [[[1, 1]]], '
           '"flags": {"cobweb": true, "no_mute": true}, "sequence": "nat"}\n', "")


@pytest.mark.parametrize("blocks", [[], [[]], [[[]]], {"blocks": [[[1]]]}])
def test_gen_blocks_refuses_a_file_with_no_first_block_row(tmp_path, capsys, blocks):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(blocks))
    assert run_cli(capsys, "gen", "--blocks", str(path)) == (
        1, "", "cobweb: blocks file must hold a nonempty list of 0/1 matrices, "
               "each with a nonempty first row\n")


def test_a_level_cap_that_is_no_integer_is_one_diagnostic(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_MAX_LEVELS", "x")
    assert run_cli(capsys, "gen", "--seq", "nat", "--levels", "3") == (
        1, "", "cobweb: COBWEB_MAX_LEVELS must be an integer, got 'x'\n")


def test_gen_blocks_seq_mismatch(tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[[1, 1], [1, 1]]]))
    code, _, err = run_cli(capsys, "gen", "--seq", "nat", "--blocks", str(blocks))
    assert code == 1 and "disagree" in err


def test_gen_missing_args(capsys):
    code, _, err = run_cli(capsys, "gen", "--seq", "nat")
    assert code == 1


def test_zeta_csv(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(poset_to_json(cobweb(nat(), 2)))
    code, out, _ = run_cli(capsys, "zeta", str(p))
    assert code == 0
    assert out == "1,1,1\n0,1,0\n0,0,1\n"


def test_zeta_methods_agree_via_cli(nat5_file, capsys):
    outs = set()
    for m in ("closure", "label-delta", "label-knuth", "label-s"):
        code, out, _ = run_cli(capsys, "zeta", nat5_file, "--method", m)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_zeta_ascii(nat5_file, capsys):
    code, out, _ = run_cli(capsys, "zeta", nat5_file, "--format", "ascii")
    assert code == 0
    assert out.splitlines()[0].startswith("1 1 1")


def test_mobius_csv_matches_library(nat5_file, capsys):
    code, out, _ = run_cli(capsys, "mobius", nat5_file, "--method", "recurrence")
    assert code == 0
    lib = mobius(cobweb(nat(), 5), "recurrence")
    assert out == "".join(",".join(str(v) for v in row) + "\n" for row in lib.rows)


def test_max_and_eta(nat5_file, capsys):
    code, out, _ = run_cli(capsys, "max", nat5_file)
    assert code == 0 and out.startswith("1,")
    code, out, _ = run_cli(capsys, "eta", nat5_file, "--inverse", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["level_sizes"] == [1, 2, 3, 4, 5]


def test_chains_commands(nat5_file, capsys):
    code, out, _ = run_cli(capsys, "chains", nat5_file, "--from", "2", "--to", "3")
    assert code == 0
    assert json.loads(out)[0] == [[2, 1], [3, 1]]
    code, out, _ = run_cli(capsys, "chains", nat5_file, "--from", "2", "--to", "4",
                           "--count-only")
    assert out.strip() == "24"
    code, out, _ = run_cli(capsys, "chains", nat5_file, "--interval", "1", "6")
    assert out.strip() == "2"
    code, _, err = run_cli(capsys, "chains", nat5_file)
    assert code == 1


@pytest.mark.parametrize("flags", [[], ["--from", "1"], ["--to", "2"],
                                   ["--from", "1", "--count-only"]], ids=str)
def test_chains_needs_both_layers_or_an_interval(nat5_file, capsys, flags):
    assert run_cli(capsys, "chains", nat5_file, *flags) == (
        1, "", "cobweb: chains needs --from and --to (or --interval)\n")


@pytest.mark.parametrize("flags", [
    ["--from", "2", "--to", "1"], ["--from", "1", "--to", "9"],
    ["--from", "0", "--to", "2", "--count-only"], ["--interval", "0", "2"],
    ["--interval", "1", "99"], ["--count-only"], []])
def test_refused_chains_call_leaves_its_output_file_as_it_was(nat5_file, tmp_path, capsys,
                                                              flags):
    out = tmp_path / "o.json"
    out.write_text("kept\n")
    code, _, err = run_cli(capsys, "chains", nat5_file, *flags, "-o", str(out))
    assert_one_line_diagnostic(code, err)
    assert out.read_text() == "kept\n"


def test_chains_listing_streams_the_json_bytes(tmp_path, capsys):
    # all 5^6 maximal chains of const:5 on 6 levels, against the listing as
    # json.dumps writes it from the brute-force chains
    P = cobweb(const(5), 6)
    path = tmp_path / "const5.json"
    path.write_text(poset_to_json(P))
    code, out, err = run_cli(capsys, "chains", str(path), "--from", "1", "--to", "6")
    assert (code, err) == (0, "")
    chains = brute_chains(P, 1, 6)
    assert len(chains) == 15625
    assert out == json.dumps([[[1 + i, p] for i, p in enumerate(pos)]
                              for pos in chains]) + "\n"


def test_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, a fixed cost on
    # every CLI call; -S keeps site hooks from loading them first
    # fractions imports decimal; both load only where a Fraction is made
    # array and struct load only where blockmat packs the rows of a product
    # json loads only where a text is not one formats reads and writes by hand
    # the runtime is stdlib-only: numpy and friends may be installed, so an
    # accidental import of one would otherwise go unnoticed
    code = ("import sys, cobweb.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'fractions', 'decimal',"
            " 'array', 'struct', 'json'} & set(sys.modules))); "
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " - set(sys.stdlib_module_names) - {'__main__', 'cobweb'}))")
    env = dict(os.environ, PYTHONPATH=str(Path(cobweb_pkg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n", "")


def test_admissible_leaves_fractions_unloaded():
    # the verdict is a divisibility test on integers, so neither fractions
    # nor the decimal module it imports is loaded for it
    code = ("import sys; from cobweb import cli; "
            "codes = [cli.main(['admissible', '--seq', s, '--up-to', '9'])"
            " for s in ('fib', 'gauss:q=2', 'const:2')]; "
            "print(codes, sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cobweb_pkg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "admissible\nadmissible\nadmissible\n[0, 0, 0] []\n", "")


# calls on a gen-written poset, a blocks file as json.dumps writes it, or no
# file, that never import json, and calls that must: a poset file with one
# extra space or an entry 1.0, true or 2, a blocks file with other spacing,
# the coding matrix as JSON and a name json.dumps writes with an escape
JSON_FREE_CALLS = [
    ["gen", "--seq", "nat", "--levels", "3", "-o", "p.json"],
    ["gen", "--seq", "nat", "--levels", "3", "--root", "-o", "r.json"],
    ["zeta", "p.json"], ["mobius", "p.json"], ["max", "p.json"], ["eta", "p.json"],
    ["zeta", "p.json", "--format", "json"],
    ["chains", "p.json", "--from", "1", "--to", "3"],
    ["chains", "p.json", "--from", "1", "--to", "3", "--count-only"],
    ["chains", "p.json", "--interval", "1", "6"],
    ["whitney", "r.json"], ["charpoly", "r.json"], ["dot", "p.json"], ["lascala", "p.json"],
    ["fnomial", "--seq", "nat", "4", "2"], ["kroton", "--seq", "nat", "2", "5"],
    ["admissible", "--seq", "nat", "--up-to", "6"], ["coding", "--seq", "nat", "--levels", "4"],
    ["zeta", "mute.json"],
    ["gen", "--blocks", "b.json"],
]
JSON_CALLS = [  # each with its exit code
    (["zeta", "space.json"], 0),
    (["zeta", "float.json"], 1),
    (["zeta", "true.json"], 1),
    (["zeta", "two.json"], 1),
    (["gen", "--blocks", "spaced.json"], 0),
    (["coding", "--seq", "nat", "--levels", "4", "--format", "json"], 0),
    (["zeta", "quote.json"], 0),
]


def test_json_loads_only_for_a_text_that_needs_it(tmp_path):
    mute = ('{"level_sizes": [1, 2], "blocks": [[[1, 0]]], '
            '"flags": {"cobweb": false, "no_mute": false}, "sequence": null}')
    (tmp_path / "mute.json").write_text(mute)
    for name, row in [("space", "[1,  0]"), ("float", "[1.0, 0]"), ("true", "[true, 0]"),
                      ("two", "[2, 0]")]:
        (tmp_path / f"{name}.json").write_text(mute.replace("[1, 0]", row))
    (tmp_path / "b.json").write_text("[[[1, 1]]]")
    (tmp_path / "spaced.json").write_text("[[[1,1]]]")
    (tmp_path / "quote.json").write_text(poset_to_json(cobweb_of_sizes([1, 2], 'q"')))
    # json and its submodules leave sys.modules after each call that loads them
    code = ("import contextlib, io, sys\n"
            "from cobweb import cli\n"
            "seen = []\n"
            f"for argv in {JSON_FREE_CALLS + [argv for argv, _ in JSON_CALLS]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        seen.append((cli.main(argv), 'json' in sys.modules))\n"
            "    for m in [m for m in sys.modules if m.split('.')[0] == 'json']:\n"
            "        del sys.modules[m]\n"
            "print(seen)")
    env = dict(os.environ, PYTHONPATH=str(Path(cobweb_pkg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == \
        f"{[(0, False)] * len(JSON_FREE_CALLS) + [(c, True) for _, c in JSON_CALLS]}\n"


@pytest.mark.parametrize("argv", [["zeta"], ["max"], ["chains", "--from", "1", "--to", "1",
                                                 "--count-only"]])
def test_a_level_too_large_to_index_is_one_error_line(tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(poset_to_json(cobweb_of_sizes([10 ** 20])))
    env = dict(os.environ, PYTHONPATH=str(Path(cobweb_pkg.__file__).parents[1]))
    # an address-space cap, so a call that set out to build the level fails
    # with a MemoryError instead of taking the machine's memory
    proc = subprocess.run([sys.executable, "-m", "cobweb.cli", argv[0], str(path), *argv[1:]],
                          capture_output=True, text=True, env=env,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (2 ** 30, 2 ** 30)))
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", "cobweb: cannot fit 'int' into an index-sized integer\n")


def test_a_memory_error_is_one_error_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "p.json"
    path.write_text(poset_to_json(cobweb(nat(), 3)))

    def exhausted(P):
        raise MemoryError()

    monkeypatch.setattr(cli, "level_zeta", exhausted)
    assert cli.main(["zeta", str(path)]) == 1
    assert capsys.readouterr() == ("", "cobweb: out of memory\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--seq", "nat", "--levels", "3", "--root"],
    ["zeta", "p.json", "--method", "label-s", "--format", "ascii", "-o", "z.csv"],
    ["mobius", "p.json", "--method", "closed-form", "--format", "json"],
    ["max", "p.json", "--inverse"],
    ["chains", "p.json", "--interval", "1", "3"],
    ["fnomial", "--seq", "fib", "4", "2"],
    ["coding", "--seq", "nat", "--levels", "4", "--format", "json"],
    ["check", "p.json", "--suite", "markov"],
    ["lascala", "p.json"],
])
def test_one_subparser_parses_as_the_full_parser(argv):
    assert vars(cli.build_parser(argv[0]).parse_args(argv)) == \
        vars(cli.build_parser().parse_args(argv))


def test_fnomial_output(capsys):
    code, out, _ = run_cli(capsys, "fnomial", "--seq", "fib", "4", "2")
    assert code == 0 and out.strip() == "6"


def test_fnomial_rational_output(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("2\n3\n")
    code, out, _ = run_cli(capsys, "fnomial", "--seq", f"file:{seq}", "2", "1")
    assert code == 0 and out.strip() == "3/2"


def test_admissible_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "admissible", "--seq", "fib", "--up-to", "8")
    assert out.strip() == "admissible"
    seq = tmp_path / "seq.txt"
    seq.write_text("2\n3\n")
    code, out, _ = run_cli(capsys, "admissible", "--seq", f"file:{seq}",
                           "--up-to", "2")
    assert out.strip() == "first_failure(2,1)"


def test_whitney_and_charpoly(rooted_file, capsys):
    code, out, _ = run_cli(capsys, "whitney", rooted_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1 1"
    assert lines[1] == "1 -1 1"
    code, out, _ = run_cli(capsys, "charpoly", rooted_file)
    assert code == 0
    assert json.loads(out) == [1, -1, 0, 0, 0]


def test_whitney_takes_a_cobweb_that_starts_with_a_singleton(nat5_file, capsys):
    assert run_cli(capsys, "whitney", nat5_file)[0] == 0


@pytest.mark.parametrize("P", [cobweb(custom([2, 3]), 2),
                               from_blocks([1, 2, 2], [[[1, 1]], [[1, 0], [0, 1]]])],
                         ids=["wide-bottom-cobweb", "rooted-non-cobweb"])
def test_whitney_and_charpoly_refuse_all_but_a_rooted_cobweb(tmp_path, capsys, P):
    path = tmp_path / "p.json"
    path.write_text(poset_to_json(P))
    for command in ("whitney", "charpoly"):
        assert run_cli(capsys, command, str(path)) == (
            1, "", f"cobweb: {command} needs a rooted cobweb (singleton bottom level)\n")


def test_coding_pinned_rows(capsys):
    code, out, _ = run_cli(capsys, "coding", "--seq", "nat", "--levels", "6")
    assert code == 0
    assert out.splitlines()[0] == "1,-1,1,-2,6,-24"
    code, out, _ = run_cli(capsys, "coding", "--seq", "nat", "--levels", "3",
                           "--format", "json")
    assert json.loads(out) == {"c": [[1, -1, 1], [0, 1, -1], [0, 0, 1]]}


def test_kroton_output(capsys):
    code, out, _ = run_cli(capsys, "kroton", "--seq", "nat", "1", "5")
    assert code == 0 and out.strip() == "6"


def test_check_passes_on_cobweb(nat5_file, capsys):
    code, out, _ = run_cli(capsys, "check", nat5_file)
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())
    code, out, _ = run_cli(capsys, "check", nat5_file, "--suite", "zeta")
    assert code == 0 and "zeta/" in out


def test_check_failure_exits_2(nat5_file, capsys, monkeypatch):
    from cobweb.suites import CheckResult

    def fake(P, suite):
        return [CheckResult("zeta", "broken-on-purpose", False, "boom")]

    monkeypatch.setattr(cli, "run_checks", fake)
    code, out, err = run_cli(capsys, "check", nat5_file)
    assert code == 2
    assert "FAIL zeta/broken-on-purpose" in out
    assert "zeta/broken-on-purpose" in err


def test_check_fails_a_negative_chain_count_by_the_exit_contract(tmp_path, capsys,
                                                                  monkeypatch):
    p = tmp_path / "nat3.json"
    p.write_text(poset_to_json(cobweb(nat(), 3)))
    real = suites.max_matrix

    def negative(Q):
        rows = [list(r) for r in real(Q).rows]
        rows[1][4] = -3
        return BlockMatrix(Q.level_sizes, rows)
    monkeypatch.setattr(suites, "max_matrix", negative)
    code, out, err = run_cli(capsys, "check", str(p), "--suite", "zeta")
    assert code == 2
    assert "FAIL zeta/logic-of-max: logic_L is undefined on negative entry -3 at (2, 5)" \
        in out.splitlines()
    assert "Traceback" not in err
    assert err == "check failed: zeta/logic-of-max\n"


def test_dot_and_lascala(nat5_file, capsys):
    code, out, _ = run_cli(capsys, "dot", nat5_file)
    assert code == 0 and out.startswith("digraph poset {")
    code, out, _ = run_cli(capsys, "lascala", nat5_file)
    assert code == 0 and out.splitlines()[0].startswith("1")


def test_unknown_subcommand_and_flags(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1 and "usage" in err
    code, _, err = run_cli(capsys, "fnomial", "--seq", "nat", "--bogus", "1", "2")
    assert code == 1
    code, _, err = run_cli(capsys)
    assert code == 1
    assert err.splitlines() == ["usage: cobweb [-h] command ...", "cobweb: a command is required"]


def test_domain_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "zeta", str(bad))
    assert code == 1 and "cobweb:" in err
    code, _, err = run_cli(capsys, "fnomial", "--seq", "nat", "2", "5")
    assert code == 1
    code, _, err = run_cli(capsys, "zeta", str(tmp_path / "missing.json"))
    assert code == 1


def test_level_cap_from_environment(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(capsys, "gen", "--seq", "nat", "--levels", "13")
    assert code == 1 and "COBWEB_MAX_LEVELS" in err
    monkeypatch.setenv("COBWEB_MAX_LEVELS", "20")
    code, out, _ = run_cli(capsys, "gen", "--seq", "nat", "--levels", "13")
    assert code == 0
    monkeypatch.setenv("COBWEB_MAX_LEVELS", "4")
    p = tmp_path / "p.json"
    p.write_text(poset_to_json(cobweb(nat(), 5)))
    code, _, err = run_cli(capsys, "zeta", str(p))
    assert code == 1 and "COBWEB_MAX_LEVELS" in err


def test_outputs_are_byte_identical(nat5_file, capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "mobius", nat5_file)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("method", ["label-delta", "label-knuth", "label-s"])
def test_zeta_ascii_refuses_label_methods_on_a_non_cobweb(tmp_path, capsys, method):
    path = tmp_path / "p.json"
    path.write_text(poset_to_json(from_blocks([2, 2], [[[1, 0], [1, 1]]])))
    as_csv = run_cli(capsys, "zeta", str(path), "--method", method)
    as_ascii = run_cli(capsys, "zeta", str(path), "--method", method, "--format", "ascii")
    assert as_csv[0] == 1 and as_csv[2].startswith("cobweb: zeta method ")
    assert as_ascii == as_csv


def test_output_into_missing_directory_is_a_diagnostic(tmp_path):
    code, _, err = run_cli_process("gen", "--seq", "nat", "--levels", "3",
                                   "-o", str(tmp_path / "missing" / "p.json"))
    assert_one_line_diagnostic(code, err)


def test_missing_sequence_file_is_a_diagnostic(tmp_path):
    code, _, err = run_cli_process("gen", "--seq", f"file:{tmp_path / 'missing.txt'}",
                                   "--levels", "3")
    assert_one_line_diagnostic(code, err)


_NO_SIZES = ("cobweb: blocks file must hold a nonempty list of 0/1 matrices, "
             "each with a nonempty first row\n")


@pytest.mark.parametrize("blocks, message", [
    ([[]], _NO_SIZES),
    # the sizes are read off the first rows, and the poset names the short row
    ([[[1, 1], [1]]], "cobweb: blocks[0][1]: expected 2 entries\n"),
    ([[1]], _NO_SIZES),
    ([[[1]], []], _NO_SIZES),
    ([[[]]], _NO_SIZES),
], ids=[f"blocks{i}" for i in range(5)])
def test_empty_or_ragged_blocks_are_a_diagnostic(tmp_path, blocks, message):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(blocks))
    code, _, err = run_cli_process("gen", "--blocks", str(path))
    assert_one_line_diagnostic(code, err)
    assert err == message


def test_gen_blocks_refuses_entries_other_than_the_ints_0_and_1(tmp_path):
    path = tmp_path / "blocks.json"
    path.write_text("[[[1.0, 1], [0, true]]]")
    code, out, err = run_cli_process("gen", "--blocks", str(path))
    assert_one_line_diagnostic(code, err)
    assert out == "" and err == "cobweb: blocks[0][0][0]: expected 0 or 1, got 1.0\n"


@pytest.mark.parametrize("root", [[], ["--root"]])
def test_gen_blocks_names_a_fault_by_its_path_in_the_file(tmp_path, capsys, root):
    # the root block goes below the file's blocks only after they are checked
    path = tmp_path / "blocks.json"
    path.write_text("[[[1, 1.0]], [[1, 1], [0, 1]]]")
    assert run_cli(capsys, "gen", "--blocks", str(path), *root) == \
        (1, "", "cobweb: blocks[0][0][1]: expected 0 or 1, got 1.0\n")


@pytest.mark.parametrize("argv", [["max"], ["mobius"], ["zeta"]])
def test_poset_file_with_a_float_entry_is_refused(tmp_path, argv):
    path = tmp_path / "p.json"
    path.write_text(poset_to_json(cobweb(nat(), 3)).replace("[[1, 1]]", "[[1.0, 1]]"))
    code, out, err = run_cli_process(argv[0], str(path))
    assert_one_line_diagnostic(code, err)
    assert out == "" and err == "cobweb: blocks[0][0][0]: expected 0 or 1, got 1.0\n"


def test_poset_file_with_a_boolean_level_size_is_refused(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"level_sizes": [true, 2], "blocks": [[[1, 1]]], '
                    '"flags": {"cobweb": true, "no_mute": true}, "sequence": null}')
    code, out, err = run_cli_process("max", str(path))
    assert_one_line_diagnostic(code, err)
    assert out == "" and err == \
        "cobweb: level_sizes: expected a nonempty list of positive integers\n"


@pytest.mark.parametrize("argv", [["max"], ["gen", "--blocks"]])
def test_deeply_nested_json_is_a_diagnostic(tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "\n")
    code, out, err = run_cli_process(*argv, str(path))
    assert_one_line_diagnostic(code, err)
    assert out == "" and "recursion" in err


def test_chains_lists_a_layer_deeper_than_the_recursion_limit(tmp_path, monkeypatch):
    # 1,100 levels of one node each hold one chain, longer than the
    # interpreter's default limit of 1,000 frames
    monkeypatch.setenv("COBWEB_MAX_LEVELS", "5000")
    path = tmp_path / "chain1100.json"
    path.write_text(poset_to_json(cobweb_of_sizes([1] * 1100)))
    code, out, err = run_cli_process("chains", str(path), "--from", "1", "--to", "1100")
    assert (code, err) == (0, "")
    assert json.loads(out) == [[[level, 1] for level in range(1, 1101)]]


def dense_la_scala(P):
    """The staircase drawn from the dense zeta closure, cell by cell."""
    lines = []
    for i, row in enumerate(zeta(P, "closure").rows):
        lines.append(" ".join("1" if v else ("." if j > i else " ")
                              for j, v in enumerate(row)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("make", [lambda: cobweb(fib(), 6), lambda: root(fib(), 5),
                                  lambda: cobweb_of_sizes((3,)),
                                  lambda: from_blocks([2, 3, 1], [[[1, 0, 1], [0, 1, 1]],
                                                                  [[1], [1], [0]]])])
@pytest.mark.parametrize("argv", [["lascala"], ["zeta", "--format", "ascii"]])
def test_staircase_output_matches_dense_closure_bytes(tmp_path, capsys, make, argv):
    P = make()
    path = tmp_path / "p.json"
    path.write_text(poset_to_json(P))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert out == dense_la_scala(P)


def test_prints_integers_past_the_default_digit_limit():
    # C(20000, 10000) has 6,019 digits, past the interpreter's default of 4,300
    code, out, err = run_cli_process("fnomial", "--seq", "nat", "20000", "10000")
    assert code == 0 and err == ""
    digits = out.strip()
    want = math.comb(20000, 10000)
    assert len(digits) == 6019 and digits.isdigit()
    assert int(digits[-18:]) == want % 10 ** 18
