"""Command-line surface: in-process dispatch, exit codes, output shapes."""

import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from affcox import blocks as bl
from affcox import canonical as c
from affcox import cli
from affcox import finite as fin
from affcox import hecke as hk
from affcox import perms
from affcox import tower
from affcox.words import parse_word
from oracles import argparse_namespace


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canon_word(capsys):
    code, out, _ = run(capsys, "canon", "-n", "3", "s3 a s3 s1 a")
    assert code == 0
    assert out.splitlines() == ["h(4,0) a h(3,1) a | [1,1]", "l=5 L=2"]


def test_canon_empty(capsys):
    code, out, _ = run(capsys, "canon", "-n", "2", "")
    assert code == 0
    assert out.splitlines() == ["1", "l=0 L=0"]


@pytest.mark.parametrize("text,want", [
    ("[1,1]", ["| [1,1]", "l=1 L=0"]),
    ("h(3,0) a [1,1]", ["h(3,0) a | [1,1]", "l=2 L=1"]),
])
def test_canon_text_without_bar(capsys, text, want):
    assert run(capsys, "canon", "-n", "2", text) == (0, "\n".join(want) + "\n", "")


def test_canon_fixed_point(capsys):
    text = "h(2,0) a h(1,1) a | [2,2]"
    code, out, _ = run(capsys, "canon", "-n", "2", text)
    assert code == 0
    assert out.splitlines()[0] == text


def test_canon_json_round_trip(capsys):
    code, out, _ = run(capsys, "canon", "-n", "2", "s2 s1 a", "--json")
    assert code == 0
    obj = json.loads(out)
    e = c.from_json(obj, 2)
    assert e == c.canonicalize(parse_word("s2 s1 a", 2))
    assert obj["l"] == c.length(e) and obj["L"] == c.affine_length(e)
    # and JSON input is accepted back
    code, out2, _ = run(capsys, "canon", "-n", "2", json.dumps(obj), "--json")
    assert code == 0 and json.loads(out2) == obj


def test_len_and_descents(capsys):
    code, out, _ = run(capsys, "len", "-n", "2", "a s1 a")
    assert (code, out.strip()) == (0, "l=3 L=1")  # a s1 a = s1 a s1
    code, out, _ = run(capsys, "len", "-n", "2", "--json", "a s1 a")
    assert (code, out) == (0, '{"l": 3, "L": 1}\n')
    code, out, _ = run(capsys, "descents", "-n", "2", "s2 s1 a")
    assert code == 0
    assert out.splitlines() == ["L: s2", "R: a"]
    code, out, _ = run(capsys, "descents", "-n", "2", "1", "--json")
    assert json.loads(out) == {"left": [], "right": []}


def test_mul_inv(capsys):
    code, out, _ = run(capsys, "mul", "-n", "2", "s1 a", "a s1", "--json")
    assert code == 0
    assert json.loads(out) == {"pairs": [], "bricks": [], "l": 0, "L": 0}
    code, out, _ = run(capsys, "inv", "-n", "2", "s1 a")
    assert out.splitlines()[0] == c.format_element(
        c.inverse(c.canonicalize(parse_word("s1 a", 2)))
    )


def test_blocks(capsys):
    code, out, _ = run(capsys, "blocks", "-n", "2", "-m", "1")
    assert code == 0
    assert len(out.splitlines()) == 6
    assert out.splitlines()[0] == "h(3,0) a |  l=1"
    code, out, _ = run(capsys, "blocks", "-n", "3", "--m", "2", "--count-only")
    assert (code, out.strip()) == (0, "42")
    code, out, _ = run(capsys, "blocks", "-n", "2", "-m", "2", "--max-len", "5")
    assert len(out.splitlines()) == 5
    code, out, _ = run(capsys, "blocks", "-n", "2", "-m", "1", "--json")
    objs = json.loads(out)
    assert code == 0 and len(objs) == 6
    assert objs[0] == {"pairs": [[3, 0]], "bricks": [], "l": 1, "L": 1}
    # an empty listing prints nothing, or an empty JSON list
    assert run(capsys, "blocks", "-n", "2", "-m", "1",
               "--max-len", "0") == (0, "", "")
    assert run(capsys, "blocks", "-n", "2", "-m", "1", "--max-len", "0",
               "--json") == (0, "[]\n", "")


@pytest.mark.parametrize("n,m,max_len", [(8, 8, 10), (6, 9, 12)])
def test_blocks_max_len_prunes_the_walk(capsys, monkeypatch, n, m, max_len):
    """--max-len bounds the walk: no whole level is built and then filtered."""
    calls = []
    orig = bl._extensions
    monkeypatch.setattr(bl, "_extensions", lambda *a: calls.append(a) or orig(*a))
    argv = ("blocks", "-n", str(n), "-m", str(m), "--max-len", str(max_len), "--count-only")
    assert run(capsys, *argv) == (0, "0\n", "")
    assert 0 < len(calls) <= 1000


def test_embed_member_preimage(capsys):
    code, out, _ = run(capsys, "embed", "--from", "2", "a")
    assert code == 0
    assert out.splitlines() == ["h(3,0) a | [3,3]", "l=3 L=1"]
    code, out, _ = run(capsys, "member", "-n", "3", "h(3,0) a | [3,3]")
    assert (code, out.strip()) == (0, "yes")
    code, out, _ = run(capsys, "member", "-n", "3", "h(4,0) a |", "--json")
    assert json.loads(out) == {"member": False}
    code, out, _ = run(capsys, "preimage", "-n", "3", "h(3,0) a | [3,3]")
    assert code == 0
    assert out.splitlines() == ["h(3,0) a |", "l=1 L=1"]
    code, _, err = run(capsys, "preimage", "-n", "3", "h(4,0) a |")
    assert code == 1 and "image" in err


def test_hecke_mul(capsys):
    code, out, _ = run(capsys, "hecke-mul", "-n", "2", "s1", "s1")
    assert code == 0
    assert out.splitlines() == ["q - 1 * [| [1,1]]", "q * [1]"]
    code, out, _ = run(capsys, "hecke-mul", "-n", "2", "s2", "a", "--json")
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"coeff": [[0, 1]], "pairs": [[2, 0]], "bricks": []}]
    }
    code, out, _ = run(capsys, "hecke-mul", "-n", "2", "--json", "s1 a", "a s1")
    assert code == 0
    assert out == (
        '{"terms": [{"coeff": [[1, 1], [0, -1]], "pairs": [[3, 1]], "bricks": [[1, 1]]}, '
        '{"coeff": [[2, 1], [1, -1]], "pairs": [], "bricks": [[1, 1]]}, '
        '{"coeff": [[2, 1]], "pairs": [], "bricks": []}]}\n'
    )


def test_hecke_mul_past_the_term_cap_is_a_resource_limit(capsys, monkeypatch):
    # g_{w^-1} g_w for w = s1 s2 a s1 holds 4 terms before it holds 5
    argv = ("hecke-mul", "-n", "2", "s1 a s2 s1", "s1 s2 a s1")
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(hk, "MAX_TERMS", 3)
    for tail in ((), ("--json",)):
        assert run(capsys, *argv, *tail) == (
            4, "", "resource limit: Hecke product holds 4 terms, past the limit of 3\n")


def test_appendix(capsys):
    code, out, _ = run(capsys, "appendix", "-n", "2", "--max-core", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "h(3,0) a |  l=1 L=1"
    assert "x 6 right factors:" in lines
    assert lines[-1].startswith("check (l <= 8): ok")
    code, out, _ = run(capsys, "appendix", "-n", "3", "--count-only")
    assert code == 0
    assert out.splitlines()[0] == "431"
    code, out, _ = run(capsys, "appendix", "-n", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["check"]["ok"] is True
    assert obj["count"] == 47 and len(obj["right_factors"]) == 6
    code, out, _ = run(capsys, "appendix", "-n", "2", "--max-len", "3", "--count-only")
    assert code == 0
    # h(3,0) a, h(2,0) a, h(3,1) a, h(1,0) a, h(2,1) a; every m = 2 block has l >= 4
    assert out.splitlines() == ["5", "check (l <= 8): ok, 24 generated vs 24 enumerated"]
    # a listing past the items guard is refused before anything is listed
    code, out, err = run(capsys, "appendix", "-n", "3", "--max-core", "1000")
    assert (code, out) == (4, "")
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_selfcheck(capsys, monkeypatch):
    code, out, _ = run(capsys, "selfcheck", "-n", "2", "--max-len", "6")
    assert code == 0
    assert [l.split(":")[1].strip() for l in out.splitlines()] == ["ok"] * 3
    code, out, _ = run(capsys, "selfcheck", "-n", "2", "--max-len", "6", "--json")
    assert code == 0
    assert json.loads(out) == {"relations": [], "length formula": [],
                               "brick identities": [], "max_len": 6}
    # a failed check prints its status line, the failure, then one error line
    monkeypatch.setattr(cli, "check_relations", lambda n: ["s1 s1 is not 1"])
    code, out, err = run(capsys, "selfcheck", "-n", "2", "--max-len", "4")
    assert code == 1
    assert out.splitlines() == ["relations: FAILED", "length formula (l <= 4): ok",
                                "brick identities: ok"]
    assert err == "s1 s1 is not 1\nerror: 1 self-check failure(s)\n"
    # under --json the failures are in the one object, and the error line follows
    code, out, err = run(capsys, "selfcheck", "-n", "2", "--max-len", "4", "--json")
    assert code == 1 and err == "error: 1 self-check failure(s)\n"
    assert json.loads(out) == {"relations": ["s1 s1 is not 1"], "length formula": [],
                               "brick identities": [], "max_len": 4}


USAGE_ERRORS = (
    ["canon", "s1"],              # missing -n
    ["canon", "-n", "1", "s1"],   # rank below 2
    ["canon", "-n", "x", "s1"],   # rank not an integer
    ["nonsense"],                 # unknown subcommand
    ["embed", "a"],               # missing --from
    ["embed", "-n", "3", "a"],    # embed takes its rank as --from only
    ["appendix", "-n", "4"],      # appendix exists for ranks 2, 3
    ["blocks", "-n", "2", "-m", "1", "--max-len", "-1"],  # negative bound
    ["blocks", "-n", "2", "-m", "1", "--max-len", "x"],
    ["appendix", "-n", "2", "--max-len", "-3", "--count-only"],
    ["selfcheck", "-n", "2", "--max-len", "-1"],
    ["blocks", "-n", "2", "-m", "-1"],  # counts are integers >= 0, as --max-len
    ["appendix", "-n", "2", "--max-core", "-1"],
)


def test_usage_errors(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


TOP_USAGE = "usage: affcox [-h]"  # the first line of the top-level usage at 80 columns
CHOICES = ("(choose from 'canon', 'len', 'descents', 'mul', 'inv', 'blocks', 'embed', "
           "'member', 'preimage', 'hecke-mul', 'appendix', 'selfcheck')")


USAGE_ERROR_OUTPUT = [
    ([], 2, TOP_USAGE, "affcox: error: the following arguments are required: command"),
    (["canon", "-n", "3", "s1", "extra"], 2, TOP_USAGE,
     "affcox: error: unrecognized arguments: extra"),
    (["-n", "3", "canon", "s1"], 2, TOP_USAGE,
     "affcox: error: argument command: invalid choice: '3' " + CHOICES),
    (["CANON", "-n", "2", "s1"], 2, TOP_USAGE,
     "affcox: error: argument command: invalid choice: 'CANON' " + CHOICES),
    (["can", "-n", "2", "s1"], 2, TOP_USAGE,
     "affcox: error: argument command: invalid choice: 'can' " + CHOICES),
    # after `--` a dash-led word is the element, read as word syntax
    (["canon", "-n", "3", "--", "-s1"], 1, "error: malformed token '-s1'",
     "error: malformed token '-s1'"),
]


@pytest.mark.parametrize("argv,code,first,last", USAGE_ERROR_OUTPUT,
                         ids=["empty", "extra", "option-first", "upper-case", "abbreviated",
                              "dash-dash"])
def test_usage_error_output(capsys, monkeypatch, argv, code, first, last):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    assert (err.splitlines()[0], err.splitlines()[-1]) == (first, last)


HELP = [(["-h"], TOP_USAGE), (["canon", "-h"], "usage: affcox canon")]


@pytest.mark.parametrize("argv,usage", HELP, ids=["top", "canon"])
def test_help(capsys, monkeypatch, argv, usage):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith(usage)


def test_domain_errors(capsys):
    code, _, err = run(capsys, "canon", "-n", "2", "s5")
    assert code == 1 and "s5" in err
    assert run(capsys, "canon", "-n", "3", "s1 s9") == (
        1, "", "error: index out of range: s9 at rank 3\n")
    code, _, err = run(capsys, "canon", "-n", "2", "h(9,9) a |")
    assert code == 1
    # JSON input: a misspelled key, or lengths that are not the element's
    for text, msg in (
        ('{"pair": [[3,0]]}', "error: unknown key(s) in element JSON: 'pair'\n"),
        ('{"pairs": [[3,0]], "brick": [[1,1]]}',
         "error: unknown key(s) in element JSON: 'brick'\n"),
        ('{"pairs": [[3,0]], "l": 2}', "error: l=2, but the element has l=1\n"),
        ('{"pairs": [[3,0]], "L": 0}', "error: L=0, but the element has L=1\n"),
    ):
        assert run(capsys, "canon", "-n", "2", text) == (1, "", msg), text
    code, _, err = run(capsys, "mul", "-n", "2", '{"pairs": [[3,0]], "brick": [[1,1]]}', "s1")
    assert code == 1 and err.startswith("error: unknown key(s)")


def test_internal_error_exit_code(capsys, monkeypatch):
    """Each command looks its library call up when it runs: a patched
    target that breaks an invariant ends the command with exit 3."""
    def broken(e):
        raise c.InvariantError("descent engine broke")
    monkeypatch.setattr(c, "right_descents", broken)
    code, out, err = run(capsys, "descents", "-n", "2", "s1 a")
    assert code == 3 and out == ""
    assert err == "internal error: descent engine broke\n"
    for module, name, argv in (
        (c, "canonicalize", ["canon", "-n", "2", "s1 a"]),
        (c, "length", ["len", "-n", "2", "h(3,0) a |"]),
        (c, "mul", ["mul", "-n", "2", "s1 a", "a s1"]),
        (c, "inverse", ["inv", "-n", "2", "h(3,0) a |"]),
        (tower, "embed", ["embed", "--from", "2", "h(3,0) a |"]),
        (tower, "is_in_image", ["member", "-n", "3", "h(3,0) a | [3,3]"]),
        (tower, "preimage", ["preimage", "-n", "3", "h(3,0) a | [3,3]"]),
        (hk, "hecke_mul", ["hecke-mul", "-n", "2", "s1", "s1"]),
        (bl, "enumerate_blocks", ["blocks", "-n", "2", "-m", "1"]),
        (bl, "appendix_blocks", ["appendix", "-n", "2"]),
    ):
        def broken(*args, _name=name, **kwargs):
            raise c.InvariantError("%s broke" % _name)
        with monkeypatch.context() as m:
            m.setattr(module, name, broken)
            want = (3, "", "internal error: %s broke\n" % name)
            assert run(capsys, *argv) == want, argv


@pytest.mark.parametrize("exc,code,err", [
    (AssertionError(), 3, "internal error: AssertionError\n"),
    (AssertionError("bad carry"), 3, "internal error: bad carry\n"),
    (RuntimeError("enumeration exceeded 5 items"), 4,
     "resource limit: enumeration exceeded 5 items\n"),
    (RecursionError("maximum recursion depth exceeded"), 4,
     "resource limit: maximum recursion depth exceeded\n"),
    (MemoryError(), 4, "resource limit: MemoryError\n"),
])
def test_bug_and_resource_exit_codes(capsys, monkeypatch, exc, code, err):
    def broken(e):
        raise exc
    monkeypatch.setattr(c, "right_descents", broken)
    assert run(capsys, "descents", "-n", "2", "s1 a") == (code, "", err)


def past_the_rank_bound():
    """Each command row's argv at the first rank past perms.MAX_RANK."""
    n = str(perms.MAX_RANK + 1)
    for cmd in cli.COMMANDS:
        rank = "--from" if cmd.name == "embed" else "-n"
        extra = ["-m", "0"] if cmd.name == "blocks" else []
        yield [cmd.name, rank, n, *extra, *["a"] * len(cmd.elements)]


@pytest.mark.parametrize("argv", list(past_the_rank_bound()), ids=lambda argv: argv[0])
def test_a_rank_past_the_bound_is_refused(capsys, argv):
    # every row that computes at the rank is refused as a resource limit,
    # before anything of that rank is built; appendix's rank is a choice
    if argv[0] == "appendix":
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.splitlines()[-1].endswith("invalid choice: %s (choose from 2, 3)" % argv[2])
    else:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (4, "", "resource limit: rank %s is past the limit of %d\n"
                                    % (argv[2], perms.MAX_RANK))


@pytest.mark.parametrize("word", ["a", "s1"])
def test_embed_from_the_bound_is_refused(capsys, word):
    # the image of a rank-MAX_RANK element would have rank MAX_RANK + 1,
    # with a block ("a") or without one ("s1")
    n = perms.MAX_RANK
    assert run(capsys, "embed", "--from", str(n), word) == (
        4, "", "resource limit: rank %d is past the limit of %d\n" % (n + 1, n))
    assert run(capsys, "embed", "--from", str(n - 1), word)[0] == 0


@pytest.mark.parametrize("extra", [["--count-only"], ["--max-len", "12"],
                                   ["--max-len", "12", "--count-only"]])
def test_blocks_command_does_not_revalidate(capsys, monkeypatch, extra):
    # the checks a checked Element runs on its pairs and bricks
    calls = []
    for module, name in ((c, "validate_block"), (fin, "int_pairs")):
        orig = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=orig, _n=name: calls.append(_n) or _f(*a))
    code, out, _ = run(capsys, "blocks", "-n", "3", "--m", "4", *extra)
    assert code == 0 and out and calls == []


def test_appendix_mismatch_is_internal_error(capsys, monkeypatch):
    """The families and the enumerator are library data and code: an
    enumerator that disagrees with the listing is a bug, and nothing prints."""
    orig = bl.reference_blocks
    monkeypatch.setattr(bl, "reference_blocks", lambda n, max_len: orig(n, max_len)[1:])
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "appendix", "-n", "2", *extra)
        assert (code, out) == (3, ""), extra
        assert err.startswith("internal error: ") and err.count("\n") == 1, err


def test_appendix_lists_once(capsys, monkeypatch):
    calls = []
    orig = bl.appendix_blocks
    monkeypatch.setattr(bl, "appendix_blocks", lambda *a: calls.append(a) or orig(*a))
    code, _, _ = run(capsys, "appendix", "-n", "3")
    assert code == 0 and calls == [(3, 2)]


def test_malformed_json_fields(capsys):
    for text, field in (
        ('{"pairs": 5}', "pairs"),
        ('{"pairs": null}', "pairs"),
        ('{"pairs": [[3,0]], "bricks": 3}', "bricks"),
        ('{"pairs": [[true, 0]]}', "pairs"),
        ('{"bricks": [[true, true]]}', "bricks"),
        ('{"pairs": ""}', "pairs"),
        ('{"pairs": {}}', "pairs"),
    ):
        code, out, err = run(capsys, "canon", "-n", "2", text)
        assert code == 1 and out == ""
        assert err.startswith("error: %s must be" % field) and err.count("\n") == 1, err


# --- appendix generation against the enumerator -----------------------------

@pytest.mark.parametrize("n,cap", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_appendix_blocks_complete_below_threshold(n, cap):
    thr = bl.appendix_threshold(n, cap)
    gen = [e for e in bl.appendix_blocks(n, cap) if c.length(e) <= thr]
    assert gen == bl.reference_blocks(n, thr)


def test_appendix_blocks_are_valid_and_sorted():
    for n in (2, 3):
        listing = bl.appendix_blocks(n, 2)
        assert listing == sorted(set(listing), key=c.sort_key)
        for e in listing:
            assert c.affine_length(e) >= 1 and not e.bricks


def test_appendix_counts_frozen():
    # beyond the threshold the enumerator check does not reach: pin the sizes
    for n, sizes in ((2, (3, 19, 47, 87, 139, 203)), (3, (7, 111, 431, 1087, 2199, 3887))):
        assert [len(bl.appendix_blocks(n, cap)) for cap in range(6)] == list(sizes), n


def test_finite_shapes():
    for n in (2, 3):
        shapes = fin.finite_shapes(n)
        import math
        assert len(shapes) == math.factorial(n + 1)
        assert len(set(shapes)) == len(shapes)


def test_malformed_element_tokens(capsys):
    for text, token in (
        ("h(1,2,3) a", "h(1,2,3)"),
        ("h(x,1) a", "h(x,1)"),
        ("h(3,0) a | [1,2,3]", "[1,2,3]"),
        ("h(3,0) a | [x,1]", "[x,1]"),
    ):
        code, _, err = run(capsys, "canon", "-n", "2", text)
        assert code == 1
        assert repr(token) in err and "expected" in err, err
        with pytest.raises(ValueError, match="expected"):
            c.parse_element(text, 2)


# --- the README's CLI examples ----------------------------------------------

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def readme_examples():
    """(argv, expected stdout lines) for each `affcox` line of the README's
    CLI section: the inline `# ...` comment, lines separated by `  /  `, or
    the `# ...` lines right below the command; empty when there is neither."""
    with open(README) as f:
        section = f.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples, below = [], False
    for line in (l.strip() for l in section.splitlines()):
        if line.startswith("affcox "):
            command, _, comment = line.partition("#")
            examples.append((shlex.split(command)[1:],
                             comment.strip().split("  /  ") if comment else []))
            below = not comment
        elif below and line.startswith("# "):
            examples[-1][1].append(line[2:])
        else:
            below = False
    return examples


README_EXAMPLES = readme_examples()


def test_readme_examples_have_outputs():
    # one example per command of the table, in its order
    assert [argv[0] for argv, _ in README_EXAMPLES] == [
        cmd.name for cmd in cli.COMMANDS]
    assert [argv[0] for argv, expected in README_EXAMPLES if not expected] == [
        "appendix", "selfcheck"]


@pytest.mark.parametrize("argv,expected", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if expected:
        assert out.splitlines() == expected


# --- dispatch: a known command is parsed once, by its own subparser ----------

HAPPY_ARGV = [shlex.split(line) for line in (
    "canon -n 2 ''",
    "canon -n 2 [1,1]",
    "canon -n 2 'h(3,0) a [1,1]'",
    "canon -n 2 'h(2,0) a h(1,1) a | [2,2]'",
    "canon -n 2 's2 s1 a' --json",
    """canon -n 2 '{"pairs": [[2, 1]], "bricks": [], "l": 3, "L": 1}' --json""",
    "len -n 2 --json 'a s1 a'",
    "len -n 2 'h(3,0) a |'",
    "descents -n 2 1 --json",
    "descents -n 2 's1 a'",
    "mul -n 2 's1 a' 'a s1' --json",
    "inv -n 2 'h(3,0) a |'",
    "blocks -n 2 -m 1",
    "blocks -n 2 -m 2 --max-len 5",
    "blocks -n 2 -m 1 --json",
    "blocks -n 2 -m 1 --max-len 0",
    "blocks -n 2 -m 1 --max-len 0 --json",
    "blocks -n 8 -m 8 --max-len 10 --count-only",
    "blocks -n 3 --m 4 --max-len 12 --count-only",
    "embed --from 2 'h(3,0) a |'",
    "member -n 3 'h(4,0) a |' --json",
    "hecke-mul -n 2 s2 a --json",
    "hecke-mul -n 2 --json 's1 a' 'a s1'",
    "appendix -n 2",
    "appendix -n 2 --json",
    "appendix -n 2 --max-len 3 --count-only",
    "appendix -n 3 --count-only",
    "selfcheck -n 2 --max-len 6",
    "selfcheck -n 2 --max-len 4 --json",
)]


class ArgparseParse(Exception):
    """Raised by a parser, the top level's or a command's, where a test
    forbids its use."""


@pytest.fixture
def argparse_raises(monkeypatch):
    top, tables = cli.build_parser()
    def refuse(*args, **kwargs):
        raise ArgparseParse()
    for parser in (top, *(table.parser for table in tables.values())):
        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(parser, name, refuse)


def test_known_command_skips_the_top_level_parser(capsys, argparse_raises):
    # a well-formed argv is read off its command's table: no parser runs
    for argv in [argv for argv, _ in README_EXAMPLES] + HAPPY_ARGV:
        assert run(capsys, *argv)[::2] == (0, ""), argv


@pytest.mark.parametrize("argv", [[], ["nonsense"], ["-h"], ["-n", "2", "canon", "s1"]],
                         ids=["empty", "unknown", "help", "option-first"])
def test_the_rest_reaches_the_top_level_parser(argparse_raises, argv):
    with pytest.raises(ArgparseParse):
        cli.main(argv)


@pytest.mark.parametrize("argv", list(USAGE_ERRORS) + [
    argv for argv, *_ in USAGE_ERROR_OUTPUT + HELP])
def test_help_and_usage_errors_reach_argparse(argparse_raises, argv):
    """argparse alone prints help and words usage errors: the table read
    declines every argv of the three tests above."""
    with pytest.raises(ArgparseParse):
        cli.main(argv)


def test_parser_built_once(capsys):
    top, commands = cli.build_parser()
    assert list(commands) == [cmd.name for cmd in cli.COMMANDS]
    assert cli.main(["canon", "-n", "2", "s1 a"]) == 0
    assert cli.main(["len", "-n", "2", "s1 a"]) == 0
    again = cli.build_parser()
    assert again[0] is top and again[1] is commands
    with pytest.raises(SystemExit) as exc:
        cli.main(["embed", "a"])
    assert exc.value.code == 2
    assert "the following arguments are required: --from" in capsys.readouterr().err


# --- the table read against argparse ----------------------------------------

TABLES = cli.build_parser()[1]
VALUES = ("2", "3", " 3", "0", "1", "4", "x", "", "2.5", "-1")
ELEMENT_TEXTS = ("s1", "a s1", "1", "", "h(3,0) a |")
HOSTILE = ("-h", "--help", "--", "-n3", "--rank=3", "--ra", "-1", "", "-")


@st.composite
def well_formed_argv(draw):
    """A command, each required option and some others with valid values
    (some given twice), and its elements, in any order."""
    name = draw(st.sampled_from(sorted(TABLES)))
    table = TABLES[name]
    units = [[draw(st.sampled_from(ELEMENT_TEXTS))] for _ in table.elements]
    for action in dict.fromkeys(table.options.values()):
        for _ in range(draw(st.integers(1 if action.required else 0, 2))):
            flag = [draw(st.sampled_from(action.option_strings))]
            units.append(flag if action.nargs == 0 else flag + [draw(st.sampled_from(
                ("2", "3", " 3")))])
    units = draw(st.permutations(units))
    return [name] + [word for unit in units for word in unit]


@st.composite
def any_argv(draw):
    """A well-formed argv with up to three words inserted, replaced or
    deleted: the inserted and replacing words come from the command's
    option strings, valid and invalid values, element texts and words the
    read must decline."""
    argv = draw(well_formed_argv())
    pool = st.sampled_from(sorted(TABLES[argv[0]].options) + list(VALUES + ELEMENT_TEXTS
                                                                  + HOSTILE))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            argv.insert(at, draw(pool))
        elif at < len(argv):
            argv[at:at + 1] = [draw(pool)] if edit == "replace" else []
    return argv


READ_VS_ARGPARSE = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@READ_VS_ARGPARSE
@given(any_argv())
@example(["appendix", "-n", "4"])                    # a choice refused
@example(["canon", "-n", "2", "-n", "3", "--json", "--json", "s1"])  # repeated flags
@example(["canon", "-n", "2", "s1", "s1"])           # an element too many
@example(["mul", "-n", "2", "s1"])                   # an element too few
@example(["canon", "-n", "2", ""])                   # an empty element
@example(["canon", "--rank=3", "s1"])
@example(["canon", "--ra", "3", "s1"])
@example(["canon", "-n3", "s1"])
@example(["canon", "-n", "2", "-1"])
@example(["canon", "-n", "2", "--", "s1"])
@example(["canon", "-n", "2", "-h"])
def test_table_read_declines_or_agrees_with_argparse(argv):
    got = cli._read(TABLES[argv[0]], argv[1:])
    assert got is None or vars(got) == argparse_namespace(argv)


@READ_VS_ARGPARSE
@given(well_formed_argv())
def test_table_read_takes_every_well_formed_argv(argv):
    got = cli._read(TABLES[argv[0]], argv[1:])
    assert got is not None and vars(got) == argparse_namespace(argv)


# --- the console entry ------------------------------------------------------

def test_console_entry():
    """`python -m affcox.cli` reads sys.argv and exits with main's code."""
    src = os.path.join(os.path.dirname(README), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    (argv, expected), = [ex for ex in README_EXAMPLES if ex[0][0] == "canon"]
    for args, code, out in ((argv, 0, "\n".join(expected) + "\n"),
                            (["canon", "s1"], 2, "")):
        done = subprocess.run([sys.executable, "-m", "affcox.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (code, out), done.stderr
        assert bool(done.stderr) == bool(code)
