"""Command-line surface: in-process dispatch, exit codes, output shapes."""

import json
import os
import shlex

import pytest

from affcox import blocks as bl
from affcox import canonical as c
from affcox import cli
from affcox import finite as fin
from affcox import hecke as hk
from affcox import tower
from affcox.words import parse_word


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


def test_selfcheck(capsys, monkeypatch):
    code, out, _ = run(capsys, "selfcheck", "-n", "2", "--max-len", "6")
    assert code == 0
    assert [l.split(":")[1].strip() for l in out.splitlines()] == ["ok"] * 3
    # a failed check prints its status line, the failure, then one error line
    monkeypatch.setattr(cli, "check_relations", lambda n: ["s1 s1 is not 1"])
    code, out, err = run(capsys, "selfcheck", "-n", "2", "--max-len", "4")
    assert code == 1
    assert out.splitlines() == ["relations: FAILED", "length formula (l <= 4): ok",
                                "brick identities: ok"]
    assert err == "s1 s1 is not 1\nerror: 1 self-check failure(s)\n"


def test_usage_errors(capsys):
    for argv in (
        ["canon", "s1"],              # missing -n
        ["canon", "-n", "1", "s1"],   # rank below 2
        ["canon", "-n", "x", "s1"],   # rank not an integer
        ["nonsense"],                 # unknown subcommand
        ["embed", "a"],               # missing --from
        ["embed", "-n", "3", "a"],    # embed takes its rank as --from only
        ["appendix", "-n", "4"],      # appendix exists for ranks 2, 3
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_domain_errors(capsys):
    code, _, err = run(capsys, "canon", "-n", "2", "s5")
    assert code == 1 and "s5" in err
    code, _, err = run(capsys, "canon", "-n", "2", "h(9,9) a |")
    assert code == 1
    code, out, err = run(capsys, "appendix", "-n", "2", "--max-core", "-1")
    assert (code, out) == (1, "")
    assert err == "error: max core exponent must be >= 0, got -1\n"
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
        def broken(*args, _name=name):
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


@pytest.mark.parametrize("extra", [["--count-only"], ["--max-len", "12"],
                                   ["--max-len", "12", "--count-only"]])
def test_blocks_command_does_not_revalidate(capsys, monkeypatch, extra):
    calls = []
    for name in ("make_element", "validate_block"):
        orig = getattr(c, name)
        monkeypatch.setattr(c, name, lambda *a, _f=orig, _n=name: calls.append(_n) or _f(*a))
    code, out, _ = run(capsys, "blocks", "-n", "3", "--m", "4", *extra)
    assert code == 0 and out and calls == []


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
    assert len(bl.appendix_blocks(2, 2)) == 47
    assert len(bl.appendix_blocks(3, 2)) == 431


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
