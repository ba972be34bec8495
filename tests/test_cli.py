"""Command-line surface: in-process dispatch, exit codes, output shapes."""

import json

import pytest

from affcox import canonical as c
from affcox import cli
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


def test_embed_member_preimage(capsys):
    code, out, _ = run(capsys, "embed", "--from", "2", "a")
    assert code == 0
    assert out.splitlines() == ["h(3,0) a | [3,3]", "l=3 L=1"]
    code, out, _ = run(capsys, "embed", "-n", "3", "a")
    assert out.splitlines()[0] == "h(3,0) a | [3,3]"
    code, out, _ = run(capsys, "member", "-n", "3", "h(3,0) a | [3,3]")
    assert (code, out.strip()) == (0, "yes")
    code, out, _ = run(capsys, "member", "-n", "3", "h(4,0) a |", "--json")
    assert json.loads(out) == {"member": False}
    code, out, _ = run(capsys, "preimage", "-n", "3", "h(3,0) a | [3,3]")
    assert code == 0
    assert out.splitlines() == ["h(3,0) a |", "l=1 L=1"]
    code, _, err = run(capsys, "preimage", "-n", "3", "h(4,0) a |")
    assert code == 1 and "image" in err
    code, _, err = run(capsys, "embed", "--from", "2", "-n", "4", "a")
    assert code == 1


def test_hecke_mul(capsys):
    code, out, _ = run(capsys, "hecke-mul", "-n", "2", "s1", "s1")
    assert code == 0
    assert out.splitlines() == ["q - 1 * [| [1,1]]", "q * [1]"]
    code, out, _ = run(capsys, "hecke-mul", "-n", "2", "s2", "a", "--json")
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"coeff": [[0, 1]], "pairs": [[2, 0]], "bricks": []}]
    }


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


def test_selfcheck(capsys):
    code, out, _ = run(capsys, "selfcheck", "-n", "2", "--max-len", "6")
    assert code == 0
    assert [l.split(":")[1].strip() for l in out.splitlines()] == ["ok"] * 3


def test_usage_errors(capsys):
    for argv in (
        ["canon", "s1"],              # missing -n
        ["canon", "-n", "1", "s1"],   # rank below 2
        ["nonsense"],                 # unknown subcommand
        ["embed", "a"],               # neither --from nor -n
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


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(e):
        raise c.InvariantError("descent engine broke")
    monkeypatch.setattr(c, "right_descents", broken)
    code, out, err = run(capsys, "descents", "-n", "2", "s1 a")
    assert code == 3 and out == ""
    assert err == "internal error: descent engine broke\n"


# --- appendix generation against the enumerator -----------------------------

@pytest.mark.parametrize("n,cap", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_appendix_blocks_complete_below_threshold(n, cap):
    thr = cli.appendix_threshold(n, cap)
    gen = [e for e in cli.appendix_blocks(n, cap) if c.length(e) <= thr]
    assert gen == cli.reference_blocks(n, thr)


def test_appendix_blocks_are_valid_and_sorted():
    for n in (2, 3):
        listing = cli.appendix_blocks(n, 2)
        assert listing == sorted(set(listing), key=c.sort_key)
        for e in listing:
            assert c.affine_length(e) >= 1 and not e.bricks


def test_appendix_counts_frozen():
    assert len(cli.appendix_blocks(2, 2)) == 47
    assert len(cli.appendix_blocks(3, 2)) == 431


def test_finite_shapes():
    for n in (2, 3):
        shapes = cli.finite_shapes(n)
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
