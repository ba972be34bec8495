#!/usr/bin/env python3
"""
The CLI output corpus: for each argv, the sha256 of what `affcox` prints
for it (stdout, stderr and the exit code), committed as
tests/cli_corpus.json and replayed by tests/test_cli_corpus.py.  The
corpus says only that the output did not change; the CLI tests say what
it is.

    PYTHONPATH=src python3 tools/cli_corpus.py     # rewrite tests/cli_corpus.json

Run it from the root of the repository after a change that alters output
on purpose, and name each argv whose digest changed.  The argv are:

  - every README example, and the argv tests/test_cli.py spells out: the
    string arguments of its `run(capsys, ...)` calls, the same calls
    inside a `for` loop over a literal table of strings with each row's
    strings in place of the loop's names, the string lists of its
    module-level tables and parametrize decorators, and the lines of
    HAPPY_ARGV (argv built any other way, such as `run(capsys, *argv)`,
    are not read);
  - each command at the first rank past perms.MAX_RANK;
  - `appendix -n 2` and `-n 3`, and `selfcheck -n 2..8 --max-len 4`;
  - `blocks -n 3 -m 4` and `blocks -n 4 -m 3 --max-len 12`, whose blocks
    have many lengths, so the digests pin the listing's order;
  - canonical-form text that reaches each error of
    canonical.parse_element (a bad `h(` token, a pair without its `a`, a
    brick before a pair, a bad brick after the bar, two bars), texts
    with two errors, whose message pins which is read first, and the
    identity's descents;
  - 200 seeded `hecke-mul` argv (n 2-4, reduced words of up to 6 letters);
  - seeded inputs for every element command, each element written as a
    word, as canonical text and as JSON, at n 2-8 with up to 40 letters.

Each argv runs as it is and with `--json` appended, in this process, with
COLUMNS=80, so argparse wraps its help and usage at 80 columns.  Help and
usage text is argparse's own, so the digests hold for one minor version of
CPython (3.11 when the file was written).
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "cli_corpus.json"
SEED = 18

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from affcox import canonical as c  # noqa: E402
from affcox import cli, perms, tower  # noqa: E402
from affcox.words import Word, format_word  # noqa: E402


# --- one run -----------------------------------------------------------------

def run(argv):
    """(exit code, stdout, stderr) of `affcox argv`, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(argv):
    code, out, err = run(argv)
    return hashlib.sha256(("%r\0%s\0%s" % (code, out, err)).encode()).hexdigest()


def load():
    """The committed corpus: shlex-joined argv -> digest."""
    with open(CORPUS) as f:
        return json.load(f)


def differing(corpus):
    """The keys of `corpus` whose argv prints something else today."""
    return [key for key, want in corpus.items() if digest(shlex.split(key)) != want]


# --- the argv ----------------------------------------------------------------

def readme_argv():
    """The argv of each `affcox` line of the README's CLI section."""
    with open(ROOT / "README.md") as f:
        section = f.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line.strip().partition("#")[0])[1:]
            for line in section.splitlines() if line.strip().startswith("affcox ")]


def _strings(node):
    """The strings of a list or tuple literal of string constants, else None."""
    if isinstance(node, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and type(e.value) is str for e in node.elts):
        return [e.value for e in node.elts]
    return None


def suite_argv():
    """The argv tests/test_cli.py spells out (module docstring)."""
    with open(ROOT / "tests" / "test_cli.py") as f:
        tree = ast.parse(f.read())
    out = []
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
                getattr(t, "id", None) == "HAPPY_ARGV" for t in top.targets):
            out += [shlex.split(node.value) for node in ast.walk(top.value)
                    if isinstance(node, ast.Constant) and type(node.value) is str]
            continue
        tables = [top.value] if isinstance(top, ast.Assign) else []
        tables += [d for d in getattr(top, "decorator_list", ())
                   if "parametrize" in ast.dump(d)]
        for table in tables:
            skip = _ids(table)
            out += [argv for node in ast.walk(table)
                    if node not in skip and (argv := _strings(node)) is not None]
        for node in ast.walk(top):
            if _is_run(node):
                argv = _strings(ast.Tuple(elts=node.args[1:]))
                if argv is not None:
                    out.append(argv)
            elif isinstance(node, ast.For):
                out += _loop_argv(node)
    return out


def _is_run(node):
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run"
            and node.args and getattr(node.args[0], "id", None) == "capsys")


def _loop_argv(loop):
    """The argv of each `run(capsys, ...)` call in the body of a `for` loop
    over a literal table of string rows, once per row: each argument a
    string, or a name the loop binds to one of the row's strings."""
    unpacks = isinstance(loop.target, ast.Tuple)
    names = loop.target.elts if unpacks else [loop.target]
    if not (all(isinstance(t, ast.Name) for t in names)
            and isinstance(loop.iter, (ast.List, ast.Tuple))):
        return []
    rows = [_strings(e if unpacks else ast.Tuple(elts=[e])) for e in loop.iter.elts]
    calls = [node for stmt in loop.body for node in ast.walk(stmt) if _is_run(node)]
    out = []
    for row in rows:
        if row is None or len(row) != len(names):
            continue
        bound = {t.id: v for t, v in zip(names, row)}
        for call in calls:
            args = [a.value if isinstance(a, ast.Constant) and type(a.value) is str
                    else bound.get(getattr(a, "id", None)) for a in call.args[1:]]
            if None not in args:
                out.append(args)
    return out


def _ids(table):
    """The literal nodes under the `ids=` keywords of a decorator."""
    return {n for kw in ast.walk(table) if isinstance(kw, ast.keyword) and kw.arg == "ids"
            for n in ast.walk(kw.value)}


def limit_argv():
    """Each command row's argv at the first rank past perms.MAX_RANK."""
    n = str(perms.MAX_RANK + 1)
    for cmd in cli.COMMANDS:
        rank = "--from" if cmd.name == "embed" else "-n"
        extra = ["-m", "0"] if cmd.name == "blocks" else []
        yield [cmd.name, rank, n, *extra, *["a"] * len(cmd.elements)]


# canonical-form texts at rank 3: each parse_element error (U+0663 is an
# Arabic-Indic digit, not words.INDEX), two errors in one text (the first
# read is named), and texts it reads
PARSE_TEXTS = (
    "h(3,x) a |", "h(\u0663,0) a |", "h(3,0)a |",
    "h(3,0)", "h(3,0) |", "h(3,0) s1 a", "h(3,0) [1,x]",
    "[1,1] h(3,0) a", "[1,1] h(3,0) a |",
    "h(3,0) a | [1,x]", "h(3,0) a | h(2,0) a",
    "h(3,0) a | [1,1] | [2,2]", "h(3,0) a || [1,1]",
    "h(x,0) a | [1,x]", "h(9,9) a | [1,x]",
    "|", "h(03,0) a | [01,1]", " h(3,0)  a  [1,1] ",
)


def parse_argv():
    """`canon` on each of PARSE_TEXTS, `mul` with it on the right, and the
    identity's descents."""
    out = [["descents", "-n", "2", "1"], ["descents", "-n", "3", "|"]]
    for text in PARSE_TEXTS:
        out.append(["canon", "-n", "3", text])
        out.append(["mul", "-n", "3", "h(4,0) a |", text])
    return out


def _random_element(n, rng, max_letters):
    k = rng.randrange(max_letters + 1)
    return c.canonicalize(Word(n, [rng.randrange(n + 1) for _ in range(k)]))


def _spellings(e):
    """e as a word, as canonical text and as JSON."""
    return [format_word(c.element_word(e).letters), c.format_element(e),
            json.dumps(cli.element_json(e))]


def seeded_argv(rng):
    out = []
    for _ in range(200):
        n = rng.randrange(2, 5)
        u, v = (format_word(c.element_word(_random_element(n, rng, 6)).letters)
                for _ in "uv")
        out.append(["hecke-mul", "-n", str(n), u, v])
    for k in range(12):
        n = 2 + k % 7
        e, f = _random_element(n, rng, 40), _random_element(n, rng, 40)
        lifted = tower.embed(_random_element(n, rng, 40))
        for text, other, up in zip(_spellings(e), _spellings(f), _spellings(lifted)):
            for cmd in ("canon", "len", "descents", "inv"):
                out.append([cmd, "-n", str(n), text])
            out.append(["mul", "-n", str(n), text, other])
            out.append(["embed", "--from", str(n), text])
            for cmd in ("member", "preimage"):
                out.append([cmd, "-n", str(n + 1), up])
                out.append([cmd, "-n", str(n), text])
    return out


def corpus_argv():
    """Every argv of the corpus, each as it is and with --json, once."""
    groups = readme_argv() + suite_argv() + list(limit_argv())
    groups += [["appendix", "-n", "2"], ["appendix", "-n", "3"]]
    groups += [["selfcheck", "-n", str(n), "--max-len", "4"] for n in range(2, 9)]
    groups += [["blocks", "-n", "3", "-m", "4"],
               ["blocks", "-n", "4", "-m", "3", "--max-len", "12"]]
    groups += parse_argv()
    groups += seeded_argv(random.Random(SEED))
    keys = {}
    for argv in groups:
        for variant in (argv, argv + ["--json"]):
            keys.setdefault(shlex.join(variant), variant)
    return list(keys.values())


def main():
    corpus = {shlex.join(argv): digest(argv) for argv in corpus_argv()}
    with open(CORPUS, "w") as f:
        json.dump(corpus, f, indent=0)
        f.write("\n")
    print("%d argv written to %s" % (len(corpus), CORPUS.relative_to(ROOT)))


if __name__ == "__main__":
    main()
