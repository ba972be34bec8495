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

  - every README example, and every literal argv of tests/test_cli.py
    (the string arguments of its `run(capsys, ...)` calls, the string
    lists of its module-level tables and parametrize decorators, and the
    lines of HAPPY_ARGV);
  - each command at the first rank past perms.MAX_RANK;
  - `appendix -n 2` and `-n 3`, and `selfcheck -n 2..8 --max-len 4`;
  - `blocks -n 3 -m 4` and `blocks -n 4 -m 3 --max-len 12`, whose blocks
    have many lengths, so the digests pin the listing's order;
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
    """The literal argv of tests/test_cli.py."""
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
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run"
                    and node.args and getattr(node.args[0], "id", None) == "capsys"):
                argv = _strings(ast.Tuple(elts=node.args[1:]))
                if argv is not None:
                    out.append(argv)
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


def _random_element(n, rng, max_letters):
    k = rng.randrange(max_letters + 1)
    return c.canonicalize(Word(n, [rng.randrange(n + 1) for _ in range(k)]))


def _spellings(e):
    """e as a word, as canonical text and as JSON."""
    return [format_word(c.element_word(e)), c.format_element(e),
            json.dumps(cli.element_json(e))]


def seeded_argv(rng):
    out = []
    for _ in range(200):
        n = rng.randrange(2, 5)
        u, v = (format_word(c.element_word(_random_element(n, rng, 6))) for _ in "uv")
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
