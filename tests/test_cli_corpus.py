"""The committed CLI output corpus (tests/cli_corpus.json, written by
`tools/cli_corpus.py`): every argv in it prints today exactly what it
printed when the file was written, stdout, stderr and exit code."""

import importlib.util
import os
import shlex
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "cli_corpus.py")


def load(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("cli_corpus", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_argv_prints_what_the_corpus_recorded(monkeypatch):
    mod = load(monkeypatch)
    corpus = mod.load()
    assert len(corpus) > 1000
    assert mod.differing(corpus) == []


def test_the_corpus_holds_the_readme_and_every_command(monkeypatch):
    # a README example added later must be added to the corpus too
    mod = load(monkeypatch)
    corpus = mod.load()
    for argv in mod.readme_argv():
        assert {shlex.join(argv), shlex.join(argv + ["--json"])} <= set(corpus), argv
    commands = {shlex.split(key)[0] for key in corpus if key}
    assert {cmd.name for cmd in mod.cli.COMMANDS} <= commands


def test_a_changed_output_is_named(monkeypatch):
    # the replay is live: one wrong digest is reported by its argv
    mod = load(monkeypatch)
    key = "len -n 2 'a s1 a'"
    assert mod.differing({key: "0" * 64}) == [key]
    assert mod.differing({key: mod.digest(shlex.split(key))}) == []
