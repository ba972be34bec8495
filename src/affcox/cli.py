"""
Batch command-line surface over the library.

Every subcommand is one row of `COMMANDS`, whose `run` returns the JSON
object and the text of its result (a block listing, of any size, builds
only the one it prints); `main` reads the argv of the row that argv[0]
names off that row's table (`_read`: each word an exact option string and
its value, a flag, or the next element), reads the row's element
arguments at `args.rank` and prints one of the two.  argparse runs only
on argv that the table read declines (the row's subparser) or that names
no command (the top-level parser), so it alone prints help and words
usage errors.  Only `selfcheck` prints for itself: it prints its status
lines before it fails.

Element arguments are sniffed: a leading '{' means the JSON form, the
presence of 'h(', '[', '|' (or a bare '1') means canonical-form text,
anything else is word syntax ("s3 a s3 s1 a").  Words are canonicalized
on input, so feeding a canonical line back through `canon` is a fixed
point.  The `appendix` subcommand prints the golden block listings of
`blocks` and their check against the enumerator.

Exit codes: 0 success, 1 domain error (invalid element, not in the
embedding image, a failed self-check), 2 usage error, 3 internal error
(an engine invariant or assertion failed: a bug), 4 resource limit (a
MemoryError, or a RuntimeError such as RecursionError or a size past one
of the library's limits, each raised by perms.past_limit: perms.MAX_RANK,
perms.MAX_STATES, blocks.MAX_ITEMS, canonical.MAX_PAIRS and
hecke.MAX_TERMS).  An error ends in one line on stderr, never a
traceback.
"""

import argparse
import functools
import json
import sys
from collections import namedtuple

from . import blocks as bl
from . import canonical as c
from . import finite as fin
from . import hecke as hk
from . import tower
from .finite import brick_identities_check
from .perms import check_length_formula, check_relations
from .words import Word, format_word, parse_word

# --- element input/output ---------------------------------------------------

def parse_input(text, n):
    t = text.strip()
    if t.startswith("{"):
        return c.from_json(json.loads(t), n)
    if t == "1" or "h(" in t or "[" in t or "|" in t:
        return c.parse_element(t, n)
    return c.canonicalize(parse_word(t, n))


def _lengths(e):
    return {"l": c.length(e), "L": c.affine_length(e)}


def element_json(e):
    return {**c.to_json(e), **_lengths(e)}


# --- subcommands: each run returns (JSON object, text) ----------------------

def _element(op):
    """The run of a command whose result is the element op(*elements)."""
    def run(args, *elements):
        e = op(*elements)
        obj = element_json(e)
        return obj, "%s\nl=%d L=%d" % (c.format_element(e), obj["l"], obj["L"])
    return run


def _preimage(e):
    pre = tower.preimage(e)
    if pre is None:
        raise ValueError("element is not in the image of the rank-raising embedding")
    return pre


def _len(args, e):
    obj = _lengths(e)
    return obj, "l=%(l)d L=%(L)d" % obj


def _descents(args, e):
    gens, left, right = c.generators(e.n), c.left_descents(e), c.right_descents(e)
    obj = {"left": [s for s in gens if s in left], "right": [s for s in gens if s in right]}
    return obj, "L: %s\nR: %s" % tuple(
        format_word(Word(e.n, obj[side])) or "-" for side in ("left", "right"))


def _member(args, e):
    ok = tower.is_in_image(e)
    return {"member": ok}, "yes" if ok else "no"


def _hecke_mul(args, u, v):
    prod = hk.hecke_mul(hk.basis(u), hk.basis(v))
    terms = [dict(coeff=sorted(prod.terms[w].items(), reverse=True), **c.to_json(w))
             for w in sorted(prod.terms, key=c.sort_key, reverse=True)]
    return {"terms": terms}, hk.format_hecke(prod)


def _blocks(args):
    items = bl.enumerate_blocks(args.rank, args.m, max_len=args.max_len).items
    if args.count_only:
        return {"count": len(items)}, str(len(items))
    # c.sort_key's order and element_json's fields, from the pairs alone:
    # a block has no bricks
    listing = sorted((c.block_length(p, args.rank), p) for p in items)
    if args.json:  # a listing builds only the form that is printed
        return [{**c.form_json(p, ()), "l": length, "L": len(p)}
                for length, p in listing], None
    return None, "\n".join("%s  l=%d" % (c.format_form(p, ()), length)
                           for length, p in listing)


def _appendix(args):
    listing, thr, gen, ref = bl.appendix(args.rank, args.max_core, args.max_len)
    rf = [c.Element(args.rank, (), s) for s in fin.finite_shapes(args.rank)]
    if args.json:
        return {"rank": args.rank, "max_core": args.max_core, "count": len(listing),
                "blocks": None if args.count_only else [element_json(e) for e in listing],
                "right_factors": [c.to_json(e) for e in rf],
                "check": {"threshold": thr, "generated": gen, "enumerated": ref,
                          "ok": True}}, None
    if args.count_only:
        lines = [str(len(listing))]
    else:
        lines = ["%s  l=%d L=%d" % (c.format_element(e), c.length(e), c.affine_length(e))
                 for e in listing]
        lines += ["x %d right factors:" % len(rf)]
        lines += ["  %s" % c.format_element(e) for e in rf]
    return None, "\n".join(lines + ["check (l <= %d): ok, %d generated vs %d enumerated"
                                    % (thr, gen, ref)])


def _selfcheck(args):
    checks = {"relations": check_relations(args.rank),
              "length formula": check_length_formula(args.rank, args.max_len),
              "brick identities": brick_identities_check(args.rank)}
    failures = [bad for found in checks.values() for bad in found]
    if args.json:
        print(json.dumps({**checks, "max_len": args.max_len}))
    else:
        for name, found in checks.items():
            bound = " (l <= %d)" % args.max_len if name == "length formula" else ""
            print("%s%s: %s" % (name, bound, "FAILED" if found else "ok"))
        if failures:
            print("\n".join(failures), file=sys.stderr)
    if failures:
        raise ValueError("%d self-check failure(s)" % len(failures))


# --- the command table ------------------------------------------------------

def _int_at_least(what, low):
    """An argparse type: an integer >= low, else a usage error."""
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%s must be an integer" % what)
        if v < low:
            raise argparse.ArgumentTypeError("%s must be at least %d" % (what, low))
        return v
    return parse


_rank = _int_at_least("rank", 2)
_max_len = _int_at_least("max length", 0)
_RANK = (("-n", "--rank"), dict(type=_rank, required=True))
_MAX_LEN = (("--max-len",), dict(type=_max_len, default=None))
_COUNT_ONLY = (("--count-only",), dict(action="store_true"))
_FROM = (("--from",), dict(dest="rank", metavar="SOURCE", type=_rank, required=True,
                           help="rank of the input element (output rank is +1)"))

# elements: positional arguments, read at args.rank; run(args, *elements):
# (JSON object, text) or None; options: (flags, add_argument keywords) pairs
Command = namedtuple("Command", "name help elements run options", defaults=((_RANK,),))

# every run looks its library function up when it runs, so a module
# attribute patched by a test or a tracer is the one called
COMMANDS = (
    Command("canon", "canonicalize a word or element", ("element",),
            _element(lambda e: e)),
    Command("len", "length and affine length", ("element",), _len),
    Command("descents", "left and right descent sets", ("element",), _descents),
    Command("mul", "product of two elements", ("left", "right"),
            _element(lambda u, v: c.mul(u, v))),
    Command("inv", "inverse", ("element",), _element(lambda e: c.inverse(e))),
    Command("blocks", "blocks at a given affine length", (), _blocks,
            (_RANK, (("-m", "--m"), dict(type=_int_at_least("affine length", 0),
                                         required=True)), _COUNT_ONLY, _MAX_LEN)),
    Command("embed", "apply the rank-raising embedding", ("element",),
            _element(lambda e: tower.embed(e)), (_FROM,)),
    Command("member", "is the element in the image of the embedding",
            ("element",), _member),
    Command("preimage", "invert the embedding", ("element",), _element(_preimage)),
    Command("hecke-mul", "product of two Hecke basis elements", ("left", "right"),
            _hecke_mul),
    Command("appendix", "regenerate the golden listings", (), _appendix,
            ((("-n", "--rank"), dict(type=int, choices=(2, 3), required=True)),
             (("--max-core",), dict(type=_int_at_least("max core exponent", 0), default=2)),
             _MAX_LEN, _COUNT_ONLY)),
    Command("selfcheck", "run the oracle validation suite", (), _selfcheck,
            (_RANK, (("--max-len",), dict(type=_max_len, default=8)))),
)


# a row's subparser and what `_read` needs of it: its option actions (as
# `add_argument` returns them) by option string, its element names, the
# names argv must give (its required options' dests and its elements) and
# the defaults of every other dest, `cmd` included
Table = namedtuple("Table", "parser options elements required defaults")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The top-level parser and each row's `Table` by name (a subparser:
    --json, its options, its elements); built on first use and reused by
    every `main` call, which hands argv the table read declines to the
    row's subparser only."""
    p = argparse.ArgumentParser(
        prog="affcox",
        description="Canonical forms in the affine Coxeter groups of type ~A_n.")
    sub = p.add_subparsers(dest="command", required=True)
    tables = {}
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd.name, help=cmd.help)
        sp.set_defaults(cmd=cmd)
        actions = [sp.add_argument("--json", action="store_true")]
        actions += [sp.add_argument(*flags, **kwargs) for flags, kwargs in cmd.options]
        for name in cmd.elements:
            sp.add_argument(name)
        required = tuple(a.dest for a in actions if a.required) + cmd.elements
        tables[cmd.name] = Table(
            sp, {flag: a for a in actions for flag in a.option_strings}, cmd.elements,
            required, {**{a.dest: a.default for a in actions if not a.required}, "cmd": cmd})
    return p, tables


def _read(table, argv):
    """The Namespace the row's subparser gives argv (the words after the
    command), read off its table in one walk: a word equal to an option
    string takes the next word as its value, converted by the option's
    type and checked against its choices (a flag stores its const), and
    any other word not led by a dash is the next element.  None, for
    argparse to parse, when the read declines: a dash-led word that is not
    an option string (-h, --, --rank=3, an abbreviation), a value missing,
    dash-led, or refused by its type or choices, an element too many, or a
    required name absent.  No row has a string default, which argparse
    would convert by the option's type."""
    values = dict(table.defaults)
    elements = iter(table.elements)
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            name = next(elements, None)
            if name is None:
                return None
            values[name] = word
            continue
        action = table.options.get(word)
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(words, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not all(name in values for name in table.required):
        return None
    return argparse.Namespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    top, tables = build_parser()
    table = tables.get(argv[0]) if argv else None
    if table is None:  # no command, help, or a usage error: the top level exits
        args = top.parse_args(argv)
    else:
        args = _read(table, argv[1:])
        if args is None:  # declined: the row's subparser parses, or words the error
            args, extra = table.parser.parse_known_args(argv[1:])
            if extra:
                top.error("unrecognized arguments: %s" % " ".join(extra))
    try:
        elements = [parse_input(getattr(args, name), args.rank)
                    for name in args.cmd.elements]
        shown = args.cmd.run(args, *elements)
    except AssertionError as exc:  # InvariantError included: a bug
        print("internal error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        print("resource limit: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 4
    if shown is not None:
        obj, text = shown
        if args.json or text:  # an empty listing prints nothing
            print(json.dumps(obj) if args.json else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
