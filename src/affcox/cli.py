"""
Batch command-line surface over the library.

Element arguments are sniffed: a leading '{' means the JSON form, the
presence of 'h(', '[', '|' (or a bare '1') means canonical-form text,
anything else is word syntax ("s3 a s3 s1 a").  Words are canonicalized
on input, so feeding a canonical line back through `canon` is a fixed
point.  The `appendix` subcommand prints the golden block listings of
`blocks` and their check against the enumerator.

Exit codes: 0 success, 1 domain error (invalid element, not in the
embedding image, a failed self-check), 2 usage error, 3 internal error
(an engine invariant or assertion failed: a bug), 4 resource limit (a
RuntimeError such as RecursionError or an enumeration cap, or a
MemoryError).  An error ends in one line on stderr, never a traceback.
"""

import argparse
import functools
import json
import sys

from . import blocks as bl
from . import canonical as c
from . import finite as fin
from . import hecke as hk
from . import tower
from .finite import brick_identities_check
from .perms import AFFINE, check_length_formula, check_relations
from .words import Word, format_word, parse_word

# --- element input/output ---------------------------------------------------

def parse_input(text, n):
    t = text.strip()
    if t.startswith("{"):
        return c.from_json(json.loads(t), n)
    if t == "1" or "h(" in t or "[" in t or "|" in t:
        return c.parse_element(t, n)
    return c.canonicalize(parse_word(t, n))


def element_json(e):
    obj = c.to_json(e)
    obj["l"] = c.length(e)
    obj["L"] = c.affine_length(e)
    return obj


def _emit_element(e, as_json):
    if as_json:
        print(json.dumps(element_json(e)))
    else:
        print(c.format_element(e))
        print("l=%d L=%d" % (c.length(e), c.affine_length(e)))


# --- subcommands ------------------------------------------------------------

def _cmd_canon(args):
    _emit_element(parse_input(args.element, args.rank), args.json)
    return 0


def _cmd_len(args):
    e = parse_input(args.element, args.rank)
    if args.json:
        print(json.dumps({"l": c.length(e), "L": c.affine_length(e)}))
    else:
        print("l=%d L=%d" % (c.length(e), c.affine_length(e)))
    return 0


def _cmd_descents(args):
    e = parse_input(args.element, args.rank)
    key = lambda s: (s == AFFINE, s)
    left = sorted(c.left_descents(e), key=key)
    right = sorted(c.right_descents(e), key=key)
    if args.json:
        print(json.dumps({"left": left, "right": right}))
    else:
        print("L: %s" % (format_word(Word(e.n, tuple(left))) or "-"))
        print("R: %s" % (format_word(Word(e.n, tuple(right))) or "-"))
    return 0


def _cmd_mul(args):
    u = parse_input(args.left, args.rank)
    v = parse_input(args.right, args.rank)
    _emit_element(c.mul(u, v), args.json)
    return 0


def _cmd_inv(args):
    _emit_element(c.inverse(parse_input(args.element, args.rank)), args.json)
    return 0


def _cmd_blocks(args):
    # enumerator output is valid by construction: wrap it, do not re-validate
    items = bl.enumerate_blocks(args.rank, args.m).items
    if args.max_len is not None:
        items = [p for p in items
                 if c.length(c.Element(args.rank, p, ())) <= args.max_len]
    if args.count_only:
        print(json.dumps({"count": len(items)}) if args.json else len(items))
        return 0
    elems = sorted((c.Element(args.rank, p, ()) for p in items), key=c.sort_key)
    if args.json:
        print(json.dumps([element_json(e) for e in elems]))
    else:
        for e in elems:
            print("%s  l=%d" % (c.format_element(e), c.length(e)))
    return 0


def _cmd_embed(args):
    _emit_element(tower.embed(parse_input(args.element, args.source)), args.json)
    return 0


def _cmd_member(args):
    e = parse_input(args.element, args.rank)
    ok = tower.is_in_image(e)
    print(json.dumps({"member": ok}) if args.json else ("yes" if ok else "no"))
    return 0


def _cmd_preimage(args):
    e = parse_input(args.element, args.rank)
    pre = tower.preimage(e)
    if pre is None:
        raise ValueError("element is not in the image of the rank-raising embedding")
    _emit_element(pre, args.json)
    return 0


def _cmd_hecke_mul(args):
    u = hk.basis(parse_input(args.left, args.rank))
    v = hk.basis(parse_input(args.right, args.rank))
    prod = hk.hecke_mul(u, v)
    if args.json:
        terms = [
            dict(coeff=sorted(prod.terms[w].items(), reverse=True), **c.to_json(w))
            for w in sorted(prod.terms, key=c.sort_key, reverse=True)
        ]
        print(json.dumps({"terms": terms}))
    else:
        print(hk.format_hecke(prod))
    return 0


def _cmd_appendix(args):
    listing = bl.appendix_blocks(args.rank, args.max_core)
    thr = bl.appendix_threshold(args.rank, args.max_core)
    gen = [e for e in listing if c.length(e) <= thr]
    ref = bl.reference_blocks(args.rank, thr)
    ok = gen == ref
    if args.max_len is not None:
        listing = [e for e in listing if c.length(e) <= args.max_len]
    rf = [c.make_element(args.rank, (), s) for s in fin.finite_shapes(args.rank)]
    if args.json:
        print(json.dumps({
            "rank": args.rank,
            "max_core": args.max_core,
            "count": len(listing),
            "blocks": None if args.count_only else [element_json(e) for e in listing],
            "right_factors": [c.to_json(e) for e in rf],
            "check": {
                "threshold": thr,
                "generated": len(gen),
                "enumerated": len(ref),
                "ok": ok,
            },
        }))
    else:
        if args.count_only:
            print(len(listing))
        else:
            for e in listing:
                print("%s  l=%d L=%d"
                      % (c.format_element(e), c.length(e), c.affine_length(e)))
            print("x %d right factors:" % len(rf))
            for e in rf:
                print("  %s" % c.format_element(e))
        print("check (l <= %d): %s, %d generated vs %d enumerated"
              % (thr, "ok" if ok else "MISMATCH", len(gen), len(ref)))
    if not ok:
        raise ValueError("capped listing disagrees with enumeration below l=%d" % thr)
    return 0


def _cmd_selfcheck(args):
    failures = []
    for name, bad in (
        ("relations", check_relations(args.rank)),
        ("length formula (l <= %d)" % args.max_len,
         check_length_formula(args.rank, args.max_len)),
        ("brick identities", brick_identities_check(args.rank)),
    ):
        print("%s: %s" % (name, "ok" if not bad else "FAILED"))
        failures.extend(bad)
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        raise ValueError("%d self-check failure(s)" % len(failures))
    return 0


# --- argument plumbing ------------------------------------------------------

def _rank(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("rank must be an integer")
    if v < 2:
        raise argparse.ArgumentTypeError("rank must be at least 2")
    return v


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse parser, built on first use and reused by every `main`
    call (parse_args leaves a parser unchanged)."""
    p = argparse.ArgumentParser(
        prog="affcox",
        description="Canonical forms in the affine Coxeter groups of type ~A_n.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *positional, rank=True):
        """A subcommand taking --json, then -n unless rank is False, then
        the positional arguments."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true")
        if rank:
            sp.add_argument("-n", "--rank", type=_rank, required=True)
        for arg in positional:
            sp.add_argument(arg)
        return sp

    add("canon", _cmd_canon, "canonicalize a word or element", "element")
    add("len", _cmd_len, "length and affine length", "element")
    add("descents", _cmd_descents, "left and right descent sets", "element")
    add("mul", _cmd_mul, "product of two elements", "left", "right")
    add("inv", _cmd_inv, "inverse", "element")

    sp = add("blocks", _cmd_blocks, "blocks at a given affine length")
    sp.add_argument("-m", "--m", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--max-len", type=int, default=None)

    sp = add("embed", _cmd_embed, "apply the rank-raising embedding", rank=False)
    sp.add_argument("--from", dest="source", type=_rank, required=True,
                    help="rank of the input element (output rank is +1)")
    sp.add_argument("element")

    add("member", _cmd_member, "is the element in the image of the embedding",
        "element")
    add("preimage", _cmd_preimage, "invert the embedding", "element")
    add("hecke-mul", _cmd_hecke_mul, "product of two Hecke basis elements",
        "left", "right")

    sp = add("appendix", _cmd_appendix, "regenerate the golden listings", rank=False)
    sp.add_argument("-n", "--rank", type=int, choices=(2, 3), required=True)
    sp.add_argument("--max-core", type=int, default=2)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--count-only", action="store_true")

    sp = add("selfcheck", _cmd_selfcheck, "run the oracle validation suite")
    sp.add_argument("--max-len", type=int, default=8)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AssertionError as exc:  # InvariantError included: a bug
        print("internal error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        print("resource limit: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
