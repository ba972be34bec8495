"""
Batch command-line surface over the library.

Element arguments are sniffed: a leading '{' means the JSON form, the
presence of 'h(', '[', '|' (or a bare '1') means canonical-form text,
anything else is word syntax ("s3 a s3 s1 a").  Words are canonicalized
on input, so feeding a canonical line back through `canon` is a fixed
point.

The `appendix` subcommand regenerates the golden listings of all blocks
of positive affine length at ranks 2 and 3.  Each listing is a union of
families

    alpha . c_1^{e_1} ... c_r^{e_r}

over a fixed tuple of cores c_t, where the allowed left factors alpha
depend on which exponents vanish.  The families are infinite (exponents
range over all naturals), so regeneration caps the core exponents at
--max-core; below the length threshold (max_core+1)*cheapest_core - 1
the capped listing is provably complete, and the subcommand checks it
there against the generic block enumerator.

Exit codes: 0 success, 1 domain error (invalid element, not in the
embedding image, a failed self-check), 2 usage error, 3 internal error
(an engine invariant failed: a bug, reported on one line).
"""

import argparse
import functools
import itertools
import json
import sys

from . import canonical as c
from . import hecke as hk
from . import tower
from .blocks import enumerate_blocks
from .finite import brick_identities_check
from .perms import AFFINE, InvariantError, check_length_formula, check_relations
from .words import parse_word

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


def _letter(s):
    return "a" if s == AFFINE else "s%d" % s


# --- appendix listings ------------------------------------------------------
#
# Pairs are (j, i).  None stands for the trivial left factor.  The first
# core of a family flagged has_eps has exponent range {0, 1} regardless
# of the cap.  Guards cut exponent vectors a family does not own.  The
# rank-3 families are pairwise disjoint; the rank-2 listing needs two
# parametrizations (neither alone reaches every block — the first has no
# h(1,0) core, the second no h(2,1) core) which overlap on their common
# h(1,1)-only entries, so the second is flagged overlap_ok and duplicates
# are dropped instead of rejected.

def _rank2_first_alphas(ex):
    h, _k = ex
    out = [None, (3, 0), (3, 1)]
    if h == 0:
        out.append((2, 0))
    return out


def _rank2_second_alphas(ex):
    h, _k = ex
    out = [None, (3, 0), (2, 0)]
    if h == 0:
        out.append((3, 1))
    return out


def _r3_f1_alphas(ex):
    e, f, h, _k = ex
    if e:
        return [None, (4, 0)]
    if f:
        return [None, (4, 0), (4, 1), (3, 0)]
    if h:
        return [None, (4, 0), (4, 1), (3, 0), (2, 0)]
    return [None, (4, 0), (4, 1), (3, 0), (2, 0), (4, 2)]


def _r3_f2_alphas(ex):
    e, f, _h, _k = ex
    if e:
        return [None, (4, 0)]
    if f:
        return [None, (4, 0), (4, 1), (3, 0)]
    return [None, (4, 0), (4, 1), (3, 0), (4, 2)]


# (cores, has_eps, guard, alphas, overlap_ok)
_FAMILIES = {
    2: (
        (((2, 1), (1, 1)), False, None, _rank2_first_alphas, False),
        (((1, 0), (1, 1)), False,
         lambda ex: sum(ex) > 0, _rank2_second_alphas, True),
    ),
    3: (
        (((3, 1), (2, 1), (1, 1), (1, 2)), True, None, _r3_f1_alphas, False),
        (((3, 1), (2, 1), (2, 2), (1, 2)), True,
         lambda ex: ex[2] > 0, _r3_f2_alphas, False),
        (((1, 0), (1, 1), (1, 2)), False,
         lambda ex: ex[0] > 0, lambda ex: [None, (4, 0), (3, 0), (2, 0)], False),
        (((3, 2), (2, 2), (1, 2)), False,
         lambda ex: ex[0] > 0, lambda ex: [None, (4, 0), (4, 1), (4, 2)], False),
    ),
}

_CHEAPEST_CORE = {2: 3, 3: 4}


def appendix_blocks(n, max_core=2):
    """The listed blocks with every core exponent <= max_core, as canonical
    elements with trivial finite part, sorted.  Raises on a malformed or
    duplicated listing entry — the families must be disjoint."""
    if n not in _FAMILIES:
        raise ValueError("appendix listings exist for ranks 2 and 3 only")
    seen = set()
    for cores, has_eps, guard, alphas, overlap_ok in _FAMILIES[n]:
        ranges = [
            range((1 if has_eps and t == 0 else max_core) + 1)
            for t in range(len(cores))
        ]
        for ex in itertools.product(*ranges):
            if guard is not None and not guard(ex):
                continue
            core_pairs = tuple(
                p for p, e in zip(cores, ex) for _ in range(e)
            )
            for alpha in alphas(ex):
                if alpha is None and not core_pairs:
                    continue  # affine length 0
                pairs = (() if alpha is None else (alpha,)) + core_pairs
                elem = c.make_element(n, pairs, ())
                if elem in seen:
                    if not overlap_ok:
                        raise InvariantError("listing families overlap at %r" % (pairs,))
                    continue
                seen.add(elem)
    return sorted(seen, key=c.sort_key)


def appendix_threshold(n, max_core):
    """Largest length where the capped listing is complete: a block it
    misses has some core exponent >= max_core + 1, hence length at least
    (max_core + 1) times the cheapest core."""
    return (max_core + 1) * _CHEAPEST_CORE[n] - 1


def reference_blocks(n, max_len):
    """Every valid block with positive affine length and length <= max_len,
    from the generic enumerator."""
    out = []
    m = 1
    while True:
        level = [
            c.make_element(n, pairs, ())
            for pairs in enumerate_blocks(n, m).items
        ]
        level = [e for e in level if c.length(e) <= max_len]
        if not level:
            break
        out.extend(level)
        m += 1
    return sorted(out, key=c.sort_key)


def finite_shapes(n):
    """All (n+1)! canonical brick shapes at rank n."""
    shapes = [()]
    for j in range(n, 0, -1):
        shapes = shapes + [
            s + ((i, j),) for s in shapes for i in range(1, j + 1)
        ]
    return sorted(shapes, key=lambda s: c.sort_key(c.make_element(n, (), s)))


def appendix_check(n, max_core):
    """(threshold, generated-within-threshold, reference, ok)."""
    thr = appendix_threshold(n, max_core)
    gen = [e for e in appendix_blocks(n, max_core) if c.length(e) <= thr]
    ref = reference_blocks(n, thr)
    return thr, gen, ref, gen == ref


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
        print("L: %s" % (" ".join(_letter(s) for s in left) or "-"))
        print("R: %s" % (" ".join(_letter(s) for s in right) or "-"))
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
    fam = enumerate_blocks(args.rank, args.m)
    elems = [c.make_element(args.rank, p, ()) for p in fam.items]
    if args.max_len is not None:
        elems = [e for e in elems if c.length(e) <= args.max_len]
    elems.sort(key=c.sort_key)
    if args.count_only:
        print(json.dumps({"count": len(elems)}) if args.json else len(elems))
        return 0
    if args.json:
        print(json.dumps([element_json(e) for e in elems]))
    else:
        for e in elems:
            print("%s  l=%d" % (c.format_element(e), c.length(e)))
    return 0


def _cmd_embed(args):
    source = args.source if args.source is not None else args.rank - 1
    if args.rank is not None and args.rank != source + 1:
        raise ValueError(
            "--from %d and --rank %d disagree; the embedding raises rank by 1"
            % (source, args.rank)
        )
    e = parse_input(args.element, source)
    _emit_element(tower.embed(e), args.json)
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
            {
                "coeff": sorted(poly.items(), reverse=True),
                "pairs": c.to_json(w)["pairs"],
                "bricks": c.to_json(w)["bricks"],
            }
            for w, poly in sorted(
                prod.terms.items(), key=lambda kv: c.sort_key(kv[0]), reverse=True
            )
        ]
        print(json.dumps({"terms": terms}))
    else:
        print(hk.format_hecke(prod))
    return 0


def _cmd_appendix(args):
    thr, gen, ref, ok = appendix_check(args.rank, args.max_core)
    listing = appendix_blocks(args.rank, args.max_core)
    if args.max_len is not None:
        listing = [e for e in listing if c.length(e) <= args.max_len]
    rf = [c.make_element(args.rank, (), s) for s in finite_shapes(args.rank)]
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
    elif args.count_only:
        print(len(listing))
        print("check (l <= %d): %s, %d generated vs %d enumerated"
              % (thr, "ok" if ok else "MISMATCH", len(gen), len(ref)))
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

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true")
        return sp

    def add_rank(sp, required=True, **kw):
        sp.add_argument("-n", "--rank", type=_rank, required=required, **kw)

    sp = add("canon", _cmd_canon, help="canonicalize a word or element")
    add_rank(sp)
    sp.add_argument("element")

    sp = add("len", _cmd_len, help="length and affine length")
    add_rank(sp)
    sp.add_argument("element")

    sp = add("descents", _cmd_descents, help="left and right descent sets")
    add_rank(sp)
    sp.add_argument("element")

    sp = add("mul", _cmd_mul, help="product of two elements")
    add_rank(sp)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = add("inv", _cmd_inv, help="inverse")
    add_rank(sp)
    sp.add_argument("element")

    sp = add("blocks", _cmd_blocks, help="blocks at a given affine length")
    add_rank(sp)
    sp.add_argument("-m", "--m", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--max-len", type=int, default=None)

    sp = add("embed", _cmd_embed, help="apply the rank-raising embedding")
    sp.add_argument("--from", dest="source", type=_rank, default=None,
                    help="rank of the input element (output rank is +1)")
    add_rank(sp, required=False, help="target rank (alternative to --from)")
    sp.add_argument("element")

    sp = add("member", _cmd_member,
             help="is the element in the image of the embedding")
    add_rank(sp)
    sp.add_argument("element")

    sp = add("preimage", _cmd_preimage, help="invert the embedding")
    add_rank(sp)
    sp.add_argument("element")

    sp = add("hecke-mul", _cmd_hecke_mul,
             help="product of two Hecke basis elements")
    add_rank(sp)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = add("appendix", _cmd_appendix, help="regenerate the golden listings")
    sp.add_argument("-n", "--rank", type=int, choices=(2, 3), required=True)
    sp.add_argument("--max-core", type=int, default=2)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--count-only", action="store_true")

    sp = add("selfcheck", _cmd_selfcheck, help="run the oracle validation suite")
    add_rank(sp)
    sp.add_argument("--max-len", type=int, default=8)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "embed":
        if args.source is None and args.rank is None:
            parser.error("embed needs --from (or -n)")
    try:
        return args.fn(args)
    except InvariantError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, AssertionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
