"""
The three workloads: what each operation is, how its inputs are drawn from
the seed, and how its output is judged by the window oracle.

A workload is a sequence of rounds.  Every round has the same profile of
operation kinds, ranks and input sizes; only the random content differs.
A run that stops part-way through a round therefore still samples the
size profile evenly, which keeps throughput and percentiles steady across
seeds.  Round 0 also carries the workload's fixed scaling family.

Inputs are made in two steps.  The oracle side draws plain data (letters,
index pairs) from the seed; `build` then turns it into library inputs with
the library's own constructors (`words.word`, `canonical.make_element`,
`tower.embed`).  Only the second step is library set-up work.
"""

import contextlib
import hashlib
import io
import random
import re
from typing import NamedTuple

from affcox import blocks, canonical, cli, hecke, tower, words
from affcox.finite import HPrefix

import oracle as o


class Spec(NamedTuple):
    kind: str
    payload: tuple  # plain data; BUILD[kind] turns it into library inputs
    data: object    # what the oracle expects, computed from the payload
    tag: tuple = None  # (family, group, x) for a scaling-family point


class Op(NamedTuple):
    kind: str
    args: tuple
    spec: Spec


# --- operations --------------------------------------------------------------
#
# Each operation looks the library function up as a module attribute at call
# time, so the tracer's wrappers see the benchmark's own calls too.

def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


RUN = {
    "canonicalize": lambda w: canonical.canonicalize(w),
    "mul": lambda u, v: canonical.mul(u, v),
    "inverse": lambda e: canonical.inverse(e),
    "left_descents": lambda e: canonical.left_descents(e),
    "right_descents": lambda e: canonical.right_descents(e),
    "embed": lambda e: tower.embed(e),
    "preimage": lambda e: tower.preimage(e),
    "is_in_image": lambda e: tower.is_in_image(e),
    "hecke_mul_inv": lambda e: hecke.hecke_mul(
        hecke.basis(canonical.inverse(e)), hecke.basis(e)),
    "hr_embed": lambda e: hecke.hr_embed(hecke.basis(e)),
    "triangularity": lambda e: hecke.triangularity_certificate(e),
    "enumerate_blocks": lambda n, m: blocks.enumerate_blocks(n, m),
    "descent_cases_m2": lambda pairs, h, n: canonical.affine_descent_cases_m2(pairs, h, n),
    "cli": _cli,
}


def _element(n, raw):
    return canonical.make_element(n, raw[0], raw[1])


def _one_element(p):
    n, raw = p
    return (_element(n, raw),)


def _maybe_lifted(p):
    n, raw, lifted = p
    if lifted:
        return (tower.embed(_element(n - 1, raw)),)
    return (_element(n, raw),)


BUILD = {
    "canonicalize": lambda p: (words.word(p[0], p[1]),),
    "mul": lambda p: (_element(p[0], p[1]), _element(p[0], p[2])),
    "inverse": _one_element,
    "left_descents": _one_element,
    "right_descents": _one_element,
    "embed": _one_element,
    "preimage": _maybe_lifted,
    "is_in_image": _maybe_lifted,
    "hecke_mul_inv": _one_element,
    "hr_embed": _one_element,
    "triangularity": _one_element,
    "enumerate_blocks": lambda p: p,
    "descent_cases_m2": lambda p: (p[1], HPrefix(*p[2]), p[0]),
    "cli": lambda p: ([a if isinstance(a, str) else _lifted_text(*a[1:]) for a in p],),
}


def build(specs):
    return [Op(s.kind, BUILD[s.kind](s.payload), s) for s in specs]


# --- oracle checks -----------------------------------------------------------

def _canon_ok(out, n, window):
    return isinstance(out, canonical.Element) and o.is_canonical_of(out, n, window)


def _check_embed(spec, out):
    n1, window, raw = spec.data
    return (
        _canon_ok(out, n1, window)
        and tower.preimage(out) == _element(n1 - 1, raw)
    )


def _check_preimage(spec, out):
    in_image, n, window = spec.data
    if not in_image:
        return out is None
    raw = (out.pairs, out.bricks)
    return (
        _canon_ok(out, n - 1, _window(n - 1, raw))
        and _substituted(n - 1, raw) == window
    )


def _check_triangularity(spec, out):
    n1, target_window, m = spec.data
    a_w, lower = out
    if len(a_w) != 1 or list(a_w.values()) != [1]:
        return False
    top = o.perm_length(target_window)
    for x in lower.terms:
        if o.length_of(x) >= top or len(x.pairs) > m:
            return False
    return lower.n == n1 and not o.hecke_at_q1(lower)


def _check_blocks(spec, out):
    n, m = spec.payload
    items = out.items
    if len(items) != spec.data or len(set(items)) != len(items):
        return False
    for pairs in items:
        w = o.to_permutation(o.letters_of(n, pairs, ()), n)
        # a block is a minimal coset representative: its window increases
        if len(pairs) != m or list(w) != sorted(w):
            return False
        if not o.is_canonical_of(canonical.Element(n, pairs, ()), n, w):
            return False
    return True


def _check_descent_case(spec, out):
    letters, descends = spec.data
    if out is None:
        return not descends
    if not descends:
        return False
    j = out.position
    n = spec.payload[0]
    w = o.to_permutation(letters, n)
    return 0 <= j < len(letters) and o.to_permutation(
        letters[:j] + letters[j + 1:], n
    ) == o.right_mul(w, o.AFFINE)


_H = re.compile(r"h\((\d+),(\d+)\) a")
_B = re.compile(r"\[(\d+),(\d+)\]")


def _parse_text(line, n):
    """The CLI's canonical text, read by the benchmark's own parser."""
    pairs = tuple((int(j), int(i)) for j, i in _H.findall(line))
    bricks = tuple((int(i), int(j)) for i, j in _B.findall(line))
    return canonical.Element(n, pairs, bricks)


def _letter_set(text):
    toks = text.split(":", 1)[1].split()
    return {o.AFFINE if t == "a" else int(t[1:]) for t in toks if t != "-"}


def _check_cli(spec, out):
    code, text = out
    lines = text.splitlines()
    if code != 0 or not lines:
        return False
    sub, n, want = spec.data
    if sub in ("mul", "inv", "embed", "preimage"):
        e = _parse_text(lines[0], n)
        return o.is_canonical_of(e, n, want) and lines[1] == "l=%d L=%d" % (
            len(o.letters_of(n, e.pairs, e.bricks)), len(e.pairs))
    if sub == "descents":
        return (_letter_set(lines[0]), _letter_set(lines[1])) == want
    if sub == "len":
        return lines[0] == want
    if sub == "member":
        return lines[0] == ("yes" if want else "no")
    return False


CHECK = {
    "canonicalize": lambda s, out: _canon_ok(out, *s.data),
    "mul": lambda s, out: _canon_ok(out, *s.data),
    "inverse": lambda s, out: _canon_ok(out, *s.data),
    "left_descents": lambda s, out: out == s.data,
    "right_descents": lambda s, out: out == s.data,
    "embed": _check_embed,
    "preimage": _check_preimage,
    "is_in_image": lambda s, out: out is s.data,
    "hecke_mul_inv": lambda s, out: o.hecke_at_q1(out) == s.data,
    "hr_embed": lambda s, out: o.hecke_at_q1(out) == s.data,
    "triangularity": _check_triangularity,
    "enumerate_blocks": _check_blocks,
    "descent_cases_m2": _check_descent_case,
    "cli": _check_cli,
}


def check(op, out):
    """True when the output agrees with the oracle; a malformed output that
    makes the check itself raise counts as a disagreement."""
    try:
        return bool(CHECK[op.kind](op.spec, out))
    except (TypeError, ValueError, AttributeError, IndexError, KeyError):
        return False


# --- oracle-side input generation -------------------------------------------

def reduced_walk(n, length, rng, letters=None):
    """A reduced word of the given length, drawn by a random walk that only
    takes length-increasing letters; returns (letters, window)."""
    w = o.identity(n)
    out = []
    for _ in range(length):
        ups = o.right_ascents(w)
        if letters is not None:
            ups = [s for s in ups if s in letters]
        if not ups:
            break
        s = rng.choice(ups)
        out.append(s)
        w = o.right_mul(w, s)
    return tuple(out), w


def coxeter_power(n, k):
    return (tuple(range(1, n + 1)) + (o.AFFINE,)) * k


def w0(n):
    return tuple(s for j in range(n, 0, -1) for s in range(1, j + 1))


def random_block(n, m, rng):
    pairs = []
    prev = None
    for _ in range(m):
        prev = rng.choice(o.legal_next(prev, n))
        pairs.append(prev)
    return tuple(pairs)


def random_bricks(n, rng, p=0.5):
    return tuple(
        (rng.randint(1, j), j) for j in range(n, 0, -1) if rng.random() < p
    )


def random_element(n, rng, max_m, p=0.5, max_len=None):
    while True:
        raw = (random_block(n, rng.randint(0, max_m), rng), random_bricks(n, rng, p))
        if max_len is None or len(o.letters_of(n, *raw)) <= max_len:
            return raw


def element_text(n, raw):
    pairs, bricks = raw
    if not pairs and not bricks:
        return "1"
    left = " ".join("h(%d,%d) a" % p for p in pairs)
    right = " ".join("[%d,%d]" % b for b in bricks)
    return (left + " | " + right).strip()


class Fresh:
    """Draws inputs that have not occurred before in this run.

    Inputs seen are kept in a Bloom filter of fixed size, so the
    benchmark's memory does not grow with the number of operations run;
    its keys are hashed with blake2b, so draws do not depend on the
    interpreter's string hashing.  Where an input space is small enough to
    run out (short Hecke elements at rank 2), a draw that finds nothing new
    in `tries` attempts repeats an input and is counted in `repeats`."""

    BITS = 1 << 23

    def __init__(self, rng):
        self.rng = rng
        self.bits = bytearray(self.BITS // 8)
        self.repeats = 0

    def _add(self, item):
        """Record item; True when it was not recorded before."""
        digest = hashlib.blake2b(repr(item).encode(), digest_size=12).digest()
        new = False
        for k in range(0, 12, 4):
            byte, bit = divmod(int.from_bytes(digest[k:k + 4], "little") % self.BITS, 8)
            if not self.bits[byte] >> bit & 1:
                new = True
                self.bits[byte] |= 1 << bit
        return new

    def draw(self, make, key=None, tries=50):
        for _ in range(tries):
            value = make(self.rng)
            if self._add((key, value)):
                return value
        self.repeats += 1
        return value


def _canon_spec(n, letters, window=None, tag=None):
    if window is None:
        window = o.to_permutation(letters, n)
    return Spec("canonicalize", (n, letters), (n, window), tag)


# --- canon-long --------------------------------------------------------------

LONG_RANKS = (2, 3, 4, 6)
LONG_STRATA = 24            # log-spaced length strata per rank and round
LONG_MIN_L, LONG_MAX_L = 16, 400
CK_GRID = ((2, (8, 16, 32, 64)), (4, (8, 16, 32, 64)), (6, (8, 16, 32, 64)))


def canon_long(fresh, r):
    family = []
    if r == 0:
        for n, ks in CK_GRID:
            for k in ks:
                word = coxeter_power(n, k)
                family.append(_canon_spec(n, word, tag=("ck", n, len(word))))
    specs = []
    ratio = LONG_MAX_L / LONG_MIN_L
    for n in LONG_RANKS:
        for k in range(LONG_STRATA):
            def make(rng, n=n, k=k):
                length = round(LONG_MIN_L * ratio ** ((k + rng.random()) / LONG_STRATA))
                return reduced_walk(n, length, rng)
            letters, window = fresh.draw(make, key=n)
            specs.append(_canon_spec(n, letters, window))
    fresh.rng.shuffle(specs)
    return family + specs


# --- canon-wide --------------------------------------------------------------

WIDE_RANKS = (10, 16, 24)
WIDE_PER_RANK = 4           # finite-heavy words, and as many random ones
W0AW0_RANKS = (8, 12, 16, 20, 24)


def finite_heavy(n, rng):
    """Random reduced sigma-segments separated by 1-3 affine letters."""
    cuts = rng.randint(1, 3)
    top = n * (n + 1) // 2
    letters = ()
    sigmas = set(range(1, n + 1))
    for k in range(cuts + 1):
        seg, _ = reduced_walk(n, rng.randint(top // 8, top // 4), rng, sigmas)
        letters += ((o.AFFINE,) if k else ()) + seg
    return letters


def canon_wide(fresh, r):
    family = []
    if r == 0:
        for n in W0AW0_RANKS:
            word = w0(n) + (o.AFFINE,) + w0(n)
            family.append(_canon_spec(n, word, tag=("w0aw0", 0, n)))
    specs = []
    for n in WIDE_RANKS:
        for _ in range(WIDE_PER_RANK):
            specs.append(_canon_spec(n, fresh.draw(lambda rng: finite_heavy(n, rng), key=n)))
            specs.append(_canon_spec(n, fresh.draw(
                lambda rng: tuple(rng.randrange(n + 1) for _ in range(rng.randint(4 * n, 16 * n))),
                key=n)))
    fresh.rng.shuffle(specs)
    return family + specs


# --- element-ops -------------------------------------------------------------

ELEM_RANKS = (3, 4, 6)
ELEM_MAX_M = 6
HECKE_RANKS = (2, 3)
HECKE_MAX_LEN = 10
BLOCK_GRID = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2))
CLI_SUBS = ("mul", "inv", "descents", "len", "member", "embed", "preimage", "descents")


def _block_count(n, m):
    """Number of blocks of affine length m, by dynamic programming over the
    benchmark's own pair predicate."""
    ways = {None: 1}
    for _ in range(m):
        nxt = {}
        for prev, c in ways.items():
            for p in o.legal_next(prev, n):
                nxt[p] = nxt.get(p, 0) + c
        ways = nxt
    return sum(ways.values())


def _elem(fresh, n, key, **kw):
    return fresh.draw(lambda rng: random_element(n, rng, ELEM_MAX_M, **kw), key=(key, n))


def _lifted_text(n, raw):
    """Canonical text of the image of a rank-n element one rank up.  Writing
    it needs the embedding's closed formula, so it is made at build time
    by the library (tower.embed), as set-up work."""
    return canonical.format_element(tower.embed(_element(n, raw)))


def _window(n, raw):
    return o.to_permutation(o.letters_of(n, *raw), n)


def _cli_spec(fresh, sub, n):
    key = ("cli", sub)
    raw = _elem(fresh, n, key)
    w = _window(n, raw)
    text = element_text(n, raw)
    if sub == "mul":
        v = _elem(fresh, n, key)
        argv = ("mul", "-n", str(n), text, element_text(n, v))
        return Spec("cli", argv, (sub, n, o.compose(w, _window(n, v))))
    if sub == "inv":
        return Spec("cli", ("inv", "-n", str(n), text), (sub, n, o.inverse(w)))
    if sub == "descents":
        return Spec("cli", ("descents", "-n", str(n), text),
                    (sub, n, (o.left_descents_of(w), o.right_descents_of(w))))
    if sub == "len":
        return Spec("cli", ("len", "-n", str(n), text),
                    (sub, n, "l=%d L=%d" % (o.perm_length(w), len(raw[0]))))
    low = _elem(fresh, n - 1, key)
    if sub == "embed":
        argv = ("embed", "--from", str(n - 1), element_text(n - 1, low))
        return Spec("cli", argv, (sub, n, _substituted(n - 1, low)))
    if sub == "preimage":
        argv = ("preimage", "-n", str(n), ("lift", n - 1, low))
        return Spec("cli", argv, (sub, n - 1, _window(n - 1, low)))
    # member: half the inputs are images of the embedding, half arbitrary
    if fresh.rng.random() < 0.5:
        return Spec("cli", ("member", "-n", str(n), ("lift", n - 1, low)), (sub, n, True))
    return Spec("cli", ("member", "-n", str(n), text), (sub, n, o.in_embedding_image(w)))


def _substituted(n, raw):
    """Window, one rank up, of the letter substitution a -> s_{n+1} a s_{n+1}."""
    letters = tower.substitute_word(words.Word(n, o.letters_of(n, *raw))).letters
    return o.to_permutation(letters, n + 1)


def _h_letters(r, i, n):
    return tuple(range(r, n + 1)) + tuple(range(i, 0, -1))


ELEM_MIX = (
    ("mul", 4), ("inverse", 4), ("left_descents", 4), ("right_descents", 3),
    ("embed", 3), ("preimage", 3), ("is_in_image", 3), ("descent_cases_m2", 3),
    ("hecke_mul_inv", 2), ("hr_embed", 2), ("triangularity", 1),
    ("enumerate_blocks", 1), ("cli", 8),
)


def _elem_spec(fresh, kind, k, r):
    """The k-th operation of this kind in round r."""
    n = ELEM_RANKS[(r + k) % len(ELEM_RANKS)]
    if kind == "cli":
        return _cli_spec(fresh, CLI_SUBS[k % len(CLI_SUBS)], n)
    if kind in ("hecke_mul_inv", "hr_embed", "triangularity"):
        n = HECKE_RANKS[(r + k) % len(HECKE_RANKS)]
        raw = _elem(fresh, n, kind, p=0.3, max_len=HECKE_MAX_LEN)
        if kind == "hecke_mul_inv":
            return Spec(kind, (n, raw), {o.identity(n): 1})
        if kind == "hr_embed":
            return Spec(kind, (n, raw), {_substituted(n, raw): 1})
        return Spec(kind, (n, raw), (n + 1, _substituted(n, raw), len(raw[0])))
    if kind == "enumerate_blocks":
        n, m = BLOCK_GRID[r % len(BLOCK_GRID)]
        return Spec(kind, (n, m), _block_count(n, m))
    if kind == "descent_cases_m2":
        def make(rng):
            return random_block(n, 2, rng), (rng.randint(1, n + 1), rng.randint(0, n - 1))
        pairs, h = fresh.draw(make, key=(kind, n))
        letters = o.letters_of(n, pairs, ()) + _h_letters(*h, n)
        w = o.to_permutation(letters, n)
        descends = o.perm_length(o.right_mul(w, o.AFFINE)) < len(letters)
        return Spec(kind, (n, pairs, h), (letters, descends))
    if kind in ("preimage", "is_in_image"):
        lifted = fresh.rng.random() < 0.5
        raw = _elem(fresh, n - 1 if lifted else n, kind)
        w = _substituted(n - 1, raw) if lifted else _window(n, raw)
        if kind == "is_in_image":
            return Spec(kind, (n, raw, lifted), o.in_embedding_image(w))
        return Spec(kind, (n, raw, lifted), (o.in_embedding_image(w), n, w))
    raw = _elem(fresh, n, kind)
    w = _window(n, raw)
    if kind == "mul":
        v = _elem(fresh, n, kind)
        return Spec(kind, (n, raw, v), (n, o.compose(w, _window(n, v))))
    if kind == "inverse":
        return Spec(kind, (n, raw), (n, o.inverse(w)))
    if kind == "left_descents":
        return Spec(kind, (n, raw), o.left_descents_of(w))
    if kind == "right_descents":
        return Spec(kind, (n, raw), o.right_descents_of(w))
    return Spec(kind, (n, raw), (n + 1, _substituted(n, raw), raw))  # embed


def element_ops(fresh, r):
    specs = [
        _elem_spec(fresh, kind, k, r) for kind, count in ELEM_MIX for k in range(count)
    ]
    fresh.rng.shuffle(specs)
    return specs


class Workload(NamedTuple):
    round: object      # (fresh, r) -> list of Spec
    trace_rounds: int  # rounds the traced run covers (round 0 included)


WORKLOADS = {
    "canon-long": Workload(canon_long, 3),
    "canon-wide": Workload(canon_wide, 8),
    "element-ops": Workload(element_ops, 40),
}


def fresh_draws(name, seed):
    return Fresh(random.Random("%s:%d" % (name, seed)))


def rounds(name, fresh):
    """The workload's rounds, built into operations, for ever."""
    work = WORKLOADS[name]
    r = 0
    while True:
        yield build(work.round(fresh, r))
        r += 1
