"""Word parsing and the reflection-sequence tests."""

import random

import pytest

from affcox.perms import AFFINE, perm_length, to_permutation
from affcox.words import (
    Word,
    format_word,
    hat_partner,
    is_reduced,
    parse_word,
    word,
)


def test_parse_basic():
    assert parse_word("s1 a s2", 2).letters == (1, AFFINE, 2)
    assert parse_word("", 3).letters == ()
    assert parse_word("s1*a*s2", 2).letters == (1, AFFINE, 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_word("s4", 3)
    with pytest.raises(ValueError):
        parse_word("x7", 3)
    with pytest.raises(ValueError):
        parse_word("s0", 3)
    for letters in ((1, 4), (-1,)):  # word() checks each letter's range too
        with pytest.raises(ValueError, match="invalid at rank 3"):
            word(3, letters)


def test_format_and_roundtrip():
    assert format_word(Word(2, (1, AFFINE))) == "s1 a"
    assert format_word(Word(2, ())) == ""
    assert format_word(Word(2, (2, 2))) == "s2 s2"  # printing does not reduce
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice([2, 3, 5])
        w = word(n, [rng.randrange(0, n + 1) for _ in range(rng.randrange(8))])
        assert parse_word(format_word(w), n) == w


def test_is_reduced_examples():
    assert not is_reduced(Word(2, (1, 1)))
    # braid-equal pair of length-5 reduced words at n=3
    assert is_reduced(parse_word("s3 a s3 s1 a", 3))
    assert is_reduced(parse_word("a s3 s1 a s1", 3))
    # reduced of length 7 at n=2 (though of affine length 2, not 3)
    assert is_reduced(parse_word("a s2 s1 a s1 s2 a", 2))


@pytest.mark.parametrize("n", [2, 3])
def test_is_reduced_iff_length_matches(n):
    rng = random.Random(17 * n)
    for _ in range(300):
        letters = tuple(rng.randrange(0, n + 1) for _ in range(rng.randrange(10)))
        w = Word(n, letters)
        assert is_reduced(w) == (
            perm_length(to_permutation(letters, n)) == len(letters)
        )


def test_hat_partner_frozen():
    # both spec examples collapse onto their first letter (0-based position 0):
    # the unique j with t_j = t_r is j = 0 in each case, by oracle brute force
    assert hat_partner(Word(2, (1, 1))) == 0
    assert hat_partner(Word(3, (1, 2, 1, 2))) == 0
    assert hat_partner(parse_word("s3 a s3 s1 a", 3)) is None


def test_hat_partner_prefix_check():
    with pytest.raises(ValueError):
        hat_partner(Word(2, (1, 1, 2)))  # prefix s1 s1 is not reduced


@pytest.mark.parametrize("n", [2, 3])
def test_hat_partner_deletion_property(n):
    # removing positions j and r-1 must leave the same group element,
    # and a value comes back exactly when the word is non-reduced
    rng = random.Random(23 * n)
    tried = 0
    while tried < 200:
        letters = [rng.randrange(0, n + 1) for _ in range(rng.randrange(1, 9))]
        w = Word(n, tuple(letters))
        if not is_reduced(Word(n, tuple(letters[:-1]))):
            continue
        tried += 1
        j = hat_partner(w)
        if is_reduced(w):
            assert j is None
            continue
        assert j is not None and 0 <= j < len(letters) - 1
        pruned = letters[:j] + letters[j + 1 : -1]
        assert to_permutation(tuple(pruned), n) == to_permutation(
            tuple(letters), n
        )
