import random

import pytest

from citkit.circuit import CircuitKind, classify, to_sparse
from citkit.ffcit import Verdict
from citkit.slp import (
    SlpError,
    TooLong,
    decompress,
    parse_slp,
    slp_equal,
    to_word_polynomial,
    word_length,
)

ABAB_1 = "S -> A A\nA -> 'a' 'b'\n"
ABAB_2 = "S -> B 'b'\nB -> A 'a'\nA -> 'a' 'b'\n"


def doubling_grammar(depth: int, symbol: str = "a") -> str:
    """Grammar for symbol^(2^depth)."""
    lines = [f"S{d} -> S{d-1} S{d-1}" for d in range(depth, 0, -1)]
    lines.append(f"S0 -> '{symbol}'")
    return "\n".join(lines)


def flipped_tail_grammar(depth: int, symbol: str = "a", tail: str = "b") -> str:
    """Grammar for symbol^(2^depth - 1) tail: same length as the doubling
    grammar but the final character differs."""
    lines = [f"W{k} -> S{k-1} W{k-1}" for k in range(depth, 0, -1)]
    lines.append(f"W0 -> '{tail}'")
    lines += [f"S{d} -> S{d-1} S{d-1}" for d in range(depth - 1, 0, -1)]
    lines.append(f"S0 -> '{symbol}'")
    return "\n".join(lines)


def test_parse_and_decompress():
    g = parse_slp(ABAB_1)
    assert decompress(g, 100) == "abab"
    g2 = parse_slp(ABAB_2)
    assert decompress(g2, 100) == "abab"


def test_parse_errors():
    with pytest.raises(SlpError, match="cycle"):
        parse_slp("S -> S S")
    with pytest.raises(SlpError, match="duplicate"):
        parse_slp("S -> 'a' 'b'\nS -> 'a'")
    with pytest.raises(SlpError, match="undefined"):
        parse_slp("S -> A B\nA -> 'a'")
    with pytest.raises(SlpError, match="empty"):
        parse_slp("")
    with pytest.raises(SlpError):
        parse_slp("S ->")


def test_unary_alias_and_wide_productions():
    g = parse_slp("S -> A\nA -> 'x' 'y' 'z' 'x'")
    assert decompress(g, 10) == "xyzx"
    assert word_length(g) == 4


def test_word_length_doubling():
    g = parse_slp(doubling_grammar(20))
    assert word_length(g) == 1 << 20


def test_word_length_fibonacci():
    lines = ["F1 -> 'a'", "F2 -> 'a' 'b'"]
    for i in range(3, 32):
        lines.append(f"F{i} -> F{i-1} F{i-2}")
    g = parse_slp("\n".join(reversed(lines)))
    a, b = 1, 2
    for _ in range(3, 32):
        a, b = b, a + b
    assert word_length(g) == b


def test_decompress_too_long():
    g = parse_slp(doubling_grammar(40))
    with pytest.raises(TooLong):
        decompress(g, 10**6)


def test_word_polynomial_encoding():
    wp = to_word_polynomial(parse_slp(ABAB_1))
    assert wp.length == 4
    assert to_sparse(wp.circuit).terms == ((1, 0), (2, 1), (1, 2), (2, 3))
    wp2 = to_word_polynomial(parse_slp(ABAB_2))
    assert to_sparse(wp2.circuit).terms == to_sparse(wp.circuit).terms


def test_word_polynomial_is_powerful_skew():
    for text in (ABAB_1, ABAB_2, doubling_grammar(12)):
        wp = to_word_polynomial(parse_slp(text))
        assert classify(wp.circuit).kind in (
            CircuitKind.POWERFUL_SKEW,
            CircuitKind.SPARSE,
        )


def test_word_polynomial_degree_and_codes():
    rng = random.Random(0)
    for _ in range(10):
        word = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 9)))
        lines = [f"S -> {' '.join(repr(ch) for ch in word)}"]
        g = parse_slp("\n".join(lines))
        wp = to_word_polynomial(g)
        sp = to_sparse(wp.circuit)
        assert max(k for _, k in sp.terms) < wp.length
        alphabet = g.symbols()
        assert {c for c, _ in sp.terms} <= set(range(1, len(alphabet) + 1))
        code = {sym: i + 1 for i, sym in enumerate(alphabet)}
        assert sp.terms == tuple((code[ch], i) for i, ch in enumerate(word))


def test_terminal_constant_circuit():
    g = parse_slp("S -> 'a'")
    assert to_sparse(to_word_polynomial(g).circuit).terms == ((1, 0),)


def test_equal_simple():
    g1, g2 = parse_slp(ABAB_1), parse_slp(ABAB_2)
    assert slp_equal(g1, g2, random.Random(0)) is Verdict.EQUAL


def test_not_equal_simple():
    g1 = parse_slp(ABAB_1)
    g3 = parse_slp("S -> A A\nA -> 'a' 'a'")
    assert slp_equal(g1, g3, random.Random(0)) is Verdict.NOT_EQUAL


def test_length_mismatch_shortcut():
    g1 = parse_slp("S -> 'a'")
    g2 = parse_slp("S -> 'a' 'a'")
    assert slp_equal(g1, g2, random.Random(0)) is Verdict.NOT_EQUAL


def test_one_sided_on_self():
    g = parse_slp(doubling_grammar(30))
    for seed in range(20):
        assert slp_equal(g, g, random.Random(seed)) is Verdict.EQUAL


def test_big_equal_different_shape():
    # 2^21 'a's, associated two different ways
    left = parse_slp("T -> S20 S20\n" + doubling_grammar(20))
    lines = ["U -> T19 T19 T19 T19"] + [
        f"T{i} -> T{i-1} T{i-1}" for i in range(19, 0, -1)
    ] + ["T0 -> 'a'"]
    right = parse_slp("\n".join(lines))
    assert word_length(left) == word_length(right) == 1 << 21
    for seed in range(5):
        assert slp_equal(left, right, random.Random(seed)) is Verdict.EQUAL


def test_big_unequal_last_symbol():
    # a^(2^20 - 1) b  versus  a^(2^20): same length, differ in one position
    g1 = parse_slp(doubling_grammar(20))
    g2 = parse_slp(flipped_tail_grammar(20))
    assert word_length(g1) == word_length(g2)
    assert slp_equal(g1, g2, random.Random(1)) is Verdict.NOT_EQUAL


def test_ground_truth_agreement_medium_words():
    rng = random.Random(42)
    for trial in range(12):
        depth = rng.randrange(3, 10)
        g1 = parse_slp(doubling_grammar(depth, "a"))
        if trial % 2 == 0:
            g2 = parse_slp(doubling_grammar(depth, "a"))
        else:
            # same length, last letter changed
            g2 = parse_slp(flipped_tail_grammar(depth))
        w1 = decompress(g1, 10**6)
        w2 = decompress(g2, 10**6)
        expected = Verdict.EQUAL if w1 == w2 else Verdict.NOT_EQUAL
        assert len(w1) == len(w2)
        if trial % 2 == 1:
            assert w2 == "a" * (len(w1) - 1) + "b"
        for seed in range(3):
            assert slp_equal(g1, g2, random.Random(seed)) is expected
