"""Equality of grammar-compressed words via root-of-unity evaluation.

A straight-line program (an acyclic grammar with exactly one production
per nonterminal) derives a single word w, which we encode as the
polynomial sum(code(w_i) * x^i) computed by a powerful skew circuit: one
weighted sum and one multiply-by-monomial per production.  Two words are
equal iff the difference polynomial vanishes at a primitive n-th root of
unity for n a power of two beyond the degree; sampling odd exponents a
makes zeta_n^a a conjugate always, so equal words are never misjudged.

File format: one production per line, ``NT -> X Y`` or ``NT -> 'c'``
(single-character terminals); the first line's left side is the start
symbol.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import kernels
from .circuit import (
    Circuit,
    Gate,
    InputGate,
    ProductGate,
    SumGate,
    circuit_size,
    coeff_l1_log2,
)
from .ffcit import Verdict
from .numeric import BallComplex, refine, root_ball_packed
from .numutil import ceil_log2, split_rng

DEFAULT_TRIALS = 25


class SlpError(ValueError):
    pass


class TooLong(Exception):
    """Derived word exceeds the requested decompression limit."""


@dataclass(frozen=True)
class Terminal:
    symbol: str


@dataclass(frozen=True)
class Pair:
    left: str
    right: str


Production = Terminal | Pair


@dataclass(frozen=True)
class Slp:
    productions: dict[str, Production]
    start: str

    def symbols(self) -> list[str]:
        return sorted(
            {p.symbol for p in self.productions.values() if isinstance(p, Terminal)}
        )


@dataclass(frozen=True)
class WordPolynomial:
    circuit: Circuit
    length: int


def parse_slp(text: str) -> Slp:
    """Parse and normalize a grammar to binary pair/terminal productions."""
    raw: dict[str, list[tuple[str, str]]] = {}  # NT -> [('nt', name) | ('t', ch)]
    order: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        lhs, arrow, rhs = line.partition("->")
        lhs = lhs.strip()
        if not arrow or not lhs:
            raise SlpError(f"line {lineno}: expected 'NT -> ...'")
        if lhs in raw:
            raise SlpError(f"line {lineno}: duplicate production for {lhs}")
        items: list[tuple[str, str]] = []
        for tok in rhs.split():
            if tok.startswith("'") and tok.endswith("'") and len(tok) >= 3:
                sym = tok[1:-1]
                if len(sym) != 1:
                    raise SlpError(f"line {lineno}: terminals are single characters")
                items.append(("t", sym))
            else:
                items.append(("nt", tok))
        if not items:
            raise SlpError(f"line {lineno}: empty right-hand side")
        raw[lhs] = items
        order.append(lhs)
    if not raw:
        raise SlpError("empty grammar")
    for lhs, items in raw.items():
        for kind, val in items:
            if kind == "nt" and val not in raw:
                raise SlpError(f"undefined nonterminal {val!r}")
    _check_acyclic(raw, order[0])

    productions: dict[str, Production] = {}
    fresh = 0

    def fresh_name() -> str:
        nonlocal fresh
        while True:
            name = f"_y{fresh}"
            fresh += 1
            if name not in raw and name not in productions:
                return name

    term_cache: dict[str, str] = {}

    def term_nt(sym: str) -> str:
        if sym not in term_cache:
            name = fresh_name()
            productions[name] = Terminal(sym)
            term_cache[sym] = name
        return term_cache[sym]

    resolved: dict[str, str] = {}

    def define(lhs: str) -> str:
        """Install lhs's normalized production; returns the name it maps to
        (aliases collapse to their target)."""
        if lhs in resolved:
            return resolved[lhs]
        items = raw[lhs]
        names = [val if kind == "nt" else None for kind, val in items]
        if len(items) == 1:
            kind, val = items[0]
            if kind == "t":
                productions[lhs] = Terminal(val)
                resolved[lhs] = lhs
            else:
                resolved[lhs] = define(val)  # unary alias, inlined
            return resolved[lhs]
        refs = [
            define(val) if kind == "nt" else term_nt(val) for kind, val in items
        ]
        acc = refs[0]
        for nxt in refs[1:-1]:
            name = fresh_name()
            productions[name] = Pair(acc, nxt)
            acc = name
        productions[lhs] = Pair(acc, refs[-1])
        resolved[lhs] = lhs
        return lhs

    for lhs in order:
        define(lhs)
    start = resolved[order[0]]
    return Slp(productions, start)


def _check_acyclic(raw: dict[str, list[tuple[str, str]]], start: str) -> None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {nt: WHITE for nt in raw}
    for root in raw:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        color[root] = GREY
        while stack:
            nt, i = stack.pop()
            children = [v for k, v in raw[nt] if k == "nt"]
            if i < len(children):
                stack.append((nt, i + 1))
                child = children[i]
                if color[child] == GREY:
                    raise SlpError(f"grammar cycle through {child!r}")
                if color[child] == WHITE:
                    color[child] = GREY
                    stack.append((child, 0))
            else:
                color[nt] = BLACK


def _topo_order(slp: Slp) -> list[str]:
    """Children-first order over the nonterminals reachable from start."""
    out: list[str] = []
    seen: set[str] = set()
    stack: list[tuple[str, bool]] = [(slp.start, False)]
    while stack:
        nt, done = stack.pop()
        if done:
            out.append(nt)
            continue
        if nt in seen:
            continue
        seen.add(nt)
        stack.append((nt, True))
        p = slp.productions[nt]
        if isinstance(p, Pair):
            stack.append((p.right, False))
            stack.append((p.left, False))
    return out


def word_length(slp: Slp, nt: str | None = None) -> int:
    """Exact derived-word length (an arbitrary-precision integer)."""
    lengths: dict[str, int] = {}
    for name in _topo_order(slp):
        p = slp.productions[name]
        lengths[name] = 1 if isinstance(p, Terminal) else lengths[p.left] + lengths[p.right]
    return lengths[nt or slp.start]


def decompress(slp: Slp, limit: int) -> str:
    """The derived word, or TooLong if its length exceeds limit."""
    if word_length(slp) > limit:
        raise TooLong(f"derived word longer than {limit}")
    out: list[str] = []
    stack = [slp.start]
    while stack:
        p = slp.productions[stack.pop()]
        if isinstance(p, Terminal):
            out.append(p.symbol)
        else:
            stack.append(p.right)
            stack.append(p.left)
    return "".join(out)


def to_word_polynomial(slp: Slp, alphabet: list[str] | None = None) -> WordPolynomial:
    """Powerful skew circuit for sum(code(w_i) * x^i) over the derived word.

    Codes are 1..|alphabet| so differing symbols always differ as
    coefficients; one sum plus one multiply-by-monomial per pair.
    """
    if alphabet is None:
        alphabet = slp.symbols()
    codes = {sym: i + 1 for i, sym in enumerate(alphabet)}
    lengths: dict[str, int] = {}
    gates: list[Gate] = []
    gate_of: dict[str, int] = {}
    exp_leaf: dict[int, int] = {}

    def leaf(exponent: int) -> int:
        if exponent not in exp_leaf:
            gates.append(InputGate(exponent))
            exp_leaf[exponent] = len(gates) - 1
        return exp_leaf[exponent]

    for name in _topo_order(slp):
        p = slp.productions[name]
        if isinstance(p, Terminal):
            if p.symbol not in codes:
                raise SlpError(f"symbol {p.symbol!r} missing from the alphabet")
            lengths[name] = 1
            gates.append(SumGate(((codes[p.symbol], leaf(0)),)))
            gate_of[name] = len(gates) - 1
        else:
            lengths[name] = lengths[p.left] + lengths[p.right]
            mono = leaf(lengths[p.left])
            gates.append(ProductGate((mono, gate_of[p.right])))
            prod_idx = len(gates) - 1
            gates.append(SumGate(((1, gate_of[p.left]), (1, prod_idx))))
            gate_of[name] = len(gates) - 1
    circ = Circuit(tuple(gates), gate_of[slp.start])
    return WordPolynomial(circ, lengths[slp.start])


def difference_circuit(c1: Circuit, c2: Circuit) -> Circuit:
    """Circuit computing c1 - c2 (gate lists concatenated)."""
    off = len(c1.gates)
    shifted: list[Gate] = []
    for g in c2.gates:
        if isinstance(g, InputGate):
            shifted.append(g)
        elif isinstance(g, SumGate):
            shifted.append(SumGate(tuple((w, j + off) for w, j in g.addends)))
        else:
            shifted.append(ProductGate(tuple(j + off for j in g.factors)))
    gates = list(c1.gates) + shifted
    gates.append(SumGate(((1, c1.output), (-1, c2.output + off))))
    return Circuit(tuple(gates), len(gates) - 1)


def _eval_word_ball(slp: Slp, codes: dict[str, int], omega, prec: int):
    """(value ball, length-monomial ball) of the word polynomial at the
    sampled root, by one multiply/add pair per production.

    The monomial of a pair is the product of its children's monomials, so
    no exponent ever needs reducing.
    """
    w: dict[str, tuple] = {}
    v: dict[str, tuple] = {}
    for name in _topo_order(slp):
        p = slp.productions[name]
        if isinstance(p, Terminal):
            w[name] = omega
            v[name] = kernels.ball_make(codes[p.symbol], 0, 0, 0)
        else:
            l, r = p.left, p.right
            w[name] = kernels.ball_mul(w[l], w[r], prec)
            v[name] = kernels.ball_add(
                v[l], kernels.ball_mul(w[l], v[r], prec), prec
            )
    return v[slp.start], w[slp.start]


@dataclass(frozen=True)
class SlpTestParams:
    """Instance-derived parameters of the randomized equality test."""

    n: int
    threshold_exponent: int
    leaf_bits: int
    size: int


def slp_test_params(g1: Slp, g2: Slp) -> SlpTestParams:
    alphabet = sorted(set(g1.symbols()) | set(g2.symbols()))
    c1 = to_word_polynomial(g1, alphabet).circuit
    c2 = to_word_polynomial(g2, alphabet).circuit
    diff = difference_circuit(c1, c2)
    s = max(circuit_size(diff), 1)
    threshold = 4 * s + 1
    # powerful skew error chain: per-gate losses accumulate linearly with
    # the coefficient mass, never multiplicatively
    gates = len(diff.gates)
    leaf_bits = coeff_l1_log2(diff) + ceil_log2(gates + 4) + threshold + 24
    return SlpTestParams(1 << (4 * s), threshold, leaf_bits, s)


def run_slp_trial(
    g1: Slp, g2: Slp, params: SlpTestParams, rng: random.Random
) -> Verdict:
    """One evaluation at a random odd conjugate exponent."""
    alphabet = sorted(set(g1.symbols()) | set(g2.symbols()))
    codes = {sym: i + 1 for i, sym in enumerate(alphabet)}
    n = params.n
    a = rng.randrange(1, n, 2)

    def evaluate(bits: int) -> BallComplex:
        prec = bits + 64
        omega = root_ball_packed(n, a, bits, use_cache=False)
        v1, _ = _eval_word_ball(g1, codes, omega, prec)
        v2, _ = _eval_word_ball(g2, codes, omega, prec)
        return BallComplex.from_packed(
            kernels.ball_add(v1, kernels.ball_scale_int(v2, -1, prec), prec)
        )

    t = params.threshold_exponent
    ball = refine(evaluate, params.leaf_bits, 2 * params.leaf_bits, -(t + 1))
    return Verdict.ZERO if ball.mid_abs_lt_pow2(-t) else Verdict.NONZERO


def slp_equal(
    g1: Slp, g2: Slp, rng: random.Random, trials: int = DEFAULT_TRIALS
) -> Verdict:
    """Equality of the derived words; equal words are never rejected.

    Unequal words of equal length survive a single trial with probability
    at most 1/3; the default 25-trial majority pushes that below 1e-2.
    """
    if word_length(g1) != word_length(g2):
        return Verdict.NOT_EQUAL
    params = slp_test_params(g1, g2)
    base = rng.getrandbits(64)
    zero = 0
    for t in range(trials):
        if run_slp_trial(g1, g2, params, split_rng(base, t)) is Verdict.ZERO:
            zero += 1
    return Verdict.EQUAL if 2 * zero > trials else Verdict.NOT_EQUAL
