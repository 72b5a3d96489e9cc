"""Seeded inputs for the four workloads, with their reference answers.

``build(workload, seed, workdir)`` writes every input file under workdir
and returns one round: the list of operations a run repeats until its time
is up. The make-up of a round (how many instances of each class, their
orders and sizes) is fixed; the seed chooses exponents, coefficients,
letters, offsets and the ``--seed`` handed to ``cit``. Each expected verdict
is known by construction and confirmed by ``reference`` before timing.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import reference as ref

ZERO, NONZERO, EQUAL, NOT_EQUAL = "Zero", "NonZero", "Equal", "NotEqual"


@dataclass
class Op:
    """One closed-loop operation: one or more in-process ``cit`` calls."""

    label: str
    argv: list[str]
    expect: str
    # ff operations with a NonZero verdict also generate and verify a
    # certificate; the reference rechecks it against these gates.
    cert: tuple[list[str], list[str], str] | None = None
    gates: list = field(default_factory=list)
    n: int = 0
    # Kept known fault: the operation is expected to raise this exception.
    fault: str | None = None

    def plan(self) -> dict:
        return {"argv": self.argv, "cert": self.cert}


class _Files:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, text: str, suffix: str = "txt") -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:04d}.{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# --- circuit builders (gate lists, see reference.py) ---------------------


def _lift(r: int, n: int) -> int:
    """The exponent congruent to r mod n in [2^b, 2^b + n), b = bits of n.

    Every lifted exponent has the same bit length, so the instance size s,
    which sets the numeric engine's precision, does not depend on the seed.
    """
    top = 1 << n.bit_length()
    return r % n + n * -(-(top - r % n) // n)


def _offset(rng, n: int, p: int) -> int:
    """A residue o whose coset o + j*n/p has the gcd pattern with n of o = 1.

    The number of distinct root balls a trial needs depends on these gcds,
    so fixing them keeps the cost of an instance the same for every seed.
    """
    pattern = [math.gcd(1 + j * n // p, n) for j in range(p)]
    return rng.choice([o for o in range(n) if [math.gcd(o + j * n // p, n) for j in range(p)] == pattern])


def _numeric_op(rng, n: int, style: str) -> tuple[list, bool]:
    """A bounded-degree or powerful-skew circuit and whether it vanishes.

    Planted zeros are coset sums x^o (1 + x^(n/p) + ... ); a nonzero value
    is a planted zero plus c x^b, or a product of nonzero factors. Every
    residue outside a coset is a unit, so no leaf is a quarter turn.
    """
    p = 3 if style == "zero3" else 2
    o = _offset(rng, n, p)
    gates: list = [("x", _lift(o + j * n // p, n)) for j in range(p)]
    w = rng.choice([-1, 1])
    coset = ("sum", tuple((w, j) for j in range(p)))
    if style in ("zero2", "zero3"):
        return gates + [coset], True
    if style == "flipped":
        # x^o - x^(o + n/2) = 2 zeta^o: the same shape as zero2, nonzero
        return gates + [("sum", ((w, 0), (-w, 1)))], False
    units = [u for u in range(1, n) if math.gcd(u, n) == 1 and u != o]
    if style == "zero+c":
        # c x^b with zeta^b off the quarter turns: an exact leaf there would
        # hit the kept ball_add fault on some seeds and not on others.
        gates.append(("x", _lift(rng.choice(units), n)))
        return gates + [("sum", coset[1] + ((rng.choice([-1, 1]), p),))], False
    if style == "diffprod":
        # (x^o - x^b)(x^o - 1), b != o (mod n): a product of nonzero factors
        gates[1] = ("x", _lift(rng.choice(units), n))
        gates += [("x", 0), ("sum", ((1, 0), (-1, 1))), ("sum", ((1, 0), (-1, 2))), ("mul", (3, 4))]
        return gates, False
    if style == "zeroprod":
        # coset * (x^o - 1): zero times a nonzero factor
        gates += [("x", 0), coset, ("sum", ((1, 0), (-1, 2))), ("mul", (3, 4))]
        return gates, True
    if style == "skew":
        gates += [coset, ("x", _lift(rng.choice(units), n)), ("mul", (3, 2))]
        return gates, True
    raise ValueError(style)


# Fixed orders: the seed picks residues and signs, never the sizes, so a
# round costs about the same for every seed. Six instances per small order
# share its root balls.
NUMERIC_SMALL_N = [18, 24, 30, 36, 42, 48, 60, 72, 84, 90, 120, 126]
NUMERIC_STYLES = ["zero2", "zero3", "zero+c", "diffprod", "zeroprod", "skew"]
# Large orders are a sixth of a round, so the 90th percentile falls among them.
NUMERIC_LARGE_N = [1024, 1260, 2310, 4096]
# nonzero integer c + (X^a - X^a)^k: value c, but the numeric engine raises
# PrecisionExhausted (ball_add folds a tiny addend into the radius at the
# other operand's scale). Fixed, independent of the seed.
NUMERIC_FAULTS = [(7, 1, 6, 1), (12, 5, 7, -2), (30, 11, 8, 3)]


def _numeric_bounded(rng, files) -> list[Op]:
    ops = []

    def add(label, gates, n, is_zero, fault=None):
        if fault is None:
            ref.circuit_is_zero(gates, n, is_zero)
        path = files.write(ref.circuit_text(gates, n))
        argv = ["check", "--circuit", path, "--algo", "numeric", "--json", "--seed", str(rng.randrange(1 << 30))]
        ops.append(Op(label, argv, ZERO if is_zero else NONZERO, gates=gates, n=n, fault=fault))

    for n in NUMERIC_SMALL_N:
        for style in NUMERIC_STYLES:
            gates, is_zero = _numeric_op(rng, n, style)
            add(f"small/{style}", gates, n, is_zero)
    for n in NUMERIC_LARGE_N:
        for style in ("zero2", "flipped", "zero2", "flipped"):
            gates, is_zero = _numeric_op(rng, n, style)
            add(f"large/{style}", gates, n, is_zero)
    for n, a, k, c in NUMERIC_FAULTS:
        gates = [("x", 0), ("x", a), ("sum", ((1, 1), (-1, 1))), ("mul", (2,) * k), ("sum", ((c, 0), (1, 3)))]
        ref.circuit_is_zero(gates, n, False)
        add("fault/ball_add", gates, n, False, fault="PrecisionExhausted")
    return ops


# --- ff-general ------------------------------------------------------------

# Smooth orders and orders with a large prime factor, small and near 10^6.
FF_SMALL_N = [60, 120, 194, 201, 210]  # 194 = 2*97, 201 = 3*67
FF_LARGE_N = [720720, 1048576, 999958, 999983]  # smooth, 2^20, 2*499979, prime


def _ff_op(rng, n: int, zero: bool, bits: int, k: int) -> list:
    """(base)^(2^k) by repeated squaring; base vanishes iff zero."""
    a = rng.getrandbits(bits) | (1 << (bits - 1))
    if zero and n % 2 == 0 and bits <= 16:
        gates = [("x", a), ("x", a + n // 2), ("sum", ((1, 0), (1, 1)))]
    elif zero:
        gates = [("x", a), ("x", a % n if a >= n else a + n), ("sum", ((1, 0), (-1, 1)))]
    else:
        b = (a + rng.randrange(1, n)) % n
        gates = [("x", a), ("x", b), ("sum", ((1, 0), (-1, 1)))]
    for _ in range(k):
        gates.append(("mul", (len(gates) - 1, len(gates) - 1)))
    return gates


def _ff_general(rng, files) -> list[Op]:
    plan = []
    for n in FF_SMALL_N:
        plan += [(n, False, 6, 2), (n, False, 5, 3), (n, False, 4, 1), (n, True, 6, 2)]
    for n in FF_LARGE_N:
        plan.append((n, n % 2 == 1, 5, 2))
    # One 2^32 and one 2^64 exponent per round: the tail of the latencies.
    plan += [(FF_SMALL_N[0], False, 32, 1), (FF_SMALL_N[1], True, 64, 1)]
    ops = []
    for n, zero, bits, k in plan:
        gates = _ff_op(rng, n, zero, bits, k)
        ref.circuit_is_zero(gates, n, zero)
        path = files.write(ref.circuit_text(gates, n))
        seed = str(rng.randrange(1 << 30))
        argv = ["check", "--circuit", path, "--algo", "ff", "--json", "--seed", seed]
        cert = None
        if not zero:
            out = path + ".cert"
            cert = (
                ["certificate", "gen", "--circuit", path, "--out", out, "--seed", seed],
                ["certificate", "verify", "--circuit", path, "--cert", out],
                out,
            )
        label = f"{'large' if n > 10**5 else 'small'}/{'zero' if zero else 'nonzero'}/{bits}b"
        ops.append(Op(label, argv, ZERO if zero else NONZERO, cert=cert, gates=gates, n=n))
    return ops


# --- exact-sparse-diagonal ---------------------------------------------------

# (order, coset primes, zero instances, nonzero instances): a zero is one
# coset sum per prime; a nonzero adds one term. Orders with many small
# primes give several prime-power components. The slots are sized so that
# the median and the 90th percentile of a round's latencies fall inside a
# block of like operations (the 17- and 26-term slots).
SPARSE_SMOOTH = [(2310, (3, 7), 2, 2), (2310, (2, 3, 5, 7), 6, 6), (4620, (3, 5, 7, 11), 0, 6)]
# Orders whose prime factors all exceed the term count: one residual component.
SPARSE_RESIDUAL = [(999983, 30), (7919 * 7927, 60)]
# (n, m, zero): g(zeta_n) = zeta_m^j lies in a subfield of degree 2, so the
# orbit never exceeds max(d_i) and every unit up to G(n) is tested.
DIAG_SUBFIELD = [(60, 3, True), (60, 4, False), (84, 3, False), (72, 4, True)]
DIAG_GENERIC_N = [35, 77, 143]


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _sparse_shape(n: int, primes, zero: bool, slot: str) -> list[int]:
    """Distinct exponents: one coset per prime, plus one more if not zero.

    The shape comes from a generator fixed by the slot, not by the seed:
    the cost of the vanishing-space computation depends on the exponents
    (even a Galois conjugate u*k mod n reorders the columns of the RREF and
    changed its time by up to 1.8 times), so fixing them fixes the cost.
    """
    rng = random.Random(f"sparse-shape/{slot}")
    while True:
        exps = [(o + j * n // p) % n for p in primes for o in [rng.randrange(n)] for j in range(p)]
        if not zero:
            exps.append(rng.randrange(n))
        if len(set(exps)) == len(exps):
            return exps


def _sparse_terms(rng, n: int, primes, zero: bool, slot: str) -> list[tuple[int, int]]:
    """The slot's shape with coefficients from the seed: one per coset."""
    coeffs = []
    for p in primes:
        coeffs += [rng.choice([-3, -2, -1, 1, 2, 3])] * p
    if not zero:
        coeffs.append(rng.choice([-2, -1, 1, 2]))
    return list(zip(coeffs, _sparse_shape(n, primes, zero, slot)))


def _sparse_file(terms, n: int) -> str:
    return f"n {n}\n" + "".join(f"{c} {k}\n" for c, k in terms)


def _terms_gates(terms) -> list:
    gates = [("x", k) for _, k in terms]
    gates.append(("sum", tuple((c, j) for j, (c, _) in enumerate(terms))))
    return gates


def _exact_sparse_diagonal(rng, files) -> list[Op]:
    ops = []

    def sparse_op(label, terms, n, zero):
        gates = _terms_gates(terms)
        ref.circuit_is_zero(gates, n, zero)
        path = files.write(_sparse_file(terms, n))
        ops.append(Op(label, ["sparse", "--poly", path, "--json"], ZERO if zero else NONZERO))

    for n, primes, zeros, nonzeros in SPARSE_SMOOTH:
        for i, zero in enumerate([True] * zeros + [False] * nonzeros):
            slot = f"{n}/{primes}/{i}"
            sparse_op(f"sparse/smooth/{sum(primes)}", _sparse_terms(rng, n, primes, zero, slot), n, zero)
    for n, size in SPARSE_RESIDUAL:
        exps = rng.sample(range(n), size)
        terms = [(rng.choice([-3, -2, -1, 1, 2, 3]), k) for k in exps]
        sparse_op(f"sparse/residual/{size}", terms, n, False)
        # The same terms minus a copy shifted by multiples of n: zero.
        shifted = [(-c, k + n * rng.randrange(1, 5)) for c, k in terms]
        sparse_op(f"sparse/residual/{size}", terms + shifted, n, True)

    def diagonal_op(label, terms, powers, n, zero):
        ref.diagonal_is_zero(terms, powers, n, zero)
        text = f"n {n}\ng:\n" + "".join(f"{c} {k}\n" for c, k in terms)
        path = files.write(text + "powers: " + " ".join(map(str, powers)) + "\n")
        ops.append(Op(label, ["diagonal", "--file", path, "--json"], ZERO if zero else NONZERO))

    # g(zeta_n) = zeta_m^j plus a vanishing pair, so the orbit stays small
    # but conjugates differ term by term and each needs a sparse call.
    for n, m, zero in DIAG_SUBFIELD:
        j = rng.choice(_units(m))
        o = rng.choice(_units(n))  # a fixed gcd with n, so a fixed cost
        terms = [(1, j * n // m), (1, o), (1, (o + n // 2) % n)]
        # m = 3: z + z^2 + z^3 = 0, z + z^2 = -1; m = 4: z^2 + z^4 = 0, z + z^2 != 0
        powers = ((1, 2, 3) if m == 3 else (2, 4)) if zero else (1, 2)
        diagonal_op(f"diagonal/subfield/{m}", terms, powers, n, zero)
    for n in DIAG_GENERIC_N:
        while True:
            terms = [(rng.choice([-3, -2, -1, 1, 2, 3]), k) for k in rng.sample(range(n), 4)]
            try:
                ref.diagonal_is_zero(terms, (1, 2), n, False)
                break
            except ValueError:
                continue
        diagonal_op("diagonal/generic", terms, (1, 2), n, False)
    return ops


# --- slp-words --------------------------------------------------------------


def _doubling(depth: int, letter: str, tag: str) -> dict:
    rules = {f"{tag}{d}": [f"{tag}{d - 1}", f"{tag}{d - 1}"] for d in range(depth, 0, -1)}
    rules[f"{tag}0"] = [f"'{letter}'"]
    return rules


def _fourway(depth: int, letter: str) -> dict:
    rules = {}
    for d in range(depth, 1, -1):
        rules[f"Q{d}"] = [f"Q{d - 2}"] * 4
    rules["Q1"] = ["Q0", "Q0"]
    rules["Q0"] = [f"'{letter}'"]
    return rules


def _fibonacci(k: int, letters: str, regroup: bool) -> dict:
    """S_0 = a, S_1 = ab, S_i = S_{i-1} S_{i-2}; regrouped as
    S_i = S_{i-2} S_{i-3} S_{i-2} from i = 3 on. Same word either way."""
    a, b = f"'{letters[0]}'", f"'{letters[1]}'"
    rules = {}
    for i in range(k, 1, -1):
        if regroup and i >= 3:
            rules[f"F{i}"] = [f"F{i - 2}", f"F{i - 3}", f"F{i - 2}"]
        else:
            rules[f"F{i}"] = [f"F{i - 1}", f"F{i - 2}"]
    rules["F1"] = [a, b]
    rules["F0"] = [a]
    return rules


def _blocks(rng, exps: list[int]) -> tuple[list[str], dict]:
    """Blocks letter^(2^e), e in exps shuffled, over shared doubling rules."""
    rules: dict = {}
    seq = []
    for e in rng.sample(exps, len(exps)):
        letter = rng.choice("ab")
        tag = letter.upper()
        for d in range(e, 0, -1):
            rules[f"{tag}{d}"] = [f"{tag}{d - 1}", f"{tag}{d - 1}"]
        rules[f"{tag}0"] = [f"'{letter}'"]
        seq.append(f"{tag}{e}")
    return seq, rules


def _tree(rng, seq: list[str], rules: dict, random_split: bool) -> str:
    """Nonterminal deriving the concatenation of seq, grouped left-deep or
    at random split points."""
    if len(seq) == 1:
        return seq[0]
    cut = rng.randrange(1, len(seq)) if random_split else len(seq) - 1
    name = f"T{len(rules)}"
    rules[name] = []  # reserve the name before the children take theirs
    rules[name] = [_tree(rng, seq[:cut], rules, random_split), _tree(rng, seq[cut:], rules, random_split)]
    return name


def _with_start(start: str, rules: dict) -> dict:
    """Rules reordered so that the start symbol comes first."""
    return {start: rules[start], **{k: v for k, v in rules.items() if k != start}}


def _binary_word(i: int, letter_tag: str) -> list[str]:
    return [f"{letter_tag}{d}" for d in range(i.bit_length() - 1, -1, -1) if i >> d & 1]


# Sizes are fixed; the seed picks letters, block order, split points,
# the differing position and the order of each pair. Lengths run from 2^10
# to 2^20 letters.
SLP_DOUBLING = [10, 10, 10, 10, 11, 11, 12, 12, 13, 20]
SLP_FIBONACCI = [13, 13, 13, 14, 15, 17]  # |S_k| = Fib(k + 2): 610 to 4181
SLP_BLOCKS = [[5, 6, 7, 8], [6, 7, 8, 9], [6, 7, 8, 9], [7, 8, 9, 10]]
SLP_LAST = [10, 10, 10, 10, 11, 11, 12, 13, 20]
SLP_RANDOM = [10, 10, 10, 11, 12]


def _slp_words(rng, files) -> list[Op]:
    pairs = []
    for depth in SLP_DOUBLING:
        letter = rng.choice("ab")
        pairs.append((f"eq/double-vs-four/{depth}", _doubling(depth, letter, "S"), _fourway(depth, letter), True))
    for k in SLP_FIBONACCI:
        letters = rng.choice(["ab", "ba"])
        pairs.append((f"eq/fibonacci/{k}", _fibonacci(k, letters, False), _fibonacci(k, letters, True), True))
    for exps in SLP_BLOCKS:
        seq, base = _blocks(rng, exps)
        r1, r2 = dict(base), dict(base)
        s1, s2 = _tree(rng, seq, r1, False), _tree(rng, seq, r2, True)
        pairs.append((f"eq/reassociated/{len(exps)}", _with_start(s1, r1), _with_start(s2, r2), True))
    for depth in SLP_LAST:
        flipped = {f"W{k}": [f"S{k - 1}", f"W{k - 1}"] for k in range(depth, 0, -1)}
        flipped["W0"] = ["'b'"]
        flipped.update(_doubling(depth - 1, "a", "S"))
        pairs.append((f"ne/last/{depth}", _doubling(depth, "a", "S"), flipped, False))
    for depth in SLP_RANDOM:
        length = 1 << depth
        i = rng.randrange(length)
        rules = _doubling(depth, "a", "A")
        rules["P"] = _binary_word(i, "A") + ["'b'"] + _binary_word(length - i - 1, "A")
        pairs.append((f"ne/random/{depth}", _doubling(depth, "a", "A"), _with_start("P", rules), False))
    ops = []
    for label, g1, g2, equal in pairs:
        if rng.random() < 0.5:
            g1, g2 = g2, g1
        ref.words_equal((g1, next(iter(g1))), (g2, next(iter(g2))), equal)
        p1, p2 = files.write(ref.grammar_text(g1), "g"), files.write(ref.grammar_text(g2), "g")
        argv = ["slp-eq", p1, p2, "--json", "--seed", str(rng.randrange(1 << 30))]
        ops.append(Op(label, argv, EQUAL if equal else NOT_EQUAL))
    return ops


WORKLOADS = {
    "numeric-bounded": _numeric_bounded,
    "ff-general": _ff_general,
    "exact-sparse-diagonal": _exact_sparse_diagonal,
    "slp-words": _slp_words,
}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """One round of ``workload`` for ``seed``, its files written to workdir."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, _Files(workdir))
