"""Reference answers computed without importing citkit.

Every verdict the benchmark accepts is checked here by means that share no
code with the package under test:

* circuits are held as plain gate lists, expanded modulo x^n - 1 and reduced
  modulo the cyclotomic polynomial with sympy, or evaluated in F_p at an
  element of exact order n (a nonzero residue proves a nonzero value, since
  Phi_n(omega) = 0 in F_p for such omega);
* nonzeroness certificates are rechecked with ``sympy.isprime``;
* grammar words of up to ``EXPAND_LIMIT`` letters are expanded letter by
  letter.

A gate is ``("x", e)`` for the monomial x^e, ``("sum", ((w, j), ...))`` for a
weighted sum of earlier gates and ``("mul", (j, ...))`` for a product; the
last gate is the output.
"""

from __future__ import annotations

import json
import math

import sympy

EXPAND_LIMIT = 10**6
_X = sympy.Symbol("x")


# --- circuits -----------------------------------------------------------


def circuit_text(gates, n: int) -> str:
    """The circuit in the ``cit check`` file format."""
    lines = [f"n {n}"]
    for i, g in enumerate(gates):
        if g[0] == "x":
            lines.append(f"g{i} = X^{g[1]}")
        elif g[0] == "sum":
            lines.append(f"g{i} = SUM " + " ".join(f"{w}*g{j}" for w, j in g[1]))
        else:
            lines.append(f"g{i} = MUL " + " ".join(f"g{j}" for j in g[1]))
    lines.append(f"out g{len(gates) - 1}")
    return "\n".join(lines) + "\n"


def expand_mod(gates, n: int) -> dict[int, int]:
    """The output polynomial reduced modulo x^n - 1, as {exponent: coeff}."""
    vals: list[dict[int, int]] = []
    for g in gates:
        if g[0] == "x":
            vals.append({g[1] % n: 1})
            continue
        if g[0] == "sum":
            acc: dict[int, int] = {}
            for w, j in g[1]:
                for k, c in vals[j].items():
                    acc[k] = acc.get(k, 0) + w * c
        else:
            acc = {0: 1}
            for j in g[1]:
                nxt: dict[int, int] = {}
                for k1, c1 in acc.items():
                    for k2, c2 in vals[j].items():
                        k = (k1 + k2) % n
                        nxt[k] = nxt.get(k, 0) + c1 * c2
                acc = nxt
        vals.append({k: c for k, c in acc.items() if c})
    return vals[-1]


def vanishes_sympy(poly: dict[int, int], n: int) -> bool:
    """Whether sum(c x^k) is divisible by Phi_n, decided by sympy."""
    if not poly:
        return True
    f = sympy.Poly({(k,): c for k, c in poly.items()}, _X, domain="ZZ")
    return sympy.rem(f, sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)).is_zero


def eval_mod(gates, p: int, omega: int) -> int:
    """The circuit's value at x = omega in F_p."""
    vals: list[int] = []
    for g in gates:
        if g[0] == "x":
            vals.append(pow(omega, g[1], p))
        elif g[0] == "sum":
            vals.append(sum(w * vals[j] for w, j in g[1]) % p)
        else:
            acc = 1
            for j in g[1]:
                acc = acc * vals[j] % p
            vals.append(acc)
    return vals[-1]


def order_n_elements(n: int, count: int):
    """The first ``count`` pairs (p, omega) with p prime, p = 1 (mod n) and
    omega of exact order n in F_p."""
    out = []
    p = n + 1
    fac = sympy.factorint(n)
    while len(out) < count:
        if sympy.isprime(p):
            for h in range(2, p):
                w = pow(h, (p - 1) // n, p)
                if all(pow(w, n // q, p) != 1 for q in fac):
                    out.append((p, w))
                    break
        p += n
    return out


def circuit_is_zero(gates, n: int, claimed_zero: bool, primes: int = 3) -> bool:
    """Confirm a verdict known by construction, and return it.

    A nonzero residue at an element of order n proves the value nonzero.
    For n <= 128 the sympy reduction modulo Phi_n decides outright. Raises
    ValueError when the construction and the check disagree, since then the
    generator, not the program, is wrong.
    """
    if n <= 128:
        truth = vanishes_sympy(expand_mod(gates, n), n)
    else:
        truth = all(eval_mod(gates, p, w) == 0 for p, w in order_n_elements(n, primes))
    if truth != claimed_zero:
        raise ValueError(f"construction says zero={claimed_zero}, check says {truth}")
    return truth


# --- sums of powers -----------------------------------------------------


def diagonal_is_zero(terms, powers, n: int, claimed_zero: bool) -> bool:
    """Confirm zeroness of sum(g^d) at zeta_n for g = sum(c x^k)."""
    gates = [("x", k) for _, k in terms]
    gates.append(("sum", tuple((c, j) for j, (c, _) in enumerate(terms))))
    g = len(gates) - 1
    outs = []
    for d in powers:
        gates.append(("mul", (g,) * d))
        outs.append(len(gates) - 1)
    gates.append(("sum", tuple((1, j) for j in outs)))
    return circuit_is_zero(gates, n, claimed_zero)


# --- certificates -------------------------------------------------------


def certificate_ok(text: str, gates, n: int) -> bool:
    """Recheck a ``cit certificate gen`` payload from scratch."""
    try:
        obj = json.loads(text)
        p = int(obj["p"])
        factors = [(int(q), int(a)) for q, a in obj["factors"]]
        h = int(obj["h"])
    except (ValueError, KeyError, TypeError):
        return False
    if p < 3 or not sympy.isprime(p) or (p - 1) % n:
        return False
    if any(a < 1 or not sympy.isprime(q) for q, a in factors):
        return False
    if math.prod(q**a for q, a in factors) != p - 1:
        return False
    if not 1 <= h < p or any(pow(h, (p - 1) // q, p) == 1 for q, _ in factors):
        return False
    return eval_mod(gates, p, pow(h, (p - 1) // n, p)) != 0


# --- grammars -----------------------------------------------------------


def grammar_length(rules: dict[str, list[str]], start: str) -> int:
    """Derived length; a right side is a list of nonterminals or ``'c'``."""
    memo: dict[str, int] = {}

    def length(nt: str) -> int:
        if nt not in memo:
            memo[nt] = sum(1 if t.startswith("'") else length(t) for t in rules[nt])
        return memo[nt]

    for nt in reversed(list(rules)):
        length(nt)
    return length(start)


def expand_grammar(rules: dict[str, list[str]], start: str) -> str:
    """The derived word, letter by letter (iterative, any depth)."""
    out: list[str] = []
    stack = [start]
    while stack:
        tok = stack.pop()
        if tok.startswith("'"):
            out.append(tok[1])
        else:
            stack.extend(reversed(rules[tok]))
    return "".join(out)


def words_equal(a: tuple, b: tuple, claimed_equal: bool) -> bool:
    """Confirm a grammar pair's equality known by construction.

    Lengths are always compared; words up to EXPAND_LIMIT letters are
    expanded and compared letter by letter. Longer pairs of equal length
    rest on the construction alone.
    """
    la, lb = grammar_length(*a), grammar_length(*b)
    if la != lb:
        truth = False
    elif la <= EXPAND_LIMIT:
        truth = expand_grammar(*a) == expand_grammar(*b)
    else:
        return claimed_equal
    if truth != claimed_equal:
        raise ValueError(f"construction says equal={claimed_equal}, check says {truth}")
    return truth


def grammar_text(rules: dict[str, list[str]]) -> str:
    """The grammar in the ``cit slp-eq`` file format, start symbol first."""
    return "\n".join(f"{nt} -> {' '.join(rhs)}" for nt, rhs in rules.items()) + "\n"
