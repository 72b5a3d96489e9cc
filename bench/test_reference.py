"""Self-test of the benchmark's reference checks (no citkit needed).

    python3 -m pytest bench -q

Shows that the references agree with known values, that every workload's
inputs build and pass their own construction checks, and that a flipped
verdict, a tampered certificate and a wrong SLP answer each count as a
failed operation.
"""

from __future__ import annotations

import json

import pytest
import sympy

import inputs
import reference as ref
import run


def _outputs(*calls):
    """A worker result holding one execution of operation 0."""
    return {"outputs": [[0, list(calls)]]}


def _verdict(v: str, code: int = 0):
    return [code, json.dumps({"verdict": v}), None]


def test_cyclotomic_reduction():
    assert ref.vanishes_sympy({0: 1, 2: -1, 4: 1}, 12)  # Phi_12 itself
    assert ref.vanishes_sympy({1: 1, 4: 1, 7: 1}, 9)  # x (1 + x^3 + x^6)
    assert not ref.vanishes_sympy({0: 1, 3: 1}, 9)
    gates = [("x", 5), ("x", 5 + 3), ("sum", ((1, 0), (1, 1)))]  # x^5 (1 + x^3)
    assert ref.circuit_is_zero(gates, 6, True)
    with pytest.raises(ValueError):
        ref.circuit_is_zero(gates, 6, False)


def test_modular_check_on_large_order():
    n = 999983 * 2
    zero = [("x", 7), ("x", 7 + n // 2), ("sum", ((1, 0), (1, 1)))]
    assert ref.circuit_is_zero(zero, n, True)
    nonzero = [("x", 7), ("x", 8), ("sum", ((1, 0), (-1, 1)))]
    assert not ref.circuit_is_zero(nonzero, n, False)


def test_grammar_expansion():
    a = ({"S": ["A", "A"], "A": ["'a'", "'b'"]}, "S")
    b = ({"T": ["U", "'b'"], "U": ["V", "'a'"], "V": ["'a'", "'b'"]}, "T")
    assert ref.expand_grammar(*a) == "abab"
    assert ref.words_equal(a, b, True)
    c = ({"S": ["A", "A"], "A": ["'a'", "'a'"]}, "S")
    assert not ref.words_equal(a, c, False)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_build(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    ops = inputs.build(workload, 7, str(tmp_path / "a"))
    again = inputs.build(workload, 7, str(tmp_path / "b"))
    assert [(op.label, op.expect) for op in ops] == [(op.label, op.expect) for op in again]
    def files(d):
        return sorted((f.name, f.read_text()) for f in (tmp_path / d).iterdir())

    assert files("a") == files("b")
    assert {op.expect for op in ops} in ({"Zero", "NonZero"}, {"Equal", "NotEqual"})


def test_flipped_verdict_is_failed():
    op = inputs.Op("t", [], "Zero")
    assert run.check([op], _outputs(_verdict("Zero")))[:3] == (1, 0, True)
    assert run.check([op], _outputs(_verdict("NonZero")))[:3] == (1, 1, False)
    # exit code 3 belongs to Inconclusive only
    assert run.check([op], _outputs(_verdict("Zero", 3)))[:3] == (1, 1, False)


def _certificate(gates, n: int) -> dict:
    p = n + 1
    while not sympy.isprime(p):
        p += n
    fac = sympy.factorint(p - 1)
    h = next(h for h in range(2, p) if all(pow(h, (p - 1) // q, p) != 1 for q in fac))
    assert ref.eval_mod(gates, p, pow(h, (p - 1) // n, p)) != 0
    return {"p": str(p), "factors": [[str(q), str(a)] for q, a in sorted(fac.items())], "h": str(h)}


def test_tampered_certificate_is_failed():
    n = 60
    gates = [("x", 3), ("x", 10), ("sum", ((1, 0), (-1, 1))), ("mul", (2, 2))]
    op = inputs.Op("t", [], "NonZero", cert=([], [], ""), gates=gates, n=n)
    cert = _certificate(gates, n)
    good = _outputs(_verdict("NonZero"), [0, json.dumps(cert), None], [0, "valid\n", None])
    assert run.check([op], good)[:3] == (1, 0, True)
    bad_h = dict(cert, h=str(int(cert["h"]) ** 2 % int(cert["p"])))  # a square never generates
    tampered = _outputs(_verdict("NonZero"), [0, json.dumps(bad_h), None], [0, "valid\n", None])
    assert run.check([op], tampered)[:3] == (1, 1, False)
    bad_factors = dict(cert, factors=cert["factors"][1:])
    tampered = _outputs(_verdict("NonZero"), [0, json.dumps(bad_factors), None], [0, "valid\n", None])
    assert run.check([op], tampered)[:3] == (1, 1, False)
    rejected = _outputs(_verdict("NonZero"), [0, json.dumps(cert), None], [0, "invalid\n", None])
    assert run.check([op], rejected)[:3] == (1, 1, False)


def test_shared_certificate_is_checked_per_operation():
    # Two operations at one order can be handed byte-identical certificates;
    # each must be judged on its own gates.
    n = 60
    nonzero = [("x", 3), ("x", 10), ("sum", ((1, 0), (-1, 1)))]
    vanishing = [("x", 3), ("x", 3), ("sum", ((1, 0), (-1, 1)))]
    ops = [inputs.Op(label, [], "NonZero", cert=([], [], ""), gates=g, n=n)
           for label, g in (("a", nonzero), ("b", vanishing))]
    text = json.dumps(_certificate(nonzero, n))
    calls = [_verdict("NonZero"), [0, text, None], [0, "valid\n", None]]
    result = {"outputs": [[0, calls], [1, calls], [0, calls]]}
    attempted, failed, correct, reasons = run.check(ops, result)
    assert (attempted, failed, correct) == (3, 1, False)
    assert list(reasons) == ["b: certificate rejected by the reference check"]


def test_wrong_slp_answer_is_failed():
    op = inputs.Op("t", [], "Equal")
    assert run.check([op], _outputs(_verdict("Equal")))[:3] == (1, 0, True)
    assert run.check([op], _outputs(_verdict("NotEqual")))[:3] == (1, 1, False)


def test_kept_fault_is_failed_but_correct():
    fault = inputs.Op("t", [], "NonZero", fault="PrecisionExhausted")
    raised = _outputs([None, "", "PrecisionExhausted"])
    assert run.check([fault], raised)[:3] == (1, 1, True)
    other = inputs.Op("t", [], "NonZero")
    assert run.check([other], raised)[:3] == (1, 1, False)
    # a wrong verdict from a fault operation is not excused
    assert run.check([fault], _outputs(_verdict("Zero")))[:3] == (1, 1, False)
