from citkit import cli, numeric

# value 1 + (x - x)^6 = 1 at zeta_7: an exact 1 plus a ball around 0 whose
# radius is tiny but nonzero
BALL_ADD_REPRO = """n 7
g0=X^0
g1=X^1
g2=SUM 1*g1 -1*g1
g3=MUL g2 g2 g2 g2 g2 g2
g4=SUM 1*g0 1*g3
out g4
"""


def _circuit_file(tmp_path):
    path = tmp_path / "repro.txt"
    path.write_text(BALL_ADD_REPRO)
    return str(path)


def test_exact_plus_tiny_ball_is_nonzero(tmp_path, capsys):
    path = _circuit_file(tmp_path)
    for algo in ("auto", "numeric", "oracle"):
        assert cli.main(["check", "--circuit", path, "--algo", algo]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("NonZero")


def test_precision_exhausted_is_inconclusive(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise numeric.PrecisionExhausted("radius at least 2^-30 at 64 bits, the precision cap")

    monkeypatch.setattr(numeric, "eval_circuit_ball", exhausted)
    code = cli.main(["check", "--circuit", _circuit_file(tmp_path), "--algo", "numeric"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INCONCLUSIVE
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: radius at least 2^-30 at 64 bits, the precision cap"
    ]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
