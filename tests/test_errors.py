"""The error contract: an exception's type is its exit code.  A refused
input is a ValidationError (exit 2, as is an OSError on a file), and an
admissible input that gives no trustworthy answer is a SolverError (exit 1)."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import rodfield
from rodfield import HarmonicBackground, RodSpec, SolverError, ValidationError, cli, inverse
from rodfield.asymptotics import a_delta_apply
from rodfield.solver import MODELS, perturbation, solve_forward, transmission_check


def _raise(exc):
    def cmd(args):
        raise exc
    return cmd


def _call(fn, *args):
    def cmd(_):
        fn(*args)
    return cmd


def test_an_exceptions_type_is_its_exit_code(monkeypatch, capsys):
    missing = FileNotFoundError(2, "No such file or directory", "data.csv")
    cases = [
        (_raise(ValidationError("refused")), 2, "refused"),
        (_raise(missing), 2, "[Errno 2] No such file or directory: 'data.csv'"),
        (_raise(SolverError("no answer")), 1, "no answer"),
        # a library refusal and a library failure, each through its type
        (_call(HarmonicBackground.linear, (1.0, 0.5, 7.0)), 2,
         "expected a 2-vector a, got shape (3,)"),
        (_call(inverse.fit_rod, inverse.SensorSet(np.zeros((8, 2)), np.zeros(8),
                                                  HarmonicBackground.linear((0.0, 0.0)))),
         1, "fit requires a nontrivial linear background"),
    ]
    for cmd, code, message in cases:
        monkeypatch.setattr(cli, "cmd_validate", cmd)
        assert (cli.main(["validate"]), capsys.readouterr()) == (code, ("", f"error: {message}\n"))
    # any other exception is a defect, not a refusal: it is not turned into a code
    monkeypatch.setattr(cli, "cmd_validate", _raise(ValueError("a bug")))
    with pytest.raises(ValueError, match="^a bug$"):
        cli.main(["validate"])


BG = HarmonicBackground.linear((1.0, 0.5))


def _wide_probe():
    # on the default mesh at delta = 0.01 a facade node's step passes 2 delta
    sol = solve_forward(RodSpec(L=2.0, delta=0.01), BG)
    transmission_check(sol, idx=np.flatnonzero(sol.mesh.tag_mask("facade_top"))[3:5])


@pytest.mark.parametrize("refuse, match", [
    (lambda: perturbation(RodSpec(L=2.0, delta=0.1), BG, [[0.0, 2.0]], "fem"),
     re.escape(f"unknown forward model 'fem', not one of {MODELS}")),
    (_wide_probe, r"^node \d+: its probe step .* is not below the rod's thickness"),
    (lambda: a_delta_apply(lambda y: 1.0, 0.0, 2.0, 0.0),
     r"^need delta > 0 and -L/2 < x1 < L/2, got delta=0\.0, x1=0\.0$"),
    (lambda: HarmonicBackground.linear((1.0, 0.5, 7.0)),
     re.escape("expected a 2-vector a, got shape (3,)")),
    (lambda: HarmonicBackground.polynomial((1.0, 2.0)), "^expected 5 coefficients, got 2$"),
], ids=["unknown_model", "wide_probe", "a_delta_arguments", "linear_shape",
        "polynomial_shape"])
def test_a_library_refusal_is_a_validation_error(refuse, match):
    with pytest.raises(ValidationError, match=match):
        refuse()


def test_rodfield_defines_no_exception_type_beside_the_two():
    # a config refusal is a ValidationError, a fit that data cannot
    # constrain a SolverError: no third type for the CLI to map
    defined = set()
    for info in pkgutil.iter_modules(rodfield.__path__):
        module = importlib.import_module(f"rodfield.{info.name}")
        defined |= {v for v in vars(module).values() if isinstance(v, type)
                    and issubclass(v, BaseException) and v.__module__ == module.__name__}
    assert defined == {ValidationError, SolverError}
