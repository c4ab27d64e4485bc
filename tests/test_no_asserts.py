"""The package makes no check with an ``assert`` statement: ``python -O``
strips them, and a law that is checked only sometimes is not checked.
Failures raise explicitly; ``verify`` of a lazily presented family still
reports a broken divisor certificate under ``-O``."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "premonoids"


def assert_statements(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_scan_sees_an_assert():
    assert assert_statements("x = 1\nassert x\nif x:\n    assert x, 'm'\n") == [2, 4]
    assert assert_statements("raise AssertionError('m')\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_checks_with_assert(module):
    assert assert_statements((PACKAGE / module).read_text()) == []


# 3 listed as a divisor of 4 in the numerical monoid <2, 3>: 3 + v = 4 has no
# solution v in the monoid, so the certificate check must fail
BROKEN_CERTIFICATE = """
import sys
from premonoids.cli import main
from premonoids.families import NumericalMonoid

real = NumericalMonoid.divisors
NumericalMonoid.divisors = lambda self, x: tuple(sorted({*real(self, x), 3})) if x == 4 else real(self, x)
sys.exit(main(["verify", "numerical:2,3"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_broken_divisor_certificate_fails_verify(flags):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, *flags, "-c", BROKEN_CERTIFICATE], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 4, run.stderr
    assert '"error": "no cofactor witness for 3 | 4"' in run.stdout
