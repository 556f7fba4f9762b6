"""Tests for the residual check of the Schur forms in ``solvers``.

``build_pencil`` factors A_t, forms P = A_t^{-1} M_t and checks the
residual of its real or complex Schur form (the forms themselves, fd's
pencil and ``eig_pencil`` are tested in ``test_solvers.py``); the
pencils here are built as ``TemporalOperators`` with A_t = I, so that
P = M_t is the matrix under test.
"""

import numpy as np
import pytest

from kronheat import solvers
from kronheat.errors import ConvergenceFailure
from kronheat.solvers import build_pencil

from conftest import pencil_ops, random_positive


@pytest.mark.parametrize("output", ["real", "complex"])
def test_schur_residual_check(monkeypatch, output):
    # one check serves both forms: a factor off by 1e-8 fails it
    schur_lapack = solvers.sla.schur

    def perturbed(P, output):
        T, Z = schur_lapack(P, output=output)
        return T * (1 + 1e-8), Z

    monkeypatch.setattr(solvers.sla, "schur", perturbed)
    with pytest.raises(ConvergenceFailure, match=f"{output} Schur residual"):
        build_pencil(pencil_ops(random_positive(5, 4)), f"bs-{output}")


@pytest.mark.parametrize("output", ["real", "complex"])
def test_schur_residual_check_fails_nan(monkeypatch, output):
    # a NaN residual is not below the bound: it fails, it does not pass
    schur_lapack = solvers.sla.schur

    def nan_form(P, output):
        T, Z = schur_lapack(P, output=output)
        return np.full_like(T, np.nan), Z

    monkeypatch.setattr(solvers.sla, "schur", nan_form)
    with pytest.raises(ConvergenceFailure, match=f"{output} Schur residual"):
        build_pencil(pencil_ops(random_positive(5, 4)), f"bs-{output}")
