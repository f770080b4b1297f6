"""The package's public surface: each module's ``__all__`` is the one list."""

import numpy as np
import pytest

import ioncavity
from ioncavity import errors, fock, lindblad, observables, params

MODULES = (errors, params, observables, fock, lindblad)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_resolve_on_package(module):
    for name in module.__all__:
        assert getattr(ioncavity, name) is getattr(module, name)


def test_package_lists_exactly_the_module_names():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(ioncavity.__all__) == sorted(names)


@pytest.mark.parametrize("name", ["FockOperator", "FockKet", "quad_stats_single", "thermal_state",
                                  "c_coefficient", "q_operator", "default_dim",
                                  "displacement_op", "squeeze_op"])
def test_removed_names_are_gone(name):
    assert not hasattr(ioncavity, name)
    assert not hasattr(fock, name)


@pytest.mark.parametrize("name", ["lindblad_rhs", "effective_hamiltonian"])
def test_removed_generator_names_are_gone(name):
    assert not hasattr(ioncavity, name)
    assert not hasattr(lindblad, name)


def test_density_has_no_hermiticity_error():
    assert not hasattr(ioncavity.FockDensity, "hermiticity_error")


def test_removed_options_are_refused():
    # the series cutoff is read from the level norms only, and the trace
    # tolerance of validate() is fixed
    with pytest.raises(TypeError):
        ioncavity.AssemblyBudget(dims=(8, 8), mn_cutoff=4)
    rho = ioncavity.FockDensity(entries=np.eye(2) / 2, dims=(2,))
    with pytest.raises(TypeError):
        rho.validate(tol_trace=1e-8)


def test_operators_and_kets_are_arrays():
    p = ioncavity.classify_regime(1.0, 0.6, 0.0)
    for op in (ioncavity.ladder(8), ioncavity.r_operator(1, 0, 0.2, 8)):
        assert type(op) is np.ndarray and op.shape == (8, 8)
    assert ioncavity.lossless_ket(p, 0.0, 0.0, 0.5, (6, 8)).shape == (48,)
