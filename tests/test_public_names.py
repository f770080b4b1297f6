"""The package's public surface: each module's ``__all__`` is the one list."""

import ast
import pathlib

import numpy as np
import pytest

import ioncavity
from ioncavity import cli, errors, fock, lindblad, observables, params
from series_oracle import r_operator

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
                                  "displacement_op", "squeeze_op", "lossless_spec", "LosslessSpec",
                                  "r_operator"])
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
    # the series cutoff is read from the level norms only, at the fixed
    # fock.TOL_SERIES, and the trace tolerance of validate() is fixed
    with pytest.raises(TypeError):
        ioncavity.AssemblyBudget(dims=(8, 8), mn_cutoff=4)
    with pytest.raises(TypeError):
        ioncavity.AssemblyBudget(dims=(8, 8), series_tol=1e-6)
    with pytest.raises(TypeError):
        ioncavity.validation_checks(ioncavity.classify_regime(1.0, 0.3, 0.4), 0.0, 0.0, (4, 4), [0.5], 1e-6)
    rho = ioncavity.FockDensity(entries=np.eye(2) / 2, dims=(2,))
    with pytest.raises(TypeError):
        rho.validate(tol_trace=1e-8)


def test_operators_and_kets_are_arrays():
    p = ioncavity.classify_regime(1.0, 0.6, 0.0)
    for op in (ioncavity.ladder(8), r_operator(1, 0, 0.2, 8)):
        assert type(op) is np.ndarray and op.shape == (8, 8)
    assert ioncavity.lossless_ket(p, 0.0, 0.0, 0.5, (6, 8)).shape == (48,)


def _package_imports(module):
    """(module path, name) of each name the module imports from this package."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split("."), None) for alias in node.names
                        if alias.name.split(".")[0] == "ioncavity")
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ioncavity")):
            yield from (((node.module or "").split("."), alias.name) for alias in node.names)


def test_cli_imports_no_fock_and_no_private_name():
    # the CLI prints what the library computes: validate's checks, their start and
    # their tolerances live in lindblad, and nothing reaches into fock
    imports = list(_package_imports(cli))
    assert imports
    assert not [(path, name) for path, name in imports if "fock" in [*path, name]]
    assert not [name for _, name in imports if name and name.startswith("_")]
    assert [name for path, name in imports if path[-1] == "lindblad"] == ["validation_checks"]


@pytest.mark.parametrize("name", ["TD_TOL", "FID_DEFICIT_TOL", "QUAD_TOL", "_coherent_joint",
                                  "_pure_state_deficit", "_variance_delta"])
def test_validation_policy_left_the_cli(name):
    assert not hasattr(cli, name)
    assert hasattr(lindblad, name)
