"""How the tests stand: the test that pins each public callable to the independent reference, test
modules that import no other, and a CLI test module whose every test runs the CLI.

``erf_reference.py`` computes each map from the Gaussians of a state with nothing from the
library.  :data:`REFERENCE` names, for each class and function in the ``__all__`` of the six
library modules, the test that holds it to that reference (``module::test``), or the reason it
needs none.
"""

import ast
import re
from pathlib import Path

from zakgkp import core, gkp, gridio, modular, operators, ssd

TESTS = Path(__file__).resolve().parent
MODULES = (core, gkp, gridio, modular, operators, ssd)

TRANSFORM = "test_core.py::test_zak_transform_matches_the_closed_form_samples"
LOGICAL = "test_gkp.py::test_comb_route_error_against_erf_reference"
OPERATORS = "test_operators.py::test_phases_and_the_v_translate_match_the_closed_form"
PANELS = "test_cli.py::test_shift_array_panels_match_the_closed_form_samples"
RECORD = "a record of what it is given, or of what the function that builds it computed"
FILES = "a writer or a reader: numbers pass through repr or their bytes, and test_gridio reads them back"

REFERENCE = {
    core.ZakPatch: "a record of its extent; its reduce is split's count of periods",
    core.ZakGrid: "a record of its nodes u_min + du j and v_min + dv k",
    core.ModularWavefunction: RECORD,
    core.IdealZakState: "a record of its points, each reduced into the patch by split",
    core.VacuumState: TRANSFORM,
    core.GaussianComb: TRANSFORM,
    core.TabulatedState: "the caller's own values: there is nothing to compute them from",
    core.CombMatrix: RECORD,
    core.comb_matrix: LOGICAL,
    core.zak_transform: TRANSFORM,
    core.inverse_zak_transform: "test_core.py::test_inverse_zak_transform_matches_the_closed_form",
    core.stretch_rescale: "test_core.py::test_stretch_rescale_matches_the_closed_form",
    core.convention_phase: "a closed form itself, a phase of u v",
    gkp.GKPCode: "a record of alpha, which names its patches",
    gkp.Syndrome: RECORD,
    gkp.LogicalQubit: RECORD,
    gkp.MixtureState: RECORD,
    gkp.codeword: "one point mass at (alpha ell, 0), exact",
    gkp.approx_codeword: TRANSFORM,
    gkp.stabilizer_residual: "test_gkp.py::test_stabilizer_residuals_against_erf_reference",
    gkp.syndrome_reduce: "the correctable patch's reduce, split's count of periods",
    gkp.ec_kraus_amplitudes: "test_gkp.py::test_ec_kraus_amplitudes_match_the_closed_form",
    gkp.logical_from_overlap: LOGICAL,
    gkp.ec_channel_logical: LOGICAL,
    **{getattr(gridio, name): FILES for name in gridio.__all__},
    modular.split: "a count of periods and what is left, which test_modular holds to its window",
    operators.apply_phase_u: OPERATORS,
    operators.apply_phase_v: OPERATORS,
    operators.apply_translate_v: OPERATORS,
    operators.apply_translate_u: "apply_X: the one u-shift of _displace",
    operators.apply_X: PANELS,
    operators.apply_Z: PANELS,
    ssd.SSDState: "a record of a mode, stacked from its two gauge components",
    ssd.to_ssd: "a change of basis that re-indexes the mode, which test_ssd checks bit for bit",
    ssd.from_ssd: "a change of basis that re-indexes the mode, which test_ssd checks bit for bit",
    ssd.gauge_trace: "the Gram of its mode as logical_from_overlap forms it (acceptance criterion 5)",
    ssd.ec_gauge_trace: "the Gram of its mode as ec_channel_logical forms it (test_ec_gauge_trace_matches_channel)",
    ssd.apply_Z_ssd: "apply_Z on its mode",
    ssd.apply_X_ssd: "apply_X on its mode",
    ssd.PPGaugeModes: RECORD,
    ssd.pp_bridge: "test_ssd.py::test_pp_bridge_matches_the_closed_form",
    ssd.pp_bridge_inverse: "pp_bridge's inverse DFT, which returns the pinned mode (acceptance criterion 10)",
}
PIN = re.compile(r"(test_\w+\.py)::(test_\w+)")


def _top_level_names(path):
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(node, ast.FunctionDef)}


def test_each_public_callable_names_its_reference_test_or_why_it_needs_none():
    public = {getattr(m, name) for m in MODULES for name in m.__all__ if callable(getattr(m, name))}
    assert set(REFERENCE) == public, {f.__name__ for f in public ^ set(REFERENCE)}
    for pin in REFERENCE.values():
        if found := PIN.fullmatch(pin):
            module, test = found.groups()
            assert test in _top_level_names(TESTS / module), pin


def _imported(path):
    """The modules that the module at ``path`` imports, by name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (node.module or alias.name for alias in node.names)


def test_no_test_module_imports_another():
    # what test modules share lives in conftest.py; importing a test module would run its set-up
    # (test_contract's pinned_keys reads the others' marks at run time, which is allowed)
    found = {path.name: names for path in sorted(TESTS.glob("test_*.py"))
             if (names := [name for name in _imported(path) if name.split(".")[0].startswith("test_")])}
    assert not found, found


# a call that runs the CLI: the module's ``run`` and ``main`` (cli.main), any function of ``cli``
# (its parser too) and a subprocess
CLI_CALLS = {"run", "main", "cli", "subprocess"}


def _callees(fn):
    """The names the function node ``fn`` calls: ``f`` for ``f(...)`` and ``m`` for ``m.f(...)``."""
    for call in ast.walk(fn):
        if isinstance(call, ast.Call):
            func = call.func.value if isinstance(call.func, ast.Attribute) else call.func
            if isinstance(func, ast.Name):
                yield func.id


def _cli_drivers(path):
    """``(tests, drivers)``: the names of the ``test_*`` functions of the module at ``path``, and of
    its functions that drive the CLI, by calling it directly or through a function of the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {fn.name: set(_callees(fn)) for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    drivers = set()
    while more := {name for name, called in calls.items() if called & (CLI_CALLS | drivers)} - drivers:
        drivers |= more
    return {name for name in calls if name.startswith("test_")}, drivers


def test_each_cli_test_drives_the_cli():
    # what test_cli.py holds beside the CLI belongs with the module it tests
    tests, drivers = _cli_drivers(TESTS / "test_cli.py")
    assert not tests - drivers, f"tests in test_cli.py that never run the CLI: {sorted(tests - drivers)}"
