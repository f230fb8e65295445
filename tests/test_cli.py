import argparse
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALPHA, comb_table
from erf_reference import codeword_gaussians, zak_samples
from zakgkp import (
    GaussianComb,
    IdealZakState,
    SSDState,
    MixtureState,
    ModularWavefunction,
    NonFiniteError,
    NormalizationError,
    OffGridError,
    TabulatedState,
    VacuumState,
    ZakError,
    ZakGrid,
    ZakPatch,
    apply_phase_u,
    apply_phase_v,
    apply_translate_u,
    apply_translate_v,
    apply_X,
    apply_X_ssd,
    apply_Z,
    apply_Z_ssd,
    cli,
    codeword,
    ec_channel_logical,
    ec_gauge_trace,
    ec_kraus_amplitudes,
    from_ssd,
    gauge_trace,
    gridio,
    logical_from_overlap,
    pp_bridge,
    pp_bridge_inverse,
    stabilizer_residual,
    stretch_rescale,
    syndrome_reduce,
    to_ssd,
    zak_transform,
)
from zakgkp.cli import main
from zakgkp.core import comb_matrix, convention_phase, inverse_zak_transform
from zakgkp.gkp import GKPCode, LogicalQubit, approx_codeword
from zakgkp.gridio import load_grid_binary, load_grid_csv, save_grid_binary, save_grid_csv
from zakgkp.modular import split

A = 2 * ALPHA
GRID16 = GKPCode().grid(16, 16)


def run(*args):
    return main([str(a) for a in args])


def test_zakplot_vacuum(tmp_path):
    out = tmp_path / "vac.csv"
    assert run("zakplot", "--state", "vacuum", "--grid", "64x64", "--out", out) == 0
    grid_file = load_grid_csv(out)
    mags = load_grid_csv(tmp_path / "vac_abs.csv")
    args = load_grid_csv(tmp_path / "vac_arg.csv")
    assert np.allclose(mags.samples.real, np.abs(grid_file.samples), atol=1e-15)
    assert np.allclose(args.samples.real, np.angle(grid_file.samples), atol=1e-15)
    peak = np.unravel_index(np.argmax(mags.samples.real), mags.samples.shape)
    assert peak == (16, 32)  # the (0, 0) node
    manifest = (tmp_path / "vac.csv.manifest").read_text()
    assert "command=zakplot" in manifest and "state=vacuum" in manifest


def test_zakplot_is_deterministic(tmp_path):
    out = tmp_path / "vac.csv"
    run("zakplot", "--state", "vacuum", "--grid", "64x64", "--out", out)
    first = out.read_bytes()
    run("zakplot", "--state", "vacuum", "--grid", "64x64", "--out", out)
    assert out.read_bytes() == first


def test_zakplot_binary_format(tmp_path):
    out = tmp_path / "vac.bin"
    assert run("zakplot", "--state", "vacuum", "--grid", "64x64", "--format", "bin",
               "--out", out) == 0
    psi = load_grid_binary(out)
    assert psi.grid.nu == 64
    assert abs(psi.norm() - 1) < 1e-9


def test_zakplot_ideal_point_list(tmp_path):
    out = tmp_path / "gkp0.csv"
    assert run("zakplot", "--state", "gkp0", "--out", out) == 0
    assert out.read_text() == "u,v,re,im\n0.0,0.0,1.0,0.0\n"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = gkp-approx:0.3:1\ngrid = 64x64  # small\nmmax = 16\n")
    out = tmp_path / "state.csv"
    assert run("zakplot", "--config", cfg, "--grid", "32x32", "--out", out) == 0
    manifest = (tmp_path / "state.csv.manifest").read_text()
    assert "grid=32x32" in manifest  # flag wins
    assert "state=gkp-approx:0.3:1" in manifest
    assert load_grid_csv(out).grid.nu == 32


def test_config_file_skips_comment_lines_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a small vacuum run\n\nstate = vacuum\n   \n  # grid next\ngrid = 32x32\n")
    out = tmp_path / "state.csv"
    assert run("zakplot", "--config", cfg, "--out", out) == 0
    manifest = (tmp_path / "state.csv.manifest").read_text()
    assert "state=vacuum" in manifest and "grid=32x32" in manifest


def read_report(path):
    header, row = path.read_text().splitlines()
    return dict(zip(header.split(","), (float(x) for x in row.split(","))))


def test_logical_report_gkp0_all_methods(tmp_path):
    for method in ("trace", "ec-trace", "overlap"):
        out = tmp_path / f"{method}.csv"
        assert run("logical", "--state", "gkp0", "--method", method, "--out", out) == 0
        report = read_report(out)
        assert report["bloch_z"] == 1.0
        assert report["purity"] == 1.0


def test_ideal_logical_needs_no_gauge_halves(tmp_path):
    # an ideal state never takes the grid, so Nu/2 need not be a multiple of 4
    reports = []
    for grid in ("256x256", "100x100", "68x16"):
        out = tmp_path / f"{grid}.csv"
        assert run("logical", "--state", "gkp1", "--grid", grid, "--out", out) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1] == reports[2]


def test_logical_trace_and_overlap_agree(tmp_path):
    # overlap is an alias of trace: the same report, byte for byte
    reports = {}
    for method in ("trace", "overlap"):
        out = tmp_path / f"{method}.csv"
        assert run("logical", "--state", "gkp-approx:0.2:0", "--grid", "128x128",
                   "--method", method, "--out", out) == 0
        reports[method] = out.read_bytes()
    assert reports["trace"] == reports["overlap"]


@pytest.mark.parametrize(
    "spec, method",
    [("gkp-approx:0.3:1", "trace"), ("gkp-approx:0.3:1", "ec-trace"), ("gkp-approx:0.3:1", "overlap"),
     ("gkp1", "trace")],
)
def test_logical_report_is_the_library_map(tmp_path, spec, method):
    # the report is logical_report_csv of the library map of the comb matrix (or the ideal state)
    code = GKPCode()
    if spec == "gkp1":
        state = codeword(code, 1)
    else:
        state = comb_matrix(approx_codeword(code, 1, 0.3), code.grid(64, 64), 16)
    logical = ec_channel_logical if method == "ec-trace" else logical_from_overlap
    out = tmp_path / "report.csv"
    assert run("logical", "--state", spec, "--grid", "64x64", "--method", method, "--out", out) == 0
    assert out.read_bytes() == gridio.logical_report_csv(logical(state, code)).encode()


def test_sweep_monotone_and_deterministic(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ("sweep", "--state", "gkp-approx:0.5:0", "--grid", "64x64",
            "--deltas", "0.5,0.3,0.1", "--mmax", "24", "--out", out)
    assert run(*args) == 0
    first = out.read_bytes()
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,fidelity,purity,raw_trace,residual_pv,residual_pu"
    fidelity = [float(line.split(",")[1]) for line in lines[1:]]
    assert fidelity == sorted(fidelity)
    assert fidelity[-1] > 0.999
    residual = [float(line.split(",")[4]) for line in lines[1:]]
    assert residual == sorted(residual, reverse=True)
    assert run(*args) == 0
    assert out.read_bytes() == first


def test_shift_array_panels(tmp_path):
    out = tmp_path / "panels"
    assert run("shift-array", "--state", "gkp-approx:0.3:0", "--grid", "96x96",
               "--out", out) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "manifest" in files
    assert len([f for f in files if f.startswith("panel_")]) == 16

    base = load_grid_csv(out / "panel_j0_k0.csv")
    right = load_grid_csv(out / "panel_j1_k0.csv")
    # X panels are pure u-translations: dx = alpha/3 is 16 of 96 columns;
    # compare magnitudes within the unwrapped block
    assert np.allclose(
        np.abs(right.samples[16:, :]), np.abs(base.samples[:-16, :]), atol=1e-12
    )

    # the displaced origin carries the same value on all four corner panels
    j0, k0 = base.grid.u_index(0.0), base.grid.v_index(0.0)
    reference = base.samples[j0, k0]
    corner_values = {
        (0, 0): reference,
        (3, 0): load_grid_csv(out / "panel_j3_k0.csv").samples[j0 + 48, k0],
        (0, 3): load_grid_csv(out / "panel_j0_k3.csv").samples[j0, k0 - 48],
        (3, 3): load_grid_csv(out / "panel_j3_k3.csv").samples[j0 + 48, k0 - 48],
    }
    for value in corner_values.values():
        assert value == pytest.approx(reference, abs=1e-6 * abs(reference))
        assert math.isclose(
            math.atan2(value.imag, value.real),
            math.atan2(reference.imag, reference.real),
            abs_tol=1e-6,
        )


@pytest.mark.parametrize("delta", [0.3, 0.2])
def test_shift_array_panels_match_the_closed_form_samples(tmp_path, delta):
    # panel (j, k) is X(j dx) Z(k dy) psi with the default steps dx = alpha/3 and dy = pi/(2 alpha),
    # summed directly over the Gaussians with nothing from the library: this pins the wrap turns
    # of the u-shift and the phase of the kick (the relative errors are 1.2e-14 at most)
    out = tmp_path / "panels"
    assert run("shift-array", "--state", f"gkp-approx:{delta}:0", "--grid", "96x96", "--format", "bin",
               "--out", out) == 0
    gaussians = codeword_gaussians(ALPHA, 0, delta)
    for j in range(4):
        for k in range(4):
            psi = load_grid_binary(out / f"panel_j{j}_k{k}.bin")
            want = zak_samples(ALPHA, *gaussians, psi.grid.u_values(), psi.grid.v_values(),
                               shift=j * ALPHA / 3, kick=k * math.pi / (2 * ALPHA))
            assert np.max(np.abs(psi.samples - want)) <= 1e-13 * np.max(np.abs(want)), (j, k)


def test_shift_array_kicks_once_per_z_panel(tmp_path, monkeypatch):
    # (kmax + 1) Z panels, each X-shifted for every j; the files do not depend on the order
    from zakgkp import operators

    calls = []
    apply_z = operators.apply_Z
    monkeypatch.setattr(operators, "apply_Z", lambda *a, **kw: calls.append(a[1]) or apply_z(*a, **kw))
    out = tmp_path / "panels"
    assert run("shift-array", "--state", "gkp-approx:0.3:0", "--grid", "48x48", "--format", "bin",
               "--jmax", 2, "--kmax", 3, "--out", out) == 0
    assert len(calls) == 4
    assert len(list(out.glob("panel_*.bin"))) == 12
    dy = math.pi / (2 * ALPHA)
    kicked = operators.apply_Z(load_grid_binary(out / "panel_j0_k0.bin"), 2 * dy)
    shifted = operators.apply_X(kicked, 2 * ALPHA / 3)
    assert np.array_equal(load_grid_binary(out / "panel_j2_k2.bin").samples, shifted.samples)


def test_exit_codes(tmp_path):
    out = tmp_path / "x.csv"
    assert run("zakplot", "--state", "nonsense", "--out", out) == 2
    assert run("zakplot", "--state", "vacuum") == 2  # missing --out
    assert run("zakplot", "--state", "vacuum", "--grid", "33x64", "--out", out) == 2
    assert run("zakplot", "--state", "vacuum", "--grid", "64x64", "--mmax", 1,
               "--out", out) == 3
    assert run("shift-array", "--state", "vacuum", "--grid", "64x64",
               "--out", tmp_path / "d") == 2  # 64 not divisible by 12


def test_tabulated_state(tmp_path, code):
    grid = code.grid(64, 64)
    table = tmp_path / "table.csv"
    lines = ["x,re,im"]
    for m in (-1, 0, 1):
        for u in grid.u_values():
            x = float(u + m * A)
            lines.append(f"{x!r},{math.exp(-x * x)!r},0.0")
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "tab.csv"
    assert run("zakplot", "--state", f"tabulated:{table}", "--grid", "64x64",
               "--mmax", "4", "--out", out) == 0
    psi = load_grid_csv(out)
    assert np.isfinite(psi.samples).all() and psi.norm() > 0


# brute-force 512x512 quadrature oracle values (see test_gkp.py)
def test_logical_vacuum_golden_row(tmp_path):
    out = tmp_path / "vac_logical.csv"
    assert run("logical", "--state", "vacuum", "--grid", "512x512",
               "--method", "trace", "--out", out) == 0
    report = read_report(out)
    assert report["rho00_re"] == pytest.approx(0.7900749243509657, abs=1e-9)
    assert report["rho11_re"] == pytest.approx(0.20992507564903426, abs=1e-9)
    assert report["rho01_re"] == pytest.approx(0.22878260990217197, abs=1e-9)
    assert report["purity"] == pytest.approx(0.7729698886617357, abs=1e-9)
    assert report["raw_trace"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_rejects_bad_specs(tmp_path):
    out = tmp_path / "s.csv"
    assert run("sweep", "--state", "gkp-approx:0.3:x", "--grid", "64x64",
               "--deltas", "0.3", "--out", out) == 2
    assert run("sweep", "--state", "gkp0", "--grid", "64x64",
               "--deltas", "0.3,-0.1", "--out", out) == 2
    assert run("sweep", "--state", "gkp0", "--grid", "64x64",
               "--deltas", "abc", "--out", out) == 2
    # the state spec is checked as zakplot, shift-array and logical check it
    for spec in ("foo", "gkp-approx:abc:1", "gkp-approx:nan:0", "gkp-approx:-1:0",
                 "gkp-approx:inf:1", "gkp-approx:0.3:2", "gkp-approx:0.3",
                 "gkp-approx:1e-300:0", "gkp-approx:1e200:1", "gkp-approx:1e-5:0"):
        assert run("sweep", "--state", spec, "--grid", "32x32",
                   "--deltas", "0.3", "--out", out) == 2, spec
    assert not out.exists()
    # a valid spec only picks the target codeword: 0 unless it names 1
    tables = {}
    for spec in ("vacuum", "gkp0", "gkp-approx:0.2:0", "gkp1", "gkp-approx:0.2:1"):
        assert run("sweep", "--state", spec, "--grid", "32x32", "--deltas", "0.3", "--out", out) == 0
        tables[spec] = out.read_text()
    assert tables["vacuum"] == tables["gkp0"] == tables["gkp-approx:0.2:0"]
    assert tables["gkp1"] == tables["gkp-approx:0.2:1"] != tables["gkp0"]


def test_unwritable_output_path(tmp_path):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert run("zakplot", "--state", "vacuum", "--grid", "64x64", "--out", missing) == 2


def test_delta_is_not_an_option(tmp_path, capsys):
    # approximate states carry their delta in the spec; --delta set nothing
    out = tmp_path / "v.csv"
    with pytest.raises(SystemExit) as exc:
        run("logical", "--state", "gkp-approx:0.2:0", "--delta", "0.2", "--out", out)
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 0.2\n")
    assert run("logical", "--config", cfg, "--out", out) == 2
    assert "unknown key 'delta'" in capsys.readouterr().err
    assert not out.exists()
    assert run("logical", "--state", "gkp0", "--out", out) == 0
    manifest = (tmp_path / "v.csv.manifest").read_text()
    assert "state=gkp0" in manifest and "delta=" not in manifest


def test_manifest_echoes_every_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 64x64\nmethod = ec-trace\njmax = 2\n")
    out = tmp_path / "r.csv"
    assert run("logical", "--config", cfg, "--state", "vacuum", "--out", out) == 0
    assert (tmp_path / "r.csv.manifest").read_text() == (
        "command=logical\n"
        "alpha=1.7724538509055159\n"
        f"config_file={cfg}\n"
        "deltas=0.5,0.4,0.3,0.2,0.1\n"
        "dx=None\n"
        "dy=None\n"
        "format=csv\n"
        "grid=64x64\n"
        "jmax=2\n"
        "kmax=3\n"
        "method=ec-trace\n"
        "mmax=16\n"
        f"out={out}\n"
        "seed=None\n"
        "state=vacuum\n"
    )


@pytest.mark.parametrize(
    "line,message",
    [
        ("format = xml", "format must be one of csv, bin, got 'xml'"),
        ("method = foo", "method must be one of trace, ec-trace, overlap, got 'foo'"),
    ],
)
def test_config_file_values_must_be_allowed_choices(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "r.csv"
    assert run("logical", "--config", cfg, "--state", "gkp0", "--out", out) == 2
    assert capsys.readouterr().err == f"zakgkp: config error: {message}\n"
    assert not out.exists()


def test_shift_array_manifest_echoes_the_steps_used(tmp_path):
    out = tmp_path / "panels"
    assert run("shift-array", "--state", "gkp0", "--jmax", 1, "--kmax", 0, "--out", out) == 0
    manifest = (out / "manifest").read_text()
    assert f"dx={ALPHA / 3!r}\n" in manifest and f"dy={math.pi / (2 * ALPHA)!r}\n" in manifest


COMMON_FLAGS = {"-h", "--help", "--config", "--alpha", "--grid", "--mmax", "--state", "--out",
                "--format", "--seed"}


@pytest.mark.parametrize(
    "command,extra",
    [
        ("zakplot", set()),
        ("shift-array", {"--jmax", "--kmax", "--dx", "--dy"}),
        ("logical", {"--method"}),
        ("sweep", {"--deltas"}),
    ],
)
def test_command_flags(command, extra):
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for action in commands.choices[command]._actions for flag in action.option_strings}
    assert flags == COMMON_FLAGS | extra


def test_manifest_records_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 64x64\n")
    out = tmp_path / "v.csv"
    assert run("zakplot", "--state", "vacuum", "--config", cfg, "--out", out) == 0
    assert f"config_file={cfg}" in (tmp_path / "v.csv.manifest").read_text()


TABLE = "tabulated:{table}"


@pytest.mark.parametrize(
    "args,table",
    [
        pytest.param(
            ("logical", "--state", TABLE), "0.0,1.0,0\n0.0,0.5,0\n", id="repeated-abscissa"
        ),
        pytest.param(("logical", "--state", TABLE), "0.0,0,0\n1.0,0,0\n", id="all-zero-table"),
        pytest.param(("logical", "--state", TABLE), "0.0,nan,0\n", id="nan-table-value"),
        pytest.param(("logical", "--state", TABLE), "inf,1.0,0\n", id="inf-table-abscissa"),
        pytest.param(("sweep", "--deltas", "nan"), None, id="nan-deltas"),
        pytest.param(("sweep", "--deltas", "0.3,inf"), None, id="inf-deltas"),
        pytest.param(("logical", "--state", "gkp-approx:inf:0"), None, id="inf-approx-delta"),
        pytest.param(("logical", "--state", "gkp-approx:nan:0"), None, id="nan-approx-delta"),
        pytest.param(("logical", "--alpha", "inf"), None, id="inf-alpha"),
        pytest.param(("logical", "--alpha", "nan"), None, id="nan-alpha"),
        pytest.param(("shift-array", "--dx", "nan"), None, id="nan-dx"),
        pytest.param(("shift-array", "--dy", "inf"), None, id="inf-dy"),
        pytest.param(("shift-array", "--state", "gkp0", "--dx", "inf"), None, id="ideal-inf-dx"),
        pytest.param(("shift-array", "--state", "gkp1", "--dy", "nan"), None, id="ideal-nan-dy"),
        # finite but extreme: the period, a variance or a panel shift overflows
        pytest.param(("logical", "--alpha", "1e308"), None, id="huge-alpha"),
        pytest.param(("logical", "--state", "gkp-approx:1e-300:0"), None, id="tiny-approx-delta"),
        pytest.param(("logical", "--state", "gkp-approx:1e300:0"), None, id="huge-approx-delta"),
        pytest.param(("sweep", "--deltas", "1e-300"), None, id="tiny-deltas"),
        pytest.param(("shift-array", "--state", "gkp0", "--dx", "1e308"), None, id="huge-dx"),
        # no panel shift overflows, but dx / du does
        pytest.param(("shift-array", "--dx", "1e308", "--jmax", "0"), None, id="huge-dx-step-count"),
        # dy/dv is 2^1023, but the largest shift kmax*dy counts 2^1024 steps
        pytest.param(("shift-array", "--grid", "16x16", "--dx", repr(GRID16.du), "--dy", repr(GRID16.dv * 2.0**1023),
                      "--kmax", "2", "--jmax", "0"), None, id="largest-shift-step-count"),
        # finite variances a comb cannot use, a default v_min -pi/b that overflows,
        # and a delta that needs more teeth than the cap
        pytest.param(("logical", "--state", "gkp-approx:1e154:0"), None, id="wide-tooth-delta"),
        pytest.param(("logical", "--state", "gkp-approx:1e-154:0"), None, id="unbounded-envelope-delta"),
        pytest.param(("sweep", "--deltas", "0.3,1e154"), None, id="wide-tooth-deltas"),
        pytest.param(("logical", "--alpha", "1e-320"), None, id="tiny-alpha"),
        pytest.param(("sweep", "--deltas", "0.3,0.001"), None, id="below-cap-deltas"),
        # a period whose comb spacing^2 or pairwise norm integrals overflow
        pytest.param(("logical", "--alpha", "1e200", "--state", "gkp-approx:0.3:0"), None,
                     id="huge-alpha-approx"),
        pytest.param(("logical", "--alpha", "6e153", "--state", "gkp-approx:0.3:0"), None,
                     id="huge-alpha-tooth-ratio"),
        pytest.param(("zakplot", "--alpha", "2.5e153", "--state", "gkp-approx:0.3:1"), None,
                     id="huge-alpha-comb-norm"),
        pytest.param(("sweep", "--alpha", "1e200", "--deltas", "0.3"), None, id="huge-alpha-sweep"),
        # a grid whose gauge halves Nu/2 x Nv are no grid (Nu/2 not a multiple of 4)
        pytest.param(("logical", "--grid", "68x16"), None, id="logical-no-gauge-grid"),
        pytest.param(("sweep", "--grid", "100x100"), None, id="sweep-no-gauge-grid"),
        # an ideal panel the patch cannot count: a shift of 3e10 periods of 3e-300, or a phase u*t
        pytest.param(("shift-array", "--state", "gkp0", "--alpha", "1e300", "--dy", "1e10"), None,
                     id="ideal-panel-shift-past-count"),
        pytest.param(("shift-array", "--state", "gkp1", "--alpha", "1e300", "--dy", "2e8", "--kmax", "1",
                      "--jmax", "0"), None, id="ideal-panel-phase-overflow"),
        # an off-grid step whose transform would also fail (a truncation past the tolerance)
        pytest.param(("shift-array", "--state", "gkp-approx:0.2:0", "--grid", "8x8", "--mmax", "4"), None,
                     id="off-grid-step-before-a-failing-transform"),
        # sweep reads the table it never transforms, and refuses what the other commands refuse
        pytest.param(("sweep", "--state", TABLE, "--grid", "64x64", "--deltas", "0.3"), None,
                     id="sweep-missing-table"),
        pytest.param(("sweep", "--state", TABLE, "--grid", "64x64", "--deltas", "0.3"), "0.0,0,0\n",
                     id="sweep-all-zero-table"),
        # a grid, or a Nu x (2 mmax + 1) comb, of complex samples past numpy's size limit
        pytest.param(("logical", "--grid", "400000000000000000000x8"), None, id="grid-past-numpy-size"),
        pytest.param(("logical", "--mmax", "1000000000000000000000000"), None, id="mmax-past-numpy-size"),
    ],
)
def test_invalid_input_is_a_config_error(tmp_path, capsys, args, table):
    # a table spec names tmp_path/table.csv, which holds ``table`` or is missing
    path = tmp_path / "table.csv"
    if table is not None:
        path.write_text(table)
    args = tuple(a.format(table=path) for a in args)
    out = tmp_path / "out.csv"
    # a --grid in args comes later, so it overrides the default 96x96
    assert run(args[0], "--grid", "96x96", *args[1:], "--out", out) == 2
    assert "zakgkp: config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    pytest.param(("--grid", "8x8", "--mmax", "4"), id="default-dx-at-8x8"),
    *(pytest.param(("--grid", "16x16", "--dx", repr(dx), "--dy", repr(dy)), id=name) for name, dx, dy in (
        ("dx", 0.3, GRID16.dv), ("dy", GRID16.du, 0.3), ("largest-x-shift", GRID16.du * 2.0**1023, GRID16.dv),
        ("largest-z-shift", GRID16.du, GRID16.dv * 2.0**1023))),
])
def test_a_refused_panel_step_never_reaches_the_transform(tmp_path, capsys, monkeypatch, args):
    # each step, and the largest shift 3*dx or 3*dy (past the float range), is checked before any work
    def transform(*args):
        raise AssertionError("zak_transform called")

    monkeypatch.setattr(cli, "zak_transform", transform)
    out = tmp_path / "panels"
    assert run("shift-array", "--state", "gkp-approx:0.2:0", *args, "--out", out) == 2
    assert "panel steps" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_logical_state_is_a_numerical_failure(tmp_path, capsys):
    # finite table values whose squares overflow: the logical matrix is NaN
    table = tmp_path / "table.csv"
    table.write_text("0.0,1e200,0\n")
    out = tmp_path / "out.csv"
    # no np.errstate here: a numpy warning on the way to the refusal is an error
    code = run("logical", "--state", f"tabulated:{table}", "--grid", "64x64", "--out", out)
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,mass", [
    pytest.param(("logical", "--state", "gkp-approx:0.2:0", "--grid", "8x8"), "1.269", id="logical-delta-0.2-8x8"),
    pytest.param(("sweep", "--grid", "16x16", "--deltas", "0.1"), "1.269", id="sweep-delta-0.1-16x16"),
    pytest.param(("sweep", "--grid", "32x32", "--deltas", "2.5e153"), "1.5625e+152", id="sweep-huge-delta"),
    pytest.param(("sweep", "--grid", "32x32", "--alpha", "1e150", "--deltas", "0.3"), "1.18",
                 id="sweep-huge-alpha"),
    pytest.param(("logical", "--state", "gkp-approx:0.5:0", "--grid", "8x8"), "1.0000118",
                 id="boundary-delta-0.5-8x8"),
])
def test_an_unresolved_state_is_a_numerical_failure(tmp_path, capsys, args, mass):
    # a state of norm 1 whose sampled mass is off by more than NORM_DEFECT_TOL: no output, no manifest
    assert run(*args, "--out", tmp_path / "out.csv") == 3
    assert f"sampled mass (raw_trace) is {mass}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_the_norm_gate_passes_a_resolved_state_and_any_table(tmp_path):
    out = tmp_path / "resolved.csv"
    assert run("logical", "--state", "gkp-approx:0.3:0", "--grid", "16x16", "--out", out) == 0
    assert 1e-9 < abs(read_report(out)["raw_trace"] - 1) <= cli.NORM_DEFECT_TOL  # the boundary pair's pass
    # a table's counting norm depends on its spacing, so its mass is not gated
    table = tmp_path / "table.csv"
    table.write_text("0.0,1.0,0\n0.5,2.0,0\n")
    out = tmp_path / "table_report.csv"
    assert run("logical", "--state", f"tabulated:{table}", "--grid", "64x64", "--out", out) == 0
    assert abs(read_report(out)["raw_trace"] - 1) > 0.9


def _save_reference(psi, path, fmt):
    (save_grid_binary if fmt == "bin" else save_grid_csv)(psi, path)


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("nu,nv", [(68, 16), (260, 20)])
def test_zakplot_writes_the_bytes_of_the_saved_transform(tmp_path, code, fmt, nu, nv):
    grid = code.grid(nu, nv)
    xs, values = comb_table(grid, nu)
    table = tmp_path / "table.csv"
    rows = zip(xs.tolist(), values.real.tolist(), values.imag.tolist())
    table.write_text("".join(f"{x!r},{re!r},{im!r}\n" for x, re, im in rows))
    states = [("vacuum", VacuumState()), ("gkp-approx:0.3:1", approx_codeword(code, 1, 0.3)),
              (f"tabulated:{table}", TabulatedState(xs, values))]
    for spec, descriptor in states:
        out = tmp_path / f"z.{fmt}"
        assert run("zakplot", "--state", spec, "--grid", f"{nu}x{nv}", "--format", fmt, "--out", out) == 0
        psi = zak_transform(descriptor, grid, 16)
        for suffix, samples in (("", psi.samples), ("_abs", np.abs(psi.samples)),
                                ("_arg", np.angle(psi.samples))):
            reference = tmp_path / f"reference.{fmt}"
            _save_reference(ModularWavefunction(grid, samples), reference, fmt)
            assert (tmp_path / f"z{suffix}.{fmt}").read_bytes() == reference.read_bytes(), (spec, suffix)


# finite values whose comb sums overflow: rows of NaN samples
OVERFLOWING_TABLE = "0.0,1e308,0\n3.5449077018110318,1e308,0\n"


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("command,grid", [("zakplot", "64x64"), ("shift-array", "96x96")])
def test_non_finite_samples_are_a_numerical_failure(tmp_path, capsys, fmt, command, grid):
    table = tmp_path / "table.csv"
    table.write_text(OVERFLOWING_TABLE)
    out = tmp_path / ("panels" if command == "shift-array" else f"z.{fmt}")
    # no np.errstate here: a numpy warning on the way to the refusal is an error
    assert run(command, "--state", f"tabulated:{table}", "--grid", grid, "--format", fmt, "--out", out) == 3
    err = capsys.readouterr().err
    assert "is not finite" in err and "sample (" in err
    assert "nan+nanj)" in err and "np.complex128" not in err
    # no grid file, temporary file or manifest is left behind
    left = sorted(os.listdir(tmp_path)) + (sorted(os.listdir(out)) if out.is_dir() else [])
    assert left == ["table.csv"]


def test_overflowing_panel_phase_is_a_numerical_failure_without_a_warning(tmp_path, capsys):
    # Z(dy) multiplies by exp(i u dy), and u*dy overflows: NaN samples, which the writer refuses
    grid = GKPCode().grid(16, 2)
    out = tmp_path / "panels"
    assert run("shift-array", "--state", "vacuum", "--grid", "16x2", "--dx", repr(grid.du),
               "--dy", repr(grid.dv * 2.0**1023), "--kmax", 1, "--jmax", 0, "--out", out) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "is not finite: (nan+nanj)" in err
    assert "Warning" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "table,rule",
    [
        pytest.param("x,re,im\n", "the table is empty", id="empty"),
        pytest.param("0.0,1.0,0\n1.0,0.5,0\n0.0,0.5,0\n", "abscissa 0.0 is listed more than once",
                     id="repeated-abscissa"),
        pytest.param("0.0,0,0\n1.0,-0.0,0\n", "the table holds only zero values", id="all-zero"),
        pytest.param("0.0,1.0,0\n1.0,nan,0\n", "values[1] is not finite: (nan+0j)", id="nan-value"),
        pytest.param("0.0,1.0,0\n-inf,1.0,0\n", "xs[1] is not finite: -inf", id="inf-abscissa"),
        pytest.param("-1e308,1.0,0\n1e308,1.0,0\n", "step must be positive and finite, got inf",
                     id="gap-overflows"),
    ],
)
def test_table_refusal_names_the_path_and_the_rule(tmp_path, capsys, table, rule):
    path = tmp_path / "table.csv"
    path.write_text(table)
    assert run("logical", "--state", f"tabulated:{path}", "--grid", "32x32", "--out", tmp_path / "r.csv") == 2
    assert capsys.readouterr().err == f"zakgkp: config error: table {path}: {rule}\n"
    assert os.listdir(tmp_path) == ["table.csv"]


@pytest.mark.parametrize("what,flags", [("config file", ("--config", "{path}")),
                                        ("table", ("--state", "tabulated:{path}"))])
def test_undecodable_config_file_or_table_is_a_config_error(tmp_path, capsys, what, flags):
    # each reader once let the UnicodeDecodeError out of main as a traceback
    path = tmp_path / "input.txt"
    path.write_bytes(b"x,re,im\n0.0,1.0,0\n\xff\n")
    assert run("logical", *(f.format(path=path) for f in flags), "--grid", "32x32", "--out", tmp_path / "r.csv") == 2
    assert capsys.readouterr().err == (f"zakgkp: config error: cannot read {what} {path}: "
                                       "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n")
    assert os.listdir(tmp_path) == ["input.txt"]


# squares of 1e200 overflow; the truncation share is still the 0.5 of a unit table
HUGE_TABLE = "0.0,1e200,0\n100.0,1e200,0\n"


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_huge_table_outside_the_window_is_a_truncation_failure(tmp_path, capsys, fmt):
    table = tmp_path / "huge.csv"
    table.write_text(HUGE_TABLE)
    out = tmp_path / f"h.{fmt}"
    assert run("zakplot", "--state", f"tabulated:{table}", "--grid", "64x64", "--format", fmt, "--out", out) == 3
    assert "estimated truncation tail 5.000e-01 exceeds tolerance" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["huge.csv"]


@pytest.mark.parametrize("method", ["trace", "ec-trace"])
@pytest.mark.parametrize("table,failure", [
    pytest.param(OVERFLOWING_TABLE, "logical matrix has non-finite entries: [[(inf+nanj), 0j], [0j, 0j]]", id="overflow"),
    pytest.param(HUGE_TABLE, "estimated truncation tail 5.000e-01 exceeds tolerance", id="huge"),
])
def test_an_overflowing_table_is_a_numerical_failure_of_logical(tmp_path, capsys, table, failure, method):
    # the comb matrix's sums or squares overflow; no numpy warning on the way, and no file
    path = tmp_path / "table.csv"
    path.write_text(table)
    assert run("logical", "--method", method, "--state", f"tabulated:{path}", "--grid", "64x64",
               "--out", tmp_path / "nan.csv") == 3
    assert f"zakgkp: numerical failure: {failure}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["table.csv"]


def _peak_grids(args, tmp_path, nu=512, nv=512):
    """tracemalloc peak of one in-process command on an nu x nv grid, in units of that grid."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert run(*args, "--grid", f"{nu}x{nv}", "--out", tmp_path / "out") == 0
        return (tracemalloc.get_traced_memory()[1] - start) / (nu * nv * 16)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "args",
    [
        *(pytest.param(("logical", "--state", "gkp-approx:0.2:0", "--method", method), id=f"logical-{method}")
          for method in ("trace", "ec-trace", "overlap")),
        pytest.param(("sweep", "--state", "gkp-approx:0.2:0"), id="sweep"),
    ],
)
def test_logical_and_sweep_never_hold_the_grid(tmp_path, args):
    # they contract the comb matrix
    assert _peak_grids(args, tmp_path) <= 0.5


@pytest.mark.parametrize("fmt,nu", [("bin", 512), ("csv", 256)])
def test_zakplot_holds_the_grid_and_one_derived_grid(tmp_path, fmt, nu):
    # the transform, one derived grid and a block of rows (2.12 and 2.18 grids
    # measured); holding a real copy of each derived grid, and every CSV line,
    # took 2.55 grids in bin and about 14 in csv.  csv at 256x256, because
    # tracemalloc slows the per-sample formatting fourfold
    args = ("zakplot", "--state", "gkp-approx:0.3:0", "--format", fmt)
    assert _peak_grids(args, tmp_path, nu, nu) <= 2.25


@pytest.mark.parametrize(
    "args,name",
    [
        pytest.param(("zakplot", "--grid", "64x64", "--format", "bin"), "zak_transform", id="zakplot"),
        pytest.param(("shift-array", "--state", "gkp-approx:0.3:0", "--grid", "96x96"), "zak_transform",
                     id="shift-array"),
        pytest.param(("logical", "--grid", "64x64"), "comb_matrix", id="logical"),
        pytest.param(("sweep", "--grid", "64x64"), "comb_matrix", id="sweep"),
    ],
)
def test_an_allocation_the_machine_cannot_make_exits_2(tmp_path, capsys, monkeypatch, args, name):
    # what numpy raises for, say, --grid 65536x65536 or --mmax 20000000 under a memory limit
    def refuse(*_):
        raise MemoryError("Unable to allocate 64.0 GiB for an array with shape (65536, 65536)")

    monkeypatch.setattr(cli, name, refuse)
    assert run(*args, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("zakgkp: cannot allocate: Unable to allocate 64.0 GiB") and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def _non_finite_numbers(folder):
    """Paths under ``folder`` of the files that hold a NaN or an infinity: a binary grid's
    samples, or any comma-, colon-, equals- or space-separated token of a text file."""
    bad = []
    for root, _, names in os.walk(folder):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                raw = fh.read()
            if raw.startswith(gridio.MAGIC):
                if not np.isfinite(load_grid_binary(path).samples).all():
                    bad.append(path)
                continue
            tokens = raw.decode("ascii").replace(",", " ").replace("=", " ").replace(":", " ").split()
            for token in tokens:
                try:
                    value = float(token)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad.append(path)
                    break
    return bad


def _mostly(ordinary, odd):
    """``ordinary`` three times in four and ``odd`` otherwise, so that many runs get past the checks."""
    return st.integers(0, 3).flatmap(lambda i: odd if i == 3 else ordinary)


# ints past the float range, which the library takes as infinities of their sign
_EXTREME = [0.0, -1.0, 1e-320, 1e-300, 1e-5, 1e5, 2.5e153, 1e200, 1e308, math.inf, -math.inf, math.nan,
            10**400, -10**400]
_numbers = st.one_of(st.sampled_from(_EXTREME), st.floats(-10, 10), st.floats())
_alphas = _mostly(st.floats(1.0, 2.5), st.sampled_from(_EXTREME))
_deltas = _mostly(st.floats(0.2, 1.0), st.sampled_from(_EXTREME))
_states = _mostly(
    st.one_of(st.sampled_from(["vacuum", "gkp0", "gkp1"]),
              st.builds("gkp-approx:{}:{}".format, _deltas, st.sampled_from([0, 1]))),
    st.one_of(st.sampled_from(["nonsense", "gkp-approx:0.3", "gkp-approx:x:0", "gkp-approx:0.3:2"]),
              st.lists(st.tuples(_numbers, _numbers, _numbers), max_size=4)),  # a table: tabulated:PATH
)
_grids = _mostly(
    st.sampled_from(["8x8", "16x16", "24x24", "32x32", "48x48", "64x64", "48x16", "16x64"]),
    st.one_of(st.builds("{}x{}".format, st.integers(0, 64), st.integers(0, 64)),
              st.sampled_from(["x", "64", "-8x8", "8x8x8"])),
)


@st.composite
def _cli_configs(draw):
    """A command and its flags, each left out about a third of the time, but for ``--grid``:
    the default 256x256 would be slow."""
    command = draw(st.sampled_from(["zakplot", "shift-array", "logical", "sweep"]))
    flags = {
        "state": _states,
        "grid": _grids,
        "mmax": _mostly(st.integers(4, 32), st.sampled_from([-2, 0, 1, 2, "x"])),
        "alpha": _alphas,
        "format": _mostly(st.sampled_from(["csv", "bin"]), st.just("xml")),
    }
    if command == "logical":
        flags["method"] = st.sampled_from(["trace", "ec-trace", "overlap"])
    if command == "shift-array":
        flags.update(dx=_numbers, dy=_numbers, jmax=st.integers(-1, 2), kmax=st.integers(-1, 2))
    if command == "sweep":
        deltas = _mostly(st.lists(_deltas, min_size=1, max_size=3), st.lists(_numbers, max_size=3))
        flags["deltas"] = _mostly(deltas.map(lambda ds: ",".join(map(repr, ds))),
                                  st.sampled_from(["", "abc", "0.3,,0.2"]))
    chosen = {key: draw(value) for key, value in flags.items() if key == "grid" or draw(st.integers(0, 2))}
    return command, chosen


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cli_configs())
def test_cli_contract_holds_for_any_config(config):
    # exit 0, 2 or 3 (or argparse's SystemExit(2)), no other exception, and no NaN
    # or infinity in any file a run leaves behind
    command, flags = config
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(flags.get("state"), list):
            table = os.path.join(tmp, "table.csv")
            with open(table, "w", encoding="ascii") as fh:
                fh.writelines(f"{x!r},{re!r},{im!r}\n" for x, re, im in flags["state"])
            flags["state"] = f"tabulated:{table}"
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        out = os.path.join(out_dir, "panels" if command == "shift-array" else "result")
        args = [command, *(f"--{key}={value}" for key, value in flags.items()), "--out", out]
        try:
            code = main(args)
        except SystemExit as exc:
            code = ("argparse", exc.code)
        assert code in (0, 2, 3, ("argparse", 2)), args
        assert _non_finite_numbers(out_dir) == [], args


# ---------------------------------------------------------------------------
# the library's own contract: a call raises a ValueError or a ZakError, or returns
# finite numbers.  The one documented exception is a grid phase whose argument t*x
# overflows: its samples are NaN, and the writers and the logical maps refuse them.

_CODE = GKPCode()
_GRID = _CODE.grid(16, 16)
HUGE = 10**400
LONG = 10**5000
_GRID_STATES = {"vacuum": zak_transform(VacuumState(), _GRID, 16),
                "gkp-approx": zak_transform(approx_codeword(_CODE, 1, 0.4), _GRID, 16)}
# the coordinate a phase multiplies, by operator: Z(t) = P_U(t) T_V(t)
_PHASED = {apply_Z: "u", apply_phase_u: "u", apply_phase_v: "v"}
_OPERATORS = [apply_X, apply_Z, apply_phase_u, apply_phase_v, apply_translate_u, apply_translate_v]
# a number, or n 2^e grid steps: a shift the grid can count up to e = 1023
_ts = st.one_of(_numbers, st.builds(lambda n, e, step: n * 2.0**e * step, st.integers(-3, 3),
                                    st.integers(0, 1023), st.sampled_from([_GRID.du, _GRID.dv])))


def _weight(re, im):
    """``complex(re, im)``, or a drawn int itself: Python has no complex past the float range."""
    ints = [part for part in (re, im) if isinstance(part, int)]
    return ints[0] if ints else complex(re, im)


_points = st.lists(st.tuples(st.tuples(_numbers, _numbers), st.builds(_weight, _numbers, _numbers)), max_size=3)


def _refused_or(fn, *args):
    """``fn(*args)``, or None when it raises a ValueError or a ZakError.  Any other
    exception, and any numpy warning (an error under pytest), fails the test."""
    try:
        return fn(*args)
    except (ValueError, ZakError):
        return None


def _finite(*values):
    return all(np.isfinite(np.asarray(v)).all() for v in values)


def _check_maps(state):
    """The logical map and the stabilizer residuals refuse or give finite numbers."""
    qubit = _refused_or(logical_from_overlap, state, _CODE)
    assert qubit is None or _finite(qubit.matrix, qubit.raw_trace)
    residuals = _refused_or(stabilizer_residual, state, _CODE)
    assert residuals is None or _finite(residuals)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(sorted(_GRID_STATES)), _points),
       st.lists(st.tuples(st.sampled_from(_OPERATORS), _ts), max_size=4))
def test_library_contract_holds_for_any_operator_word(start, word):
    # a grid state, or the ideal state of drawn points; then each operator of the word in turn
    if isinstance(start, str):
        state = _GRID_STATES[start]
    else:
        state = _refused_or(IdealZakState, _CODE.full_patch(), start)
    overflowed = False
    for op, t in word:
        if state is None:
            return
        if op in _PHASED and isinstance(state, ModularWavefunction):
            x = _GRID.u_values() if _PHASED[op] == "u" else _GRID.v_values()
            # an int past the float range is refused as an infinite phase
            overflowed |= isinstance(t, float) and math.isfinite(t) and not math.isfinite(t * float(np.abs(x).max()))
        state = _refused_or(op, state, t)
    if state is None:
        return
    if isinstance(state, IdealZakState):
        assert _finite(list(state.points), list(state.points.values()))
    elif not _finite(state.samples):
        assert overflowed, word
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(NonFiniteError):
            save_grid_binary(state, os.path.join(tmp, "nan.bin"))
        assert _refused_or(logical_from_overlap, state, _CODE) is None
        return
    _check_maps(state)


_BUILDERS = {
    "ZakPatch": lambda x, ell, rows: ZakGrid(ZakPatch(*x), 8, 8),
    "GKPCode.grid": lambda x, ell, rows: GKPCode(alpha=x[0]).grid(16, 8),
    "VacuumState": lambda x, ell, rows: VacuumState(x[0]),
    "GaussianComb": lambda x, ell, rows: GaussianComb(*x),
    "approx_codeword": lambda x, ell, rows: approx_codeword(_CODE, ell, x[0]),
    "TabulatedState": lambda x, ell, rows: TabulatedState([r[0] for r in rows], [_weight(*r[1:]) for r in rows]),
    "IdealZakState": lambda x, ell, rows: IdealZakState(_CODE.full_patch(), {(x[0], x[1]): _weight(*x[2:])}),
    "MixtureState": lambda x, ell, rows: MixtureState([(x[0], codeword(_CODE, ell)), (x[1], codeword(_CODE, 1))]),
    "syndrome_reduce": lambda x, ell, rows: syndrome_reduce(_CODE, x[0], x[1]),
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_BUILDERS)), st.lists(_numbers, min_size=4, max_size=4), st.sampled_from([0, 1]),
       st.lists(st.tuples(_numbers, _numbers, _numbers), max_size=4), st.sampled_from([1, 4, 16]))
def test_library_contract_holds_for_any_constructor(name, x, ell, rows, m_max):
    # a refusal, or an object whose numbers are finite; a descriptor's transform and
    # comb-route maps then refuse or give finite numbers too
    built = _refused_or(_BUILDERS[name], x, ell, rows)
    if built is None:
        return
    if isinstance(built, ZakGrid):
        assert _finite(built.u_values(), built.v_values(), built.patch.height)
    elif name == "syndrome_reduce":
        assert _finite([built.u_tilde, built.v_tilde])
    elif hasattr(built, "evaluate"):
        psi = _refused_or(zak_transform, built, _GRID, m_max)
        assert psi is None or _finite(psi.samples)
        comb = _refused_or(comb_matrix, built, _GRID, m_max)
        if comb is not None:
            _check_maps(comb)
    else:
        _check_maps(built)


def _saved_bytes(fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"grid.{fmt}")
        (save_grid_binary if fmt == "bin" else save_grid_csv)(zak_transform(VacuumState(), _CODE.grid(8, 4), 8), path)
        with open(path, "rb") as fh:
            return fh.read()


_SAVED = {fmt: _saved_bytes(fmt) for fmt in ("csv", "bin")}
_edits = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 1 << 20),
                            st.one_of(st.integers(0, 255), st.sampled_from(list(b",\n.-+e0123456789nainf\x1c ")))),
                  min_size=1, max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_SAVED)), _edits)
def test_loaders_refuse_or_read_back_any_edited_file(fmt, edits):
    # a few bytes set, inserted or deleted: the loader refuses the file or reads a state
    # with finite samples, which a binary file holds byte for byte
    raw = bytearray(_SAVED[fmt])
    for edit, at, byte in edits:
        at %= len(raw) + (edit == "insert")
        if edit == "set":
            raw[at] = byte
        elif edit == "insert":
            raw.insert(at, byte)
        elif len(raw) > 1:
            del raw[at]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"edited.{fmt}")
        with open(path, "wb") as fh:
            fh.write(raw)
        psi = _refused_or(load_grid_binary if fmt == "bin" else load_grid_csv, path)
        if psi is None:
            return
        assert _finite(psi.samples)
        if fmt == "bin":
            save_grid_binary(psi, path)
            with open(path, "rb") as fh:
                assert fh.read() == raw


@pytest.mark.parametrize(
    "build,error,message",
    [
        pytest.param(lambda psi, ideal: apply_X(psi, math.nan), OffGridError, "shift nan", id="grid-X-nan"),
        *(pytest.param(lambda psi, ideal, op=op, t=t: op(psi, t), ValueError, f"phase must be finite, got {t}",
                       id=f"grid-{op.__name__}-{t}")
          for op in (apply_Z, apply_phase_u, apply_phase_v) for t in (math.nan, math.inf)),
        *(pytest.param(lambda psi, ideal, op=op, t=t: op(ideal, t), ValueError, "weight at", id=f"ideal-{op.__name__}-{t}")
          for op in (apply_phase_u, apply_phase_v) for t in (math.nan, math.inf)),
        pytest.param(lambda psi, ideal: IdealZakState(ideal.patch, {(0.0, 0.0): math.nan}), ValueError,
                     r"weight at \(0.0, 0.0\), in the patch, is not finite: \(nan\+nanj\)", id="ideal-nan-weight"),
        pytest.param(lambda psi, ideal: MixtureState([(math.nan, ideal)]), ValueError,
                     "probability nan is not a nonnegative number", id="mixture-nan-probability"),
        pytest.param(lambda psi, ideal: TabulatedState([], []), ValueError, "the table is empty", id="empty-table"),
        pytest.param(lambda psi, ideal: TabulatedState(np.zeros(2) + [0, 1], np.zeros(2)), ValueError,
                     "the table holds only zero values", id="all-zero-table"),
        pytest.param(lambda psi, ideal: TabulatedState(np.array([1.5, 0.0, 1.5]), np.ones(3)), ValueError,
                     r"abscissa 1.5 is listed more than once$", id="repeated-abscissa"),
        pytest.param(lambda psi, ideal: TabulatedState(np.array([0.0, np.nan]), np.ones(2)), ValueError,
                     r"xs\[1\] is not finite: nan$", id="nan-abscissa"),
        # found by the contract tests above: a patch whose far edge overflows, and residuals whose
        # sums overflow (a numpy warning and NaN from a comb matrix, inf from an ideal weight)
        pytest.param(lambda psi, ideal: ZakPatch(1e308, u_min=1e308), ValueError, "u_min \\+ a", id="patch-u-edge"),
        pytest.param(lambda psi, ideal: ZakPatch(1.0, b=1e-320, v_min=0.0), ValueError, "v_min \\+ 2pi/b",
                     id="patch-v-edge"),
        # an extent too narrow for the floats at its edges: a far edge that rounds onto the near one
        # once reduced 3.0 to u = 1e20 or counted a period for a point on u_min, and the grids had 9
        # distinct u or v nodes of 1024, so u_index(u_values()[1]) read 0
        *(pytest.param(build, ValueError, message + " is too narrow for the edges", id=f"narrow-{name}")
          for name, build, message in (
              ("patch-u", lambda psi, ideal: ZakPatch(1.0, u_min=1e20), r"period a=1\.0"),
              ("patch-tiny-a", lambda psi, ideal: ZakPatch(1e-300, 1.0, u_min=1.0), r"period a=1e-300"),
              ("grid-u", lambda psi, ideal: ZakGrid(ZakPatch(1.0, u_min=1e15), 1024, 4), r"period a=1\.0"),
              ("grid-v", lambda psi, ideal: ZakGrid(ZakPatch(1.0, v_min=1e15), 4, 1024), r"height 2pi/b=6\.28\d*"),
              ("grid-du", lambda psi, ideal: ZakGrid(ZakPatch(1.0, u_min=1e6), 2**20, 4), r"du=9\.5367431640625e-07"),
              ("grid-dv", lambda psi, ideal: ZakGrid(ZakPatch(1.0, v_min=1e6), 4, 2**20), r"dv=5\.99\d*e-06"))),
        pytest.param(lambda psi, ideal: stabilizer_residual(comb_matrix(TabulatedState([0.0], [1e200j]), _GRID, 1), _CODE),
                     NonFiniteError, "residuals inf and nan are not both finite", id="comb-residual"),
        pytest.param(lambda psi, ideal: stabilizer_residual(IdealZakState(ideal.patch, {(0.0, 1.0): 1e154j}), _CODE),
                     NonFiniteError, "residuals inf and 0.0 are not both finite", id="ideal-residual"),
        # a mixture has no one patch: each once ended in an AttributeError
        *(pytest.param(lambda psi, ideal, f=f: f(MixtureState([(0.5, ideal), (0.5, codeword(_CODE, 1))])),
                       ValueError, "takes a pure state, not a MixtureState", id=f"mixture-{name}")
          for name, f in (("stabilizer_residual", lambda m: stabilizer_residual(m, _CODE)),
                          ("ec_kraus_amplitudes", lambda m: ec_kraus_amplitudes(m, _CODE, syndrome_reduce(_CODE, 0, 0))),
                          ("to_ssd", lambda m: to_ssd(m, _CODE)))),
        # a comb matrix has no samples to read: each once ended in an AttributeError, to_ssd's
        # in a later norm, pp_bridge or apply_X_ssd
        *(pytest.param(lambda psi, ideal, f=f: f(comb_matrix(VacuumState(), _GRID, 4)), ValueError,
                       "takes a grid or ideal state, not a CombMatrix", id=f"comb-{name}")
          for name, f in (("ec_kraus_amplitudes", lambda c: ec_kraus_amplitudes(c, _CODE, syndrome_reduce(_CODE, 0, 0))),
                          ("to_ssd", lambda c: to_ssd(c, _CODE)))),
        # an SSD function given a full-mode state, and a full-mode function given an SSDState:
        # each once ended in an AttributeError, the operators' refusal named no SSDState
        *(pytest.param(lambda psi, ideal, f=f, pick=pick: f(pick(psi, ideal)), ValueError,
                       r"takes an SSDState, not a \w+; pass to_ssd\(state, code\)", id=f"{kind}-{name}")
          for kind, pick in (("grid", lambda psi, ideal: psi), ("ideal", lambda psi, ideal: ideal),
                             ("mixture", lambda psi, ideal: MixtureState([(0.5, psi), (0.5, ideal)])))
          for name, f in (("gauge_trace", gauge_trace), ("ec_gauge_trace", ec_gauge_trace),
                          ("apply_Z_ssd", lambda s: apply_Z_ssd(s, 0.0)), ("apply_X_ssd", lambda s: apply_X_ssd(s, 0.0)),
                          ("pp_bridge", pp_bridge), ("from_ssd", from_ssd))
          if kind != "mixture" or name.endswith("gauge_trace")),
        *(pytest.param(lambda psi, ideal, f=f, kind=kind: f(to_ssd(psi if kind == "grid" else ideal, _CODE)),
                       ValueError, "not a SSDState; pass an SSDState's mode", id=f"ssd-{kind}-{name}")
          for kind in ("grid", "ideal")
          for name, f in (("logical_from_overlap", lambda s: logical_from_overlap(s, _CODE)),
                          ("ec_channel_logical", lambda s: ec_channel_logical(s, _CODE)),
                          ("stabilizer_residual", lambda s: stabilizer_residual(s, _CODE)),
                          ("ec_kraus_amplitudes", lambda s: ec_kraus_amplitudes(s, _CODE, syndrome_reduce(_CODE, 0, 0))),
                          ("to_ssd", lambda s: to_ssd(s, _CODE)), ("apply_X", lambda s: apply_X(s, 0.0)))),
        # each once ended in an AttributeError on a member the input does not have
        pytest.param(lambda psi, ideal: pp_bridge_inverse(to_ssd(psi, _CODE)), ValueError,
                     "takes the PPGaugeModes that pp_bridge returns, not a SSDState", id="ssd-pp_bridge_inverse"),
        *(pytest.param(lambda psi, ideal, pick=pick: inverse_zak_transform(pick(psi, ideal), 0, 0.0), ValueError,
                       f"takes a grid state, not a {kind}$", id=f"{kind}-inverse_zak_transform")
          for kind, pick in (("IdealZakState", lambda psi, ideal: ideal),
                             ("CombMatrix", lambda psi, ideal: comb_matrix(VacuumState(), _GRID, 4)))),
        # each once ended in an AttributeError, and a writer's refusal comes before any file
        # is opened (the folder does not exist)
        *(pytest.param(lambda psi, ideal, pick=pick: SSDState(_CODE, pick(psi, ideal), pick(psi, ideal)), ValueError,
                       f"SSDState takes grid or ideal gauge components, not a {kind}$", id=f"{kind}-SSDState")
          for kind, pick in (("CombMatrix", lambda psi, ideal: comb_matrix(VacuumState(), _GRID, 4)),
                             ("MixtureState", lambda psi, ideal: MixtureState([(1.0, ideal)])))),
        *(pytest.param(lambda psi, ideal, f=f, pick=pick: f(pick(psi, ideal), os.path.join("no-such-folder", "grid")),
                       ValueError, f"the grid writers take a grid state, not a {kind}$", id=f"{kind}-{f.__name__}")
          for f in (save_grid_csv, save_grid_binary)
          for kind, pick in (("IdealZakState", lambda psi, ideal: ideal),
                             ("CombMatrix", lambda psi, ideal: comb_matrix(VacuumState(), _GRID, 4)))),
        *(pytest.param(lambda psi, ideal, pick=pick: stretch_rescale(pick(psi, ideal), 1.0), ValueError,
                       f"stretch_rescale takes a grid state, not a {kind}$", id=f"{kind}-stretch_rescale")
          for kind, pick in (("IdealZakState", lambda psi, ideal: ideal),
                             ("CombMatrix", lambda psi, ideal: comb_matrix(VacuumState(), _GRID, 4)))),
        # a half period once read psi_x at the wrong point with no error
        pytest.param(lambda psi, ideal: inverse_zak_transform(psi, 0.5, 0.0), ValueError,
                     r"n must be a whole number of periods, got 0\.5$", id="half-n-inverse_zak_transform"),
        # an ell that is not a number once raised float()'s own TypeError in place of the refusal
        *(pytest.param(build, ValueError, f"ell must be 0 or 1, got {shown}$", id=f"{label}-ell-{name}")
          for label, shown, ell in (("None", "None", None), ("a", "'a'", "a"), ("str-2", "'2'", "2"))
          for name, build in (("codeword", lambda psi, ideal, ell=ell: codeword(_CODE, ell)),
                              ("approx_codeword", lambda psi, ideal, ell=ell: approx_codeword(_CODE, ell, 0.3)),
                              ("fidelity", lambda psi, ideal, ell=ell: logical_from_overlap(ideal, _CODE).fidelity(ell)))),
        # an int past the float range once raised OverflowError, and a phase b n v past it gave NaN
        # with a numpy warning: each is refused as the infinity of its sign
        *(pytest.param(build, error, message, id=f"huge-int-{name}") for name, build, error, message in (
            ("ZakPatch", lambda psi, ideal: ZakPatch(HUGE), ValueError, "period a must be .*, got inf"),
            ("GKPCode", lambda psi, ideal: GKPCode(alpha=HUGE), ValueError, "alpha must be .*, got inf"),
            ("vacuum", lambda psi, ideal: VacuumState(-HUGE), ValueError, "offset must be finite, got -inf"),
            ("approx_codeword", lambda psi, ideal: approx_codeword(_CODE, 0, HUGE), ValueError,
             "delta must be positive and finite, got inf"),
            ("tabulated-xs", lambda psi, ideal: TabulatedState([0.0, HUGE], [1.0, 1.0]), ValueError,
             r"xs\[1\] is not finite: inf$"),
            ("tabulated-values", lambda psi, ideal: TabulatedState([0.0, 1.0], [1.0, -HUGE]), ValueError,
             r"values\[1\] is not finite: \(-inf\+0j\)$"),
            ("LogicalQubit", lambda psi, ideal: LogicalQubit([[HUGE, 0], [0, 1]], 1.0), ValueError,
             r"logical matrix \[\[\(inf\+0j\), 0j\], \[0j, \(1\+0j\)\]\] needs finite entries"),
            ("u_index", lambda psi, ideal: psi.grid.u_index(HUGE), OffGridError, r"u=inf \(from u_min\)"),
            ("apply_phase_u", lambda psi, ideal: apply_phase_u(psi, HUGE), ValueError, "phase must be finite, got inf"),
            ("apply_X-grid", lambda psi, ideal: apply_X(psi, -HUGE), OffGridError, "shift -inf is not"),
            ("apply_X-ideal", lambda psi, ideal: apply_X(ideal, HUGE), ValueError, "coordinate inf is not finite"),
            ("apply_Z", lambda psi, ideal: apply_Z(psi, HUGE), ValueError, "phase must be finite, got inf"),
            ("inverse_zak_transform", lambda psi, ideal: inverse_zak_transform(psi, 2**1023, 0.0), ValueError,
             r"the largest phase b n v for n=8.98846567431158e\+307 must be finite, got inf"))),
        # sizes past numpy's limit once raised its own ValueError, from inside np.arange
        pytest.param(lambda psi, ideal: ZakGrid(ideal.patch, 4 * 10**20, 8), ValueError,
                     "a 400000000000000000000x8 grid is past numpy's size limit", id="grid-size"),
        pytest.param(lambda psi, ideal: comb_matrix(VacuumState(), _GRID, 10**24), ValueError,
                     r"with a 16 x \(2 m_max \+ 1\) comb numpy can index, got 1000000000000000000000000$",
                     id="comb-size"),
        # a half-integer m_max once gave half-integer teeth and a wrong transform with no error
        *(pytest.param(lambda psi, ideal, f=f: f(VacuumState(), _GRID, 8.5), ValueError,
                       r"m_max must be a positive whole number, .* comb numpy can index, got 8\.5$",
                       id=f"half-m_max-{f.__name__}")
          for f in (comb_matrix, zak_transform)),
        # an int of more than 4300 digits once made Python's own int-to-text limit the message
        *(pytest.param(build, ValueError, message, id=f"long-int-{name}") for name, build, message in (
            ("syndrome_reduce", lambda psi, ideal: syndrome_reduce(_CODE, LONG, 0), "coordinate inf is not finite"),
            ("ideal-point", lambda psi, ideal: IdealZakState(ideal.patch, {(-LONG, 0.0): 1}),
             "coordinate -inf is not finite"),
            ("grid-nv", lambda psi, ideal: _CODE.grid(8, LONG), "a 8xinf grid is past numpy's size limit"),
            ("grid-nu", lambda psi, ideal: _CODE.grid(4 * LONG, 8), "a infx8 grid is past numpy's size limit"),
            ("comb", lambda psi, ideal: comb_matrix(VacuumState(), _GRID, LONG), "comb numpy can index, got inf$"),
            ("codeword", lambda psi, ideal: codeword(_CODE, -LONG), "ell must be 0 or 1, got -inf$"),
            ("split-period", lambda psi, ideal: split(1.0, LONG, 0.5), "too large to count in periods of inf$"))),
        # a convention that is no short string once put its whole repr, 5,000 characters or an int's
        # 5,000 digits in the message, or made Python's own int-to-text limit the message
        *(pytest.param(lambda psi, ideal, c=c: convention_phase(0.0, 0.0, c(psi)), ValueError, message,
                       id=f"convention-{name}") for name, c, message in (
            ("PPGaugeModes", lambda psi: pp_bridge(to_ssd(psi, _CODE)), r"unknown convention PPGaugeModes\(\.\.\..{,24}$"),
            ("long-str", lambda psi: "x" * 5000, r"unknown convention 'x{12}\.\.\.x{13}'$"),
            ("long-int", lambda psi: LONG, "unknown convention inf$"))),
        # a phase u v past the float range once raised "math domain error" or returned NaN
        *(pytest.param(lambda psi, ideal, args=args: convention_phase(*args), ValueError, message,
                       id=f"convention-phase-{args[2]}") for args, message in (
            ((1e200, 1e200, "opposite"), r"the phase u v for u=1e\+200, v=1e\+200 must be finite, got inf$"),
            ((1e308, 10, "symmetric"), r"the phase u v for u=1e\+308, v=10\.0 must be finite, got inf$"))),
        # an entry that is no pair once raised Python's own unpacking error, which names neither
        # the argument nor the pair it takes
        *(pytest.param(build, ValueError, message, id=f"unpaired-{name}") for name, build, message in (
            ("points-array", lambda psi, ideal: IdealZakState(ideal.patch, np.zeros(2)),
             r"points takes \(\(x, y\), weight\) pairs, got 0\.0$"),
            ("points-point", lambda psi, ideal: IdealZakState(ideal.patch, [(1.0, 2.0)]),
             r"points takes \(\(x, y\), weight\) pairs, got \(1\.0, 2\.0\)$"),
            ("components-array", lambda psi, ideal: MixtureState(np.zeros(2)),
             r"components takes \(probability, state\) pairs, got 0\.0$"),
            ("components-probability", lambda psi, ideal: MixtureState([1.0]),
             r"components takes \(probability, state\) pairs, got 1\.0$"),
            # one that is not iterable at all once raised Python's own "not iterable" error
            ("points-None", lambda psi, ideal: IdealZakState(ideal.patch, None),
             r"points takes \(\(x, y\), weight\) pairs, got None$"),
            ("components-None", lambda psi, ideal: MixtureState(None),
             r"components takes \(probability, state\) pairs, got None$"),
            ("components-int", lambda psi, ideal: MixtureState(3),
             r"components takes \(probability, state\) pairs, got 3$"))),
        # a function that refuses a comb matrix once said it takes one when given another kind
        *(pytest.param(lambda psi, ideal, f=f: f(None), ValueError,
                       r"takes a grid or ideal state, not a NoneType; pass an SSDState's mode$", id=f"None-{name}")
          for name, f in (("ec_kraus_amplitudes", lambda s: ec_kraus_amplitudes(s, _CODE, syndrome_reduce(_CODE, 0, 0))),
                          ("to_ssd", lambda s: to_ssd(s, _CODE)))),
        # the zero state once raised ZeroDivisionError, outside the contract
        pytest.param(lambda psi, ideal: psi.with_samples(np.zeros_like(psi.samples)).normalized(), NormalizationError,
                     "cannot normalize the zero wavefunction$", id="zero-normalized"),
    ],
)
def test_library_refuses_each_input_it_once_passed_on(build, error, message):
    # a NaN grid shift once left the state unshifted, a NaN or infinite grid phase gave NaN
    # samples or a numpy warning, and the rest were accepted or failed later on
    psi = _GRID_STATES["vacuum"]
    with pytest.raises(error, match=message) as exc:
        build(psi, codeword(_CODE, 0))
    assert "np." not in str(exc.value)


def test_an_overflowing_grid_phase_gives_nan_samples_without_a_warning():
    # documented: the writers and the logical maps refuse them
    psi = apply_phase_u(_GRID_STATES["vacuum"], 1e308)
    assert np.isnan(psi.samples).any()
    assert _refused_or(logical_from_overlap, psi, _CODE) is None
