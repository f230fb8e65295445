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
from zakgkp import ModularWavefunction, cli, gridio, tabulated, vacuum, zak_transform
from zakgkp.cli import main
from zakgkp.gkp import approx_codeword
from zakgkp.gridio import load_grid_binary, load_grid_csv, save_grid_binary, save_grid_csv

A = 2 * ALPHA


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
    j0, k0 = base.grid.origin_index
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
                 "gkp-approx:inf:1", "gkp-approx:0.3:2", "gkp-approx:0.3"):
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
        # finite but extreme: the period, a variance or a panel shift overflows
        pytest.param(("logical", "--alpha", "1e308"), None, id="huge-alpha"),
        pytest.param(("logical", "--state", "gkp-approx:1e-300:0"), None, id="tiny-approx-delta"),
        pytest.param(("logical", "--state", "gkp-approx:1e300:0"), None, id="huge-approx-delta"),
        pytest.param(("sweep", "--deltas", "1e-300"), None, id="tiny-deltas"),
        pytest.param(("shift-array", "--state", "gkp0", "--dx", "1e308"), None, id="huge-dx"),
        # no panel shift overflows, but dx / du does
        pytest.param(("shift-array", "--dx", "1e308", "--jmax", "0"), None, id="huge-dx-step-count"),
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
    ],
)
def test_invalid_input_is_a_config_error(tmp_path, capsys, args, table):
    if table is not None:
        path = tmp_path / "table.csv"
        path.write_text(table)
        args = tuple(a.format(table=path) for a in args)
    out = tmp_path / "out.csv"
    # a --grid in args comes later, so it overrides the default 96x96
    assert run(args[0], "--grid", "96x96", *args[1:], "--out", out) == 2
    assert "zakgkp: config error:" in capsys.readouterr().err
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
    states = [("vacuum", vacuum()), ("gkp-approx:0.3:1", approx_codeword(code, 1, 0.3)),
              (f"tabulated:{table}", tabulated(xs, values))]
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
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(command, "--state", f"tabulated:{table}", "--grid", grid, "--format", fmt,
                   "--out", out)
    assert code == 3
    err = capsys.readouterr().err
    assert "is not finite" in err and "sample (" in err
    assert "nan+nanj)" in err and "np.complex128" not in err
    # no grid file, temporary file or manifest is left behind
    left = sorted(os.listdir(tmp_path)) + (sorted(os.listdir(out)) if out.is_dir() else [])
    assert left == ["table.csv"]


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_huge_table_outside_the_window_is_a_truncation_failure(tmp_path, capsys, fmt):
    # squares of 1e200 overflow; the truncation share is still the 0.5 of a unit table
    table = tmp_path / "huge.csv"
    table.write_text("0.0,1e200,0\n100.0,1e200,0\n")
    out = tmp_path / f"h.{fmt}"
    assert run("zakplot", "--state", f"tabulated:{table}", "--grid", "64x64", "--format", fmt, "--out", out) == 3
    assert "estimated truncation tail 5.000e-01 exceeds tolerance" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["huge.csv"]


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


_EXTREME = [0.0, -1.0, 1e-320, 1e-300, 1e-5, 1e5, 2.5e153, 1e200, 1e308, math.inf, -math.inf, math.nan]
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
