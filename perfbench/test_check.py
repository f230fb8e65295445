"""The benchmark's output check passes real outputs and fails corrupted copies.

    python3 -m pytest perfbench/test_check.py     or     python3 perfbench/test_check.py
"""

import os
import struct
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import check  # noqa: E402
import workloads  # noqa: E402
from zakgkp.core import ModularWavefunction  # noqa: E402

ENV = workloads.child_env(SRC)
NODES = [(5, 7), (30, 41), (63, 0)]


def _rewrite_csv_node(path, node, nv, fn):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    j, k = node
    fj, fk, re, im = lines[3 + j * nv + k].split(",")
    re, im = fn(float(re), float(im))
    lines[3 + j * nv + k] = f"{fj},{fk},{re!r},{im!r}"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))


def _passes(job):
    output = job.run(inprocess=True)
    assert job.check(output) == []
    return output


def test_zakplot_csv_sample_corruption_fails(tmp_path):
    job = workloads.ZakplotJob("gkp-approx:0.3:1", 64, "csv", str(tmp_path / "psi.csv"), ENV, NODES)
    _passes(job)
    _rewrite_csv_node(job.out, NODES[1], 64, lambda re, im: (re * (1 + 1e-6), im))
    errors = job.check(job.readback())
    assert any("reference" in e for e in errors)


def test_stale_readback_fails(tmp_path):
    job = workloads.ZakplotJob("vacuum", 64, "csv", str(tmp_path / "psi.csv"), ENV, NODES)
    samples = _passes(job)
    _rewrite_csv_node(job.out, NODES[0], 64, lambda re, im: (im, re))
    assert any("loader gives" in e for e in job.check(samples))


def test_arg_grid_inconsistent_fails(tmp_path):
    job = workloads.ZakplotJob("vacuum", 64, "csv", str(tmp_path / "psi.csv"), ENV, NODES)
    samples = _passes(job)
    _rewrite_csv_node(str(tmp_path / "psi_arg.csv"), NODES[2], 64, lambda re, im: (re + 0.01, im))
    assert any("_arg" in e for e in job.check(samples))


def test_binary_sample_corruption_fails(tmp_path):
    job = workloads.ZakplotJob("gkp-approx:0.1:0", 64, "bin", str(tmp_path / "psi.bin"), ENV, NODES)
    _passes(job)
    j, k = NODES[0]
    with open(job.out, "r+b") as fh:
        fh.seek(48 + 16 * (j * 64 + k))
        re, im = struct.unpack("<dd", fh.read(16))
        fh.seek(48 + 16 * (j * 64 + k))
        fh.write(struct.pack("<dd", re, -im - 1e-3))
    assert any("reference" in e for e in job.check(job.readback()))


def test_tabulated_state_passes(tmp_path):
    import random

    grid = check.Grid(64, 64)
    table = workloads.write_table(str(tmp_path / "table.csv"), random.Random(3), grid)
    job = workloads.ZakplotJob(f"tabulated:{tmp_path / 'table.csv'}", 64, "csv", str(tmp_path / "t.csv"), ENV, NODES, table)
    _passes(job)
    table.values[NODES[0][0]] *= 1.5  # the reference no longer matches the file the CLI read
    assert job.check(job.readback())


def test_swapped_shift_panels_fail(tmp_path):
    import random

    job = workloads.ShiftArrayJob("gkp-approx:0.3:0", 48, "csv", str(tmp_path / "panels"), ENV, random.Random(5), 4)
    _passes(job)
    a, b = job._path(1, 0), job._path(0, 1)
    os.replace(a, a + ".tmp")
    os.replace(b, a)
    os.replace(a + ".tmp", b)
    assert any("reference" in e for e in job.check(job.readback()))


def test_ideal_point_list_fails_for_wrong_codeword(tmp_path):
    job = workloads.IdealJob(1, str(tmp_path / "ideal.csv"), ENV)
    _passes(job)
    job.ell = 0
    assert job.check(job.readback())


def test_logical_reports(tmp_path):
    jobs = [workloads.LogicalJob("gkp-approx:0.3:1", 1, m, 64, str(tmp_path / f"{m}.csv"), ENV, ("logical", 0))
            for m in ("trace", "ec-trace", "overlap")]
    members = [(job, _passes(job)) for job in jobs]
    assert workloads.GROUP_CHECKS["logical"](members) == []
    broken = dict(members[2][1], rho01_im=members[2][1]["rho01_im"] + 1e-3)
    assert jobs[2].check(broken)  # no longer Hermitian
    members[2] = (jobs[2], broken)
    assert workloads.GROUP_CHECKS["logical"](members)  # routes disagree


def test_sweep_fails_on_wrong_deltas(tmp_path):
    job = workloads.SweepJob(0, 64, str(tmp_path / "sweep.csv"), ENV)
    _passes(job)
    with open(job.out, encoding="ascii") as fh:
        text = fh.read()
    with open(job.out, "w", encoding="ascii") as fh:
        fh.write(text.replace("\n0.1,", "\n0.15,"))
    assert job.check(job.readback())


def test_ssd_chain_fails_on_swapped_state():
    import random

    ctx = workloads.SsdContext()
    job = workloads.SsdJob(ctx, random.Random(7))
    grid_out, ideal_out = _passes(job)
    psi = grid_out["psi"]
    grid_out["psi"] = ModularWavefunction(psi.grid, psi.samples * 1j)
    assert any("reference" in e for e in job.check((grid_out, ideal_out)))


def test_tracer_covers_reimported_names_and_restores_them(tmp_path):
    import tracing
    import zakgkp.cli
    from zakgkp import core

    original = zakgkp.cli.zak_transform
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert zakgkp.cli.main(["zakplot", "--state", "gkp-approx:0.3:0", "--grid", "64x64", "--out", str(tmp_path / "p.csv")]) == 0
    finally:
        tracer.uninstall()
    assert zakgkp.cli.zak_transform is original is core.zak_transform
    stats = tracer.busy_and_self()
    for name in ("cli.main", "core.zak_transform", "core.evaluate", "core.tail_mass", "gridio.save_grid_csv"):
        calls, busy, own = stats[name]
        assert calls >= 1 and 0 <= own <= busy
    assert stats["gridio.save_grid_csv"][0] == 3
    metrics = tracing.layer_metrics(tracer)
    assert metrics["core.wavefunctions.created"] >= 3
    assert 0 < metrics["core.comb_terms.useful_frac"] < 1
    assert metrics["gridio.bytes_written"] == sum(os.path.getsize(tmp_path / f) for f in ("p.csv", "p_abs.csv", "p_arg.csv"))


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as tmp:
                test(Path(tmp)) if test.__code__.co_argcount else test()
            print(f"ok {name}")
