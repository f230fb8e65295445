"""The benchmark's workloads: seeded job lists, the timed job bodies and their checks.

A job's ``run(inprocess)`` is the timed part; ``check(output)`` (untimed)
returns error strings and ``cleanup()`` removes the job's files.  Jobs whose
outputs are compared with each other share a ``group``; ``GROUP_CHECKS``
holds the cross-job check for each group kind.

Workloads (sizes and deltas are fixed; the seed picks ``ell``, shift
multiples, syndrome nodes, table phases, checked nodes and job order):

``cli_csv``  CLI subprocesses at 256x256 in CSV: CSV writing and reading and
             interpreter start-up dominate, the transform does almost nothing
             (the bypass workload for kernel changes).
``cli_bin``  CLI subprocesses at 1024x1024 in binary: the transform, the
             logical maps and the batching candidates (``sweep``,
             ``shift-array``) dominate, with no CSV formatting.
``lib_ssd``  in-process operator/SSD/logical chains on precomputed 512x512
             states and on ideal codewords: no start-up, transform or I/O.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import shutil
import subprocess
import sys

import check
from zakgkp import cli, core, gkp, gridio, operators, ssd

M_MAX = 16
NODES = 8
SWEEP_DELTAS = (0.5, 0.4, 0.3, 0.2, 0.1)


class JobError(Exception):
    """A job exited nonzero or raised."""


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _nodes(rng, nu, nv, count=NODES):
    return [(rng.randrange(nu), rng.randrange(nv)) for _ in range(count)]


def _remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.unlink(path)


# ---------------------------------------------------------------------------
# CLI jobs


class CliJob:
    """One ``zakgkp`` CLI invocation followed by reading its output back."""

    group = None

    def __init__(self, kind, argv, out, env):
        self.kind = kind
        self.argv = argv
        self.out = out
        self.env = env

    def run(self, inprocess):
        if inprocess:
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
            detail = ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "zakgkp.cli", *self.argv],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            code, detail = proc.returncode, proc.stderr.strip()[-300:]
        if code != 0:
            raise JobError(f"{self.kind}: exit {code} {detail}")
        return self.readback()

    def cleanup(self):
        stem, ext = os.path.splitext(self.out)
        for path in (self.out, self.out + ".manifest", f"{stem}_abs{ext}", f"{stem}_arg{ext}"):
            _remove(path)


def _loader(fmt):
    return gridio.load_grid_binary if fmt == "bin" else gridio.load_grid_csv


class ZakplotJob(CliJob):
    def __init__(self, spec, nu, fmt, out, env, nodes, table=None):
        super().__init__(f"zakplot:{spec.split(':')[0]}", ["zakplot", "--state", spec, "--grid", f"{nu}x{nu}", "--format", fmt, "--out", out], out, env)
        self.spec, self.grid, self.fmt = spec, check.Grid(nu, nu), fmt
        self.nodes, self.table = nodes, table

    def readback(self):
        return _loader(self.fmt)(self.out).samples

    def check(self, samples):
        stem, ext = os.path.splitext(self.out)
        header, main = check.read_grid(self.out, self.nodes)
        _, mag = check.read_grid(f"{stem}_abs{ext}", self.nodes)
        _, arg = check.read_grid(f"{stem}_arg{ext}", self.nodes)
        return (
            check.check_header(header, self.grid, self.out)
            + check.check_readback(samples, main, self.out)
            + check.check_samples(main, self.grid, check.state_x(self.spec, self.table), (), self.out)
            + check.check_abs_arg(main, mag, arg, self.out)
        )


class IdealJob(CliJob):
    def __init__(self, ell, out, env):
        super().__init__("zakplot:ideal", ["zakplot", "--state", f"gkp{ell}", "--out", out], out, env)
        self.ell = ell

    def readback(self):
        with open(self.out, encoding="ascii") as fh:
            return fh.read()

    def check(self, _text):
        return check.check_point_list(self.out, self.ell)


class ShiftArrayJob(CliJob):
    """16 panels ``X(j dx) Z(k dy) psi``; the steps are seeded grid multiples."""

    def __init__(self, spec, nu, fmt, out, env, rng, max_steps):
        self.grid = check.Grid(nu, nu)
        self.dx = rng.randint(1, max_steps) * self.grid.du
        self.dy = rng.randint(1, max_steps) * self.grid.dv
        super().__init__(
            "shift-array",
            ["shift-array", "--state", spec, "--grid", f"{nu}x{nu}", "--format", fmt,
             "--dx", repr(self.dx), "--dy", repr(self.dy), "--out", out],
            out, env,
        )
        self.spec, self.fmt = spec, fmt
        self.panels = [(j, k) for j in range(4) for k in range(4)]
        self.nodes = {panel: _nodes(rng, nu, nu, 2) for panel in self.panels}

    def _path(self, j, k):
        return os.path.join(self.out, f"panel_j{j}_k{k}.{self.fmt}")

    def readback(self):
        load = _loader(self.fmt)
        return {(j, k): load(self._path(j, k)).samples for j, k in self.panels}

    def check(self, panels):
        psi_x = check.state_x(self.spec)
        errors = []
        for (j, k), samples in panels.items():
            path = self._path(j, k)
            header, values = check.read_grid(path, self.nodes[(j, k)])
            errors += check.check_header(header, self.grid, path)
            errors += check.check_readback(samples, values, path)
            errors += check.check_samples(values, self.grid, psi_x, [(j * self.dx, k * self.dy)], path)
        return errors


class LogicalJob(CliJob):
    def __init__(self, spec, ell, method, nu, out, env, group):
        super().__init__(f"logical:{method}", ["logical", "--state", spec, "--grid", f"{nu}x{nu}", "--method", method, "--out", out], out, env)
        self.ell, self.method, self.group = ell, method, group

    def readback(self):
        return check.parse_logical_report(self.out)

    def check(self, report):
        return check.check_logical_report(report, self.ell, self.out)


class SweepJob(CliJob):
    def __init__(self, ell, nu, out, env):
        deltas = ",".join(repr(d) for d in SWEEP_DELTAS)
        super().__init__("sweep", ["sweep", "--state", f"gkp-approx:0.2:{ell}", "--grid", f"{nu}x{nu}", "--deltas", deltas, "--out", out], out, env)
        self.ell = ell

    def readback(self):
        with open(self.out, encoding="ascii") as fh:
            return fh.read()

    def check(self, _text):
        return check.check_sweep(self.out, SWEEP_DELTAS, self.ell)


def _logical_routes(jobs_and_outputs):
    by_method = {job.method: report for job, report in jobs_and_outputs}
    return check.check_routes(by_method, f"logical group {jobs_and_outputs[0][0].group}")


GROUP_CHECKS = {"logical": _logical_routes}


def write_table(path, rng, grid, m_range=4):
    """A seeded table on the comb ``u_j + a m`` (``|m| <= m_range``): a Gaussian
    bump with random per-row phases, normalized in the counting measure."""
    x0, sigma = rng.uniform(-1, 1), rng.uniform(0.8, 1.4)
    raw = {}
    for m in range(-m_range, m_range + 1):
        for j in range(grid.nu):
            x = grid.u(j) + grid.a * m
            raw[j + grid.nu * m] = (x, math.exp(-((x - x0) ** 2) / (2 * sigma**2)) * cmath.exp(2j * math.pi * rng.random()))
    scale = 1 / math.sqrt(sum(abs(w) ** 2 for _, w in raw.values()) * grid.du)
    values, rows = {}, ["x,re,im"]
    for i, (x, w) in raw.items():
        w *= scale
        values[i] = w
        rows.append(f"{x!r},{w.real!r},{w.imag!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    return check.TableX(grid, values)


class CliWorkload:
    def __init__(self, name, work, src, seed):
        self.name, self.work, self.seed = name, work, seed
        self.rng = random.Random(f"{name}:{seed}")
        # each CLI subprocess inherits the pinned BLAS threads and imports the checkout's sources
        self.env = child_env(src)
        self.table = None

    def setup(self):
        """Warm the interpreter and the import path; ``cli_csv`` also writes its table."""
        subprocess.run([sys.executable, "-c", "import zakgkp.cli"], env=self.env, check=True)
        if self.name == "cli_csv":
            rng = random.Random(f"{self.name}:{self.seed}:table")
            self.table = write_table(os.path.join(self.work, "table.csv"), rng, check.Grid(256, 256))

    def _out(self, index, name):
        return os.path.join(self.work, f"job{index}-{name}")

    def round(self, index):
        rng, env = self.rng, self.env
        states = ["vacuum", "gkp-approx:0.3:0", "gkp-approx:0.3:1"]
        if self.name == "cli_csv":
            jobs = [
                ZakplotJob("vacuum", 256, "csv", self._out(index, "vac.csv"), env, _nodes(rng, 256, 256)),
                ZakplotJob(f"gkp-approx:0.2:{rng.randrange(2)}", 256, "csv", self._out(index, "comb.csv"), env, _nodes(rng, 256, 256)),
                IdealJob(rng.randrange(2), self._out(index, "ideal.csv"), env),
                ZakplotJob(f"tabulated:{os.path.join(self.work, 'table.csv')}", 256, "csv",
                           self._out(index, "table.csv"), env, _nodes(rng, 256, 256), self.table),
                ShiftArrayJob(rng.choice(states), 96, "csv", self._out(index, "panels"), env, rng, 8),
            ]
        else:
            logical_ell = rng.randrange(2)
            spec = f"gkp-approx:0.2:{logical_ell}"
            jobs = [
                ZakplotJob(f"gkp-approx:0.3:{rng.randrange(2)}", 1024, "bin", self._out(index, "d3.bin"), env, _nodes(rng, 1024, 1024)),
                ZakplotJob(f"gkp-approx:0.1:{rng.randrange(2)}", 1024, "bin", self._out(index, "d1.bin"), env, _nodes(rng, 1024, 1024)),
                *(LogicalJob(spec, logical_ell, method, 1024, self._out(index, f"{method}.csv"), env, ("logical", index))
                  for method in ("trace", "ec-trace", "overlap")),
                SweepJob(rng.randrange(2), 1024, self._out(index, "sweep.csv"), env),
                ShiftArrayJob(rng.choice(states), 192, "bin", self._out(index, "panels"), env, rng, 16),
            ]
        rng.shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# in-process SSD chains


class SsdJob:
    """Seeded X/Z shifts of a precomputed state, then the SSD and logical chain,
    then the same chain on the ideal codeword."""

    kind = "ssd_chain"
    group = None

    def __init__(self, ctx, rng):
        self.ctx = ctx
        self.delta, self.ell = rng.choice((0.3, 0.2)), rng.randrange(2)
        g = ctx.check_grid
        # small shifts keep the codeword inside its correctable cell
        self.tx, self.tz = rng.randint(-16, 16) * g.du, rng.randint(-40, 40) * g.dv
        self.tx2, self.tz2 = rng.randint(-16, 16) * g.du, rng.randint(-40, 40) * g.dv
        self.syndrome = (g.u(rng.randrange(g.nu // 2)), g.v(rng.randrange(g.nv)))
        self.nodes = _nodes(rng, g.nu, g.nv, 6)

    def _chain(self, state, grid_state):
        code = self.ctx.code
        psi = operators.apply_X(operators.apply_Z(state, self.tz), self.tx)
        split = ssd.to_ssd(psi, code)
        out = {
            "psi": psi,
            "trace": ssd.gauge_trace(split),
            "ec-trace": ssd.ec_gauge_trace(split),
            "overlap": gkp.logical_from_overlap(psi, code),
            "ec-channel": gkp.ec_channel_logical(psi, code),
        }
        moved = ssd.apply_X_ssd(ssd.apply_Z_ssd(split, self.tz2), self.tx2)
        out["psi2"] = ssd.from_ssd(moved)
        if grid_state:
            out["moved"] = moved
            out["bridged"] = ssd.pp_bridge_inverse(ssd.pp_bridge(moved))
        out["residual"] = gkp.stabilizer_residual(psi, code)
        syndrome = self.syndrome if grid_state else (self.tx, self.tz)
        out["kraus"] = gkp.ec_kraus_amplitudes(psi, code, gkp.syndrome_reduce(code, *syndrome))
        return out

    def run(self, inprocess=True):
        return (
            self._chain(self.ctx.states[(self.delta, self.ell)], True),
            self._chain(self.ctx.ideal[self.ell], False),
        )

    def cleanup(self):
        pass

    def check(self, outputs):
        grid_out, ideal_out = outputs
        return self._check_grid(grid_out) + self._check_ideal(ideal_out)

    def _qubits(self, out, where):
        errors = []
        for route in ("trace", "ec-trace", "overlap", "ec-channel"):
            q = out[route]
            errors += check.check_logical_values(q.matrix.tolist(), q.raw_trace, f"{where} {route}")
        for a, b in (("trace", "overlap"), ("ec-trace", "ec-channel")):
            diff = abs(out[a].matrix - out[b].matrix).max()
            if diff > check.LOGICAL_TOL or abs(out[a].raw_trace - out[b].raw_trace) > check.LOGICAL_TOL:
                errors.append(f"{where}: {a} and {b} routes differ by {diff:.3e}")
        return errors

    def _check_grid(self, out):
        g, where = self.ctx.check_grid, f"ssd chain delta={self.delta} ell={self.ell}"
        psi_x = check.comb_x(self.ell, self.delta)
        first = [(self.tx, self.tz)]
        samples = {node: complex(out["psi"].samples[node]) for node in self.nodes}
        moved = {node: complex(out["psi2"].samples[node]) for node in self.nodes}
        errors = check.check_samples(samples, g, psi_x, first, where)
        errors += check.check_samples(moved, g, psi_x, first + [(self.tx2, self.tz2)], f"{where} after SSD shifts")
        errors += self._qubits(out, where)
        for ell in (0, 1):
            diff = abs(out["bridged"].gamma[ell].samples - out["moved"].gamma[ell].samples).max()
            if diff > check.SAMPLE_TOL:
                errors.append(f"{where}: pp_bridge round trip moves gamma{ell} by {diff:.3e}")
        if not all(math.isfinite(r) and r >= 0 for r in out["residual"]):
            errors.append(f"{where}: stabilizer residuals {out['residual']!r}")
        s, t = self.syndrome
        for ell, got in enumerate(out["kraus"]):
            want = cmath.exp(-1j * check.ALPHA * ell * t) * check.displaced_value(psi_x, s + check.ALPHA * ell, t, first)
            if abs(got - want) > check.SAMPLE_TOL:
                errors.append(f"{where}: Kraus amplitude {ell} is {got!r}, reference {want!r}")
        return errors

    def _check_ideal(self, out):
        alpha, ell, where = check.ALPHA, self.ell, f"ideal chain ell={self.ell}"
        errors = []
        w1 = cmath.exp(1j * alpha * ell * self.tz)
        expected = {
            "psi": ((alpha * ell + self.tx, self.tz), w1),
            "psi2": ((alpha * ell + self.tx + self.tx2, self.tz + self.tz2),
                     w1 * cmath.exp(1j * (alpha * ell + self.tx) * self.tz2)),
        }
        for key, ((u, v), w) in expected.items():
            points = list(out[key].items())
            if len(points) != 1 or abs(points[0][0][0] - u) > 1e-12 or abs(points[0][0][1] - v) > 1e-12 \
                    or abs(points[0][1] - w) > 1e-12:
                errors.append(f"{where}: {key} is {points!r}, expected one point at {(u, v)} weight {w!r}")
        errors += self._qubits(out, where)
        for route in ("trace", "ec-trace", "overlap", "ec-channel"):
            q = out[route]
            if abs(q.matrix[ell, ell] - 1) > 1e-12 or abs(q.raw_trace - 1) > 1e-12:
                errors.append(f"{where}: {route} is not the codeword: {q!r}")
        r1 = abs(cmath.exp(-1j * 2 * alpha * self.tz) - 1)
        r2 = abs(cmath.exp(2j * math.pi * self.tx / alpha) - 1)
        if any(abs(x - y) > 1e-12 for x, y in zip(out["residual"], (r1, r2))):
            errors.append(f"{where}: stabilizer residuals {out['residual']!r}, expected {(r1, r2)!r}")
        kraus = (1.0, 0.0) if ell == 0 else (0.0, 1.0)
        if any(abs(x - y) > 1e-12 for x, y in zip(out["kraus"], kraus)):
            errors.append(f"{where}: Kraus amplitudes {out['kraus']!r}, expected {kraus!r}")
        return errors


class SsdContext:
    def __init__(self):
        self.code = gkp.GKPCode()
        grid = self.code.grid(512, 512)
        self.check_grid = check.Grid(512, 512)
        self.states = {
            (delta, ell): core.zak_transform(gkp.approx_codeword(self.code, ell, delta), grid, M_MAX)
            for delta in (0.3, 0.2)
            for ell in (0, 1)
        }
        self.ideal = {ell: gkp.codeword(self.code, ell) for ell in (0, 1)}


class SsdWorkload:
    def __init__(self, name, work, src, seed):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.ctx = None

    def setup(self):
        self.ctx = SsdContext()

    def round(self, index):
        return [SsdJob(self.ctx, self.rng) for _ in range(10)]


#: workload name -> (class, rounds per minute of ``--seconds``).  On a 2-vCPU
#: x86 box a round takes about 5.0 s (cli_csv: 5 jobs), 2.9 s (cli_bin: 7 jobs)
#: and 1.1 s (lib_ssd: 10 jobs).  At 30 s the counts also put the median and
#: the tail order statistic inside one job kind's latency cluster, not on the
#: edge between two kinds (cli_bin: between logical and zakplot jobs).
WORKLOADS = {
    "cli_csv": (CliWorkload, 12),
    "cli_bin": (CliWorkload, 14),
    "lib_ssd": (SsdWorkload, 54),
}
