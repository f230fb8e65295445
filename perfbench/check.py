"""Independent output checks for the benchmark.

Reference values come from the definitions, in pure ``math``/``cmath``:

    psi(u, v) = sqrt(b / 2pi) * sum_{|m| <= m_max} exp(-i b m v) psi_x(u + a m)

on the standard patch of the code with half-period ``alpha`` (``a = b =
2 alpha``), with the displacements ``(X(t) f)(u, v) = f(u - t, v)`` and
``(Z(t) f)(u, v) = exp(i u t) f(u, v - t)`` written out analytically.  Output
files are parsed here with the formats' own layouts, not with the loaders
under test.  Every check returns a list of error strings; an empty list
means the output passed.  Nothing in this module is timed.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct

ALPHA = math.sqrt(math.pi)
PERIOD = 2 * ALPHA
M_MAX = 16
#: tolerance on a grid sample against the reference (samples are O(1))
SAMPLE_TOL = 1e-9
#: tolerance on logical-matrix identities and cross-route agreement
LOGICAL_TOL = 1e-9

_BIN_HEADER = struct.Struct("<4sIIIdddd")


class Grid:
    """Nodes of the code's standard patch, ``u_j = -a/4 + j a/nu``, ``v_k = -pi/a + k (2pi/a)/nv``."""

    def __init__(self, nu, nv, a=PERIOD):
        self.nu, self.nv, self.a = nu, nv, a
        self.u_min = -a / 4
        self.v_min = -math.pi / a
        self.du = a / nu
        self.dv = (2 * math.pi / a) / nv

    def u(self, j):
        return self.u_min + self.du * j

    def v(self, k):
        return self.v_min + self.dv * k


# ---------------------------------------------------------------------------
# position-space wavefunctions, from their definitions


def vacuum_x(x):
    return math.pi ** -0.25 * math.exp(-x * x / 2)


class CombX:
    """Approximate codeword ``l``: teeth of variance delta^2 at ``alpha l + 2 alpha n``
    under an envelope of variance delta^-2, normalized by the closed-form
    Gaussian integrals over all tooth pairs."""

    def __init__(self, ell, delta, alpha=ALPHA):
        self.vt = delta * delta
        self.ve = 1.0 / (delta * delta)
        self.offset = alpha * ell
        self.spacing = 2 * alpha
        n_max = int(math.sqrt(800 * self.ve) / self.spacing) + 2
        centers = [self.offset + self.spacing * n for n in range(-n_max, n_max + 1)]
        p = 1 / self.vt + 1 / self.ve
        total = 0.0
        for c1 in centers:
            for c2 in centers:
                q = (c1 + c2) / self.vt
                r = -(c1 * c1 + c2 * c2) / (2 * self.vt)
                total += math.sqrt(math.pi / p) * math.exp(q * q / (4 * p) + r)
        self.amplitude = 1 / math.sqrt(total)
        # teeth further than 40 tooth widths contribute below exp(-800)
        self.reach = int(40 * delta / self.spacing) + 2

    def __call__(self, x):
        n0 = round((x - self.offset) / self.spacing)
        teeth = 0.0
        for n in range(n0 - self.reach, n0 + self.reach + 1):
            d = x - (self.offset + self.spacing * n)
            teeth += math.exp(-d * d / (2 * self.vt))
        return self.amplitude * teeth * math.exp(-x * x / (2 * self.ve))


class TableX:
    """Tabulated wavefunction on the comb ``u_j + a m``, keyed by ``j + nu m``."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = values

    def __call__(self, x):
        t = (x - self.grid.u_min) / self.grid.du
        i = round(t)
        if abs(t - i) > 1e-6:
            return 0j
        return self.values.get(i, 0j)


def zak_value(psi_x, u, v, a=PERIOD, m_max=M_MAX):
    total = 0j
    for m in range(-m_max, m_max + 1):
        total += cmath.exp(-1j * a * m * v) * psi_x(u + a * m)
    return math.sqrt(a / (2 * math.pi)) * total


def displaced_value(psi_x, u, v, shifts=()):
    """Value of ``X(tx_n) Z(tz_n) ... X(tx_1) Z(tz_1) psi`` at ``(u, v)``; ``shifts`` lists ``(tx, tz)`` in order applied."""
    phase = 1 + 0j
    for tx, tz in reversed(shifts):
        u -= tx
        phase *= cmath.exp(1j * u * tz)
        v -= tz
    return phase * zak_value(psi_x, u, v)


@functools.lru_cache(maxsize=None)
def comb_x(ell, delta):
    return CombX(ell, delta)


def state_x(spec, table=None):
    """Position wavefunction for a CLI state spec (``vacuum``, ``gkp-approx:D:L``, ``tabulated:...``)."""
    if spec == "vacuum":
        return vacuum_x
    if spec.startswith("gkp-approx:"):
        _, delta, ell = spec.split(":")
        return comb_x(int(ell), float(delta))
    if spec.startswith("tabulated:"):
        return table
    raise ValueError(f"no reference for state {spec!r}")


# ---------------------------------------------------------------------------
# file parsers, independent of zakgkp.gridio


def read_csv_grid(path, nodes):
    """``(header, {(j, k): value})`` from a CSV grid, reading only the listed nodes."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if lines[0] != "u_min,du,Nu,v_min,dv,Nv" or lines[2] != "j,k,re,im":
        raise ValueError(f"{path}: not a CSV grid")
    u_min, du, nu, v_min, dv, nv = lines[1].split(",")
    header = (float(u_min), float(du), int(nu), float(v_min), float(dv), int(nv))
    nv = header[5]
    values = {}
    for j, k in nodes:
        fj, fk, re, im = lines[3 + j * nv + k].split(",")
        if (int(fj), int(fk)) != (j, k):
            raise ValueError(f"{path}: row for node {(j, k)} is out of order")
        values[(j, k)] = complex(float(re), float(im))
    return header, values


def read_bin_grid(path, nodes):
    """``(header, {(j, k): value})`` from a binary grid, seeking to the listed nodes."""
    with open(path, "rb") as fh:
        magic, _version, nu, nv, a, b, u_min, v_min = _BIN_HEADER.unpack(fh.read(_BIN_HEADER.size))
        if magic != b"ZAKG":
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = (u_min, a / nu, nu, v_min, (2 * math.pi / b) / nv, nv)
        values = {}
        for j, k in nodes:
            fh.seek(_BIN_HEADER.size + 16 * (j * nv + k))
            re, im = struct.unpack("<dd", fh.read(16))
            values[(j, k)] = complex(re, im)
    return header, values


def read_grid(path, nodes):
    return read_bin_grid(path, nodes) if str(path).endswith(".bin") else read_csv_grid(path, nodes)


def _close(x, y, tol):
    return abs(x - y) <= tol


# ---------------------------------------------------------------------------
# checks


def check_header(header, grid, where):
    u_min, du, nu, v_min, dv, nv = header
    if (nu, nv) != (grid.nu, grid.nv):
        return [f"{where}: grid is {nu}x{nv}, expected {grid.nu}x{grid.nv}"]
    errors = []
    for name, got, want in (("u_min", u_min, grid.u_min), ("du", du, grid.du),
                            ("v_min", v_min, grid.v_min), ("dv", dv, grid.dv)):
        if not _close(got, want, 1e-12 * max(1.0, abs(want))):
            errors.append(f"{where}: header {name}={got!r}, expected {want!r}")
    return errors


def check_samples(values, grid, psi_x, shifts, where, tol=SAMPLE_TOL):
    """Samples at nodes against the displaced reference."""
    errors = []
    for (j, k), got in values.items():
        want = displaced_value(psi_x, grid.u(j), grid.v(k), shifts)
        if not _close(got, want, tol):
            errors.append(f"{where}: node {(j, k)} is {got!r}, reference {want!r}")
    return errors


def check_readback(loaded, values, where):
    """The library's loader must return exactly the values in the file."""
    errors = []
    for (j, k), want in values.items():
        got = complex(loaded[j, k])
        if got != want:
            errors.append(f"{where}: loader gives {got!r} at {(j, k)}, file has {want!r}")
    return errors


def check_abs_arg(main, abs_values, arg_values, where):
    """``_abs`` and ``_arg`` grids hold the modulus and phase of the main grid."""
    errors = []
    for node, z in main.items():
        r, theta = abs_values[node], arg_values[node]
        if abs(r.imag) > 0 or abs(theta.imag) > 0:
            errors.append(f"{where}: _abs/_arg at {node} have imaginary parts")
        if not _close(r.real, abs(z), 1e-12 * max(1.0, abs(z))):
            errors.append(f"{where}: _abs at {node} is {r.real!r}, |z| = {abs(z)!r}")
        if abs(z) > 1e-150 and abs(cmath.exp(1j * theta.real) - z / abs(z)) > 1e-12:
            errors.append(f"{where}: _arg at {node} is {theta.real!r}, arg z = {cmath.phase(z)!r}")
    return errors


def check_point_list(path, ell):
    """An ideal codeword is the single unit point mass at ``(alpha l, 0)``."""
    with open(path, encoding="ascii") as fh:
        rows = fh.read().split()
    if rows[0] != "u,v,re,im" or len(rows) != 2:
        return [f"{path}: expected a header and one point, got {len(rows) - 1} rows"]
    u, v, re, im = (float(x) for x in rows[1].split(","))
    if not (_close(u, ALPHA * ell, 1e-12) and v == 0 and re == 1 and im == 0):
        return [f"{path}: point {rows[1]!r} is not the codeword {ell}"]
    return []


def parse_logical_report(path):
    with open(path, encoding="ascii") as fh:
        header, row = fh.read().split()
    return dict(zip(header.split(","), (float(x) for x in row.split(","))))


def check_logical_values(rho, raw_trace, where, purity=None, bloch=None):
    """Hermitian, unit trace, purity <= 1 and positive raw trace for a 2x2 ``rho``."""
    errors = []
    (r00, r01), (r10, r11) = rho
    if abs(r01 - r10.conjugate()) > LOGICAL_TOL or abs(r00.imag) > LOGICAL_TOL or abs(r11.imag) > LOGICAL_TOL:
        errors.append(f"{where}: matrix is not Hermitian: {rho!r}")
    if abs(r00 + r11 - 1) > LOGICAL_TOL:
        errors.append(f"{where}: trace is {r00 + r11!r}")
    p = sum(abs(x) ** 2 for row in rho for x in row)
    if p > 1 + LOGICAL_TOL or min(r00.real, r11.real) < -LOGICAL_TOL:
        errors.append(f"{where}: not a density matrix (purity {p!r})")
    if purity is not None and abs(purity - p) > LOGICAL_TOL:
        errors.append(f"{where}: purity {purity!r} disagrees with the matrix ({p!r})")
    if bloch is not None:
        want = (2 * r01.real, -2 * r01.imag, (r00 - r11).real)
        if any(abs(x - y) > LOGICAL_TOL for x, y in zip(bloch, want)):
            errors.append(f"{where}: Bloch vector {bloch!r} disagrees with the matrix")
    if not 0 < raw_trace <= 1 + 1e-9:
        errors.append(f"{where}: raw trace {raw_trace!r} is outside (0, 1]")
    return errors


def report_matrix(report):
    return (
        (complex(report["rho00_re"], report["rho00_im"]), complex(report["rho01_re"], report["rho01_im"])),
        (complex(report["rho10_re"], report["rho10_im"]), complex(report["rho11_re"], report["rho11_im"])),
    )


def check_logical_report(report, ell, where):
    rho = report_matrix(report)
    errors = check_logical_values(
        rho, report["raw_trace"], where, purity=report["purity"],
        bloch=(report["bloch_x"], report["bloch_y"], report["bloch_z"]),
    )
    if rho[ell][ell].real < 0.5:
        errors.append(f"{where}: approximate codeword {ell} has fidelity {rho[ell][ell].real!r}")
    return errors


def check_routes(by_method, where):
    """Trace and overlap routes give the same qubit; the EC route shares its diagonal and raw trace."""
    trace, ec, overlap = (report_matrix(by_method[m]) for m in ("trace", "ec-trace", "overlap"))
    errors = []
    if any(abs(x - y) > LOGICAL_TOL for rt, ro in zip(trace, overlap) for x, y in zip(rt, ro)):
        errors.append(f"{where}: trace and overlap routes disagree")
    if any(abs(trace[i][i] - ec[i][i]) > LOGICAL_TOL for i in (0, 1)):
        errors.append(f"{where}: EC route changes the diagonal")
    raw = [by_method[m]["raw_trace"] for m in ("trace", "ec-trace", "overlap")]
    if max(raw) - min(raw) > LOGICAL_TOL:
        errors.append(f"{where}: raw traces differ across routes: {raw!r}")
    return errors


def check_sweep(path, deltas, ell):
    with open(path, encoding="ascii") as fh:
        rows = fh.read().split()
    if rows[0] != "delta,fidelity,purity,raw_trace,residual_pv,residual_pu":
        return [f"{path}: bad header {rows[0]!r}"]
    table = [[float(x) for x in row.split(",")] for row in rows[1:]]
    if [r[0] for r in table] != list(deltas):
        return [f"{path}: deltas {[r[0] for r in table]!r}, expected {list(deltas)!r}"]
    errors = []
    for delta, fidelity, purity, raw, r1, r2 in table:
        if not (0 <= fidelity <= 1 + LOGICAL_TOL and 0.5 - LOGICAL_TOL <= purity <= 1 + LOGICAL_TOL
                and 0 < raw <= 1 + 1e-9 and r1 >= 0 and r2 >= 0 and math.isfinite(r1 + r2)):
            errors.append(f"{path}: row for delta={delta} is out of range")
    # narrower teeth approximate the codeword better
    if table[-1][1] <= table[0][1]:
        errors.append(f"{path}: fidelity does not improve from delta={deltas[0]} to {deltas[-1]}")
    return errors
