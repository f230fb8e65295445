"""Grid file formats and report tables.

CSV grid layout (numbers in shortest round-trip decimal form):

    u_min,du,Nu,v_min,dv,Nv
    <u_min>,<du>,<Nu>,<v_min>,<dv>,<Nv>
    j,k,re,im
    0,0,<re>,<im>
    ...

The loader reconstructs the patch from ``a = du*Nu`` and
``b = 2*pi/(dv*Nv)``, exact for power-of-two sample counts.  The line reader
defines a row.  numpy reads a file it accepts ``core.BLOCK_ROWS * Nv`` rows at
a time from the file; on any refusal the line reader reads the body again from
the data header and names the first bad line in file order.  A load peaks at
no more than three grids.

Binary grid layout: a 48-byte little-endian header

    magic "ZAKG" | version u32 | Nu u32 | Nv u32 | a f64 | b f64 | u_min f64 | v_min f64

followed by two f64 per sample (re, im), row-major in j then k.  The
binary format round-trips the patch parameters bit-exactly.

All writers are atomic (temp file in the target directory, then rename).
Grids are written in blocks of ``core.BLOCK_ROWS`` rows; a block holding a
non-finite sample is refused before it is written, and no file is left
behind.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import threading
import warnings

import numpy as np

from .core import BLOCK_ROWS, IdealZakState, ModularWavefunction, ZakGrid, ZakPatch, _finite_rows, _frozen

__all__ = [
    "format_float",
    "atomic_write_text",
    "save_grid_csv",
    "load_grid_csv",
    "save_grid_binary",
    "load_grid_binary",
    "save_point_list_csv",
    "logical_report_csv",
]

MAGIC = b"ZAKG"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdddd")

_CSV_ROW = np.dtype([("j", np.int64), ("k", np.int64), ("re", np.float64), ("im", np.float64)])
# the separators 0x1C-0x1F, which numpy's parser strips as whitespace but int()
# and float() refuse
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_WARNINGS_LOCK = threading.Lock()

LOGICAL_REPORT_COLUMNS = (
    "rho00_re,rho00_im,rho01_re,rho01_im,rho10_re,rho10_im,rho11_re,rho11_im,"
    "bloch_x,bloch_y,bloch_z,purity,raw_trace"
)


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips the 64-bit float."""
    return repr(float(x))


def _atomic_write(path, chunks, mode):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zakgkp-tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    _atomic_write(path, (text,), "w")


def _csv_header(grid):
    head = (format_float(grid.patch.u_min), format_float(grid.du), str(grid.nu),
            format_float(grid.patch.v_min), format_float(grid.dv), str(grid.nv))
    return "u_min,du,Nu,v_min,dv,Nv\n" + ",".join(head) + "\nj,k,re,im\n"


def _csv_rows(j, rows):
    """The CSV lines of grid rows ``j ..``, one string per row; ``tolist()``'s floats
    format as :func:`format_float` does."""
    ks = [f",{k}," for k in range(rows.shape[1])]
    # an imaginary part whose bits are all zero is +0.0, whose repr is "0.0"
    zero_imag = ~rows.imag.view(np.uint64).any(axis=1)
    for i in range(len(rows)):
        prefix = str(j + i)
        if zero_imag[i]:
            yield "".join([f"{prefix}{k}{x!r},0.0\n" for k, x in zip(ks, rows[i].real.tolist())])
        else:
            re, im = rows[i].real.tolist(), rows[i].imag.tolist()
            yield "".join([f"{prefix}{k}{x!r},{y!r}\n" for k, x, y in zip(ks, re, im)])


def _binary_header(grid):
    patch = grid.patch
    return _HEADER.pack(MAGIC, VERSION, grid.nu, grid.nv, patch.a, patch.b, patch.u_min, patch.v_min)


def _binary_rows(j, rows):
    # complex128 memory layout is exactly (re, im) f64 pairs, row-major; the
    # block is written through its buffer, with no bytes copy
    return (np.ascontiguousarray(rows, dtype="<c16"),)


def _save_grid(psi: ModularWavefunction, path, mode, header, encode):
    """Write ``header(grid)``, then ``encode(j, rows)`` of each block of rows
    ``j ..``.  Each block is checked first: a non-finite sample raises
    :class:`NonFiniteError` naming the file and ``(j, k)``, and leaves no
    file behind."""
    if not isinstance(psi, ModularWavefunction):
        raise ValueError(f"the grid writers take a grid state, not a {type(psi).__name__}")
    path = os.fspath(path)
    samples = psi.samples

    def chunks():
        yield header(psi.grid)
        for j in range(0, psi.grid.nu, BLOCK_ROWS):
            yield from encode(j, _finite_rows(path, samples[j:j + BLOCK_ROWS], j))

    _atomic_write(path, chunks(), mode)


def save_grid_csv(psi: ModularWavefunction, path):
    _save_grid(psi, path, "w", _csv_header, _csv_rows)


def _numpy_parses_as_python(path):
    """Whether the file is ASCII and holds none of the separators numpy's parser
    strips as whitespace, so that numpy reads it as ``int()`` and ``float()`` do."""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if not chunk.isascii() or any(sep in chunk for sep in _SEPARATORS):
                return False
    return True


def _load_block(fh, rows):
    """``np.loadtxt`` of the next ``rows`` CSV rows of ``fh``; blank lines are not
    rows.  numpy versions that parse an integer field such as ``3.0`` through a
    float only warn; here that refuses the block, as ``int()`` refuses the field."""
    # the lock keeps two loads from restoring each other's warning filters
    with _WARNINGS_LOCK, warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1, max_rows=rows)


def _scan_rows(path, lines, samples, seen):
    """Parse ``lines`` one at a time into ``samples``, marking ``seen``; the
    first bad line raises ValueError naming ``path``.  Blank lines are skipped."""
    nu, nv = samples.shape
    flat = samples.reshape(-1)
    for line in lines:
        try:
            j, k, re, im = line.split(",")
            j, k, value = int(j), int(k), complex(float(re), float(im))
        except ValueError:
            if line.strip():
                raise ValueError(f"{path}: expected j,k,re,im, got {line!r}") from None
            continue
        if not (0 <= j < nu and 0 <= k < nv):
            raise ValueError(f"{path}: sample index ({j}, {k}) lies outside the {nu}x{nv} grid")
        i = j * nv + k
        if seen[i]:
            raise ValueError(f"{path}: sample ({j}, {k}) appears more than once")
        seen[i] = True
        flat[i] = value


def _scatter_rows(rows, samples, seen):
    """Write rows numpy parsed into ``samples``, marking ``seen``; an index outside
    the grid or seen before raises a bare ValueError, for :func:`_scan_rows` to name."""
    nu, nv = samples.shape
    j, k = rows["j"], rows["k"]
    if j.min() < 0 or j.max() >= nu or k.min() < 0 or k.max() >= nv:
        raise ValueError
    index = j * nv + k
    count = np.count_nonzero(seen)
    seen[index] = True
    if np.count_nonzero(seen) - count != len(index):
        raise ValueError
    flat = samples.reshape(-1)
    flat.real[index] = rows["re"]
    flat.imag[index] = rows["im"]


def _numpy_reads(fh, body, samples, seen):
    """Whether numpy read the rest of ``fh`` into ``samples``, ``BLOCK_ROWS * Nv`` rows
    at a time; a refusal clears ``seen`` and seeks back to the data header ``body``."""
    try:
        while len(rows := _load_block(fh, BLOCK_ROWS * samples.shape[1])):
            _scatter_rows(rows, samples, seen)
    except (ValueError, DeprecationWarning):
        fh.seek(body)
        seen[:] = False
        return False
    return True


def load_grid_csv(path) -> ModularWavefunction:
    """Read a CSV grid; every sample must appear exactly once."""
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != "u_min,du,Nu,v_min,dv,Nv":
                raise ValueError(f"{path}: unrecognized grid CSV header: {header!r}")
            grid_line = fh.readline().strip()
            try:
                u_min, du, nu, v_min, dv, nv = grid_line.split(",")
                nu, nv = int(nu), int(nv)
                du, dv, u_min, v_min = float(du), float(dv), float(u_min), float(v_min)
                patch = ZakPatch(du * nu, 2 * math.pi / (dv * nv), u_min=u_min, v_min=v_min)
                grid = ZakGrid(patch, nu, nv)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: bad grid line {grid_line!r}: {exc}") from None
            if fh.readline().strip() != "j,k,re,im":
                raise ValueError(f"{path}: missing j,k,re,im data header")
            body = fh.tell()
            # a row takes at least 8 bytes ("0,0,0,0\n"), the last one 7
            left = os.fstat(fh.fileno()).st_size - body
            if left < 8 * nu * nv - 1:
                raise ValueError(f"{path}: {left} bytes after the headers cannot hold "
                                 f"the {nu * nv} samples of a {nu}x{nv} grid")
            samples = np.empty((nu, nv), dtype=np.complex128)
            seen = np.zeros(nu * nv, dtype=bool)
            if not (_numpy_parses_as_python(path) and _numpy_reads(fh, body, samples, seen)):
                _scan_rows(path, fh, samples, seen)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not an ASCII file: {exc}") from None
    if not seen.all():
        first = int(seen.argmin())
        raise ValueError(
            f"{path}: {seen.size - np.count_nonzero(seen)} of {nu * nv} samples missing, "
            f"the first at ({first // nv}, {first % nv})"
        )
    return ModularWavefunction(grid, _finite_rows(path, _frozen(samples)))


def save_grid_binary(psi: ModularWavefunction, path):
    _save_grid(psi, path, "wb", _binary_header, _binary_rows)


def load_grid_binary(path) -> ModularWavefunction:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(
            f"{path}: {len(raw)} bytes is shorter than the {_HEADER.size}-byte header"
        )
    magic, version, nu, nv, a, b, u_min, v_min = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r} in {path}")
    if version != VERSION:
        raise ValueError(f"unsupported grid format version {version} in {path}")
    expected = _HEADER.size + 16 * nu * nv
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {expected} for a {nu}x{nv} grid")
    try:
        grid = ZakGrid(ZakPatch(a, b, u_min=u_min, v_min=v_min), nu, nv)
    except ValueError as exc:
        raise ValueError(f"{path}: bad grid header: {exc}") from None
    # read-only over the bytes just read, so the state adopts it without a copy
    samples = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(nu, nv)
    return ModularWavefunction(grid, _finite_rows(path, samples))


def save_point_list_csv(state: IdealZakState, path):
    """Point-mass list for ideal states: rows of u,v,re,im."""
    if not isinstance(state, IdealZakState):
        raise ValueError(f"save_point_list_csv takes an ideal state, not a {type(state).__name__}")
    lines = ["u,v,re,im"]
    for (u, v), w in sorted(state.items()):
        lines.append(
            f"{format_float(u)},{format_float(v)},{format_float(w.real)},{format_float(w.imag)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def logical_report_csv(qubit) -> str:
    """Two-line CSV report for a logical qubit."""
    r = qubit.matrix
    x, y, z = qubit.bloch
    # rho00, rho01, rho10, rho11 as (re, im) pairs, then the Bloch vector
    values = [part for entry in r.ravel() for part in (entry.real, entry.imag)]
    values += [x, y, z, qubit.purity, qubit.raw_trace]
    return LOGICAL_REPORT_COLUMNS + "\n" + ",".join(format_float(v) for v in values) + "\n"
