import itertools
import math
import random
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_state
from zakgkp import GKPCode, IdealZakState, LogicalQubit, ModularWavefunction, NonFiniteError, codeword, gridio, to_ssd
from zakgkp.gridio import (
    _HEADER,
    MAGIC,
    VERSION,
    format_float,
    load_grid_binary,
    load_grid_csv,
    logical_report_csv,
    save_grid_binary,
    save_grid_csv,
    save_point_list_csv,
)


def test_csv_roundtrip(code, tmp_path):
    psi = random_state(code.grid(16, 16), 70)
    path = tmp_path / "grid.csv"
    save_grid_csv(psi, path)
    loaded = load_grid_csv(path)
    assert np.array_equal(loaded.samples, psi.samples)
    assert loaded.grid.nu == 16 and loaded.grid.nv == 16
    assert loaded.grid.patch == psi.grid.patch


def test_csv_roundtrip_grid_equals_the_codes_grid(code, tmp_path):
    # the header's b reads back one bit off at 128x20; == is the 1e-12 match every map uses
    psi = random_state(code.grid(128, 20), 74)
    save_grid_csv(psi, tmp_path / "grid.csv")
    loaded = load_grid_csv(tmp_path / "grid.csv")
    assert loaded.grid == code.grid(128, 20)


def test_csv_is_deterministic(code, tmp_path):
    psi = random_state(code.grid(16, 16), 71)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_grid_csv(psi, p1)
    save_grid_csv(psi, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_binary_roundtrip_is_exact(code, tmp_path):
    psi = random_state(code.grid(16, 32), 72)
    path = tmp_path / "grid.bin"
    save_grid_binary(psi, path)
    loaded = load_grid_binary(path)
    assert np.array_equal(loaded.samples, psi.samples)
    p, q = loaded.grid.patch, psi.grid.patch
    assert (p.a, p.b, p.u_min, p.v_min) == (q.a, q.b, q.u_min, q.v_min)  # exact, not the 1e-12 ==
    assert path.stat().st_size == 48 + 16 * 32 * 16


def test_binary_save_writes_the_documented_layout_on_a_stretched_patch(tmp_path):
    # read back with struct and np.frombuffer from the documented layout alone; a gauge
    # component's patch has b = 2 a
    code = GKPCode(alpha=1.3)
    s = to_ssd(random_state(code.grid(32, 48), 61), code)
    patch = code.gauge_patch()
    for ell in (0, 1):
        path = tmp_path / f"g{ell}.bin"
        save_grid_binary(s.gamma[ell], path)
        raw = path.read_bytes()
        magic, _, nu, nv, a, b, u_min, v_min = struct.unpack_from("<4sIIIdddd", raw)
        assert magic == b"ZAKG" and (nu, nv) == (16, 48)
        assert (a, b, u_min, v_min) == (patch.a, patch.b, patch.u_min, patch.v_min)
        assert len(raw) == 48 + 16 * nu * nv
        # (re, im) f64 pairs, row-major in j then k, compared as bit patterns
        pairs = np.frombuffer(raw, dtype="<u8", offset=48).reshape(nu, nv, 2)
        samples = s.gamma[ell].samples
        expected = np.stack([samples.real, samples.imag], axis=-1).astype("<f8").view("<u8")
        assert np.array_equal(pairs, expected)


def test_binary_save_writes_samples_without_a_copy(code, tmp_path):
    psi = random_state(code.grid(256, 256), 73)
    path = tmp_path / "grid.bin"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        save_grid_binary(psi, path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < psi.samples.nbytes / 8
    loaded = load_grid_binary(path)
    assert np.array_equal(loaded.samples, psi.samples)
    # the loaded state adopts the read-only buffer of the bytes it read
    assert not loaded.samples.flags.writeable and not loaded.samples.flags.owndata


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(44))
    with pytest.raises(ValueError):
        load_grid_binary(path)
    assert VERSION == 1


def test_point_list(code, tmp_path):
    path = tmp_path / "points.csv"
    save_point_list_csv(codeword(code, 0), path)
    assert path.read_text() == "u,v,re,im\n0.0,0.0,1.0,0.0\n"
    two = IdealZakState(code.full_patch(), {(0.0, 0.0): 0.5, (code.alpha, 0.0): 0.5j})
    save_point_list_csv(two, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and lines[0] == "u,v,re,im"


def test_logical_report_row():
    qubit = LogicalQubit.from_unnormalized(np.array([[3, 1], [1, 1]], dtype=complex))
    text = logical_report_csv(qubit)
    header, row = text.splitlines()
    assert header.startswith("rho00_re") and header.endswith("raw_trace")
    values = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    assert values["rho00_re"] == 0.75
    assert values["bloch_z"] == 0.5
    assert values["raw_trace"] == 4.0
    assert values["rho01_im"] == 0.0


def test_csv_formats_each_sample_as_format_float(code, tmp_path):
    # the reference: one format_float call per part of each complex sample
    grid = code.grid(68, 6)  # 68 rows: a short last block
    samples = random_state(grid, 74).samples.copy()
    samples[0, :3] = [-0.0, complex(1e-300, -5e-324), complex(3.0, -0.0)]
    # rows 1 and 2 are real, but row 2 holds one imaginary part -0.0
    samples[1:3] = samples[1:3].real
    samples[2, 4] = complex(samples[2, 4].real, -0.0)
    psi = ModularWavefunction(grid, samples)
    path = tmp_path / "grid.csv"
    save_grid_csv(psi, path)
    head = (format_float(grid.patch.u_min), format_float(grid.du), "68",
            format_float(grid.patch.v_min), format_float(grid.dv), "6")
    lines = ["u_min,du,Nu,v_min,dv,Nv", ",".join(head), "j,k,re,im"]
    for j in range(grid.nu):
        for k in range(grid.nv):
            z = samples[j, k]
            lines.append(f"{j},{k},{format_float(z.real)},{format_float(z.imag)}")
    assert path.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_writers_refuse_non_finite_samples_and_leave_no_file(code, tmp_path, fmt):
    grid = code.grid(136, 8)
    samples = random_state(grid, 76).samples.copy()
    samples[70, 3] = complex(np.inf, 0.0)  # in the second row block
    psi = ModularWavefunction(grid, samples)
    save = save_grid_binary if fmt == "bin" else save_grid_csv
    path = tmp_path / f"grid.{fmt}"
    path.write_text("kept")
    with pytest.raises(NonFiniteError, match=rf"grid\.{fmt}: sample \(70, 3\) is not finite"):
        save(psi, path)
    assert path.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"grid.{fmt}"]


def test_writers_check_a_state_adopted_from_a_column_strided_view(code, tmp_path):
    # a read-only view is adopted without a copy; the finiteness check copies each strided block
    base = random_state(code.grid(8, 16), 78).samples.copy()
    base.flags.writeable = False
    psi = ModularWavefunction(code.grid(8, 8), base[:, ::2])
    assert np.shares_memory(psi.samples, base)
    save_grid_binary(psi, tmp_path / "grid.bin")
    assert np.array_equal(load_grid_binary(tmp_path / "grid.bin").samples, base[:, ::2])
    base = base.copy()
    base[5, 6] = complex(0.0, np.nan)
    base.flags.writeable = False
    with pytest.raises(NonFiniteError, match=r"grid\.bin: sample \(5, 3\) is not finite"):
        save_grid_binary(ModularWavefunction(code.grid(8, 8), base[:, ::2]), tmp_path / "grid.bin")


def test_atomic_write_replaces_existing(code, tmp_path):
    psi = random_state(code.grid(16, 16), 73)
    path = tmp_path / "grid.csv"
    path.write_text("garbage")
    save_grid_csv(psi, path)
    assert np.array_equal(load_grid_csv(path).samples, psi.samples)
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".zakgkp-tmp")]
    assert leftovers == []


def csv_lines(code, tmp_path):
    path = tmp_path / "grid.csv"
    save_grid_csv(random_state(code.grid(8, 8), 73), path)
    return path, path.read_text().splitlines()


def test_csv_rejects_missing_rows(code, tmp_path):
    path, lines = csv_lines(code, tmp_path)
    path.write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(ValueError, match=r"grid\.csv: 10 of 64 samples missing"):
        load_grid_csv(path)


@pytest.mark.parametrize("index", ["-1,3", "8,0", "0,8", "2,-5"])
def test_csv_rejects_out_of_range_index(code, tmp_path, index):
    # a negative index would otherwise overwrite a sample from the far end
    path, lines = csv_lines(code, tmp_path)
    lines[3] = index + "," + lines[3].split(",", 2)[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"grid\.csv: sample index .* outside the 8x8 grid"):
        load_grid_csv(path)


def test_csv_rejects_row_without_four_fields(code, tmp_path):
    path, lines = csv_lines(code, tmp_path)
    lines[4] = lines[4].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"grid\.csv: expected j,k,re,im, got '0,1,"):
        load_grid_csv(path)


@pytest.mark.parametrize(
    "line,problem",
    [
        ("0.0,0.1,8", "not enough values"),
        ("0.0,0.1,8,0.0,0.2,8,9", "too many values"),
        ("0.0,abc,8,0.0,0.2,8", "could not convert"),
        ("0.0,0.1,eight,0.0,0.2,8", "invalid literal"),
        ("0.0,0.1,8,0.0,0.0,8", "division by zero"),
        ("0.0,nan,8,0.0,0.2,8", "positive and finite"),
    ],
    ids=["short", "long", "float", "int", "zero-dv", "nan"],
)
def test_csv_rejects_bad_grid_line_naming_the_file(code, tmp_path, line, problem):
    path, lines = csv_lines(code, tmp_path)
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=problem) as info:
        load_grid_csv(path)
    assert str(info.value).startswith(f"{path}: bad grid line {line!r}")


def test_csv_rejects_non_numeric_sample_naming_the_file(code, tmp_path):
    path, lines = csv_lines(code, tmp_path)
    lines[4] = "0,1,0.5,x"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"grid\.csv: expected j,k,re,im, got '0,1,0\.5,x"):
        load_grid_csv(path)


def test_csv_rejects_repeated_sample(code, tmp_path):
    path, lines = csv_lines(code, tmp_path)
    path.write_text("\n".join(lines + [lines[5]]) + "\n")
    with pytest.raises(ValueError, match=r"grid\.csv: sample \(0, 2\) appears more than once"):
        load_grid_csv(path)


@pytest.mark.parametrize("change", [-16, -1, 1, 16])
def test_binary_rejects_wrong_payload_size(code, tmp_path, change):
    path = tmp_path / "grid.bin"
    save_grid_binary(random_state(code.grid(8, 8), 74), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
    message = rf"grid\.bin: {len(raw) + change} bytes, expected {len(raw)} for a 8x8 grid"
    with pytest.raises(ValueError, match=message):
        load_grid_binary(path)


def test_binary_rejects_short_header(tmp_path):
    path = tmp_path / "grid.bin"
    path.write_bytes(b"ZAKG")
    with pytest.raises(ValueError, match=r"grid\.bin: 4 bytes is shorter"):
        load_grid_binary(path)


def test_csv_rejects_non_finite_sample_naming_the_file(code, tmp_path):
    path, lines = csv_lines(code, tmp_path)
    lines[3] = "0,0,nan,inf"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"grid\.csv: sample \(0, 0\) is not finite"):
        load_grid_csv(path)


def test_binary_rejects_non_finite_sample_naming_the_file(code, tmp_path):
    path = tmp_path / "grid.bin"
    save_grid_binary(random_state(code.grid(8, 8), 75), path)
    # the writer refuses a NaN, so plant one in the imaginary part of sample (2, 5)
    raw = bytearray(path.read_bytes())
    raw[48 + 16 * (2 * 8 + 5) + 8:48 + 16 * (2 * 8 + 5) + 16] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"grid\.bin: sample \(2, 5\) is not finite"):
        load_grid_binary(path)


def test_binary_names_a_non_finite_sample_past_the_first_row_block(code, tmp_path):
    path = tmp_path / "grid.bin"
    save_grid_binary(random_state(code.grid(136, 8), 75), path)
    at = 48 + 16 * (70 * 8 + 5)  # the real part of sample (70, 5), in the second row block
    raw = bytearray(path.read_bytes())
    raw[at:at + 8] = struct.pack("<d", -np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"grid\.bin: sample \(70, 5\) is not finite"):
        load_grid_binary(path)


@pytest.mark.parametrize(
    "field,value,problem",
    [
        (2, 6, "nu must be a positive multiple of 4"),
        (3, 7, "nv must be a positive even integer"),
        (4, math.nan, "period a must be positive and finite"),
        (5, -1.0, "period parameter b must be positive and finite"),
    ],
    ids=["nu", "nv", "a", "b"],
)
def test_binary_rejects_bad_header_naming_the_file(tmp_path, field, value, problem):
    header = [MAGIC, VERSION, 8, 8, 1.0, 1.0, 0.0, 0.0]
    header[field] = value
    nu, nv = header[2], header[3]
    path = tmp_path / "grid.bin"
    path.write_bytes(_HEADER.pack(*header) + bytes(16 * nu * nv))
    with pytest.raises(ValueError, match=problem) as info:
        load_grid_binary(path)
    assert str(info.value).startswith(f"{path}: bad grid header")


def special_samples(grid, seed):
    """Seeded samples holding signed zeros, subnormals and +-1e+-300 among random values."""
    samples = random_state(grid, seed).samples.copy()
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-310, 1e300, -1e300, 1e-300, -1e-300]
    rng = np.random.default_rng(seed)
    flat = samples.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, 40), replace=False)
    for n, i in enumerate(picks):
        flat[i] = complex(specials[n % len(specials)], specials[(3 * n + 1) % len(specials)])
    samples[1] = samples[1].real  # a row whose imaginary parts are all +0.0
    return ModularWavefunction(grid, samples)


def bits(samples):
    return samples.view(np.uint64)


@pytest.mark.parametrize("nu,nv", [(8, 8), (68, 16), (260, 20)])
def test_csv_round_trip_is_bitwise_across_row_blocks(code, tmp_path, nu, nv):
    # 68 and 260 rows leave a short last block of 64-row blocks; 8 rows are less than one block
    psi = special_samples(code.grid(nu, nv), nu)
    path = tmp_path / "grid.csv"
    save_grid_csv(psi, path)
    assert np.array_equal(bits(load_grid_csv(path).samples), bits(psi.samples))


def test_csv_loads_shuffled_rows_and_blank_lines(code, tmp_path):
    psi = special_samples(code.grid(68, 4), 3)  # 272 rows, blocks of 256 lines
    path = tmp_path / "grid.csv"
    save_grid_csv(psi, path)
    lines = path.read_text().splitlines()
    head, body = lines[:3], lines[3:]
    random.Random(4).shuffle(body)
    # blank lines inside the first block, at a block start, and a trailing run
    body[10:10] = [""] * 3
    body[256:256] = ["", "  ", "\t"]
    path.write_text("\n".join(head + body + [""] * 300) + "\n")
    assert np.array_equal(bits(load_strict(path).samples), bits(psi.samples))


def load_strict(path):
    """load_grid_csv with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_grid_csv(path)


def test_csv_body_without_rows_is_missing_every_sample_without_a_numpy_warning(code, tmp_path):
    path, lines = csv_lines(code, tmp_path)
    head = "\n".join(lines[:3]) + "\n"
    path.write_text(head)
    with pytest.raises(ValueError, match=r"grid\.csv: 0 bytes after the headers cannot hold the 64 samples"):
        load_strict(path)
    # enough blank lines to pass the size check: numpy would warn on a block without data
    path.write_text(head + "\n" * 600)
    with pytest.raises(ValueError, match=r"grid\.csv: 64 of 64 samples missing, the first at \(0, 0\)"):
        load_strict(path)


def block_lines(code, tmp_path):
    """A 136x4 grid file: its 544 rows are two full 256-line blocks and a short one."""
    path = tmp_path / "grid.csv"
    save_grid_csv(random_state(code.grid(136, 4), 77), path)
    return path, path.read_text().splitlines()


def _with_row(lines, n, row):
    """``lines`` with body row ``n`` replaced by ``row``."""
    return lines[:3 + n] + [row] + lines[4 + n:]


@pytest.mark.parametrize(
    "edit,message",
    [
        # body row 300, sample (75, 0), lies in the second block
        (lambda lines: _with_row(lines, 300, lines[3 + 300] + "#note"), r"expected j,k,re,im, got '75,0,.*#note"),
        (lambda lines: _with_row(lines, 300, "75.0" + lines[3 + 300][2:]), r"expected j,k,re,im, got '75\.0,0,"),
        (lambda lines: _with_row(lines, 300, lines[3 + 300] + ",0.5"), r"expected j,k,re,im, got '75,0,.*,0\.5"),
        # row 255 ends the first block, row 256 opens the second
        (lambda lines: _with_row(lines, 256, lines[3 + 255]), r"sample \(63, 3\) appears more than once"),
        (lambda lines: _with_row(lines, 540, "136," + lines[3 + 540].split(",", 1)[1]), r"sample index \(136, 0\) lies outside the 136x4 grid"),
    ],
    ids=["comment", "float-index", "five-fields", "repeat-across-blocks", "outside-in-last-block"],
)
def test_csv_refuses_malformed_rows_in_any_block_naming_the_file(code, tmp_path, edit, message):
    path, lines = block_lines(code, tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=message) as info:
        load_grid_csv(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "first,later,message",
    [
        ("0,9,0.5,0.5", "x", r"sample index \(0, 9\) lies outside"),
        ("0,1,0.5,0.5", "0,9,0.5,0.5", r"sample \(0, 1\) appears more than once"),
        ("0,9,0.5,0.5", "0,1,0.5,0.5", r"sample index \(0, 9\) lies outside"),
    ],
    ids=["outside-then-unparsable", "repeat-then-outside", "outside-then-repeat"],
)
def test_csv_reports_the_first_bad_line_of_a_block_whatever_its_kind(code, tmp_path, first, later, message):
    path, lines = block_lines(code, tmp_path)
    lines = _with_row(_with_row(lines, 270, first), 280, later)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_grid_csv(path)


@pytest.mark.parametrize(
    "row,loads",
    [
        ("0,0,1_0.5,2", True),   # float() reads the underscore, numpy does not
        ("0,0,1.5\x1c,2", False),  # numpy strips the separator, float() does not
    ],
    ids=["underscore", "separator"],
)
def test_csv_reads_fields_as_int_and_float_do(code, tmp_path, row, loads):
    path, lines = csv_lines(code, tmp_path)
    path.write_text("\n".join([*lines[:3], row, *lines[4:]]) + "\n")
    if loads:
        assert load_grid_csv(path).samples[0, 0] == complex(10.5, 2.0)
    else:
        with pytest.raises(ValueError, match=r"grid\.csv: expected j,k,re,im, got '0,0,1\.5\\x1c,2"):
            load_grid_csv(path)


@pytest.mark.parametrize("start", [0, 256], ids=["first-block", "second-block"])
def test_csv_numpy_refusal_in_either_block_loads_through_the_line_reader(code, tmp_path, monkeypatch, start):
    # numpy refuses the underscore (body row start + 100) and the whitespace-only line
    # (before row start + 200); the line reader reads both, so the file loads bit for bit
    path, lines = block_lines(code, tmp_path)
    expected = load_grid_csv(path).samples
    j, k, re, im = lines[3 + start + 100].split(",")
    cut = next(i for i in range(1, len(re)) if re[i - 1].isdigit() and re[i].isdigit())
    lines = _with_row(lines, start + 100, f"{j},{k},{re[:cut]}_{re[cut:]},{im}")
    lines.insert(3 + start + 200, "  ")
    path.write_text("\n".join(lines) + "\n")
    scans = []
    scan_rows = gridio._scan_rows
    monkeypatch.setattr(gridio, "_scan_rows", lambda *args: scans.append(scan_rows(*args)))
    assert np.array_equal(bits(load_strict(path).samples), bits(expected))
    assert len(scans) == 1


def test_csv_refuses_an_index_numpy_reads_through_a_float_with_a_warning(code, tmp_path, monkeypatch):
    # numpy versions that parse "75.0" for an integer field warn and go on
    loadtxt = np.loadtxt

    def warning_loadtxt(fh, max_rows, **kwargs):
        lines = list(itertools.islice(fh, max_rows))
        if any("." in line.split(",", 1)[0] for line in lines):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            lines = [line.replace(".0,", ",", 1) for line in lines]
        return loadtxt(lines, max_rows=max_rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path, lines = block_lines(code, tmp_path)
    path.write_text("\n".join(_with_row(lines, 300, "75.0" + lines[3 + 300][2:])) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"grid\.csv: expected j,k,re,im, got '75\.0,0,"):
            load_grid_csv(path)
    assert caught == []


# edits of a saved 96x96 grid, whose 9216 body rows are a block of 6144 and one of
# 3072, each with the outcome the line reader gives it (None: the file loads)
DIFFERENTIAL_EDITS = {
    "non-ascii-early": (lambda lines: _with_row(lines, 10, lines[3 + 10] + "\u00e9"), r"not an ASCII file"),
    "non-ascii-late": (lambda lines: _with_row(lines, 9000, lines[3 + 9000] + "\u00e9"), r"not an ASCII file"),
    "repeat-across-blocks": (lambda lines: _with_row(lines, 6144, lines[3 + 6143]),
                             r"sample \(63, 95\) appears more than once"),
    "outside-then-malformed": (lambda lines: _with_row(_with_row(lines, 100, "96" + lines[3 + 100][1:]), 200, "0,1,2"),
                               r"sample index \(96, 4\) lies outside the 96x96 grid"),
    "malformed-then-outside": (lambda lines: _with_row(_with_row(lines, 100, "0,1,2"), 7000, "-1" + lines[3 + 7000][2:]),
                               r"expected j,k,re,im, got '0,1,2\\n'"),
    "underscore": (lambda lines: _with_row(lines, 5000, "52,8,1_0.5,2"), None),
    "separator": (lambda lines: _with_row(lines, 8000, lines[3 + 8000] + "\x1c"), r"expected j,k,re,im, got '83,32,"),
    "extra-row": (lambda lines: lines + [lines[3 + 1234]], r"sample \(12, 82\) appears more than once"),
    "missing-rows": (lambda lines: lines[:-10], r"10 of 9216 samples missing, the first at \(95, 86\)"),
    "blank-lines": (lambda lines: lines[:3] + [""] * 3 + lines[3:6147] + ["", ""] + lines[6147:] + [""] * 5, None),
    "float-index": (lambda lines: _with_row(lines, 7000, "72.0" + lines[3 + 7000][2:]), r"expected j,k,re,im, got '72\.0,"),
}


@pytest.mark.parametrize("edit", DIFFERENTIAL_EDITS)
def test_csv_load_matches_the_line_reader_alone(code, tmp_path, monkeypatch, edit):
    # load_grid_csv gives the bits or the message of _scan_rows over the whole body
    change, message = DIFFERENTIAL_EDITS[edit]
    path = tmp_path / "grid.csv"
    save_grid_csv(random_state(code.grid(96, 96), 79), path)
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n", encoding="utf-8")

    def outcome():
        try:
            return bits(load_strict(path).samples).tobytes()
        except ValueError as exc:
            return str(exc)

    got = outcome()
    monkeypatch.setattr(gridio, "_numpy_parses_as_python", lambda path: False)
    assert outcome() == got
    if message is None:
        assert isinstance(got, bytes)
    else:
        assert re.match(rf"{re.escape(str(path))}: {message}", got)


def test_csv_refuses_a_non_ascii_file_naming_it(code, tmp_path):
    path, lines = csv_lines(code, tmp_path)
    path.write_text("\n".join([*lines[:3], "0,0,1.5,2\u00e9", *lines[4:]]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"grid\.csv: not an ASCII file"):
        load_grid_csv(path)


def test_csv_refuses_a_grid_line_the_file_is_too_short_for(tmp_path):
    # the grid line claims 4000000 x 4000000 samples (256 TB as complex128) for one row;
    # every row takes at least 8 bytes, so the file is refused before any allocation
    path = tmp_path / "grid.csv"
    path.write_text("u_min,du,Nu,v_min,dv,Nv\n0.0,1.0,4000000,0.0,1.0,4000000\nj,k,re,im\n0,0,1.0,0.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"grid\.csv: 12 bytes after the headers cannot hold "
                                             r"the 16000000000000 samples of a 4000000x4000000 grid"):
            load_grid_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_csv_size_check_admits_minimal_rows(tmp_path):
    # "0,0,0,0" rows of 8 bytes, the last one without its newline: 8 * Nu * Nv - 1 bytes
    rows = [f"{j},{k},0,0" for j in range(4) for k in range(2)]
    path = tmp_path / "grid.csv"
    path.write_text("u_min,du,Nu,v_min,dv,Nv\n0.0,1.0,4,0.0,1.0,2\nj,k,re,im\n" + "\n".join(rows))
    assert not load_grid_csv(path).samples.any()


def load_peak(path):
    """The samples ``load_grid_csv`` reads from ``path`` and its traced peak in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_grid_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return loaded.samples, peak


def test_csv_load_peak_is_at_most_three_grids(code, tmp_path):
    psi = random_state(code.grid(256, 256), 78)
    path = tmp_path / "grid.csv"
    save_grid_csv(psi, path)
    samples, peak = load_peak(path)
    assert np.array_equal(samples, psi.samples)
    assert peak <= 3 * psi.samples.nbytes


def test_csv_load_peak_is_at_most_three_grids_when_the_last_block_is_refused(code, tmp_path):
    # numpy refuses a whitespace-only line in the last block, so the line reader reads
    # the whole body again into the same samples and seen mask
    psi = random_state(code.grid(256, 256), 78)
    path = tmp_path / "grid.csv"
    save_grid_csv(psi, path)
    lines = path.read_text().splitlines()
    lines.insert(len(lines) - 10, "  ")
    path.write_text("\n".join(lines) + "\n")
    samples, peak = load_peak(path)
    assert np.array_equal(samples, psi.samples)
    assert peak <= 3 * psi.samples.nbytes
