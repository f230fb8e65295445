import math
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from zakgkp import IdealZakState, LogicalQubit, ModularWavefunction, NonFiniteError, codeword
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
    assert loaded.grid.patch.approx_equal(psi.grid.patch)


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
    assert loaded.grid.patch == psi.grid.patch
    assert path.stat().st_size == 48 + 16 * 32 * 16


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
