"""Check that two source trees give byte-identical CLI and library results.

    python tools/bytecheck.py OLD_SRC NEW_SRC

Runs a fixed set of ``zakgkp`` command lines (``zakplot``, ``shift-array``,
``logical`` and ``sweep``, on grid and ideal states, in csv and bin) and
``libruns.py``, which writes the bits of in-process results the CLI never
reaches (a grid state's logical maps, residuals, norm and ``pp_bridge`` round
trip, and what ``load_grid_csv`` reads from edited CSV files).  Each runs once
with each ``src`` tree first on ``PYTHONPATH``, each tree in its own temporary
directory.  Every output file and manifest is compared byte for byte, and so
is each exit code, which must also be the one listed, so that a tree that
cannot run fails rather than matching another that cannot; stderr is not
compared.  Exits 1 on any difference, 0 when everything is identical.  With
the same tree on both sides it checks that reruns are deterministic.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

# (expected exit code, command line)
RUNS = [
    (0, "zakplot --state gkp-approx:0.3:0 --grid 64x64 --format csv --out zakplot.csv"),
    (0, "zakplot --state vacuum --grid 64x64 --format bin --out zakplot.bin"),
    (0, "zakplot --state gkp1 --out zakplot_ideal.csv"),
    (0, "shift-array --state gkp0 --out shift_ideal"),
    (0, "shift-array --state gkp-approx:0.3:0 --grid 96x96 --format csv --out shift_csv"),
    (0, "shift-array --state gkp-approx:0.3:0 --grid 96x96 --format bin --out shift_bin"),
    (0, "logical --state gkp-approx:0.2:0 --grid 128x128 --method trace --out trace.csv"),
    (0, "logical --state gkp-approx:0.2:1 --grid 128x128 --method ec-trace --out ec_trace.csv"),
    (0, "sweep --state gkp-approx:0.5:0 --grid 128x128 --deltas 0.5,0.3,0.1 --out sweep.csv"),
    (0, "logical --state gkp1 --method ec-trace --out ideal_ec_trace.csv"),
    (0, "logical --state gkp0 --grid 68x16 --out ideal_68x16.csv"),  # an ideal state ignores the grid
    (0, "logical --state vacuum --grid 128x128 --method trace --out vacuum_trace.csv"),  # complex cross entry
    (2, "logical --grid 68x16 --out refused.csv"),  # halves that are not grids: no file
    # the library's rules, each a refusal with no file
    (2, "logical --grid 10x10 --out refused_grid.csv"),  # Nu not a multiple of 4
    (2, "logical --alpha -1 --out refused_alpha.csv"),
    (2, "logical --alpha 1e308 --out refused_patch.csv"),  # the period 2*alpha overflows
    (2, "logical --state gkp-approx:0.3 --out refused_spec.csv"),
    (2, "sweep --deltas 0.3,-1 --out refused_deltas.csv"),
    (2, "shift-array --state gkp-approx:0.3:0 --grid 64x64 --out refused_steps"),  # dx not a grid step
]

#: the CLI runs, then the library runs, as (expected exit code, label, interpreter arguments)
COMMANDS = [(code, args, ["-m", "zakgkp.cli", *args.split()]) for code, args in RUNS] + [
    (0, "libruns.py library.txt", [os.path.join(os.path.dirname(os.path.abspath(__file__)), "libruns.py"), "library.txt"]),
]


def run_all(src, workdir):
    """Exit codes of COMMANDS under ``src`` and the bytes of every file they wrote."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    codes = [
        subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        for _, _, argv in COMMANDS
    ]
    files = {}
    for folder, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, workdir)] = fh.read()
    return codes, files


def main(argv):
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(src, "zakgkp", "cli.py")) for src in argv):
        print("usage: python tools/bytecheck.py OLD_SRC NEW_SRC (each a tree holding zakgkp/)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for side, src in zip(("old", "new"), argv):
            os.mkdir(os.path.join(tmp, side))
            results.append(run_all(src, os.path.join(tmp, side)))
    (old_codes, old_files), (new_codes, new_files) = results
    differ = [f"exit codes {a}, {b} (expected {code}): {args}"
              for (code, args, _), a, b in zip(COMMANDS, old_codes, new_codes) if not code == a == b]
    differ += [f"{name}: {'differs' if name in old_files and name in new_files else 'only one side'}"
               for name in sorted(old_files.keys() | new_files.keys())
               if old_files.get(name) != new_files.get(name)]
    for line in differ:
        print(line)
    print(f"{len(COMMANDS)} runs, {len(old_files | new_files)} files: "
          + (f"{len(differ)} differences" if differ else "byte-identical, exit codes as expected"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
