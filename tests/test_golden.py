"""Golden output digests: the shipped commands and configs, and runs of the
configs kept in ``tests/configs``, write the same bytes as when
``tests/golden_digests.json`` was written.

Each command runs through ``cli.main`` into a fresh directory.  A command
that writes files is digested with the benchmark's ``digest_files``, so this
test and ``bench/`` agree on what "the same output" means; ``verify`` writes
nothing and is digested by its printed lines.

A change that moves output bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each moved digest in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from muonlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))
from workloads import digest_files  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_digests.json")
CONFIGS = ROOT / "demos" / "configs"
TEST_CONFIGS = ROOT / "tests" / "configs"

# name -> (argv before --out, writes files)
COMMANDS = {
    "run_mf_sweep_small": (["run", "--config", str(CONFIGS / "mf_sweep_small.cfg")], True),
    "run_icl_sweep_small": (["run", "--config", str(CONFIGS / "icl_sweep_small.cfg")], True),
    # the only golden run at d = 100
    "run_mf_sweep_full": (["run", "--config", str(CONFIGS / "mf_sweep_full.cfg")], True),
    # a frozen tail: the iterate stops moving long before T
    "run_mf_underflow": (["run", "--config", str(TEST_CONFIGS / "mf_underflow.cfg")], True),
    # the only golden run whose spectral errors take the dense path (k = d)
    "run_mf_dense": (["run", "--config", str(TEST_CONFIGS / "mf_dense.cfg")], True),
    # the only per-iteration prefactor draws, on the only exponential icl_sweep
    "run_icl_exponential": (["run", "--config", str(TEST_CONFIGS / "icl_exponential.cfg")], True),
    **{
        f"lower_bound_{family}": (["lower-bound", "--family", family, "--kappa", "21,41,101"], True)
        for family in ("quadratic", "mf", "icl")
    },
    "precond_viz": (["precond-viz"], True),
    "verify_all": (["verify", "--suite", "all"], False),
}


def blas_kernels() -> str:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU when it
    loaded (``OPENBLAS_CORETYPE`` forces one), as the library names it, or
    "unknown" without the bundled library."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def versions() -> dict[str, str]:
    """The numeric stack the digests were taken on: other BLAS kernels round
    products differently, and other SIMD targets round numpy's log1p, log10
    and exp differently, so the same numpy can write other bytes."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_kernels": blas_kernels(),
        # the targets numpy dispatches to on this CPU, less NPY_DISABLE_CPU_FEATURES
        "simd_targets": " ".join(config["SIMD Extensions"]["found"]),
    }


def command_digest(name: str, workdir: Path) -> str:
    """SHA-256 of one command's output directory (or printed lines)."""
    argv, writes_files = COMMANDS[name]
    out_dir = workdir / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + (["--out", str(out_dir)] if writes_files else []))
    assert code == 0, f"{name} exited {code}"
    if writes_files:
        return digest_files(str(out_dir))
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


def test_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["versions"] == versions(), (
        f"digests were taken on {golden['versions']}, this stack is {versions()}; "
        "on other blas_kernels set OPENBLAS_CORETYPE to the digests' set before numpy loads, on more "
        "simd_targets list the extra ones in NPY_DISABLE_CPU_FEATURES, else rerun the commands and "
        "rewrite tests/golden_digests.json if the bytes are expected to move"
    )
    assert sorted(golden["digests"]) == sorted(COMMANDS)
    moved = [name for name in COMMANDS if command_digest(name, tmp_path) != golden["digests"][name]]
    assert not moved, f"output bytes moved for: {', '.join(moved)}"


def write_digests() -> None:
    """Rewrite ``golden_digests.json`` from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: command_digest(name, Path(tmp)) for name in COMMANDS}
    GOLDEN.write_text(json.dumps({"versions": versions(), "digests": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    write_digests()
