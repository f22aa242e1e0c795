"""What a simulation process carries besides the simulation.

A grid cell runs in its own process, so every module a simulation imports
and every record a machine keeps is paid once per cell.  These checks
keep three things out: OpenSSL (``hashlib``), which the repository's one
SHA-256 (:func:`repro.common.sha256`, CPython's built-in module) replaces;
the ``multiprocessing`` package, which ``Runner.run`` imports only when it
starts a pool (``test_parallel_matches_serial_bit_identical`` in
``tests/test_exp_engine.py`` runs that path); and per-destination pair
tuples in the broadcast fan-out plans, which are stored as columns.

The hash pins below were read before the provider changed: a provider
whose digests differ would silently reseed every workload and invalidate
every result cache, and fails here instead.
"""

import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc

import pytest

from repro.common import sha256
from repro.common.rng import substream
from repro.exp.cache import cell_key
from repro.exp.library import fig6_smoke_cell, mesh_params
from repro.exp.runner import run_cell
from repro.exp.spec import Cell

_SIMULATION_PROCESS = """
import sys
import repro.exp.library
import repro.verification.dir_model
import repro.verification.token_model
from repro.common.params import SystemParams
from repro.exp.cache import cell_key
from repro.exp.runner import run_cell
from repro.exp.spec import Cell
cell = Cell(protocol="TokenCMP-dst1", workload="oltp",
            workload_kwargs=(("refs_per_proc", 20),), seed=3,
            params=SystemParams(num_chips=2, procs_per_chip=2,
                                tokens_per_block=16))
assert cell_key(cell)
assert run_cell(cell).runtime_ps > 0
print(" ".join(sorted(m for m in ("hashlib", "_hashlib", "multiprocessing")
                      if m in sys.modules)))
"""


def test_simulation_process_imports_neither_openssl_nor_multiprocessing():
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _SIMULATION_PROCESS],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("data", [
    b"",
    b"1/commercial/oltp/0",
    "7/prédicteur/トークン/ß".encode("utf-8"),
    b"x" * 63,
    b"x" * 64,
    bytes(range(256)) * 3,
])
def test_sha256_matches_hashlib(data):
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_rng_substream_draws_are_pinned():
    rng = substream(1, "commercial", "oltp", 0)
    assert [rng.random() for _ in range(3)] == [
        0.8282663770216034, 0.8761033043731611, 0.10047279302331713,
    ]


def test_fig6_smoke_cache_key_is_pinned():
    assert cell_key(fig6_smoke_cell()) == (
        "be6960e6ea194965898144f16f05fe3b843232bea820852b4935ce16e7a2b07f"
    )


def test_fanout_plans_hold_no_per_destination_pairs():
    # After an oltp run on the 8-CMP mesh, ``network.py`` still holds its
    # link records, the routes joined for point-to-point sends and the
    # fan-out plans.  Plans with one ``(endpoint, route)`` tuple per
    # destination held 0.48 MB in all; the endpoint and route columns
    # hold 0.33 MB.
    cell = Cell(protocol="TokenCMP-dst1", workload="oltp",
                workload_kwargs=(("refs_per_proc", 40),), seed=1,
                params=mesh_params(8, 2))
    gc.collect()
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        result = run_cell(cell)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        if not outer:
            tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/interconnect/network.py")]
    ).statistics("filename"))
    assert result.raw.machine.net._fanout_plans
    assert held <= 400_000, f"network.py holds {held / 1e6:.2f} MB"
