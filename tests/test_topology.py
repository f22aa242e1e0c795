"""Declarative topology builder, MachineSpec and the ``topo`` CLI.

Covers the generator catalog (ptp/mesh/torus/fattree), per-link
overrides and buffer diagnostics, the frozen :class:`MachineSpec`
construction entry point, end-to-end runs on non-default fabrics with token
invariants checked, exp-engine determinism across worker counts, and the
``python -m repro topo`` subcommand's exit codes and canonical JSON.
"""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.exp.runner import Runner, run_cell
from repro.exp.spec import Cell
from repro.interconnect.network import BufferedLink, Network
from repro.interconnect.topology import (
    GENERATORS, TOPOLOGY_SCHEMA, Topology, grid_dims,
)
from repro.interconnect.traffic import TrafficMeter
from repro.sim.kernel import Simulator
from repro.system.spec import MachineSpec


def mesh_params(chips=8, procs=2, **kwargs):
    return SystemParams(num_chips=chips, procs_per_chip=procs,
                        topology=Topology.mesh(**kwargs))


# ---------------------------------------------------------------------------
# The spec and the generators.
# ---------------------------------------------------------------------------


def test_default_topology_is_the_paper_fabric():
    params = SystemParams()
    assert params.topology == Topology()


def test_ptp_graph_shape_is_pinned():
    # The compiled graph is the only statement of the Table-3 routing:
    # pin its shape on the paper's 4x4 machine exactly.
    params = SystemParams()
    stats = params.topology.build(params).describe()["stats"]
    assert stats == {
        "endpoints": 60,
        "vertices": 69,
        "links": 64,
        "diameter_hops": 3,
        "mean_hops": 2.4077777777777776,
    }


def test_unknown_generator_rejected():
    with pytest.raises(ConfigError):
        Topology.named("hypercube")


def test_params_reject_non_topology_values():
    with pytest.raises(ConfigError):
        SystemParams(topology="mesh")


def test_topology_is_hashable_and_canonical():
    # kwargs order must not matter: the spec freezes to sorted tuples.
    a = Topology.mesh(rows=2, cols=4)
    b = Topology.mesh(cols=4, rows=2)
    assert a == b
    assert hash(a) == hash(b)


def test_topology_changes_the_cell_cache_key():
    base = Cell(protocol="TokenCMP-dst1", workload="oltp",
                workload_kwargs={"refs_per_proc": 5})
    meshed = Cell(protocol="TokenCMP-dst1", workload="oltp",
                  workload_kwargs={"refs_per_proc": 5},
                  params=SystemParams(topology=Topology.mesh()))
    assert base.key_material() != meshed.key_material()
    # ... and the material stays JSON-serializable for the cache.
    json.dumps(meshed.key_material(), sort_keys=True)


def test_grid_dims_near_square_and_explicit():
    assert grid_dims(8) == (2, 4)
    assert grid_dims(16) == (4, 4)
    assert grid_dims(7) == (1, 7)
    assert grid_dims(12, rows=3) == (3, 4)
    assert grid_dims(12, cols=6) == (2, 6)
    with pytest.raises(ConfigError):
        grid_dims(8, rows=3)


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_every_generator_compiles_connected_on_eight_chips(gen):
    params = SystemParams(num_chips=8, procs_per_chip=2,
                          topology=Topology.named(gen))
    stats = params.topology.build(params).validate()
    # 8 chips x (4 L1 + 4 L2 + iface + mem + arb) endpoints.
    assert stats["endpoints"] == 8 * 11
    assert stats["diameter_hops"] >= 1


def test_fattree_trunks_get_fatter_toward_the_root():
    params = SystemParams(num_chips=16, procs_per_chip=1,
                          topology=Topology.fattree(arity=4))
    graph = params.topology.build(params)
    leaf_up = graph.links["fat:up:0"]              # chip -> leaf switch
    trunk_up = graph.links["fat:up:sw:0:0"]        # leaf -> root level
    assert trunk_up.bytes_per_ns > leaf_up.bytes_per_ns


def test_override_patterns_apply_at_compile_time():
    topo = Topology.mesh().with_override("inter:*", latency_ns=5.0,
                                         bytes_per_ns=32.0)
    params = SystemParams(num_chips=4, procs_per_chip=2, topology=topo)
    graph = topo.build(params)
    for name, spec in graph.links.items():
        if name.startswith("inter:"):
            assert spec.latency_ps == 5000
            assert spec.bytes_per_ns == 32.0
        else:  # overrides must not leak onto other links
            assert spec.bytes_per_ns in (64.0,)


def test_unknown_override_field_rejected():
    topo = Topology.mesh().with_override("inter:*", color="red")
    params = SystemParams(num_chips=4, procs_per_chip=2, topology=topo)
    with pytest.raises(ConfigError):
        topo.build(params)


# ---------------------------------------------------------------------------
# Buffer diagnostics.
# ---------------------------------------------------------------------------


def test_buffer_override_counts_overflows_without_changing_timing():
    def run(topo):
        params = SystemParams(num_chips=4, procs_per_chip=2, topology=topo)
        cell = Cell(protocol="TokenCMP-dst1", workload="oltp",
                    workload_kwargs={"refs_per_proc": 20}, seed=2,
                    params=params)
        return run_cell(cell)

    plain = run(Topology.mesh())
    tiny = run(Topology.mesh().with_override("inter:*", buffer_bytes=64))
    # Diagnostic only: runtime, traffic and counters are identical.
    assert plain.runtime_ps == tiny.runtime_ps
    assert plain.traffic == tiny.traffic
    net = tiny.raw.machine.net
    report = net.buffer_report()
    assert report  # every inter link got a capacity
    assert all(name.startswith("inter:") for name in report)
    assert sum(r["overflow_events"] for r in report.values()) > 0
    assert not plain.raw.machine.net.buffer_report()


def test_buffered_link_tracks_peak_backlog():
    params = SystemParams()
    link = BufferedLink("x", list(params.topology.build(params).links
                                  .values())[0].scope, 1000, 8.0, 100)
    t = link.traverse(0, 80)
    assert link.peak_backlog_bytes == 80
    assert link.overflow_events == 0
    link.traverse(0, 80)  # second message queues behind the first
    assert link.peak_backlog_bytes > 100
    assert link.overflow_events == 1
    # Timing matches an unbuffered link exactly.
    assert t == 80 * 1000 // 8 + 1000


# ---------------------------------------------------------------------------
# MachineSpec.
# ---------------------------------------------------------------------------


def test_machine_spec_resolves_protocol_names():
    spec = MachineSpec(protocol="DirectoryCMP")
    assert spec.protocol_name == "DirectoryCMP"
    assert spec.topology is spec.params.topology


def test_cell_machine_property_carries_everything():
    cell = Cell(protocol="TokenCMP-dst1", workload="oltp",
                workload_kwargs={"refs_per_proc": 5}, seed=9,
                params=SystemParams(num_chips=2, procs_per_chip=2,
                                    topology=Topology.torus()))
    spec = cell.machine
    assert isinstance(spec, MachineSpec)
    assert spec.seed == 9
    assert spec.protocol is cell.protocol
    assert spec.topology.generator == "torus"
    assert spec.faults is None and spec.crash is None


# ---------------------------------------------------------------------------
# End-to-end on non-default fabrics.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen", ["mesh", "torus", "fattree"])
def test_token_protocol_runs_coherently_on_fabric(gen):
    params = SystemParams(num_chips=4, procs_per_chip=2,
                          topology=Topology.named(gen))
    cell = Cell(protocol="TokenCMP-dst1", workload="oltp",
                workload_kwargs={"refs_per_proc": 20}, seed=4,
                params=params, check_invariants=True)
    result = run_cell(cell)  # check_invariants re-verifies at quiescence
    assert result.get("l1.misses") > 0
    assert result.runtime_ps > 0


def test_mesh_sweep_is_identical_across_worker_counts():
    cells = [
        Cell(protocol=proto, workload="oltp",
             workload_kwargs={"refs_per_proc": 15}, seed=1,
             params=mesh_params(chips=8, procs=2))
        for proto in ("TokenCMP-dst1", "TokenCMP-dst1-mcast", "DirectoryCMP")
    ]
    serial = Runner(jobs=1, cache=False).run_cells(cells, name="mesh-det")
    fanned = Runner(jobs=2, cache=False).run_cells(cells, name="mesh-det")
    assert [r.to_json() for r in serial] == [r.to_json() for r in fanned]


def test_sixteen_chip_mesh_cell_runs_through_the_engine():
    params = SystemParams(num_chips=16, procs_per_chip=2,
                          tokens_per_block=128, topology=Topology.mesh())
    cell = Cell(protocol="TokenCMP-dst1-mcast", workload="oltp",
                workload_kwargs={"refs_per_proc": 10}, seed=1, params=params)
    a = run_cell(cell)
    b = run_cell(cell)
    assert a.to_json() == b.to_json()
    assert a.runtime_ps > 0


# ---------------------------------------------------------------------------
# The ``topo`` CLI subcommand.
# ---------------------------------------------------------------------------


def test_topo_lists_generators(capsys):
    assert repro_main(["topo"]) == 0
    out = capsys.readouterr().out
    for name in GENERATORS:
        assert name in out


def test_topo_validates_and_prints_link_table(capsys):
    assert repro_main(["topo", "mesh", "--chips", "8", "--procs", "2"]) == 0
    out = capsys.readouterr().out
    assert "generator  mesh" in out
    assert "inter:0>1" in out
    assert "diameter" in out


def test_topo_json_is_the_canonical_document(capsys):
    assert repro_main(["topo", "torus", "--chips", "9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == TOPOLOGY_SCHEMA
    assert doc["generator"] == "torus"
    assert doc["num_chips"] == 9
    names = [link["name"] for link in doc["links"]]
    assert names == sorted(names)
    # 3x3 torus: wrap links exist in both dimensions.
    assert "inter:2>0" in names
    assert "inter:6>0" in names


def test_topo_unknown_generator_exits_2(capsys):
    assert repro_main(["topo", "hypercube"]) == 2
    assert "unknown topology generator" in capsys.readouterr().err


def test_run_cli_accepts_topology_flag(capsys):
    code = repro_main([
        "run", "TokenCMP-dst1", "oltp", "--chips", "8", "--procs", "2",
        "--topology", "mesh", "--ops", "2", "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["counters"]["l1.misses"] > 0
