"""What a machine binds from the protocol table and its config at build.

``ComaMachine.__init__`` reads the few protocol resolutions its access
paths need straight from :mod:`repro.coma.protocol`, the timing constants
from ``config.timing`` and the victim policy from the config, as plain
ints.  These tests pin those bindings on the flat and the hierarchical
machine; ``tests/test_protocol_table.py::TestMachineMatchesTable`` and
the ``crosscheck`` C001/C002 rules check the behaviour they drive.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.bounds import enumerate_paths
from repro.coma.protocol import TRANSITIONS, resolved_next
from repro.coma.states import EXCLUSIVE, INVALID, OWNER, SHARED
from repro.common.config import MachineConfig
from repro.common.errors import ProtocolError
from repro.experiments.runner import RunSpec, build_simulation
from repro.mem.soa import VICTIM_LRU, VICTIM_NONINCLUSIVE, VICTIM_SHARED_FIRST


def _machines(**config):
    """A built coma and hcoma machine under one config override."""
    out = []
    for machine in ("coma", "hcoma"):
        spec = RunSpec(workload="synth_migratory", machine=machine,
                       scale=0.1, **config)
        out.append(build_simulation(spec).machine)
    return out


class TestCompileProtocol:
    def test_inject_pair_is_sharer_dependent(self):
        for m in _machines():
            assert m._inj_invalid == (EXCLUSIVE, OWNER)
            assert m._inj_shared == (EXCLUSIVE, OWNER)

    def test_unknown_action_rejected(self):
        bad = [dataclasses.replace(TRANSITIONS[0], bus_action="flush")]
        bad += list(TRANSITIONS[1:])
        with pytest.raises(ProtocolError, match="unknown bus action 'flush'"):
            enumerate_paths("coma", bad)

    def test_malformed_table_rejected_at_compile_time(self):
        partial = [t for t in TRANSITIONS if t.event != "inject"]
        with pytest.raises(ProtocolError, match="not total"):
            enumerate_paths("coma", partial)


class TestDispatchBuild:
    def test_victim_policy_interning(self):
        for config, want in (({}, VICTIM_SHARED_FIRST),
                             ({"inclusive": False}, VICTIM_NONINCLUSIVE),
                             ({"am_victim_policy": "lru"}, VICTIM_LRU)):
            for m in _machines(**config):
                assert m._victim_mode == want, (type(m).__name__, config)
                assert m.repl._victim_mode == want

    def test_timing_flattening(self):
        tm = MachineConfig().timing
        for m in _machines():
            assert (m._t_l1, m._t_slc, m._t_slc_occ) == (
                tm.l1_hit_ns, tm.slc_hit_ns, tm.slc_occupancy_ns)
            assert (m._t_nc, m._t_nc_busy) == (tm.nc_ns, tm.nc_busy_ns)
            assert (m._t_dram_lat, m._t_dram_busy) == (
                tm.dram_latency_ns, tm.dram_busy_ns)
            assert m._t_remote == tm.remote_overhead_ns

    def test_dispatch_bindings_match_table(self):
        for m in _machines():
            assert m._st_degrade == resolved_next(
                EXCLUSIVE, "remote_read", False) == OWNER
            for state, pair in ((INVALID, m._inj_invalid),
                                (SHARED, m._inj_shared)):
                assert pair == tuple(resolved_next(state, "inject", s)
                                     for s in (False, True))


class TestBuildImports:
    def test_simulation_never_imports_analysis(self):
        """Building and running a simulation loads no ``repro.analysis``
        module: the analysis passes read the machine, never the reverse."""
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from repro.experiments.runner import RunSpec, build_simulation\n"
            "build_simulation(RunSpec(workload='fft', scale=0.1)).run()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['repro', 'analysis']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
