"""The entry points and hardware timelines every memory system shares.

:class:`WriteFront` is the one home of ``write``, ``rmw`` and
``write_stalling``.  Each brackets the machine's own ``_write_access``
with the counter bump and the observer's ``begin``/``access`` pair, so
the COMA, hierarchical-COMA, NUMA and UMA machines differ only in what
that access does.  It also holds the two timelines the COMA and NUMA
machines both charge: one memory access at a node
(:meth:`WriteFront._node_access`) and one fetch across a bus from
another node (:meth:`WriteFront._remote_fetch`), which the hierarchical
machine's in-group fetch also charges on its group bus.
"""

from __future__ import annotations

from repro.bus.sharedbus import SharedBus
from repro.common.hotpath import hotpath
from repro.timing.resource import DEMAND, POSTED, Resource


class WriteFront:
    """Write-class entry points over a subclass's ``_write_access``, and
    the shared node-access and remote-fetch timelines.

    A subclass provides ``counters``, the ``obs`` slot, ``_shift`` (log2
    of the line size), the interned timing ints ``_t_nc``,
    ``_t_nc_busy``, ``_t_dram_lat`` and ``_t_dram_busy``, the ``_port``
    every hold of the current access takes (``DEMAND`` at rest) and
    ``_write_access(proc, addr, now) -> (completion_time, level)``.
    """

    def write(self, proc: int, addr: int, now: int) -> int:
        """One write drained from ``proc``'s write buffer at ``now``.

        Returns the completion time; under release consistency the
        processor does not wait for it unless the buffer is full or a
        release is pending.
        """
        self.counters.writes += 1
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, "w", addr >> self._shift, addr)
        # Every hold of a posted write takes the posted-write port, so
        # demand accesses never queue behind it (read bypass).
        self._port = POSTED
        try:
            done, level = self._write_access(proc, addr, now)
        finally:
            self._port = DEMAND
        if obs is not None:
            obs.access(now, proc, "w", addr >> self._shift, level,
                       done - now, addr)
        return done

    def rmw(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """Atomic read-modify-write (synchronization accesses).

        The processor stalls for it (acquire semantics); returns
        ``(completion_time, level)`` for stall accounting.
        """
        self.counters.atomics += 1
        return self._stalling(proc, addr, now, "rmw")

    def write_stalling(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """A write the processor waits for (sequential-consistency mode)."""
        self.counters.writes += 1
        return self._stalling(proc, addr, now, "w")

    def _stalling(self, proc: int, addr: int, now: int,
                  op: str) -> tuple[int, str]:
        """A write-class access the processor waits for, observed."""
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, op, addr >> self._shift, addr)
        done, level = self._write_access(proc, addr, now)
        if obs is not None:
            obs.access(now, proc, op, addr >> self._shift, level,
                       done - now, addr)
        return done, level

    # -- the shared hardware timelines -----------------------------------
    #
    # Both open the Resource.acquire / SharedBus.phase next-free math in
    # line on the current port; the timing and the busy/uses totals are
    # identical to the chain of calls each step names.

    @hotpath
    def _node_access(self, nc: Resource, dram: Resource, t0: int) -> int:
        """Charge one memory access at a node: controller in, DRAM read,
        controller return; returns when the data leaves the controller.
        Contention-free latency 148 ns."""
        port = self._port
        nc_busy = self._t_nc_busy
        nc_ns = self._t_nc
        dram_busy = self._t_dram_busy
        nf = nc.free
        s = nf[port]
        if s < t0:
            s = t0
        nf[port] = s + nc_busy
        t = s + nc_ns
        df = dram.free
        s = df[port]
        if s < t:
            s = t
        df[port] = s + dram_busy
        t = s + self._t_dram_lat
        s = nf[port]
        if s < t:
            s = t
        nf[port] = s + nc_busy
        nc.busy_ns += 2 * nc_busy
        nc.uses += 2
        dram.busy_ns += dram_busy
        dram.uses += 1
        return s + nc_ns

    @hotpath
    def _remote_fetch(self, lnc: Resource, onc: Resource, odram: Resource,
                      now: int, bus: SharedBus, req: str, reply: str) -> int:
        """Charge a fetch from another node up to data arrival at the
        local controller ``lnc``: local NC out, a request phase on
        ``bus``, owner NC ``onc`` and DRAM ``odram``, a reply phase, local
        NC return.  ``req`` and ``reply`` name the two bus phases' spans.
        The caller adds the local fill and the fixed overhead.

        Each step reads and writes its own resource's slot, so the
        timeline stays exact when ``lnc is onc``.
        """
        port = self._port
        nc_busy = self._t_nc_busy
        nc_ns = self._t_nc
        dram_busy = self._t_dram_busy
        br = bus.resource
        bus_busy = bus._busy_ns
        bus_phase = bus._phase_ns
        lf = lnc.free
        of = onc.free
        df = odram.free
        bf = br.free
        # local NC out
        s = lf[port]
        if s < now:
            s = now
        lf[port] = s + nc_busy
        t_out = s + nc_ns
        # bus request phase
        b_req = bf[port]
        if b_req < t_out:
            b_req = t_out
        bf[port] = b_req + bus_busy
        t = b_req + bus_phase
        # owner NC in
        s = of[port]
        if s < t:
            s = t
        of[port] = s + nc_busy
        t = s + nc_ns
        # owner DRAM
        s = df[port]
        if s < t:
            s = t
        df[port] = s + dram_busy
        t_am = s + self._t_dram_lat
        # bus reply phase
        b_rep = bf[port]
        if b_rep < t_am:
            b_rep = t_am
        bf[port] = b_rep + bus_busy
        t = b_rep + bus_phase
        # local NC return
        s = lf[port]
        if s < t:
            s = t
        lf[port] = s + nc_busy
        lnc.busy_ns += 2 * nc_busy
        lnc.uses += 2
        onc.busy_ns += nc_busy
        onc.uses += 1
        odram.busy_ns += dram_busy
        odram.uses += 1
        br.busy_ns += 2 * bus_busy
        br.uses += 2
        obs = self.obs
        if obs is not None:
            name = bus.name
            obs.phase("nc_out", t_out)
            obs.bus_phase(name, b_req - t_out, bus_busy)
            obs.phase("bus_arb", b_req)
            obs.phase(req, b_req + bus_phase)
            obs.phase("remote_am", t_am)
            obs.bus_phase(name, b_rep - t_am, bus_busy)
            obs.phase("bus_arb", b_rep)
            obs.phase(reply, t)
            obs.phase("nc_ret", s + nc_ns)
        return s + nc_ns
