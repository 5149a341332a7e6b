"""The conservative event-ordered simulation loop.

Each processor owns a clock; the loop always advances the processor with
the minimum clock, pulling events from its workload generator, so requests
reach every contended resource in non-decreasing time order (see
``repro.timing.resource``).  Synchronization is orchestrated here: lock
waiters and barrier parties block (leave the ready heap) and are woken by
the releasing processor with the appropriate memory traffic charged.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.common.errors import ReproError, SimulationError
from repro.common.hotpath import hotpath
from repro.cpu.processor import Processor
from repro.sim.events import (
    EV_BARRIER,
    EV_COMPUTE,
    EV_LOCK,
    EV_READ,
    EV_UNLOCK,
    EV_WRITE,
)
from repro.sim.results import SimulationResult
from repro.obs.sink import TeeSink, TraceSink, tee
from repro.obs.spans import SpanBuilder
from repro.sync.primitives import SimBarrier, SimLock, SyncSpace
from repro.timing.resource import POSTED

if TYPE_CHECKING:  # pragma: no cover
    from repro.coma.machine import ComaMachine, HitPath

#: Stall-accounting levels the machines report (``ComaMachine.read``).
LEVEL_L1 = "l1"
LEVEL_SLC = "slc"
LEVEL_AM = "am"
#: Slice limit while no other processor is ready: later than any clock.
NEVER = 1 << 62


class Simulation:
    """Couples workload threads to a :class:`ComaMachine`."""

    def __init__(
        self,
        machine: "ComaMachine",
        programs: Sequence[Iterator],
        sync: Optional[SyncSpace] = None,
    ) -> None:
        if len(programs) > machine.config.n_processors:
            raise SimulationError(
                f"{len(programs)} threads > {machine.config.n_processors} processors"
            )
        self.machine = machine
        self.sync = sync
        #: Set by the runner; lets attached analyses (the coherence
        #: sanitizer) read the workload's sharing declarations.
        self.workload = None
        #: Event budget: a run past it raises (a runaway workload).
        self.max_events = 200_000_000
        #: Run ``machine.check_consistency()`` every this many events
        #: (0 = never).
        self.check_every = 0
        #: The sampler slot (see :meth:`attach`) and its interval in
        #: events.
        self.profiler = None
        self.profile_every = 5000
        #: The observation slot shared with the machine and its buses:
        #: None keeps the kernel allocation-free (see :meth:`attach`).
        self.obs = None
        #: Every attached trace sink, composed (before span wrapping).
        self._sinks = None
        timing = machine.config.timing
        coalesce = machine.config.write_buffer_coalescing
        self.procs = [
            Processor(pid, timing, prog, wb_coalescing=coalesce)
            for pid, prog in enumerate(programs)
        ]
        #: Sequential consistency stalls the processor on every write.
        self._sc = machine.config.consistency == "sc"
        self._shift = machine.config.line_shift
        self.n_participants = len(self.procs)
        self._heap: list[tuple[int, int]] = []
        self.events_processed = 0

    # ------------------------------------------------------------------
    def attach(self, observer, every: Optional[int] = None) -> None:
        """Attach an observer: the only way into a run.

        * A :class:`~repro.obs.sink.TraceSink` joins the ``obs`` slot
          that the simulation, the machine and every bus share.  Several
          sinks are composed into one :class:`~repro.obs.sink.TeeSink`;
          when any of them ``wants_spans``, the slot holds a
          :class:`~repro.obs.spans.SpanBuilder` (a tee that also builds
          span trees) over them instead.
        * Anything exposing ``sample(machine)`` joins the ``profiler``
          slot (teed the same way); ``every`` sets the sampling interval.
        * Anything else exposing ``attach_to(sim, every=)`` attaches
          what it needs through this method (a
          :class:`~repro.obs.metrics.MetricsRegistry` attaches its
          :class:`~repro.obs.metrics.MetricsSink`).

        Attach before :meth:`run`.
        """
        if isinstance(observer, TraceSink):
            observer.bind(self.machine)
            sinks = self._sinks = tee(self._sinks, observer)
            members = sinks.sinks if isinstance(sinks, TeeSink) else (sinks,)
            obs = sinks
            if any(s.wants_spans for s in members):
                obs = SpanBuilder(*members)
            self.obs = self.machine.obs = obs
            for bus in self.machine.buses:
                bus.obs = obs
        elif hasattr(observer, "sample"):
            if every is not None:
                self.profile_every = every
            self.profiler = tee(self.profiler, observer)
        elif hasattr(observer, "attach_to"):
            observer.attach_to(self, every=every)
        else:
            raise SimulationError(
                f"cannot attach {type(observer).__name__}: it is not a "
                "TraceSink and exposes neither sample(machine) nor "
                "attach_to(sim, every=)"
            )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run every thread to completion and collect the results.

        If the run dies (deadlock, protocol invariant violation, event
        budget) and an observer is attached, its ``on_simulation_error``
        hook fires — the flight recorder uses it to dump the last events
        before the crash, a span builder adds the in-flight span stack —
        and the rendered dump (if any) is attached to the exception as
        ``flight_dump``.
        """
        try:
            self._loop(self.machine.hit_path())
            self._check_finished()
        except (AssertionError, ReproError) as exc:
            if self.obs is not None:
                exc.flight_dump = self.obs.on_simulation_error(exc)
            raise
        return self._collect()

    @hotpath
    def _loop(self, hp: Optional["HitPath"]) -> None:
        """The event loop: pop the processor with the minimum clock and run
        it until it blocks, finishes, or passes the next clock.

        With ``hp`` (see :meth:`ComaMachine.hit_path`) the common cases
        retire here without a call into the machine: L1 read hits, and
        posted writes to a line EXCLUSIVE in the node's AM and present in
        the writer's SLC.  Those events batch the ``reads``,
        ``l1_read_hits`` and ``writes`` counters in locals, credited
        before every checkpoint (budget, consistency check, profiler
        sample) and when the loop exits.  With an observer in the
        ``obs`` slot, each reaches it as one ``hit`` call, made after
        the same state updates the machine's path makes.  Under release
        consistency without coalescing, the write buffer is inline too
        (retire the completed head, wait for a slot when full, push).
        Every other event takes the machine's full ``read``/``write``/
        ``write_stalling`` paths and the synchronization helpers.
        """
        m = self.machine
        heap = self._heap
        push = heapq.heappush
        pop = heapq.heappop
        m_read = m.read
        m_write = m.write
        instr_ns = m.timing.instructions_ns
        shift = self._shift
        wb_inline = not self._sc and not m.config.write_buffer_coalescing
        obs = self.obs
        fused = hp is not None
        if hp is not None:
            l1_sets = hp.l1_sets
            t_l1 = hp.l1_ns
            t_slc = hp.slc_ns
            slc_occ = hp.slc_occ_ns
            excl = hp.exclusive
        slots = self._slots(hp)
        for p in self.procs:
            push(heap, (p.clock, p.pid))
        n_ev = self.events_processed
        stop = self._next_stop(n_ev)
        n_l1 = n_w = 0
        try:
            while heap:
                clock, pid = pop(heap)
                p, program, acct, wb, pending, fast = slots[pid]
                if p.done or p.blocked or p.clock != clock:
                    continue  # stale entry
                if fused:
                    (l1_tags, slc, slc_index, slc_dirty, slc_lru, slc_port,
                     slc_free, am, am_index, am_state, am_lru, shadow) = fast
                limit = heap[0][0] if heap else NEVER
                while True:
                    try:
                        ev = next(program)
                    except StopIteration:
                        p.done = True
                        now, stall = wb.drain(clock)
                        acct.write += stall
                        p.clock = now
                        break
                    n_ev += 1
                    if n_ev >= stop:
                        self._credit(n_l1, n_w)
                        n_l1 = n_w = 0
                        self.events_processed = n_ev
                        self._checkpoint(n_ev)
                        stop = self._next_stop(n_ev)
                    op, arg = ev
                    if op == EV_READ:
                        line = arg >> shift
                        if fused and l1_tags[line % l1_sets] == line:
                            n_l1 += 1
                            m.now = clock
                            if obs is not None:
                                obs.hit(clock, pid, "r", line, LEVEL_L1,
                                        t_l1, arg)
                            if not t_l1:
                                continue
                            acct.busy += t_l1
                            clock += t_l1
                        else:
                            done, level = m_read(pid, arg, clock)
                            dt = done - clock
                            if dt > 0:  # _charge, in line
                                if level == LEVEL_L1:
                                    acct.busy += dt
                                elif level == LEVEL_SLC:
                                    acct.slc += dt
                                elif level == LEVEL_AM:
                                    acct.am += dt
                                else:
                                    acct.remote += dt
                            clock = done
                    elif op == EV_WRITE and wb_inline:
                        line = arg >> shift
                        # WriteBuffer.prune: without coalescing the buffer
                        # keeps no line map, so retiring is a heap pop.
                        while pending and pending[0][0] <= clock:
                            pop(pending)
                        now = clock
                        if len(pending) >= wb.capacity:
                            # WriteBuffer.wait_for_slot: stall until the
                            # oldest write completes, then retire.
                            now = pending[0][0]
                            acct.write += now - clock
                            while pending and pending[0][0] <= now:
                                pop(pending)
                        way = -1
                        if fused and line in slc_index:
                            way = am_index.get(line, -1)
                        if way >= 0 and am_state[way] == excl:
                            # Exactly ComaMachine.write's local-hit path.
                            m.now = now
                            shadow.access(line)
                            tick = am.tick + 1
                            am.tick = tick
                            am_lru[way] = tick
                            s = slc_free[POSTED]
                            if s < now:
                                s = now
                            slc_free[POSTED] = s + slc_occ
                            slc_port.busy_ns += slc_occ
                            slc_port.uses += 1
                            sw = slc_index[line]
                            slc_dirty[sw] = 1
                            tick = slc.tick + 1
                            slc.tick = tick
                            slc_lru[sw] = tick
                            n_w += 1
                            s += t_slc
                            if obs is not None:
                                obs.hit(now, pid, "w", line, LEVEL_SLC,
                                        s - now, arg)
                            push(pending, (s, line))
                        else:
                            push(pending, (m_write(pid, arg, now), line))
                        if now == clock:
                            continue
                        clock = now
                    elif op == EV_COMPUTE:
                        ns = instr_ns(arg)
                        acct.busy += ns
                        clock += ns
                    else:
                        p.clock = clock
                        self._dispatch_slow(p, op, arg)
                        clock = p.clock
                        if p.blocked:
                            break
                        limit = heap[0][0] if heap else NEVER
                    if clock > limit:
                        p.clock = clock
                        push(heap, (clock, pid))
                        break
        finally:
            self._credit(n_l1, n_w)
            self.events_processed = n_ev

    def _slots(self, hp: Optional["HitPath"]) -> list[tuple]:
        """Per processor, what a slice of :meth:`_loop` binds:
        ``(proc, program, acct, write buffer, its pending heap, hit-path
        tuple or None)``."""
        return [
            (p, p.program, p.acct, p.wb, p.wb.pending,
             None if hp is None else hp.procs[p.pid])
            for p in self.procs
        ]

    def _credit(self, l1_hits: int, writes: int) -> None:
        """Add the fused hit path's batched events to the counters."""
        c = self.machine.counters
        c.reads += l1_hits
        c.l1_read_hits += l1_hits
        c.writes += writes

    def _next_stop(self, n: int) -> int:
        """The first event index after ``n`` at which :meth:`_checkpoint`
        has something to do."""
        stop = self.max_events + 1
        if self.check_every:
            stop = min(stop, n - n % self.check_every + self.check_every)
        if self.profiler is not None:
            stop = min(stop, n - n % self.profile_every + self.profile_every)
        return stop

    def _checkpoint(self, n: int) -> None:
        """Event ``n`` is about to run: enforce the budget, run the
        periodic consistency check and take the periodic profile."""
        if n > self.max_events:
            raise SimulationError(
                f"event budget exceeded ({self.max_events}); runaway workload?"
            )
        if self.check_every and n % self.check_every == 0:
            self.machine.check_consistency()
        if self.profiler is not None and n % self.profile_every == 0:
            self.profiler.sample(self.machine)

    def _dispatch_slow(self, p: Processor, op: str, arg: int) -> None:
        """Every event the loop does not retire itself: SC and coalescing
        writes, and synchronization."""
        if op == EV_WRITE:
            m = self.machine
            if self._sc:
                # Sequential consistency: the store must complete before
                # the processor proceeds (the ablation's whole cost).
                done, level = m.write_stalling(p.pid, arg, p.clock)
                self._charge(p, level, done - p.clock)
                p.clock = done
                return
            line = arg >> self._shift
            if p.wb.try_coalesce(line, p.clock):
                m.counters.wb_coalesced += 1
                return
            now, stall = p.wb.wait_for_slot(p.clock)
            p.acct.write += stall
            p.wb.push(m.write(p.pid, arg, now), line)
            p.clock = now
        elif op == EV_LOCK:
            self._acquire(p, self._lock(arg))
        elif op == EV_UNLOCK:
            self._release(p, self._lock(arg))
        elif op == EV_BARRIER:
            self._barrier(p, self._barrier_obj(arg))
        else:
            raise SimulationError(f"unknown event opcode {op!r}")

    @staticmethod
    def _charge(p: Processor, level: str, dt: int) -> None:
        if dt <= 0:
            return
        acct = p.acct
        if level == LEVEL_L1:
            acct.busy += dt
        elif level == LEVEL_SLC:
            acct.slc += dt
        elif level == LEVEL_AM:
            acct.am += dt
        else:
            acct.remote += dt

    def _lock(self, lock_id: int) -> SimLock:
        if self.sync is None:
            raise SimulationError("workload uses locks but no SyncSpace was provided")
        return self.sync.lock(lock_id)

    def _barrier_obj(self, barrier_id: int) -> SimBarrier:
        if self.sync is None:
            raise SimulationError("workload uses barriers but no SyncSpace was provided")
        return self.sync.barrier(barrier_id)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def _acquire(self, p: Processor, lock: SimLock) -> None:
        if lock.holder is None:
            done, level = self.machine.rmw(p.pid, lock.addr, p.clock)
            self._charge(p, level, done - p.clock)
            p.clock = done
            lock.holder = p.pid
            self.machine.counters.lock_acquires += 1
            if self.obs is not None:
                self.obs.syncop(done, p.pid, "acquire", "lock", lock.lock_id)
        else:
            lock.waiters.append(p.pid)
            p.block()

    def _release(self, p: Processor, lock: SimLock) -> None:
        if lock.holder != p.pid:
            raise SimulationError(
                f"processor {p.pid} releasing lock {lock.lock_id} "
                f"held by {lock.holder}"
            )
        # Release consistency: drain the write buffer first.
        now, stall = p.wb.drain(p.clock)
        p.acct.write += stall
        p.clock = now
        handoff = self.machine.write(p.pid, lock.addr, p.clock)
        lock.holder = None
        obs = self.obs
        if obs is not None:
            obs.syncop(p.clock, p.pid, "release", "lock", lock.lock_id)
        if lock.waiters:
            wpid = lock.waiters.popleft()
            # The release invalidated every waiter's cached copy of the
            # lock line; each spins through one refetch (traffic only).
            for other in lock.waiters:
                self.machine.read(other, lock.addr, handoff)
            done, _lvl = self.machine.rmw(wpid, lock.addr, handoff)
            lock.holder = wpid
            self.machine.counters.lock_acquires += 1
            wp = self.procs[wpid]
            wp.unblock(done)
            if obs is not None:
                obs.sync(wp.clock, wpid, "lock", lock.lock_id,
                         wp.clock - wp.block_start)
                obs.syncop(done, wpid, "acquire", "lock", lock.lock_id)
            heapq.heappush(self._heap, (wp.clock, wpid))

    def _barrier(self, p: Processor, b: SimBarrier) -> None:
        # Barrier arrival is a release point.
        now, stall = p.wb.drain(p.clock)
        p.acct.write += stall
        p.clock = now
        done, level = self.machine.rmw(p.pid, b.addr, p.clock)
        self._charge(p, level, done - p.clock)
        p.clock = done
        b.arrived[p.pid] = done
        obs = self.obs
        if obs is not None:
            obs.syncop(done, p.pid, "arrive", "barrier", b.barrier_id)
        if len(b.arrived) < self.n_participants:
            p.block()
            return
        # Last arriver: flip the sense and wake everyone.
        release_t = max(b.arrived.values())
        sense_done = self.machine.write(p.pid, b.addr, release_t)
        self.machine.counters.barrier_episodes += 1
        for pid2 in b.arrived:
            if pid2 == p.pid:
                continue
            q = self.procs[pid2]
            rdone, _lvl = self.machine.read(pid2, b.addr, sense_done)
            q.unblock(rdone)
            if obs is not None:
                obs.sync(q.clock, pid2, "barrier", b.barrier_id,
                         q.clock - q.block_start)
                obs.syncop(rdone, pid2, "depart", "barrier", b.barrier_id)
            heapq.heappush(self._heap, (q.clock, pid2))
        if sense_done > p.clock:
            p.acct.sync += sense_done - p.clock
            p.clock = sense_done
        if obs is not None:
            obs.syncop(p.clock, p.pid, "depart", "barrier", b.barrier_id)
        b.arrived.clear()
        b.generation += 1

    # ------------------------------------------------------------------
    def _check_finished(self) -> None:
        stuck = [p.pid for p in self.procs if not p.done]
        if stuck:
            raise SimulationError(
                f"simulation ended with blocked processors {stuck}; "
                "lock/barrier deadlock in the workload?"
            )

    def _collect(self) -> SimulationResult:
        elapsed = max((p.clock for p in self.procs), default=0)
        if self.obs is not None:
            self.obs.run_end(elapsed, self.events_processed, self.machine)
        return SimulationResult.build(self.machine, self.procs, elapsed)
