"""Data-management strategy interface and factory.

A strategy decides, for every read and write of a global variable, which
messages flow where (and therefore what congestion arises), and it provides
the lock service for its variables.  The two families from the paper:

* the **access tree strategy** (:mod:`repro.core.access_tree`) in all its
  arity/embedding variants, and
* the **fixed home strategy** (:mod:`repro.core.fixed_home`),

plus the post-paper families (:mod:`repro.core.migratory`,
:mod:`repro.core.dynrep`).  All of them register with the strategy
registry (:mod:`repro.core.registry`), which resolves the parameterized
spec strings (``"4-ary"``, ``"tree:4-8:embed=random"``,
``"dynrep:threshold=3"``) every surface accepts through
:func:`repro.core.registry.get_strategy`; :data:`STRATEGY_NAMES` is a
live view derived from that registry.

Hand-optimized message-passing programs bypass data management entirely and
run under :class:`NullStrategy`.

Strategies are attached to a :class:`repro.runtime.launcher.Runtime` before
the run; reads/writes return *completion times* in virtual seconds, having
recorded their traffic in the simulator (atomic-at-initiation discipline,
see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from ..runtime.variables import GlobalVariable
from .registry import _DerivedNames

__all__ = [
    "DataManagementStrategy",
    "NullStrategy",
    "ResidencyMirror",
    "next_live_node",
    "STRATEGY_NAMES",
]


def next_live_node(start: int, n_nodes: int, down: FrozenSet[int]) -> int:
    """First live processor scanning ``start+1, start+2, ... (mod n)``.

    The deterministic re-homing rule every repair hook shares: where a
    dead node held a directory/home/copy, responsibility moves to the
    next live node in processor order.  Raises when every node is down
    (schedules built by :mod:`repro.network.failures` always leave a
    survivor)."""
    for k in range(1, n_nodes + 1):
        cand = (start + k) % n_nodes
        if cand not in down:
            return cand
    raise RuntimeError("no live node remains in the topology")

GrantCallback = Callable[[float], None]


class ResidencyMirror(NamedTuple):
    """What a family lets the kernel's residency mirror assume (its
    decision table).

    The runtime mirrors, per variable, *who holds a copy* as a member set
    over ``n_sites`` residency sites (:meth:`DataManagementStrategy.
    residency`) and completes a request without calling the strategy when
    the table says the call would only bump a counter.  Everything else
    crosses into the unchanged :meth:`~DataManagementStrategy.read` /
    :meth:`~DataManagementStrategy.write`.
    """

    #: ``site_of[proc]``: the residency site a request from ``proc`` tests.
    site_of: Sequence[int]
    n_sites: int
    #: A read whose site is a member is a hit with no side effect.
    native_reads: bool
    #: A local write (rule below) has no side effect.
    native_writes: bool
    #: Local-write rule: ``True`` = the writer's site holds the *sole*
    #: copy; ``False`` = the writer is the variable's owner.
    sole_copy_write: bool
    #: ``(parent, depth, children)`` over the sites (``parent`` -1 at the
    #: root, ``children[i]`` the ordered child sites of ``i``) when the
    #: flow shapes are static (a fixed tree, fixed hosts): read misses and
    #: writes then replay natively from
    #: :meth:`~DataManagementStrategy.flow_row`, and
    #: :meth:`~DataManagementStrategy.adopt` imports the copy placement
    #: they left (before a fallback crossing, and when the run or the
    #: serving session ends).
    tree: Optional[
        Tuple[Sequence[int], Sequence[int], Sequence[Sequence[int]]]
    ] = None
    #: The other static shape, a fixed home per variable
    #: (:meth:`~DataManagementStrategy.flow_row` names it as a one-host
    #: row): a read miss is the round trip ``reader -> home [-> owner]``
    #: that leaves copies at the home and the reader and the ownership at
    #: the home; a write by a non-owner is ``writer -> home``, a star of
    #: invalidations from the home over every other copy, and the grant
    #: back, the writer left owning the sole copy.
    #: :meth:`~DataManagementStrategy.adopt`'s ``top`` carries the owner.
    directory: bool = False

    @property
    def flow(self) -> Optional[str]:
        """Which static flow the family declares: ``"tree"``,
        ``"directory"`` or ``None`` (misses and remote writes cross)."""
        if self.tree is not None:
            return "tree"
        return "directory" if self.directory else None

    @classmethod
    def over_processors(
        cls, n: int, native_reads: bool = True, directory: bool = False
    ) -> "ResidencyMirror":
        """The directory families' table: one site per processor, owner
        writes are local."""
        return cls(range(n), n, native_reads, True, False, directory=directory)


class DataManagementStrategy:
    """Abstract base: the runtime calls these entry points."""

    #: Human-readable name used in result tables.
    name: str = "abstract"

    #: Cache counters, guaranteed on every strategy (reads served from a
    #: local copy vs reads that needed communication); :meth:`attach`
    #: re-zeros them per run, and the launcher reads them directly.
    hits: int = 0
    misses: int = 0
    #: Writes completed locally / through a remote flow (the replicating
    #: families count them; :meth:`fold_native` adds the serving kernel's).
    write_local: int = 0
    write_remote: int = 0

    #: The family's lock service (``lock`` / ``unlock`` / ``acquisitions``),
    #: built in :meth:`attach`; ``None`` = the family serves no locks.
    _locks = None

    #: Storage-cost accumulator (schema v7, see :mod:`repro.metrics`):
    #: the time integral of excess replica bytes, advanced by
    #: :meth:`_storage_delta` at every copy add/drop event.  Class-level
    #: zeros keep unattached strategies reporting 0.0.
    _sc_integral: float = 0.0
    _sc_excess: float = 0.0
    _sc_last: float = 0.0

    def attach(self, runtime) -> None:
        """Bind to a runtime (simulator, registry, memory book)."""
        self.runtime = runtime
        self.sim = runtime.sim
        self.registry = runtime.registry
        self.memory = runtime.memory
        self.hits = 0
        self.misses = 0
        self._sc_integral = 0.0
        self._sc_excess = 0.0
        self._sc_last = 0.0
        # Per-variable (control, data) leg cost shapes (Simulator.leg_costs),
        # resolved once at registration for the flows.
        self._leg_costs: Dict[int, Tuple[tuple, tuple]] = {}

    def register(self, var: GlobalVariable) -> None:
        """A variable was created; place its initial sole copy."""
        raise NotImplementedError

    def read(self, proc: int, var: GlobalVariable, t: float) -> Optional[Tuple[float, Any]]:
        """Serve a read issued by ``proc`` at time ``t``: either it
        completes at once and returns ``(t, value)``, or it launches the
        flow ``proc`` blocks on (:meth:`_launch`) and returns ``None``.
        There is no third way: a completion time later than ``t`` is a
        broken strategy, and the runtime raises :class:`RuntimeError`."""
        raise NotImplementedError

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> Optional[float]:
        """Serve a write, with :meth:`read`'s contract: returns ``t``
        (completed at once) or ``None`` (a flow was launched)."""
        raise NotImplementedError

    def _launch(
        self, proc: int, t: float, hosts, up, down, value: Any = None, fanout=None
    ) -> None:
        """Launch the flow ``proc`` blocks on (the arguments of
        :meth:`repro.sim.engine.Simulator.push_flow`); the runtime resumes
        ``proc`` with ``value`` at its completion time.  Returns ``None``,
        which is what ``read`` / ``write`` return for a launched flow."""
        self.runtime.flow_value[proc] = value
        self.sim.push_flow(t, hosts, up, down, proc, fanout)

    def lock(self, proc: int, var: GlobalVariable, t: float, grant: GrantCallback) -> None:
        self._locks.lock(proc, var.vid, var.creator, t, grant)

    def unlock(self, proc: int, var: GlobalVariable, t: float) -> float:
        """Release the lock; returns ``t``: the release goes out without
        blocking the releaser (a later time raises, as for :meth:`read`)."""
        return self._locks.unlock(proc, var.vid, var.creator, t)

    @property
    def lock_acquisitions(self) -> int:
        return self._locks.acquisitions if self._locks is not None else 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.write_local = 0
        self.write_remote = 0

    # ------------------------------------------------------- storage cost
    # Replica-bytes x time accounting (schema v7's ``storage_cost``, see
    # repro.metrics).  Strategies that replicate call _storage_delta at
    # every event that adds or removes a copy *beyond the authoritative
    # one* -- +payload when a copy materializes, -payload when one is
    # dropped/invalidated/evicted -- stamped at the event's initiation
    # time, which both engines agree on.  Single-copy strategies never
    # call it and report exactly 0.0.

    def _storage_delta(self, delta: float, t: float) -> None:
        """Excess replica bytes changed by ``delta`` at virtual time ``t``."""
        if t > self._sc_last:
            self._sc_integral += self._sc_excess * (t - self._sc_last)
            self._sc_last = t
        self._sc_excess += delta

    def storage_cost(self, t_end: float) -> float:
        """The integral up to ``t_end`` (replica-bytes x seconds)."""
        tail = self._sc_excess * (t_end - self._sc_last) if t_end > self._sc_last else 0.0
        return self._sc_integral + tail

    def reset_storage(self, at: float) -> None:
        """Restart the integral at time ``at`` (measurement reset: the
        copies currently held keep accruing from here)."""
        self._sc_integral = 0.0
        self._sc_last = at

    # ---------------------------------------------------- residency mirror
    # The runtime's contract (see docs/ARCHITECTURE.md, "The residency
    # mirror").  A family opts in by defining ``_mirror`` *in its own class
    # body*: a subclass that declares nothing may have overridden the hit
    # path, so its requests always call read / write.

    def residency_mirror(self) -> Union[ResidencyMirror, str]:
        """The family's :class:`ResidencyMirror` (call after
        :meth:`attach`), or the reason -- a sentence -- it has none."""
        declare = vars(type(self)).get("_mirror")
        if declare is None:
            return f"{type(self).__name__} declares no residency mirror"
        if self.memory.capacity is not None:
            return "bounded memory: a local hit touches the LRU"
        return declare(self)

    def residency(self, vid: int) -> Tuple[int, Iterable[int], int]:
        """``(owner, member sites, top)`` of one variable: owner is a
        processor or -1; ``top`` is the component's topmost site where
        the mirror declares a tree, else ignored."""
        raise NotImplementedError

    def flow_row(self, vid: int) -> Tuple[Sequence[int], float, Tuple[float, ...]]:
        """Static-flow families: ``(host of every site -- directory flow:
        the home alone --, payload bytes, the data leg's (wire, overhead,
        occupancy))`` of one variable -- the shape a native flow replays."""
        raise NotImplementedError

    def adopt(self, vid: int, members: Iterable[int], top: int) -> None:
        """Static-flow families: take over the copy placement natively
        replayed flows produced (storage already accounted); ``top`` as
        in :meth:`residency`, the owner under the directory flow."""
        raise NotImplementedError

    def delegate_storage(
        self, sink: Callable[[float, float], None]
    ) -> Tuple[float, float, float]:
        """Route :meth:`_storage_delta` to ``sink(delta, t)`` and return
        the accumulator ``(integral, last, excess)`` to seed it with: one
        owner means ONE float accumulation sequence whichever side applies
        a delta.  :meth:`fold_native` hands the state back and
        :meth:`reclaim_storage` ends the delegation."""
        self._storage_delta = sink
        return self._sc_integral, self._sc_last, self._sc_excess

    def reclaim_storage(self) -> None:
        """Undo :meth:`delegate_storage`: deltas accumulate on the
        strategy again, from the state last folded."""
        vars(self).pop("_storage_delta", None)

    def fold_native(
        self,
        hits: int,
        write_local: int,
        misses: int,
        write_remote: int,
        storage: Optional[Tuple[float, float, float]] = None,
    ) -> None:
        """Add the counters of natively completed requests (and, after
        :meth:`delegate_storage`, the accumulator's current state)."""
        self.hits += hits
        self.write_local += write_local
        self.misses += misses
        self.write_remote += write_remote
        if storage is not None:
            self._sc_integral, self._sc_last, self._sc_excess = storage

    # ---------------------------------------------------------- repair
    # Failure-axis hooks (see repro.network.failures): the runtime calls
    # these right after applying a node_down / node_up topology delta.
    # A strategy repairs its metadata and copies so that subsequent
    # requests resolve to live nodes; it returns the vids it repaired
    # (the launcher counts them in `repairs` and flags the next request
    # touching each as retried).  The base implementation is a no-op:
    # strategies without per-node state (NullStrategy) need none.

    def on_node_down(
        self, proc: int, t: float, down: FrozenSet[int] = frozenset()
    ) -> Iterable[int]:
        """``proc`` fail-stopped at virtual time ``t`` (``down`` is the
        full current down set).  Returns repaired vids."""
        return ()

    def on_node_up(
        self, proc: int, t: float, down: FrozenSet[int] = frozenset()
    ) -> Iterable[int]:
        """``proc`` came back at ``t``.  State lost at death stays
        repaired (fail-stop: a revived node returns empty); returns
        repaired vids."""
        return ()


class NullStrategy(DataManagementStrategy):
    """No shared data management: for pure message-passing programs
    (the paper's hand-optimized baselines)."""

    name = "handopt"

    def register(self, var: GlobalVariable) -> None:
        raise RuntimeError("NullStrategy programs must not create global variables")

    def read(self, proc, var, t):
        raise RuntimeError("NullStrategy programs must not read global variables")

    def write(self, proc, var, value, t):
        raise RuntimeError("NullStrategy programs must not write global variables")

    def lock(self, proc, var, t, grant):
        raise RuntimeError("NullStrategy programs must not lock global variables")

    def unlock(self, proc, var, t):
        raise RuntimeError("NullStrategy programs must not unlock global variables")


#: Strategy names accepted by the spec parser (and therefore by
#: :func:`repro.core.registry.get_strategy`).  A live view **derived from
#: the registry** -- registering a strategy family extends it; there is
#: no frozen tuple to keep in sync.
STRATEGY_NAMES = _DerivedNames()
