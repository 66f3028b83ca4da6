"""Locking of global variables.

DIVA provides lock/unlock on global variables; the paper's Barnes-Hut tree
construction relies on them ("locks are used in order to avoid different
processors simultaneously changing the data of the same body") and shows
that the access-tree implementation relieves the contention hotspot that a
centralized lock would suffer at the root cell.

Two managers:

* :class:`RaymondTreeLock` -- Raymond's token-based tree mutual exclusion
  run on the variable's access tree: requests climb toward the token but
  stop at the first node that already has an outstanding request
  (combining!); the token travels along tree edges from holder to holder.
  All traffic follows tree edges, exactly the "elegant algorithms that use
  access trees" the paper alludes to.
* :class:`HomeLock` -- a FIFO queue at the variable's fixed home: every
  request and every grant is a round trip to the home, which serializes at
  the home's NIC.  This is the natural companion of the fixed home
  strategy.

Raymond invariants: following ``dir`` pointers from any node reaches the
token; each node has at most one outstanding forwarded request
(``asked``); other requests queue locally.  ``dir`` pointers are
initialized lazily toward the token's *initial* position, which is sound
because the token can only ever have moved across nodes that some earlier
request already touched (an untouched node is therefore still on the same
side of the token as initially).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..core.decomposition import DecompositionTree
from ..core.embedding import Embedding
from ..sim.engine import Simulator

__all__ = ["RaymondTreeLock", "HomeLock"]

GrantCallback = Callable[[float], None]

#: Marker meaning "the token is here / the request is ours".
_SELF = -1


class _RaymondState:
    """Per-variable Raymond state (lazily created on first lock op)."""

    __slots__ = ("dir", "queue", "asked", "busy", "holder", "grants", "init_token")

    def __init__(self, init_token: int):
        self.dir: Dict[int, int] = {init_token: _SELF}
        self.queue: Dict[int, Deque[int]] = {}
        self.asked: Dict[int, bool] = {}
        self.busy = False
        self.holder: Optional[int] = None  # processor currently in the CS
        self.grants: Dict[int, GrantCallback] = {}  # leaf node -> callback
        self.init_token = init_token


class RaymondTreeLock:
    """Raymond's algorithm on the access tree of each variable."""

    def __init__(self, sim: Simulator, tree: DecompositionTree, embedding: Embedding):
        self.sim = sim
        self.tree = tree
        self.embedding = embedding
        self._states: Dict[int, _RaymondState] = {}
        self.acquisitions = 0

    # ------------------------------------------------------------- plumbing
    def _state(self, vid: int, creator: int) -> _RaymondState:
        st = self._states.get(vid)
        if st is None:
            st = _RaymondState(self.tree.leaf_of_proc[creator])
            self._states[vid] = st
        return st

    def _dir(self, st: _RaymondState, node: int) -> int:
        d = st.dir.get(node)
        if d is None:
            path = self.tree.tree_path(node, st.init_token)
            d = path[1] if len(path) > 1 else _SELF
            st.dir[node] = d
        return d

    def _q(self, st: _RaymondState, node: int) -> Deque[int]:
        q = st.queue.get(node)
        if q is None:
            q = st.queue[node] = deque()
        return q

    def _leg(self, vid: int, a: int, b: int, t: float) -> float:
        return self.sim.send_leg(
            self.embedding.host(vid, a), self.embedding.host(vid, b), 0, t, is_data=False
        )

    # ------------------------------------------------------------------ API
    def lock(self, proc: int, vid: int, creator: int, t: float, grant: GrantCallback) -> None:
        """Request the lock; ``grant(time)`` fires on acquisition."""
        st = self._state(vid, creator)
        leaf = self.tree.leaf_of_proc[proc]
        if leaf in st.grants:
            raise RuntimeError(f"processor {proc} already waiting for lock on var {vid}")
        st.grants[leaf] = grant
        self._request(st, vid, leaf, _SELF, t)

    def unlock(self, proc: int, vid: int, creator: int, t: float) -> float:
        """Release the lock; returns ``t`` (the token moves on without
        blocking the releaser)."""
        st = self._state(vid, creator)
        leaf = self.tree.leaf_of_proc[proc]
        if not st.busy or st.holder != proc:
            raise RuntimeError(f"processor {proc} releases lock on var {vid} it does not hold")
        st.busy = False
        st.holder = None
        if self._q(st, leaf):
            self._pass_token(st, vid, leaf, t)
        return t

    def holder(self, vid: int) -> Optional[int]:
        st = self._states.get(vid)
        return st.holder if st is not None else None

    # ------------------------------------------------------------- protocol
    def _request(self, st: _RaymondState, vid: int, node: int, frm: int, t: float) -> None:
        """A request from direction ``frm`` (``_SELF`` = this node's own
        processor) arrives at ``node`` at time ``t``."""
        q = self._q(st, node)
        q.append(frm)
        d = self._dir(st, node)
        if d == _SELF:
            if not st.busy and len(q) == 1:
                # Token idle here and nothing ahead of us: serve immediately.
                self._pass_token(st, vid, node, t)
            # else: token holder busy or earlier requests pending; stay queued.
            return
        if not st.asked.get(node, False):
            st.asked[node] = True
            t_arr = self._leg(vid, node, d, t)
            self._request(st, vid, d, node, t_arr)

    def _pass_token(self, st: _RaymondState, vid: int, node: int, t: float) -> None:
        """The token rests (idle) at ``node``; serve the head of its queue."""
        q = self._q(st, node)
        if not q:
            return
        d = q.popleft()
        if d == _SELF:
            st.busy = True
            leaf_node = self.tree.nodes[node]
            st.holder = self.tree.mesh.node(leaf_node.row0, leaf_node.col0)
            grant = st.grants.pop(node)
            self.acquisitions += 1
            grant(t)
            return
        # Move the token one tree edge toward the requester.
        st.asked[node] = False
        st.dir[node] = d
        t_tok = self._leg(vid, node, d, t)  # PRIVILEGE message
        if q:
            # Remaining local requests: immediately re-request from the new
            # token location (standard Raymond piggy-back).
            st.asked[node] = True
            self._leg(vid, node, d, t)  # REQUEST message travels behind token
            self._q(st, d).append(node)
        st.dir[d] = _SELF
        st.asked[d] = False
        self._pass_token(st, vid, d, t_tok)


class HomeLock:
    """FIFO lock queue at the variable's home processor."""

    def __init__(self, sim: Simulator, home_of: Callable[[int], int]):
        self.sim = sim
        self.home_of = home_of
        self._held: Dict[int, int] = {}  # vid -> holder proc
        self._queues: Dict[int, Deque[Tuple[int, float, GrantCallback]]] = {}
        self.acquisitions = 0

    def lock(self, proc: int, vid: int, creator: int, t: float, grant: GrantCallback) -> None:
        home = self.home_of(vid)
        t_home = self.sim.send_leg(proc, home, 0, t, is_data=False)
        if vid not in self._held:
            self._held[vid] = proc
            self.acquisitions += 1
            t_grant = self.sim.send_leg(home, proc, 0, t_home, is_data=False)
            grant(t_grant)
        else:
            self._queues.setdefault(vid, deque()).append((proc, t_home, grant))

    def unlock(self, proc: int, vid: int, creator: int, t: float) -> float:
        """Release the lock; returns ``t`` (the release message and the
        next grant go out without blocking the releaser)."""
        home = self.home_of(vid)
        if self._held.get(vid) != proc:
            raise RuntimeError(f"processor {proc} releases lock on var {vid} it does not hold")
        t_home = self.sim.send_leg(proc, home, 0, t, is_data=False)
        q = self._queues.get(vid)
        if q:
            nxt, t_req, grant = q.popleft()
            self._held[vid] = nxt
            self.acquisitions += 1
            t_grant = self.sim.send_leg(home, nxt, 0, max(t_home, t_req), is_data=False)
            grant(t_grant)
        else:
            del self._held[vid]
        return t

    def holder(self, vid: int) -> Optional[int]:
        return self._held.get(vid)
