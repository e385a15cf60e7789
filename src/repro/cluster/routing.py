"""Routing policies: which shard processes which window.

The unit of distribution is the *complete window* -- exactly the unit
window-based data-parallel CEP systems (RIP, SPECTRE) distribute, and
the reason detections stay independent of the parallelism degree: every
window is matched whole, on exactly one shard, with the same shedder
state everywhere.

Three ready-made policies:

- ``round-robin`` -- windows cycle over shards by window id (the
  paper's deployment shape; deterministic and balanced for
  homogeneous windows),
- ``hash`` -- windows stick to shards by a key (window id by default,
  or any attribute of the window's opening event), so per-key state
  such as downstream caches stays shard-local,
- ``least-loaded`` -- windows go to the shard with the least
  outstanding work (event count in flight), absorbing skew from
  variable window sizes,
- ``consistent-hash`` -- windows map to shards through a virtual-node
  hash ring, so when the membership changes only the key ranges owned
  by the joining/leaving shard move (≈ K/N of K keys for one of N
  shards) -- the policy the elastic cluster rebalances under.

Custom policies subclass :class:`Router`.  Routing never affects
*which* complex events are detected -- only where the matching work
runs -- because shedding decisions are window-local and coordinated by
the :class:`~repro.cluster.sharded.ShardedPipeline`'s coordinator.

Elastic membership: :meth:`Router.add_shard` / :meth:`Router.remove_shard`
grow and shrink the bound shard count *in place*.  Shard ids stay dense
(``0..shards-1``): a join adds id ``shards``, a leave retires the
highest id -- the sharded pipeline maps these dense ids onto worker
processes, so policies never see holes in the id space.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cep.windows import Window


class Router:
    """Base routing policy: maps complete windows to shard indices.

    ``bind(shards)`` is called once by the sharded pipeline before any
    routing; ``route(window, chain)`` must return an index in
    ``[0, shards)``.  ``on_dispatch``/``on_complete`` observe the work
    a routing decision created and retired -- feedback hooks for
    load-aware policies.
    """

    #: Registry name; subclasses override.
    name: str = "router"

    def __init__(self) -> None:
        self.shards = 0
        self.routed = 0

    def bind(self, shards: int) -> "Router":
        """Fix the shard count; called once before routing starts."""
        if shards <= 0:
            raise ValueError("shard count must be positive")
        self.shards = shards
        return self

    def route(self, window: Window, chain: str) -> int:
        """Shard index for ``window`` of query chain ``chain``."""
        raise NotImplementedError

    def on_dispatch(self, shard: int, cost: int) -> None:
        """A window of ``cost`` events was sent to ``shard``."""

    def on_complete(self, shard: int, cost: int) -> None:
        """A previously dispatched window came back from ``shard``."""

    def add_shard(self) -> int:
        """Grow the membership by one shard; returns the new shard id.

        The new shard always takes the next dense id (``shards`` before
        the call).  Policies with per-shard state override and extend.
        """
        self.shards += 1
        return self.shards - 1

    def remove_shard(self) -> int:
        """Shrink the membership by one shard; returns the retired id.

        Always retires the *highest* id so the remaining ids stay dense.
        The caller drains the retired shard before calling this.
        """
        if self.shards <= 1:
            raise ValueError("cannot remove the last shard")
        self.shards -= 1
        return self.shards

    def metrics(self) -> Dict[str, object]:
        """Router counters for the cluster snapshot."""
        return {"policy": self.name, "routed": self.routed}


class RoundRobinRouter(Router):
    """Windows cycle over shards in window-id order (paper deployment).

    Uses ``window_id % shards``: the round-robin dispatch of the
    window-parallel operators the paper deploys eSPICE in (§5), and the
    only window parallelism this codebase has.
    """

    name = "round-robin"

    def route(self, window: Window, chain: str) -> int:
        self.routed += 1
        return window.window_id % self.shards


class HashKeyRouter(Router):
    """Windows stick to shards by a deterministic key hash.

    ``key`` extracts the routing key from the window; the default is
    the window id.  ``attribute`` is a convenience for the common case
    of keying on an attribute of the window's *opening* event (e.g.
    the striker id of a man-marking window, or a stock symbol), which
    keeps all windows of one entity on one shard.

    The hash is ``crc32`` over the key's string form -- stable across
    processes and Python invocations, unlike the salted builtin
    ``hash``.
    """

    name = "hash"

    def __init__(
        self,
        key: Optional[Callable[[Window], object]] = None,
        attribute: Optional[str] = None,
    ) -> None:
        super().__init__()
        if key is not None and attribute is not None:
            raise ValueError("pass either a key function or an attribute name")
        if attribute is not None:
            key = lambda window: (  # noqa: E731 - tiny adapter
                window.events[0].attr(attribute) if window.events else None
            )
        self.key = key if key is not None else (lambda window: window.window_id)

    def route(self, window: Window, chain: str) -> int:
        self.routed += 1
        digest = zlib.crc32(str(self.key(window)).encode("utf-8"))
        return digest % self.shards


class LeastLoadedRouter(Router):
    """Windows go to the shard with the least outstanding work.

    Load is the number of dispatched-but-unfinished window events per
    shard, maintained from the pipeline's dispatch/completion feedback.
    Ties break toward the lowest shard index, so routing is
    deterministic given the same feedback sequence.
    """

    name = "least-loaded"

    def bind(self, shards: int) -> "Router":
        super().bind(shards)
        self.loads = [0] * shards
        return self

    def route(self, window: Window, chain: str) -> int:
        self.routed += 1
        return self.loads.index(min(self.loads))

    def on_dispatch(self, shard: int, cost: int) -> None:
        self.loads[shard] += cost

    def on_complete(self, shard: int, cost: int) -> None:
        self.loads[shard] = max(0, self.loads[shard] - cost)

    def add_shard(self) -> int:
        shard = super().add_shard()
        self.loads.append(0)
        return shard

    def remove_shard(self) -> int:
        shard = super().remove_shard()
        self.loads.pop()
        return shard

    def metrics(self) -> Dict[str, object]:
        report = super().metrics()
        report["loads"] = list(self.loads)
        return report


class ConsistentHashRouter(Router):
    """Windows map to shards through a virtual-node hash ring.

    Each shard owns ``vnodes`` points on a ``crc32`` ring; a window's
    key hashes to a ring position and routes to the owner of the first
    point clockwise.  The property that matters for elasticity: when a
    shard joins it takes over only the ring arcs its own points land
    in, and when it leaves only its arcs fall to the survivors --
    expected movement is K/N of K distinct keys for one of N shards,
    versus nearly all keys under modulo policies.

    ``key``/``attribute`` mirror :class:`HashKeyRouter`; the default
    key is the window id.  The ring is rebuilt deterministically from
    (shard id, vnode index) alone, so every process derives the same
    ring for the same membership -- no coordination needed.
    """

    name = "consistent-hash"

    #: Points per shard.  64 keeps ownership within a few percent of
    #: uniform while the ring rebuild stays trivially cheap.
    DEFAULT_VNODES = 64

    def __init__(
        self,
        key: Optional[Callable[[Window], object]] = None,
        attribute: Optional[str] = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        super().__init__()
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        if key is not None and attribute is not None:
            raise ValueError("pass either a key function or an attribute name")
        if attribute is not None:
            key = lambda window: (  # noqa: E731 - tiny adapter
                window.events[0].attr(attribute) if window.events else None
            )
        self.key = key if key is not None else (lambda window: window.window_id)
        self.vnodes = vnodes
        self._ring: List[Tuple[int, int]] = []  # (point, shard) sorted
        self._points: List[int] = []  # ring points only, for bisect

    # ------------------------------------------------------------------
    @staticmethod
    def _point(shard: int, vnode: int) -> int:
        return zlib.crc32(f"shard:{shard}:vnode:{vnode}".encode("ascii"))

    def _rebuild(self) -> None:
        ring = [
            (self._point(shard, vnode), shard)
            for shard in range(self.shards)
            for vnode in range(self.vnodes)
        ]
        # tie-break by shard id so the ring order is total and identical
        # everywhere even on the (vanishingly rare) point collision
        ring.sort()
        self._ring = ring
        self._points = [point for point, _shard in ring]

    def bind(self, shards: int) -> "Router":
        super().bind(shards)
        self._rebuild()
        return self

    def add_shard(self) -> int:
        shard = super().add_shard()
        self._rebuild()
        return shard

    def remove_shard(self) -> int:
        shard = super().remove_shard()
        self._rebuild()
        return shard

    # ------------------------------------------------------------------
    def shard_for_key(self, key: object) -> int:
        """Ring lookup for an explicit key (exposed for tests/tools)."""
        digest = zlib.crc32(str(key).encode("utf-8"))
        index = bisect.bisect_right(self._points, digest)
        if index == len(self._ring):
            index = 0  # wrap: first point clockwise from the top
        return self._ring[index][1]

    def route(self, window: Window, chain: str) -> int:
        self.routed += 1
        return self.shard_for_key(self.key(window))

    def metrics(self) -> Dict[str, object]:
        report = super().metrics()
        report["vnodes"] = self.vnodes
        report["ring_size"] = len(self._ring)
        return report


_ROUTERS = {
    RoundRobinRouter.name: RoundRobinRouter,
    HashKeyRouter.name: HashKeyRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    ConsistentHashRouter.name: ConsistentHashRouter,
}


def available_routers() -> list:
    """Registered routing policy names."""
    return sorted(_ROUTERS)


def create_router(spec: Union[str, Router, None], shards: int) -> Router:
    """Resolve ``spec`` (name, instance or ``None``) into a bound router."""
    if spec is None:
        router: Router = RoundRobinRouter()
    elif isinstance(spec, Router):
        router = spec
    elif isinstance(spec, str):
        if spec not in _ROUTERS:
            known = ", ".join(available_routers())
            raise ValueError(f"unknown router {spec!r}; registered: {known}")
        router = _ROUTERS[spec]()
    else:
        raise TypeError(f"router must be a name or Router instance, got {spec!r}")
    return router.bind(shards)
