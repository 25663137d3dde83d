"""Source routing over the cluster structure.

Route discovery floods route requests over the cluster structure: a source
hands its request to its head, and a head relays one copy per neighboring
cluster through gateway members.  A member that receives a request relays it
to its bidirectional heads and also to every bidirectional neighbor that is a
member of a foreign cluster, whichever hop the request came from, so requests
also walk member to member across cluster borders.  Whoever holds the target
as a bidirectional neighbor (or is the target) returns a reply along the
reversed recorded route.  Data packets then carry the full hop list.

Each node handles a flood at most once.  The duplicate filter lives on the
flood, not on the node: ``originate_rreq`` creates one ``seen`` set holding
the origin, every copy of that origination shares it, and ``process_rreq``
drops a copy whose receiver is already in it.  Node state therefore holds
nothing per request, and a filter is freed with its flood's last queued or
scheduled copy, so long runs need no aging rule to bound memory.

There are no route-error packets: a broken source route is detected at the
failing hop, the source's cache entry is invalidated, and the next packet for
that destination starts a fresh discovery governed by the retry policy.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from .clustering import CLUSTER_HEAD, LINK_ROLES, MEMBER, NodeClusterState
from .errors import InvariantError
from .traffic import DataPacket

RREQ_RREP_BASE_BYTES = 24
RREQ_RREP_HOP_BYTES = 4
PENDING_LIMIT = 10  # data packets buffered per destination awaiting a route

_BIDIR_MEMBER = LINK_ROLES[MEMBER][True]  # a hello table value: bidirectional member


def control_size_bytes(route_len: int) -> int:
    return RREQ_RREP_BASE_BYTES + RREQ_RREP_HOP_BYTES * route_len


@dataclass(slots=True)
class RouteRequestPacket:
    target: int
    recorded_route: tuple[int, ...]
    next_hop: int
    size_bytes: int
    seen: set[int]  # ids that handled this flood, shared by all its copies

    control = True


@dataclass(slots=True)
class RouteReplyPacket:
    route: tuple[int, ...]
    next_hop: int
    size_bytes: int

    control = True


@dataclass
class RouterState:
    cache: dict[int, tuple[int, ...]] = field(default_factory=dict)  # destination -> route
    pending: dict[int, deque[DataPacket]] = field(default_factory=dict)
    # destination -> originations performed so far (first try included)
    discoveries: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class OriginateResult:
    installed: tuple[int, ...] | None
    packets: list[RouteRequestPacket]


@dataclass(frozen=True)
class RreqResult:
    reply: RouteReplyPacket | None
    forwards: Sequence[RouteRequestPacket]


_DROPPED = RreqResult(None, ())  # shared by every duplicate or looping request


def _completed_route(
    cluster: NodeClusterState, route: tuple[int, ...], target: int
) -> tuple[int, ...] | None:
    """Full source-to-target route if this node can answer the request.

    A node answers when it is the target itself or holds the target as a
    bidirectional neighbor (for a head that covers its whole member table).
    """
    if cluster.node_id == target:
        return route
    entry = cluster.neighbors.get(target)
    if entry is not None and entry.bidirectional:
        return route + (target,)
    return None


def _forward_targets(cluster: NodeClusterState, route: tuple[int, ...]) -> list[int]:
    """Next hops for one relay step of a route request, per the node's role.

    A head sends one copy toward every neighboring cluster: directly to an
    adjacent foreign head, through the lowest-id gateway member that hears a
    foreign head, and to border members adjacent to members of other clusters
    (three-hop head separations need a gateway pair).  A member relays to its
    bidirectional heads and across cluster borders; anyone already on the
    recorded route is skipped.
    """
    exclude = set(route)
    exclude.add(cluster.node_id)
    out = cluster.adjacent_heads - exclude
    members = cluster.adjacent_members
    if cluster.role is CLUSTER_HEAD:
        # Heads that need no gateway: excluded, adjacent, or already reached
        # through a lower-id member (members are walked in ascending id order).
        blocked = exclude | cluster.adjacent_heads
        inside = exclude.union(members)
        for mid in sorted(members.keys() - exclude):
            entry = members[mid]
            new_heads = entry.advertised_heads - blocked
            if new_heads:
                blocked |= new_heads
                out.add(mid)
                continue
            for nid, link_role in entry.advertised_neighbors.items():
                if nid not in inside and link_role == _BIDIR_MEMBER:
                    out.add(mid)  # border member: gateway-pair hop
                    break
        return sorted(out)
    if cluster.role is MEMBER:
        own_heads = cluster.adjacent_heads
        for mid, entry in members.items():
            if mid not in exclude and entry.advertised_heads.isdisjoint(own_heads):
                out.add(mid)  # member of a foreign cluster: gateway-pair hop
        return sorted(out)
    return []  # an undecided node neither forwards nor answers for others


def _make_copies(
    target: int, seen: set[int], route: tuple[int, ...], next_hops: list[int]
) -> list[RouteRequestPacket]:
    size = control_size_bytes(len(route))
    return [RouteRequestPacket(target, route, hop, size, seen) for hop in next_hops]


def originate_rreq(
    router: RouterState, cluster: NodeClusterState, target: int
) -> OriginateResult:
    """Start (or restart) route discovery toward ``target``.

    A target that is already a bidirectional neighbor is answered from the
    table without any packets.  A head processes its own request locally and
    fans out to neighboring clusters; a member unicasts one copy to each of
    its heads.  A node with no cluster head cannot originate yet and returns
    no packets (the retry policy will try again).
    """
    node_id = cluster.node_id
    route = _completed_route(cluster, (node_id,), target)
    if route is not None:
        router.cache[target] = route
        return OriginateResult(installed=route, packets=[])
    if cluster.role is CLUSTER_HEAD:
        # The source is its own head: no unicast hop, fan out directly.
        next_hops = _forward_targets(cluster, (node_id,))
    else:  # an undecided node sends nothing, even with adjacent heads in warm-up
        next_hops = sorted(cluster.adjacent_heads) if cluster.role is MEMBER else []
    return OriginateResult(None, _make_copies(target, {node_id}, (node_id,), next_hops))


def process_rreq(cluster: NodeClusterState, rreq: RouteRequestPacket) -> RreqResult:
    """Handle one received route request: deduplicate, record the hop, answer
    if the target is known, otherwise relay per the node's role."""
    node_id = cluster.node_id
    if node_id in rreq.seen:
        return _DROPPED
    rreq.seen.add(node_id)
    route = rreq.recorded_route + (node_id,)
    if len(set(route)) != len(route):
        raise InvariantError(f"duplicate id in recorded route {route}")
    completed = _completed_route(cluster, route, rreq.target)
    if completed is not None:
        if len(set(completed)) != len(completed):
            raise InvariantError(f"duplicate id in completed route {completed}")
        reply = RouteReplyPacket(
            completed, rreq.recorded_route[-1], control_size_bytes(len(completed))
        )
        return RreqResult(reply, [])
    next_hops = _forward_targets(cluster, route)
    return RreqResult(None, _make_copies(rreq.target, rreq.seen, route, next_hops))


def process_rrep(
    router: RouterState, cluster: NodeClusterState, rrep: RouteReplyPacket
) -> RouteReplyPacket | None:
    """Move a route reply one hop toward the source; install at the source.

    Returns the reply for the next reverse hop, or None once the source has
    cached the route.
    """
    node_id = cluster.node_id
    try:
        idx = rrep.route.index(node_id)
    except ValueError:
        raise InvariantError(
            f"node {node_id} processed a route reply it is not on: {rrep.route}"
        ) from None
    if idx == 0:
        router.cache[rrep.route[-1]] = rrep.route
        return None
    return RouteReplyPacket(rrep.route, rrep.route[idx - 1], rrep.size_bytes)


def forward_data(cluster: NodeClusterState, packet: DataPacket) -> int | None:
    """Next hop of a source-routed data packet at this node, or None at its
    destination.  A packet at a node that is not on its route is a routing bug.
    """
    node_id = cluster.node_id
    route = packet.route
    if route is None:
        raise InvariantError(f"data packet for {packet.dst} has no route attached")
    try:
        idx = route.index(node_id)
    except ValueError:
        raise InvariantError(
            f"node {node_id} holds a data packet whose route {route} skips it"
        ) from None
    if idx == len(route) - 1:
        return None
    return route[idx + 1]
