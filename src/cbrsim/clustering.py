"""Per-node cluster state machine: hello protocol, neighbor tables, the
received-power mobility metric, and the cluster-head election.

Election
--------
Both variants run one least-cluster-change election: an undecided node that
outranks every bidirectional, not-yet-clustered neighbor declares itself
cluster head; everyone with a bidirectional link to a head joins it; members
never challenge a head, and only when two heads acquire a bidirectional link
does the lower-ranked one step down.  The variants differ only in the rank:

* CBRP: lowest id wins.
* Cross-CBRP: lowest aggregate mobility wins, a value derived from
  successive hello reception powers; exact ties fall back to lowest id.  A
  member with lower mobility than its head never triggers re-clustering.

A node's aggregate mobility is the mean of squared pairwise relative-mobility
samples, one sample per live neighbor, computed from that neighbor's two most
recent hello reception powers.  Elections compare the value as of the last
hello sent, so it is summed, with no cache, when a hello is built: once per
hello sent rather than once per hello received.

Hello tables are derived once, by the sender: a hello carries its table as a
read-only, id-ordered mapping, with the set of heads it lists over a
bidirectional link, taken from its kept ``adjacent_heads`` (below); every
receiver's neighbor entry shares both objects.  The sender keeps that pair
(``table_snapshot``) for later hellos until a link, a role or an entry of its
table changes: ``set_link_role`` and an expiry drop it.  Each table value is
one of the six shared ``(bidirectional, role)`` pairs in ``LINK_ROLES``, so a
table holds no tuple of its own.

Most hello receipts change nothing in the table's links and roles: the link
and role a hello reports match the entry.  Such a receipt writes neither the
entry's link and role nor the adjacent sets.  For a member, or a head with no
adjacent head, it skips the election step and its invariant check as well, and
so does an expiry scan that removes nothing.  That step would read only the
role and ``adjacent_heads``, which only ``set_link_role``, an expiry removal or
an earlier step writes, so the last step that ran already left the outcome (a
skipped step returns its role's shared ``_UNCHANGED`` one) and the invariants
as they stand.  Undecided nodes and heads with an adjacent head also read the
time and advertised mobility, so they step on every receipt and scan.

Each node keeps, in place rather than rescanning its table per election or
per relayed route request, its neighbors that have a bidirectional link and
the head role (``NodeClusterState.adjacent_heads``, a set of ids) or the member
role (``adjacent_members``, their table entries by id; a dict takes about half
the memory of a set of twenty ids).  ``set_link_role`` is the only writer of an
entry's ``bidirectional`` flag and role, and the only code that adds to either;
``on_hello_received`` calls it, and ``expire_neighbors`` discards the ids it
removes.  A node's own heads are not kept: as in CBRP's cluster state, a head
lists itself, a member its adjacent heads and an undecided node none, so
``NodeClusterState.head_ids`` derives them from the role.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

from .config import Protocol
from .errors import InvariantError


class Role(Enum):
    # Identity hash: a table snapshot looks up a shared pair per entry, and
    # Enum's own __hash__ is a Python-level call.
    __hash__ = object.__hash__

    UNDECIDED = "undecided"
    CLUSTER_HEAD = "head"
    MEMBER = "member"


# Module-level aliases: the hot scans compare against these by identity, and
# an enum class attribute lookup costs ten times a global read.
CLUSTER_HEAD = Role.CLUSTER_HEAD
MEMBER = Role.MEMBER
UNDECIDED = Role.UNDECIDED

# The six hello-table values, one object each: LINK_ROLES[role][bidirectional]
# is the pair (bidirectional, role).
LINK_ROLES = {role: ((False, role), (True, role)) for role in Role}

HELLO_BASE_BYTES = 20
HELLO_ENTRY_BYTES = 8
HELLO_MOBILITY_FIELD_BYTES = 4  # the metric field only Cross-CBRP hellos carry

# An undecided node holds off electing until link directions have had time to
# settle: entries appear after one hello round, but a link only reads as
# bidirectional once the second round's neighbor lists echo back.
WARMUP_ROUNDS = 2.2

# Self-election normally competes against every bidirectional neighbor, so a
# still-covered neighbor with a stronger claim blocks the election (this is
# what keeps one head departure from spawning a head per orphaned member).
# A node stuck undecided longer than this many hello rounds beyond the
# neighbor timeout stops counting member-role neighbors as competitors:
# members never challenge heads, so waiting on one deadlocks chain-shaped
# topologies where the member's own head is out of range.
PATIENCE_EXTRA_ROUNDS = 2.0


NeighborTable = Mapping[int, tuple[bool, Role]]  # id -> (bidirectional, role)


@dataclass(slots=True)
class HelloMessage:
    """Periodic 1-hop broadcast: sender identity, role, mobility value, and a
    snapshot of the sender's neighbor table.

    The sender derives the table once: ``neighbor_table`` maps neighbor id to
    (bidirectional, role) in id order behind a read-only proxy, and
    ``advertised_heads`` holds the heads it lists over a bidirectional link.
    Every receiver shares both objects, and nothing writes a hello once built.
    """

    sender_id: int
    sender_role: Role
    sender_mobility: float
    neighbor_table: NeighborTable
    advertised_heads: frozenset[int]
    size_bytes: int

    control = True


@dataclass(slots=True)
class NeighborEntry:
    neighbor_id: int
    # True once the neighbor's hello lists us; until then we only hear it.
    bidirectional: bool
    role: Role
    advertised_mobility: float | None
    last_rx_power: float
    rel_mobility: float | None
    expires_at: float
    # Neighbor's own table from its last hello, and the ids it lists as
    # bidirectional heads, both shared with the hello.
    advertised_neighbors: NeighborTable
    advertised_heads: frozenset[int]


@dataclass(slots=True)
class NodeClusterState:
    node_id: int
    protocol: Protocol
    hello_interval: float
    neighbor_timeout: float
    role: Role = Role.UNDECIDED
    # The value the rest of the neighborhood currently knows us by: own
    # mobility as of our last hello.  Elections compare broadcast values on
    # both sides so that contending nodes reach consistent verdicts.
    broadcast_mobility: float = 0.0
    neighbors: dict[int, NeighborEntry] = field(default_factory=dict)
    undecided_since: float = 0.0
    # Neighbors with a bidirectional link and the head (member) role; see
    # set_link_role.
    adjacent_heads: set[int] = field(default_factory=set, init=False)
    adjacent_members: dict[int, NeighborEntry] = field(default_factory=dict, init=False)
    # Kept table_snapshot; None marks it stale after a link, role or entry
    # changed.
    _snapshot: tuple[NeighborTable, frozenset[int]] | None = field(
        default=None, init=False, repr=False
    )

    @property
    def head_ids(self) -> set[int]:
        """The node's cluster heads, derived from its role: itself for a head,
        a copy of ``adjacent_heads`` for a member, none for an undecided node."""
        if self.role is CLUSTER_HEAD:
            return {self.node_id}
        if self.role is MEMBER:
            return set(self.adjacent_heads)
        return set()

    @property
    def own_mobility(self) -> float:
        """``aggregate_mobility`` of the live samples in table order, in one loop."""
        total, count = 0.0, 0
        for e in self.neighbors.values():
            r = e.rel_mobility
            if r is not None:
                total += r * r
                count += 1
        return total / count if count else 0.0


class ElectionOutcome:
    """The role transition of one election step, and whether it calls for a
    triggered hello.  A plain slotted class, built per step that runs."""

    __slots__ = ("old_role", "new_role", "send_hello", "changed")

    def __init__(self, old_role: Role, new_role: Role, send_hello: bool):
        self.old_role = old_role
        self.new_role = new_role
        self.send_hello = send_hello
        self.changed = old_role is not new_role


# What a skipped election step returns, per role; never written.
_UNCHANGED = {role: ElectionOutcome(role, role, False) for role in Role}


def relative_mobility(pr_new: float, pr_old: float) -> float:
    """Relative mobility in dB between two successive reception powers.

    Positive means the pair is approaching, negative receding.
    """
    if pr_new <= 0 or pr_old <= 0:
        raise ValueError(f"reception powers must be positive, got {pr_new}, {pr_old}")
    return 10.0 * math.log10(pr_new / pr_old)


def sum_in_order(values: Iterable[float]) -> float:
    """Left-to-right double-precision sum, the same on every Python version
    (from 3.12 the built-in ``sum()`` compensates rounding)."""
    total = 0.0
    for v in values:
        total += v
    return total


def aggregate_mobility(samples: list[float]) -> float:
    """Variance about zero (mean of squares) of relative-mobility samples.

    An empty sample set yields 0, the value every node starts from.
    """
    if not samples:
        return 0.0
    return sum_in_order(s * s for s in samples) / len(samples)


def hello_size_bytes(entry_count: int, protocol: Protocol) -> int:
    size = HELLO_BASE_BYTES + HELLO_ENTRY_BYTES * entry_count
    if protocol is Protocol.CROSS_CBRP:
        size += HELLO_MOBILITY_FIELD_BYTES
    return size


def table_snapshot(state: NodeClusterState) -> tuple[NeighborTable, frozenset[int]]:
    """The node's table as a hello carries it, with its advertised heads:
    built when stale (the heads from ``adjacent_heads``), otherwise the pair
    built for an earlier hello."""
    snapshot = state._snapshot
    if snapshot is None:
        table = MappingProxyType({
            nid: LINK_ROLES[e.role][e.bidirectional] for nid, e in sorted(state.neighbors.items())
        })
        snapshot = state._snapshot = (table, frozenset(state.adjacent_heads))
    return snapshot


def build_hello(state: NodeClusterState) -> HelloMessage:
    """Snapshot the node's table into a hello broadcast."""
    table, heads = table_snapshot(state)
    mobility = state.broadcast_mobility = state.own_mobility
    return HelloMessage(
        state.node_id, state.role, mobility, table, heads,
        hello_size_bytes(len(table), state.protocol),
    )


def on_hello_received(
    state: NodeClusterState, hello: HelloMessage, rx_power: float, now: float
) -> ElectionOutcome:
    """Fold a received hello into the table and the sender's mobility sample,
    then run the election step.  Returns the resulting role transition."""
    sid = hello.sender_id
    advertised = hello.neighbor_table
    bidir = state.node_id in advertised
    role = hello.sender_role
    entry = state.neighbors.get(sid)
    touched = entry is None
    if touched:
        entry = state.neighbors[sid] = NeighborEntry(
            neighbor_id=sid,
            bidirectional=bidir,
            role=role,
            advertised_mobility=hello.sender_mobility,
            last_rx_power=rx_power,
            rel_mobility=None,
            expires_at=now + state.neighbor_timeout,
            advertised_neighbors=advertised,
            advertised_heads=hello.advertised_heads,
        )
    else:
        entry.advertised_mobility = hello.sender_mobility
        entry.rel_mobility = relative_mobility(rx_power, entry.last_rx_power)
        entry.last_rx_power = rx_power
        entry.expires_at = now + state.neighbor_timeout
        entry.advertised_neighbors = advertised
        entry.advertised_heads = hello.advertised_heads
        touched = entry.bidirectional != bidir or entry.role is not role
    if touched:
        set_link_role(state, entry, bidir, role)
    return _election_step(state, now, touched)


def expire_neighbors(
    state: NodeClusterState, now: float
) -> tuple[list[int], ElectionOutcome]:
    """Drop entries whose timeout passed, then re-run the election step."""
    removed = [nid for nid, e in state.neighbors.items() if e.expires_at < now]
    for nid in removed:
        del state.neighbors[nid]
        state.adjacent_heads.discard(nid)
        state.adjacent_members.pop(nid, None)
    if removed:
        state._snapshot = None
    return removed, _election_step(state, now, bool(removed))


def _election_step(state: NodeClusterState, now: float, touched: bool) -> ElectionOutcome:
    """Run the election and check the invariants.  Skipped when the caller
    changed no link, role or entry (``touched`` is false) and the node is a
    member or a head with no adjacent head: nothing that step reads changed
    since the last step that ran, and passed its check (module docstring)."""
    old_role = state.role
    if not touched and (
        old_role is MEMBER or (old_role is CLUSTER_HEAD and not state.adjacent_heads)
    ):
        return _UNCHANGED[old_role]
    send = run_election(state, now)
    check_invariants(state)
    return ElectionOutcome(old_role, state.role, send)


def set_link_role(
    state: NodeClusterState, entry: NeighborEntry, bidir: bool, role: Role
) -> None:
    """Set a table entry's link and role, keeping ``state.adjacent_heads`` and
    ``state.adjacent_members`` in step and dropping the kept table snapshot:
    the only code that writes either field of an entry in the table.  A hello
    receipt calls it only for a new entry or a changed link or role."""
    entry.bidirectional = bidir
    entry.role = role
    state._snapshot = None
    nid = entry.neighbor_id
    heads, members = state.adjacent_heads, state.adjacent_members
    if bidir and role is MEMBER:
        members[nid] = entry
    else:
        members.pop(nid, None)
    if bidir and role is CLUSTER_HEAD:
        heads.add(nid)
    else:
        heads.discard(nid)


def _competitors(state: NodeClusterState, now: float):
    """Bidirectional neighbors an undecided node must beat to declare itself.

    Every neighbor counts, members included, until the node has waited out
    the coverage patience; after that, member-role neighbors no longer block.
    """
    patience = state.neighbor_timeout + PATIENCE_EXTRA_ROUNDS * state.hello_interval
    relax = (now - state.undecided_since) > patience
    return [
        e
        for e in state.neighbors.values()
        if e.bidirectional and not (relax and e.role is MEMBER)
    ]


def _outranks(state: NodeClusterState, rivals) -> bool:
    """Whether the node ranks strictly ahead of every rival entry.

    CBRP ranks by id alone.  Cross-CBRP ranks by ``(mobility, id)``, using
    the node's broadcast value against each rival's advertised one; a rival
    that never advertised a value ranks last.
    """
    if state.protocol is Protocol.CBRP:
        me = state.node_id
        return all(e.neighbor_id > me for e in rivals)
    mine = (state.broadcast_mobility, state.node_id)
    return all(
        (math.inf if e.advertised_mobility is None else e.advertised_mobility, e.neighbor_id)
        > mine
        for e in rivals
    )


def run_election(state: NodeClusterState, now: float) -> bool:
    """One election step with least-cluster-change maintenance.

    Both protocols share it and differ only in the ranking ``_outranks``
    applies: a head steps down only to an adjacent head that outranks it, a
    member never challenges its head, and an undecided node joins any
    adjacent head or else declares itself when it outranks every competitor.
    It writes only the role (and ``undecided_since``): a member's heads are
    its ``adjacent_heads``.

    Returns True when the node should broadcast an immediate hello (it just
    declared itself head, or dropped back to undecided).
    """
    heads = state.adjacent_heads
    if state.role is CLUSTER_HEAD:
        if heads and not _outranks(state, [state.neighbors[h] for h in heads]):
            state.role = MEMBER
        return False
    send = False
    if state.role is MEMBER:
        if heads:
            return False
        state.role = UNDECIDED
        state.undecided_since = now
        send = True
        # Fall through: a member that lost its last head re-elects now.
    if now < WARMUP_ROUNDS * state.hello_interval:
        return send
    if heads:
        state.role = MEMBER
    elif _outranks(state, _competitors(state, now)):
        state.role = CLUSTER_HEAD
        send = True
    return send


def check_invariants(state: NodeClusterState) -> None:
    """Role/table consistency, asserted after every election step that runs.

    A member must have at least one adjacent head, and each id in its
    ``adjacent_heads`` must be a bidirectional cluster-head entry (the 2-hop
    cluster diameter).  A head's and an undecided node's heads follow from the
    role alone (``NodeClusterState.head_ids``), so they need no check.
    """
    if state.role is MEMBER:
        if not state.adjacent_heads:
            raise InvariantError(f"node {state.node_id}: member with no head")
        for hid in state.adjacent_heads:
            e = state.neighbors.get(hid)
            if e is None or not e.bidirectional or e.role is not CLUSTER_HEAD:
                raise InvariantError(
                    f"node {state.node_id}: head {hid} is not a bidirectional "
                    "cluster-head neighbor"
                )
