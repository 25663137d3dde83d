"""Deterministic discrete-event core.

One event queue drives the whole run: packet deliveries, hello timers,
traffic emissions, waypoint arrivals, neighbor-expiry scans, transmit
completions, and route-discovery retry timers.  Events are totally ordered by
(time, sequence), so identical configs and seeds replay bit-for-bit.

The medium is a serialized-broadcast abstraction: each node transmits its own
queue at the configured link rate with no collisions or carrier sense.
Broadcasts reach every node inside tx_range at the completion instant;
unicasts reach the named next hop if it is still in range, otherwise they
count as forwarding failures.  Per-node interface queues hold control packets
(hello, route request, route reply) ahead of all data, and a control packet
arriving at a full queue evicts the newest data packet rather than being
lost.

A transmission takes one event.  Its reception runs inside the event that
completes it, unless another event is already due at or before that instant;
then the reception is scheduled as a delivery event at that instant (the
fallback).  Either way events run in the order a delivery event per
transmission gives: every event already due at the instant was scheduled
before that delivery would be, so it runs first, and the check sends exactly
those cases to the heap; otherwise the delivery would be the next event
popped.  Skipping its sequence number shifts every later number alike, which
keeps their order.

A hello is delivered in one loop.  The sender's position is read, then each
other node's, in id order; each node inside the closed range disc gets the
hello at once.  Reception power, with its fading draw, is evaluated per
receiver in that order.  In the fallback a waypoint arrival at the same
instant may run before the loop, but the new leg starts at the old leg's
destination, so every position and the receiver set are unchanged.  Every
position read goes through ``mobility.position_at``, which checks that the
node's current leg covers the instant.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import deque
from dataclasses import astuple, dataclass, fields
from enum import Enum

from . import clustering, routing
from .clustering import HelloMessage, NodeClusterState
from .config import ScenarioConfig, generate_initial_placement
from .errors import InvariantError
from .metrics import MetricsLedger, RunReport, finalize
from .mobility import WaypointLeg, next_leg, position_at
from .radio import REFERENCE_DISTANCE, channel_gain
from .routing import RouteReplyPacket, RouteRequestPacket, RouterState
from .traffic import DataPacket, Flow, generate_flows


class EventKind(Enum):
    # Identity hash: the run loop looks up a handler per event, and Enum's own
    # __hash__ is a Python-level call.
    __hash__ = object.__hash__

    PACKET_DELIVERY = "packet_delivery"
    HELLO_TIMER = "hello_timer"
    TRAFFIC_EMIT = "traffic_emit"
    WAYPOINT_ARRIVAL = "waypoint_arrival"
    NEIGHBOR_EXPIRY_SCAN = "neighbor_expiry_scan"
    TRANSMIT_COMPLETE = "transmit_complete"
    ROUTE_RETRY_TIMEOUT = "route_retry_timeout"
    TRACE_SAMPLE = "trace_sample"


# Module-level aliases for the handlers that schedule: an enum class attribute
# lookup costs about ten times a global read.
_PACKET_DELIVERY = EventKind.PACKET_DELIVERY
_HELLO_TIMER = EventKind.HELLO_TIMER
_TRAFFIC_EMIT = EventKind.TRAFFIC_EMIT
_WAYPOINT_ARRIVAL = EventKind.WAYPOINT_ARRIVAL
_NEIGHBOR_EXPIRY_SCAN = EventKind.NEIGHBOR_EXPIRY_SCAN
_TRANSMIT_COMPLETE = EventKind.TRANSMIT_COMPLETE
_ROUTE_RETRY_TIMEOUT = EventKind.ROUTE_RETRY_TIMEOUT


class QueueOutcome(Enum):
    ACCEPTED = "accepted"
    DROPPED_INCOMING = "dropped_incoming"
    DROPPED_TAIL_DATA = "dropped_tail_data"


_ACCEPTED = QueueOutcome.ACCEPTED
_DROPPED_INCOMING = QueueOutcome.DROPPED_INCOMING
_DROPPED_TAIL_DATA = QueueOutcome.DROPPED_TAIL_DATA

# Columns of each trace CSV, by file stem.  A traced run hands each row to its
# stem's sink in ``Simulation.trace`` when the row happens (a flow's row at
# construction), and samples every node's position and role every half hello
# interval.
TRACE_HEADERS = {
    "events": ("time", "node", "event_kind", "detail"),
    "mobility": ("time", "node_id", "x", "y"),
    "clusters": ("time", "node", "role", "head_id", "M_value"),
    "route_events": ("time", "event", "flow_id", "route_len"),
    "flows": tuple(f.name for f in fields(Flow)),
}


class InterfaceQueue:
    """Drop-tail interface queue with control-packet priority.

    Control packets join in FIFO order ahead of every data packet; data
    appends at the tail.  A full queue discards an incoming data packet, while
    an incoming control packet evicts the newest queued data packet (a queue
    full of control packets discards the incoming one).  The packet being
    transmitted is held outside the queue.

    Control and data wait in separate deques, so control-before-data order
    holds by construction and the capacity check is one comparison.
    """

    __slots__ = ("_control", "_data", "capacity", "transmitting")

    def __init__(self, capacity: int):
        self._control: deque = deque()
        self._data: deque = deque()
        self.capacity = capacity
        self.transmitting = None

    @property
    def slots(self) -> tuple:
        """Queued packets in transmission order: control, then data."""
        return (*self._control, *self._data)

    def enqueue(self, packet) -> tuple[QueueOutcome, object | None]:
        control, data = self._control, self._data
        size = len(control) + len(data)
        if size > self.capacity:
            raise InvariantError("interface queue above capacity")
        if size < self.capacity:
            (control if packet.control else data).append(packet)
            return (_ACCEPTED, None)
        if packet.control and data:
            evicted = data.pop()  # newest data packet
            control.append(packet)
            return (_DROPPED_TAIL_DATA, evicted)
        return (_DROPPED_INCOMING, None)

    def pop_head(self):
        if self._control:
            return self._control.popleft()
        return self._data.popleft()


@dataclass(slots=True)
class Node:
    node_id: int
    leg: WaypointLeg
    cluster: NodeClusterState
    router: RouterState
    queue: InterfaceQueue
    mobility_rng: random.Random
    hello_rng: random.Random


class Simulation:
    """One simulation run: engine state, protocol state, and the ledger.

    Strictly single-threaded; parallelism belongs across independent
    runs with distinct seeds.
    """

    def __init__(
        self,
        cfg: ScenarioConfig,
        *,
        placement: list[tuple[float, float]] | None = None,
        flows: list[Flow] | None = None,
        trace: dict | None = None,
    ):
        self.cfg = cfg
        self.now = 0.0
        self._range_sq = cfg.tx_range * cfg.tx_range
        self._link_rate = cfg.link_rate
        self._heap: list = []
        self._seq = itertools.count()
        self._finished = False
        seed = cfg.rng_seed
        self._fading_rng = random.Random(f"{seed}:fading") if cfg.fading_enabled else None
        self.ledger = MetricsLedger(formation_grace=cfg.effective_formation_grace)
        if placement is None:
            placement = generate_initial_placement(cfg, random.Random(f"{seed}:placement"))
        elif len(placement) != cfg.node_count:
            raise ValueError("placement length must equal node_count")
        self.nodes: list[Node] = []
        for i, pos in enumerate(placement):
            mobility_rng = random.Random(f"{seed}:mobility:{i}")
            node = Node(
                node_id=i,
                leg=next_leg(pos, 0.0, cfg, mobility_rng),
                cluster=NodeClusterState(
                    node_id=i,
                    protocol=cfg.protocol,
                    hello_interval=cfg.hello_interval,
                    neighbor_timeout=cfg.neighbor_timeout,
                ),
                router=RouterState(),
                queue=InterfaceQueue(cfg.queue_capacity),
                mobility_rng=mobility_rng,
                hello_rng=random.Random(f"{seed}:hello:{i}"),
            )
            self.nodes.append(node)
        if flows is None:
            flows = generate_flows(cfg, random.Random(f"{seed}:flows"))
        self.flows: list[Flow] = flows
        self._in_flight: dict[int, DataPacket] = {}  # id -> emitted, not yet classified
        # One row sink per ``TRACE_HEADERS`` stem; None turns every hook off.
        self.trace = trace
        if trace is not None:
            for flow in flows:
                trace["flows"](astuple(flow))
        for node in self.nodes:
            if math.isfinite(node.leg.pause_until):
                self.schedule(node.leg.pause_until, _WAYPOINT_ARRIVAL, (node.node_id,))
            offset = node.hello_rng.uniform(0.0, cfg.hello_interval)
            self.schedule(offset, _HELLO_TIMER, (node.node_id,))
            self.schedule(cfg.hello_interval / 2.0, _NEIGHBOR_EXPIRY_SCAN, (node.node_id,))
        stop = cfg.effective_traffic_stop
        for idx, flow in enumerate(flows):
            if flow.start_time < stop:
                self.schedule(flow.start_time, _TRAFFIC_EMIT, (idx, 0))
        if trace is not None:
            self.schedule(0.0, EventKind.TRACE_SAMPLE, ())

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: float, kind: EventKind, payload: tuple) -> None:
        if time < self.now - 1e-9:
            raise InvariantError(
                f"scheduling into the past: t={time} < now={self.now} ({kind})"
            )
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    # -- run loop -----------------------------------------------------------

    def run(self) -> RunReport:
        if self._finished:
            raise RuntimeError("a Simulation instance runs once")
        duration = self.cfg.sim_duration
        heap, heappop = self._heap, heapq.heappop
        handlers = self._HANDLERS
        # Sequence numbers are unique, so the heap's tuple comparison never
        # reaches the kind.
        while heap and heap[0][0] <= duration:
            time, _, kind, payload = heappop(heap)
            self.now = time
            handlers[kind](self, *payload)
        self.now = duration
        self.ledger.in_flight_at_horizon += len(self._in_flight)
        self._in_flight.clear()
        self._finished = True
        return finalize(self.ledger, self.cfg)

    # -- transmission path --------------------------------------------------

    def _enqueue_packet(self, node: Node, packet) -> None:
        queue = node.queue
        outcome, evicted = queue.enqueue(packet)
        if outcome is _DROPPED_INCOMING:
            if not packet.control:
                self._classify(packet)
                self.ledger.drop_queue += 1
            return
        if evicted is not None:
            self._classify(evicted)
            self.ledger.drop_queue += 1
        if queue.transmitting is None:  # idle: start sending the queue's head
            head = queue.transmitting = queue.pop_head()
            busy_until = self.now + head.size_bytes * 8.0 / self._link_rate
            self.schedule(busy_until, _TRANSMIT_COMPLETE, (node.node_id,))

    def _on_transmit_complete(self, node_id: int) -> None:
        node = self.nodes[node_id]
        queue = node.queue
        packet = queue.transmitting
        if packet is None:
            raise InvariantError(f"node {node_id} completed an idle transmission")
        queue.transmitting = None
        now = self.now
        kind = type(packet)
        if kind is HelloMessage:
            self.ledger.hello_sent += 1
            reachable = True  # its receivers are found at delivery
        else:
            x, y = position_at(node.leg, now)
            ox, oy = position_at(self.nodes[packet.next_hop].leg, now)
            dx = ox - x
            dy = oy - y
            reachable = dx * dx + dy * dy <= self._range_sq
            if kind is RouteRequestPacket:
                self.ledger.rreq_sent += 1
                if not reachable:
                    self.ledger.rreq_losses += 1
            elif kind is RouteReplyPacket:
                self.ledger.rrep_sent += 1
                if not reachable:
                    self.ledger.rrep_losses += 1
            elif not reachable:
                # Next hop drifted out of range: the packet is lost and the
                # flow's source forgets the broken route.
                self._classify(packet)
                self.ledger.drop_forward_fail += 1
                self.nodes[packet.src].router.cache.pop(packet.dst, None)
                if self.trace is not None:
                    self.trace["route_events"](
                        (now, "route_break", packet.flow_id, len(packet.route or ()))
                    )
        if queue._control or queue._data:
            head = queue.transmitting = queue.pop_head()
            busy_until = now + head.size_bytes * 8.0 / self._link_rate
            self.schedule(busy_until, _TRANSMIT_COMPLETE, (node_id,))
        if self.trace is not None:
            self.trace["events"]((now, node_id, "transmit_complete", kind.__name__))
        if reachable:
            # Receive now unless an event is due first (module docstring).
            heap = self._heap
            if heap and heap[0][0] <= now:
                self.schedule(now, _PACKET_DELIVERY, (packet,))
            else:
                self._on_packet_delivery(packet)

    # -- reception path -----------------------------------------------------

    def _on_packet_delivery(self, packet) -> None:
        """Deliver ``packet``: a hello to every node in range of its sender,
        anything else to its next hop."""
        kind = type(packet)
        if kind is HelloMessage:
            self._deliver_hello(packet)
            return
        recipient = packet.next_hop
        node = self.nodes[recipient]
        trace = self.trace
        if trace is not None:
            trace["events"]((self.now, recipient, "receive", kind.__name__))
        if kind is RouteRequestPacket:
            result = routing.process_rreq(node.cluster, packet)
            if result.reply is not None:
                self._enqueue_packet(node, result.reply)
            for copy in result.forwards:
                self._enqueue_packet(node, copy)
        elif kind is RouteReplyPacket:
            reply = routing.process_rrep(node.router, node.cluster, packet)
            if reply is not None:
                self._enqueue_packet(node, reply)
            else:
                route = packet.route
                if trace is not None:
                    trace["route_events"]((self.now, "rrep_recv", route[-1], len(route)))
                self._route_installed(node, route[-1])
        else:
            successor = routing.forward_data(node.cluster, packet)
            if successor is None:
                self._classify(packet)
                self.ledger.record_delivery(self.now - packet.created_at, packet.size_bytes)
                if trace is not None:
                    trace["route_events"](
                        (self.now, "delivery", packet.flow_id, len(packet.route))
                    )
            else:
                packet.next_hop = successor
                self._enqueue_packet(node, packet)

    def _deliver_hello(self, hello: HelloMessage) -> None:
        """Hand ``hello`` to every node inside its sender's closed range disc,
        in id order; each position, the sender's first, is read once."""
        now, nodes = self.now, self.nodes
        sender = nodes[hello.sender_id]
        # Read per call, so a wrapper installed on a module name is the one called.
        position, gain, receive = position_at, channel_gain, clustering.on_hello_received
        sx, sy = position(sender.leg, now)
        range_sq = self._range_sq
        trace = None if self.trace is None else self.trace["events"]
        # Received power at the configured transmit power.  The mobility metric
        # reads only ratios of successive powers, so elections do not depend on
        # its absolute scale.  Placements can put two nodes inside the close-in
        # reference distance; the model saturates there.
        exponent, rng = self.cfg.path_loss_exponent, self._fading_rng
        tx_power = self.cfg.tx_power
        d0 = REFERENCE_DISTANCE
        hypot = math.hypot
        for node in nodes:
            if node is sender:
                continue
            x, y = position(node.leg, now)
            dx = x - sx
            dy = y - sy
            if dx * dx + dy * dy > range_sq:
                continue
            # Same bits as math.dist(sender position, receiver position).
            distance = hypot(dx, dy)
            if trace is not None:
                trace((now, node.node_id, "receive", "HelloMessage"))
            rx_power = tx_power * gain(exponent, d0 if distance < d0 else distance, rng)
            outcome = receive(node.cluster, hello, rx_power, now)
            if outcome.changed or outcome.send_hello:
                self._apply_election_outcome(node, outcome)

    def _apply_election_outcome(self, node: Node, outcome) -> None:
        if outcome.changed:
            self.ledger.record_role_change(
                node.node_id, outcome.old_role, outcome.new_role, self.now
            )
        if outcome.send_hello:
            hello = clustering.build_hello(node.cluster)
            self._enqueue_packet(node, hello)

    # -- timers -------------------------------------------------------------

    def _on_hello_timer(self, node_id: int) -> None:
        node = self.nodes[node_id]
        hello = clustering.build_hello(node.cluster)
        self._enqueue_packet(node, hello)
        jitter = 1.0 + 0.1 * node.hello_rng.uniform(-1.0, 1.0)
        self.schedule(
            self.now + self.cfg.hello_interval * jitter, _HELLO_TIMER, (node_id,)
        )

    def _on_expiry_scan(self, node_id: int) -> None:
        node = self.nodes[node_id]
        removed, outcome = clustering.expire_neighbors(node.cluster, self.now)
        if outcome.changed or outcome.send_hello:
            self._apply_election_outcome(node, outcome)
        self.schedule(
            self.now + self.cfg.hello_interval / 2.0,
            _NEIGHBOR_EXPIRY_SCAN,
            (node_id,),
        )

    def _on_waypoint_arrival(self, node_id: int) -> None:
        node = self.nodes[node_id]
        node.leg = next_leg(node.leg.destination, self.now, self.cfg, node.mobility_rng)
        if math.isfinite(node.leg.pause_until):
            self.schedule(node.leg.pause_until, _WAYPOINT_ARRIVAL, (node_id,))

    # -- traffic and routing glue -------------------------------------------

    def _on_traffic_emit(self, flow_idx: int, k: int) -> None:
        flow = self.flows[flow_idx]
        packet = DataPacket(
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            size_bytes=flow.packet_size,
            created_at=self.now,
        )
        self.ledger.data_sent += 1
        self._in_flight[id(packet)] = packet
        self._dispatch_data(self.nodes[flow.src], packet)
        next_time = flow.start_time + (k + 1) / flow.rate
        if next_time < self.cfg.effective_traffic_stop:
            self.schedule(next_time, _TRAFFIC_EMIT, (flow_idx, k + 1))

    def _dispatch_data(self, node: Node, packet: DataPacket) -> None:
        cached = node.router.cache.get(packet.dst)
        if cached is not None:
            packet.route = cached
            successor = routing.forward_data(node.cluster, packet)
            if successor is None:
                raise InvariantError("flow source equals destination")
            packet.next_hop = successor
            self._enqueue_packet(node, packet)
            return
        pending = node.router.pending.setdefault(packet.dst, deque())
        pending.append(packet)
        if len(pending) > routing.PENDING_LIMIT:
            self._classify(pending.popleft())
            self.ledger.drop_no_route += 1
        if packet.dst not in node.router.discoveries:
            self._originate(node, packet.dst)

    def _originate(self, node: Node, destination: int) -> None:
        result = routing.originate_rreq(node.router, node.cluster, destination)
        if result.installed is not None:
            self._route_installed(node, destination)
            return
        attempts = node.router.discoveries.get(destination, 0) + 1
        node.router.discoveries[destination] = attempts
        for packet in result.packets:
            self._enqueue_packet(node, packet)
        if self.trace is not None:
            self.trace["route_events"](
                (self.now, "rreq_sent", destination, len(result.packets))
            )
        self.schedule(
            self.now + self.cfg.rreq_timeout,
            _ROUTE_RETRY_TIMEOUT,
            (node.node_id, destination, attempts),
        )

    def _on_route_retry(self, node_id: int, destination: int, attempt: int) -> None:
        node = self.nodes[node_id]
        if node.router.discoveries.get(destination) != attempt:
            return  # answered or superseded in the meantime
        if attempt >= 1 + self.cfg.rreq_max_retries:
            node.router.discoveries.pop(destination, None)
            pending = node.router.pending.pop(destination, None)
            for packet in pending or ():
                self._classify(packet)
                self.ledger.drop_no_route += 1
            return
        self._originate(node, destination)

    def _route_installed(self, node: Node, destination: int) -> None:
        """``node`` has just cached a route to ``destination``: end the
        discovery and send the packets that waited for it."""
        node.router.discoveries.pop(destination, None)
        for packet in node.router.pending.pop(destination, ()):
            self._dispatch_data(node, packet)

    # -- accounting ---------------------------------------------------------

    def _classify(self, packet: DataPacket) -> None:
        # The caller holds ``packet``, so no other live packet shares its id.
        if self._in_flight.pop(id(packet), None) is not packet:
            raise InvariantError(f"data packet of flow {packet.flow_id} classified twice")

    # -- introspection ------------------------------------------------------

    def cluster_snapshot(self) -> list[tuple[int, str, tuple[int, ...], float]]:
        """(node, role, heads, mobility value) for every node, in id order."""
        return [
            (
                n.node_id,
                n.cluster.role.value,
                tuple(sorted(n.cluster.head_ids)),
                n.cluster.own_mobility,
            )
            for n in self.nodes
        ]

    def _on_trace_sample(self) -> None:
        now, trace = self.now, self.trace
        for node in self.nodes:
            x, y = position_at(node.leg, now)
            trace["mobility"]((now, node.node_id, x, y))
        for node_id, role, heads, mobility in self.cluster_snapshot():
            trace["clusters"]((now, node_id, role, ";".join(map(str, heads)), mobility))
        self.schedule(now + self.cfg.hello_interval / 2.0, EventKind.TRACE_SAMPLE, ())

    # Event dispatch: each kind's handler, called with the event's payload.
    _HANDLERS = {
        EventKind.PACKET_DELIVERY: _on_packet_delivery,
        EventKind.TRANSMIT_COMPLETE: _on_transmit_complete,
        EventKind.HELLO_TIMER: _on_hello_timer,
        EventKind.TRAFFIC_EMIT: _on_traffic_emit,
        EventKind.WAYPOINT_ARRIVAL: _on_waypoint_arrival,
        EventKind.NEIGHBOR_EXPIRY_SCAN: _on_expiry_scan,
        EventKind.ROUTE_RETRY_TIMEOUT: _on_route_retry,
        EventKind.TRACE_SAMPLE: _on_trace_sample,
    }
