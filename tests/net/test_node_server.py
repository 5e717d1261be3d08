"""Tests for the per-node serial message server (congestion model)."""

import pytest

from repro.net import MessageType, Network, Node, Topology
from repro.sim import Environment, RngRegistry


def build(env, n=3, msg_process_time=0.0):
    topo = Topology(n, RngRegistry(seed=4).stream("topo"))
    net = Network(env, topo)
    nodes = [
        Node(env, net, i, msg_process_time=msg_process_time) for i in range(n)
    ]
    return net, nodes


class TestSerialServer:
    def test_zero_service_time_dispatches_inline(self, env):
        net, nodes = build(env, msg_process_time=0.0)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(env.now))
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert seen == [net.topology.delay(0, 1)]
        assert nodes[1].messages_processed == 0  # server bypassed

    def test_service_time_delays_dispatch(self, env):
        net, nodes = build(env, msg_process_time=0.01)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(env.now))
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert seen == [pytest.approx(net.topology.delay(0, 1) + 0.01)]
        assert nodes[1].messages_processed == 1

    def test_burst_queues_serially(self, env):
        net, nodes = build(env, msg_process_time=0.01)
        seen = []
        nodes[2].on(MessageType.PING, lambda m: seen.append(env.now))
        for _ in range(5):
            nodes[0].send(2, MessageType.PING)
        env.run()
        # All five arrive together but dispatch 10ms apart.
        gaps = [b - a for a, b in zip(seen, seen[1:])]
        assert all(g == pytest.approx(0.01) for g in gaps)
        # Waits of 1..5 service periods: 0.01 + 0.02 + ... + 0.05.
        assert nodes[2].total_queueing_delay == pytest.approx(0.15)

    def test_burst_costs_one_service_event_per_message(self, env):
        """The server is a completion-callback chain, not a process: a
        5-message burst is 5 link Timeouts plus 5 service Timeouts."""
        net, nodes = build(env, msg_process_time=0.01)
        nodes[2].on(MessageType.PING, lambda m: None)
        for _ in range(5):
            nodes[0].send(2, MessageType.PING)
        env.run()
        assert nodes[2].messages_processed == 5
        assert env.events_processed == 10

    def test_server_idles_and_restarts(self, env):
        net, nodes = build(env, msg_process_time=0.005)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(env.now))

        def driver(env):
            nodes[0].send(1, MessageType.PING)
            yield env.timeout(1.0)  # let the server drain and go idle
            nodes[0].send(1, MessageType.PING)

        env.process(driver(env))
        env.run()
        assert len(seen) == 2
        assert nodes[1].messages_processed == 2

    def test_fifo_order_preserved_under_service(self, env):
        net, nodes = build(env, msg_process_time=0.002)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(m.payload["i"]))
        for i in range(8):
            nodes[0].send(1, MessageType.PING, {"i": i})
        env.run()
        assert seen == list(range(8))

    def test_rpc_still_works_through_server(self, env):
        net, nodes = build(env, msg_process_time=0.003)
        nodes[1].on(
            MessageType.PING,
            lambda m: nodes[1].reply(m, MessageType.PONG, {"ok": True}),
        )

        def client(env):
            reply = yield from nodes[0].request(1, MessageType.PING)
            return reply.payload["ok"]

        proc = env.process(client(env))
        assert env.run(until=proc) is True


class TestGather:
    def test_gather_joins_replies_without_a_process(self, env):
        net, nodes = build(env, msg_process_time=0.003)
        for node in nodes[1:]:
            node.on(
                MessageType.PING,
                lambda m, node=node: node.reply(
                    m, MessageType.PONG, {"from": node.node_id}
                ),
            )
        done = nodes[0].gather(MessageType.PING, [(2, None), (1, None)])
        env.run()
        assert [r.payload["from"] for r in done.value] == [2, 1]
        # 2 calls x (link + service, both ways) + the one join event
        assert env.events_processed == 2 * 4 + 1
        assert nodes[0]._pending_replies == {}
