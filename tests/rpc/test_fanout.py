"""RpcClient.call_all / Node.gather: one callback join per fan-out.

A fan-out sends every request at once and waits on a single event that
succeeds with the replies in call order.  No process is created per
call: a remote call costs its link and service events, and the whole
fan-out adds exactly one join event.  Under a retry policy a silent
peer's slot settles as ``None`` after the policy's last attempt.
"""

import pytest

from repro.net import MessageType, Network, Node, Topology
from repro.net.node import RpcError
from repro.obs.sink import MemorySink
from repro.prof import KernelProfiler
from repro.rpc import RetryPolicy, RpcClient, serve
from repro.sim import RngRegistry, Tracer


def cluster(env, n=4, msg_process_time=0.0, tracer=None):
    topo = Topology(n, RngRegistry(seed=5).stream("topology"))
    network = Network(env, topo, tracer=tracer)
    return [
        Node(env, network, i, msg_process_time=msg_process_time)
        for i in range(n)
    ]


def echo_peers(nodes):
    for node in nodes[1:]:
        serve(node, "ping", lambda msg, i=node.node_id: {"from": i})


class TestJoin:
    def test_replies_come_back_in_call_order(self, env):
        nodes = cluster(env)
        echo_peers(nodes)
        client = RpcClient(nodes[0])
        # Call order deliberately differs from arrival order.
        done = client.call_all("ping", [(3, {}), (1, {}), (2, {})])
        env.run()
        assert [r.payload["from"] for r in done.value] == [3, 1, 2]
        assert client.calls == 3 and client.failures == 0

    def test_each_issue_is_traced_right_before_its_send(self, env):
        tracer = Tracer(enabled=True, categories={"rpc.issue", "net.send"})
        sink = tracer.attach_sink(MemorySink())
        nodes = cluster(env, tracer=tracer)
        echo_peers(nodes)
        RpcClient(nodes[0], tracer=tracer).call_all(
            "ping", [(2, {}), (3, {}), (1, {})]
        )
        events = sink.events[:6]
        assert [e["cat"] for e in events] == ["rpc.issue", "net.send"] * 3
        assert [e["dst"] for e in events] == [2, 2, 3, 3, 1, 1]

    def test_empty_fan_out_succeeds_with_no_replies(self, env):
        nodes = cluster(env)
        done = RpcClient(nodes[0]).call_all("ping", [])
        env.run()
        assert done.value == []

    def test_on_reply_runs_once_per_call_at_reply_time(self, env):
        nodes = cluster(env)
        echo_peers(nodes)
        seen = []
        RpcClient(nodes[0]).call_all(
            "ping", [(1, {}), (2, {})],
            on_reply=lambda i, reply: seen.append((i, reply.payload["from"],
                                                  env.now)),
        )
        env.run()
        topo = nodes[0].network.topology
        assert sorted((i, src) for i, src, _ in seen) == [(0, 1), (1, 2)]
        for _i, src, at in seen:
            assert at == pytest.approx(topo.delay(0, src) + topo.delay(src, 0))

    def test_three_calls_cost_their_messages_plus_one_join(self, env):
        """With a service time each call is 4 events (link + service,
        there and back); the fan-out adds one join event and no Process."""
        nodes = cluster(env, msg_process_time=0.002)
        echo_peers(nodes)
        prof = KernelProfiler().install(env)
        done = RpcClient(nodes[0]).call_all("ping", [(1, {}), (2, {}), (3, {})])
        env.run()
        assert done.processed
        assert env.events_processed == 3 * 4 + 1
        assert prof.snapshot()["by_event"] == {"Event": 1, "Timeout": 12}


class TestRetry:
    POLICY = RetryPolicy(timeout=0.2, max_retries=2, backoff_factor=2.0,
                         backoff_cap=0.8)

    def build(self, env):
        nodes = cluster(env)
        serve(nodes[1], "ping", lambda msg: {"from": 1})
        serve(nodes[3], "ping", lambda msg: {"from": 3})
        # Node 2 is down: it swallows every request without answering.
        swallowed = []
        nodes[2].on(MessageType.PING, swallowed.append)
        return nodes, swallowed

    def test_dead_slot_is_none_after_every_attempt(self, env):
        nodes, swallowed = self.build(env)
        metrics = _Metrics()
        client = RpcClient(nodes[0], policy=self.POLICY, metrics=metrics)
        done = client.call_all("ping", [(1, {}), (2, {}), (3, {})])
        env.run()
        first, dead, last = done.value
        assert first.payload == {"from": 1} and last.payload == {"from": 3}
        assert dead is None
        assert len(swallowed) == self.POLICY.attempts
        assert client.failures == 1
        assert metrics.rpc_timeouts.value == self.POLICY.attempts
        assert metrics.rpc_retries.value == self.POLICY.max_retries
        # the join fires at the dead slot's last expiry
        assert done.processed
        assert env.now == pytest.approx(self.POLICY.worst_case_wait())

    def test_reply_after_final_expiry_is_a_late_reply(self, env):
        nodes, swallowed = self.build(env)
        client = RpcClient(nodes[0], policy=self.POLICY)
        done = client.call_all("ping", [(2, {})])
        env.run()
        assert done.value == [None]
        assert nodes[0].late_replies == 0
        # The peer wakes up and answers its first request, too late.
        nodes[2].reply(swallowed[0], MessageType.PONG, {"from": 2})
        env.run()
        assert nodes[0].late_replies == 1

    def test_one_issue_and_one_done_per_call(self, env):
        nodes, _ = self.build(env)
        tracer = Tracer(enabled=True, categories={"rpc.issue", "rpc.done"})
        sink = tracer.attach_sink(MemorySink())
        client = RpcClient(nodes[0], policy=self.POLICY, tracer=tracer)
        client.call_all("ping", [(1, {}), (2, {}), (3, {})])
        env.run()
        issues = [e for e in sink.events if e["cat"] == "rpc.issue"]
        dones = [e for e in sink.events if e["cat"] == "rpc.done"]
        assert [e["dst"] for e in issues] == [1, 2, 3]
        assert sorted((e["dst"], e["ok"], e["retries"]) for e in dones) == [
            (1, True, 0), (2, False, self.POLICY.max_retries), (3, True, 0)
        ]

    def test_request_raises_on_a_silent_peer(self, env):
        nodes, _ = self.build(env)
        out = {}

        def proc():
            try:
                yield from nodes[0].request(2, MessageType.PING, {},
                                            policy=self.POLICY)
            except RpcError as exc:
                out["err"] = str(exc)

        env.process(proc())
        env.run()
        assert "after 3 attempts" in out["err"]


class _Counter:
    def __init__(self):
        self.value = 0

    def increment(self):
        self.value += 1


class _Metrics:
    def __init__(self):
        self.rpc_timeouts = _Counter()
        self.rpc_retries = _Counter()
