"""Due-time latency and lateness accounting of the open-loop generator."""

import heapq
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import loadgen  # noqa: E402


class FakeTransport:
    """Serves request i in service[i] seconds of a fake clock that moves
    only while the generator waits; None drops the request."""

    def __init__(self, service):
        self.now = 100.0
        self.service = service
        self.pending = []  # (done_at, conn, index)
        self.sent = []

    def clock(self):
        return self.now

    def send(self, conn, index):
        self.sent.append((conn, index))
        heapq.heappush(self.pending, (self.now + (self.service[index] or 0.0),
                                      conn, index))

    def wait(self, timeout):
        if self.pending and (timeout is None or
                             self.pending[0][0] <= self.now + timeout):
            done_at, conn, index = heapq.heappop(self.pending)
            self.now = max(self.now, done_at)
            if self.service[index] is None:
                return [(conn, ConnectionError("dropped"))]
            return [(conn, {"index": index})]
        self.now += timeout
        return []


def run_fake(due, service, connections=1):
    t = FakeTransport(service)
    return loadgen.run_open_loop(due, t, connections, clock=t.clock), t


class OpenLoopAccounting(unittest.TestCase):
    def test_idle_generator_sends_on_time(self):
        recs, _ = run_fake([0.0, 0.5, 1.0], [0.1, 0.1, 0.1])
        for rec in recs:
            self.assertAlmostEqual(rec.lateness, 0.0)
            self.assertAlmostEqual(rec.latency, 0.1)
            self.assertEqual(rec.reply, {"index": rec.index})

    def test_stall_is_charged_to_the_requests_it_delays(self):
        # Request 0 takes 0.35 s on the only connection, so requests 1 and 2
        # go out late; their latency runs from when they were due.
        recs, _ = run_fake([0.0, 0.1, 0.2, 0.5], [0.35, 0.01, 0.01, 0.01])
        self.assertAlmostEqual(recs[0].latency, 0.35)
        self.assertAlmostEqual(recs[1].lateness, 0.25)
        self.assertAlmostEqual(recs[1].latency, 0.26)
        self.assertAlmostEqual(recs[2].lateness, 0.16)
        self.assertAlmostEqual(recs[2].latency, 0.17)
        # The backlog has drained by the time request 3 is due.
        self.assertAlmostEqual(recs[3].lateness, 0.0)
        self.assertAlmostEqual(recs[3].latency, 0.01)

    def test_a_free_connection_takes_the_next_due_request(self):
        recs, t = run_fake([0.0, 0.0, 0.1], [0.3, 0.05, 0.05], connections=2)
        self.assertEqual(t.sent, [(0, 0), (1, 1), (1, 2)])
        self.assertAlmostEqual(recs[2].lateness, 0.0)
        self.assertAlmostEqual(recs[2].latency, 0.05)
        self.assertAlmostEqual(recs[0].latency, 0.3)

    def test_a_burst_larger_than_the_connections_queues_in_due_order(self):
        recs, t = run_fake([0.0] * 4, [0.2, 0.1, 0.1, 0.1], connections=2)
        self.assertEqual([i for _, i in t.sent], [0, 1, 2, 3])
        self.assertAlmostEqual(recs[2].lateness, 0.1)
        self.assertAlmostEqual(recs[3].lateness, 0.2)
        self.assertAlmostEqual(recs[3].latency, 0.3)

    def test_unanswered_request_fails_and_its_connection_is_dropped(self):
        recs, t = run_fake([0.0, 0.1, 0.2], [None, 0.01, 0.01], connections=2)
        self.assertIsNone(recs[0].latency)
        self.assertIn("dropped", recs[0].error)
        self.assertEqual([c for c, _ in t.sent], [0, 1, 1])
        self.assertAlmostEqual(recs[2].latency, 0.01)

    def test_requests_left_without_a_connection_fail(self):
        recs, _ = run_fake([0.0, 0.1], [None, 0.01])
        self.assertIn("dropped", recs[0].error)
        self.assertEqual(recs[1].error, "no connection left")
        self.assertIsNone(recs[1].latency)


if __name__ == "__main__":
    unittest.main()
