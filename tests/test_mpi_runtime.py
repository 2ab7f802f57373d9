"""Integration tests for the simulated MPI runtime (p2p protocols, matching,
callbacks, proclets)."""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.machine import small_test_machine
from repro.mpi import Compute, MpiWorld, ProcletDriver, Sleep, WaitAll, WaitAny


def make_world(nranks=8, carry_data=True, observe=False, **cfg):
    spec = small_test_machine()
    config = RuntimeConfig(**cfg) if cfg else RuntimeConfig()
    return MpiWorld(spec, nranks, config=config, carry_data=carry_data, observe=observe)


EAGER = 1024          # below default 16 KiB threshold
RNDV = 256 * 1024     # above it


class TestEagerProtocol:
    def test_payload_delivered(self):
        w = make_world()
        data = np.arange(256, dtype=np.float32)
        req = w.ranks[1].irecv(src=0, tag=7, nbytes=EAGER)
        w.ranks[0].isend(dst=1, tag=7, nbytes=EAGER, data=data)
        w.run()
        assert req.completed
        np.testing.assert_array_equal(req.data, data)

    def test_send_completes_locally_before_recv_posted(self):
        # Buffered semantics: eager send completes even with no recv posted.
        w = make_world()
        sreq = w.ranks[0].isend(dst=1, tag=0, nbytes=EAGER)
        w.run()
        assert sreq.completed

    def test_unexpected_message_pays_copy(self):
        w = make_world()
        # Send first; recv posted much later -> unexpected path.
        w.ranks[0].isend(dst=1, tag=3, nbytes=EAGER)
        w.run()
        assert w.total_unexpected() == 1
        rreq = w.ranks[1].irecv(src=0, tag=3, nbytes=EAGER)
        w.run()
        assert rreq.completed
        # Expected path for comparison: posting first avoids the copy.
        w2 = make_world()
        rreq2 = w2.ranks[1].irecv(src=0, tag=3, nbytes=EAGER)
        w2.ranks[0].isend(dst=1, tag=3, nbytes=EAGER)
        w2.run()
        assert w2.total_unexpected() == 0

    def test_payload_buffered_at_send_time(self):
        # Mutating the source array after isend must not corrupt delivery.
        w = make_world()
        data = np.ones(16, dtype=np.float64)
        rreq = w.ranks[1].irecv(src=0, tag=1, nbytes=128)
        w.ranks[0].isend(dst=1, tag=1, nbytes=128, data=data)
        data[:] = -1.0
        w.run()
        np.testing.assert_array_equal(rreq.data, np.ones(16))


class TestRendezvousProtocol:
    def test_transfer_completes_both_sides(self):
        w = make_world()
        data = np.arange(RNDV // 8, dtype=np.float64)
        rreq = w.ranks[4].irecv(src=0, tag=9, nbytes=RNDV)
        sreq = w.ranks[0].isend(dst=4, tag=9, nbytes=RNDV, data=data)
        w.run()
        assert sreq.completed and rreq.completed
        np.testing.assert_array_equal(rreq.data, data)
        # Send completes when the data drains, after recv matching started.
        assert sreq.completion_time > 0

    def test_sender_stalls_until_recv_posted(self):
        # Rendezvous: without a posted recv, the send request never completes.
        w = make_world()
        sreq = w.ranks[0].isend(dst=1, tag=5, nbytes=RNDV)
        w.run()
        assert not sreq.completed
        rreq = w.ranks[1].irecv(src=0, tag=5, nbytes=RNDV)
        w.run()
        assert sreq.completed and rreq.completed

    def test_receiver_noise_delays_sender(self):
        # The paper's Section 2.1.1 mechanism: noise on the receiver delays
        # the (rendezvous) sender's completion.
        def run(noise):
            w = make_world()
            if noise:
                w.inject_noise(1, 5e-3)
            rreq = w.ranks[1].irecv(src=0, tag=0, nbytes=RNDV)
            sreq = w.ranks[0].isend(dst=1, tag=0, nbytes=RNDV)
            w.run()
            return sreq.completion_time

        assert run(True) > run(False) + 4e-3

    def test_cross_node_transfer(self):
        w = make_world(nranks=24)
        rreq = w.ranks[8].irecv(src=0, tag=0, nbytes=RNDV)
        w.ranks[0].isend(dst=8, tag=0, nbytes=RNDV)
        w.run()
        assert rreq.completed
        t_cross = rreq.completion_time
        w2 = make_world(nranks=24)
        rreq2 = w2.ranks[1].irecv(src=0, tag=0, nbytes=RNDV)
        w2.ranks[0].isend(dst=1, tag=0, nbytes=RNDV)
        w2.run()
        assert rreq2.completion_time < t_cross


class TestCallbacks:
    def test_callback_fires_on_completion(self):
        w = make_world()
        seen = []
        rreq = w.ranks[1].irecv(src=0, tag=0, nbytes=EAGER)
        rreq.add_callback(lambda req: seen.append(w.engine.now))
        w.ranks[0].isend(dst=1, tag=0, nbytes=EAGER)
        w.run()
        assert len(seen) == 1
        assert seen[0] >= rreq.completion_time

    def test_callback_added_after_completion_still_fires(self):
        w = make_world()
        rreq = w.ranks[1].irecv(src=0, tag=0, nbytes=EAGER)
        w.ranks[0].isend(dst=1, tag=0, nbytes=EAGER)
        w.run()
        seen = []
        rreq.add_callback(lambda req: seen.append(req))
        w.run()
        assert seen == [rreq]

    def test_callback_can_post_more_operations(self):
        # The ADAPT pattern: recv completion posts the next recv.
        w = make_world()
        completed = []

        def chain(req):
            completed.append(req.tag)
            if req.tag < 3:
                nxt = w.ranks[1].irecv(src=0, tag=req.tag + 1, nbytes=EAGER)
                nxt.add_callback(chain)

        first = w.ranks[1].irecv(src=0, tag=0, nbytes=EAGER)
        first.add_callback(chain)
        for tag in range(4):
            w.ranks[0].isend(dst=1, tag=tag, nbytes=EAGER)
        w.run()
        assert completed == [0, 1, 2, 3]


class TestProclets:
    def test_blocking_ping_pong(self):
        w = make_world()

        def pinger(rt):
            yield rt.isend(dst=1, tag=0, nbytes=EAGER)
            req = rt.irecv(src=1, tag=1, nbytes=EAGER)
            yield req
            return "ponged"

        def ponger(rt):
            yield rt.irecv(src=0, tag=0, nbytes=EAGER)
            yield rt.isend(dst=0, tag=1, nbytes=EAGER)

        d0 = ProcletDriver(w.ranks[0], pinger(w.ranks[0]))
        d1 = ProcletDriver(w.ranks[1], ponger(w.ranks[1]))
        w.run()
        assert d0.done and d1.done
        assert d0.result == "ponged"

    def test_waitall(self):
        w = make_world()

        def sender(rt):
            reqs = [rt.isend(dst=1, tag=t, nbytes=RNDV) for t in range(3)]
            yield WaitAll(reqs)
            return w.engine.now

        def receiver(rt):
            reqs = [rt.irecv(src=0, tag=t, nbytes=RNDV) for t in range(3)]
            yield WaitAll(reqs)

        ds = ProcletDriver(w.ranks[0], sender(w.ranks[0]))
        dr = ProcletDriver(w.ranks[1], receiver(w.ranks[1]))
        w.run()
        assert ds.done and dr.done

    def test_waitany_returns_first(self):
        w = make_world(nranks=24)

        def receiver(rt):
            fast = rt.irecv(src=1, tag=0, nbytes=EAGER)     # intra-socket
            slow = rt.irecv(src=8, tag=0, nbytes=RNDV)      # inter-node
            idx, req = yield WaitAny([slow, fast])
            return idx

        dr = ProcletDriver(w.ranks[0], receiver(w.ranks[0]))
        w.ranks[1].isend(dst=0, tag=0, nbytes=EAGER)
        w.ranks[8].isend(dst=0, tag=0, nbytes=RNDV)
        w.run()
        assert dr.result == 1  # the fast intra-socket recv finished first

    def test_compute_charges_cpu(self):
        w = make_world()

        def worker(rt):
            yield Compute(1e-3)
            return w.engine.now

        d = ProcletDriver(w.ranks[0], worker(w.ranks[0]))
        w.run()
        assert d.result == pytest.approx(1e-3)
        assert w.ranks[0].cpu.busy_time >= 1e-3

    def test_sleep_does_not_charge_cpu(self):
        w = make_world()

        def worker(rt):
            yield Sleep(1e-3)

        ProcletDriver(w.ranks[0], worker(w.ranks[0]))
        w.run()
        assert w.ranks[0].cpu.busy_time == pytest.approx(0.0)
        assert w.engine.now == pytest.approx(1e-3)

    def test_unsupported_awaitable_raises(self):
        w = make_world()

        def worker(rt):
            yield 42

        ProcletDriver(w.ranks[0], worker(w.ranks[0]))
        with pytest.raises(TypeError):
            w.run()


class TestRuntimeValidation:
    def test_self_send_rejected(self):
        w = make_world()
        with pytest.raises(ValueError):
            w.ranks[0].isend(dst=0, tag=0, nbytes=10)
        with pytest.raises(ValueError):
            w.ranks[0].irecv(src=0, tag=0, nbytes=10)

    def test_a_request_completes_once(self):
        w = make_world()
        req = w.ranks[1].irecv(src=0, tag=0, nbytes=EAGER)
        w.ranks[0].isend(dst=1, tag=0, nbytes=EAGER)
        w.run()
        with pytest.raises(RuntimeError, match="request completed twice"):
            req._complete(w.engine.now)

    def test_cancel_recv_of_a_completed_request_is_refused(self):
        w = make_world()
        req = w.ranks[1].irecv(src=0, tag=0, nbytes=EAGER)
        w.ranks[0].isend(dst=1, tag=0, nbytes=EAGER)
        w.run()
        assert not w.ranks[1].cancel_recv(req)
        assert req.completed and not req.cancelled

    def test_timing_mode_drops_payloads(self):
        w = make_world(carry_data=False)
        rreq = w.ranks[1].irecv(src=0, tag=0, nbytes=EAGER)
        w.ranks[0].isend(dst=1, tag=0, nbytes=EAGER, data=np.ones(4))
        w.run()
        assert rreq.completed and rreq.data is None

    def test_trace_records_events(self):
        # Each request is one span from post to completion on its rank.
        w = make_world(observe=True)
        rreq = w.ranks[1].irecv(src=0, tag=0, nbytes=EAGER)
        sreq = w.ranks[0].isend(dst=1, tag=0, nbytes=EAGER)
        w.run()
        spans = {s.cat: s for s in w.obs.spans if s.cat in ("send", "recv")}
        assert sorted(spans) == ["recv", "send"]
        for req, s in ((sreq, spans["send"]), (rreq, spans["recv"])):
            assert s.track == ("rank", req.rank)
            assert (s.begin, s.end) == (0.0, req.completion_time)
            assert s.args == {"tag": 0, "nbytes": EAGER, "peer": req.peer}

    def test_gpu_reduce_offload_frees_cpu(self):
        from repro.machine import psg_gpu

        spec = psg_gpu(nodes=1)
        w = MpiWorld(spec, 4, gpu_bound=True)
        nbytes = 32 << 20
        w.ranks[0].reduce_local(nbytes, on_gpu=True)
        w.run()
        gpu_cpu_busy = w.ranks[0].cpu.busy_time
        w2 = MpiWorld(spec, 4, gpu_bound=True)
        w2.ranks[0].reduce_local(nbytes, on_gpu=False)
        w2.run()
        assert gpu_cpu_busy < w2.ranks[0].cpu.busy_time / 100
