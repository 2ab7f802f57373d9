"""Small-unit coverage: reduce ops, datatypes, GPU streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import psg_gpu, small_test_machine
from repro.mpi import BYTE, FLOAT32, FLOAT64, INT32, INT64, MAX, MIN, PROD, SUM, MpiWorld
from repro.mpi.ops import ALL_OPS


class TestOps:
    def test_sum(self):
        a, b = np.array([1, 2]), np.array([3, 4])
        np.testing.assert_array_equal(SUM(a, b), [4, 6])

    def test_prod(self):
        np.testing.assert_array_equal(PROD(np.array([2, 3]), np.array([4, 5])), [8, 15])

    def test_max_min(self):
        a, b = np.array([1, 9]), np.array([5, 2])
        np.testing.assert_array_equal(MAX(a, b), [5, 9])
        np.testing.assert_array_equal(MIN(a, b), [1, 2])

    @given(
        op_i=st.integers(0, len(ALL_OPS) - 1),
        data=st.lists(st.integers(0, 100), min_size=1, max_size=20),
        data2=st.lists(st.integers(0, 100), min_size=1, max_size=20),
        data3=st.lists(st.integers(0, 100), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_ops_associative_commutative(self, op_i, data, data2, data3):
        n = min(len(data), len(data2), len(data3))
        a = np.array(data[:n], dtype=np.int64)
        b = np.array(data2[:n], dtype=np.int64)
        c = np.array(data3[:n], dtype=np.int64)
        op = ALL_OPS[op_i]
        np.testing.assert_array_equal(op(a, b), op(b, a))
        np.testing.assert_array_equal(op(op(a, b), c), op(a, op(b, c)))


class TestDataTypes:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT32.size == 4 and INT64.size == 8
        assert FLOAT32.size == 4 and FLOAT64.size == 8

    def test_count_for(self):
        assert FLOAT64.count_for(80) == 10
        with pytest.raises(ValueError):
            FLOAT64.count_for(81)

    def test_np_dtype_mapping(self):
        assert np.zeros(1, FLOAT32.np_dtype).dtype == np.float32


class TestGpuStreams:
    def test_streams_round_robin_to_least_loaded(self):
        spec = psg_gpu(nodes=1)
        world = MpiWorld(spec, 4, gpu_bound=True)
        rt = world.ranks[0]
        nbytes = 8 << 20
        done = []
        for _ in range(4):
            rt.reduce_local(nbytes, done.append, len(done), on_gpu=True)
        world.run()
        assert len(done) == 4
        # 4 streams: the four reductions overlap rather than serialize.
        gpu = spec.node.gpu
        serial = 4 * (nbytes / gpu.reduce_bandwidth)
        assert world.engine.now < serial

    def test_offload_on_cpu_machine_rejected(self):
        world = MpiWorld(small_test_machine(), 4)
        with pytest.raises(ValueError):
            world.ranks[0].reduce_local(1024, on_gpu=True)
