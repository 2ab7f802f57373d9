"""Unit + property tests for message segmentation and config."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.segmentation import segment_offsets, segment_sizes
from repro.config import CollectiveConfig, RuntimeConfig
from repro.mpi.payload import assemble_payload, slice_payload


class TestSegmentSizes:
    def test_exact_split(self):
        cfg = CollectiveConfig(segment_size=1024)
        assert cfg.segments_for(4096) == [1024] * 4

    def test_tail_segment(self):
        cfg = CollectiveConfig(segment_size=1024)
        assert cfg.segments_for(2500) == [1024, 1024, 452]

    def test_small_message_single_segment(self):
        cfg = CollectiveConfig(segment_size=1024)
        assert cfg.segments_for(10) == [10]

    def test_zero_bytes(self):
        assert CollectiveConfig().segments_for(0) == [0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CollectiveConfig().segments_for(-1)

    def test_max_segments_grows_segment_size(self):
        cfg = CollectiveConfig(segment_size=1, max_segments=8)
        sizes = cfg.segments_for(1000)
        assert len(sizes) <= 8
        assert sum(sizes) == 1000

    def test_offsets(self):
        assert segment_offsets([3, 4, 5]) == [0, 3, 7]


@given(
    nbytes=st.integers(min_value=0, max_value=10_000_000),
    seg=st.integers(min_value=1, max_value=1_000_000),
    max_segments=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_property_segments_partition_message(nbytes, seg, max_segments):
    cfg = CollectiveConfig(segment_size=seg, max_segments=max_segments)
    sizes = cfg.segments_for(nbytes)
    assert sum(sizes) == max(nbytes, 0)
    assert len(sizes) <= max(max_segments, 1)
    assert all(s >= 0 for s in sizes)
    # Only the last segment may be smaller than the rest.
    if len(sizes) > 1:
        assert all(s == sizes[0] for s in sizes[:-1])
        assert sizes[-1] <= sizes[0]
        assert sizes[-1] > 0


@given(nbytes=st.integers(min_value=1, max_value=100_000), seg=st.integers(1, 9999))
@settings(max_examples=80, deadline=None)
def test_property_slice_assemble_roundtrip(nbytes, seg):
    cfg = CollectiveConfig(segment_size=seg)
    sizes = cfg.segments_for(nbytes)
    rng = np.random.default_rng(nbytes)
    payload = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
    parts = slice_payload(payload, sizes)
    back = assemble_payload(parts)
    np.testing.assert_array_equal(back, payload)


class TestSlicePayload:
    def test_none_passthrough(self):
        assert slice_payload(None, [4, 4]) == [None, None]
        assert assemble_payload([None, np.zeros(4, np.uint8)]) is None

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            slice_payload(np.zeros(10, np.uint8), [4, 4])

    def test_multibyte_dtype_reinterpreted(self):
        payload = np.arange(4, dtype=np.float64)  # 32 bytes
        parts = slice_payload(payload, [16, 16])
        assert parts[0].nbytes == 16
        back = assemble_payload(parts)
        np.testing.assert_array_equal(back.view(np.float64), payload)


class TestConfigs:
    def test_with_returns_new_instance(self):
        c = CollectiveConfig()
        c2 = c.with_(segment_size=1)
        assert c.segment_size != 1 and c2.segment_size == 1
        r = RuntimeConfig()
        r2 = r.with_(eager_threshold=1)
        assert r.eager_threshold != 1 and r2.eager_threshold == 1

    def test_adapt_depths_default_m_greater_n(self):
        # The paper's rule: M > N to avoid unexpected messages.
        c = CollectiveConfig()
        assert c.posted_recvs > c.inflight_sends
