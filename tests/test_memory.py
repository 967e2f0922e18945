"""Peak-allocation gates for packing, encode, decode, repair, helper
downloads and cost tables.

tracemalloc sees numpy's array buffers, so a peak here is the extra memory a
call allocates, measured on 1 MiB of input at k=3 (4 MiB for downloads).
The bounds are in bytes per input byte, or per payload symbol for
downloads.  The cluster commands keep stored symbols narrow and add in
int32 at q=257, so at 8-bit packing one int64 copy of the input blocks
(8 bytes per input byte) would break the encode, decode and repair bounds
on its own.
"""

import tracemalloc

import numpy as np
import pytest

from hadamard_msr import codec
from hadamard_msr.cluster import (
    ClusterState,
    cmd_decode,
    cmd_encode,
    cmd_kill,
    cmd_repair,
    read_repair_payload,
)
from hadamard_msr.metering import emit_table
from hadamard_msr.repair import STRATEGIES, build_repair_plan

SIZE = 1 << 20


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(12).integers(0, 256, SIZE, dtype=np.uint8).tobytes()


def peak_of(fn):
    """(result, peak bytes newly allocated while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The uint8 blocks are the padded input bytes (1.0 measured at q=257); the
# bit path at q=11 also unpacks one byte per input bit and sums 8/3 uint8
# symbols per byte (11.67 measured).
@pytest.mark.parametrize("q", [11, 257])
def test_chunk_file_peak(data, q):
    p = codec.search_params(3, q)
    blocks, peak = peak_of(lambda: codec.chunk_file(data, p))
    assert blocks.dtype == np.uint8
    assert peak <= {11: 11.7, 257: 1.01}[q] * SIZE, peak / SIZE


# The bit path at q=11 narrows, shifts and unpacks 8/3 symbols per byte
# (12.67 measured); at q=257 a symbol is a byte, so the narrowed symbols and
# the returned bytes are all it holds (2.0 measured).
@pytest.mark.parametrize("q", [11, 257])
def test_unchunk_peak(data, q):
    p = codec.search_params(3, q)
    blocks = codec.chunk_file(data, p)
    out, peak = peak_of(lambda: codec.unchunk(blocks, SIZE, p))
    assert out == data
    assert peak <= {11: 12.7, 257: 2.01}[q] * SIZE, peak / SIZE


# The uint8 blocks (1), the int32 products of the second parity (4) and the
# int32 (chunks, 2, N) parities (2.7), then one segment's planes: 8.73
# measured.
def test_encode_peak(data, tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    _, peak = peak_of(lambda: cmd_encode(src, tmp_path / "cluster", k=3, q=257))
    assert peak <= 8.8 * SIZE, peak / SIZE


# Per input byte at q=257: the (chunks, k+2, N) int32 word (6.7), filled
# from the segments one at a time, plus the kernel's int32 output of two rows
# per chunk (2.7): the erased rows and any syndrome that can fire.  One dead
# systematic node adds the syndrome flags of one parity (0.3).  Measured:
# 9.71 with one dead node, 9.34 with two.
def test_decode_peak_one_dead_node(data, tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    root = tmp_path / "cluster"
    cmd_encode(src, root, k=3, q=257)
    cmd_kill(root, 2)
    out, peak = peak_of(lambda: cmd_decode(root))
    assert out == data
    assert peak <= 9.8 * SIZE, peak / SIZE


@pytest.mark.parametrize("dead", [(1, 3), (2, 5)])
def test_decode_peak_two_dead_nodes(data, tmp_path, dead):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    root = tmp_path / "cluster"
    cmd_encode(src, root, k=3, q=257)
    for node in dead:
        cmd_kill(root, node)
    out, peak = peak_of(lambda: cmd_decode(root))
    assert out == data
    assert peak <= 9.4 * SIZE, peak / SIZE


# Per input byte at q=257 (48 input bytes per chunk): the int32 payload
# stack (128 bytes per chunk, 2.7) plus, at the peak, the last helper's
# download in flight (its payload is 0.7; 1.8 on a systematic helper and
# 2.3 on a parity one, see test_helper_download_peak).  Recover then runs
# over windows of chunks into one int32 output (64 bytes per chunk, 1.3),
# so the stack, the output and one window's transform and pair products are
# live; the stack is freed before the segment is written.  5.01 measured
# under both strategies.
@pytest.mark.parametrize("strategy", ["new", "original"])
def test_repair_peak(data, tmp_path, strategy):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    root = tmp_path / "cluster"
    cmd_encode(src, root, k=3, q=257)
    for node in (2, 5):
        segment = ClusterState.load(root).segment_path(node)
        before = segment.read_bytes()
        cmd_kill(root, node)
        _, peak = peak_of(lambda: cmd_repair(root, node, strategy=strategy))
        assert segment.read_bytes() == before
        assert peak <= 5.1 * SIZE, (node, peak / SIZE)


@pytest.fixture(scope="module")
def cluster_4mib(tmp_path_factory):
    """A k=3, q=257 cluster of 4 MiB: 87,382 chunks."""
    tmp = tmp_path_factory.mktemp("download")
    src = tmp / "input.bin"
    src.write_bytes(np.random.default_rng(13).integers(0, 256, 4 * SIZE, dtype=np.uint8).tobytes())
    cmd_encode(src, tmp / "cluster", k=3, q=257)
    return ClusterState.load(tmp / "cluster")


# Per payload symbol, which the download ships as int32 at q=257: the
# helper's stored rows (two symbols per payload symbol), one narrow half in
# flight and the two int32 halves summed in place (8).  A systematic
# helper's rows are bytes (2, one half 1: 11 measured) and a parity
# helper's are uint16 (4 and 2: 14 measured).  The Sylvester transform
# drops the second half and reduces in place; at k=3 it is one product by
# the whole H_8 (hadamard_factors), which adds one payload on top of the
# summed half (rows + 4 + 4), below the peak of the two halves.  The
# parametrized bound is the parity helpers'.
SYSTEMATIC_HELPER_BOUND = 11.1


@pytest.mark.parametrize("strategy,bound", [("new", 14.1), ("original", 14.1)])
def test_helper_download_peak(cluster_4mib, strategy, bound):
    assert cluster_4mib.manifest.chunk_count == 87382
    k = cluster_4mib.params.k
    for node in (2, 5):
        plan = build_repair_plan(cluster_4mib.params, node, strategy)
        for helper in plan.helper_matrices:
            payload, peak = peak_of(lambda: read_repair_payload(cluster_4mib, plan, helper))
            assert payload.shape == (87382, plan.params.n // 2)
            assert payload.dtype == np.int32
            limit = SYSTEMATIC_HELPER_BOUND if helper <= k else bound
            assert peak <= limit * payload.size, (node, helper, peak / payload.size)


# At k=10, N = 2,048: one N x N int64 table is 32 MiB, and counting the
# "original" schedule on the dense Sylvester tables peaked near 1.4 GiB.
# The closed form holds no array over (k+1) N entries, so all 24 plans'
# counts, executions and tables fit in less than one such table together
# (14 MiB measured).
def test_bench_table_peak_k10():
    params = codec.search_params(10)
    build_repair_plan.cache_clear()  # measure fresh plans, not cached ones
    table, peak = peak_of(lambda: emit_table(params, STRATEGIES))
    assert len(table.reports) == 2 * 12 and "OVER_BOUND" not in table.text
    assert peak <= 32 * SIZE, peak / SIZE
