import hashlib
import struct

import numpy as np
import pytest

from hadamard_msr import cluster, codec, metering
from hadamard_msr.cluster import (
    ClusterState,
    IntegrityError,
    Manifest,
    UnrecoverableError,
    UsageError,
    cmd_decode,
    cmd_encode,
    cmd_kill,
    cmd_repair,
    cmd_verify,
    read_repair_payload,
    read_segment,
    write_segment,
)
from hadamard_msr.codec import bits_per_symbol, demo_params, search_params
from hadamard_msr.repair import CompiledRepair
from hadamard_msr.verify import verify_params

from conftest import erasure_patterns


@pytest.fixture
def payload(tmp_path):
    data = bytes(np.random.default_rng(11).integers(0, 256, size=3000, dtype=np.uint8))
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    return path, data


def make_cluster(tmp_path, payload, k=2, demo=True, q=None):
    path, data = payload
    state = cmd_encode(path, tmp_path / "cluster", k=k, q=q, demo=demo)
    return state, data


def node_digest(state, node):
    return hashlib.sha256(state.segment_path(node).read_bytes()).hexdigest()


def tombstone(state, node):
    return state.root / f"node-{node:02d}.seg.dead"


def bury(state, gone):
    """Rename the segments of `gone` to tombstones, as cmd_kill does (which
    refuses a cluster of no chunks); returns the restoring call."""
    for node in gone:
        state.segment_path(node).rename(tombstone(state, node))
    return lambda: [tombstone(state, node).rename(state.segment_path(node)) for node in gone]


# SHA-256 of the five segments, in node order, of a k=3 cluster of
# SEGMENT_DATA (5,120 bytes): pinned so that the encode kernel on packed
# symbols writes exactly what the reducing encode_blocks path wrote
SEGMENT_DATA = b"".join(hashlib.sha256(i.to_bytes(4, "little")).digest() for i in range(160))
SEGMENT_SHA256 = {
    11: "795b040c08904d4e41e07792aed0eef596a13ecbbf60c4a7ce530f90a284f121",
    131: "114d88c50c243e6bdf09fabe15952a3c6c884c69c0a75795dc24ac773da73161",
    257: "7f671fc3a0b1826cd8acfdd6dff5c28e2f1b5c5cad89f609a6a9ce12b1d22612",
}


class TestShardFormat:
    """A segment: one header, then one record (the node's shard) per chunk."""

    def test_round_trip(self, tmp_path, demo_k2, rng):
        rows = rng.integers(0, 7, size=(5, 8), dtype=np.int64)
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 3, rows)
        assert np.array_equal(read_segment(path, demo_k2, 3, 5), rows)
        assert [p.name for p in tmp_path.iterdir()] == ["x.seg"]

    def test_header_layout(self, tmp_path, demo_k2):
        path = tmp_path / "x.seg"
        rows = np.arange(16).reshape(2, 8) % 7
        write_segment(path, demo_k2, 1, rows)
        raw = path.read_bytes()
        assert raw[:4] == b"HMSR"
        magic, version, k, q, node, count = struct.unpack_from("<4sBBHHI", raw)
        assert (version, k, q, node, count) == (2, 2, 7, 1, 2)
        assert len(raw) == 14 + 2 * 2 * 8
        assert raw[14:] == rows.astype("<u2").tobytes()  # row c is chunk c

    def test_wrong_identity_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 3, rng.integers(0, 7, size=(2, 8), dtype=np.int64))
        with pytest.raises(IntegrityError, match="labeled node=3, expected node=4"):
            read_segment(path, demo_k2, 4, 2)

    def test_wrong_code_rejected(self, tmp_path, demo_k2, demo_k3, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 1, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        with pytest.raises(IntegrityError, match="belongs to"):
            read_segment(path, demo_k3, 1, 1)

    def test_truncation_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 1, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        raw = path.read_bytes()
        path.write_bytes(raw[:10])
        with pytest.raises(IntegrityError, match="truncated"):
            read_segment(path, demo_k2, 1, 1)

    def test_bad_magic_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 1, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="magic"):
            read_segment(path, demo_k2, 1, 1)

    def test_bad_version_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 1, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        raw = bytearray(path.read_bytes())
        raw[4] = 1  # format v1 is not read
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="unsupported version 1"):
            read_segment(path, demo_k2, 1, 1)

    def test_size_and_chunk_count_mismatch_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 1, rng.integers(0, 7, size=(3, 8), dtype=np.int64))
        raw = path.read_bytes()
        # the manifest expects another chunk count than the segment holds
        for chunks in (2, 4, 10**12):
            with pytest.raises(IntegrityError, match="wrong size"):
                read_segment(path, demo_k2, 1, chunks)
        # one symbol short of three records
        path.write_bytes(raw[:-2])
        with pytest.raises(IntegrityError, match="wrong size"):
            read_segment(path, demo_k2, 1, 3)
        # one record dropped and the header count left at three
        path.write_bytes(raw[:-16])
        with pytest.raises(IntegrityError, match="wrong size"):
            read_segment(path, demo_k2, 1, 2)
        # the header count changed, the records left as they are
        path.write_bytes(raw[:10] + struct.pack("<I", 2) + raw[14:])
        with pytest.raises(IntegrityError, match="wrong size"):
            read_segment(path, demo_k2, 1, 3)

    def test_out_of_field_symbol_rejected(self, tmp_path, demo_k2):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 1, np.zeros((2, 8), dtype=np.int64))
        raw = bytearray(path.read_bytes())
        raw[-2:] = (9).to_bytes(2, "little")  # 9 >= q = 7, last symbol of chunk 1
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="outside"):
            read_segment(path, demo_k2, 1, 2)

    def test_missing_file(self, tmp_path, demo_k2):
        with pytest.raises(IntegrityError, match="missing"):
            read_segment(tmp_path / "nope.seg", demo_k2, 1, 0)


class TestManifest:
    def test_round_trip(self, tmp_path, demo_k3):
        m = Manifest(params=demo_k3, chunk_count=5, original_length=29)
        m.save(tmp_path)
        loaded = Manifest.load(tmp_path)
        assert loaded == m

    def test_missing_manifest_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="not a cluster"):
            Manifest.load(tmp_path)

    def test_v1_manifest_refused(self, tmp_path, demo_k2):
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        text = (tmp_path / "manifest.txt").read_text().replace("version: 2", "version: 1")
        (tmp_path / "manifest.txt").write_text(text)
        with pytest.raises(IntegrityError, match="unsupported manifest version 1"):
            Manifest.load(tmp_path)

    def test_malformed_line(self, tmp_path, demo_k2):
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        text = (tmp_path / "manifest.txt").read_text()
        (tmp_path / "manifest.txt").write_text(text + "rogue line\n")
        with pytest.raises(IntegrityError, match="key: value"):
            Manifest.load(tmp_path)

    def test_missing_field(self, tmp_path, demo_k2):
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        text = (tmp_path / "manifest.txt").read_text()
        filtered = "\n".join(l for l in text.splitlines() if not l.startswith("packing"))
        (tmp_path / "manifest.txt").write_text(filtered + "\n")
        with pytest.raises(IntegrityError, match="malformed"):
            Manifest.load(tmp_path)

    def test_packing_must_match_q(self, tmp_path, demo_k2):
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        text = (tmp_path / "manifest.txt").read_text().replace("packing: 2", "packing: 3")
        (tmp_path / "manifest.txt").write_text(text)
        with pytest.raises(IntegrityError, match="packing"):
            Manifest.load(tmp_path)

    def test_capacity_check(self, tmp_path, demo_k2):
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        text = (tmp_path / "manifest.txt").read_text().replace(
            "original_length: 4", "original_length: 400"
        )
        (tmp_path / "manifest.txt").write_text(text)
        with pytest.raises(IntegrityError, match="capacity"):
            Manifest.load(tmp_path)

    def test_tampered_coefficients_load_but_fail_validation(self, tmp_path, demo_k2):
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        text = (tmp_path / "manifest.txt").read_text().replace("a: 1,1", "a: 0,1")
        (tmp_path / "manifest.txt").write_text(text)
        loaded = Manifest.load(tmp_path)
        assert loaded.params.a == (0, 1)
        with pytest.raises(IntegrityError, match="coefficients invalid"):
            loaded.validated_params()


class TestEncode:
    def test_layout(self, tmp_path, payload):
        state, data = make_cluster(tmp_path, payload)
        assert state.manifest.original_length == len(data)
        chunks = state.manifest.chunk_count
        assert chunks == -(-len(data) * 8 // (2 * 8 * 2))  # bits / (k*N*packing)
        names = sorted(p.name for p in state.root.iterdir())
        assert names == ["manifest.txt"] + [f"node-0{n}.seg" for n in range(1, 5)]
        for node in range(1, 5):
            assert state.segment_path(node).stat().st_size == 14 + chunks * 8 * 2
        assert ClusterState.load(state.root).dead == ()

    def test_footprint_8kib_k3(self, tmp_path):
        # the benchmark's cluster: one segment per node, no per-chunk files
        path = tmp_path / "input.bin"
        path.write_bytes(bytes(np.random.default_rng(8).integers(0, 256, 8192, dtype=np.uint8)))
        state = cmd_encode(path, tmp_path / "cluster", k=3, q=257)
        chunks, n = state.manifest.chunk_count, state.params.n
        names = sorted(p.name for p in state.root.iterdir())
        assert names == ["manifest.txt"] + [f"node-0{n}.seg" for n in range(1, 6)]  # k+3
        for node in range(1, 6):
            assert state.segment_path(node).stat().st_size == 14 + chunks * n * 2

    def test_existing_cluster_refused(self, tmp_path, payload):
        make_cluster(tmp_path, payload)
        path, _ = payload
        with pytest.raises(UsageError, match="already holds"):
            cmd_encode(path, tmp_path / "cluster", k=2, demo=True)

    def test_missing_input_refused(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            cmd_encode(tmp_path / "absent.bin", tmp_path / "cluster", k=2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        state = cmd_encode(path, tmp_path / "cluster", k=2, demo=True)
        assert state.manifest.chunk_count == 0
        assert cmd_decode(tmp_path / "cluster") == b""

    def test_demo_q_conflict(self, tmp_path, payload):
        path, _ = payload
        with pytest.raises(UsageError, match="conflicts"):
            cmd_encode(path, tmp_path / "cluster", k=2, q=11, demo=True)

    def test_demo_q_match_allowed(self, tmp_path, payload):
        path, _ = payload
        state = cmd_encode(path, tmp_path / "cluster", k=2, q=7, demo=True)
        assert state.params.q == 7

    def test_searched_compact_profile(self, tmp_path, payload):
        path, _ = payload
        state = cmd_encode(path, tmp_path / "cluster", k=4)
        assert state.params.k == 4
        assert bits_per_symbol(state.params.q) >= 3

    def test_decode_untouched(self, tmp_path, payload):
        state, data = make_cluster(tmp_path, payload, k=3)
        assert cmd_decode(state.root) == data

    @pytest.mark.parametrize("q", sorted(SEGMENT_SHA256))
    def test_segments_pinned(self, tmp_path, q):
        src = tmp_path / "input.bin"
        src.write_bytes(SEGMENT_DATA)
        state = cmd_encode(src, tmp_path / "cluster", k=3, q=q)
        p, chunks = state.params, state.manifest.chunk_count
        words = codec.encode_blocks(p, codec.chunk_file(SEGMENT_DATA, p))
        digest = hashlib.sha256()
        for node in range(1, p.k + 3):
            digest.update(state.segment_path(node).read_bytes())
            rows = read_segment(state.segment_path(node), p, node, chunks)
            assert np.array_equal(rows, words[:, node - 1]), node
        assert digest.hexdigest() == SEGMENT_SHA256[q]


class TestKill:
    def test_kill_marks_dead(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 2)
        fresh = ClusterState.load(state.root)
        assert fresh.dead == (2,)
        assert tombstone(state, 2).is_file()
        assert not state.segment_path(2).exists()

    def test_kill_dead_node_refused(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 2)
        with pytest.raises(UsageError, match="already dead"):
            cmd_kill(state.root, 2)

    def test_third_kill_refused(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        cmd_kill(state.root, 3)
        with pytest.raises(UnrecoverableError, match="unrecoverable"):
            cmd_kill(state.root, 4)

    def test_third_kill_forced(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        cmd_kill(state.root, 3)
        cmd_kill(state.root, 4, force=True)
        assert ClusterState.load(state.root).dead == (1, 3, 4)

    def test_kill_repair_kill_cycle(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        cmd_repair(state.root, 1)
        cmd_kill(state.root, 2)
        cmd_kill(state.root, 3)
        assert set(ClusterState.load(state.root).dead) == {2, 3}

    def test_bad_node_id(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        with pytest.raises(UsageError, match="out of range"):
            cmd_kill(state.root, 5)

    def test_empty_cluster_kill_refused(self, tmp_path):
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        cmd_encode(src, tmp_path / "cluster", k=2, demo=True)
        with pytest.raises(UsageError, match="nothing to kill"):
            cmd_kill(tmp_path / "cluster", 1)


class TestRepair:
    @pytest.mark.parametrize("strategy", ["new", "original"])
    def test_restores_identical_shards(self, tmp_path, payload, strategy):
        state, _ = make_cluster(tmp_path, payload)
        for node in range(1, 5):
            before = node_digest(state, node)
            cmd_kill(state.root, node)
            summary = cmd_repair(state.root, node, strategy=strategy)
            assert node_digest(state, node) == before
            assert not tombstone(state, node).exists()
            assert len(list(state.root.iterdir())) == 2 + 3
            assert summary.per_chunk_downloaded == 3 * 4  # (k+1) * N/2

    def test_alive_node_refused(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        with pytest.raises(UsageError, match="alive"):
            cmd_repair(state.root, 1)

    def test_dead_helper_suggests_decode(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        cmd_kill(state.root, 2)
        with pytest.raises(IntegrityError, match="decode"):
            cmd_repair(state.root, 1)

    def test_too_few_nodes_unrecoverable(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        cmd_kill(state.root, 2)
        cmd_kill(state.root, 3, force=True)
        with pytest.raises(UnrecoverableError):
            cmd_repair(state.root, 1)

    def test_unknown_strategy(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        with pytest.raises(UsageError, match="strategy"):
            cmd_repair(state.root, 1, strategy="zigzag")

    def test_access_counting_reader(self, tmp_path, payload):
        # audit every transfer: exactly N/2 symbols leave each helper per chunk
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 3)
        seen = []

        def counting_reader(state_, plan, helper):
            out = read_repair_payload(state_, plan, helper)
            seen.append((helper, out.shape))
            return out

        summary = cmd_repair(state.root, 3, payload_reader=counting_reader)
        chunks = state.manifest.chunk_count
        assert sorted(seen) == [(h, (chunks, 4)) for h in (1, 2, 4)]
        tally = {helper: shape[0] * shape[1] for helper, shape in seen}
        assert summary.shipped == tally == {1: 4 * chunks, 2: 4 * chunks, 4: 4 * chunks}
        assert summary.downloaded_symbols == 3 * 4 * chunks

    @pytest.mark.parametrize("strategy", ["new", "original"])
    def test_malformed_payload_rejected(self, tmp_path, payload, strategy):
        # a shipped payload must be exactly (chunks, N/2): broadcasting would
        # otherwise stretch (N/2,) or (1, N/2) over every chunk
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        chunks = state.manifest.chunk_count
        for bad in (np.zeros((chunks, 5)), np.zeros(4), np.zeros((1, 4))):
            for victim in (2, 3, 4):

                def reader(state_, plan, helper):
                    out = read_repair_payload(state_, plan, helper)
                    return bad if helper == victim else out

                with pytest.raises(IntegrityError, match=f"helper {victim} shipped"):
                    cmd_repair(state.root, 1, strategy=strategy, payload_reader=reader)
                assert not state.segment_path(1).exists()
                assert tombstone(state, 1).is_file()
                assert sorted(p.name for p in state.root.iterdir()) == [
                    "manifest.txt",
                    "node-01.seg.dead",
                    "node-02.seg",
                    "node-03.seg",
                    "node-04.seg",
                ]
        cmd_repair(state.root, 1, strategy=strategy)
        assert cmd_decode(state.root) == payload[1]

    @pytest.mark.parametrize("strategy", ["new", "original"])
    def test_out_of_field_payload_rejected(self, tmp_path, payload, strategy):
        # a well-shaped payload with a symbol outside F_q, or not of an
        # integer dtype, must not reach the stack: it would be wrapped or
        # truncated into a wrong segment
        path, data = payload
        state = cmd_encode(path, tmp_path / "cluster", k=3, q=257)
        before = node_digest(state, 2)
        cmd_kill(state.root, 2)
        for helper in (1, 3, 4, 5):
            for symbol, dtype, label in (
                (300, np.int64, "symbols outside F_257"),
                (-1, np.int64, "symbols outside F_257"),
                (None, np.float64, "float64 symbols"),
            ):

                def reader(state_, plan, helper_, symbol=symbol, dtype=dtype):
                    out = read_repair_payload(state_, plan, helper_)
                    if helper_ != helper:
                        return out
                    bad = out.astype(dtype)
                    if symbol is not None:
                        bad[0, 0] = symbol
                    return bad

                with pytest.raises(IntegrityError, match=f"helper {helper} shipped {label}"):
                    cmd_repair(state.root, 2, strategy=strategy, payload_reader=reader)
                assert not state.segment_path(2).exists()
                assert tombstone(state, 2).is_file()
        cmd_repair(state.root, 2, strategy=strategy)
        assert node_digest(state, 2) == before
        assert cmd_decode(state.root) == data

    @pytest.mark.parametrize("strategy", ["new", "original"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_empty_cluster_repair(self, tmp_path, k, strategy):
        # kill refuses an empty cluster, so the segment is tombstoned by hand
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        state = cmd_encode(src, tmp_path / "cluster", k=k, demo=True)
        for node in range(1, k + 3):
            segment = state.segment_path(node)
            before = segment.read_bytes()
            segment.rename(tombstone(state, node))
            summary = cmd_repair(state.root, node, strategy=strategy)
            assert summary.chunks == 0 and summary.downloaded_symbols == 0
            assert segment.read_bytes() == before
            assert not tombstone(state, node).exists()
            assert cmd_decode(state.root) == b""

    def test_k8_original_restores_identical_segments(self, tmp_path):
        # k=8, q=19: N = 512 and 2,048 input bytes per chunk, so 3 chunks
        src = tmp_path / "input.bin"
        src.write_bytes(bytes(np.random.default_rng(8).integers(0, 256, 5000, dtype=np.uint8)))
        state = cmd_encode(src, tmp_path / "cluster", k=8)
        assert (state.params.n, state.manifest.chunk_count) == (512, 3)
        for node in range(1, 11):
            before = node_digest(state, node)
            cmd_kill(state.root, node)
            cmd_repair(state.root, node, strategy="original")
            assert node_digest(state, node) == before, node

    def test_k10_round_trip(self, tmp_path):
        # k=10, q=23: N = 2,048 and 10,240 input bytes per chunk, so 3 chunks;
        # both strategies restore a systematic node and both parities, and
        # the data then decodes with two nodes dead
        src = tmp_path / "input.bin"
        data = bytes(np.random.default_rng(10).integers(0, 256, 25000, dtype=np.uint8))
        src.write_bytes(data)
        state = cmd_encode(src, tmp_path / "cluster", k=10)
        assert (state.params.q, state.params.n, state.manifest.chunk_count) == (23, 2048, 3)
        assert state.params.chunk_bytes == 10240
        for node in (1, 11, 12):
            before = node_digest(state, node)
            for strategy in ("new", "original"):
                cmd_kill(state.root, node)
                cmd_repair(state.root, node, strategy=strategy)
                assert node_digest(state, node) == before, (node, strategy)
        for node in (1, 12):
            cmd_kill(state.root, node)
        assert cmd_decode(state.root) == data

    @pytest.mark.parametrize("strategy", ["new", "original"])
    @pytest.mark.parametrize("chunks", [4, 7, 24])
    def test_repair_window_edges(self, tmp_path, monkeypatch, chunks, strategy):
        # windows of 7 chunks: one short window, one exact window, and three
        # full windows plus a remainder of 3
        monkeypatch.setattr(cluster, "REPAIR_WINDOW", 7)
        calls = []
        recover = CompiledRepair.recover

        def spy(self, payloads):
            calls.append(payloads.shape[0])
            return recover(self, payloads)

        monkeypatch.setattr(CompiledRepair, "recover", spy)
        params = demo_params(3)
        src = tmp_path / "input.bin"
        size = chunks * params.chunk_bytes - 1
        src.write_bytes(bytes(np.random.default_rng(chunks).integers(0, 256, size, dtype=np.uint8)))
        state = cmd_encode(src, tmp_path / "cluster", k=3, demo=True)
        assert state.manifest.chunk_count == chunks
        for node in range(1, 6):
            before = node_digest(state, node)
            cmd_kill(state.root, node)
            calls.clear()
            cmd_repair(state.root, node, strategy=strategy)
            assert calls == [7] * (chunks // 7) + [chunks % 7] * (chunks % 7 > 0), node
            assert node_digest(state, node) == before, node
        assert cmd_decode(state.root) == src.read_bytes()

    def test_op_totals_scale_with_chunks(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        summary = cmd_repair(state.root, 1, strategy="new")
        chunks = state.manifest.chunk_count
        assert summary.adds == 28 * chunks
        assert sum(summary.muls_by_phase.values()) == summary.muls

    def test_tampered_manifest_blocks_repair(self, tmp_path, payload):
        # a_2 = 2 breaks the norm constraint: 4 - 16 = 2 != -1 mod 7
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        mpath = state.root / "manifest.txt"
        mpath.write_text(mpath.read_text().replace("a: 1,1", "a: 1,2"))
        with pytest.raises(IntegrityError, match="coefficients invalid"):
            cmd_repair(state.root, 1)


class TestDecode:
    def test_all_two_node_failures(self, tmp_path):
        import itertools

        data = bytes(np.random.default_rng(5).integers(0, 256, size=64, dtype=np.uint8))
        src = tmp_path / "small.bin"
        src.write_bytes(data)
        for gone in itertools.combinations(range(1, 5), 2):
            root = tmp_path / f"cluster-{gone[0]}{gone[1]}"
            cmd_encode(src, root, k=2, demo=True)
            for node in gone:
                cmd_kill(root, node)
            assert cmd_decode(root) == data

    @pytest.mark.parametrize("q", [11, 257])  # bit path, cast path
    def test_matches_api_decode_for_every_pattern(self, tmp_path, q):
        # cmd_decode runs the decode kernel on read_segment's rows; the
        # API's reducing decode of the same rows gives the same bytes
        data = bytes(np.random.default_rng(q).integers(0, 256, size=1000, dtype=np.uint8))
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        state = cmd_encode(src, tmp_path / "cluster", k=3, q=q)
        p, chunks = state.params, state.manifest.chunk_count
        for gone in erasure_patterns(p.k):
            restore = bury(state, gone)
            alive = [m for m in range(1, p.k + 3) if m not in gone]
            rows = {m: read_segment(state.segment_path(m), p, m, chunks) for m in alive}
            api = codec.unchunk(codec.decode(p, rows)[:, : p.k], len(data), p)
            assert cmd_decode(state.root) == api == data, gone
            restore()

    @pytest.mark.parametrize("q", [11, 257])
    def test_round_trip_lengths(self, tmp_path, q):
        c = search_params(3, q).chunk_bytes
        rng = np.random.default_rng(c)
        for length in (0, 1, c - 1, c + 1):
            data = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
            src = tmp_path / f"input-{length}.bin"
            src.write_bytes(data)
            state = cmd_encode(src, tmp_path / f"cluster-{length}", k=3, q=q)
            assert state.manifest.chunk_count == -(-length // c)
            for gone in [(), (2,), (5,), (1, 3), (4, 5)]:
                restore = bury(state, gone)
                assert cmd_decode(state.root) == data, (length, gone)
                restore()

    def test_symbol_outside_a_byte_refused(self, tmp_path):
        # at q=257 a stored or rebuilt 256 is a field element, so every
        # syndrome passes, but no byte: unchunk refuses it before the cast
        p = search_params(3, 257)
        data = bytes(range(200))
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        state = cmd_encode(src, tmp_path / "cluster", k=3, q=257)
        blocks = codec.chunk_file(data, p)
        blocks[1, 0, 3] = 256
        words = codec.encode_blocks(p, blocks)
        for node in range(1, p.k + 3):
            write_segment(state.segment_path(node), p, node, words[:, node - 1])
        for gone in [(), (1,), (1, 2), (4, 5)]:
            restore = bury(state, gone)
            with pytest.raises(IntegrityError, match="^corrupt symbol stream"):
                cmd_decode(state.root)
            restore()

    def test_output_file(self, tmp_path, payload):
        state, data = make_cluster(tmp_path, payload)
        out = tmp_path / "restored.bin"
        cmd_decode(state.root, out_path=out)
        assert out.read_bytes() == data

    def test_three_dead_unrecoverable(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        cmd_kill(state.root, 2)
        cmd_kill(state.root, 3, force=True)
        with pytest.raises(UnrecoverableError, match="alive"):
            cmd_decode(state.root)

    @staticmethod
    def bump(state, node, chunk):
        """Add one to the first symbol of a record (still a field element)."""
        segment = state.segment_path(node)
        raw = bytearray(segment.read_bytes())
        at = 14 + 2 * chunk * state.params.n
        val = int.from_bytes(raw[at : at + 2], "little")
        raw[at : at + 2] = ((val + 1) % state.params.q).to_bytes(2, "little")
        segment.write_bytes(bytes(raw))

    def test_corrupt_shard_detected(self, tmp_path, payload):
        # the decode cross-check against the second parity catches a bumped
        # symbol of a survivor
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 1)
        self.bump(state, 2, 0)
        with pytest.raises(IntegrityError) as err:
            cmd_decode(state.root)
        assert str(err.value) == (
            "chunk 0 failed to decode: surviving node 4 is inconsistent with decoded data"
        )

    def test_lowest_bad_chunk_named(self, tmp_path, payload):
        # chunk 3 is bad in the first parity, chunk 1 in the second: the
        # lower chunk is named, whichever parity caught it
        state, _ = make_cluster(tmp_path, payload)
        self.bump(state, 3, 3)
        self.bump(state, 4, 1)
        with pytest.raises(IntegrityError) as err:
            cmd_decode(state.root)
        assert str(err.value) == (
            "chunk 1 failed to decode: surviving node 4 is inconsistent with decoded data"
        )
        # both parities bad in one chunk: the first parity is named
        self.bump(state, 3, 1)
        with pytest.raises(IntegrityError) as err:
            cmd_decode(state.root)
        assert str(err.value) == (
            "chunk 1 failed to decode: surviving node 3 is inconsistent with decoded data"
        )


class TestVerify:
    def test_fresh_cluster_passes(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        ok, lines = cmd_verify(root=state.root)
        assert ok
        # one rank line covers both strategies
        assert [l for l in lines if "rank condition" in l] == ["ok: rank conditions: 8/8 pass"]
        assert not any(l.startswith("FAIL") for l in lines)

    def test_params_mode(self, demo_k3):
        ok, lines = verify_params(demo_k3)
        assert ok

    def test_tampered_manifest_fails(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        mpath = state.root / "manifest.txt"
        mpath.write_text(mpath.read_text().replace("a: 1,1", "a: 0,1"))
        ok, lines = cmd_verify(root=state.root)
        assert not ok
        assert any("a_1 is zero" in l for l in lines)

    def test_dead_nodes_noted(self, tmp_path, payload):
        state, _ = make_cluster(tmp_path, payload)
        cmd_kill(state.root, 4)
        ok, lines = cmd_verify(root=state.root)
        assert ok
        assert any("dead nodes [4]" in l for l in lines)


class TestBenchCommand:
    def test_tables_for_demo_and_searched(self):
        tables = metering.cmd_bench([2], strategies=("new",))
        assert len(tables) == 1
        assert "node=1 strategy=new add=28" in tables[0].text
