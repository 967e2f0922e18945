import builtins
import hashlib
import os
import shutil
import signal
import struct
from pathlib import Path

import numpy as np
import pytest

from hadamard_msr import cluster, codec, metering
from hadamard_msr.cli import main
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
from hadamard_msr.repair import CompiledRepair, build_repair_plan
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


def width(params, node):
    """The format's width rule, stated apart from the code: a systematic
    node stores its packing width, a parity node the bits of q - 1."""
    return bits_per_symbol(params.q) if node <= params.k else (params.q - 1).bit_length()


def reference_body(symbols, w):
    """The documented body of a segment, built from Python ints: w // 8 byte
    planes, low byte first, then the w % 8 bits above them, one bit plane
    each and lowest first, eight symbols to a byte, the first in the high
    bit."""
    symbols = [int(s) for s in symbols]
    body = b"".join(bytes((s >> 8 * p) & 0xFF for s in symbols) for p in range(w // 8))
    for bit in range(8 * (w // 8), w):
        plane = "".join(str(s >> bit & 1) for s in symbols)
        body += int(plane or "0", 2).to_bytes(len(symbols) // 8, "big")
    return body


def symbol_bits(w, m, i):
    """(byte offset, mask, weight) of each bit of symbol i in a segment of m
    symbols at w bits, from the offsets the README gives: chunk c starts at
    byte 14 + p*M + c*N in byte plane p and at 14 + (w//8)*M + j*M/8 + c*N/8
    in bit plane j."""
    out = [(14 + p * m + i, 1 << b, 1 << (8 * p + b)) for p in range(w // 8) for b in range(8)]
    for j in range(w % 8):
        at = 14 + (w // 8) * m + j * m // 8 + i // 8
        out.append((at, 0x80 >> i % 8, 1 << (8 * (w // 8) + j)))
    return out


def get_symbol(raw, w, m, i):
    return sum(weight for at, mask, weight in symbol_bits(w, m, i) if raw[at] & mask)


def set_symbol(raw: bytearray, w, m, i, value):
    for at, mask, weight in symbol_bits(w, m, i):
        raw[at] = raw[at] | mask if value & weight else raw[at] & ~mask


def encode_with_256(tmp_path):
    """A k=3, q=257 cluster and the codewords of its blocks with a 256 in
    node 1's chunk 1: a field element that no input byte packs to, so only
    parities that encode it can rebuild it."""
    p = search_params(3, 257)
    data = bytes(range(200))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    state = cmd_encode(src, tmp_path / "cluster", k=3, q=257)
    blocks = codec.chunk_file(data, p).astype(np.int64)  # uint8 cannot hold 256
    blocks[1, 0, 3] = 256
    return state, p, codec.encode_blocks(p, blocks)


# SHA-256 of the five format-v3 segments, in node order, of a k=3 cluster of
# SEGMENT_DATA (5,120 bytes): pinned so that the encode kernel on packed
# symbols writes exactly what the reducing encode_blocks path wrote
SEGMENT_DATA = b"".join(hashlib.sha256(i.to_bytes(4, "little")).digest() for i in range(160))
SEGMENT_SHA256 = {
    11: "c88a974106b1be0538607c3fa94ec383288629bbd2c43d471bb623c820c8f54a",
    131: "324fa46fe67277c07974ac4cc866adcc9e5b5b0a91c350110925c1956e29c170",
    257: "1fe1be73f6d150183c967c6eb121ab7bb3973c485e726767bb3c90c5bf4f84e2",
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
        # at q=7 a systematic node stores 2-bit symbols, a parity node 3-bit ones
        for node, w, limit in [(1, 2, 4), (3, 3, 7)]:
            rows = np.arange(16).reshape(2, 8) % limit
            write_segment(path, demo_k2, node, rows)
            raw = path.read_bytes()
            assert raw[:4] == b"HMSR"
            magic, version, k, q, node_id, count = struct.unpack_from("<4sBBHHI", raw)
            assert (version, k, q, node_id, count) == (3, 2, 7, node, 2)
            assert w == width(demo_k2, node)
            assert len(raw) == 14 + 2 * 8 * w // 8
            assert raw[14:] == reference_body(rows.ravel(), w)  # row c is chunk c
            for i, value in enumerate(rows.ravel()):
                assert get_symbol(raw, w, 16, i) == value

    def test_wrong_identity_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 3, rng.integers(0, 7, size=(2, 8), dtype=np.int64))
        with pytest.raises(IntegrityError, match="labeled node=3, expected node=4"):
            read_segment(path, demo_k2, 4, 2)

    def test_wrong_code_rejected(self, tmp_path, demo_k2, demo_k3, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 3, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        with pytest.raises(IntegrityError, match="belongs to"):
            read_segment(path, demo_k3, 3, 1)

    def test_truncation_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 3, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        raw = path.read_bytes()
        path.write_bytes(raw[:10])
        with pytest.raises(IntegrityError, match="truncated"):
            read_segment(path, demo_k2, 3, 1)

    def test_bad_magic_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 3, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="magic"):
            read_segment(path, demo_k2, 3, 1)

    def test_bad_version_rejected(self, tmp_path, demo_k2, rng):
        path = tmp_path / "x.seg"
        write_segment(path, demo_k2, 3, rng.integers(0, 7, size=(1, 8), dtype=np.int64))
        raw = bytearray(path.read_bytes())
        for old in (2, 1):  # formats v2 and v1 are not read
            raw[4] = old
            path.write_bytes(bytes(raw))
            with pytest.raises(IntegrityError, match=f"unsupported version {old}"):
                read_segment(path, demo_k2, 3, 1)

    def test_size_and_chunk_count_mismatch_rejected(self, tmp_path, demo_k2, rng):
        for node in (1, 3):  # 2-bit and 3-bit symbols at q=7
            self.check_size_mismatch(tmp_path, demo_k2, rng, node)

    @staticmethod
    def check_size_mismatch(tmp_path, demo_k2, rng, node):
        path = tmp_path / "x.seg"
        limit = 1 << width(demo_k2, node) if node <= 2 else 7
        write_segment(path, demo_k2, node, rng.integers(0, limit, size=(3, 8), dtype=np.int64))
        raw = path.read_bytes()
        record = 8 * width(demo_k2, node) // 8  # bytes per chunk, over all planes
        assert len(raw) == 14 + 3 * record
        # the manifest expects another chunk count than the segment holds
        for chunks in (2, 4, 10**12):
            with pytest.raises(IntegrityError, match="wrong size"):
                read_segment(path, demo_k2, node, chunks)
        # one byte short of three records, and one byte over
        for body in (raw[:-1], raw + b"\0"):
            path.write_bytes(body)
            with pytest.raises(IntegrityError, match="wrong size"):
                read_segment(path, demo_k2, node, 3)
        # one record's bytes dropped and the header count left at three
        path.write_bytes(raw[:-record])
        with pytest.raises(IntegrityError, match="wrong size"):
            read_segment(path, demo_k2, node, 2)
        # the header count changed, the records left as they are
        path.write_bytes(raw[:10] + struct.pack("<I", 2) + raw[14:])
        with pytest.raises(IntegrityError, match="wrong size"):
            read_segment(path, demo_k2, node, 3)

    def test_out_of_field_symbol_rejected(self, tmp_path):
        # a parity slot of w bits holds values in [q, 2**w): the reader refuses them
        for q, bad in [(7, 7), (257, 300), (257, 511)]:
            p = demo_params(2) if q == 7 else search_params(3, q)
            node, m = p.k + 2, 2 * p.n
            path = tmp_path / "x.seg"
            write_segment(path, p, node, np.zeros((2, p.n), dtype=np.int64))
            raw = bytearray(path.read_bytes())
            set_symbol(raw, width(p, node), m, m - 1, bad)  # last symbol of chunk 1
            path.write_bytes(bytes(raw))
            with pytest.raises(IntegrityError, match=f"outside F_{q}$"):
                read_segment(path, p, node, 2)
            set_symbol(raw, width(p, node), m, m - 1, q - 1)
            path.write_bytes(bytes(raw))
            assert read_segment(path, p, node, 2)[1, -1] == q - 1

    @pytest.mark.parametrize("q", [7, 11, 17, 67, 131, 257, 521, 1031, 2053, 4099, 8209, 32749])
    @pytest.mark.parametrize("chunks", [0, 1, 3, 171])
    def test_every_width_round_trips(self, tmp_path, q, chunks):
        # systematic widths 2, 3, 4, 6, 7 and 8, parity widths 3, 4, 5 and 7 to
        # 15: each at random values and at its largest
        p = codec.CodeParams(2, q, (1, 1), (1, 1), check=False)
        rng = np.random.default_rng([q, chunks])
        for node in (1, 3):
            w = width(p, node)
            top = (1 << w) - 1 if node <= p.k else q - 1
            path = tmp_path / f"node-{node}.seg"
            for rows in (
                rng.integers(0, top + 1, size=(chunks, p.n)),
                np.full((chunks, p.n), top),
            ):
                write_segment(path, p, node, rows)
                raw = path.read_bytes()
                assert len(raw) == 14 + chunks * p.n * w // 8
                assert raw[14:] == reference_body(rows.ravel(), w)
                back = read_segment(path, p, node, chunks)
                assert back.dtype == (np.uint8 if w <= 8 else np.uint16)
                assert not back.flags.writeable
                assert np.array_equal(back, rows)

    @pytest.mark.parametrize("q", [7, 257])
    def test_symbol_a_node_cannot_hold_refused(self, tmp_path, q):
        # nothing is written: no segment, no temp file
        p = demo_params(2) if q == 7 else search_params(3, q)
        path = tmp_path / "x.seg"
        sys_top, parity_top = (1 << bits_per_symbol(q)) - 1, q - 1
        cases = [
            (1, sys_top + 1, f"not below 2\\*\\*{bits_per_symbol(q)}"),
            (1, -1, f"not below 2\\*\\*{bits_per_symbol(q)}"),
            (p.k + 1, parity_top + 1, f"outside F_{q}"),
            (p.k + 2, -1, f"outside F_{q}"),
        ]
        # values that narrowing to 16 bits would wrap into range (5, 0 and
        # 3), or to 32 bits (5, and 2**31 to a negative int32)
        wrapping = [
            (p.k + 1, value, f"outside F_{q}", dtype)
            for value, dtype in [
                (65541, np.int64),
                (1 << 16, np.int64),
                (-65533, np.int64),
                (2**32 + 5, np.int64),
                (2**31, np.int64),
                (2**32 + 5, np.uint64),
            ]
        ]

        def refused(node, value, match, dtype=np.int64):
            rows = np.zeros((3, p.n), dtype=dtype)
            rows[2, 5] = value
            with pytest.raises(IntegrityError, match=f"^node {node} symbol {value} is {match};"):
                write_segment(path, p, node, rows)

        for case in cases + wrapping:
            refused(*case)
            assert list(tmp_path.iterdir()) == []
        # a refused write leaves the segment already there untouched
        write_segment(path, p, p.k + 1, np.ones((3, p.n), dtype=np.int64))
        before = path.read_bytes()
        for case in wrapping:
            refused(*case)
            assert path.read_bytes() == before
            assert list(tmp_path.iterdir()) == [path]

    def test_negative_narrow_symbol_refused(self, tmp_path):
        # an int8 -1 viewed unsigned is 255, below the systematic limit 256 at
        # q = 257; it must not be stored as 255
        p = search_params(3, 257)
        path = tmp_path / "x.seg"
        for node, match in ((1, "not below 2\\*\\*8"), (p.k + 1, "outside F_257")):
            for dtype in (np.int8, np.int16):
                rows = np.zeros((2, p.n), dtype=dtype)
                rows[1, 3] = -1
                with pytest.raises(IntegrityError, match=f"^node {node} symbol -1 is {match};"):
                    write_segment(path, p, node, rows)
                assert list(tmp_path.iterdir()) == []
        # every int8 value from 0 up is a byte a systematic node holds
        rows = np.arange(128, dtype=np.int8).reshape(-1, p.n)
        write_segment(path, p, 1, rows)
        assert np.array_equal(read_segment(path, p, 1, rows.shape[0]), rows)

    def test_parity_byte_rows_still_scanned(self, tmp_path):
        # uint8 rows can hold 200, outside F_131, though a parity node there
        # is 8 bits wide: only a dtype that cannot reach the limit is trusted
        p = codec.CodeParams(3, 131, (1, 1, 1), (2, 3, 4), check=False)
        assert width(p, p.k + 1) == 8
        rows = np.zeros((2, p.n), dtype=np.uint8)
        rows[0, 1] = 200
        with pytest.raises(IntegrityError, match="^node 4 symbol 200 is outside F_131;"):
            write_segment(tmp_path / "x.seg", p, p.k + 1, rows)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]
    )
    @pytest.mark.parametrize("limit", [7, 131, 256, 257, 32749])
    def test_first_outside_matches_a_two_sided_check(self, dtype, limit):
        info = np.iinfo(dtype)
        edges = {0, 1, limit - 1, limit, limit + 1, -1, -limit, info.min, info.max, info.max // 2}
        values = [v for v in sorted(edges) if info.min <= v <= info.max]
        for bad in values:
            a = np.zeros(20, dtype=dtype)[::2]  # strided, as a column of a word is
            a[3] = bad
            expected = None if 0 <= bad < limit else bad
            assert cluster._first_outside(a, limit) == expected, (bad, limit)
        assert cluster._first_outside(np.zeros((0, 8), dtype=dtype), limit) is None

    def test_short_writes_resume(self, tmp_path, monkeypatch):
        # writev may store fewer bytes than asked: the writer resumes inside
        # the first unwritten buffer until every plane is out
        p = search_params(3, 257)
        rows = np.random.default_rng(5).integers(0, 257, size=(9, p.n))
        path = tmp_path / "x.seg"
        write_segment(path, p, p.k + 1, rows)
        whole = path.read_bytes()
        calls = []

        def short(fd, buffers):
            calls.append(len(buffers))
            return os.write(fd, bytes(buffers[0][:5]))

        monkeypatch.setattr(os, "writev", short)
        for in_place in (False, True):
            calls.clear()
            write_segment(path, p, p.k + 1, rows, in_place=in_place)
            assert path.read_bytes() == whole
            assert len(calls) > len(whole) // 5 and calls[0] == 3  # header and two planes
        assert np.array_equal(read_segment(path, p, p.k + 1, 9), rows)

    def test_short_reads_resume(self, tmp_path, payload, monkeypatch):
        # a read may return fewer bytes than asked, as one over 2 GiB does:
        # the reader goes on, so encode stores the whole input and a good
        # segment and manifest still read
        path, data = payload
        reads, os_read = [], os.read

        def short(fd, n):
            reads.append(n)
            return os_read(fd, min(n, 7))

        monkeypatch.setattr(os, "read", short)
        state = cmd_encode(path, tmp_path / "cluster", k=3, q=257)
        assert len(reads) > len(data) // 7
        assert state.manifest.original_length == len(data)
        assert Manifest.load(state.root).original_length == len(data)
        p = state.manifest.params
        rows = read_segment(state.segment_path(p.k + 1), p, p.k + 1, state.manifest.chunk_count)
        assert rows.shape == (state.manifest.chunk_count, p.n)
        assert cmd_decode(state.root) == data
        cmd_kill(state.root, 1)
        cmd_kill(state.root, 4)
        assert cmd_decode(state.root) == data

    @pytest.mark.parametrize("told", [0, 5, 100])
    def test_read_goes_past_the_size_fstat_told(self, tmp_path, told):
        # a file that grew after its fstat, or whose size reads as 0 as some
        # pseudo-files do, is read to its end
        path = tmp_path / "x.bin"
        path.write_bytes(bytes(range(256)) * 1000)
        st = os.stat(path)
        st = os.stat_result((st.st_mode, 0, 0, 1, 0, 0, told, 0, 0, 0))
        fd = os.open(path, os.O_RDONLY)
        try:
            assert cluster._read_fd(fd, st) == path.read_bytes()
        finally:
            os.close(fd)

    def test_longer_segment_read_no_further(self, tmp_path, demo_k2, rng, monkeypatch):
        # a segment one byte or 1 MiB too long is refused with the size
        # message, after reading at most one byte past the expected size
        path = tmp_path / "x.seg"
        w = width(demo_k2, 1)
        write_segment(path, demo_k2, 1, rng.integers(0, 1 << w, size=(4, 8)))
        good = path.read_bytes()
        expected = 14 + 4 * 8 * w // 8
        assert len(good) == expected
        read, os_read = [], os.read

        def counting_read(fd, n):
            out = os_read(fd, n)
            read.append((n, len(out)))
            return out

        monkeypatch.setattr(os, "read", counting_read)
        for extra in (1, 1 << 20):
            path.write_bytes(good + b"\0" * extra)
            read.clear()
            with pytest.raises(
                IntegrityError, match=r"x\.seg has wrong size for 4 chunks \(4 in its header\)$"
            ):
                read_segment(path, demo_k2, 1, 4)
            assert read == [(expected + 1, expected + 1)]
        path.write_bytes(good)
        read.clear()
        assert read_segment(path, demo_k2, 1, 4).shape == (4, 8)
        assert read == [(expected + 1, expected)]

    def test_non_integer_rows_refused(self, tmp_path, demo_k2):
        # the range check reads the rows unsigned at their own width, which
        # only integers allow
        path = tmp_path / "x.seg"
        for dtype in (np.float64, np.bool_):
            with pytest.raises(ValueError, match=f"integer symbols, not {np.dtype(dtype)}"):
                write_segment(path, demo_k2, 3, np.ones((2, 8), dtype=dtype))
        assert list(tmp_path.iterdir()) == []

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
        text = (tmp_path / "manifest.txt").read_text()
        assert "version: 3\n" in text
        for old in (2, 1):  # neither v2 nor v1 clusters are read
            (tmp_path / "manifest.txt").write_text(text.replace("version: 3", f"version: {old}"))
            with pytest.raises(IntegrityError, match=f"unsupported manifest version {old}"):
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

    @pytest.mark.parametrize(
        "kind", ["directory", "fifo", "device", "symlink loop", "under a file"]
    )
    def test_manifest_not_a_regular_file_is_usage_error(self, tmp_path, kind):
        # the manifest is opened without a stat first; whatever is there in its
        # place, root is no cluster, and a FIFO must not block the open
        root = tmp_path / "cluster"
        root.mkdir()
        manifest = root / "manifest.txt"
        if kind == "directory":
            manifest.mkdir()
        elif kind == "fifo":
            os.mkfifo(manifest)
        elif kind == "device":
            manifest.symlink_to(os.devnull)
        elif kind == "symlink loop":
            manifest.symlink_to(manifest)
        else:
            root.rmdir()
            root.write_text("a file, not a directory\n")
        with pytest.raises(UsageError, match=f"^{root} is not a cluster \\(no manifest.txt\\)$"):
            Manifest.load(root)
        with pytest.raises(UsageError, match="is not a cluster"):
            ClusterState.load(root)

    def test_coefficients_checked_once_per_parameter_set(self, tmp_path, demo_k2, monkeypatch):
        calls = []
        violations = codec.coefficient_violations

        def counting(*args):
            calls.append(args)
            return violations(*args)

        monkeypatch.setattr(codec, "coefficient_violations", counting)
        cluster._checked_params.cache_clear()
        m = Manifest(params=demo_k2, chunk_count=1, original_length=4)
        assert m.validated_params() == m.validated_params() == demo_k2
        assert len(calls) == 1
        # a failing set is not cached: every call checks it again and raises
        bad = Manifest(
            params=codec.CodeParams(2, 7, (0, 1), (3, 4), check=False),
            chunk_count=1,
            original_length=4,
        )
        for expected in (2, 3):
            with pytest.raises(IntegrityError, match="coefficients invalid: invalid coefficients"):
                bad.validated_params()
            assert len(calls) == expected

    def test_parse_memoized_on_the_text_read(self, tmp_path, demo_k2, monkeypatch):
        # the file is opened on every load; an unchanged manifest skips the
        # parse, an edited one is parsed afresh
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        opened, builtin_opened = [], []
        os_open, open_ = os.open, builtins.open

        def counting_os_open(path, *args, **kwargs):
            opened.append(path)
            return os_open(path, *args, **kwargs)

        def counting_open(path, *args, **kwargs):
            builtin_opened.append(path)
            return open_(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_os_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        cluster._parse_manifest.cache_clear()
        first = Manifest.load(tmp_path)
        assert Manifest.load(tmp_path) is first
        info = cluster._parse_manifest.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        text = (tmp_path / "manifest.txt").read_text()
        (tmp_path / "manifest.txt").write_text(text.replace("chunk_count: 1", "chunk_count: 2"))
        edited = Manifest.load(tmp_path)
        assert (edited.chunk_count, first.chunk_count) == (2, 1)
        assert cluster._parse_manifest.cache_info().misses == 2
        assert [Path(p).name for p in opened].count("manifest.txt") == 3
        assert builtin_opened == []

    @pytest.mark.parametrize(
        "bad, match",
        [
            (b"rogue line\n", "key: value"),
            (b"\xff\xfe\n", "not UTF-8 text: invalid start byte"),
        ],
        ids=["malformed", "non-utf8"],
    )
    def test_malformed_manifest_raises_every_call(self, tmp_path, demo_k2, bad, match):
        Manifest(params=demo_k2, chunk_count=1, original_length=4).save(tmp_path)
        with open(tmp_path / "manifest.txt", "ab") as f:
            f.write(bad)
        cluster._parse_manifest.cache_clear()
        for _ in range(3):
            with pytest.raises(IntegrityError, match=match):
                Manifest.load(tmp_path)
            info = cluster._parse_manifest.cache_info()
            assert (info.hits, info.currsize) == (0, 0)

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
        # q=7: systematic symbols take 2 bits, parity symbols 3
        for node, w in zip(range(1, 5), (2, 2, 3, 3)):
            assert state.segment_path(node).stat().st_size == 14 + chunks * 8 * w // 8
        assert ClusterState.load(state.root).dead == ()

    def test_footprint_8kib_k3(self, tmp_path):
        # the benchmark's cluster: one segment per node, no per-chunk files
        path = tmp_path / "input.bin"
        path.write_bytes(bytes(np.random.default_rng(8).integers(0, 256, 8192, dtype=np.uint8)))
        state = cmd_encode(path, tmp_path / "cluster", k=3, q=257)
        chunks, n = state.manifest.chunk_count, state.params.n
        names = sorted(p.name for p in state.root.iterdir())
        assert names == ["manifest.txt"] + [f"node-0{n}.seg" for n in range(1, 6)]  # k+3
        # q=257: a systematic node stores bytes, a parity node 9 bits a symbol
        assert (chunks, n) == (171, 16)
        sizes = {p.name: p.stat().st_size for p in state.root.iterdir()}
        for node in range(1, 6):
            w = 8 if node <= 3 else 9
            assert sizes[f"node-0{node}.seg"] == 14 + chunks * n * w // 8
        assert [sizes[f"node-0{node}.seg"] for node in range(1, 6)] == [2750] * 3 + [3092] * 2
        assert sizes["manifest.txt"] == 95
        assert sum(sizes.values()) == 14529  # 1.774 stored bytes per input byte

    def test_existing_cluster_refused(self, tmp_path, payload):
        make_cluster(tmp_path, payload)
        path, _ = payload
        with pytest.raises(UsageError, match="already holds"):
            cmd_encode(path, tmp_path / "cluster", k=2, demo=True)
        # the message names the directory as a Path does, trailing slash dropped
        with pytest.raises(UsageError, match=f"^{tmp_path / 'cluster'} already holds a cluster$"):
            cmd_encode(str(path), f"{tmp_path / 'cluster'}/", k=2, demo=True)

    @pytest.mark.parametrize(
        "kind", ["missing", "under a file", "dangling symlink", "symlink loop", "directory"]
    )
    def test_input_classified_by_its_open(self, tmp_path, payload, kind):
        # the one open of the input tells these apart, with the messages the
        # stat checks gave, and before an existing cluster is noticed
        path, _ = payload
        make_cluster(tmp_path, payload)
        bad = {
            "missing": tmp_path / "absent.bin",
            "under a file": path / "x",
            "dangling symlink": tmp_path / "dangling",
            "symlink loop": tmp_path / "loop",
            "directory": tmp_path,
        }[kind]
        if kind == "dangling symlink":
            bad.symlink_to(tmp_path / "absent.bin")
        elif kind == "symlink loop":
            bad.symlink_to(bad)
        if kind == "directory":
            expected = f"input {bad} is a directory, not a file"
        else:
            expected = f"input file {bad} not found"
        for arg in (bad, str(bad)):
            with pytest.raises(UsageError) as err:
                cmd_encode(arg, tmp_path / "cluster", k=2, demo=True)
            assert str(err.value) == expected

    def test_stale_segments_overwritten(self, tmp_path, payload):
        # an interrupted encode leaves segments but no manifest; encoding
        # into that directory truncates them in place
        path, data = payload
        fresh = cmd_encode(path, tmp_path / "fresh", k=3, q=257)
        root = tmp_path / "cluster"
        root.mkdir()
        (root / "node-01.seg").write_bytes(b"stale" * 10_000)  # longer than the segment
        (root / "node-03.seg").write_bytes(b"x")
        (root / "node-05.seg").write_bytes(fresh.segment_path(4).read_bytes())
        state = cmd_encode(path, root, k=3, q=257)
        for node in range(1, 6):
            assert node_digest(state, node) == node_digest(fresh, node), node
        assert sorted(p.name for p in root.iterdir()) == sorted(
            p.name for p in fresh.root.iterdir()
        )
        assert cmd_decode(root) == data

    @pytest.mark.parametrize("target", ["file", "dangling"])
    def test_symlink_at_segment_refused(self, tmp_path, payload, capsys, target):
        # encode writes segments in place and follows no link there: the
        # link's target is left as it was and no cluster is made
        path, _ = payload
        root = tmp_path / "cluster"
        root.mkdir()
        linked = tmp_path / "precious.bin"
        if target == "file":
            linked.write_bytes(b"keep these bytes\n")
        (root / "node-01.seg").symlink_to(linked)
        argv = ["encode", str(path), str(root), "--k", "2", "--demo"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        seg = root / "node-01.seg"
        assert err == f"error: [Errno 40] Too many levels of symbolic links: '{seg}'\n"
        if target == "file":
            assert linked.read_bytes() == b"keep these bytes\n"
        else:
            assert not linked.exists()
        assert (root / "node-01.seg").is_symlink()
        assert sorted(p.name for p in root.iterdir()) == ["node-01.seg"]

    @pytest.mark.parametrize("kind", ["hard link", "fifo", "fifo with a reader"])
    def test_shared_or_special_file_at_segment_refused(self, tmp_path, payload, capsys, kind):
        # encode truncates a stale segment in place, so a file another name
        # shares, or a FIFO, is refused before any of it changes; the open
        # of a FIFO does not wait for a reader
        path, _ = payload
        root = tmp_path / "cluster"
        root.mkdir()
        seg = root / "node-02.seg"
        other = tmp_path / "precious.bin"
        reader = None
        if kind == "hard link":
            other.write_bytes(b"keep these bytes\n")
            os.link(other, seg)
        else:
            os.mkfifo(seg)
            if kind == "fifo with a reader":
                reader = os.open(seg, os.O_RDONLY | os.O_NONBLOCK)

        def waited(*_):
            raise TimeoutError("encode blocked on the FIFO")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            code = main(["encode", str(path), str(root), "--k", "2", "--demo"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if reader is not None:
                assert os.read(reader, 1 << 16) == b""  # nothing went into the pipe
                os.close(reader)
        assert code == 2
        err = capsys.readouterr().err
        if kind == "fifo":
            assert err == f"error: [Errno 6] No such device or address: '{seg}'\n"
        else:
            assert err == f"error: {seg} is not a regular file of its own; not written\n"
        if kind == "hard link":
            assert other.read_bytes() == b"keep these bytes\n"
            assert os.stat(seg).st_nlink == 2
        assert sorted(p.name for p in root.iterdir()) == ["node-01.seg", "node-02.seg"]
        assert main(["decode", str(root)]) == 1  # no manifest: no cluster
        seg.unlink()
        assert main(["encode", str(path), str(root), "--k", "2", "--demo"]) == 0

    def test_hard_link_at_repair_temp_file_refused(self, tmp_path, payload, capsys):
        # the temp file is truncated in place too: a link there is refused,
        # then removed by the failed write's cleanup, so a rerun succeeds
        path, data = payload
        state = cmd_encode(path, tmp_path / "cluster", k=2, demo=True)
        cmd_kill(state.root, 3)
        other = tmp_path / "precious.bin"
        other.write_bytes(b"keep these bytes\n")
        os.link(other, state.root / "node-03.seg.tmp")
        assert main(["repair", str(state.root), "3"]) == 2
        assert "is not a regular file of its own; not written" in capsys.readouterr().err
        assert other.read_bytes() == b"keep these bytes\n"
        assert not (state.root / "node-03.seg.tmp").exists()
        assert main(["repair", str(state.root), "3"]) == 0
        assert cmd_decode(state.root) == data

    def test_one_rename_and_k_plus_3_files_written(self, tmp_path, payload, monkeypatch):
        # each segment is opened once for writing at its own name, and the
        # manifest's temp file is the one rename
        path, data = payload
        root = tmp_path / "cluster"
        os_open, replace = os.open, os.replace
        written, renamed = [], []

        def counting_open(name, flags, *args, **kwargs):
            if flags & (os.O_WRONLY | os.O_RDWR):
                written.append((Path(name), flags))
            return os_open(name, flags, *args, **kwargs)

        def counting_replace(src, dst):
            renamed.append((Path(src), Path(dst)))
            return replace(src, dst)

        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(os, "replace", counting_replace)
        state = cmd_encode(path, root, k=3, q=257)
        create = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_NONBLOCK
        assert written == [(root / f"node-0{n}.seg", create) for n in range(1, 6)] + [
            (root / "manifest.txt.tmp", create)
        ]
        assert renamed == [(root / "manifest.txt.tmp", root / "manifest.txt")]
        assert cmd_decode(state.root) == data

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
        padded = SEGMENT_DATA.ljust(chunks * p.chunk_bytes, b"\0")
        digest = hashlib.sha256()
        for node in range(1, p.k + 3):
            raw = state.segment_path(node).read_bytes()
            digest.update(raw)
            rows = read_segment(state.segment_path(node), p, node, chunks)
            assert np.array_equal(rows, words[:, node - 1]), node
            assert raw[14:] == reference_body(words[:, node - 1].ravel(), width(p, node))
            if q == 257 and node <= p.k:
                # a systematic node stores its slice of the padded input verbatim
                slices = np.frombuffer(padded, np.uint8).reshape(chunks, p.k, p.n)
                assert raw[14:] == slices[:, node - 1].tobytes()
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

    @pytest.mark.parametrize("strategy", ["new", "original"])
    def test_symbol_outside_a_byte_not_written(self, tmp_path, capsys, strategy):
        # repair rebuilds node 1's 256 from the parities, then exits 2,
        # writes no segment and keeps the tombstone
        state, p, words = encode_with_256(tmp_path)
        cmd_kill(state.root, 1)
        for node in range(2, p.k + 3):
            write_segment(state.segment_path(node), p, node, words[:, node - 1])
        grave = tombstone(state, 1).read_bytes()
        names = sorted(f.name for f in state.root.iterdir())
        assert main(["repair", str(state.root), "1", "--strategy", strategy]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: node 1 symbol 256 is not below 2**8; ")
        assert sorted(f.name for f in state.root.iterdir()) == names  # no segment, no temp
        assert tombstone(state, 1).read_bytes() == grave
        assert ClusterState.load(state.root).dead == (1,)

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
    def test_negative_narrow_payload_rejected(self, tmp_path, payload, strategy):
        # an int8 -1 viewed unsigned is 255, inside F_257; it is refused as
        # the int16 and int64 -1 are
        path, data = payload
        state = cmd_encode(path, tmp_path / "cluster", k=3, q=257)
        before = node_digest(state, 4)
        cmd_kill(state.root, 4)
        for dtype in (np.int8, np.int16, np.int64):

            def reader(state_, plan, helper, dtype=dtype):
                out = read_repair_payload(state_, plan, helper)
                if helper != 1:
                    return out
                bad = np.zeros(out.shape, dtype=dtype)
                bad[-1, -1] = -1
                return bad

            with pytest.raises(IntegrityError, match="^helper 1 shipped symbols outside F_257$"):
                cmd_repair(state.root, 4, strategy=strategy, payload_reader=reader)
            assert not state.segment_path(4).exists()
            assert tombstone(state, 4).is_file()
        cmd_repair(state.root, 4, strategy=strategy)
        assert node_digest(state, 4) == before
        assert cmd_decode(state.root) == data

    @pytest.mark.parametrize("strategy", ["new", "original"])
    def test_range_check_names_first_bad_helper_in_combine_order(
        self, tmp_path, payload, strategy
    ):
        # each payload's F_q range is checked in its own dtype before it is
        # stored, and the message names the first offending helper in
        # combine order
        path, data = payload
        state = cmd_encode(path, tmp_path / "cluster", k=3, q=257)
        before = node_digest(state, 2)
        cmd_kill(state.root, 2)
        order = build_repair_plan(state.params, 2, strategy).compiled.order
        assert order == (4, 5, 1, 3)  # not ascending, so the order is what is tested

        def shipping(bad):
            """A reader whose helpers in `bad` ship one symbol of bad[helper],
            or one chunk too few where its dtype reads "short"."""

            def reader(state_, plan, helper):
                out = read_repair_payload(state_, plan, helper)
                if helper not in bad:
                    return out
                symbol, dtype = bad[helper]
                if dtype == "short":
                    return out[:-1]
                out = out.astype(dtype)
                out[-1, -1] = symbol
                return out

            return reader

        cases = [
            ({order[2]: (257, np.int64)}, order[2]),
            ({order[2]: (-1, np.int64)}, order[2]),
            ({order[2]: (2**64 - 1, np.uint64)}, order[2]),  # wraps negative in the stack
            # wrap to 5, and to a negative int32, in a narrow stack
            ({order[1]: (2**32 + 5, np.int64)}, order[1]),
            ({order[1]: (2**31, np.int64)}, order[1]),
            ({order[3]: (2**32 + 5, np.uint64)}, order[3]),
            ({order[3]: (-1, np.int64), order[1]: (300, np.int64)}, order[1]),
            ({order[1]: (-1, np.int64), order[3]: (300, np.int64)}, order[1]),
            ({order[2]: (257, np.int64), order[0]: (1000, np.int64)}, order[0]),
        ]
        for bad, named in cases:
            with pytest.raises(IntegrityError) as exc:
                cmd_repair(state.root, 2, strategy=strategy, payload_reader=shipping(bad))
            assert str(exc.value) == f"helper {named} shipped symbols outside F_257"
            assert not state.segment_path(2).exists()
            assert tombstone(state, 2).is_file()
        # every helper is read before the range check, so a later helper's
        # dtype or shape refusal comes ahead of an earlier one's range refusal
        chunks = state.manifest.chunk_count
        later_refusals = [
            (
                {order[0]: (257, np.int64), order[2]: (1, np.float64)},
                f"helper {order[2]} shipped float64 symbols, not integers",
            ),
            (
                {order[0]: (-1, np.int64), order[3]: (1, "short")},
                f"helper {order[3]} shipped ({chunks - 1}, 8), expected ({chunks}, 8)",
            ),
        ]
        for bad, message in later_refusals:
            with pytest.raises(IntegrityError) as exc:
                cmd_repair(state.root, 2, strategy=strategy, payload_reader=shipping(bad))
            assert str(exc.value) == message
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
        # at q=257 a rebuilt 256 is a field element, so every syndrome
        # passes, but no byte: unchunk refuses it before the cast.  A
        # systematic segment cannot store it at all.
        state, p, words = encode_with_256(tmp_path)
        before = state.segment_path(1).read_bytes()
        with pytest.raises(IntegrityError, match="^node 1 symbol 256 is not below 2\\*\\*8;"):
            write_segment(state.segment_path(1), p, 1, words[:, 0])
        assert state.segment_path(1).read_bytes() == before
        bury(state, (1,))
        for node in range(2, p.k + 3):
            write_segment(state.segment_path(node), p, node, words[:, node - 1])
        # every pattern that rebuilds node 1 from parities that encode 256
        for other in [(), (2,), (3,), (4,), (5,)]:
            restore = bury(state, other)
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
        """Add one to the first symbol of a record, through the plane
        offsets, wrapping within what the node can hold (still a field
        element)."""
        segment = state.segment_path(node)
        raw = bytearray(segment.read_bytes())
        p, w = state.params, width(state.params, node)
        m, i = state.manifest.chunk_count * p.n, chunk * p.n
        val = get_symbol(raw, w, m, i)
        set_symbol(raw, w, m, i, (val + 1) % min(p.q, 1 << w))
        segment.write_bytes(bytes(raw))
        assert read_segment(segment, p, node, m // p.n)[chunk, 0] == (val + 1) % min(p.q, 1 << w)

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


def entry_point_transcript(tmp_path, as_arg):
    """Everything the cluster entry points write, return and raise over one
    fixed script, each path passed through as_arg (str or Path)."""
    data = bytes(np.random.default_rng(5).integers(0, 256, size=2000, dtype=np.uint8))
    src, root, out = tmp_path / "input.bin", tmp_path / "cluster", tmp_path / "out.bin"
    src.write_bytes(data)
    shutil.rmtree(root, ignore_errors=True)
    files = lambda: {p.name: p.read_bytes() for p in sorted(root.iterdir())}  # noqa: E731
    log = []

    def attempt(fn, *args, **kwargs):
        try:
            log.append(fn(*args, **kwargs))
        except cluster.ClusterError as exc:
            log.append((type(exc).__name__, str(exc)))

    attempt(cmd_encode, as_arg(src), as_arg(root), k=3, q=257)
    attempt(cmd_encode, as_arg(src), as_arg(root), k=3, q=257)
    attempt(cmd_encode, as_arg(tmp_path / "missing.bin"), as_arg(root), k=3)
    log.append(files())
    attempt(cmd_kill, as_arg(root), 2)
    attempt(cmd_kill, as_arg(root), 2)
    attempt(cmd_repair, as_arg(root), 3)
    attempt(cmd_repair, as_arg(root), 2, strategy="original")
    log.append(files())
    for node in (1, 4):
        attempt(cmd_kill, as_arg(root), node)
    attempt(cmd_repair, as_arg(root), 1)
    attempt(cmd_decode, as_arg(root), as_arg(out))
    log.append(out.read_bytes())
    attempt(cmd_verify, as_arg(root))
    attempt(cmd_kill, as_arg(root), 5, force=True)
    attempt(cmd_decode, as_arg(root))
    attempt(cmd_verify, as_arg(root))
    log.append(files())
    attempt(Manifest.load, as_arg(root))
    attempt(Manifest.load, as_arg(tmp_path))
    attempt(cmd_verify, as_arg(tmp_path))
    params = Manifest.load(root).params
    chunks = Manifest.load(root).chunk_count
    rows = read_segment(as_arg(root / "node-02.seg"), params, 2, chunks)
    write_segment(as_arg(tmp_path / "copy.seg"), params, 2, rows)
    log.append((tmp_path / "copy.seg").read_bytes())
    attempt(read_segment, as_arg(root / "node-02.seg"), params, 3, chunks)
    attempt(read_segment, as_arg(root / "node-01.seg"), params, 1, chunks)
    return log


def test_str_and_path_arguments_agree(tmp_path):
    by_str = entry_point_transcript(tmp_path, str)
    by_path = entry_point_transcript(tmp_path, lambda p: p)
    assert by_str == by_path
    messages = [entry for entry in by_str if isinstance(entry, tuple) and len(entry) == 2]
    assert ("UsageError", f"{tmp_path / 'cluster'} already holds a cluster") in messages
    missing = tmp_path / "cluster" / "node-01.seg"
    assert ("IntegrityError", f"missing segment {missing}") in messages
    assert ("UsageError", f"{tmp_path} is not a cluster (no manifest.txt)") in messages


@pytest.mark.parametrize("root", [".", "/", "//", "cluster", "cluster/", "./a//b/", "../up"])
def test_segment_path_joins_as_pathlib(root, demo_k3):
    # segments are named without pathlib, yet every message and rename must
    # keep the path text that root / "node-XX.seg" gives
    state = ClusterState(root=Path(root), manifest=Manifest(demo_k3, 0, 0))
    for n in range(1, 6):
        assert str(state.segment_path(n)) == str(Path(root) / f"node-{n:02d}.seg")


class TestBenchCommand:
    def test_tables_for_demo_and_searched(self):
        tables = metering.cmd_bench([2], strategies=("new",))
        assert len(tables) == 1
        assert "node=1 strategy=new add=28" in tables[0].text
