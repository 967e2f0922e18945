"""File-backed simulated storage cluster: segment and manifest format, and
the encode, kill, repair, decode and verify commands behind the CLI.

A cluster is a directory holding a plain-text manifest plus one segment file
per node (node-01.seg .. node-{k+2}.seg).  A segment (format v3) is one
header followed by the node's N symbols per chunk at the node's own width:
bits_per_symbol(q) for a systematic node, the width its input is packed at,
and the bits of q - 1 for a parity node.  write_segment and read_segment
alone know the layout.  Encode writes each segment in place, truncating a
stale one an interrupted encode left, and commits by renaming the manifest
from a temp file: until then the directory is no cluster.  Repair writes
the rebuilt segment to a temp file and renames it into place, since a
segment that is a file is a live node.  A command writes a name in the
cluster only where it is absent or a regular file no other link shares: a
symlink, FIFO or hard link there is refused (_open_own).  A node is dead
when its segment is not a file; ClusterState.load stats each segment once
and records the dead nodes.  Killing a node renames its segment to a
tombstone; repair rebuilds the segment from the other nodes' segments,
shipping exactly N/2 symbols per chunk from each helper, and then drops
the tombstone; decode tolerates any two dead nodes.

The commands keep symbols narrow from end to end: chunk_file packs uint8
symbols, read_segment returns uint8 or uint16 rows, and the encode, repair
and decode kernels widen them only to their accumulator dtype (int32 at
q = 257; see codec and repair).  Every range check, of a row to be written,
a payload a helper ships or a parity segment read, is _first_outside, run in
the checked array's own dtype before anything could narrow it.

Every file is read and written through a raw descriptor on a str path, by
_read and _read_fd or by _write, never by builtin open.  Every command that
loads a cluster opens and reads the manifest once (no stat first), stats
each of the k+2 segments once, and lists no directory; the parse of the
manifest's text is memoized, so an unchanged manifest is not parsed again
in the same process.  On top of that, kill renames one segment; repair
opens the k+1 helper segments and one temp file, renames it into place and
unlinks the tombstone; decode opens each live segment and the output file,
if any.  Encode opens its input once, and that open and its fstat tell a
missing input from a directory; it tests for an existing manifest once,
opens each segment once and renames only the manifest.

Errors carry the process exit code the CLI should use: 1 for usage problems,
2 for integrity/verification failures, 3 when the data is unrecoverable.
"""

from __future__ import annotations

import os
import struct
from errno import ELOOP, ENOENT, ENOTDIR
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from stat import S_ISDIR, S_ISREG

import numpy as np

from . import codec
from .codec import CodeParams, DEMO_COEFFICIENTS, bits_per_symbol, demo_params, search_params
from .repair import STRATEGIES, RepairPlan, build_repair_plan
from .verify import verify_params

MAGIC = b"HMSR"
FORMAT_VERSION = 3
MANIFEST_NAME = "manifest.txt"
DEAD_SUFFIX = ".dead"
REPAIR_WINDOW = 1024  # chunks per recover call in cmd_repair, bounding its temporaries

# magic, version, k, q, node_id, chunk count
_HEADER = struct.Struct("<4sBBHHI")


class ClusterError(Exception):
    """Base for cluster failures; exit_code is what the CLI should return."""

    exit_code = 2


class UsageError(ClusterError):
    exit_code = 1


class IntegrityError(ClusterError):
    exit_code = 2


class UnrecoverableError(ClusterError):
    exit_code = 3


# decode --out opens its file as builtin open(path, "wb") does; every file a
# command writes in the cluster is opened by _open_own
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_CREATE_OWN = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_NONBLOCK
_STREAM_READ = 1 << 16  # bytes per read past what fstat tells, as of a pipe or device


def _read_fd(fd: int, st: os.stat_result, limit: int | None = None) -> bytes:
    """The bytes of the file open at fd, whose fstat is st: to end of file,
    or with a limit at most limit + 1 bytes.

    Reading stops at a read that returns nothing, at limit + 1 bytes, or
    once a regular file's bytes reach the size st tells, so a regular file
    of that size takes one read of size + 1 (or limit + 1, the smaller).  A
    short read before that point, as of a file over the 2 GiB one read can
    return, is followed by another; a file that grew past its size, or one
    whose size reads as 0, is read on to its end, as a pipe or device is."""
    size = st.st_size if S_ISREG(st.st_mode) and st.st_size else -1
    stop = -1 if limit is None else limit + 1
    parts, got = [], 0
    while got != size and got != stop:
        want = size + 1 - got if got < size else _STREAM_READ
        part = os.read(fd, want if stop < 0 else min(want, stop - got))
        if not part:
            break
        parts.append(part)
        got += len(part)
    return b"".join(parts)  # a single part is returned as it is, not copied


def _read(path, limit: int | None = None) -> bytes | None:
    """The bytes of the regular file at path (see _read_fd), or None when
    path is not a regular file: os.open, os.fstat, reads, os.close.  The
    open does not block, so a FIFO in the file's place reads as None."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        return _read_fd(fd, st, limit) if S_ISREG(st.st_mode) else None
    finally:
        os.close(fd)


def _open_own(path) -> int:
    """A descriptor for writing path as an empty regular file, created if
    missing.  Whatever else is at the name is refused before any of its
    bytes change: a symlink (ELOOP, not followed), a FIFO (ENXIO with no
    reader, since the open does not block), any other file that is not
    regular, and a regular file another hard link shares."""
    fd = os.open(path, _CREATE_OWN, 0o666)
    try:
        st = os.fstat(fd)
        if not S_ISREG(st.st_mode) or st.st_nlink != 1:
            raise IntegrityError(f"{path} is not a regular file of its own; not written")
        if st.st_size:  # a stale file an interrupted encode left
            os.ftruncate(fd, 0)
    except BaseException:
        os.close(fd)
        raise
    return fd


def _write(path, buffers, own: bool = True) -> None:
    """Write the buffers (flat, of bytes), in order, to path: open it (by
    _open_own, or as decode --out does), os.writev until every byte is
    written, os.close."""
    fd = _open_own(path) if own else os.open(path, _CREATE, 0o666)
    try:
        views = [memoryview(b) for b in buffers]
        while views:
            done = os.writev(fd, views)
            while views and done >= len(views[0]):
                done -= len(views.pop(0))
            if views:  # a short write: resume inside the first unwritten buffer
                views[0] = views[0][done:]
    finally:
        os.close(fd)


def _write_replace(path, buffers) -> None:
    """Write the buffers to a sibling temp file, then rename it over path.
    If either step fails, the temp file is removed before the error
    propagates."""
    tmp = f"{path}.tmp"
    try:
        _write(tmp, buffers)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _in_root(root, name: str) -> str:
    """str(root / name) for a Path root, without building a Path: pathlib
    drops a root of "." from the join."""
    root = os.fspath(root)
    return name if root == "." else os.path.join(root, name)


def _width(params: CodeParams, node: int) -> int:
    """Bits per stored symbol of `node`: a systematic node keeps the width
    its input is packed at, and a parity node the width of q - 1."""
    return bits_per_symbol(params.q) if node <= params.k else (params.q - 1).bit_length()


@lru_cache(maxsize=None)
def _plane_table(bit: int, dtype) -> np.ndarray:
    """(256, 8) lookup from a bit-plane byte to its 8 symbols' share of
    weight 2**bit, the first symbol in the byte's high bit as np.packbits
    puts it: one take unpacks a plane and places it."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    table = bits.astype(dtype) << bit
    table.flags.writeable = False
    return table


def _first_outside(a: np.ndarray, limit: int):
    """The first symbol of integer array a outside [0, limit), or None.

    One pass in a's own dtype, before anything could narrow it: a is viewed
    unsigned at its width, where a negative symbol reads as 2**(bits - 1) or
    more.  So a signed symbol is outside when its view is at or above
    min(limit, 2**(bits - 1)): above that every non-negative one is inside.
    An unsigned dtype that cannot hold limit (2**bits <= limit) is not
    scanned, which spares every systematic segment at q > 255."""
    bits = 8 * a.itemsize
    if a.dtype.kind == "u":
        if limit >= 1 << bits:
            return None
    else:
        limit = min(limit, 1 << (bits - 1))
    seen = a.view(np.dtype(f"u{a.itemsize}"))
    if not seen.size or seen.max() < limit:
        return None
    return a.flat[int(np.argmax(seen >= limit))]


def write_segment(path, params: CodeParams, node: int, rows, in_place: bool = False) -> None:
    """Store a node's (chunks, N) symbol rows; row c is chunk c.

    The body holds the M = chunks*N symbols in record order at the node's
    width w (_width): w // 8 byte planes, low byte first, then w % 8 bit
    planes of the bits above them, lowest first, each packed by np.packbits
    (first symbol in the high bit).  Chunk c starts at byte 14 + p*M + c*N
    in byte plane p and at 14 + (w//8)*M + j*M/8 + c*N/8 in bit plane j,
    whole bytes because N >= 8.  The rows may be of any integer dtype.  A
    symbol the node cannot hold raises IntegrityError before anything is
    written: a systematic one outside [0, 2**w), which no input byte stream
    packs to, or a parity one outside F_q (see _first_outside, which checks
    in the rows' own dtype, before any narrowing could wrap 2**16 + 5 to a
    valid-looking 5).

    The header and planes go to the file in one writev, with no joined
    copy.  By default they go to a sibling temp file that is then renamed
    over path, so a live segment is never seen half written.  in_place
    writes path itself, truncating a stale file there: encode does, since
    its directory is no cluster until the manifest is renamed into place.
    Either way the name written must be absent or a regular file no other
    link shares: a symlink, FIFO or hard link there is refused (see
    _open_own).
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != params.n:
        raise ValueError(f"segment rows must hold {params.n} symbols each")
    if rows.dtype.kind not in "iu":
        raise ValueError(f"segment rows must hold integer symbols, not {rows.dtype}")
    width = _width(params, node)
    bad = _first_outside(rows, 1 << width if node <= params.k else params.q)
    if bad is not None:
        what = f"not below 2**{width}" if node <= params.k else f"outside F_{params.q}"
        raise IntegrityError(f"node {node} symbol {bad} is {what}; {path} not written")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, params.k, params.q, node, rows.shape[0])
    # w <= 15, so there is one byte plane (the low byte) from 8 bits up
    planes = [header, rows.astype(np.uint8).ravel()] if width >= 8 else [header]
    for bit in range(width // 8 * 8, width):
        planes.append(np.packbits((rows & (1 << bit)) != 0))
    (_write if in_place else _write_replace)(path, planes)


def read_segment(path, params: CodeParams, node: int, chunks: int) -> np.ndarray:
    """Parse and validate one node's segment; returns its (chunks, N) rows,
    read-only, as uint8 at widths up to 8 bits and uint16 above.

    The file's size must match the manifest's chunk count before any array
    is built.  A parity node's symbols are range-checked against q; a
    systematic node's width cannot hold a symbol outside F_q."""
    width, symbols = _width(params, node), chunks * params.n
    size = _HEADER.size + symbols * width // 8
    try:
        raw = _read(path, limit=size)  # one byte past size shows a longer file
    except FileNotFoundError:
        raw = None
    if raw is None:
        raise IntegrityError(f"missing segment {path}")
    if len(raw) < _HEADER.size:
        raise IntegrityError(f"segment {path} is truncated")
    magic, version, k, q, node_id, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise IntegrityError(f"segment {path} has wrong magic {magic!r}")
    if version != FORMAT_VERSION:
        raise IntegrityError(f"segment {path} has unsupported version {version}")
    if (k, q) != (params.k, params.q):
        raise IntegrityError(f"segment {path} belongs to a k={k}, q={q} code")
    if node_id != node:
        raise IntegrityError(f"segment {path} labeled node={node_id}, expected node={node}")
    # checked before any array of `chunks` rows exists: the manifest may be tampered
    if count != chunks or len(raw) != size:
        raise IntegrityError(
            f"segment {path} has wrong size for {chunks} chunks ({count} in its header)"
        )
    body = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    dtype = np.uint8 if width <= 8 else np.uint16
    # the low byte plane (a view of the file's bytes at 8 bits), else zeros
    rows = body[:symbols].astype(dtype, copy=False) if width >= 8 else np.zeros(symbols, dtype)
    at = width // 8 * symbols
    for bit in range(width // 8 * 8, width):
        plane = body[at : at + symbols // 8]
        rows |= _plane_table(bit, dtype).take(plane, axis=0).reshape(-1)
        at += symbols // 8
    if node > params.k and _first_outside(rows, params.q) is not None:
        raise IntegrityError(f"segment {path} holds symbols outside F_{params.q}")
    rows = rows.reshape(chunks, params.n)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class Manifest:
    params: CodeParams
    chunk_count: int
    original_length: int

    def save(self, root: Path) -> None:
        p = self.params
        text = "".join(
            f"{key}: {value}\n"
            for key, value in (
                ("version", FORMAT_VERSION),
                ("k", p.k),
                ("q", p.q),
                ("a", ",".join(map(str, p.a))),
                ("b", ",".join(map(str, p.b))),
                ("chunk_count", self.chunk_count),
                ("original_length", self.original_length),
                ("packing", bits_per_symbol(p.q)),
            )
        )
        _write_replace(_in_root(root, MANIFEST_NAME), [text.encode()])

    @classmethod
    def load(cls, root) -> "Manifest":
        """Read and parse the manifest; parameter values are range-checked but
        the coefficient constraints are re-verified by callers, so a tampered
        manifest can still be loaded and then graded by verification.

        One open, no stat by path: a manifest that is missing, under a
        non-directory, a symlink loop or not a regular file makes root no
        cluster.  The file is read on every call; only the parse of its
        text is memoized."""
        try:
            raw = _read(_in_root(root, MANIFEST_NAME))  # None for a directory, FIFO or device
            text = None if raw is None else raw.decode()
        except OSError as exc:  # missing, under a non-directory or a loop
            if exc.errno not in (ENOENT, ENOTDIR, ELOOP):
                raise
            text = None
        except UnicodeDecodeError as exc:
            raise IntegrityError(
                f"manifest is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
        if text is None:
            raise UsageError(f"{root} is not a cluster (no {MANIFEST_NAME})")
        return _parse_manifest(text)

    def validated_params(self) -> CodeParams:
        try:
            return _checked_params(self.params)
        except ValueError as exc:
            raise IntegrityError(f"manifest coefficients invalid: {exc}") from None


@lru_cache(maxsize=64)
def _parse_manifest(text: str) -> Manifest:
    """The Manifest that a manifest's text describes, memoized on the text: a
    command that reads an unchanged manifest skips the parse, and an edited
    one is parsed afresh.  A malformed manifest raises and is not cached, so
    it raises on every read."""
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        if not _:
            raise IntegrityError(f"manifest line not key: value - {line!r}")
        fields[key.strip()] = value.strip()
    try:
        version = int(fields["version"])
        k = int(fields["k"])
        q = int(fields["q"])
        a = tuple(int(v) for v in fields["a"].split(","))
        b = tuple(int(v) for v in fields["b"].split(","))
        chunk_count = int(fields["chunk_count"])
        original_length = int(fields["original_length"])
        packing = int(fields["packing"])
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"manifest is malformed: {exc}") from None
    if version != FORMAT_VERSION:
        raise IntegrityError(f"unsupported manifest version {version}")
    try:
        params = CodeParams(k, q, a, b, check=False)
    except ValueError as exc:
        raise IntegrityError(f"manifest parameters invalid: {exc}") from None
    if packing != bits_per_symbol(q):
        raise IntegrityError(
            f"manifest packing {packing} does not match q={q} "
            f"(expected {bits_per_symbol(q)})"
        )
    if chunk_count < 0 or original_length < 0:
        raise IntegrityError("manifest counts must be non-negative")
    if chunk_count * params.chunk_bytes < original_length:
        raise IntegrityError("manifest chunk capacity below recorded length")
    return Manifest(params=params, chunk_count=chunk_count, original_length=original_length)


@lru_cache(maxsize=None)
def _checked_params(params: CodeParams) -> CodeParams:
    """params rebuilt with every coefficient check, once per distinct
    (k, q, a, b); a failing set raises and is not cached, so it raises again."""
    return CodeParams(params.k, params.q, params.a, params.b)


@dataclass(frozen=True)
class ClusterState:
    root: Path
    manifest: Manifest
    dead: tuple = ()  # ids of the nodes whose segment is not a file, ascending

    @classmethod
    def load(cls, root) -> "ClusterState":
        """Read the manifest and stat each node's segment once for liveness."""
        root = Path(root)
        manifest = Manifest.load(root)
        prefix = _in_root(root, "")  # "" for a root of ".", else root and a separator
        nodes = range(1, manifest.params.k + 3)
        dead = tuple(n for n in nodes if not os.path.isfile(f"{prefix}node-{n:02d}.seg"))
        return cls(root, manifest, dead)

    @property
    def params(self) -> CodeParams:
        return self.manifest.params

    def segment_path(self, node: int) -> Path:
        return Path(self._segment_file(node))

    def _segment_file(self, node: int) -> str:
        """str(segment_path(node)), named without building a Path: the path
        the file calls take."""
        return _in_root(self.root, f"node-{node:02d}.seg")

    def check_node(self, node: int) -> None:
        if not 1 <= node <= self.params.k + 2:
            raise UsageError(f"node id {node} out of range 1..{self.params.k + 2}")


def cmd_encode(
    input_path, out_dir, k: int, q: int | None = None, demo: bool = False
) -> ClusterState:
    """Split a file into chunks, encode, and write one segment per node.

    Each segment is written in place, truncating a stale one that an
    interrupted encode left, and the manifest is saved last, through a temp
    file and a rename: an interrupted encode leaves no cluster.
    """
    # str paths for the file calls, naming what Path("") would: the working
    # directory; a Path only names an argument in a message
    source, out_dir = os.fspath(input_path) or ".", os.fspath(out_dir) or "."
    try:
        fd = os.open(source, os.O_RDONLY)  # the open and its fstat classify the input
    except OSError as exc:  # missing, under a non-directory or a loop
        if exc.errno in (ENOENT, ENOTDIR, ELOOP):
            raise UsageError(f"input file {Path(source)} not found") from None
        raise
    try:
        st = os.fstat(fd)
        if S_ISDIR(st.st_mode):
            raise UsageError(f"input {Path(source)} is a directory, not a file")
        if os.path.exists(_in_root(out_dir, MANIFEST_NAME)):
            raise UsageError(f"{Path(out_dir)} already holds a cluster")
        if demo:
            if q is not None and q != DEMO_COEFFICIENTS.get(k, (None,))[0]:
                raise UsageError(f"--q {q} conflicts with the demo profile for k={k}")
            try:
                params = demo_params(k)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        else:
            try:
                params = search_params(k, q)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        data = _read_fd(fd, st)  # to end of file, so a pipe or /dev/null reads too
    finally:
        os.close(fd)
    blocks = codec.chunk_file(data, params)  # uint8 symbols, below 2**bits <= q
    parities = codec.parities(params, blocks)
    manifest = Manifest(params=params, chunk_count=blocks.shape[0], original_length=len(data))
    os.makedirs(out_dir, exist_ok=True)
    state = ClusterState(root=Path(out_dir), manifest=manifest)
    for node in range(1, params.k + 3):
        rows = blocks[:, node - 1] if node <= params.k else parities[:, node - params.k - 1]
        write_segment(state._segment_file(node), params, node, rows, in_place=True)
    manifest.save(out_dir)  # the one rename: the directory is a cluster from here on
    return state


def cmd_kill(root, node: int, force: bool = False) -> ClusterState:
    """Rename a node's segment to a tombstone, refusing to pass the
    two-failure limit.

    Returns the cluster state with the node added to its dead set.
    """
    state = ClusterState.load(root)
    state.check_node(node)
    if state.manifest.chunk_count == 0:
        raise UsageError("cluster holds no chunks; nothing to kill")
    dead = state.dead
    if node in dead:
        raise UsageError(f"node {node} is already dead")
    if len(dead) >= 2 and not force:
        raise UnrecoverableError(
            f"nodes {dead[0]} and {dead[1]} are already dead; killing node {node} "
            "would make the data unrecoverable (use --force to do it anyway)"
        )
    segment = state._segment_file(node)
    os.rename(segment, segment + DEAD_SUFFIX)
    return ClusterState(state.root, state.manifest, tuple(sorted((*dead, node))))


def read_repair_payload(state: ClusterState, plan: RepairPlan, helper: int) -> np.ndarray:
    """Default payload reader, the hook payload_reader(state, plan, helper):
    the helper reads its segment once, transforms all its chunks locally
    through plan.helper_payload and ships (chunks, N/2) symbols, which
    cmd_repair stacks in combine order for plan.narrow.recover.  Tests
    swap this out to audit download volume or to ship malformed payloads."""
    p = state.params
    rows = read_segment(state._segment_file(helper), p, helper, state.manifest.chunk_count)
    return plan.helper_payload(helper, rows)


@dataclass(frozen=True)
class RepairSummary:
    node: int
    strategy: str
    chunks: int
    per_chunk_downloaded: int
    shipped: dict  # helper node -> symbols shipped over all chunks
    adds_by_phase: dict
    muls_by_phase: dict

    @property
    def downloaded_symbols(self) -> int:
        return sum(self.shipped.values())

    @property
    def adds(self) -> int:
        return sum(self.adds_by_phase.values())

    @property
    def muls(self) -> int:
        return sum(self.muls_by_phase.values())


def cmd_repair(
    root, node: int, strategy: str = "new", payload_reader=read_repair_payload
) -> RepairSummary:
    """Rebuild a dead node's segment from the k+1 live ones.  The payloads
    are stacked, and the node rebuilt, in the plan's narrow recover dtype.
    A payload symbol outside F_q, or a rebuilt symbol the node cannot hold
    (see write_segment), raises IntegrityError before anything is written,
    and the tombstone stays."""
    state = ClusterState.load(root)
    state.check_node(node)
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}")
    params = state.manifest.validated_params()
    if node not in state.dead:
        raise UsageError(f"node {node} is alive; nothing to repair")
    dead_helpers = [n for n in state.dead if n != node]
    if dead_helpers:
        alive = params.k + 2 - len(state.dead)
        if alive >= params.k:
            raise IntegrityError(
                f"helper node(s) {dead_helpers} are dead; single-node repair needs "
                "all other nodes alive - rebuild via decode instead"
            )
        raise UnrecoverableError(f"only {alive} nodes alive; data is unrecoverable")
    plan = build_repair_plan(params, node, strategy)
    run = plan.narrow
    chunks = state.manifest.chunk_count
    shape = (chunks, params.n // 2)
    stack = np.empty((chunks, len(run.order), shape[1]), dtype=run.recover_dtype)
    shipped = {}
    outside = None  # the first helper, in combine order, to ship a symbol outside F_q
    for i, helper in enumerate(run.order):
        payload = np.asarray(payload_reader(state, plan, helper))
        if payload.shape != shape:
            raise IntegrityError(f"helper {helper} shipped {payload.shape}, expected {shape}")
        # the stack would truncate floats and wrap symbols outside the field
        # into a wrong but well-formed segment, so each payload's range is
        # checked in its own dtype before it is stored: an int32 stack would
        # turn 2**32 + 5 into 5
        if payload.dtype.kind not in "iu":
            raise IntegrityError(f"helper {helper} shipped {payload.dtype} symbols, not integers")
        if outside is None and _first_outside(payload, params.q) is not None:
            outside = helper
        stack[:, i] = payload
        shipped[helper] = int(payload.size)
        del payload  # the stack holds a copy; free it before the next download
    # raised once every helper is read, so a later helper's shape or dtype
    # refusal still comes first
    if outside is not None:
        raise IntegrityError(f"helper {outside} shipped symbols outside F_{params.q}")
    rebuilt = np.empty((chunks, params.n), dtype=run.recover_dtype)
    for lo in range(0, chunks, REPAIR_WINDOW):
        rebuilt[lo : lo + REPAIR_WINDOW] = run.recover(stack[lo : lo + REPAIR_WINDOW])
    del stack
    segment = state._segment_file(node)
    write_segment(segment, params, node, rebuilt)
    with suppress(FileNotFoundError):
        os.unlink(segment + DEAD_SUFFIX)
    cost = plan.cost()
    return RepairSummary(
        node=node,
        strategy=strategy,
        chunks=chunks,
        per_chunk_downloaded=plan.downloaded_symbols,
        shipped=shipped,
        adds_by_phase={phase: adds * chunks for phase, (adds, _) in cost.items()},
        muls_by_phase={phase: muls * chunks for phase, (_, muls) in cost.items()},
    )


def cmd_decode(root, out_path=None) -> bytes:
    """Reconstruct the original file from any >= k live nodes, in one
    (chunks, k+2, N) word of codec.word_dtype(params)."""
    state = ClusterState.load(root)
    params = state.manifest.validated_params()
    alive = [n for n in range(1, params.k + 3) if n not in state.dead]
    if len(alive) < params.k:
        raise UnrecoverableError(
            f"only {len(alive)} of {params.k + 2} nodes alive; need at least {params.k}"
        )
    chunks = state.manifest.chunk_count
    # every segment is read and size-checked before the (chunks, k+2, N) word
    # exists, since the manifest's chunk count may be tampered
    segments = {n: read_segment(state._segment_file(n), params, n, chunks) for n in alive}
    words = np.zeros((chunks, params.k + 2, params.n), dtype=codec.word_dtype(params))
    for n in alive:
        words[:, n - 1] = segments.pop(n)  # read_segment rejected every symbol >= q
    try:
        codec.complete_word(params, words, tuple(alive))
        data = codec.unchunk(words[:, : params.k], state.manifest.original_length, params)
    except ValueError as exc:
        raise IntegrityError(str(exc)) from None
    if out_path is not None:
        _write(out_path, [data], own=False)  # follows a symlink, as open(out_path, "wb") does
    return data


def cmd_verify(root) -> tuple[bool, list]:
    """Grade a cluster's availability and parameters; returns (ok, report lines)."""
    try:
        state = ClusterState.load(root)
    except ClusterError as exc:
        return False, [f"FAIL manifest: {exc}"]
    lines = [
        f"cluster {state.root}: {state.manifest.chunk_count} chunks, "
        f"{state.manifest.original_length} bytes"
    ]
    if state.dead:
        lines.append(f"note: dead nodes {list(state.dead)}")
        if len(state.dead) > 2:
            lines.append(f"FAIL availability: {len(state.dead)} nodes dead, data lost")
            return False, lines
    ok, param_lines = verify_params(state.params)
    return ok, lines + param_lines
