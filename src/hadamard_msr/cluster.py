"""File-backed simulated storage cluster: segment and manifest format, and
the encode, kill, repair, decode and verify commands behind the CLI.

A cluster is a directory holding a plain-text manifest plus one segment file
per node (node-01.seg .. node-{k+2}.seg).  A segment is one header followed
by one record of N symbols per chunk, and every file is written to a sibling
temp file first and then renamed into place.  A node is dead when its segment
is not a file; ClusterState.load stats each segment once and records the dead
nodes.  Killing a node renames its segment to a tombstone; repair rebuilds
the segment from the other nodes' segments, shipping exactly N/2 symbols per
chunk from each helper, and then drops the tombstone; decode tolerates any
two dead nodes.

Errors carry the process exit code the CLI should use: 1 for usage problems,
2 for integrity/verification failures, 3 when the data is unrecoverable.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import codec
from .codec import CodeParams, DEMO_COEFFICIENTS, bits_per_symbol, demo_params, search_params
from .repair import STRATEGIES, RepairPlan, build_repair_plan
from .verify import verify_params

MAGIC = b"HMSR"
FORMAT_VERSION = 2
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


def _write_replace(path: Path, data: bytes) -> None:
    """Write to a sibling temp file, then rename it over path.  If either
    step fails, the temp file is removed before the error propagates."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_segment(path: Path, params: CodeParams, node: int, rows) -> None:
    """Store a node's (chunks, N) symbol rows; row c is chunk c."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != params.n:
        raise ValueError(f"segment rows must hold {params.n} symbols each")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, params.k, params.q, node, rows.shape[0])
    _write_replace(path, header + rows.astype("<u2").tobytes())


def read_segment(path: Path, params: CodeParams, node: int, chunks: int) -> np.ndarray:
    """Parse and validate one node's segment; returns its (chunks, N) rows,
    read-only and as stored ("<u2")."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise IntegrityError(f"missing segment {path}") from None
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
    if count != chunks or len(raw) != _HEADER.size + 2 * chunks * params.n:
        raise IntegrityError(
            f"segment {path} has wrong size for {chunks} chunks ({count} in its header)"
        )
    rows = np.frombuffer(raw, dtype="<u2", offset=_HEADER.size)
    if rows.size and rows.max() >= params.q:
        raise IntegrityError(f"segment {path} holds symbols outside F_{params.q}")
    return rows.reshape(chunks, params.n)


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
        _write_replace(root / MANIFEST_NAME, text.encode())

    @classmethod
    def load(cls, root: Path) -> "Manifest":
        """Parse the manifest; parameter values are range-checked but the
        coefficient constraints are re-verified by callers, so a tampered
        manifest can still be loaded and then graded by verification."""
        path = root / MANIFEST_NAME
        if not path.is_file():
            raise UsageError(f"{root} is not a cluster (no {MANIFEST_NAME})")
        fields = {}
        for line in path.read_text().splitlines():
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
        return cls(params=params, chunk_count=chunk_count, original_length=original_length)

    def validated_params(self) -> CodeParams:
        p = self.params
        try:
            return CodeParams(p.k, p.q, p.a, p.b)
        except ValueError as exc:
            raise IntegrityError(f"manifest coefficients invalid: {exc}") from None


@dataclass(frozen=True)
class ClusterState:
    root: Path
    manifest: Manifest
    dead: tuple = ()  # ids of the nodes whose segment is not a file, ascending

    @classmethod
    def load(cls, root) -> "ClusterState":
        """Read the manifest and stat each node's segment once for liveness."""
        root = Path(root)
        state = cls(root=root, manifest=Manifest.load(root))
        nodes = range(1, state.params.k + 3)
        dead = tuple(n for n in nodes if not state.segment_path(n).is_file())
        return replace(state, dead=dead)

    @property
    def params(self) -> CodeParams:
        return self.manifest.params

    def segment_path(self, node: int) -> Path:
        return self.root / f"node-{node:02d}.seg"

    def check_node(self, node: int) -> None:
        if not 1 <= node <= self.params.k + 2:
            raise UsageError(f"node id {node} out of range 1..{self.params.k + 2}")


def cmd_encode(
    input_path, out_dir, k: int, q: int | None = None, demo: bool = False
) -> ClusterState:
    """Split a file into chunks, encode, and write one segment per node.

    The manifest is saved last, so an interrupted encode leaves no cluster.
    """
    input_path = Path(input_path)
    out_dir = Path(out_dir)
    if not input_path.exists():
        raise UsageError(f"input file {input_path} not found")
    if input_path.is_dir():
        raise UsageError(f"input {input_path} is a directory, not a file")
    if (out_dir / MANIFEST_NAME).exists():
        raise UsageError(f"{out_dir} already holds a cluster")
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

    data = input_path.read_bytes()
    blocks = codec.chunk_file(data, params)
    words = codec.with_parities(params, blocks)  # packed symbols are below 2**bits <= q
    manifest = Manifest(params=params, chunk_count=blocks.shape[0], original_length=len(data))
    out_dir.mkdir(parents=True, exist_ok=True)
    state = ClusterState(root=out_dir, manifest=manifest)
    for node in range(1, params.k + 3):
        write_segment(state.segment_path(node), params, node, words[:, node - 1])
    manifest.save(out_dir)
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
    segment = state.segment_path(node)
    segment.rename(segment.with_name(segment.name + DEAD_SUFFIX))
    return replace(state, dead=tuple(sorted((*dead, node))))


def read_repair_payload(state: ClusterState, plan: RepairPlan, helper: int) -> np.ndarray:
    """Default payload reader, the hook payload_reader(state, plan, helper):
    the helper reads its segment once, transforms all its chunks locally
    through plan.helper_payload and ships (chunks, N/2) symbols, which
    cmd_repair stacks in combine order for plan.compiled.recover.  Tests
    swap this out to audit download volume or to ship malformed payloads."""
    p = state.params
    rows = read_segment(state.segment_path(helper), p, helper, state.manifest.chunk_count)
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
    """Rebuild a dead node's segment from the k+1 live ones."""
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
    run = plan.compiled
    chunks = state.manifest.chunk_count
    shape = (chunks, params.n // 2)
    stack = np.empty((chunks, len(run.order), shape[1]), dtype=np.int64)
    shipped = {}
    for i, helper in enumerate(run.order):
        payload = np.asarray(payload_reader(state, plan, helper))
        if payload.shape != shape:
            raise IntegrityError(f"helper {helper} shipped {payload.shape}, expected {shape}")
        # the stack would truncate floats and wrap symbols outside the field
        # into a wrong but well-formed segment
        if payload.dtype.kind not in "iu":
            raise IntegrityError(f"helper {helper} shipped {payload.dtype} symbols, not integers")
        if payload.size and (payload.min() < 0 or payload.max() >= params.q):
            raise IntegrityError(f"helper {helper} shipped symbols outside F_{params.q}")
        stack[:, i] = payload
        shipped[helper] = int(payload.size)
        del payload  # the stack holds a copy; free it before the next download
    rebuilt = np.empty((chunks, params.n), dtype=np.int64)
    for lo in range(0, chunks, REPAIR_WINDOW):
        rebuilt[lo : lo + REPAIR_WINDOW] = run.recover(stack[lo : lo + REPAIR_WINDOW])
    del stack
    segment = state.segment_path(node)
    write_segment(segment, params, node, rebuilt)
    segment.with_name(segment.name + DEAD_SUFFIX).unlink(missing_ok=True)
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
    """Reconstruct the original file from any >= k live nodes."""
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
    segments = {n: read_segment(state.segment_path(n), params, n, chunks) for n in alive}
    words = np.zeros((chunks, params.k + 2, params.n), dtype=np.int64)
    for n in alive:
        words[:, n - 1] = segments.pop(n)  # read_segment rejected every symbol >= q
    try:
        codec.complete_word(params, words, tuple(alive))
        data = codec.unchunk(words[:, : params.k], state.manifest.original_length, params)
    except ValueError as exc:
        raise IntegrityError(str(exc)) from None
    if out_path is not None:
        Path(out_path).write_bytes(data)
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
