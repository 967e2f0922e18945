"""File-backed simulated storage cluster: shard and manifest format, and the
encode, kill, repair, decode and verify commands behind the CLI.

A cluster is a directory holding a plain-text manifest plus one directory
per node (node-01 .. node-{k+2}); each node directory holds one shard file
per chunk.  A node is dead when any of its chunk-XXXXXX.shard files is
missing; ClusterState.load lists each node directory once and records the
dead nodes, so a command reads liveness once and not per shard.  Killing a
node renames its shards to tombstones; repair rebuilds them from the other
nodes' shards, reading exactly N/2 symbols' worth of payload from each
helper; decode tolerates any two dead nodes.

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
from .repair import STRATEGIES, HelperTask, build_repair_plan, verify_params

MAGIC = b"HMSR"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.txt"
DEAD_SUFFIX = ".dead"

# magic, version, k, q, node_id, chunk_index, symbol count
_HEADER = struct.Struct("<4sBBHHII")


class ClusterError(Exception):
    """Base for cluster failures; exit_code is what the CLI should return."""

    exit_code = 2


class UsageError(ClusterError):
    exit_code = 1


class IntegrityError(ClusterError):
    exit_code = 2


class UnrecoverableError(ClusterError):
    exit_code = 3


def write_shard(path: Path, params: CodeParams, node: int, chunk: int, symbols) -> None:
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.shape != (params.n,):
        raise ValueError(f"shard must hold {params.n} symbols")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, params.k, params.q, node, chunk, symbols.size)
    path.write_bytes(header + symbols.astype("<u2").tobytes())


def read_shard(path: Path, params: CodeParams, node: int, chunk: int) -> np.ndarray:
    """Parse and validate one shard file against its expected identity."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise IntegrityError(f"missing shard {path}") from None
    if len(raw) < _HEADER.size:
        raise IntegrityError(f"shard {path} is truncated")
    magic, version, k, q, node_id, chunk_index, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise IntegrityError(f"shard {path} has wrong magic {magic!r}")
    if version != FORMAT_VERSION:
        raise IntegrityError(f"shard {path} has unsupported version {version}")
    if (k, q) != (params.k, params.q):
        raise IntegrityError(f"shard {path} belongs to a k={k}, q={q} code")
    if (node_id, chunk_index) != (node, chunk):
        raise IntegrityError(
            f"shard {path} labeled node={node_id} chunk={chunk_index}, "
            f"expected node={node} chunk={chunk}"
        )
    if count != params.n or len(raw) != _HEADER.size + 2 * count:
        raise IntegrityError(f"shard {path} has wrong symbol count")
    symbols = np.frombuffer(raw, dtype="<u2", offset=_HEADER.size).astype(np.int64)
    if symbols.size and symbols.max() >= params.q:
        raise IntegrityError(f"shard {path} holds symbols outside F_{params.q}")
    return symbols


@dataclass(frozen=True)
class Manifest:
    params: CodeParams
    chunk_count: int
    original_length: int
    packing: int
    version: int = FORMAT_VERSION

    def save(self, root: Path) -> None:
        p = self.params
        text = "".join(
            f"{key}: {value}\n"
            for key, value in (
                ("version", self.version),
                ("k", p.k),
                ("q", p.q),
                ("a", ",".join(map(str, p.a))),
                ("b", ",".join(map(str, p.b))),
                ("chunk_count", self.chunk_count),
                ("original_length", self.original_length),
                ("packing", self.packing),
            )
        )
        (root / MANIFEST_NAME).write_text(text)

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
        if chunk_count * k * params.n * packing < original_length * 8:
            raise IntegrityError("manifest chunk capacity below recorded length")
        return cls(
            params=params,
            chunk_count=chunk_count,
            original_length=original_length,
            packing=packing,
            version=version,
        )

    def validated_params(self) -> CodeParams:
        p = self.params
        try:
            return CodeParams(p.k, p.q, p.a, p.b)
        except ValueError as exc:
            raise IntegrityError(f"manifest coefficients invalid: {exc}") from None


def _shard_name(chunk: int) -> str:
    return f"chunk-{chunk:06d}.shard"


@dataclass(frozen=True)
class ClusterState:
    root: Path
    manifest: Manifest
    dead: tuple = ()  # ids of the nodes missing any shard, ascending

    @classmethod
    def load(cls, root) -> "ClusterState":
        """Read the manifest and list each node directory once for liveness.

        A node is dead when any expected shard file is missing, so a node of
        a cluster with zero chunks is alive; other files are ignored.
        """
        root = Path(root)
        state = cls(root=root, manifest=Manifest.load(root))
        chunks = range(state.manifest.chunk_count)
        dead = []
        for node in range(1, state.params.k + 3):
            try:
                with os.scandir(state.node_dir(node)) as entries:
                    present = {e.name for e in entries if e.is_file()}
            except (FileNotFoundError, NotADirectoryError):
                present = set()
            # the length test first: a tampered chunk_count may be huge
            if len(present) < len(chunks) or any(_shard_name(c) not in present for c in chunks):
                dead.append(node)
        return replace(state, dead=tuple(dead))

    @property
    def params(self) -> CodeParams:
        return self.manifest.params

    def node_dir(self, node: int) -> Path:
        return self.root / f"node-{node:02d}"

    def shard_path(self, node: int, chunk: int) -> Path:
        return self.node_dir(node) / _shard_name(chunk)

    def dead_path(self, node: int, chunk: int) -> Path:
        return self.node_dir(node) / (_shard_name(chunk) + DEAD_SUFFIX)

    def check_node(self, node: int) -> None:
        if not 1 <= node <= self.params.k + 2:
            raise UsageError(f"node id {node} out of range 1..{self.params.k + 2}")


def cmd_encode(
    input_path, out_dir, k: int, q: int | None = None, demo: bool = False
) -> ClusterState:
    """Split a file into chunks, encode, and lay out the node directories."""
    input_path = Path(input_path)
    out_dir = Path(out_dir)
    if not input_path.is_file():
        raise UsageError(f"input file {input_path} not found")
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
    words = codec.encode_blocks(params, blocks)
    manifest = Manifest(
        params=params,
        chunk_count=blocks.shape[0],
        original_length=len(data),
        packing=bits_per_symbol(params.q),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    state = ClusterState(root=out_dir, manifest=manifest)
    for node in range(1, params.k + 3):
        state.node_dir(node).mkdir(exist_ok=True)
    for chunk in range(blocks.shape[0]):
        for node in range(1, params.k + 3):
            write_shard(state.shard_path(node, chunk), params, node, chunk, words[chunk, node - 1])
    manifest.save(out_dir)
    return state


def cmd_kill(root, node: int, force: bool = False) -> ClusterState:
    """Tombstone a node's shards, refusing to pass the two-failure limit.

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
    for chunk in range(state.manifest.chunk_count):
        state.shard_path(node, chunk).rename(state.dead_path(node, chunk))
    return replace(state, dead=tuple(sorted((*dead, node))))


def read_repair_payload(
    state: ClusterState, helper: int, chunk: int, task: HelperTask
) -> np.ndarray:
    """Default payload reader: the helper transforms its shard locally and
    ships N/2 symbols.  Tests swap this out to audit download volume."""
    shard = read_shard(state.shard_path(helper, chunk), state.params, helper, chunk)
    return task.payload(shard, state.params.q)


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
    """Rebuild a dead node's shards from the k+1 live ones."""
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
    chunks = state.manifest.chunk_count
    shipped = dict.fromkeys(plan.helper_matrices, 0)
    for chunk in range(chunks):
        payloads = {}
        for helper, task in plan.helper_matrices.items():
            payloads[helper] = payload_reader(state, helper, chunk, task)
            shipped[helper] += int(np.asarray(payloads[helper]).size)
        restored = plan.assemble(payloads)
        write_shard(state.shard_path(node, chunk), params, node, chunk, restored)
        state.dead_path(node, chunk).unlink(missing_ok=True)
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
    blocks = np.empty((state.manifest.chunk_count, params.k, params.n), dtype=np.int64)
    for chunk in range(state.manifest.chunk_count):
        available = {
            n: read_shard(state.shard_path(n, chunk), params, n, chunk) for n in alive
        }
        try:
            word = codec.decode(params, available)
        except ValueError as exc:
            raise IntegrityError(f"chunk {chunk} failed to decode: {exc}") from None
        blocks[chunk] = word[: params.k]
    try:
        data = codec.unchunk(blocks, state.manifest.original_length, params)
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
