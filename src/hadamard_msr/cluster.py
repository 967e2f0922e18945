"""File-backed simulated storage cluster and the operations behind the CLI.

A cluster is a directory holding a plain-text manifest plus one directory
per node (node-01 .. node-{k+2}); each node directory holds one shard file
per chunk.  Killing a node renames its shards to tombstones; repair rebuilds
them from the other nodes' shards, reading exactly N/2 symbols' worth of
payload from each helper; decode tolerates any two dead nodes.

Errors carry the process exit code the CLI should use: 1 for usage problems,
2 for integrity/verification failures, 3 when the data is unrecoverable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec
from .codec import (
    CodeParams,
    DEMO_COEFFICIENTS,
    bits_per_symbol,
    coding_matrix,
    coefficient_violations,
    demo_params,
    inverse_coding_matrix,
    search_params,
)
from .metering import BenchTable, emit_table
from .repair import STRATEGIES, HelperTask, build_repair_plan, verify_rank_conditions

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
        problems = coefficient_violations(
            self.params.k, self.params.q, self.params.a, self.params.b
        )
        if problems:
            raise IntegrityError("manifest coefficients invalid: " + "; ".join(problems))
        return self.params


@dataclass(frozen=True)
class ClusterState:
    root: Path
    manifest: Manifest

    @classmethod
    def load(cls, root) -> "ClusterState":
        root = Path(root)
        return cls(root=root, manifest=Manifest.load(root))

    @property
    def params(self) -> CodeParams:
        return self.manifest.params

    def node_dir(self, node: int) -> Path:
        return self.root / f"node-{node:02d}"

    def shard_path(self, node: int, chunk: int) -> Path:
        return self.node_dir(node) / f"chunk-{chunk:06d}.shard"

    def dead_path(self, node: int, chunk: int) -> Path:
        return self.shard_path(node, chunk).with_name(
            self.shard_path(node, chunk).name + DEAD_SUFFIX
        )

    def node_alive(self, node: int) -> bool:
        return all(
            self.shard_path(node, c).is_file() for c in range(self.manifest.chunk_count)
        )

    def alive_nodes(self) -> list:
        return [n for n in range(1, self.params.k + 3) if self.node_alive(n)]

    def dead_nodes(self) -> list:
        return [n for n in range(1, self.params.k + 3) if not self.node_alive(n)]

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
    """Tombstone a node's shards, refusing to pass the two-failure limit."""
    state = ClusterState.load(root)
    state.check_node(node)
    if state.manifest.chunk_count == 0:
        raise UsageError("cluster holds no chunks; nothing to kill")
    dead = state.dead_nodes()
    if node in dead:
        raise UsageError(f"node {node} is already dead")
    if len(dead) >= 2 and not force:
        raise UnrecoverableError(
            f"nodes {dead[0]} and {dead[1]} are already dead; killing node {node} "
            "would make the data unrecoverable (use --force to do it anyway)"
        )
    for chunk in range(state.manifest.chunk_count):
        state.shard_path(node, chunk).rename(state.dead_path(node, chunk))
    return state


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
    if state.node_alive(node):
        raise UsageError(f"node {node} is alive; nothing to repair")
    dead_helpers = [n for n in state.dead_nodes() if n != node]
    if dead_helpers:
        if len(state.alive_nodes()) >= params.k:
            raise IntegrityError(
                f"helper node(s) {dead_helpers} are dead; single-node repair needs "
                "all other nodes alive - rebuild via decode instead"
            )
        raise UnrecoverableError(
            f"only {len(state.alive_nodes())} nodes alive; data is unrecoverable"
        )
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
        dead = state.dead_path(node, chunk)
        if dead.exists():
            dead.unlink()
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
    alive = state.alive_nodes()
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


def _verify_params(params: CodeParams, strategies, lines: list) -> bool:
    ok = True
    problems = coefficient_violations(params.k, params.q, params.a, params.b)
    if problems:
        ok = False
        for p in problems:
            lines.append(f"FAIL coefficient constraint: {p}")
    else:
        lines.append(f"ok: coefficient constraints hold for k={params.k}, q={params.q}")

    try:
        diagonals = [coding_matrix(params, i) for i in range(1, params.k + 1)]
        if any(int(d.min()) == 0 for d in diagonals):
            ok = False
            lines.append("FAIL coding matrices: zero entry found")
        else:
            lines.append("ok: coding matrix entries all nonzero")
        distinct = all(
            np.all(diagonals[i] != diagonals[j])
            for i in range(params.k)
            for j in range(i + 1, params.k)
        )
        if distinct:
            lines.append("ok: coding matrices pairwise distinct at every entry")
        else:
            ok = False
            lines.append("FAIL coding matrices: shared entry between two nodes")
        inverses_ok = True
        for i in range(1, params.k + 1):
            product = coding_matrix(params, i) * inverse_coding_matrix(params, i) % params.q
            if not np.all(product == 1):
                ok = inverses_ok = False
                lines.append(f"FAIL inverse coding matrix {i}: product not identity")
        if inverses_ok:
            lines.append("ok: inverse coding matrices verified")
    except (ValueError, ZeroDivisionError) as exc:
        ok = False
        lines.append(f"FAIL coding matrices: {exc}")

    rng = np.random.default_rng(20240915)
    parts = rng.integers(0, params.q, size=(params.k, params.n), dtype=np.int64)
    word = codec.encode(params, parts)
    nodes = list(range(1, params.k + 3))
    patterns = [()] + [(x,) for x in nodes] + [
        (x, y) for x in nodes for y in nodes if x < y
    ]
    bad = []
    for pattern in patterns:
        available = {n: word[n - 1] for n in nodes if n not in pattern}
        try:
            if not np.array_equal(codec.decode(params, available), word):
                bad.append(pattern)
        except (ValueError, ZeroDivisionError):
            bad.append(pattern)
    if bad:
        ok = False
        lines.append(f"FAIL erasure decoding: patterns {bad} do not round-trip")
    else:
        lines.append(
            f"ok: all {len(patterns)} erasure patterns (up to two nodes) decode exactly"
        )

    for strategy in strategies:
        report = verify_rank_conditions(params, strategy)
        good = sum(c.ok for c in report.conditions)
        if report.ok:
            lines.append(
                f"ok: rank conditions ({strategy}): {good}/{len(report.conditions)} pass"
            )
        else:
            ok = False
            for c in report.failures():
                lines.append(
                    f"FAIL rank condition ({strategy}): node {c.failed} {c.label}: "
                    f"expected rank {c.expected_rank}, pairs "
                    f"{'consistent' if c.pair_ok else 'inconsistent'}, "
                    f"elimination rank {c.elim_rank}"
                )
    return ok


def cmd_verify(
    root=None, params: CodeParams | None = None, strategies=STRATEGIES
) -> tuple[bool, list]:
    """Grade a cluster or a raw parameter set; returns (ok, report lines)."""
    lines: list = []
    if (root is None) == (params is None):
        raise UsageError("verify needs a cluster directory or parameters, not both")
    if root is not None:
        try:
            state = ClusterState.load(root)
        except ClusterError as exc:
            return False, [f"FAIL manifest: {exc}"]
        params = state.params
        lines.append(
            f"cluster {state.root}: {state.manifest.chunk_count} chunks, "
            f"{state.manifest.original_length} bytes"
        )
        dead = state.dead_nodes()
        if dead:
            lines.append(f"note: dead nodes {dead}")
            if len(dead) > 2:
                lines.append(f"FAIL availability: {len(dead)} nodes dead, data lost")
                return False, lines
    assert params is not None
    lines.append(
        f"parameters: k={params.k} q={params.q} "
        f"a={','.join(map(str, params.a))} b={','.join(map(str, params.b))}"
    )
    ok = _verify_params(params, strategies, lines)
    return ok, lines


def cmd_bench(k_values, strategies=STRATEGIES, prefer_units: bool = False) -> list[BenchTable]:
    """Measured cost tables for each requested k (demo profiles where defined)."""
    tables = []
    for k in k_values:
        if k in DEMO_COEFFICIENTS and not prefer_units:
            params = demo_params(k)
        else:
            params = search_params(k, prefer_units=prefer_units)
        tables.append(emit_table(params, tuple(strategies)))
    return tables
