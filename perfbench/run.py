#!/usr/bin/env python3
"""Benchmark of hadamard_msr: encode -> kill -> repair -> decode on a
file-backed cluster, and the in-memory Python API under both strategies.

    python3 perfbench/run.py --workload cluster-k3 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout: the package is imported from ./src, and
clusters, decoded files and span dumps go under ./.perfbench, which is
removed again except for the span dumps.  Every program call goes through a
public entry point: `cli.main(argv)` in-process for the cluster workloads,
and `codec.encode`, `codec.decode`, `repair.build_repair_plan`,
`repair.execute_repair` and `metering.emit_table` for the API workloads.
Inputs come only from --seed.  One process, no extra threads.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced cycles for
half the time, then wraps the package's layers in spans (perfbench/tracing.py)
for the other half and prints per-layer call counts and self times, storage
I/O per command from /proc/self/io, the per-chunk add/mul counts of
`repair --report`, and the tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Timings are medians over every cycle of the run, and set-up time is the
median of several set-ups, each given at the host's nominal speed: the
benchmark times a fixed calibration loop right before and after each cycle or
set-up and scales that sample's wall time by the loop's nominal time over its
measured time (see `calibrate`).  Cluster data lives on whatever file
system holds the checkout (its type is printed); the program fsyncs nothing,
so device and fsync cost are not measured.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import fcntl
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import LAYERS, TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
MiB = 1 << 20
SETUP_REPS = 15
# calibrate() on the fast state of the 2-vCPU Xeon VM the bounds were set on.
CALIBRATION_NOMINAL_S = 1.25e-3
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


@dataclass(frozen=True)
class Workload:
    kind: str  # "cluster" drives the CLI over files, "api" the in-memory API
    k: int
    strategy: str
    q: int | None = None  # cluster only; the API workloads use the demo profile
    payload_kib: int = 0  # cluster: size of the encoded file
    batch: int = 0  # api: codewords per pass


WORKLOADS = {
    "cluster-k3": Workload("cluster", 3, "new", q=257, payload_kib=8),
    "api-k3-demo-new": Workload("api", 3, "new", batch=200),
    "api-k3-demo-original": Workload("api", 3, "original", batch=200),
}
SMOKE_PAYLOAD_KIB, SMOKE_BATCH = 4, 15

# The README's k=3 demo table: (node, strategy) -> (adds, muls).
README_K3_TABLE = {
    (1, "new"): (80, 42), (2, "new"): (80, 42), (3, "new"): (80, 28),
    (4, "new"): (80, 44), (5, "new"): (80, 66),
    (1, "original"): (528, 128), (2, "original"): (528, 128),
    (3, "original"): (528, 256), (4, "original"): (528, 272),
    (5, "original"): (544, 296),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycle_s": "s",
    "encode_MiBps": "MiB/s",
    "repair_MiBps": "MiB/s",
    "degraded_read_MiBps": "MiB/s",
    "stored_bytes_per_user_byte": "B/B",
    "allocated_bytes_per_user_byte": "B/B",
    "repair_traffic_ratio": "ratio",
    "peak_rss_MiB": "MiB",
    "ok_ops_ratio": "ratio",
}
PHASES = ("download", "cancel", "recover")
IO_KEYS = {"rchar": "read_bytes_per_user_byte", "wchar": "write_bytes_per_user_byte",
           "syscr": "read_syscalls", "syscw": "write_syscalls"}

REPORT_HEAD = re.compile(r"(\d+) chunks, (\d+) symbols downloaded")
REPORT_PHASE = re.compile(r"^\s*(download|cancel|recover): adds=(\d+) muls=(\d+)$", re.M)


def load_package():
    """Import hadamard_msr from this checkout's src/ and nowhere else."""
    if not (SRC / "hadamard_msr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hadamard_msr
    from hadamard_msr import cli, codec, metering, repair

    if not Path(hadamard_msr.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported hadamard_msr from {hadamard_msr.__file__}, not {SRC}")
    return cli, codec, repair, metering


def fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, right.split()[0]
    return kind


def spread_subdirectories(path: Path) -> bool:
    """Set the ext4 "top of directory hierarchy" attribute (chattr +T) on
    `path`, so ext4 places each new subdirectory in a block group of its own.

    Without a journal, ext4 skips inodes freed in the last 60-360 s one by
    one when it allocates a new one in the same group, which makes file
    creation up to 20x slower after a previous run's clean-up.  Spreading the
    clusters keeps that cost, caused by the benchmark and not the program,
    out of the figures.  Returns whether the attribute could be set.
    """
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        flags[0] |= FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def read_io() -> dict | None:
    try:
        text = Path("/proc/self/io").read_text()
    except OSError:
        return None
    fields = dict(line.split(": ") for line in text.splitlines())
    return {key: int(fields[key]) for key in IO_KEYS}


class Ops:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class Cycle:
    """Wall times of one cycle, by step; `io` holds /proc/self/io deltas."""

    encode_s: float = 0.0
    repair_s: float = 0.0
    decode_s: float = 0.0
    other_s: float = 0.0
    io: dict = field(default_factory=dict)
    speed: float = 1.0  # wall seconds times this gives seconds at nominal speed

    @property
    def cycle_s(self) -> float:
        return self.encode_s + self.repair_s + self.decode_s + self.other_s


class ClusterBench:
    """encode, kill n, repair n, kill 2, repair 2, kill 1, kill 3, decode.

    The final decode sees exactly nodes 2, 4..k+2, so node 2 and the second
    parity, both rebuilt by repair, feed a two-erasure decode: any wrong
    repaired symbol shows up in the decoded bytes.
    """

    def __init__(self, pkg, spec: Workload, seed: int, work: Path):
        self.cli, self.codec, self.repair, self.metering = pkg
        self.spec, self.seed, self.work = spec, seed, work
        self.input = work / "payload.bin"
        self.cycles_run = 0
        self.decoded = work / "decoded.bin"
        self.storage: dict | None = None
        self.counts: dict | None = None  # phase -> (adds, muls) per chunk, per repair
        self.traffic: float | None = None
        self._reference: dict = {}

    @property
    def user_bytes(self) -> int:
        return self.spec.payload_kib * 1024

    def setup(self) -> float:
        spec, repair = self.spec, self.repair
        t0 = perf_counter()
        self.payload = np.random.default_rng(self.seed).bytes(self.user_bytes)
        self.input.write_bytes(self.payload)
        self.params = self.codec.search_params(spec.k, spec.q)
        getattr(repair.build_repair_plan, "cache_clear", lambda: None)()
        for node in (spec.k + 2, 2):
            repair.build_repair_plan(self.params, node, spec.strategy)
        return perf_counter() - t0

    def cycle(self, ops: Ops) -> Cycle:
        # A fresh directory per cycle, all removed when the run ends: creating
        # shards where many files were just unlinked costs far more on ext4.
        # ext4 picks the block group of a spread directory from a hash of its
        # name, so the name also carries the process id.
        self.cycles_run += 1
        self.cluster = self.work / f"cluster-{os.getpid()}-{self.cycles_run}"
        k, n, cl = self.spec.k, self.spec.k + 2, str(self.cluster)
        repair_args = ["--strategy", self.spec.strategy, "--report"]
        steps = [
            ("encode", ["encode", str(self.input), cl, "--k", str(k), "--q", str(self.spec.q)]),
            ("other", ["kill", cl, str(n)]),
            ("repair", ["repair", cl, str(n), *repair_args]),
            ("other", ["kill", cl, "2"]),
            ("repair", ["repair", cl, "2", *repair_args]),
            ("other", ["kill", cl, "1"]),
            ("other", ["kill", cl, "3"]),
            ("decode", ["decode", cl, "--out", str(self.decoded)]),
        ]
        result = Cycle()
        repaired = []
        for step, argv in steps:
            before = read_io()
            out = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a dead benchmark
                rc = repr(exc)
            elapsed = perf_counter() - t0
            after = read_io()
            setattr(result, f"{step}_s", getattr(result, f"{step}_s") + elapsed)
            if before and after and step != "other":
                for key, name in IO_KEYS.items():
                    metric = f"{step}.{name}"
                    result.io[metric] = result.io.get(metric, 0) + after[key] - before[key]
            problems = [] if rc == 0 else [f"exit {rc}: {out.getvalue().strip()[:200]}"]
            if rc == 0 and step == "encode" and self.storage is None:
                self.storage = self._walk()
            if rc == 0 and step == "repair":
                problems += self._check_report(out.getvalue(), int(argv[2]), repaired)
            if rc == 0 and step == "decode" and self.decoded.read_bytes() != self.payload:
                problems.append("decoded bytes differ from the payload")
            ops.record(not problems, f"hmsr {' '.join(argv[:1] + argv[2:3])}: {problems}")
        if len(repaired) == 2:
            a, b = repaired
            self.counts = {
                p: ((a[p][0] + b[p][0]) / 2, (a[p][1] + b[p][1]) / 2) for p in PHASES
            }
        self.decoded.unlink(missing_ok=True)
        return result

    def _walk(self) -> dict:
        files = stored = allocated = 0
        for dirpath, _, names in os.walk(self.cluster):
            for name in names:
                st = os.lstat(os.path.join(dirpath, name))
                files += 1
                stored += st.st_size
                allocated += st.st_blocks * 512
        return {"files": files, "stored": stored, "allocated": allocated}

    def _check_report(self, text: str, node: int, repaired: list) -> list[str]:
        """Per-chunk `repair --report` counts against metering.measure_repair."""
        head, phases = REPORT_HEAD.search(text), REPORT_PHASE.findall(text)
        if head is None or len(phases) != 3:
            return [f"unparsable repair report: {text[:200]!r}"]
        chunks, downloaded = int(head[1]), int(head[2])
        k, n = self.params.k, self.params.n
        problems = []
        self.traffic = downloaded / (chunks * n)
        if self.traffic != (k + 1) / 2:
            problems.append(f"downloaded {downloaded} symbols for {chunks} chunks")
        per_chunk = {}
        for phase, adds, muls in phases:
            if int(adds) % chunks or int(muls) % chunks:
                problems.append(f"{phase} counts not a whole multiple of {chunks} chunks")
            per_chunk[phase] = (int(adds) // chunks, int(muls) // chunks)
        if node not in self._reference:
            report = self.metering.measure_repair(self.params, node, self.spec.strategy)
            self._reference[node] = {
                p: (report.adds_by_phase[p], report.muls_by_phase[p]) for p in PHASES
            }
        if per_chunk != self._reference[node]:
            problems.append(f"counts {per_chunk} != measure_repair {self._reference[node]}")
        adds = sum(a for a, _ in per_chunk.values())
        if self.spec.strategy == "new" and adds != (3 * k + 1) * n // 2:
            problems.append(f"{adds} adds per chunk, not (3k+1)N/2")
        repaired.append(per_chunk)
        return problems

    def step_mib(self) -> dict:
        """User MiB each timed step handles in one cycle."""
        mib = self.user_bytes / MiB
        return {"encode": mib, "repair": 2 * mib, "decode": mib}

    def end_to_end(self) -> dict:
        storage = self.storage or {"stored": 0, "allocated": 0}
        return {
            "stored_bytes_per_user_byte": storage["stored"] / self.user_bytes,
            "allocated_bytes_per_user_byte": storage["allocated"] / self.user_bytes,
            "repair_traffic_ratio": self.traffic or 0.0,
        }


class ApiBench:
    """Passes over a batch of codewords of the k=3 demo profile.

    Each pass encodes every codeword, repairs all k+2 nodes of each under the
    workload's strategy, and decodes each with one erasure pattern, rotating
    through all 15 patterns of one or two erased nodes.  Repair and decode
    start from reference codewords (codec.encode_blocks), so each call is
    checked on its own, after the timed pass.
    """

    def __init__(self, pkg, spec: Workload, seed: int, work: Path):
        _, self.codec, self.repair, self.metering = pkg
        self.spec, self.seed = spec, seed
        self.counts: dict | None = None
        self.traffic: float | None = None
        self.storage = None

    def setup(self) -> float:
        spec, codec, repair = self.spec, self.codec, self.repair
        t0 = perf_counter()
        params = codec.demo_params(spec.k)
        rng = np.random.default_rng(self.seed)
        self.parts = rng.integers(0, params.q, size=(spec.batch, spec.k, params.n))
        getattr(repair.build_repair_plan, "cache_clear", lambda: None)()
        self.plans = {
            node: repair.build_repair_plan(params, node, spec.strategy)
            for node in range(1, spec.k + 3)
        }
        self.table = self.metering.emit_table(params)
        elapsed = perf_counter() - t0
        self.params = params
        return elapsed

    @property
    def codeword_user_bytes(self) -> float:
        p = self.params
        return p.k * p.n * self.codec.bits_per_symbol(p.q) / 8

    def check_setup(self, ops: Ops) -> None:
        """The README table, the per-chunk counts and the download volume."""
        rows = {(r.node, r.strategy): (r.adds, r.muls) for r in self.table.reports}
        ops.record(rows == README_K3_TABLE, f"emit_table {rows} != README k=3 table")
        self.expected = self.codec.encode_blocks(self.params, self.parts)
        reports = [r for r in self.table.reports if r.strategy == self.spec.strategy]
        self.counts = {
            p: tuple(statistics.fmean(getattr(r, f"{kind}_by_phase")[p] for r in reports)
                     for kind in ("adds", "muls"))
            for p in PHASES
        }
        word = self.expected[0]
        shipped = [
            sum(plan.helper_payload(h, word[h - 1]).size for h in plan.helper_matrices)
            for plan in self.plans.values()
        ]
        self.traffic = statistics.fmean(shipped) / self.params.n
        ops.record(self.traffic == (self.spec.k + 1) / 2, f"helpers shipped {shipped}")
        nodes = range(1, self.spec.k + 3)
        patterns = [(a,) for a in nodes] + [(a, b) for a in nodes for b in nodes if a < b]
        self.encode_jobs = [(self.params, p) for p in self.parts]
        self.repair_jobs = [(self.plans[n], w) for w in self.expected for n in nodes]
        self.decode_jobs = []
        for i, w in enumerate(self.expected):
            erased = patterns[(self.seed + i) % len(patterns)]
            self.decode_jobs.append(
                (self.params, {n: w[n - 1] for n in nodes if n not in erased})
            )

    @staticmethod
    def _calls(fn, jobs) -> tuple[float, list]:
        out = []
        t0 = perf_counter()
        for args in jobs:
            try:
                out.append(fn(*args))
            except Exception as exc:  # counted as a failed call by the checks
                out.append(exc)
        return perf_counter() - t0, out

    def _pass(self):
        enc_s, words = self._calls(self.codec.encode, self.encode_jobs)
        rep_s, restored = self._calls(self.repair.execute_repair, self.repair_jobs)
        dec_s, decoded = self._calls(self.codec.decode, self.decode_jobs)
        return Cycle(encode_s=enc_s, repair_s=rep_s, decode_s=dec_s), words, restored, decoded

    def cycle(self, ops: Ops) -> Cycle:
        result, words, restored, decoded = self._pass()
        width = self.spec.k + 2
        for i, want in enumerate(self.expected):
            ops.record(_same(words[i], want), f"encode of codeword {i}")
            for j in range(width):
                ops.record(_same(restored[i * width + j], want[j]),
                           f"repair of node {j + 1} in codeword {i}")
            ops.record(_same(decoded[i], want), f"decode of codeword {i}")
        return result

    def step_mib(self) -> dict:
        """User MiB each timed step handles in one pass."""
        mib = self.spec.batch * self.codeword_user_bytes / MiB
        return {"encode": mib, "repair": (self.spec.k + 2) * mib, "decode": mib}

    def end_to_end(self) -> dict:
        tracemalloc.start()
        try:
            self._pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {
            "stored_bytes_per_user_byte":
                self.expected[0].nbytes / self.codeword_user_bytes,
            "allocated_bytes_per_user_byte":
                peak / (self.spec.batch * self.codeword_user_bytes),
            "repair_traffic_ratio": self.traffic,
        }


def _same(got, want) -> bool:
    return isinstance(got, np.ndarray) and np.array_equal(got, want)


def calibrate() -> float:
    """Wall time of a fixed loop of small numpy and Python operations, the
    mix the package itself runs.

    The host's CPU speed flips between a fast and a slow state about 2x
    apart, for seconds to minutes at a time (other tenants, not this
    process: CPU time equals wall time throughout).  Workload time divided by
    this loop's time, measured right before and after, stays within a few
    percent across both states for the API workloads, where raw medians of
    runs a minute apart differ by up to 1.7x.  The cluster cycle, with about
    a third of its time in the kernel, slows only ~1.35x in the slow state,
    so its figures are over-corrected there, but still spread less across
    runs than raw ones.  The loop lives outside the package, so no change to
    the program moves it.
    """
    t0 = perf_counter()
    a = np.arange(64, dtype=np.int64)
    for i in range(400):
        a = (a * 3 + i) % 257
        sum(range(40))
    return perf_counter() - t0


def at_nominal_speed(fn):
    """Run fn() between two calibrations; return its result and the factor
    that turns wall seconds measured meanwhile into seconds at nominal speed."""
    before = calibrate()
    result = fn()
    return result, CALIBRATION_NOMINAL_S / min(before, calibrate())


def measure(bench, ops: Ops, seconds: float) -> list[Cycle]:
    """Whole cycles until `seconds` have passed; at least one."""
    cycles = []
    deadline = perf_counter() + seconds
    while not cycles or perf_counter() < deadline:
        cycle, cycle.speed = at_nominal_speed(lambda: bench.cycle(ops))
        cycles.append(cycle)
    times = [c.cycle_s for c in cycles]
    print(f"cycles: {len(cycles)}, wall cycle_s min {min(times):.6g} "
          f"median {statistics.median(times):.6g} max {max(times):.6g}, "
          f"nominal cycle_s median {_median(cycles, 'cycle_s'):.6g}")
    return cycles


def _median(cycles: list[Cycle], step: str) -> float:
    """Median time of `step` over `cycles`, at nominal speed."""
    return statistics.median(getattr(c, step) * c.speed for c in cycles)


def run_untraced(bench, ops: Ops, seconds: float) -> dict:
    """End-to-end metrics.  Each timing is the median over the run's cycles
    at nominal speed; the fastest cycle would depend on whether a brief fast
    window happened to occur, and the mean on how long it lasted."""
    calibrate()  # warm-up
    setups = [setup * speed for setup, speed in
              (at_nominal_speed(bench.setup) for _ in range(SETUP_REPS))]
    if isinstance(bench, ApiBench):
        bench.check_setup(ops)
    cycles = measure(bench, ops, seconds)
    mib = bench.step_mib()
    metrics = {
        "setup_s": statistics.median(setups),
        "cycle_s": _median(cycles, "cycle_s"),
        "encode_MiBps": mib["encode"] / _median(cycles, "encode_s"),
        "repair_MiBps": mib["repair"] / _median(cycles, "repair_s"),
        "degraded_read_MiBps": mib["decode"] / _median(cycles, "decode_s"),
        **bench.end_to_end(),
        "peak_rss_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_ratio": (ops.attempted - ops.failed) / max(ops.attempted, 1),
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["cluster.files"] = "count"
    for step in ("encode", "repair", "decode"):
        for name in IO_KEYS.values():
            units[f"cluster.{step}.{name}"] = "count" if "syscalls" in name else "B/B"
    for phase in PHASES:
        for kind in ("adds", "muls"):
            units[f"repair.{phase}.{kind}_per_chunk"] = "count"
    units.update({
        "trace.overhead_ratio": "ratio",
        "trace.coverage_ratio": "ratio",
        "trace.absent_targets": "count",
    })
    return units


def run_traced(bench, ops: Ops, seconds: float, spans_path: Path, meta: dict) -> dict:
    """Untraced cycles for half the time as the baseline, then traced ones.

    Call counts and self times cover one set-up plus one cycle (the traced
    cycles averaged); `.s` is self time, the span minus its traced children.
    """
    bench.setup()
    if isinstance(bench, ApiBench):
        bench.check_setup(ops)
    baseline = measure(bench, ops, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_phase("setup")
        bench.setup()
        tracer.set_phase("cycle")
        cycles = measure(bench, ops, seconds / 2)
    finally:
        tracer.set_phase("other")
        tracer.uninstall()
    setup, cyc = tracer.totals("setup"), tracer.totals("cycle")
    n = len(cycles)
    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = setup[name][0] + cyc[name][0] / n
        values[f"{name}.s"] = setup[name][1] + cyc[name][1] / n
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            values[f"{name}.s"] for name in tracer.names if name.startswith(layer + ".")
        )
    values["cluster.files"] = bench.storage["files"] if bench.storage else 0
    for key, value in _io_per_cycle(cycles).items():
        if key.endswith("per_user_byte"):
            value /= bench.user_bytes
        values[f"cluster.{key}"] = value
    for phase, (adds, muls) in (bench.counts or {}).items():
        values[f"repair.{phase}.adds_per_chunk"] = adds
        values[f"repair.{phase}.muls_per_chunk"] = muls
    traced_s = sum(c.cycle_s for c in cycles)
    values["trace.overhead_ratio"] = (
        _median(cycles, "cycle_s") / _median(baseline, "cycle_s")
    )
    values["trace.coverage_ratio"] = sum(s for _, s in cyc.values()) / traced_s
    values["trace.absent_targets"] = len(tracer.absent)
    ops.record(0.9 <= values["trace.coverage_ratio"] <= 1.1,
               f"layer self times cover {values['trace.coverage_ratio']:.3f} of traced cycles")
    if tracer.absent:
        print(f"absent trace targets: {', '.join(tracer.absent)}")
    print(f"traced cycles: {n}, spans: {len(tracer.start)}, written to {spans_path}")
    tracer.save(spans_path, meta)
    return {name: (values.get(name, 0), unit) for name, unit in per_layer_units().items()}


def _io_per_cycle(cycles: list[Cycle]) -> dict:
    keys = {key for c in cycles for key in c.io}
    return {key: sum(c.io.get(key, 0) for c in cycles) / len(cycles) for key in keys}


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pkg = load_package()
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = (replace(spec, payload_kib=SMOKE_PAYLOAD_KIB) if spec.kind == "cluster"
                else replace(spec, batch=SMOKE_BATCH))
    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"work-{os.getpid()}"
    work.mkdir()
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fs_type": fs_type(work),
        "spread_subdirectories": spread_subdirectories(work),
        "platform": platform.platform(),
    }
    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {args.workload} {spec}")
    ops = Ops()
    try:
        bench = (ClusterBench if spec.kind == "cluster" else ApiBench)(pkg, spec, args.seed, work)
        if args.trace:
            spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.npz"
            meta = {"workload": args.workload, "seed": args.seed, "machine": machine}
            metrics = run_traced(bench, ops, args.seconds, spans, meta)
        else:
            metrics = run_untraced(bench, ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in ops.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
