"""Span tracing of the hadamard_msr layers, installed from outside the package.

The tracer wraps a fixed list of public functions and methods (TARGETS) and
records one span per call: name, start, end, parent span and the phase of the
benchmark it ran in.  Spans live in compact in-memory arrays and are written
out once, at the end of a run.

A module-level function is patched under every name that refers to it in any
hadamard_msr module, because callers look it up in their own globals
(`from .repair import build_repair_plan` binds it in cluster and metering too).
Methods are patched on their class.  A target that no longer exists is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path inside the module)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cluster.cmd_encode", "cluster", "cmd_encode"),
    ("cluster.cmd_kill", "cluster", "cmd_kill"),
    ("cluster.cmd_repair", "cluster", "cmd_repair"),
    ("cluster.cmd_decode", "cluster", "cmd_decode"),
    ("cluster.read_shard", "cluster", "read_shard"),
    ("cluster.write_shard", "cluster", "write_shard"),
    ("cluster.node_alive", "cluster", "ClusterState.node_alive"),
    ("codec.search_params", "codec", "search_params"),
    ("codec.chunk_file", "codec", "chunk_file"),
    ("codec.encode_blocks", "codec", "encode_blocks"),
    ("codec.encode", "codec", "encode"),
    ("codec.decode", "codec", "decode"),
    ("codec.unchunk", "codec", "unchunk"),
    ("repair.build_repair_plan", "repair", "build_repair_plan"),
    ("repair.execute_repair", "repair", "execute_repair"),
    ("repair.helper_payload", "repair", "HelperTask.payload"),
    ("repair.assemble", "repair", "RepairPlan.assemble"),
    ("field.vec_add", "field", "PrimeField.vec_add"),
    ("field.vec_sub", "field", "PrimeField.vec_sub"),
    ("field.diag_mul", "field", "PrimeField.diag_mul"),
    ("field.mat_vec", "field", "PrimeField.mat_vec"),
    ("field.inv_matrix", "field", "PrimeField.inv_matrix"),
    ("design.half_hadamard_apply", "design", "half_hadamard_apply"),
    ("metering.emit_table", "metering", "emit_table"),
)
LAYERS = ("cli", "cluster", "codec", "repair", "field", "design", "metering")
PHASES = ("other", "setup", "cycle")


class Tracer:
    """Records one span per call of every installed target."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("H")
        self.phase_id = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._phase = 0
        self._stack = []
        self._patches = []
        self.absent = []

    def set_phase(self, phase: str) -> None:
        """Tag the spans started from now on with `phase`."""
        self._phase = PHASES.index(phase)

    def _wrap(self, name, fn):
        nid = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_id.append(nid)
            self.phase_id.append(self._phase)
            self.parent.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        package = [
            m for key, m in sys.modules.items()
            if key == "hadamard_msr" or key.startswith("hadamard_msr.")
        ]
        for name, module, path in TARGETS:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(f"hadamard_msr.{module}")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Views of the recorded spans; take them once recording has stopped."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "phase_id": np.frombuffer(self.phase_id, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        covered = np.zeros_like(duration)
        child = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][child], duration[child])
        return duration - covered

    def totals(self, phase: str) -> dict:
        """name -> (calls, self seconds) over the spans of one phase."""
        spans = self.arrays()
        own = self.self_times()
        mask = spans["phase_id"] == PHASES.index(phase)
        ids = spans["name_id"][mask]
        calls = np.bincount(ids, minlength=len(self.names))
        seconds = np.bincount(ids, weights=own[mask], minlength=len(self.names))
        return {
            name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)
        }

    def save(self, path, meta: dict) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), phases=np.array(PHASES),
            meta=np.array(json.dumps(meta)), **self.arrays(),
        )
