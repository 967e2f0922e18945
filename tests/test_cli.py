import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hadamard_msr
from hadamard_msr.cli import build_parser, main
from hadamard_msr.metering import CSV_HEADER


@pytest.fixture
def blob(tmp_path):
    data = bytes(np.random.default_rng(3).integers(0, 256, size=500, dtype=np.uint8))
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    return path, data


# `hmsr verify` report lines for the k=2 demo profile
VERIFY_K2_DEMO = [
    "parameters: k=2 q=7 a=1,1 b=3,4",
    "ok: coefficient constraints hold for k=2, q=7",
    "ok: coding matrix entries all nonzero",
    "ok: coding matrices pairwise distinct at every entry",
    "ok: inverse coding matrices verified",
    "ok: all 11 erasure patterns (up to two nodes) decode exactly",
    "ok: rank conditions: 8/8 pass",
    "verification passed",
]


def encode_cluster(tmp_path, blob, extra=()):
    path, _ = blob
    root = tmp_path / "cluster"
    rc = main(["encode", str(path), str(root), "--k", "2", "--demo", *extra])
    assert rc == 0
    return root


class TestEncodeDecode:
    def test_round_trip(self, tmp_path, blob, capsys):
        path, data = blob
        root = encode_cluster(tmp_path, blob)
        assert "encoded 500 bytes" in capsys.readouterr().out
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data

    def test_decode_to_stdout(self, tmp_path, blob, capsysbinary):
        path, data = blob
        root = encode_cluster(tmp_path, blob)
        capsysbinary.readouterr()
        assert main(["decode", str(root)]) == 0
        assert capsysbinary.readouterr().out == data

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        rc = main(["encode", str(tmp_path / "nope"), str(tmp_path / "c"), "--k", "2"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_input_is_usage_error(self, tmp_path, capsys):
        rc = main(["encode", str(tmp_path), str(tmp_path / "c"), "--k", "2", "--demo"])
        assert rc == 1
        assert "is a directory" in capsys.readouterr().err

    def test_dev_null_input(self, tmp_path, capsys):
        # a character device, not a regular file: encodes to a 0-chunk cluster
        root = tmp_path / "c"
        assert main(["encode", os.devnull, str(root), "--k", "2", "--demo"]) == 0
        assert "encoded 0 bytes into 0 chunks" in capsys.readouterr().out
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_pipe_input(self, tmp_path, blob, capsys):
        # the whole payload fits the pipe buffer, so no writer thread is needed
        _, data = blob
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, data)
            os.close(write_fd)
            root = tmp_path / "c"
            rc = main(["encode", f"/dev/fd/{read_fd}", str(root), "--k", "2", "--demo"])
        finally:
            os.close(read_fd)
        assert rc == 0
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data

    def test_double_encode_refused(self, tmp_path, blob, capsys):
        encode_cluster(tmp_path, blob)
        path, _ = blob
        rc = main(["encode", str(path), str(tmp_path / "cluster"), "--k", "2"])
        assert rc == 1

    def test_demo_q_conflict(self, tmp_path, blob, capsys):
        path, _ = blob
        rc = main(
            ["encode", str(path), str(tmp_path / "c"), "--k", "2", "--demo", "--q", "11"]
        )
        assert rc == 1

    def test_decode_missing_cluster(self, tmp_path, capsys):
        assert main(["decode", str(tmp_path / "ghost")]) == 1


class TestKillRepair:
    def test_kill_repair_cycle(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["kill", str(root), "3"]) == 0
        assert "killed node 3" in capsys.readouterr().out
        assert main(["repair", str(root), "3", "--report"]) == 0
        out = capsys.readouterr().out
        assert "repaired node 3 with the new strategy" in out
        assert "download: adds=" in out
        assert "total: adds=" in out

    def test_report_lines_exact(self, tmp_path, blob, capsys):
        # README quickstart profile: k=3, q=257; node 2 is systematic
        path, _ = blob
        root = tmp_path / "cluster"
        assert main(["encode", str(path), str(root), "--k", "3", "--q", "257"]) == 0
        chunks = int(capsys.readouterr().out.split(" into ")[1].split()[0])
        assert main(["kill", str(root), "2"]) == 0
        capsys.readouterr()
        assert main(["repair", str(root), "2", "--report"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"repaired node 2 with the new strategy: {chunks} chunks, "
            f"{32 * chunks} symbols downloaded (32 per chunk)",
            f"  download: adds={32 * chunks} muls=0",
            f"  cancel: adds={32 * chunks} muls={16 * chunks}",
            f"  recover: adds={16 * chunks} muls={32 * chunks}",
            f"  total: adds={80 * chunks} muls={48 * chunks}",
        ]

    def test_kill_lines_exact(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        capsys.readouterr()
        assert main(["kill", str(root), "4"]) == 0
        assert main(["kill", str(root), "1"]) == 0
        assert main(["kill", str(root), "2", "--force"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "killed node 4; dead nodes now [4]",
            "killed node 1; dead nodes now [1, 4]",
            "killed node 2; dead nodes now [1, 2, 4]",
        ]

    def test_original_strategy_flag(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["kill", str(root), "1"]) == 0
        assert main(["repair", str(root), "1", "--strategy", "original"]) == 0
        assert "original strategy" in capsys.readouterr().out

    def test_repair_alive_node(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["repair", str(root), "1"]) == 1

    def test_third_kill_exit_code(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        main(["kill", str(root), "1"])
        main(["kill", str(root), "2"])
        rc = main(["kill", str(root), "4"])
        assert rc == 3
        assert "unrecoverable" in capsys.readouterr().err

    def test_forced_third_kill(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        main(["kill", str(root), "1"])
        main(["kill", str(root), "2"])
        assert main(["kill", str(root), "4", "--force"]) == 0

    def test_repair_after_double_kill_points_to_decode(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        main(["kill", str(root), "1"])
        main(["kill", str(root), "2"])
        rc = main(["repair", str(root), "1"])
        assert rc == 2
        assert "decode" in capsys.readouterr().err


class TestBench:
    def test_text_row(self, capsys):
        assert main(["bench", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "node=1 strategy=new add=28" in out
        assert "strategy=original" in out

    def test_k3_uniform_adds(self, capsys):
        assert main(["bench", "--k", "3", "--strategy", "new"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("node=")]
        assert len(rows) == 5
        assert all("add=80" in row for row in rows)

    def test_csv_header(self, capsys):
        assert main(["bench", "--k", "2", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9

    @pytest.mark.parametrize("k", [1, 0])
    def test_too_small_k_is_usage_error(self, k, capsys):
        assert main(["bench", "--k", str(k)]) == 1
        assert capsys.readouterr().err == f"error: k must be at least 2, got {k}\n"

    def test_csv_multiple_k_rejected(self, capsys):
        assert main(["bench", "--k", "2", "--k", "3", "--csv"]) == 1

    def test_default_runs_both_profiles(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "k=2 q=7" in out
        assert "k=3 q=11" in out


class TestVerify:
    def test_params_pass(self, capsys):
        assert main(["verify", "--params", "2,7"]) == 0
        assert capsys.readouterr().out.splitlines() == VERIFY_K2_DEMO

    def test_searched_params_pass(self, capsys):
        assert main(["verify", "--params", "4,11"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "parameters: k=4 q=11 a=2,2,5,5 b=4,7,2,9",
            "ok: coefficient constraints hold for k=4, q=11",
            "ok: coding matrix entries all nonzero",
            "ok: coding matrices pairwise distinct at every entry",
            "ok: inverse coding matrices verified",
            "ok: all 22 erasure patterns (up to two nodes) decode exactly",
            "ok: rank conditions: 24/24 pass",
            "verification passed",
        ]

    def test_k7_params_pass(self, capsys):
        # k=7: 63 rank conditions on 256 x 256 stacks, eliminated once each
        assert main(["verify", "--params", "7,19"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "parameters: k=7 q=19 a=2,2,4,4,5,5,9 b=9,10,6,13,8,11,5",
            "ok: coefficient constraints hold for k=7, q=19",
            "ok: coding matrix entries all nonzero",
            "ok: coding matrices pairwise distinct at every entry",
            "ok: inverse coding matrices verified",
            "ok: all 46 erasure patterns (up to two nodes) decode exactly",
            "ok: rank conditions: 63/63 pass",
            "verification passed",
        ]

    def test_bad_params_format(self, capsys):
        for spec in ("seven", "3", "3,", "3,7,1"):
            assert main(["verify", "--params", spec]) == 1, spec
            captured = capsys.readouterr()
            assert captured.out == "", spec
            assert captured.err == "error: --params expects two integers: k,q\n", spec

    def test_modulus_too_small(self, capsys):
        assert main(["verify", "--params", "3,7"]) == 1

    def test_cluster_mode(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["verify", str(root)]) == 0

    def test_cluster_with_dead_node_exact(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["kill", str(root), "4"]) == 0
        capsys.readouterr()
        assert main(["verify", str(root)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"cluster {root}: 125 chunks, 500 bytes",
            "note: dead nodes [4]",
            *VERIFY_K2_DEMO,
        ]

    def test_rejects_cluster_and_params(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["verify", str(root), "--params", "2,7"]) == 1

    def test_tampered_cluster_fails(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        mpath = root / "manifest.txt"
        mpath.write_text(mpath.read_text().replace("a: 1,1", "a: 0,1"))
        capsys.readouterr()
        rc = main(["verify", str(root)])
        assert rc == 2
        assert capsys.readouterr().out == "".join(
            line + "\n"
            for line in [
                f"cluster {root}: 125 chunks, 500 bytes",
                "parameters: k=2 q=7 a=0,1 b=3,4",
                "FAIL coefficient constraint: a_1 is zero",
                "FAIL coefficient constraint: a_1^2 - b_1^2 != -1 (mod 7)",
                "FAIL coefficient constraint: s*a_1 + t*a_2 = +-(b_1 - b_2) (mod 7) "
                "for some signs s, t",
                "ok: coding matrix entries all nonzero",
                "FAIL coding matrices: shared entry between two nodes",
                "ok: inverse coding matrices verified",
                "FAIL erasure decoding: patterns [(1, 2)] do not round-trip",
                "FAIL rank condition: node 1 recover: expected rank 8, "
                "pairs inconsistent, elimination rank 4",
                "FAIL rank condition: node 4 interference from node 2: expected rank 4, "
                "pairs inconsistent, elimination rank 8",
                "verification FAILED",
            ]
        )

    def test_needs_an_argument(self, capsys):
        assert main(["verify"]) == 1


class TestLiveness:
    """A node is dead when its segment is not a file."""

    def test_missing_segment_makes_node_dead(self, tmp_path, blob, capsys):
        _, data = blob
        root = encode_cluster(tmp_path, blob)
        (root / "node-03.seg").unlink()
        capsys.readouterr()
        assert main(["kill", str(root), "3"]) == 1
        assert "node 3 is already dead" in capsys.readouterr().err
        assert main(["verify", str(root)]) == 0
        assert "note: dead nodes [3]" in capsys.readouterr().out.splitlines()
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data
        assert main(["repair", str(root), "3"]) == 0
        capsys.readouterr()
        assert main(["kill", str(root), "1"]) == 0
        assert capsys.readouterr().out == "killed node 1; dead nodes now [1]\n"

    def test_segment_not_a_file_makes_node_dead(self, tmp_path, blob, capsys):
        _, data = blob
        root = encode_cluster(tmp_path, blob)
        (root / "node-02.seg").unlink()
        (root / "node-02.seg").mkdir()
        capsys.readouterr()
        assert main(["kill", str(root), "2"]) == 1
        assert "node 2 is already dead" in capsys.readouterr().err
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data

    def test_huge_manifest_chunk_count_is_wrong_size(self, tmp_path, blob, capsys):
        # the segment sizes are checked before any array of 10^12 chunks exists
        root = encode_cluster(tmp_path, blob)
        mpath = root / "manifest.txt"
        mpath.write_text(mpath.read_text().replace("chunk_count: 125", f"chunk_count: {10**12}"))
        assert main(["decode", str(root)]) == 2
        err = capsys.readouterr().err
        assert "node-01.seg has wrong size" in err
        assert f"wrong size for {10**12} chunks (125 in its header)" in err

    def test_stray_file_leaves_node_alive(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        (root / "notes.txt").write_text("not a segment\n")
        capsys.readouterr()
        assert main(["kill", str(root), "1"]) == 0
        assert capsys.readouterr().out == "killed node 1; dead nodes now [1]\n"
        assert main(["repair", str(root), "1"]) == 0
        assert main(["verify", str(root)]) == 0
        assert "note: dead nodes" not in capsys.readouterr().out

    def test_empty_cluster_nodes_alive(self, tmp_path, capsys):
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        root = tmp_path / "cluster"
        assert main(["encode", str(src), str(root), "--k", "2", "--demo"]) == 0
        capsys.readouterr()
        assert main(["verify", str(root)]) == 0
        assert "note: dead nodes" not in capsys.readouterr().out
        assert main(["repair", str(root), "1"]) == 1
        assert "node 1 is alive" in capsys.readouterr().err

    def test_each_command_reads_liveness_once(self, tmp_path, blob, capsys, monkeypatch):
        # one stat for the manifest and one per segment, k+3 in all; no listing
        root = encode_cluster(tmp_path, blob)
        listed, stats = [], []
        scandir, stat = os.scandir, os.stat

        def counting_scandir(*args):
            listed.append(args)
            return scandir(*args)

        def counting_stat(path, *args, **kwargs):
            stats.append(path)
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        monkeypatch.setattr(os, "stat", counting_stat)
        for argv in (
            ["kill", str(root), "4"],
            ["verify", str(root)],
            ["repair", str(root), "4"],
            ["decode", str(root), "--out", str(tmp_path / "out.bin")],
        ):
            listed.clear()
            stats.clear()
            assert main(argv) == 0
            assert listed == []
            assert len(stats) <= 2 + 3, stats


def names(root):
    return sorted(path.name for path in root.iterdir())


# what a k=2 cluster holds after a failed repair of node 2
CRASHED_REPAIR_2 = [
    "manifest.txt",
    "node-01.seg",
    "node-02.seg.dead",
    "node-03.seg",
    "node-04.seg",
]


class TestCrash:
    """A failing rename leaves a cluster that decodes and a command that reruns."""

    @staticmethod
    def failing_replace(monkeypatch, fail_on_call):
        replace, calls = os.replace, []

        def flaky(src, dst):
            calls.append(dst)
            if len(calls) == fail_on_call:
                raise OSError(f"injected failure renaming {src}")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky)
        return calls

    def test_repair_interrupted(self, tmp_path, blob, capsys, monkeypatch):
        _, data = blob
        root = encode_cluster(tmp_path, blob)
        assert main(["kill", str(root), "2"]) == 0
        with monkeypatch.context() as m:
            calls = self.failing_replace(m, 1)
            assert main(["repair", str(root), "2"]) == 2
            assert calls == [root / "node-02.seg"]
        assert "injected failure" in capsys.readouterr().err
        assert names(root) == CRASHED_REPAIR_2
        assert main(["kill", str(root), "2"]) == 1
        assert "node 2 is already dead" in capsys.readouterr().err
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data
        assert main(["repair", str(root), "2"]) == 0
        assert len(list(root.iterdir())) == 2 + 3
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data

    def test_repair_write_fails(self, tmp_path, blob, capsys, monkeypatch):
        # the device fills up partway through writing the rebuilt segment
        _, data = blob
        root = encode_cluster(tmp_path, blob)
        assert main(["kill", str(root), "2"]) == 0
        write_bytes = Path.write_bytes

        def disk_full(path, content):
            write_bytes(path, content[:10])
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as m:
            m.setattr(Path, "write_bytes", disk_full)
            assert main(["repair", str(root), "2"]) == 2
        assert "No space left" in capsys.readouterr().err
        assert names(root) == CRASHED_REPAIR_2
        assert main(["repair", str(root), "2"]) == 0
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data

    # the renames of node 1's segment, node 3's segment and the manifest
    @pytest.mark.parametrize("fail_on_call", [1, 3, 5])
    def test_encode_interrupted(self, tmp_path, blob, capsys, monkeypatch, fail_on_call):
        path, data = blob
        root = tmp_path / "cluster"
        argv = ["encode", str(path), str(root), "--k", "2", "--demo"]
        with monkeypatch.context() as m:
            self.failing_replace(m, fail_on_call)
            assert main(argv) == 2
        assert not (root / "manifest.txt").exists()
        assert not [name for name in names(root) if name.endswith(".tmp")]
        assert main(["decode", str(root)]) == 1
        assert main(argv) == 0
        assert len(list(root.iterdir())) == 2 + 3
        out = tmp_path / "out.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["scrub"]) == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_argument(self, capsys):
        assert main(["kill"]) == 1

    def test_non_integer_node(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["kill", str(root), "two"]) == 1


class TestParserReuse:
    """main() reuses one parser per process; each call parses afresh."""

    def test_parser_built_once(self, tmp_path, blob, capsys):
        build_parser.cache_clear()
        root = encode_cluster(tmp_path, blob)
        calls = 1
        for node in (1, 3, 4):
            assert main(["kill", str(root), str(node)]) == 0
            assert main(["repair", str(root), str(node)]) == 0
            calls += 2
        assert main(["decode", str(root), "--out", str(tmp_path / "out.bin")]) == 0
        calls += 1
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, calls - 1)
        assert (tmp_path / "out.bin").read_bytes() == blob[1]

    def test_repair_flags_do_not_leak(self, tmp_path, blob, capsys):
        root = encode_cluster(tmp_path, blob)
        assert main(["kill", str(root), "3"]) == 0
        assert main(["repair", str(root), "3", "--report", "--strategy", "original"]) == 0
        out = capsys.readouterr().out
        assert "original strategy" in out and "download: adds=" in out
        assert main(["kill", str(root), "3"]) == 0
        capsys.readouterr()
        assert main(["repair", str(root), "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "repaired node 3 with the new strategy: 125 chunks, "
            "1500 symbols downloaded (12 per chunk)"
        ]

    def test_force_does_not_stick(self, tmp_path, blob, capsys):
        forced = encode_cluster(tmp_path / "a", blob)
        plain = encode_cluster(tmp_path / "b", blob)
        for root in (forced, plain):
            assert main(["kill", str(root), "1"]) == 0
            assert main(["kill", str(root), "2"]) == 0
        assert main(["kill", str(forced), "4", "--force"]) == 0
        capsys.readouterr()
        assert main(["kill", str(plain), "4"]) == 3
        assert "unrecoverable" in capsys.readouterr().err

    def test_bench_k_does_not_stick(self, capsys):
        assert main(["bench", "--k", "2"]) == 0
        assert "k=3" not in capsys.readouterr().out
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "k=2 q=7" in out
        assert "k=3 q=11" in out

    @pytest.mark.parametrize(
        "bad", [["repair"], ["bench", "--k", "two"], ["scrub"], ["bench", "--strategy", "x"]]
    )
    def test_usage_error_between_good_calls(self, bad, capsys):
        assert main(["bench", "--k", "2", "--csv"]) == 0
        first = capsys.readouterr().out
        assert main(bad) == 1
        assert capsys.readouterr().out == ""
        assert main(["bench", "--k", "2", "--csv"]) == 0
        assert capsys.readouterr().out == first


def test_fresh_process_matches_in_process(tmp_path, blob, capsys):
    """`python -m hadamard_msr.cli` in a new process gives the same exit
    codes, output and decoded bytes as main() called in this one."""
    path, data = blob
    src = Path(hadamard_msr.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}

    def steps(root):
        return [
            ["encode", str(path), str(root), "--k", "3", "--q", "257"],
            ["kill", str(root), "2"],
            ["repair", str(root), "2", "--report"],
            ["decode", str(root), "--out", str(root / "out.bin")],
            ["repair", str(root)],
        ]

    def in_process(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def fresh_process(argv):
        done = subprocess.run(
            [sys.executable, "-m", "hadamard_msr.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    def script(run, root):
        results = []
        for argv in steps(root):
            rc, out, err = run(argv)
            results.append((rc, out.replace(str(root), "<root>"), bool(err)))
        return results

    here, there = tmp_path / "here", tmp_path / "there"
    expected = script(in_process, here)
    assert [rc for rc, _, _ in expected] == [0, 0, 0, 0, 1]
    assert script(fresh_process, there) == expected
    assert (here / "out.bin").read_bytes() == data
    assert (there / "out.bin").read_bytes() == data
