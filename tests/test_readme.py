"""The README's count tables, Python API, Cluster layout and Layout blocks
agree with the code."""

from pathlib import Path

import pytest

from hadamard_msr.cli import main
from hadamard_msr.codec import demo_params
from hadamard_msr.metering import emit_table

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_count_table(k: int) -> list:
    """Rows of the README's count table for the k demo profile, as cells."""
    heading = f"`k={k}, q={demo_params(k).q}` (demo profile):"
    assert heading in README
    lines = README.split(heading, 1)[1].strip().splitlines()
    rows = []
    for line in lines[2:]:  # skip the header and the alignment row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


@pytest.mark.parametrize("k", [2, 3])
def test_count_tables_match_emit_table(k):
    reports = {(r.node, r.strategy): r for r in emit_table(demo_params(k)).reports}
    expected = []
    for node in range(1, k + 3):
        new, original = reports[node, "new"], reports[node, "original"]
        counts = (new.adds, new.muls, original.adds, original.muls)
        expected.append([str(node), new.node_class, *map(str, counts)])
    rows = readme_count_table(k)
    for row in rows:
        row[1] = row[1].replace(" ", "")  # "parity 1" -> "parity1"
    assert rows == expected


def test_python_api_block_runs():
    block = README.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "execute_repair" in block
    exec(compile(block, "README.md (Python API)", "exec"), {})


def layout_paths() -> list:
    """Paths in the Layout block: top-level entries and the files under them."""
    block = README.split("## Layout", 1)[1].split("```")[1]
    paths, parent = [], ""
    for line in block.splitlines():
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        if line.startswith(" "):
            paths.append(parent + entry)
        else:
            parent = entry
            paths.append(entry)
    return paths


def test_layout_paths_exist():
    assert [p for p in layout_paths() if not (ROOT / p).exists()] == []


def test_layout_lists_every_package_module():
    package = ROOT / "src" / "hadamard_msr"
    modules = {str(p.relative_to(ROOT)) for p in package.rglob("*.py")}
    listed = {p for p in layout_paths() if p.startswith("src/hadamard_msr/") and p.endswith(".py")}
    assert listed == modules


def test_cluster_layout_names_the_files_encode_creates(tmp_path, capsys):
    block = README.split("## Cluster layout", 1)[1].split("```")[1]
    entries = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    listed = [e for e in entries if e and e != "cluster/"]
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)) * 4)
    root = tmp_path / "cluster"
    assert main(["encode", str(src), str(root), "--k", "3"]) == 0
    assert listed == sorted(p.name for p in root.iterdir())
