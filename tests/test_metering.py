import csv
import io

import numpy as np
import pytest

from hadamard_msr import metering
from hadamard_msr.codec import demo_params, search_params
from hadamard_msr.repair import build_repair_plan
from hadamard_msr.metering import (
    CSV_HEADER,
    BenchTable,
    bound_formulas,
    classify_node,
    emit_table,
    measure_repair,
    reference_counts,
)

# per-node (adds, muls) measured on the two demo profiles; the new strategy
# is exact, the second parity under the original strategy lands below its
# published reference, so only bounds are asserted there
NEW_K2 = {1: (28, 17), 2: (28, 17), 3: (28, 15), 4: (28, 20)}
NEW_K3 = {1: (80, 42), 2: (80, 42), 3: (80, 28), 4: (80, 44), 5: (80, 66)}


# Per-phase ((download adds, muls), (cancel ...), (recover ...)) of one chunk,
# captured from the instrumented executor that counted every field operation
# as it ran, before counting moved into RepairPlan.cost().  Keys: (profile,
# k, node, strategy); "demo" is demo_params(k), "search" is search_params(k).
PHASE_COUNTS = {
    ("demo", 2, 1, "new"): ((12, 0), (8, 3), (8, 14)),
    ("demo", 2, 1, "original"): ((60, 0), (16, 4), (56, 24)),
    ("demo", 2, 2, "new"): ((12, 0), (8, 3), (8, 14)),
    ("demo", 2, 2, "original"): ((60, 0), (16, 4), (56, 24)),
    ("demo", 2, 3, "new"): ((12, 0), (8, 1), (8, 14)),
    ("demo", 2, 3, "original"): ((60, 0), (16, 0), (56, 24)),
    ("demo", 2, 4, "new"): ((12, 12), (8, 2), (8, 6)),
    ("demo", 2, 4, "original"): ((60, 12), (20, 16), (56, 56)),
    ("demo", 3, 1, "new"): ((32, 0), (32, 14), (16, 28)),
    ("demo", 3, 1, "original"): ((224, 0), (64, 32), (240, 96)),
    ("demo", 3, 2, "new"): ((32, 0), (32, 14), (16, 28)),
    ("demo", 3, 2, "original"): ((224, 0), (64, 32), (240, 96)),
    ("demo", 3, 3, "new"): ((32, 0), (32, 12), (16, 16)),
    ("demo", 3, 3, "original"): ((224, 0), (64, 32), (240, 224)),
    ("demo", 3, 4, "new"): ((32, 0), (32, 12), (16, 32)),
    ("demo", 3, 4, "original"): ((224, 0), (64, 48), (240, 224)),
    ("demo", 3, 5, "new"): ((32, 40), (32, 14), (16, 12)),
    ("demo", 3, 5, "original"): ((224, 40), (80, 32), (240, 224)),
    ("search", 4, 1, "new"): ((80, 0), (96, 44), (32, 56)),
    ("search", 4, 1, "original"): ((720, 0), (192, 96), (992, 1024)),
    ("search", 4, 2, "new"): ((80, 0), (96, 44), (32, 56)),
    ("search", 4, 2, "original"): ((720, 0), (192, 96), (992, 1024)),
    ("search", 4, 3, "new"): ((80, 0), (96, 40), (32, 32)),
    ("search", 4, 3, "original"): ((720, 0), (192, 96), (992, 896)),
    ("search", 4, 4, "new"): ((80, 0), (96, 40), (32, 32)),
    ("search", 4, 4, "original"): ((720, 0), (192, 96), (992, 896)),
    ("search", 4, 5, "new"): ((80, 0), (96, 36), (32, 64)),
    ("search", 4, 5, "original"): ((720, 0), (192, 144), (992, 384)),
    ("search", 4, 6, "new"): ((80, 112), (96, 36), (32, 24)),
    ("search", 4, 6, "original"): ((720, 112), (240, 96), (992, 1024)),
    ("search", 5, 1, "new"): ((192, 0), (256, 112), (64, 128)),
    ("search", 5, 1, "original"): ((2112, 0), (512, 224), (4032, 3584)),
    ("search", 5, 2, "new"): ((192, 0), (256, 112), (64, 128)),
    ("search", 5, 2, "original"): ((2112, 0), (512, 224), (4032, 3584)),
    ("search", 5, 3, "new"): ((192, 0), (256, 120), (64, 112)),
    ("search", 5, 3, "original"): ((2112, 0), (512, 192), (4032, 3584)),
    ("search", 5, 4, "new"): ((192, 0), (256, 120), (64, 112)),
    ("search", 5, 4, "original"): ((2112, 0), (512, 192), (4032, 3584)),
    ("search", 5, 5, "new"): ((192, 0), (256, 112), (64, 128)),
    ("search", 5, 5, "original"): ((2112, 0), (512, 192), (4032, 4096)),
    ("search", 5, 6, "new"): ((192, 0), (256, 120), (64, 128)),
    ("search", 5, 6, "original"): ((2112, 0), (512, 224), (4032, 3584)),
    ("search", 5, 7, "new"): ((192, 288), (256, 96), (64, 64)),
    ("search", 5, 7, "original"): ((2112, 288), (640, 512), (4032, 3584)),
    ("search", 6, 1, "new"): ((448, 0), (640, 288), (128, 256)),
    ("search", 6, 1, "original"): ((5824, 0), (1280, 576), (16256, 14336)),
    ("search", 6, 2, "new"): ((448, 0), (640, 288), (128, 256)),
    ("search", 6, 2, "original"): ((5824, 0), (1280, 576), (16256, 14336)),
    ("search", 6, 3, "new"): ((448, 0), (640, 304), (128, 224)),
    ("search", 6, 3, "original"): ((5824, 0), (1280, 512), (16256, 16384)),
    ("search", 6, 4, "new"): ((448, 0), (640, 304), (128, 224)),
    ("search", 6, 4, "original"): ((5824, 0), (1280, 512), (16256, 16384)),
    ("search", 6, 5, "new"): ((448, 0), (640, 288), (128, 256)),
    ("search", 6, 5, "original"): ((5824, 0), (1280, 512), (16256, 14336)),
    ("search", 6, 6, "new"): ((448, 0), (640, 288), (128, 256)),
    ("search", 6, 6, "original"): ((5824, 0), (1280, 512), (16256, 14336)),
    ("search", 6, 7, "new"): ((448, 0), (640, 272), (128, 256)),
    ("search", 6, 7, "original"): ((5824, 0), (1280, 576), (16256, 14336)),
    ("search", 6, 8, "new"): ((448, 704), (640, 256), (128, 128)),
    ("search", 6, 8, "original"): ((5824, 704), (1600, 1280), (16256, 14336)),
}


@pytest.mark.parametrize("key", sorted(PHASE_COUNTS), ids=lambda key: "-".join(map(str, key)))
def test_plan_cost_matches_instrumented_counts(key, searched_params):
    profile, k, node, strategy = key
    params = demo_params(k) if profile == "demo" else searched_params[k]
    cost = build_repair_plan(params, node, strategy).cost()
    assert tuple(cost.values()) == PHASE_COUNTS[key]
    assert list(cost) == ["download", "cancel", "recover"]


# The same per-phase counts for search_params(7) and search_params(8), keyed
# by (k, node, strategy), captured from plan.cost() while the Sylvester
# recover map was still found by Gauss-Jordan elimination, before it was
# derived from the standard plan by a change of basis.
PHASE_COUNTS_K7_K8 = {
    (7, 1, "new"): ((1024, 0), (1536, 704), (256, 512)),
    (7, 1, "original"): ((15360, 0), (3072, 1536), (65280, 32768)),
    (7, 2, "new"): ((1024, 0), (1536, 704), (256, 512)),
    (7, 2, "original"): ((15360, 0), (3072, 1536), (65280, 32768)),
    (7, 3, "new"): ((1024, 0), (1536, 736), (256, 448)),
    (7, 3, "original"): ((15360, 0), (3072, 1536), (65280, 65536)),
    (7, 4, "new"): ((1024, 0), (1536, 736), (256, 448)),
    (7, 4, "original"): ((15360, 0), (3072, 1536), (65280, 65536)),
    (7, 5, "new"): ((1024, 0), (1536, 704), (256, 512)),
    (7, 5, "original"): ((15360, 0), (3072, 1536), (65280, 57344)),
    (7, 6, "new"): ((1024, 0), (1536, 704), (256, 512)),
    (7, 6, "original"): ((15360, 0), (3072, 1536), (65280, 57344)),
    (7, 7, "new"): ((1024, 0), (1536, 704), (256, 256)),
    (7, 7, "original"): ((15360, 0), (3072, 1536), (65280, 57344)),
    (7, 8, "new"): ((1024, 0), (1536, 640), (256, 512)),
    (7, 8, "original"): ((15360, 0), (3072, 2048), (65280, 57344)),
    (7, 9, "new"): ((1024, 1664), (1536, 640), (256, 256)),
    (7, 9, "original"): ((15360, 1664), (3840, 2944), (65280, 65536)),
    (8, 1, "new"): ((2304, 0), (3584, 1664), (512, 1024)),
    (8, 1, "original"): ((39168, 0), (7168, 3584), (261632, 262144)),
    (8, 2, "new"): ((2304, 0), (3584, 1664), (512, 1024)),
    (8, 2, "original"): ((39168, 0), (7168, 3584), (261632, 262144)),
    (8, 3, "new"): ((2304, 0), (3584, 1728), (512, 896)),
    (8, 3, "original"): ((39168, 0), (7168, 3584), (261632, 262144)),
    (8, 4, "new"): ((2304, 0), (3584, 1728), (512, 896)),
    (8, 4, "original"): ((39168, 0), (7168, 3584), (261632, 262144)),
    (8, 5, "new"): ((2304, 0), (3584, 1664), (512, 1024)),
    (8, 5, "original"): ((39168, 0), (7168, 3584), (261632, 229376)),
    (8, 6, "new"): ((2304, 0), (3584, 1664), (512, 1024)),
    (8, 6, "original"): ((39168, 0), (7168, 3584), (261632, 229376)),
    (8, 7, "new"): ((2304, 0), (3584, 1664), (512, 512)),
    (8, 7, "original"): ((39168, 0), (7168, 3584), (261632, 262144)),
    (8, 8, "new"): ((2304, 0), (3584, 1664), (512, 512)),
    (8, 8, "original"): ((39168, 0), (7168, 3584), (261632, 262144)),
    (8, 9, "new"): ((2304, 0), (3584, 1536), (512, 1024)),
    (8, 9, "original"): ((39168, 0), (7168, 4864), (261632, 131072)),
    (8, 10, "new"): ((2304, 3840), (3584, 1536), (512, 512)),
    (8, 10, "original"): ((39168, 3840), (8960, 6656), (261632, 262144)),
}


@pytest.fixture(scope="module")
def params_k7_k8():
    return {k: search_params(k) for k in (7, 8)}


@pytest.mark.parametrize(
    "key", sorted(PHASE_COUNTS_K7_K8), ids=lambda key: "-".join(map(str, key))
)
def test_plan_cost_matches_pinned_counts_k7_k8(key, params_k7_k8):
    k, node, strategy = key
    cost = build_repair_plan(params_k7_k8[k], node, strategy).cost()
    assert tuple(cost.values()) == PHASE_COUNTS_K7_K8[key]


# The same per-phase counts for search_params(9) and search_params(10), keyed
# by (k, node, strategy), captured from plan.cost() while it still counted
# the "original" schedule on the dense Sylvester tables it built, before the
# closed form replaced them.
PHASE_COUNTS_K9_K10 = {
    (9, 1, "new"): ((5120, 0), (8192, 3840), (1024, 2048)),
    (9, 1, "original"): ((97280, 0), (16384, 7680), (1047552, 1048576)),
    (9, 2, "new"): ((5120, 0), (8192, 3840), (1024, 2048)),
    (9, 2, "original"): ((97280, 0), (16384, 7680), (1047552, 1048576)),
    (9, 3, "new"): ((5120, 0), (8192, 3968), (1024, 1792)),
    (9, 3, "original"): ((97280, 0), (16384, 7168), (1047552, 1048576)),
    (9, 4, "new"): ((5120, 0), (8192, 3968), (1024, 1792)),
    (9, 4, "original"): ((97280, 0), (16384, 7168), (1047552, 1048576)),
    (9, 5, "new"): ((5120, 0), (8192, 3840), (1024, 2048)),
    (9, 5, "original"): ((97280, 0), (16384, 7168), (1047552, 917504)),
    (9, 6, "new"): ((5120, 0), (8192, 3840), (1024, 2048)),
    (9, 6, "original"): ((97280, 0), (16384, 7168), (1047552, 917504)),
    (9, 7, "new"): ((5120, 0), (8192, 3840), (1024, 2048)),
    (9, 7, "original"): ((97280, 0), (16384, 7168), (1047552, 917504)),
    (9, 8, "new"): ((5120, 0), (8192, 3840), (1024, 2048)),
    (9, 8, "original"): ((97280, 0), (16384, 7168), (1047552, 917504)),
    (9, 9, "new"): ((5120, 0), (8192, 3840), (1024, 2048)),
    (9, 9, "original"): ((97280, 0), (16384, 7168), (1047552, 1048576)),
    (9, 10, "new"): ((5120, 0), (8192, 3712), (1024, 2048)),
    (9, 10, "original"): ((97280, 0), (16384, 7168), (1047552, 1048576)),
    (9, 11, "new"): ((5120, 8704), (8192, 3584), (1024, 1024)),
    (9, 11, "original"): ((97280, 8704), (20480, 15872), (1047552, 1048576)),
    (10, 1, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 1, "original"): ((236544, 0), (36864, 17408), (4192256, 2097152)),
    (10, 2, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 2, "original"): ((236544, 0), (36864, 17408), (4192256, 2097152)),
    (10, 3, "new"): ((11264, 0), (18432, 8960), (2048, 3584)),
    (10, 3, "original"): ((236544, 0), (36864, 16384), (4192256, 4194304)),
    (10, 4, "new"): ((11264, 0), (18432, 8960), (2048, 3584)),
    (10, 4, "original"): ((236544, 0), (36864, 16384), (4192256, 4194304)),
    (10, 5, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 5, "original"): ((236544, 0), (36864, 16384), (4192256, 4194304)),
    (10, 6, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 6, "original"): ((236544, 0), (36864, 16384), (4192256, 4194304)),
    (10, 7, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 7, "original"): ((236544, 0), (36864, 16384), (4192256, 3670016)),
    (10, 8, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 8, "original"): ((236544, 0), (36864, 16384), (4192256, 3670016)),
    (10, 9, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 9, "original"): ((236544, 0), (36864, 16384), (4192256, 4194304)),
    (10, 10, "new"): ((11264, 0), (18432, 8704), (2048, 4096)),
    (10, 10, "original"): ((236544, 0), (36864, 16384), (4192256, 4194304)),
    (10, 11, "new"): ((11264, 0), (18432, 8192), (2048, 4096)),
    (10, 11, "original"): ((236544, 0), (36864, 16384), (4192256, 2097152)),
    (10, 12, "new"): ((11264, 19456), (18432, 8192), (2048, 2048)),
    (10, 12, "original"): ((236544, 19456), (46080, 34816), (4192256, 4194304)),
}


@pytest.fixture(scope="module")
def params_k9_k10():
    return {k: search_params(k) for k in (9, 10)}


@pytest.mark.parametrize(
    "key", sorted(PHASE_COUNTS_K9_K10), ids=lambda key: "-".join(map(str, key))
)
def test_plan_cost_matches_pinned_counts_k9_k10(key, params_k9_k10):
    k, node, strategy = key
    cost = build_repair_plan(params_k9_k10[k], node, strategy).cost()
    assert tuple(cost.values()) == PHASE_COUNTS_K9_K10[key]


@pytest.mark.parametrize("k", [7, 8])
def test_counts_and_bounds_k7_k8(k, params_k7_k8):
    # measure_repair also runs each repair and checks the rebuilt node
    params = params_k7_k8[k]
    for node in range(1, k + 3):
        assert measure_repair(params, node, "new").adds == (3 * k + 1) * params.n // 2
        assert measure_repair(params, node, "original").within_bounds, node


class TestBounds:
    @pytest.mark.parametrize(
        "k,node_class,strategy,expected",
        [
            (2, "systematic", "new", (28, 20)),
            (2, "parity1", "new", (28, 20)),
            (2, "parity2", "new", (28, 36)),
            (2, "systematic", "original", (136, 80)),
            (2, "parity2", "original", (152, 144)),
            (3, "systematic", "new", (80, 48)),
            (3, "parity2", "new", (80, 96)),
            (3, "systematic", "original", (608, 384)),
            (3, "parity2", "original", (800, 768)),
        ],
    )
    def test_frozen_values(self, k, node_class, strategy, expected):
        assert bound_formulas(k, node_class, strategy) == expected

    def test_formula_shapes(self):
        # new strategy: (3k+1)N/2 adds for every class
        for k in range(2, 8):
            n = 1 << (k + 1)
            for node_class in ("systematic", "parity1"):
                adds, muls = bound_formulas(k, node_class, "new")
                assert adds == (3 * k + 1) * n // 2
                assert muls == (k + 3) * n // 2
            adds, muls = bound_formulas(k, "parity2", "new")
            assert adds == (3 * k + 1) * n // 2
            assert muls == (3 * k + 3) * n // 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bound_formulas(2, "parity3", "new")
        with pytest.raises(ValueError):
            bound_formulas(2, "systematic", "fast")


class TestClassify:
    def test_classes(self, demo_k3):
        assert [classify_node(demo_k3, i) for i in range(1, 6)] == [
            "systematic",
            "systematic",
            "systematic",
            "parity1",
            "parity2",
        ]

    def test_out_of_range(self, demo_k3):
        with pytest.raises(ValueError):
            classify_node(demo_k3, 0)
        with pytest.raises(ValueError):
            classify_node(demo_k3, 6)


class TestMeasuredCounts:
    @pytest.mark.parametrize("node", [1, 2, 3, 4])
    def test_new_strategy_exact_k2(self, demo_k2, node):
        rep = measure_repair(demo_k2, node, "new")
        assert (rep.adds, rep.muls) == NEW_K2[node]
        assert rep.within_bounds

    @pytest.mark.parametrize("node", [1, 2, 3, 4, 5])
    def test_new_strategy_exact_k3(self, demo_k3, node):
        rep = measure_repair(demo_k3, node, "new")
        assert (rep.adds, rep.muls) == NEW_K3[node]
        assert rep.within_bounds

    @pytest.mark.parametrize("k", [2, 3])
    def test_original_strategy_within_bounds(self, k):
        params = demo_params(k)
        for node in range(1, k + 3):
            rep = measure_repair(params, node, "original")
            assert rep.within_bounds, (k, node, rep.adds, rep.muls)

    def test_counts_are_data_independent(self, demo_k2):
        a = measure_repair(demo_k2, 1, "new", rng=np.random.default_rng(1))
        b = measure_repair(demo_k2, 1, "new", rng=np.random.default_rng(99))
        assert (a.adds, a.muls) == (b.adds, b.muls)
        assert a.adds_by_phase == b.adds_by_phase

    def test_download_field(self, demo_k3):
        rep = measure_repair(demo_k3, 2, "new")
        assert rep.downloaded_symbols == 4 * 8

    def test_broken_repair_voids_the_count(self, demo_k2, monkeypatch):
        def sabotage(plan, survivors):
            return np.zeros(plan.params.n, dtype=np.int64)

        monkeypatch.setattr(metering, "execute_repair", sabotage)
        with pytest.raises(RuntimeError, match="counts void"):
            measure_repair(demo_k2, 1, "new")

    def test_phase_split_covers_total(self, demo_k3):
        rep = measure_repair(demo_k3, 4, "original")
        assert sum(rep.adds_by_phase.values()) == rep.adds
        assert sum(rep.muls_by_phase.values()) == rep.muls
        assert set(rep.adds_by_phase) == {"download", "cancel", "recover"}


class TestReferenceCounts:
    def test_demo_profiles_have_references(self, demo_k2, demo_k3):
        assert reference_counts(demo_k2, "new") == NEW_K2
        assert reference_counts(demo_k3, "new") == NEW_K3
        orig = reference_counts(demo_k2, "original")
        assert orig[1] == (132, 28) and orig[4] == (152, 120)

    def test_searched_profiles_have_none(self, searched_params):
        assert reference_counts(searched_params[4], "new") is None

    def test_non_demo_coefficients_have_none(self):
        p = search_params(3, 11)
        assert (p.a, p.b) != (demo_params(3).a, demo_params(3).b)
        assert reference_counts(p, "new") is None


@pytest.fixture(scope="module")
def table_k2(demo_k2):
    return emit_table(demo_k2, ("new", "original"))


class TestBenchTable:
    def test_text_has_reference_rows(self, table_k2):
        text = table_k2.text
        assert "node=1 strategy=new add=28" in text
        assert "ref_add=28 ref_mul=17" in text
        assert "OVER_BOUND" not in text

    def test_text_flags_reference_deltas(self, table_k2):
        # the measured original-strategy second parity beats its reference
        line = next(
            l for l in table_k2.text.splitlines()
            if "node=4" in l and "strategy=original" in l
        )
        assert "ref_delta_add=-16" in line
        assert "ref_delta_mul=-36" in line

    def test_text_rows_match_exact_references_without_deltas(self, table_k2):
        for line in table_k2.text.splitlines():
            if "strategy=new" in line:
                assert "ref_delta" not in line

    def test_csv_shape(self, table_k2):
        rows = list(csv.reader(io.StringIO(table_k2.csv)))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 1 + 8  # header + 4 nodes x 2 strategies
        for row in rows[1:]:
            node, strategy, *numbers = row
            assert strategy in ("new", "original")
            assert all(int(v) >= 0 for v in numbers)

    def test_csv_downloaded_column(self, table_k2):
        rows = list(csv.reader(io.StringIO(table_k2.csv)))
        downloaded = {int(r[6]) for r in rows[1:]}
        assert downloaded == {12}

    def test_searched_table_has_no_reference_column(self, searched_params):
        table = emit_table(searched_params[4], ("new",))
        assert "ref_add" not in table.text
        assert "OVER_BOUND" not in table.text

    def test_table_is_a_bench_table(self, table_k2):
        assert isinstance(table_k2, BenchTable)
        assert table_k2.params.k == 2
