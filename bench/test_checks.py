"""Fast tests of the benchmark's own reference code and tracer.

    python3 -m pytest bench/test_checks.py -q
"""

import random
import time

import checks
import pace
import spans
from workloads import random_rational_sl2

S = (0, 4, 1, 0)    # [[0, -1], [1, 0]] mod 5
T = (1, 1, 0, 1)


def test_hall_eulerian_a5():
    assert checks.eulerian_a5(2) == 2280
    assert checks.eulerian_a5(3) == 200160


def test_eulerian_class_counts():
    assert checks.generating_classes(checks.eulerian_a5(3), 1, 60) == 3336
    assert checks.generating_classes(checks.eulerian_sl2_5(2), 2, 120) == 152
    assert checks.eulerian_psl2_7(2) == 19152
    assert checks.generating_classes(checks.eulerian_psl2_7(2), 1, 168) == 114
    assert checks.eulerian_elementary_abelian(5, 2, 3) == 14880
    # no generating tuple shorter than the minimal generating size
    assert checks.eulerian_a5(1) == 0
    assert checks.eulerian_psl2_7(1) == 0


def test_group_orders():
    assert checks.sl_order(2, 5) == 120
    assert checks.sl_order(3, 5) == 372000
    assert checks.psl2_order(7) == 168


def test_bfs_standard_pair_and_triangular_pair():
    assert checks.closure_order([S, T], 2, 5) == 120
    assert checks.generates([S, T], "sl2", 5)
    assert checks.closure_order([S, T], 2, 5, proj=True) == 60
    borel = [(1, 1, 0, 1), (2, 0, 0, 3)]      # diag(2, 1/2) mod 5
    assert checks.closure_order(borel, 2, 5) == 20
    assert not checks.generates(borel, "sl2", 5)


def test_drop_check():
    whole, drops = checks.irredundant_generating([S, T, T], "sl2", 5)
    assert whole and drops == [1, 2]
    whole, drops = checks.irredundant_generating([S, T], "sl2", 5)
    assert whole and drops == []


def test_product_bfs_on_hand_built_tuples():
    one = checks.identity(2)
    graph = [(S, S), (T, T)]
    assert checks.product_closure_order(graph, 5, 5) == 60
    left_only = [(S, one), (T, one)]
    assert checks.product_closure_order(left_only, 5, 5) == 60
    both = left_only + [(one, S), (one, T)]
    assert checks.product_closure_order(both, 5, 5) == 3600


def test_reduction_mod_p():
    assert checks.reduce_mod_p(["1/2", "3"], 5) == (3, 3)
    assert checks.reduce_mod_p(["1/5"], 5) is None


def test_random_rational_matrices_have_determinant_one():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c, d = random_rational_sl2(rng)
        assert a * d - b * c == 1


def test_tracer_self_time_and_missing_entry_point(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", (
        ("gone", "genrank_no_such_module", "f", None),))
    monkeypatch.setattr(spans, "COUNTED", ())
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.missing == ["genrank_no_such_module.f"]
    assert tracer.layers()["gone"]["calls"] == 0

    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    layers = tracer.layers()
    assert layers["inner"]["calls"] == 3
    assert layers["outer"]["calls"] == 1
    covered = layers["outer"]["incl_s"] - layers["outer"]["self_s"]
    assert abs(covered - layers["inner"]["incl_s"]) < 1e-9
    assert tracer.nested_s("outer", "inner") == layers["inner"]["incl_s"]


def test_full_speed_time_counts_each_stretch_at_its_burst_speed():
    ref = pace.REFERENCE_BURST_S
    # bursts as (start, length, timed pass): full speed, then half speed
    bursts = [(1.0, 0.1, ref), (2.0, 0.1, 2 * ref)]
    # 0.0 to 1.0 at full speed, the first burst left out, 1.1 to 2.0 at
    # half speed, the second burst left out, 2.1 to 3.0 at half speed
    assert abs(pace.full_speed_time(bursts, 0.0, 3.0) - (1.0 + 0.45 + 0.45)) < 1e-12
    # a stretch inside a burst is the pacer's own cost
    assert pace.full_speed_time(bursts, 1.02, 1.08) == 0.0
    # a stretch with no burst after it counts at the last burst's speed
    assert abs(pace.full_speed_time(bursts, 2.5, 2.7) - 0.1) < 1e-12


def test_pacer_records_bursts_and_stops():
    pacer = pace.Pacer()
    pacer.start()
    try:
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            sum(range(1000))
    finally:
        pacer.stop()
    assert len(pacer.bursts) >= 3
    assert all(length >= timed > 0 for _, length, timed in pacer.bursts)
