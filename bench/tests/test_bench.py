"""Tests of the benchmark's own parts; only the tracer's test imports deltan.

    python3 -m pytest bench/tests -q
"""

import array
import collections
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from worker import rule_expects  # noqa: E402


# ---------------------------------------------------------------------------
# self time: a span's duration minus what its child spans cover
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    agg = spans.SpanAggregate(clock=clock)
    outer = agg.enter("a.outer")          # t=0
    clock.now = 1.0
    child = agg.enter("b.child")          # t=1
    clock.now = 2.0
    grandchild = agg.enter("c.leaf")      # t=2
    clock.now = 5.0
    agg.leave(*grandchild)                # leaf: 3 s, all self
    clock.now = 6.0
    agg.leave(*child)                     # child: 5 s, 2 s self
    clock.now = 6.5
    second = agg.enter("b.child")         # t=6.5
    clock.now = 7.0
    agg.leave(*second)                    # 0.5 s, all self
    clock.now = 10.0
    agg.leave(*outer)                     # outer: 10 s, 10 - 5 - 0.5 self
    by_name = agg.by_name()
    assert by_name["a.outer"] == (1, pytest.approx(4.5))
    assert by_name["b.child"] == (2, pytest.approx(2.5))
    assert by_name["c.leaf"] == (1, pytest.approx(3.0))
    assert agg.spans[("b.child", "a.outer")][:2] == [2, pytest.approx(5.5)]
    total_self = sum(s for _, s in by_name.values())
    assert total_self == pytest.approx(10.0)  # self times tile the root span


# ---------------------------------------------------------------------------
# calibration: an operation's speed is the mean of the samples nearest to it
# ---------------------------------------------------------------------------

def test_latency_speed_is_the_mean_of_the_nearest_samples():
    cal = worker.Calibrator()
    ref, k = worker.CAL_REF_S, worker.CAL_WINDOW
    cal.samples = array.array("d", [ref * (i + 1) for i in range(20)])  # speeds 1..20
    cal.done = [3 * (i + 1) for i in range(20)]  # sample i after 3(i+1) operations
    speeds = cal.local_speeds(60)
    for op in range(60):
        first_after = op // 3
        window = range(max(0, first_after - k) + 1, min(20, first_after + k) + 1)
        assert speeds[op] == pytest.approx(sum(window) / len(window))
    assert cal.speed() == pytest.approx(10.5)


# ---------------------------------------------------------------------------
# the finite-ring rule against plain brute force on Z_n and Z_a x Z_b
# ---------------------------------------------------------------------------

def _zn(n):
    elems = list(range(n))
    return elems, (lambda x, y: (x + y) % n), (lambda x, y: x * y % n), 0


def _prod(a, b):
    elems = list(itertools.product(range(a), range(b)))
    return (elems, (lambda x, y: ((x[0] + y[0]) % a, (x[1] + y[1]) % b)),
            (lambda x, y: (x[0] * y[0] % a, x[1] * y[1] % b)), (0, 0))


def _ideals(elems, add, mul, zero):
    """Every ideal, as the closure of each subset of at most two generators."""
    out = set()
    for gens in itertools.chain([()], itertools.combinations(elems, 1),
                                itertools.combinations(elems, 2)):
        ideal = {zero}
        frontier = [mul(r, g) for g in gens for r in elems]
        while frontier:
            x = frontier.pop()
            if x not in ideal:
                ideal.add(x)
                frontier.extend(add(x, y) for y in list(ideal))
        out.add(frozenset(ideal))
    return out


def _radical(elems, mul, zero, ideal):
    out = set()
    for r in elems:
        p = r
        for _ in range(len(elems)):
            if p in ideal:
                out.add(r)
                break
            p = mul(p, r)
    return frozenset(out)


def _delta_n(elems, mul, nil, ideal, value):
    return all(mul(a, b) not in ideal or b in value
               for a in elems if a not in nil for b in elems)


def _rings_up_to_36():
    for n in range(2, 37):
        yield f"Z{n}", ("Z", n), _zn(n)
    for a in range(2, 19):
        for b in range(2, 37 // a + 1):
            yield f"Z{a} x Z{b}", ("X", a, b), _prod(a, b)


@pytest.mark.parametrize("label,model,ring", list(_rings_up_to_36()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_finite_ring_rule_matches_brute_force(label, model, ring):
    elems, add, mul, zero = ring
    whole = frozenset(elems)
    idempotents = sum(1 for e in elems if mul(e, e) == e)
    local = workloads.model_is_local(model)
    assert local == (idempotents == 2)
    lattice = _ideals(elems, add, mul, zero)
    if model[0] == "Z":
        assert len(lattice) == workloads.model_lattice_size(model)
    nil = _radical(elems, mul, zero, {zero})
    for I in lattice:
        if I == whole:
            continue
        values = {"d0": I, "d1": _radical(elems, mul, zero, I), "full": whole}
        for J in lattice:  # d+(J) and d*(J), tabled by brute force
            values[("d+", J)] = frozenset(add(x, y) for x in I for y in J)
            values[("d*", J)] = frozenset(r for r in elems
                                          if all(mul(r, j) in I for j in J))
        for kind, value in values.items():
            name = kind if isinstance(kind, str) else kind[0]
            want = _delta_n(elems, mul, nil, I, value)
            assert rule_expects(local, name, lambda: value == whole) == want, \
                (label, sorted(I), kind)


# ---------------------------------------------------------------------------
# the query generator
# ---------------------------------------------------------------------------

def _profile(queries):
    return collections.Counter((q["backend"], q["band"], q["size"], q["kind"], q["form"])
                               for q in queries)


def test_same_seed_gives_the_same_queries():
    assert workloads.generate_queries(7) == workloads.generate_queries(7)


def test_seeds_differ_in_inputs_not_in_make_up():
    base = workloads.generate_queries(0)
    per_cell = collections.Counter((q["backend"], q["band"]) for q in base)
    assert len(base) >= 100
    assert set(per_cell) == {(b, band) for b in workloads.BACKENDS
                             for band in workloads.BANDS}
    for seed in range(1, 40):
        other = workloads.generate_queries(seed)
        assert _profile(other) == _profile(base)
        assert [q["argv"] for q in other] != [q["argv"] for q in base]


@pytest.mark.parametrize("seed", range(25))
def test_queries_use_fresh_specs_within_their_bands(seed):
    queries = workloads.generate_queries(seed)
    specs = [q["argv"][1] for q in queries]
    assert len(set(specs)) == len(specs)
    lo, hi = 16, 128
    for q in queries:
        assert lo <= q["size"] <= hi
        band_lo, band_hi = map(int, q["band"].split("-"))
        assert band_lo <= q["size"] <= band_hi
        if q["kind"] == "classify":
            assert q["argv"][3] == "--delta"


def test_ladder_is_a_permutation_with_closed_forms():
    for seed in range(5):
        order = workloads.ladder_order(seed)
        assert sorted(order) == sorted(workloads.LADDER)
    assert workloads.ladder_order(3) == workloads.ladder_order(3)
    for entry in workloads.LADDER:
        assert workloads.model_lattice_size(workloads.ladder_model(entry)) is not None


def test_closed_forms():
    assert workloads.tau(144) == 15
    assert workloads.model_lattice_size(("P", 2, (0,) * 7 + (1,))) == 8
    assert workloads.model_lattice_size(("P", 2, (1, 1, 1))) == 2   # GF(4)
    assert workloads.model_lattice_size(("P", 5, (1, 0, 1))) is None  # Z5 x Z5
    assert workloads.model_is_local(("P", 5, (1, 0, 1))) is False
    assert workloads.model_is_local(("P", 4, (0, 0, 1))) is True


SMALL_MODELS = (
    ("P", 2, (1, 0, 1)), ("P", 3, (2, 0, 1)), ("P", 4, (1, 1, 1)), ("P", 6, (5, 0, 1)),
    ("P", 2, (1, 1, 0, 1)), ("I", ("Z", 4), ("Z", 4)), ("I", ("Z", 6), ("Z", 3)),
    ("I", ("Z", 8), ("Z", 4)), ("I", ("Z", 9), ("Z", 3)),
    ("I", ("P", 2, (1, 1, 1)), ("P", 2, (1, 1, 1))),
    ("I", ("P", 2, (0, 0, 1)), ("P", 2, (0, 0, 1))),
)


@pytest.mark.parametrize("model", SMALL_MODELS, ids=repr)
def test_ideal_count_matches_generator_closure(model):
    elems, add, mul = workloads.model_arith(model)
    zero = elems[0]
    assert all(add(zero, x) == x for x in elems)
    assert workloads.count_ideals(model) == len(_ideals(elems, add, mul, zero))


def test_ideal_count_matches_closed_forms():
    for n in range(2, 50):
        assert workloads.count_ideals(("Z", n)) == workloads.tau(n)
    for a, b in ((4, 6), (8, 9), (5, 7)):
        assert workloads.count_ideals(("X", a, b)) == workloads.tau(a) * workloads.tau(b)
    for entry in (("P", 2, 6), ("P", 5, 3)):
        model = workloads.ladder_model(entry)
        assert workloads.count_ideals(model) == workloads.model_lattice_size(model)
    assert workloads.count_ideals(("P", 5, (1, 0, 1))) == 4  # Z5 x Z5


def test_uninstall_restores_every_binding():
    pytest.importorskip("deltan")
    from deltan import claims, cli, dsl, predicates, rings, verifier  # noqa: F401
    before = (dict(claims.CHECKERS), rings.Ring.__init__,
              predicates.is_delta_n_ideal, verifier.enumerate_ideals)
    tracer = spans.Tracer()
    tracer.install()
    assert verifier.enumerate_ideals is not before[3]
    assert claims.CHECKERS["thm-existence"] is not before[0]["thm-existence"]
    tracer.uninstall()
    after = (dict(claims.CHECKERS), rings.Ring.__init__,
             predicates.is_delta_n_ideal, verifier.enumerate_ideals)
    assert after == before
