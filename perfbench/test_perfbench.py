"""Tests of the benchmark's own parts: the oracle, the sampler, the
self-time accounting and the metric names.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

import layers
import workloads
from oracle import Oracle, mp_root_t

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def oracle():
    return Oracle(ROOT)


def _row(n, k, t, lam):
    half = (n - 2.0) / 2.0
    sq = math.sqrt(half * half + lam)
    return {"n": n, "k": k, "t_nk": t, "lambda1": lam,
            "gamma_plus": -half + sq, "gamma_minus": -half - sq}


# (7, 1) as the CLI prints it; (20, 10) with a lambda1 that passes the
# range checks, to exercise the n > 12 path
ROW_7_1 = _row(7, 1, 0.5173305416768469, -5.698402217770521)


def _row_20_10(oracle):
    return _row(20, 10, oracle.t_star[(20, 10)], -17.5)


def _payload(*rows):
    return json.dumps({"schema_version": 1, "rows": list(rows), "flags": []}).encode()


def test_oracle_accepts_correct_rows(oracle):
    assert oracle.cone_row_problems(ROW_7_1, (7, 1)) == []
    assert oracle.cone_row_problems(_row_20_10(oracle), (20, 10)) == []


@pytest.mark.parametrize("key,delta", [("t_nk", 1e-6), ("lambda1", 0.01)])
def test_oracle_catches_perturbed_values(oracle, key, delta):
    for row, cell in ((ROW_7_1, (7, 1)), (_row_20_10(oracle), (20, 10))):
        bad = dict(row, **{key: row[key] + delta})
        assert oracle.cone_row_problems(bad, cell), (key, cell)


def test_oracle_counts_missing_rows_and_bad_exit(oracle):
    assert oracle.check_cones(_payload(ROW_7_1), 0, [(7, 1)]) == (1, 0, [])
    assert oracle.check_cones(_payload(ROW_7_1), 0, [(7, 1), (7, 2)])[:2] == (2, 1)
    assert oracle.check_cones(_payload(ROW_7_1), 1, [(7, 1)])[:2] == (1, 1)
    assert oracle.check_cones(b"not json", 0, [(7, 1)])[:2] == (1, 1)


def test_oracle_verify_records(oracle):
    rows = [{"suite": "s", "name": n, "passed": True, "detail": ""}
            for n in oracle.verify_names]
    assert oracle.check_verify(_payload(*rows), 0) == (len(rows), 0, [])
    rows[3]["passed"] = False
    assert oracle.check_verify(_payload(*rows), 1)[1] == len(rows)
    assert oracle.check_verify(_payload(*rows), 0)[1] == 1
    assert oracle.check_verify(_payload(*rows[1:]), 0)[1] == 2


def test_t_oracle_matches_mpmath():
    pytest.importorskip("mpmath")
    table = {(n, k): t for n, k, t in json.loads((HERE / "t_oracle.json").read_text())}
    for cell in ((9, 6), (40, 38)):
        assert abs(mp_root_t(*cell) - table[cell]) < 1e-15
    assert abs(table[(9, 6)] - math.sqrt(6.0 / 7.0)) < 1e-15  # k = n-3 closed form


def test_cold_sample_is_seeded_and_balanced():
    a, b = workloads.cold_sample(1), workloads.cold_sample(2)
    assert a == workloads.cold_sample(1) and a != b
    for sample in (a, b):
        assert len(sample) == 4 * workloads.COLD_STRATA
        assert sum((n - k) % 2 == 0 for n, k in sample) == len(sample) // 2
        assert all(7 <= n <= 40 and 1 <= k <= n - 2 for n, k in sample)


def _span(name, t0, t1, parent, tid):
    return (name, t0, t1, parent, tid, None)


def test_self_times_partition_the_wall_time():
    # main thread: cli.main [0, 10] waits on two workers from t = 1 to 9;
    # worker A runs find_root [1, 9] with a child hyp2f1 [2, 4];
    # worker B runs find_root [3, 5]
    spans = {
        0: _span("cli.main", 0.0, 10.0, -1, 1),
        1: _span("cone.find_root", 1.0, 9.0, 0, 2),
        2: _span("specfun.hyp2f1", 2.0, 4.0, 1, 2),
        3: _span("cone.find_root", 3.0, 5.0, 0, 3),
    }
    own = layers.self_times(spans)
    assert own[0] == pytest.approx(2.0)            # before 1 and after 9
    assert own[2] == pytest.approx(1.0 + 0.5)      # alone in [2,3], shared in [3,4]
    assert own[3] == pytest.approx(0.5 + 0.5)      # shared in [3,4] and [4,5]
    assert own[1] == pytest.approx(1.0 + 0.5 + 4.0)
    assert sum(own.values()) == pytest.approx(10.0)
    m = layers.summarize([{"spans": spans, "counts": {}}], 12.0)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert m["cone.find_root.useful_ratio"] == 0.0  # no return values recorded


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       700 |        700 |     scipy.integrate",
        "import time:        20 |        720 |   scipy",
        "import time:        30 |       1000 | conelab",
    ])
    out = layers.parse_importtime(text)
    assert out == pytest.approx({"import.conelab.s": 1000e-6, "import.scipy.s": 720e-6,
                                 "import.numpy.s": 150e-6})


def test_declared_metrics_are_the_produced_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layers.summarize([], 1.0)) | set(layers.parse_importtime("")) | {
        "trace.overhead_s", "backend.hyp2f1_series.us_fixed", "backend.robin_shoot.us_fixed"}
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared <= produced
    # every span's self time is declared, so the identity holds on the output
    assert {f"{name}.self_s" for name in layers.SPAN_NAMES} <= declared
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import traced
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert set(traced.SPAN_POINTS) | {"cli.main"} == set(layers.SPAN_NAMES)
