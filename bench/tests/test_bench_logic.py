"""Tests of the benchmark's own logic: span arithmetic, the tail rule, the
tracer's patching, and the seed-to-parameter mapping.

    python3 -m pytest bench/tests
"""

import json
from pathlib import Path

import pytest

import hnnrep
import hnnrep.cli
import hnnrep.matrix
import hnnrep.reps
import hnnrep.splittable
import run
import tracer as tracing
import workloads
from hnnrep.splittable import InnerTau, MatrixGroupGens

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "reference.json").read_text())


def span(name, start, end, parent=-1):
    return (name, start, end, parent, 0)


class TestSelfTime:
    def test_no_children(self):
        assert tracing.self_times([span("a", 0.0, 2.0)]) == [2.0]

    def test_overlapping_children_count_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
            span("c", 8.0, 9.0, 0),
        ]
        # children cover [1, 6] and [8, 9]: 6 of the root's 10 seconds
        assert tracing.self_times(spans)[0] == pytest.approx(4.0)

    def test_children_clipped_to_parent(self):
        spans = [span("root", 2.0, 5.0), span("a", 0.0, 3.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(2.0)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 0.0, 6.0, 0),
            span("b", 1.0, 3.0, 1),
        ]
        assert tracing.self_times(spans) == pytest.approx([4.0, 4.0, 2.0])

    def test_summarize_counts_recursion_once_in_total(self):
        spans = [
            span("f", 0.0, 10.0),
            span("f", 2.0, 6.0, 0),
            span("g", 3.0, 4.0, 1),
        ]
        row = tracing.summarize(spans)["f"]
        assert row["calls"] == 2
        assert row["total_s"] == pytest.approx(10.0)
        assert row["self_s"] == pytest.approx(6.0 + 3.0)


class TestTail:
    def test_rule_leaves_ten_beyond(self):
        values = list(range(1, 41))  # 40 samples
        value, pct, met = run.tail(values)
        assert met
        assert sum(1 for v in values if v > value) == 10
        assert pct == pytest.approx(75.0)

    def test_rule_at_twenty_samples_is_the_median_rank(self):
        value, pct, met = run.tail(list(range(20)))
        assert (value, pct, met) == (9, 50.0, True)

    def test_too_few_samples_report_the_upper_quartile(self):
        value, pct, met = run.tail([4.0, 1.0, 3.0, 2.0, 5.0])
        assert (value, pct, met) == (4.0, 75.0, False)
        assert run.tail([1.0, 3.0]) == (2.5, 75.0, False)
        assert run.tail([7.0]) == (7.0, 75.0, False)
        value, _, met = run.tail(list(range(19)))
        assert (value, met) == (13.5, False)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 8
        assert run.tail(values) == run.tail(sorted(values))


class TestTracer:
    def test_restore_puts_back_every_original(self):
        cls_raw = hnnrep.splittable.MatrixGroupGens.__dict__["from_json"]
        mul = hnnrep.matrix.RingMatrix.__mul__
        probe = hnnrep.reps.probe_faithfulness
        with tracing.Tracer() as tracer:
            assert tracer._patches
            assert hnnrep.matrix.RingMatrix.__mul__ is not mul
            # the CLI imported the name; its binding is patched too
            assert hnnrep.cli.probe_faithfulness is not probe
            assert hnnrep.cli.probe_faithfulness is hnnrep.reps.probe_faithfulness
            assert hnnrep.probe_faithfulness is hnnrep.reps.probe_faithfulness
        assert hnnrep.matrix.RingMatrix.__mul__ is mul
        assert hnnrep.reps.probe_faithfulness is probe
        assert hnnrep.cli.probe_faithfulness is probe
        assert hnnrep.probe_faithfulness is probe
        assert hnnrep.splittable.MatrixGroupGens.__dict__["from_json"] is cls_raw

    def test_restore_after_an_exception(self):
        main = hnnrep.cli.main
        with pytest.raises(ZeroDivisionError):
            with tracing.Tracer():
                1 / 0
        assert hnnrep.cli.main is main

    def test_spans_name_ring_and_parent(self):
        from hnnrep.matrix import RingMatrix
        from hnnrep.ring import INT

        u = RingMatrix.from_ints(INT, ((1, 1), (0, 1)))
        u_inv = RingMatrix.from_ints(INT, ((1, -1), (0, 1)))
        with tracing.Tracer(job_id=7) as tracer:
            # looked up at call time, as the package's own callers do
            hnnrep.matrix.conjugate(u, u, u_inv)
        names = [s[0] for s in tracer.spans]
        assert names[0] == "matrix.block"
        assert set(names[1:]) == {"matrix.mul.integer"}
        assert all(s[3] == 0 for s in tracer.spans[1:])
        assert all(s[4] == 7 for s in tracer.spans)

    def test_every_span_name_has_a_target(self):
        assert "matrix.mul.rational" in tracing.SPAN_NAMES
        assert len(tracing.SPAN_NAMES) == len(set(tracing.SPAN_NAMES))


class TestTauPairHits:
    def test_synthetic_recursion(self):
        spans = [
            span("splittable.tau_pair", 0, 9),      # recursed: miss
            span("splittable.tau_pair", 1, 8, 0),   # recursed: miss
            span("splittable.tau_pair", 2, 3, 1),   # memo hit
            span("splittable.tau_pair", 10, 11),    # memo hit
        ]
        assert tracing.hit_ratio(spans, "splittable.tau_pair") == 0.5

    def test_inner_tau_memo(self):
        gens = MatrixGroupGens.from_int_rows(2, [
            (((1, 0), (2, 1)), ((1, 0), (-2, 1))),
            (((1, 2), (0, 1)), ((1, -2), (0, 1))),
        ])
        tau = InnerTau(gens)
        word = ((0, 1), (1, 1), (0, -1))
        with tracing.Tracer() as tracer:
            tau.tau_pair(word)  # misses down to the memoised empty word
        calls = [s for s in tracer.spans if s[0] == "splittable.tau_pair"]
        assert len(calls) == 4
        assert tracing.hit_ratio(tracer.spans, "splittable.tau_pair") == 0.25
        with tracing.Tracer() as tracer:
            tau.tau_pair(word)
            tau.tau_pair(word[:2])
        assert tracing.hit_ratio(tracer.spans, "splittable.tau_pair") == 1.0


class TestSeedMapping:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_parameters_come_from_the_checked_sets(self, workload):
        for seed in range(25):
            stream = workloads.job_stream(workload, seed)
            for _ in range(14):
                job = next(stream)
                for command in job["commands"]:
                    assert command["key"] in REFERENCE
                for doc in job["files"].values():
                    a = doc["generators"][0]["matrix"][1][0]
                    b = doc["generators"][1]["matrix"][0][1]
                    assert (a, b) in workloads.PAIRS

    def test_same_seed_same_jobs(self):
        for workload in workloads.WORKLOADS:
            a = workloads.job_stream(workload, 11)
            b = workloads.job_stream(workload, 11)
            assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]

    def test_seeds_differ(self):
        first = [next(workloads.job_stream("artin-build", s))["commands"]
                 for s in range(5)]
        assert len({json.dumps(c) for c in first}) > 1

    def test_artin_job_covers_every_index_and_mode(self):
        job = next(workloads.job_stream("artin-build", 3))
        keys = [c["key"] for c in job["commands"]]
        assert len(keys) == 24 == len(set(keys))
        assert sum("--integer" in k for k in keys) == 8
        assert sum("--lambda" not in k for k in keys) == 8

    def test_a_short_run_spreads_over_the_set(self):
        stream = workloads.job_stream("faithfulness-probe", 5)
        keys = {next(stream)["commands"][0]["key"] for _ in range(12)}
        assert len(keys) == len(workloads.TRIPLES)

    def test_pool_job_is_in_the_reference(self):
        for seed in range(20):
            for command in workloads.pool_job(seed)["commands"]:
                assert command["key"] in REFERENCE

    def test_reference_holds_the_checked_counts(self):
        probe = {3: (23436, 72), 4: (117186, 100)}
        for key, ref in REFERENCE.items():
            for kept in ref["kept"]:
                if kept["span"] == "reps.probe":
                    m = int(key.split("--m ")[1].split()[0])
                    assert (kept["words_checked"],
                            kept["identity_count"]) == probe[m]
                if kept["span"] == "splittable.verify":
                    assert kept["pairs_checked"] == 100
                    assert kept["words_checked"] in (457, 161)
                if kept["span"] == "splittable.build":
                    assert kept["dimension"] in (26, 4)


class TestCorrectnessGate:
    def result(self, key, **changes):
        ref = REFERENCE[key]
        res = {"key": key, "rc": 0, "error": None, "stdout": ref["stdout"],
               "sha256": ref["sha256"]}
        res.update(changes)
        return {"commands": [res]}

    def test_matching_output_passes(self):
        runner = run.Runner(None, REFERENCE)
        assert runner.check(self.result("build --m 9")) == []

    @pytest.mark.parametrize("changes", [
        {"sha256": "0" * 64},
        {"stdout": "wrote nothing\n"},
        {"rc": 1},
        {"error": "Traceback ..."},
        {"kept": [{"span": "reps.probe", "words_checked": 1,
                   "identity_count": 1}]},
    ])
    def test_any_difference_is_a_failure(self, changes):
        runner = run.Runner(None, REFERENCE)
        assert len(runner.check(self.result("build --m 9", **changes))) == 1

    def test_unknown_command_is_a_failure(self):
        runner = run.Runner(None, REFERENCE)
        result = {"commands": [{"key": "build --m 99", "rc": 0, "error": None,
                                "stdout": "", "sha256": None}]}
        assert runner.check(result) == ["build --m 99: no reference"]

def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
