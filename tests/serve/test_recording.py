"""Traffic recording: schema, round-trip, crash-safety."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GenerationModel, TransistorCostModel, WaferCostModel
from repro.errors import ParameterError
from repro.geometry import Wafer
from repro.obs.recording import (
    RECORD_VERSION,
    SHARED_MODELS,
    QueryRecorder,
    load_recorded_log,
    query_to_record,
    record_to_query,
    shared_model,
    signature_key,
)
from repro.serve import (
    ChipletCostQuery,
    FabCostQuery,
    MicroBatchScheduler,
    ModelCostQuery,
)
from repro.serve.http import point_to_query
from repro.system.chiplet import ChipletCostModel
from repro.yieldsim import (
    MixtureYieldModel,
    MurphyYield,
    NegativeBinomialYield,
    ReferenceAreaYield,
)


def _model_query(n=2e6, lam=0.8, yield_model=None, yield_value=None):
    model = TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=700.0,
                                  cost_growth_rate=1.8,
                                  generation_model=GenerationModel.SHRINK_LOG),
        wafer=Wafer(radius_cm=7.5))
    defect_density = None
    if yield_model is None and yield_value is None:
        yield_model = ReferenceAreaYield(reference_yield=0.7,
                                         reference_area_cm2=1.0)
    elif yield_model is not None \
            and not isinstance(yield_model, ReferenceAreaYield):
        # Area-scaling laws price from a defect density.
        defect_density = 0.5
    return ModelCostQuery(n_transistors=n, feature_size_um=lam,
                          model=model, design_density=150.0,
                          yield_model=yield_model,
                          defect_density_per_cm2=defect_density,
                          yield_value=yield_value)


def _mixed_queries():
    return [
        FabCostQuery(1e6, 0.8),
        FabCostQuery(2e6, 0.8),
        FabCostQuery(1e6, 0.8),           # duplicate: dedups in-flush
        _model_query(),
        _model_query(yield_model=MurphyYield()),
        _model_query(yield_model=MixtureYieldModel(components=(
            (0.6, MurphyYield()), (0.4, NegativeBinomialYield(alpha=2.0))))),
        _model_query(yield_model=None, yield_value=0.81),
    ]


class TestQueryRoundTrip:
    @pytest.mark.parametrize("query", _mixed_queries())
    def test_signature_and_point_survive(self, query):
        rebuilt = record_to_query(query_to_record(query))
        assert rebuilt.signature() == query.signature()
        assert rebuilt.point() == query.point()

    def test_custom_yield_model_is_unreplayable(self):
        class Weird(MurphyYield):
            pass

        assert query_to_record(_model_query(yield_model=Weird())) is None

    def test_malformed_payload_raises(self):
        with pytest.raises(ParameterError):
            record_to_query({"n": 1e6})
        with pytest.raises(ParameterError):
            record_to_query("not an object")


def _wire(payload):
    """The payload as a server receives it: through JSON text."""
    return json.loads(json.dumps(payload))


class TestSharedModels:
    def test_identical_payloads_share_one_model(self):
        chiplet = ChipletCostQuery(3e6, 0.6, 4, ChipletCostModel())
        for query, attr in ((FabCostQuery(1e6, 0.8), "fab"),
                            (chiplet, "model"), (_model_query(), "model")):
            payload = query_to_record(query)
            first = record_to_query(_wire(payload))
            second = record_to_query(_wire(payload))
            assert getattr(first, attr) is getattr(second, attr)
            assert first.signature() == second.signature() \
                == query.signature()
            assert query_to_record(second) == payload

    def test_int_and_float_payloads_do_not_alias(self):
        payload = _wire(query_to_record(FabCostQuery(1e6, 0.8)))
        as_int = dict(payload, fab=dict(payload["fab"],
                                        reference_cost_dollars=500))
        as_float = dict(payload, fab=dict(payload["fab"],
                                          reference_cost_dollars=500.0))
        q_int, q_float = record_to_query(as_int), record_to_query(as_float)
        assert q_int.fab is not q_float.fab
        assert type(q_int.fab.reference_cost_dollars) is int
        assert type(q_float.fab.reference_cost_dollars) is float
        assert json.dumps(query_to_record(q_int)) == json.dumps(as_int)

    def test_signed_zeros_do_not_alias(self):
        payload = _wire(query_to_record(
            ChipletCostQuery(3e6, 0.6, 4, ChipletCostModel())))
        spec = payload["chiplet"]
        rebuilt = []
        for zero in (0.0, -0.0):
            variant = dict(payload, chiplet=dict(
                spec, test=dict(spec["test"], probe_base_seconds=zero)))
            rebuilt.append(record_to_query(variant))
            assert json.dumps(query_to_record(rebuilt[-1])) \
                == json.dumps(variant)
        assert rebuilt[0].model is not rebuilt[1].model

    def test_malformed_payloads_raise_every_time(self):
        payload = _wire(query_to_record(FabCostQuery(1e6, 0.8)))
        for bad in (dict(payload, fab=[1, 2]),
                    dict(payload, fab={"bogus": 1.0}),
                    dict(payload, fab=dict(payload["fab"],
                                           cost_growth_rate=-1.0))):
            for _ in range(2):  # a failed build is not kept for reuse
                with pytest.raises(ParameterError):
                    record_to_query(bad)

    def test_point_queries_share_the_server_default_model(self):
        first = point_to_query({"transistors": 1e6, "feature_size": 0.8})
        second = point_to_query({"transistors": 2e6, "feature_size": 0.5,
                                 "yield0": 0.7})
        assert first.model is second.model
        assert first.yield_model is second.yield_model
        as_int = point_to_query({"transistors": 1e6, "feature_size": 0.8},
                                c0=500)
        assert as_int.model is not first.model
        assert type(as_int.model.wafer_cost.reference_cost_dollars) is int

    def test_unpicklable_parts_build_unshared(self):
        class Opaque(float):
            def __reduce__(self):
                raise TypeError("not picklable")

        assert shared_model(float, Opaque(2.5)) == 2.5

    def test_reuse_is_bounded(self):
        payload = _wire(query_to_record(FabCostQuery(1e6, 0.8)))
        first = record_to_query(payload).fab
        for i in range(SHARED_MODELS):  # evicts the least recent model
            record_to_query(dict(payload, fab=dict(
                payload["fab"], reference_cost_dollars=1000.5 + i)))
        assert record_to_query(payload).fab is not first


class TestRecorderThroughScheduler:
    def test_lines_carry_schema_and_bitwise_costs(self, tmp_path):
        log_path = tmp_path / "traffic.jsonl"
        queries = _mixed_queries()
        with MicroBatchScheduler(max_batch_size=64, record=log_path) as sched:
            tickets = sched.submit_many(queries)
            costs = [t.cost(timeout=10.0) for t in tickets]
        lines = [json.loads(line)
                 for line in log_path.read_text().splitlines()]
        assert len(lines) == len(queries)
        for line, query, cost in zip(lines, queries, costs):
            assert line["v"] == RECORD_VERSION
            assert line["kind"] == query.kind
            assert line["sig"] == signature_key(query.signature())
            assert line["cost"] == cost        # bitwise through JSON repr
            assert line["t"] >= 0.0
            assert line["flush"] >= 1
            assert line["backend"] == "thread"

    def test_loaded_log_replays_to_equal_queries(self, tmp_path):
        log_path = tmp_path / "traffic.jsonl"
        queries = _mixed_queries()
        with MicroBatchScheduler(max_batch_size=64, record=log_path) as sched:
            for t in sched.submit_many(queries):
                t.result(timeout=10.0)
        log = load_recorded_log(log_path)
        assert log.truncated_lines == 0
        assert log.unreplayable == 0
        assert len(log) == len(queries)
        for rec, query in zip(log.records, queries):
            assert rec.query.signature() == query.signature()
            assert rec.query.point() == query.point()

    def test_unreplayable_query_degrades_to_null_payload(self, tmp_path):
        class Weird(MurphyYield):
            """A custom law the recorder must refuse to serialize."""

        log_path = tmp_path / "traffic.jsonl"
        with MicroBatchScheduler(max_batch_size=4, record=log_path) as sched:
            sched.submit(_model_query(yield_model=Weird())).result(
                timeout=10.0)
            assert sched.recorder is not None
        assert sched.recorder.unreplayable == 1
        log = load_recorded_log(log_path)
        assert len(log) == 1
        assert log.unreplayable == 1
        assert log.records[0].query is None
        assert log.replayable() == []

    def test_append_mode_accumulates_across_schedulers(self, tmp_path):
        log_path = tmp_path / "traffic.jsonl"
        for _ in range(2):
            with MicroBatchScheduler(max_batch_size=4,
                                     record=log_path) as sched:
                sched.submit(FabCostQuery(1e6, 0.8)).result(timeout=10.0)
        assert len(load_recorded_log(log_path)) == 2


class TestCrashSafety:
    def _write_log(self, tmp_path, n=4):
        log_path = tmp_path / "traffic.jsonl"
        with MicroBatchScheduler(max_batch_size=8, record=log_path) as sched:
            for t in sched.submit_many(
                    [FabCostQuery(1e5 * (i + 1), 0.8) for i in range(n)]):
                t.result(timeout=10.0)
        return log_path

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        log_path = self._write_log(tmp_path)
        text = log_path.read_text()
        log_path.write_text(text + '{"v": 1, "t": 0.5, "ki')  # torn write
        log = load_recorded_log(log_path)
        assert log.truncated_lines == 1
        assert len(log) == 4

    def test_midfile_garbage_raises(self, tmp_path):
        log_path = self._write_log(tmp_path)
        lines = log_path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corruption a crash cannot produce
        log_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match="corrupt record line"):
            load_recorded_log(log_path)

    def test_unknown_version_raises(self, tmp_path):
        log_path = tmp_path / "traffic.jsonl"
        log_path.write_text('{"v": 99, "kind": "fab"}\n')
        with pytest.raises(ParameterError, match="version"):
            load_recorded_log(log_path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            load_recorded_log(tmp_path / "nope.jsonl")

    def test_io_failure_disables_writes_without_raising(self, tmp_path):
        recorder = QueryRecorder(tmp_path / "traffic.jsonl")
        recorder._fh.close()  # simulate the descriptor dying mid-run
        n = recorder.record_flush(
            1, [(0.0, FabCostQuery(1e6, 0.8), "sig", "thread", 1.0, None)])
        assert n == 0
        assert recorder.failed
        recorder.close()


class TestSignatureKey:
    def test_signature_key_is_stable_and_short(self):
        sig = ("fab", 1.8, 500.0, 7.5, 150.0, 0.3, 2.0)
        key = signature_key(sig)
        assert key == signature_key(("fab", 1.8, 500.0, 7.5, 150.0,
                                     0.3, 2.0))
        assert len(key) == 16
        assert key != signature_key(sig + ("x",))


class TestRecordedQueryRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(point=st.tuples(st.floats(min_value=1e4, max_value=1e9),
                           st.floats(min_value=0.25, max_value=3.0)))
    def test_fab_query_codec_preserves_identity(self, point):
        # Replayed traffic must coalesce exactly like the original.
        n, lam = point
        query = FabCostQuery(n, lam)
        rebuilt = record_to_query(query_to_record(query))
        assert rebuilt.signature() == query.signature()
        assert rebuilt.point() == query.point()
        assert signature_key(rebuilt.signature()) \
            == signature_key(query.signature())
