"""Tier-1 tests for the observability subsystem (repro.obs).

Covers the tracer core (span nesting, disabled no-op mode), the Chrome
trace-event exporter's schema, digest stability across runs, the ASCII
timeline renderer, and the engine/MPI/offload instrumentation hooks.
"""

from __future__ import annotations

import json

import pytest

from repro.core.evaluator import Evaluator
from repro.core.offload import TRACE_MAX_INVOCATIONS, OffloadRegion
from repro.execmodel.kernel import KernelSpec
from repro.mpi.fabrics import host_fabric
from repro.mpi.runtime import mpiexec
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace,
    render_comm_matrix,
    render_timeline,
    trace_digest,
    trace_json,
)
from repro.simcore import Engine, Timeout
from repro.units import MiB


# --------------------------------------------------------------------- core


class TestSpans:
    def test_span_nesting_depths(self):
        tr = Tracer()
        outer = tr.begin("outer", pid="p", tid="t")
        inner = tr.begin("inner", pid="p", tid="t")
        assert outer.depth == 0 and inner.depth == 1
        tr.end(inner)
        tr.end(outer)
        assert tr.open_spans() == 0
        by_name = {e.name: e for e in tr.events}
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0

    def test_engine_clock_drives_timestamps(self):
        eng = Engine()
        tr = Tracer()
        tr.bind_engine(eng)

        def proc():
            sp = tr.begin("work")
            yield Timeout(2.5)
            tr.end(sp)

        eng.spawn(proc())
        eng.run()
        (ev,) = [e for e in tr.events if e.name == "work"]
        assert ev.ts == 0.0 and ev.dur == 2.5

    def test_out_of_order_end_tolerated(self):
        tr = Tracer()
        a = tr.begin("a", pid="p", tid="t")
        b = tr.begin("b", pid="p", tid="t")
        tr.end(a)  # closes under b without raising
        tr.end(b)
        assert tr.open_spans() == 0

    def test_end_unknown_span_raises(self):
        tr = Tracer()
        sp = tr.begin("once")
        tr.end(sp)
        with pytest.raises(ValueError):
            tr.end(sp)

    def test_span_context_manager(self):
        tr = Tracer()
        with tr.span("ctx", cat="test"):
            pass
        assert len(tr) == 1 and tr.events[0].cat == "test"

    def test_message_matrix_accumulates(self):
        tr = Tracer()
        tr.message(0, 1, 100)
        tr.message(0, 1, 50)
        tr.message(1, 0, 8)
        m = tr.comm_matrix()
        assert m[(0, 1)] == {"bytes": 150.0, "messages": 2}
        assert m[(1, 0)]["messages"] == 1


class TestDisabledTracer:
    def test_null_tracer_records_nothing(self):
        tr = NullTracer()
        assert tr.begin("x") is None
        tr.end(None)
        tr.instant("i")
        tr.counter("c", 1.0)
        tr.complete("done")
        tr.message(0, 1, 10)
        with tr.span("ctx"):
            pass
        assert len(tr) == 0 and tr.comm_matrix() == {}

    def test_null_tracer_is_valid_everywhere(self):
        res = mpiexec(
            2, host_fabric(), lambda comm: comm.allreduce(1), tracer=NULL_TRACER
        )
        assert res.returns == [2, 2]
        assert len(NULL_TRACER) == 0

    def test_engine_default_has_no_tracer(self):
        eng = Engine()
        assert eng.tracer is None


# ------------------------------------------------------------------ export


def _traced_allreduce(ranks: int = 4) -> Tracer:
    tr = Tracer()
    mpiexec(
        ranks, host_fabric(), lambda comm: comm.allreduce(comm.rank, nbytes=1024),
        tracer=tr,
    )
    return tr


class TestChromeExport:
    def test_schema(self):
        tr = _traced_allreduce()
        doc = chrome_trace(tr)
        assert doc["otherData"]["clock"] == "simulated"
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i", "C"}
        for e in events:
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and "ts" in e
            elif e["ph"] == "i":
                assert e["s"] == "t"
            elif e["ph"] == "M":
                assert e["name"] in ("process_name", "thread_name")

    def test_metadata_names_lanes(self):
        tr = _traced_allreduce()
        doc = chrome_trace(tr)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "rank0" in names and "rank3" in names

    def test_json_round_trips(self):
        tr = _traced_allreduce()
        doc = json.loads(trace_json(tr))
        assert doc["traceEvents"]

    def test_digest_stable_across_runs(self):
        d1 = trace_digest(_traced_allreduce())
        d2 = trace_digest(_traced_allreduce())
        assert d1 == d2 and len(d1) == 64

    def test_digest_sensitive_to_events(self):
        assert trace_digest(_traced_allreduce(2)) != trace_digest(_traced_allreduce(4))


class TestTimeline:
    def test_renders_one_row_per_lane(self):
        tr = _traced_allreduce()
        out = render_timeline(tr, width=40)
        for r in range(4):
            assert f"rank{r}" in out
        assert "legend:" in out

    def test_empty_tracer(self):
        assert render_timeline(Tracer()) == "(no spans recorded)"
        assert render_comm_matrix(Tracer()) == "(no messages recorded)"

    def test_category_filter(self):
        tr = _traced_allreduce()
        out = render_timeline(tr, categories=["mpi.coll"])
        assert "mpi.coll" in out and "mpi.p2p" not in out

    def test_comm_matrix_table(self):
        tr = _traced_allreduce()
        out = render_comm_matrix(tr)
        assert "src\\dst" in out and "1024" in out


# ----------------------------------------------------------------- hooks


class TestInstrumentation:
    def test_engine_scheduler_instants(self):
        tr = Tracer()
        eng = Engine(tracer=tr)

        def proc():
            yield Timeout(1.0)

        eng.spawn(proc())
        eng.run()
        names = [e.name for e in tr.events if e.cat == "engine.proc"]
        assert "spawn" in names and "retire" in names

    def test_mpi_collective_and_rank_spans(self):
        tr = _traced_allreduce()
        cats = {e.cat for e in tr.events}
        assert {"mpi.coll", "mpi.p2p", "mpi.rank"} <= cats
        colls = [e for e in tr.events if e.cat == "mpi.coll"]
        assert all(e.name == "allreduce" for e in colls) and len(colls) == 4

    def test_offload_spans_and_cap(self):
        kernel = KernelSpec(name="k", flops=1e9, memory_traffic=4e9)
        region = OffloadRegion(
            name="loop",
            kernel=kernel,
            data_in=1 * MiB,
            data_out=1 * MiB,
            invocations=TRACE_MAX_INVOCATIONS + 10,
        )
        tr = Tracer()
        m = Evaluator().offload(region, tracer=tr)
        spans = [e for e in tr.events if e.cat == "offload.invocation"]
        # 32 detailed invocations + 1 aggregate tail
        assert len(spans) == TRACE_MAX_INVOCATIONS + 1
        assert spans[-1].args["aggregated"] == 10
        # Detailed + aggregate invocation spans tile the whole run minus
        # per-invocation phases priced at zero duration.
        total = sum(e.dur for e in spans)
        assert total == pytest.approx(m.time, rel=1e-9)

    def test_sweep_trace(self):
        from repro.perf.batch import HAVE_NUMPY

        if not HAVE_NUMPY:
            pytest.skip("OverflowModel datasets need the repro[fast] extra")
        from functools import partial

        from repro.apps.overflow import OverflowModel
        from repro.core.sweep import decomposition_sweep
        from repro.machine.node import Device

        tr = Tracer()
        model = OverflowModel()
        ms = decomposition_sweep(
            partial(model.native_step, Device.HOST), [(2, 1), (4, 1)], trace=tr
        )
        assert len(ms) == 2
        spans = [e for e in tr.events if e.cat == "sweep.point"]
        assert len(spans) == 2
        assert spans[1].ts == pytest.approx(spans[0].dur)
