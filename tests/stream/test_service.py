"""Tests for the StreamingService batch API and its MPC round accounting."""

from __future__ import annotations

from array import array

import pytest

from repro.errors import GraphError
from repro.graph.generators import union_of_random_forests
from repro.graph.graph import Graph
from repro.stream.service import StreamingService
from repro.stream.updates import DELETE, INSERT, EdgeUpdate, UpdateBatch
from repro.stream.workloads import densifying_core_trace, uniform_churn_trace


class TestUpdateObjects:
    def test_edge_update_validation(self):
        with pytest.raises(GraphError):
            EdgeUpdate("add", 0, 1)
        with pytest.raises(GraphError):
            EdgeUpdate(INSERT, 2, 2)
        assert EdgeUpdate(INSERT, 0, 1).is_insert
        assert not EdgeUpdate(DELETE, 0, 1).is_insert

    def test_batch_counts(self):
        batch = UpdateBatch.from_ops([("+", 0, 1), ("+", 1, 2), ("-", 0, 1)])
        assert len(batch) == 3
        assert batch.num_inserts == 2
        assert batch.num_deletes == 1

    @pytest.mark.parametrize(
        "ops",
        [
            [],
            [("-", 0, 1), ("-", 5, 2), ("-", 3, 4)],
            [("+", 0, 1), ("+", 7, 3)],
            [("+", 0, 1), ("-", 9, 2), ("+", 4, 3), ("-", 0, 1), ("+", 2, 8)],
        ],
        ids=["empty", "all-delete", "all-insert", "mixed"],
    )
    def test_columns_match_the_per_update_loop(self, ops):
        batch = UpdateBatch.from_ops(ops)
        expected = (array("l"), array("l"), array("l"))
        inserts = (array("l"), array("l"))
        for update in batch.updates:
            expected[0].append(1 if update.is_insert else 0)
            expected[1].append(update.u)
            expected[2].append(update.v)
            if update.is_insert:
                inserts[0].append(update.u)
                inserts[1].append(update.v)
        assert batch.columns() == expected
        assert batch.insert_columns() == inserts
        assert all(column.typecode == "l" for column in batch.columns() + batch.insert_columns())
        assert batch.num_inserts == len(inserts[0])


class TestServiceApply:
    def test_single_batch_updates_all_structures(self):
        service = StreamingService(Graph.empty(8), seed=0)
        report = service.apply(UpdateBatch.from_ops([
            ("+", 0, 1), ("+", 1, 2), ("+", 0, 2), ("-", 1, 2),
        ]))
        assert service.dynamic.num_edges == 2
        assert report.num_inserts == 3
        assert report.num_deletes == 1
        assert report.num_edges == 2
        assert report.max_outdegree >= 1
        service.verify()

    def test_batch_charges_communication_round(self):
        service = StreamingService(Graph.empty(8), seed=0)
        rounds_before = service.cluster.stats.num_rounds
        service.apply(UpdateBatch.from_ops([("+", 0, 1)]))
        assert service.cluster.stats.num_rounds > rounds_before
        assert service.cluster.stats.rounds_by_label["stream:batch"] == 1

    def test_empty_batch_charges_nothing(self):
        service = StreamingService(Graph.empty(8), seed=0)
        rounds_before = service.cluster.stats.num_rounds
        report = service.apply(UpdateBatch(()))
        assert service.cluster.stats.num_rounds == rounds_before
        assert report.rounds == 0

    def test_flip_and_recolor_rounds_labelled(self):
        trace = densifying_core_trace(128, core_size=32, num_batches=6,
                                      batch_size=100, seed=1)
        service = StreamingService(trace.initial, seed=1)
        summary = service.apply_all(trace.batches)
        labels = service.cluster.stats.rounds_by_label
        assert summary.total_flips > 0
        assert labels["stream:flip-repair"] >= 1
        assert summary.total_recolors > 0
        assert labels["stream:recolor"] >= 1

    def test_reports_accumulate_into_summary(self):
        trace = uniform_churn_trace(128, num_batches=5, batch_size=60, seed=2)
        service = StreamingService(trace.initial, seed=2)
        summary = service.apply_all(trace.batches)
        assert summary.num_batches == 5
        assert summary.total_updates == trace.num_updates
        assert summary.total_rounds == sum(r.rounds for r in summary.reports)
        final = summary.final_report()
        assert final.num_edges == service.dynamic.num_edges
        as_dict = summary.as_dict()
        assert as_dict["final_m"] == float(final.num_edges)
        assert as_dict["updates"] == float(trace.num_updates)

    def test_coloring_stays_proper_throughout(self):
        trace = uniform_churn_trace(96, num_batches=6, batch_size=80, seed=3)
        service = StreamingService(trace.initial, seed=3)
        for batch in trace.batches:
            service.apply(batch)
            assert service.coloring.is_proper()
        service.verify()

    def test_coloring_refreshed_after_rebuild(self):
        trace = densifying_core_trace(96, core_size=40, num_batches=8,
                                      batch_size=120, seed=4)
        service = StreamingService(trace.initial, seed=4)
        summary = service.apply_all(trace.batches)
        assert summary.total_rebuilds >= 1
        assert service.coloring.refreshes >= 1
        service.verify()

    def test_coloring_is_maintained_on_every_batch(self):
        service = StreamingService(Graph.empty(8), seed=0)
        assert service.coloring is not None
        report = service.apply(UpdateBatch.from_ops([("+", 0, 1), ("+", 1, 2)]))
        color = service.coloring.color
        assert color(0) != color(1) and color(1) != color(2)
        assert report.num_colors == service.coloring.num_colors() >= 2
        service.verify()

    def test_maintenance_settings_are_not_options(self):
        """The service runs one configuration: the removed tenant knobs are
        not accepted."""
        for option, value in (
            ("flip_slack", 3),
            ("quality_interval", 8),
            ("maintain_coloring", False),
            ("proactive_flips", False),
            ("lambda_seed", "coreness"),
        ):
            with pytest.raises(TypeError, match=option):
                StreamingService(Graph.empty(4), **{option: value})

    def test_illegal_batch_rejected_atomically(self):
        """An illegal update anywhere in the batch must leave the service (and
        the round/memory ledger) completely untouched."""
        service = StreamingService(Graph(4, [(0, 1)]), seed=0)
        rounds_before = service.cluster.stats.num_rounds
        cases = [
            [("+", 0, 1)],                     # insert of live edge
            [("-", 2, 3)],                     # delete of dead edge
            [("+", 1, 2), ("+", 2, 1)],        # in-batch duplicate insert
            [("+", 1, 2), ("-", 1, 2), ("-", 2, 1)],  # in-batch double delete
            [("+", 0, 7)],                     # vertex out of range
        ]
        for ops in cases:
            with pytest.raises(GraphError):
                service.apply(UpdateBatch.from_ops(ops))
        assert service.dynamic.num_edges == 1
        assert service.cluster.stats.num_rounds == rounds_before
        assert service.summary.num_batches == 0
        service.verify()

    def test_insert_then_delete_then_reinsert_within_batch_is_legal(self):
        service = StreamingService(Graph.empty(4), seed=0)
        report = service.apply(UpdateBatch.from_ops([
            ("+", 0, 1), ("-", 0, 1), ("+", 0, 1),
        ]))
        assert report.num_updates == 3
        assert service.dynamic.num_edges == 1
        service.verify()

    def test_graph_growth_shows_up_in_memory_ledger(self):
        """The live graph is re-accounted each batch, so insertions must move
        the cluster's global memory figure (not just the initial load)."""
        service = StreamingService(Graph.empty(64), seed=0)
        base_words = service.cluster.global_memory_in_use()
        for start in range(0, 48, 12):
            service.apply(UpdateBatch.from_ops(
                [("+", u, u + 1) for u in range(start, start + 12)]
            ))
        grown_words = service.cluster.global_memory_in_use()
        assert grown_words == base_words + 2 * service.dynamic.num_edges
        assert service.cluster.stats.peak_global_memory_words >= grown_words

    def test_snapshot_serves_static_pipeline_after_churn(self):
        """The service's compacted state feeds the one-shot pipeline directly."""
        from repro.core.orientation import orient

        trace = uniform_churn_trace(128, num_batches=4, batch_size=100, seed=5)
        service = StreamingService(trace.initial, seed=5)
        service.apply_all(trace.batches)
        run = orient(service.dynamic.snapshot(), seed=5)
        assert run.orientation.graph.num_edges == service.dynamic.num_edges
