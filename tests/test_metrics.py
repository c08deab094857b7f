"""Request records, report assembly and the Nb_msg / Rtime definitions."""

import pytest

from adhocloc.config import ScenarioConfig
from adhocloc.metrics import RequestRecord, build_report, compute_rtime
from adhocloc.radio import MessageKind, MessageLedger
from adhocloc.sweep import cell_rows


def rec(request_id, issued_at, resolved_at=None, failed_at=None,
        warmup=False, returned_host=None, truth_host=None):
    return RequestRecord(request_id=request_id, issued_at=issued_at,
                         warmup=warmup, resolved_at=resolved_at,
                         failed_at=failed_at, returned_host=returned_host,
                         truth_host=truth_host)


def make_report(records, ledger=None):
    if ledger is None:
        ledger = MessageLedger()
    cfg = ScenarioConfig(protocol="forwarder_reactive", lam=0.25,
                         code_band="medium", seed=1)
    return build_report(cfg, 4.8, records, ledger)


class TestRequestRecord:
    def test_status_tracks_the_first_outcome(self):
        assert rec(1, 0.0).status == "in_flight"
        assert rec(1, 0.0, resolved_at=1.0).status == "resolved"
        assert rec(1, 0.0, failed_at=1.0).status == "failed"

    def test_duration_measures_issue_to_outcome(self):
        assert rec(1, 2.0, resolved_at=2.5).duration == pytest.approx(0.5)
        assert rec(1, 2.0, failed_at=4.0).duration == pytest.approx(2.0)
        assert rec(1, 2.0).duration is None


class TestHeadlineMetrics:
    def test_rtime_averages_resolved_and_failed_but_not_in_flight(self):
        records = [
            rec(0, 0.0, resolved_at=0.1),
            rec(1, 1.0, failed_at=1.3),
            rec(2, 2.0),                                   # still in flight
            rec(3, 3.0, resolved_at=3.5, warmup=True),     # warm-up, excluded
        ]
        assert compute_rtime(records) == pytest.approx(0.2)

    def test_rtime_requires_at_least_one_completed_request(self):
        assert compute_rtime([rec(0, 0.0)]) is None

    def test_nb_msg_divides_all_traffic_by_measured_requests(self):
        ledger = MessageLedger()
        ledger.charge(MessageKind.DATA, 0, 1, 12, 0.5, 0)
        ledger.charge(MessageKind.CHAIN_CHECK, 0, 1, 8, 0.6, None)
        report = make_report([rec(0, 0.0, resolved_at=0.1),
                              rec(1, 1.0, failed_at=1.5)], ledger)
        assert report.total_messages == 20
        assert report.nb_msg == pytest.approx(10.0)

    def test_nb_msg_is_undefined_without_measured_requests(self):
        report = make_report([rec(0, 0.0, resolved_at=0.1, warmup=True)])
        assert report.nb_msg is None


class TestBuildReport:
    def test_labels_come_from_the_config_that_ran(self):
        records = [rec(0, 0.0, resolved_at=0.1)]
        cfg = ScenarioConfig(protocol="zoned", lam=1.0, node_mob="high",
                             code_band="low", seed=9)
        report = build_report(cfg, 10.3, records, MessageLedger())
        assert report.cfg is cfg
        labels = ("protocol", "lambda", "node_mob_target", "measured_mob",
                  "code_band", "seed")
        row = cell_rows([report])[0]
        assert tuple(row[label] for label in labels) == (
            "zoned", 1.0, 10.0, 10.3, "low", 9)
        custom = cfg.replace(node_speed=(3.0, 6.0))
        report = build_report(custom, 2.0, records, MessageLedger())
        assert cell_rows([report])[0]["node_mob_target"] is None

    def test_counts_partition_measured_requests_by_status(self):
        records = [
            rec(0, 0.0, resolved_at=0.1, returned_host=3, truth_host=3),
            rec(1, 1.0, resolved_at=1.1, returned_host=2, truth_host=4),
            rec(2, 2.0, failed_at=2.4),
            rec(3, 3.0),
            rec(4, 0.5, resolved_at=0.6, warmup=True),
        ]
        report = make_report(records)
        assert (report.n_requests, report.n_warmup) == (4, 1)
        assert (report.n_resolved, report.n_failed, report.n_in_flight) == (2, 1, 1)
        assert (report.truth_checked, report.truth_matches) == (2, 1)
        assert report.rtime_s == pytest.approx((0.1 + 0.1 + 0.4) / 3)

    def test_an_all_warmup_run_reports_no_rtime(self):
        report = make_report([rec(0, 0.5, resolved_at=0.6, warmup=True)])
        assert report.rtime_s is None and report.n_requests == 0

    def test_by_kind_is_sorted_for_stable_output(self):
        ledger = MessageLedger()
        ledger.charge(MessageKind.SERVER_QUERY, 0, 1, 2, 0.1, 0)
        ledger.charge(MessageKind.CHAIN_CHECK, 0, 1, 1, 0.2, None)
        report = make_report([rec(0, 0.0, resolved_at=0.1)], ledger)
        assert list(report.by_kind) == ["ChainCheck", "ServerQuery"]

    def test_a_tampered_ledger_total_is_caught(self):
        ledger = MessageLedger()
        ledger.charge(MessageKind.DATA, 0, 1, 3, 0.1, 0)
        ledger.total_units += 1
        with pytest.raises(ValueError, match="recount"):
            make_report([rec(0, 0.0, resolved_at=0.1)], ledger)
