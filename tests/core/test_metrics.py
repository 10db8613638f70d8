"""SolveStats/SolveReport: the counter surface the harness reports on."""

import dataclasses

from repro.core.metrics import SolveReport, SolveStats


class TestAsDict:
    def test_every_declared_field_is_reported(self):
        # as_dict is derived from the dataclass fields, so a counter added
        # to the class can never be silently missing from reports
        stats = SolveStats()
        d = stats.as_dict()
        assert set(d) == {f.name for f in dataclasses.fields(SolveStats)}

    def test_dict_order_matches_declaration_order(self):
        names = [f.name for f in dataclasses.fields(SolveStats)]
        assert list(SolveStats().as_dict()) == names

    def test_values_are_live_not_defaults(self):
        stats = SolveStats()
        stats.note_advance("fft", 128, spectrum_hit=True)
        stats.note_advance("direct", 16)
        stats.base_rows += 7
        d = stats.as_dict()
        assert d["fft_calls"] == 1
        assert d["fft_points"] == 128
        assert d["spectrum_hits"] == 1
        assert d["direct_calls"] == 1
        assert d["direct_points"] == 16
        assert d["base_rows"] == 7

    def test_note_depth_keeps_the_maximum(self):
        stats = SolveStats()
        for depth in (2, 5, 3):
            stats.note_depth(depth)
        assert stats.as_dict()["max_depth"] == 5


class TestSolveReport:
    def test_fresh_report_carries_zeroed_stats(self):
        report = SolveReport()
        assert all(v == 0 for v in report.stats.as_dict().values())
        assert report.notes == []
