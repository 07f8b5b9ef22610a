"""Metrics records, the canonical CSV format, and work accounting."""

import numpy as np
import pytest

from promptlab import (
    ConfigError,
    DataFormatError,
    Graph,
    MetricsRecord,
    Tensor,
    WorkMeter,
    matmul,
    read_metrics,
    write_metrics,
)
from promptlab.metrics import WORK_FLOPS_PER_MS


def record(epoch=1, **overrides):
    base = dict(
        epoch=epoch,
        loss=1.25,
        std_acc=0.5,
        adv_acc=0.25,
        mean_confidence=0.75,
        wall_ms=12,
        peak_mem_bytes=4096,
    )
    base.update(overrides)
    return MetricsRecord(**base)


class TestRecordValidation:
    @pytest.mark.parametrize("field", ["std_acc", "adv_acc", "mean_confidence"])
    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rates_must_be_fractions(self, field, value):
        with pytest.raises(ConfigError, match=field):
            record(**{field: value})

    def test_boundary_rates_are_legal(self):
        record(std_acc=0.0, adv_acc=1.0, mean_confidence=1.0)

    def test_records_are_immutable(self):
        r = record()
        with pytest.raises(Exception):
            r.loss = 0.0


class TestCsvFormat:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([record(epoch=1), record(epoch=2, loss=0.5)], path)
        text = path.read_bytes().decode()
        assert text == (
            "epoch,loss,std_acc,adv_acc,mean_confidence,wall_ms,peak_mem_bytes\n"
            "1,1.250000,0.500000,0.250000,0.750000,12,4096\n"
            "2,0.500000,0.500000,0.250000,0.750000,12,4096\n"
        )

    def test_uses_lf_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([record()], path)
        assert b"\r" not in path.read_bytes()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        recs = [record(epoch=e, loss=e / 7.0) for e in range(1, 5)]
        write_metrics(recs, path)
        back = read_metrics(path)
        assert len(back) == 4
        for orig, parsed in zip(recs, back):
            assert parsed.epoch == orig.epoch
            assert parsed.loss == pytest.approx(orig.loss, abs=5e-7)
            assert parsed.wall_ms == orig.wall_ms
            assert parsed.peak_mem_bytes == orig.peak_mem_bytes

    def test_refuses_empty_write(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            write_metrics([], tmp_path / "m.csv")

    def test_refuses_nonincreasing_epochs(self, tmp_path):
        with pytest.raises(DataFormatError, match="strictly increase"):
            write_metrics([record(epoch=2), record(epoch=2)], tmp_path / "m.csv")
        with pytest.raises(DataFormatError, match="strictly increase"):
            write_metrics([record(epoch=3), record(epoch=1)], tmp_path / "m.csv")

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,loss\n1,0.5\n")
        with pytest.raises(DataFormatError, match="header"):
            read_metrics(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([record()], path)
        path.write_text(path.read_text() + "2,0.1\n")
        with pytest.raises(DataFormatError, match="bad metrics row"):
            read_metrics(path)

    @pytest.mark.parametrize(
        "column, cell",
        [("loss", "abc"), ("epoch", "0.5"), ("std_acc", "1.5"), ("loss", "nan")],
        ids=["loss-abc", "epoch-0.5", "std_acc-1.5", "loss-nan"],
    )
    def test_read_rejects_malformed_cell(self, tmp_path, column, cell):
        """A cell that does not cast, or casts to a value no record may
        hold, fails as DataFormatError naming the file and the row."""
        path = tmp_path / "m.csv"
        write_metrics([record(epoch=1), record(epoch=2)], path)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = cell
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(DataFormatError, match=rf"m\.csv line 3: bad metrics row .*'{cell}'"):
            read_metrics(path)

    def test_read_rejects_empty_body(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,loss,std_acc,adv_acc,mean_confidence,wall_ms,peak_mem_bytes\n")
        with pytest.raises(DataFormatError, match="no rows"):
            read_metrics(path)


class TestWorkMeter:
    def test_accumulates_graph_flops(self):
        a = np.ones((2, 3), np.float32)
        b = np.ones((3, 4), np.float32)
        with Graph() as g:
            matmul(Tensor(a), Tensor(b))
        meter = WorkMeter()
        meter.add_graph(g)
        meter.add_graph(g)
        meter.end_step()
        assert meter.flops == 2 * g.flops
        assert meter.peak_bytes == 2 * g.bytes_tracked

    def test_peak_includes_persistent_floor(self):
        meter = WorkMeter(persistent_bytes=1000)
        assert meter.peak_bytes == 1000
        with Graph() as g:
            matmul(Tensor(np.ones((2, 2), np.float32)), Tensor(np.ones((2, 2), np.float32)))
        meter.add_graph(g)
        meter.end_step()
        assert meter.peak_bytes == 1000 + g.bytes_tracked

    def test_peak_is_max_over_steps(self):
        meter = WorkMeter(persistent_bytes=10)
        with Graph() as big:
            matmul(Tensor(np.ones((4, 4), np.float32)), Tensor(np.ones((4, 4), np.float32)))
        with Graph() as small:
            matmul(Tensor(np.ones((1, 1), np.float32)), Tensor(np.ones((1, 1), np.float32)))
        meter.add_graph(big)
        meter.end_step()
        first_peak = meter.peak_bytes
        meter.add_graph(small)
        meter.end_step()
        assert meter.peak_bytes == first_peak

    def test_wall_ms_is_rounded_flop_count(self):
        meter = WorkMeter()
        meter.flops = 3 * WORK_FLOPS_PER_MS + WORK_FLOPS_PER_MS // 2
        assert meter.wall_ms() == 4
        meter.flops = 2 * WORK_FLOPS_PER_MS // 5
        assert meter.wall_ms() == 0
