"""The ``stats`` summary's hit-rate prediction error and signed bias."""

import pytest

from repro.obs.traceio import summarize
from tests.obs.test_serve_events import _trace_with


def _accuracy(epoch, *streams):
    return (
        "hit_accuracy",
        {
            "epoch": epoch,
            "streams": [
                {"sid": sid, "predicted": p, "realized": r, "accesses": n}
                for sid, p, r, n in streams
            ],
        },
    )


class TestHitPredictionBias:
    def test_bias_is_signed_and_access_weighted(self, tmp_path):
        trace = _trace_with(
            tmp_path,
            [
                _accuracy(0, (0, 0.5, 0.7, 300), (1, 0.9, 0.8, 100)),
                # A stream with no prediction yet is left out of both.
                _accuracy(1, (0, 0.4, 0.6, 100), (1, None, 0.5, 900)),
            ],
        )
        summary = summarize(trace)
        # (-0.2 * 300 + 0.1 * 100 - 0.2 * 100) / 500; unweighted it
        # would read -0.1.
        assert summary["hit_prediction_bias"] == pytest.approx(-0.14)
        assert summary["mean_hit_prediction_error"] == pytest.approx(0.5 / 3)

    def test_trace_without_predictions_has_zero_bias(self, tmp_path):
        summary = summarize(_trace_with(tmp_path, []))
        assert summary["hit_prediction_bias"] == 0.0
        assert summary["mean_hit_prediction_error"] == 0.0
