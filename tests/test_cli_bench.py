"""CLI tests for `repro bench` and `repro profile`.

Uses the cheapest real experiment (fig5) so record/check run the actual
pipeline end to end; the roofline-perturbation test is the acceptance
check that a physics change in the perf model is caught and attributed.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cli import main
from repro.hardware.gpus import H100_SXM

FIG = "fig5"


def _bench(*argv: str) -> int:
    return main(["bench", *argv])


@pytest.fixture(scope="module")
def baseline_dir(tmp_path_factory):
    """A baseline store with FIG recorded once."""
    root = tmp_path_factory.mktemp("bench")
    assert _bench("--record", "--figs", FIG, "--dir", str(root),
                  "--note", "test baseline") == 0
    return root


class TestBenchRecordCheck:
    def test_record_writes_bench_file(self, baseline_dir):
        path = baseline_dir / f"BENCH_{FIG}.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["exp_id"] == FIG
        record = data["records"][0]
        assert record["note"] == "test baseline"
        assert record["fingerprint"]["sim"]

    def test_check_clean_on_unchanged_tree(self, baseline_dir, capsys):
        assert _bench("--check", "--figs", FIG, "--dir",
                      str(baseline_dir)) == 0
        assert f"[ok] {FIG}" in capsys.readouterr().out

    def test_check_fails_on_perturbed_baseline(self, baseline_dir, tmp_path,
                                               capsys):
        # copy the store, nudge one recorded sim metric by 1e-6 rel
        path = tmp_path / f"BENCH_{FIG}.json"
        data = json.loads((baseline_dir / path.name).read_text())
        sim = data["records"][-1]["fingerprint"]["sim"]
        key = next(k for k, v in sim.items() if v)
        sim[key] *= 1 + 1e-6
        path.write_text(json.dumps(data))
        assert _bench("--check", "--figs", FIG, "--dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert FIG in err and key in err

    def test_check_fails_without_baseline(self, tmp_path):
        assert _bench("--check", "--figs", FIG, "--dir", str(tmp_path)) == 1

    def test_no_mode_is_usage_error(self, tmp_path):
        assert _bench("--dir", str(tmp_path)) == 2

    def test_trend_reports_trajectory(self, baseline_dir, capsys):
        assert _bench("--trend", "--figs", FIG, "--dir",
                      str(baseline_dir)) == 0
        out = capsys.readouterr().out
        assert FIG in out and "sim_time_total_s" in out


class TestRooflinePerturbation:
    def test_hbm_bandwidth_change_is_caught_and_named(self, baseline_dir,
                                                      capsys):
        """5% more HBM bandwidth must shift fig5's simulated times and
        fail the gate, naming the drifted figure and metric."""
        old = H100_SXM.mem_bandwidth_gbps
        object.__setattr__(H100_SXM, "mem_bandwidth_gbps", old * 1.05)
        try:
            code = _bench("--check", "--figs", FIG, "--dir",
                          str(baseline_dir))
        finally:
            object.__setattr__(H100_SXM, "mem_bandwidth_gbps", old)
        assert code == 1
        err = capsys.readouterr().err
        assert f"[{FIG}]" in err
        assert "sim drift" in err

    def test_gate_clean_again_after_restore(self, baseline_dir):
        assert _bench("--check", "--figs", FIG, "--dir",
                      str(baseline_dir)) == 0


class TestProfileCommand:
    def test_profile_writes_folded_stack(self, tmp_path, capsys):
        out = tmp_path / "profile.folded"
        code = main(["profile", "--requests", "2", "--input-tokens", "64",
                     "--output-tokens", "8", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Cost attribution" in text
        assert "speedup" in text
        folded = out.read_text()
        assert "components;decode;expert_ffn" in folded
        for line in folded.strip().splitlines():
            path, value = line.rsplit(" ", 1)
            assert float(value) >= 0
