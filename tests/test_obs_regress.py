"""Tests for repro.obs.regress — baselines, drift detection, attribution."""

from __future__ import annotations

import dataclasses
import json

from repro.core.experiment import ExperimentResult
from repro.core.results import ResultTable
from repro.obs.fingerprint import Fingerprint, fingerprint_result
from repro.obs.regress import (
    BaselineStore,
    Tolerance,
    compare_fingerprints,
    render_drift_report,
    suspect_modules,
)


def _fp(sim=None, wall=None, digests=None, structure=None) -> Fingerprint:
    return Fingerprint(
        exp_id="figX",
        sim=dict({"m": 1.0} if sim is None else sim),
        wall=dict({"runtime_s": 0.5} if wall is None else wall),
        digests=dict({"t": "a" * 64} if digests is None else digests),
        structure=dict({"t": {"rows": 2, "columns": ["a"]}}
                       if structure is None else structure),
    )


class TestCompare:
    def test_identical_is_clean(self):
        assert compare_fingerprints(_fp(), _fp()) == []

    def test_sim_drift_detected(self):
        drifts = compare_fingerprints(_fp(sim={"m": 1.0}),
                                      _fp(sim={"m": 1.0001}))
        assert [d.metric for d in drifts] == ["m"]
        assert drifts[0].kind == "sim"

    def test_sim_band_is_tight(self):
        # a 1e-7 relative change must trip the default exact band
        drifts = compare_fingerprints(_fp(sim={"m": 1.0}),
                                      _fp(sim={"m": 1.0 + 1e-7}))
        assert drifts

    def test_tolerance_override_by_substring(self):
        tol = Tolerance(overrides={"imbalance": 1e-2})
        drifts = compare_fingerprints(
            _fp(sim={"rolling_imbalance": 1.0}),
            _fp(sim={"rolling_imbalance": 1.001}), tol)
        assert drifts == []

    def test_missing_sim_metric(self):
        drifts = compare_fingerprints(_fp(sim={"m": 1.0}), _fp(sim={}))
        assert drifts and drifts[0].current == "missing"

    def test_wall_ignored_by_default(self):
        drifts = compare_fingerprints(_fp(wall={"runtime_s": 0.1}),
                                      _fp(wall={"runtime_s": 99.0}))
        assert drifts == []

    def test_wall_gated_on_request(self):
        drifts = compare_fingerprints(_fp(wall={"runtime_s": 0.1}),
                                      _fp(wall={"runtime_s": 99.0}),
                                      check_wall=True)
        assert [d.kind for d in drifts] == ["wall"]

    def test_wall_band_is_loose(self):
        drifts = compare_fingerprints(_fp(wall={"runtime_s": 1.0}),
                                      _fp(wall={"runtime_s": 1.3}),
                                      check_wall=True)
        assert drifts == []

    def test_digest_drift(self):
        drifts = compare_fingerprints(_fp(digests={"t": "a" * 64}),
                                      _fp(digests={"t": "b" * 64}))
        assert [d.kind for d in drifts] == ["digest"]

    def test_structure_drift(self):
        drifts = compare_fingerprints(
            _fp(structure={"t": {"rows": 2, "columns": ["a"]}}),
            _fp(structure={"t": {"rows": 3, "columns": ["a"]}}))
        assert any(d.kind == "structure" for d in drifts)

    def test_describe_names_figure_metric_and_suspect(self):
        drifts = compare_fingerprints(_fp(sim={"m": 2.0}),
                                      _fp(sim={"m": 3.0}))
        d = dataclasses.replace(drifts[0], suspect="src/repro/x.py")
        text = d.describe()
        assert "figX" in text and "m" in text
        assert "+50.000%" in text
        assert "src/repro/x.py" in text
        assert "src/repro/x.py" in render_drift_report([d])


class TestBaselineStore:
    def test_record_and_reload(self, tmp_path):
        store = BaselineStore(tmp_path)
        path = store.record(_fp(), note="first", git_sha="abc123")
        assert path.name == "BENCH_figX.json"
        assert store.known_ids() == ["figX"]
        assert store.latest_sha("figX") == "abc123"
        loaded = store.latest_fingerprint("figX")
        assert loaded is not None and loaded.to_dict() == _fp().to_dict()

    def test_trajectory_appends(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.record(_fp(sim={"m": 1.0}), git_sha="a")
        store.record(_fp(sim={"m": 2.0}), git_sha="b")
        records = store.records("figX")
        assert len(records) == 2
        assert store.latest_fingerprint("figX").sim["m"] == 2.0
        assert store.latest_sha("figX") == "b"

    def test_missing_experiment(self, tmp_path):
        store = BaselineStore(tmp_path)
        assert store.latest_fingerprint("nope") is None
        assert store.records("nope") == []

    def test_file_is_plain_json(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.record(_fp())
        data = json.loads(store.path("figX").read_text())
        assert data["exp_id"] == "figX"
        assert data["records"][0]["fingerprint"]["sim"]


class TestSuspects:
    def test_loaded_dependency_ranked_first(self):
        deps = {"src/repro/serving/engine.py"}
        changed = ["README.md", "src/repro/obs/trace.py",
                   "src/repro/serving/engine.py"]
        suspects = suspect_modules(changed, deps)
        assert suspects[0] == "src/repro/serving/engine.py"
        assert "src/repro/obs/trace.py" in suspects
        assert "README.md" not in suspects

    def test_loaded_modules_reflect_imports(self):
        from repro.obs.regress import loaded_repro_modules

        deps = loaded_repro_modules()
        assert "src/repro/obs/regress.py" in deps
        assert all(p.startswith("src/repro/") for p in deps)


class TestEndToEnd:
    def test_real_result_clean_then_perturbed(self, tmp_path):
        table = ResultTable("decode", ("batch", "step_s"))
        table.add(batch=1, step_s=0.010)
        result = ExperimentResult(exp_id="figY", title="t", paper_claim="c",
                                  tables=[table], runtime_s=0.1)
        store = BaselineStore(tmp_path)
        store.record(fingerprint_result(result))
        assert compare_fingerprints(store.latest_fingerprint("figY"),
                                    fingerprint_result(result)) == []
        table.rows[0]["step_s"] = 0.011
        drifts = compare_fingerprints(store.latest_fingerprint("figY"),
                                      fingerprint_result(result))
        assert any(d.metric == "decode.step_s:sum" for d in drifts)
        assert any(d.kind == "digest" for d in drifts)
