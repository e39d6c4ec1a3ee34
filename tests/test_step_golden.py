"""Step-model golden: every component of the step cost, bit for bit.

``tests/data/step_breakdown_golden.json`` holds ``float.hex`` of every
component, subcomponent, ``comm``, ``pipeline``, ``overhead`` and
``total`` of ``StepModel.step_breakdown`` over a grid of deployments and
step shapes.  It was recorded from the per-layer scalar loop that
preceded the single polymorphic core, so it pins the pricing the BENCH
digests were taken with.  The breakdown, the one-point entry and the
array entry must all reproduce it exactly.

Re-record only for an intentional pricing change::

    PYTHONPATH=src python tests/test_step_golden.py --record
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.experiments.ablations import _FlatEfficiencyStepModel
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.optim.quantization import FP8_CONFIG, FP16_CONFIG
from repro.parallel.plan import ParallelPlan
from repro.perfmodel.phases import StepModel

GOLDEN = pathlib.Path(__file__).parent / "data" / "step_breakdown_golden.json"

FIELDS = ("attention", "moe_ffn", "dense_ffn", "embedding", "lm_head",
          "router", "comm", "pipeline", "overhead", "total")
"""Hex columns of one golden row (``router`` is ``null`` when absent)."""

COMPONENTS = ("attention", "moe_ffn", "dense_ffn", "embedding", "lm_head")


def _windowed(name: str, window: int):
    model = get_model(name)
    att = dataclasses.replace(model.attention, sliding_window=window)
    return dataclasses.replace(model, attention=att)


# (label, model, mla_native)
MODELS = (
    ("OLMoE-1B-7B", get_model("OLMoE-1B-7B"), False),
    ("Mixtral-8x7B", get_model("Mixtral-8x7B"), False),
    ("Qwen1.5-MoE-A2.7B", get_model("Qwen1.5-MoE-A2.7B"), False),
    ("Qwen3-30B-A3B", get_model("Qwen3-30B-A3B"), False),
    ("DeepSeek-V2-Lite", get_model("DeepSeek-V2-Lite"), False),
    ("DeepSeek-V2-Lite+mla", get_model("DeepSeek-V2-Lite"), True),
    ("DeepSeek-VL2-Tiny", get_model("DeepSeek-VL2-Tiny"), False),
    ("Mixtral-8x7B+sw128", _windowed("Mixtral-8x7B", 128), False),
)

PLANS = (
    ("tp1", ParallelPlan()),
    ("tp2", ParallelPlan(tp=2)),
    ("tp4ep4", ParallelPlan(tp=4, ep=4)),
    ("tp4pp2", ParallelPlan(tp=4, pp=2)),
    ("tp8ep4", ParallelPlan(tp=8, ep=4)),
)

# (label, step-model class, quant, fused_moe); the non-default variants
# run on the single-device and tp4*ep4 plans only
VARIANTS = (
    ("base", StepModel, FP16_CONFIG, True),
    ("fp8", StepModel, FP8_CONFIG, True),
    ("unfused", StepModel, FP16_CONFIG, False),
    ("flat", _FlatEfficiencyStepModel, FP16_CONFIG, True),
)
_VARIANT_PLANS = ("tp1", "tp4ep4")

# (num_tokens, batch, kv_len, phase, attended_len): decode shapes as the
# engine issues them (int batch / context), prefill shapes as
# step_breakdown(batch * prompt, batch, prompt, "prefill", (prompt+1)/2)
# plus one engine-style fractional mean context
SHAPES = (
    (1, 1, 1, "decode", None),
    (1, 1, 4096, "decode", None),
    (7, 7, 333, "decode", None),
    (64, 64, 1024, "decode", None),
    (256, 256, 2048, "decode", None),
    (2048, 2048, 512, "decode", None),
    (1, 1, 1, "prefill", 1.0),
    (128, 1, 128, "prefill", 64.5),
    (2048, 4, 512, "prefill", 256.5),
    (4096, 16, 256, "prefill", 128.5),
    (3001, 3, 1000.3333333333334, "prefill", 500.6666666666667),
)


def setups():
    """``(setup_id, StepModel)`` for every valid grid deployment."""
    out = []
    for model_label, model, mla in MODELS:
        for plan_label, plan in PLANS:
            for var_label, cls, quant, fused in VARIANTS:
                if var_label != "base" and plan_label not in _VARIANT_PLANS:
                    continue
                try:
                    steps = cls(model, H100_SXM, plan=plan, quant=quant,
                                fused_moe=fused, mla_native=mla)
                except ValueError:
                    continue  # plan not realisable for this model
                out.append((f"{model_label}/{plan_label}/{var_label}", steps))
    return out


def _hex(x) -> str | None:
    return None if x is None else float(x).hex()


def breakdown_row(steps: StepModel, shape) -> list[str | None]:
    m, b, kv, phase, att = shape
    bd = steps.step_breakdown(m, b, kv, phase, attended_len=att)
    assert tuple(bd.components) == COMPONENTS
    assert set(bd.subcomponents) <= {"router"}
    return ([_hex(bd.components[k]) for k in COMPONENTS]
            + [_hex(bd.subcomponents.get("router")), _hex(bd.comm),
               _hex(bd.pipeline), _hex(bd.overhead), _hex(bd.total)])


def record() -> dict:
    cases = {}
    for sid, steps in setups():
        cases[sid] = [breakdown_row(steps, shape) for shape in SHAPES]
    return {"fields": list(FIELDS),
            "shapes": [list(s) for s in SHAPES],
            "cases": cases}


def dumps(data: dict) -> str:
    """The golden as JSON with one step shape per line."""
    def rows(items):
        return ",\n".join(json.dumps(item) for item in items)

    cases = ",\n".join(f"{json.dumps(sid)}: [\n{rows(data['cases'][sid])}\n]"
                        for sid in sorted(data["cases"]))
    return (f'{{"fields": {json.dumps(data["fields"])},\n'
            f'"shapes": [\n{rows(data["shapes"])}\n],\n'
            f'"cases": {{\n{cases}\n}}}}\n')


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text())
    assert data["fields"] == list(FIELDS)
    assert tuple(tuple(s) for s in data["shapes"]) == SHAPES
    return data["cases"]


_SETUPS = setups()


def test_grid_is_complete(golden):
    assert sorted(golden) == sorted(sid for sid, _ in _SETUPS)
    # every requested plan is realised by at least one model
    plans = {sid.split("/")[1] for sid in golden}
    assert plans == {label for label, _ in PLANS}
    # decode and prefill shapes cover m = 1 .. >= 2048
    assert min(s[0] for s in SHAPES) == 1
    assert max(s[0] for s in SHAPES if s[3] == "decode") >= 2048
    assert max(s[0] for s in SHAPES if s[3] == "prefill") >= 2048


@pytest.mark.parametrize("sid,steps", _SETUPS, ids=[s for s, _ in _SETUPS])
class TestGolden:
    def test_step_breakdown(self, golden, sid, steps):
        rows = [breakdown_row(steps, shape) for shape in SHAPES]
        assert rows == golden[sid]

    def test_point_entry(self, golden, sid, steps):
        for shape, row in zip(SHAPES, golden[sid]):
            m, b, kv, _, att = shape
            total = steps.step_total_one(m, b, kv, att)
            assert type(total) is float
            assert total.hex() == row[-1], shape

    @pytest.mark.parametrize("phase", ["decode", "prefill"])
    def test_array_entry(self, golden, sid, steps, phase):
        idx = [i for i, s in enumerate(SHAPES) if s[3] == phase]
        m, b, kv = (np.array([SHAPES[i][j] for i in idx], dtype=np.float64)
                    for j in (0, 1, 2))
        att = None if phase == "decode" else \
            np.array([SHAPES[i][4] for i in idx], dtype=np.float64)
        totals = steps.step_totals(m, b, kv, att)
        assert all(type(t) is float for t in totals)
        assert [t.hex() for t in totals] == [golden[sid][i][-1] for i in idx]
        # every component of the array evaluation, not just the total
        vec = steps._components(m, b, kv, kv if att is None else att)
        for col, name in enumerate(FIELDS[:-1]):
            want = [golden[sid][i][col] for i in idx]
            got = np.broadcast_to(getattr(vec, name), m.shape)
            if name == "router" and want[0] is None:
                assert not got.any()
            else:
                assert [float(x).hex() for x in got] == want, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_step_golden.py "
                 "--record")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(dumps(record()))
    print(f"wrote {GOLDEN}")
