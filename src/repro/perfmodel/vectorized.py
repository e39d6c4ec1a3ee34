"""Former home of the array step model, now :class:`~repro.perfmodel.phases.StepModel` itself."""

from repro.perfmodel.phases import StepModel

# kept importable for the host-time benchmark harness (perfbench/tracing.py)
VectorizedStepModel = StepModel

__all__ = ["VectorizedStepModel"]
