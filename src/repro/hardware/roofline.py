"""Roofline kernel-time model.

A kernel is characterised by its FLOP count, the bytes it moves through
device memory, and the datatype its math runs in.  Execution time is the
roofline maximum of the compute time and the memory time, plus the kernel
launch overhead:

    t = max( flops / (peak_flops_per_s * eff_c),  bytes / (bw * eff_m) ) + launch

``eff_c`` is not constant: real tensor cores lose utilization when the
token dimension of a GEMM is small (decode steps are GEMV-like) or when
dimensions don't fill the MMA tiles.  We model that with a saturating
utilization curve in the reduction-parallel token dimension, which is the
standard first-order shape for cuBLAS/CUTLASS efficiency data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.elementwise import lowest, maximum, per_element
from repro.hardware.spec import HardwareSpec

__all__ = ["KernelCost", "gemm_efficiency", "kernel_time", "roofline_time",
           "gemm_cost", "gemm_time", "arithmetic_intensity",
           "is_memory_bound"]

# Token-dimension scale at which GEMM efficiency reaches half its ceiling.
# ~64 rows fill one MMA tile pipeline stage on Hopper-class hardware.
_M_HALF = 256.0
# Granularity penalty when inner dims are not multiples of the tile width.
_TILE = 64
# Datatypes whose tensor-core math runs through the quantized GEMM path.
_QUANT_DTYPES = ("fp8_e4m3", "int8", "int4")


@dataclass(frozen=True)
class KernelCost:
    """Static cost of one kernel (or a fused group of kernels)."""

    flops: float
    bytes: float
    dtype: str = "fp16"
    launches: int = 1

    def __add__(self, other: "KernelCost") -> "KernelCost":
        if other.dtype != self.dtype:
            raise ValueError(
                f"cannot merge kernel costs of dtypes {self.dtype} and {other.dtype}"
            )
        return KernelCost(
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
            dtype=self.dtype,
            launches=self.launches + other.launches,
        )

    def scaled(self, factor: float) -> "KernelCost":
        return KernelCost(self.flops * factor, self.bytes * factor, self.dtype, self.launches)


def _tile_quant(d: float) -> float:
    # work is issued in TILE-wide chunks; a 65-wide dim pays for 128
    tiles = -(-d // _TILE)  # ceil division
    return d / (tiles * _TILE)


def gemm_efficiency(m, n, k, hw: HardwareSpec):
    """Fraction of tensor-core peak achieved by an ``m×k @ k×n`` GEMM.

    ``m`` is the token (batch) dimension.  Efficiency saturates towards the
    hardware's ``max_gemm_efficiency`` as ``m`` grows, with a mild
    granularity penalty for inner dimensions that underfill tiles.  Any
    dimension may be a float64 array (one GEMM per element); the tile
    penalty is evaluated per element (float ``//`` on arrays is not
    guaranteed to round like the scalar operator).
    """
    if lowest(m) <= 0 or lowest(n) <= 0 or lowest(k) <= 0:
        raise ValueError(f"GEMM dims must be positive, got ({m}, {n}, {k})")
    sat = m / (m + _M_HALF)
    gran = per_element(_tile_quant, n) * per_element(_tile_quant, k)
    return hw.max_gemm_efficiency * sat * gran


def _roofline_terms(flops, bytes_, dtype: str, hw: HardwareSpec,
                    efficiency):
    """``(compute seconds, memory seconds)`` of one kernel."""
    if efficiency is None:
        eff = hw.max_gemm_efficiency  # validated positive by HardwareSpec
    elif lowest(efficiency) <= 0:
        raise ValueError("efficiency must be positive")
    else:
        eff = efficiency
    if dtype in _QUANT_DTYPES:
        eff = eff * hw.quant_gemm_derate
    t_compute = (flops / (hw.peak_flops_per_s(dtype) * eff)
                 if isinstance(flops, np.ndarray) or flops else 0.0)
    t_memory = (bytes_ / hw.mem_bytes_per_s
                if isinstance(bytes_, np.ndarray) or bytes_ else 0.0)
    return t_compute, t_memory


def roofline_time(flops, bytes_, dtype: str, launches: int, hw: HardwareSpec,
                  efficiency=None):
    """Execution time in seconds of a kernel given as its terms.

    The array-capable form of :func:`kernel_time`: ``flops``, ``bytes_``
    and ``efficiency`` may be float64 arrays (one kernel per element),
    and no :class:`KernelCost` is built, which keeps per-component step
    pricing cheap.
    """
    t_compute, t_memory = _roofline_terms(flops, bytes_, dtype, hw, efficiency)
    return maximum(t_compute, t_memory) + launches * hw.kernel_launch_us * 1e-6


def kernel_time(cost: KernelCost, hw: HardwareSpec, efficiency: float | None = None) -> float:
    """Execution time in seconds of one kernel cost on ``hw``.

    ``efficiency`` overrides the compute-efficiency factor (used by
    :func:`gemm_time`, which knows its shape); the default assumes a large,
    well-shaped kernel.
    """
    return roofline_time(cost.flops, cost.bytes, cost.dtype, cost.launches,
                         hw, efficiency)


def arithmetic_intensity(cost: KernelCost) -> float:
    """FLOPs per byte moved — the roofline x-axis."""
    if cost.bytes <= 0:
        return float("inf") if cost.flops > 0 else 0.0
    return cost.flops / cost.bytes


def is_memory_bound(cost: KernelCost, hw: HardwareSpec,
                    efficiency: float | None = None) -> bool:
    """Whether the memory term dominates this kernel's roofline time."""
    t_compute, t_memory = _roofline_terms(cost.flops, cost.bytes, cost.dtype,
                                          hw, efficiency)
    return t_memory >= t_compute


def gemm_cost(
    m: float, n: float, k: float, weight_bytes_per_el: float, act_bytes_per_el: float,
    dtype: str = "fp16", launches: int = 1,
) -> KernelCost:
    """Cost of ``(m,k) @ (k,n)``: 2mnk FLOPs; weights ``k*n`` at the weight
    storage width, activations ``m*k`` in + ``m*n`` out at activation width."""
    flops = 2.0 * m * n * k
    bytes_moved = k * n * weight_bytes_per_el + (m * k + m * n) * act_bytes_per_el
    return KernelCost(flops=flops, bytes=bytes_moved, dtype=dtype, launches=launches)


def gemm_time(
    m: float, n: float, k: float, hw: HardwareSpec,
    weight_bytes_per_el: float = 2.0, act_bytes_per_el: float = 2.0,
    dtype: str = "fp16", launches: int = 1,
) -> float:
    """Roofline time of one GEMM with the shape-aware efficiency curve."""
    cost = gemm_cost(m, n, k, weight_bytes_per_el, act_bytes_per_el, dtype, launches)
    return kernel_time(cost, hw, efficiency=gemm_efficiency(m, n, k, hw))
