"""Weight initializers.

Each initializer mutates a tensor in place using a caller-supplied
``numpy.random.Generator`` so that model construction is fully
deterministic under :func:`repro.nn.random.seed_all`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor


def xavier_uniform_(param: Tensor, rng: np.random.Generator, gain: float = 1.0) -> Tensor:
    """Glorot uniform init for 2-D weights (fan computed from the shape)."""
    if param.ndim < 2:
        raise ValueError("xavier_uniform_ requires at least a 2-D tensor")
    fan_out, fan_in = param.shape[0], param.shape[-1]
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    param.data[...] = rng.uniform(-bound, bound, size=param.shape).astype(param.dtype)
    return param
