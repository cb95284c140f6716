"""kgqv: characteristic-lattice simulation and statistical verification
for the 1+1 dimensional damped stochastic Klein-Gordon equation

    (d_tt - d_xx + a d_t + m^2) u = theta * F(u) * dW,   u(0)=u_t(0)=0,

with multiplicative space-time white noise.  The package measures the
eps^(3/2) local-linearization rate of rotated second differences, the
quadratic-variation limit, and a plug-in estimator of theta.
"""

from .analysis import (
    IncrementL2,
    SlopeFit,
    estimate_theta,
    fit_loglog,
    limit_functional,
    lp_norm_mc,
    quad_var,
    remainder,
)
from .coords import PhysPoint, RotatedGrid, RotPoint, to_physical, to_rotated
from .greens import PhysParams
from .noise import NoiseField, generate
from .solver import (
    DiffusionCoefficient,
    FieldSample,
    affine,
    clipped_linear,
    coefficient_from_id,
    constant_one,
    march,
    march_linear,
    march_split,
    picard_oracle,
    shifted_sine,
)

__version__ = "0.1.0"

__all__ = [
    "PhysPoint",
    "RotPoint",
    "RotatedGrid",
    "to_physical",
    "to_rotated",
    "PhysParams",
    "NoiseField",
    "generate",
    "DiffusionCoefficient",
    "FieldSample",
    "constant_one",
    "affine",
    "shifted_sine",
    "clipped_linear",
    "coefficient_from_id",
    "march",
    "march_linear",
    "march_split",
    "picard_oracle",
    "remainder",
    "lp_norm_mc",
    "quad_var",
    "limit_functional",
    "estimate_theta",
    "fit_loglog",
    "SlopeFit",
    "IncrementL2",
    "__version__",
]
