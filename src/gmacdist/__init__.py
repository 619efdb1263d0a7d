"""Distortion bounds for correlated Gaussian sources on a two-user Gaussian
multiple-access channel: converse and achievable regions, uncoded and
vector-quantized transmission, and seeded Monte Carlo validation.

The package exports the names the README's Library section uses; every
other name is imported from its module, for example
gmacdist.vq_sim.simulate_vq.
"""

from .model import (
    DistortionPair,
    ProblemInstance,
    canonicalize,
    decanonicalize_distortion,
    symmetric_instance,
)
from .region import verdict
from .uncoded import simulate_uncoded, uncoded_distortions
from .vq_analytic import solve_symmetric_rate

# every layer module stays an attribute of the package (gmacdist.vq_sim, ...);
# imported after the names, since starting with acceptance, whose import
# nests all the others, raised a fresh process's peak RSS by about 0.3 MiB
from . import acceptance, model, rd_bounds, region, uncoded, vq_analytic, vq_sim

__version__ = "0.1.0"

__all__ = [
    "DistortionPair", "ProblemInstance", "canonicalize",
    "decanonicalize_distortion", "symmetric_instance", "verdict",
    "uncoded_distortions", "solve_symmetric_rate", "simulate_uncoded",
    "__version__",
]
