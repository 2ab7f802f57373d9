"""System-noise injection (paper Section 5.1.1 methodology)."""

from repro import on_first_use
from repro.noise.injector import NoiseInjector, noise_profile

__all__ = [
    "NoiseInjector",
    "noise_profile",
    "PropagationReport",
    "classify_relation",
    "probe_propagation",
]

#: Served on first use: no runner or experiment calls the propagation
#: microscope.
__getattr__ = on_first_use(__name__, dict.fromkeys(
    ("PropagationReport", "classify_relation", "probe_propagation"), "microscope"
))
