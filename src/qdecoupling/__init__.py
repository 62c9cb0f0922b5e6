"""One-shot decoupling bounds, Renyi entropic quantities and error exponents.

Numerical library for small dense quantum states and channels: extended-real
divergences, optimized conditional Renyi entropies, Monte Carlo decoupling
experiments against one-shot upper and lower bounds, and one-dimensional
exponent optimizations for decoupling, state merging, entanglement
distillation and channel coding.  All entropic quantities are in bits.
"""

from .channels import Channel, apply_channel, channel_from_kraus, generalized_dephasing
from .condentropy import EntropyKind, cond_entropy, duality_pair, petz_up_closed_form
from .decoupling import (
    DecouplingInstance,
    decoupling_error_lower_bound,
    decoupling_error_upper_bound,
    decoupling_error_upper_bound_optimized,
    mc_decoupling_error,
    standard_instance,
)
from .divergences import d_max, divergence, petz_renyi, sandwiched_renyi, umegaki
from .exponents import (
    ExponentResult,
    channel_coding_exponent,
    dephasing_channel_curve,
    distillation_exponent,
    merging_exponents,
    standard_decoupling_exponents,
)
from .states import State, haar_unitaries, haar_unitary, make_rng

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "DecouplingInstance",
    "EntropyKind",
    "ExponentResult",
    "State",
    "apply_channel",
    "channel_coding_exponent",
    "channel_from_kraus",
    "cond_entropy",
    "d_max",
    "decoupling_error_lower_bound",
    "decoupling_error_upper_bound",
    "decoupling_error_upper_bound_optimized",
    "dephasing_channel_curve",
    "distillation_exponent",
    "divergence",
    "duality_pair",
    "generalized_dephasing",
    "haar_unitaries",
    "haar_unitary",
    "make_rng",
    "mc_decoupling_error",
    "merging_exponents",
    "petz_renyi",
    "petz_up_closed_form",
    "sandwiched_renyi",
    "standard_decoupling_exponents",
    "standard_instance",
    "umegaki",
]
