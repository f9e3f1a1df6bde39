"""Outage and DBPSK BER for multiuser multihop hybrid FSO/RF relay chains.

The names re-exported here are the ones the README's Library section
uses: the link and chain descriptions, the closed-form, quadrature and
Monte-Carlo routes for both metrics, and ConvergenceError.  Everything
else (channel laws, composition algebra, the series and special-function
core, the sweep/CSV experiment layer) is imported from its submodule,
for example fsorf.channels or fsorf.experiments.
"""

from .channels import LinkParams, db_to_linear
from .composition import GainMode, Topology, end_to_end_outage_semianalytic
from .metrics import ber_closed_form, ber_quadrature, outage_closed_form
from .montecarlo import SimConfig, simulate_ber_snr_level, simulate_outage
from .special import ConvergenceError

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "GainMode",
    "LinkParams",
    "SimConfig",
    "Topology",
    "ber_closed_form",
    "ber_quadrature",
    "db_to_linear",
    "end_to_end_outage_semianalytic",
    "outage_closed_form",
    "simulate_ber_snr_level",
    "simulate_outage",
]
