"""Transport protocols: DCTCP, ExpressPass, Homa, and the Layering scheme.

Each transport exposes a sender and a receiver endpoint with a uniform
construction interface (:mod:`repro.transports.base`), so experiment
scenarios can swap schemes without touching traffic generation.
FlexPass itself lives in :mod:`repro.core` and composes the machinery here.
"""

from repro.transports.base import FlowSpec, FlowStats
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender
from repro.transports.expresspass import (
    ExpressPassParams,
    ExpressPassReceiver,
    ExpressPassSender,
)
from repro.transports.homa import HomaParams, HomaReceiver, HomaSender
from repro.transports.layering import LayeringReceiver, LayeringSender

__all__ = [
    "FlowSpec",
    "FlowStats",
    "DctcpParams",
    "DctcpReceiver",
    "DctcpSender",
    "ExpressPassParams",
    "ExpressPassReceiver",
    "ExpressPassSender",
    "HomaParams",
    "HomaReceiver",
    "HomaSender",
    "LayeringReceiver",
    "LayeringSender",
]
