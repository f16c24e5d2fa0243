"""Link profiles: the timing model for simulated network links.

A :class:`LinkProfile` converts a payload size into a delivery delay:

    delay = propagation latency + jitter + payload_bits / bandwidth

Jitter is drawn from a seeded RNG owned by the pipe (not the profile) so two
pipes with the same profile do not share random state.  Loss is a Bernoulli
drop probability applied per message; reliable transports use loss 0.

The presets reflect the bearers available to the paper's devices circa 2002.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkProfile:
    """Timing/loss characteristics of one network link direction."""

    name: str
    latency_s: float
    bandwidth_bps: float
    jitter_s: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError(f"negative latency: {self.latency_s}")
        if self.bandwidth_bps <= 0:
            raise ValueError(f"non-positive bandwidth: {self.bandwidth_bps}")
        if self.jitter_s < 0:
            raise ValueError(f"negative jitter: {self.jitter_s}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {self.loss}")

    def transmission_time(self, nbytes: int) -> float:
        """Seconds the link is busy serialising ``nbytes``."""
        return (nbytes * 8.0) / self.bandwidth_bps

    def sample_jitter(self, rng: random.Random) -> float:
        """One jitter sample in ``[0, jitter_s]``."""
        if self.jitter_s == 0.0:
            return 0.0
        return rng.uniform(0.0, self.jitter_s)

    def sample_loss(self, rng: random.Random) -> bool:
        """True when this message should be dropped."""
        if self.loss == 0.0:
            return False
        return rng.random() < self.loss


#: In-process control path; effectively instantaneous.
LOOPBACK = LinkProfile("loopback", latency_s=5e-6, bandwidth_bps=8e9)

#: Wired home LAN backbone between appliances, proxy and servers.
ETHERNET_100 = LinkProfile("ethernet-100", latency_s=2e-4, bandwidth_bps=100e6)

#: 802.11b wireless, the PDA bearer of the era (~5 Mbps effective).
WIFI_11B = LinkProfile(
    "wifi-11b", latency_s=3e-3, bandwidth_bps=5e6, jitter_s=2e-3
)

#: Bluetooth 1.1, ~723 kbps asymmetric, used by wearables.
BLUETOOTH_1 = LinkProfile(
    "bluetooth-1.1", latency_s=15e-3, bandwidth_bps=723e3, jitter_s=5e-3
)

#: Japanese PDC packet data (the 2002 cellular phone bearer): 9600 bps.
CELLULAR_PDC = LinkProfile(
    "cellular-pdc", latency_s=0.35, bandwidth_bps=9600, jitter_s=0.08
)

#: IrDA remote-control style link.
INFRARED_IRDA = LinkProfile(
    "irda", latency_s=1e-3, bandwidth_bps=115200, jitter_s=1e-3
)
