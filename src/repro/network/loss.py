"""Packet-loss models.

Two loss processes are used by the paper: independent (Bernoulli) loss at a
configured rate — NetEm's ``loss <p>%`` used for the sensitivity
experiments — and the two-state Gilbert–Elliott Markov model (their
reference [24]) that drives the bursty loss in the dynamic-configuration
experiment.
"""

from __future__ import annotations

from typing import Optional

from ..simulation.random import Rng

__all__ = ["LossModel", "NoLoss", "BernoulliLoss", "GilbertElliottLoss"]


class LossModel:
    """Base class: decides, per packet, whether the packet is lost."""

    def is_lost(self, rng: Rng) -> bool:
        """Sample the fate of one packet; True means the packet is dropped."""
        raise NotImplementedError

    def expected_loss_rate(self) -> float:
        """Long-run fraction of packets lost (for analytic checks)."""
        raise NotImplementedError

    def independent_rate(self) -> Optional[float]:
        """The fixed per-packet loss probability of a memoryless model.

        A model whose every packet is lost independently with one fixed
        probability returns it (and draws exactly one ``rng.random()`` per
        packet when it is non-zero, none when it is zero), which lets the
        link draw it inline; stateful models return None and are asked
        through :meth:`is_lost`.
        """
        return None


class NoLoss(LossModel):
    """A perfect link."""

    def is_lost(self, rng: Rng) -> bool:
        return False

    def expected_loss_rate(self) -> float:
        return 0.0

    def independent_rate(self) -> Optional[float]:
        return 0.0

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Independent per-packet loss at a fixed rate, NetEm's ``loss <p>%``.

    The rate is fixed at construction (links cache it); a fault installs a
    new model instead of changing the rate of a live one.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self._rate = float(rate)

    @property
    def rate(self) -> float:
        """Per-packet loss probability."""
        return self._rate

    def is_lost(self, rng: Rng) -> bool:
        if self._rate == 0.0:
            return False
        return rng.random() < self._rate

    def expected_loss_rate(self) -> float:
        return self.rate

    def independent_rate(self) -> Optional[float]:
        return self.rate

    def __repr__(self) -> str:
        return f"BernoulliLoss({self.rate:.1%})"


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss model.

    The chain alternates between a Good state and a Bad state.  Each packet
    advances the chain one step and is then lost with the current state's
    loss probability (``1 - k`` for Good, ``1 - h`` for Bad in the usual
    G-E notation; we take the loss probabilities directly).

    Parameters
    ----------
    p_good_to_bad:
        Transition probability Good → Bad per packet.
    p_bad_to_good:
        Transition probability Bad → Good per packet.
    loss_good:
        Loss probability while in the Good state (often 0).
    loss_bad:
        Loss probability while in the Bad state (often close to 1).
    start_in_bad:
        Initial chain state.
    """

    GOOD = 0
    BAD = 1

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        start_in_bad: bool = False,
    ) -> None:
        for name, value in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ]:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if p_good_to_bad == 0.0 and start_in_bad is False and loss_good == 0.0:
            # Degenerate but valid: a lossless link.
            pass
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.state = self.BAD if start_in_bad else self.GOOD

    def step(self, rng: Rng) -> int:
        """Advance the Markov chain one packet and return the new state."""
        if self.state == self.GOOD:
            if rng.random() < self.p_good_to_bad:
                self.state = self.BAD
        else:
            if rng.random() < self.p_bad_to_good:
                self.state = self.GOOD
        return self.state

    def is_lost(self, rng: Rng) -> bool:
        self.step(rng)
        loss_p = self.loss_bad if self.state == self.BAD else self.loss_good
        if loss_p == 0.0:
            return False
        return bool(rng.random() < loss_p)

    def stationary_bad_fraction(self) -> float:
        """Long-run fraction of time the chain spends in the Bad state."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0.0:
            return 1.0 if self.state == self.BAD else 0.0
        return self.p_good_to_bad / denom

    def expected_loss_rate(self) -> float:
        pi_bad = self.stationary_bad_fraction()
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(g→b={self.p_good_to_bad:.3f}, "
            f"b→g={self.p_bad_to_good:.3f}, "
            f"loss={self.loss_good:.2f}/{self.loss_bad:.2f})"
        )
