"""The TECO system facade.

Ties the substrates together behind the user-facing surface of Listing 1:

* :func:`check_activation` — the one call a training loop adds;
* :func:`cxl_fence` — ``CXLFENCE()`` (normally hidden inside the
  framework, exposed here for instrumentation);
* :class:`TecoSystem` — builds a coherent-domain description for a model
  (giant-cache sizing, address map, home agent, DBA units) and a
  functional :class:`~repro.offload.trainer.OffloadTrainer` wired to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence import AddressMap, CoherenceMode, HomeAgent
from repro.coherence.giant_cache import required_giant_cache_bytes
from repro.dba import ActivationPolicy, Aggregator, DBARegister, Disaggregator
from repro.dba.activation import (
    DEFAULT_ACT_AFT_STEPS,
    DEFAULT_DIRTY_BYTES,
    default_policy,
)
from repro.dba.registers import check_dirty_bytes
from repro.interconnect.cxl import CXLController
from repro.offload import OffloadTrainer, TrainerMode
from repro.sim import SimEvent, Simulator
from repro.tensor.nn import Module
from repro.utils.units import MIB

__all__ = ["TecoConfig", "TecoSystem", "check_activation", "cxl_fence"]


def check_activation(step: int) -> bool:
    """Listing 1, line 6: decide whether DBA turns on this step.

    Delegates to the process-wide default policy (mirror of the paper's
    ``from TECO import check_activation``).  Systems built through
    :class:`TecoSystem` carry their own policy instead.
    """
    return default_policy.check_activation(step)


def cxl_fence(controllers: list[CXLController]) -> SimEvent:
    """``CXLFENCE()``: an event firing once all in-flight coherence
    traffic on the given controllers has drained (timing simulations)."""
    if not controllers:
        raise ValueError("need at least one controller")
    sim = controllers[0].sim
    return sim.all_of([c.fence() for c in controllers])


@dataclass(frozen=True)
class TecoConfig:
    """User-visible TECO configuration (the model-config-file knobs)."""

    act_aft_steps: int = DEFAULT_ACT_AFT_STEPS
    dirty_bytes: int = DEFAULT_DIRTY_BYTES
    coherence: CoherenceMode = CoherenceMode.UPDATE
    use_dba: bool = True
    gradient_buffer_bytes: int = 32 * MIB
    learning_rate: float = 1e-3
    max_grad_norm: float = 1.0

    def __post_init__(self) -> None:
        if self.act_aft_steps < 0:
            raise ValueError("act_aft_steps must be non-negative")
        check_dirty_bytes(self.dirty_bytes)
        if self.gradient_buffer_bytes <= 0:
            raise ValueError("gradient_buffer_bytes must be positive")

    def policy(self) -> ActivationPolicy:
        """A fresh activation policy with this config's settings."""
        return ActivationPolicy(
            act_aft_steps=self.act_aft_steps, dirty_bytes=self.dirty_bytes
        )

    @property
    def trainer_mode(self) -> TrainerMode:
        """The functional-trainer mode this config maps to."""
        return (
            TrainerMode.TECO_REDUCTION if self.use_dba else TrainerMode.TECO_CXL
        )


@dataclass
class TecoSystem:
    """A TECO deployment for one model: coherence domain + trainer.

    Construction maps the model's parameters and the gradient buffer into
    the giant-cache coherence domain (the resizable-BAR configuration of
    Section IV-A1), instantiates the home agent and the DBA units, and
    wires a functional trainer.
    """

    model: Module
    config: TecoConfig = field(default_factory=TecoConfig)

    def __post_init__(self) -> None:
        n_params = self.model.num_parameters()
        if n_params == 0:
            raise ValueError("model has no parameters")
        param_bytes = n_params * 4
        self.giant_cache_bytes = required_giant_cache_bytes(
            param_bytes, self.config.gradient_buffer_bytes
        )
        self.address_map = AddressMap()
        self.address_map.allocate("parameters", param_bytes, giant_cache=True)
        self.address_map.allocate(
            "gradient_buffer",
            self.config.gradient_buffer_bytes,
            giant_cache=True,
        )
        self.home_agent = HomeAgent(
            self.address_map, mode=self.config.coherence
        )
        self.policy = self.config.policy()
        register = DBARegister(
            enabled=False, dirty_bytes=self.config.dirty_bytes
        )
        self.aggregator = Aggregator(register)
        self.disaggregator = Disaggregator(register)
        self.trainer = OffloadTrainer(
            self.model,
            mode=self.config.trainer_mode,
            lr=self.config.learning_rate,
            max_grad_norm=self.config.max_grad_norm,
            policy=self.policy,
        )

    # -- the Listing-1 surface -------------------------------------------------
    def check_activation(self, step: int) -> bool:
        """Per-system DBA activation check; also programs the DBA
        registers of both CXL modules when it flips on."""
        active = self.policy.check_activation(step)
        register = self.policy.register()
        self.aggregator.configure(register)
        self.disaggregator.configure(register)
        return active

    def train_step(self, *batch):
        """One training step through the TECO dataflow."""
        return self.trainer.step(*batch)

    # -- introspection -----------------------------------------------------
    @property
    def dba_active(self) -> bool:
        """Whether DBA has activated on this system."""
        return self.policy.active

    def summary(self) -> dict:
        """A status snapshot (sizes, mode, DBA state, steps run)."""
        return {
            "parameters": self.model.num_parameters(),
            "giant_cache_bytes": self.giant_cache_bytes,
            "coherence": self.config.coherence.value,
            "dba_active": self.dba_active,
            "dirty_bytes": self.config.dirty_bytes,
            "act_aft_steps": self.config.act_aft_steps,
            "steps_run": self.trainer.step_count,
        }


def make_timing_simulator() -> Simulator:
    """A fresh discrete-event simulator (for custom timing studies)."""
    return Simulator()
