"""Runtime DBA activation (Section V-A, Listing 1).

DBA is not active from step 0: early training steps move parameters far
enough that truncating high-order bytes would hurt convergence.  After
``act_aft_steps`` training steps (default 500, a model-dependent
hyper-parameter tunable by e.g. Bayesian optimization), ``check_activation``
flips DBA on.

The module-level :func:`check_activation` mirrors the two-line user API of
Listing 1::

    from TECO import check_activation
    ...
    loss.backward()
    check_activation(i)
    optimizer.step()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dba.registers import DBARegister, check_dirty_bytes

__all__ = [
    "ActivationPolicy",
    "check_activation",
    "default_policy",
    "fresh_policy",
    "reset_default_policy",
]

#: Paper default for ``act_aft_steps`` (Section VIII-E: "Choosing the
#: 500th step strikes a balance").
DEFAULT_ACT_AFT_STEPS = 500

#: Paper default for ``dirty_bytes`` (Observation 2).
DEFAULT_DIRTY_BYTES = 2


@dataclass
class ActivationPolicy:
    """Decides when DBA turns on and with what dirty-byte length.

    Parameters
    ----------
    act_aft_steps
        Training step index at or after which DBA activates.
    dirty_bytes
        Dirty-byte length programmed into the DBA register on activation.
    """

    act_aft_steps: int = DEFAULT_ACT_AFT_STEPS
    dirty_bytes: int = DEFAULT_DIRTY_BYTES
    _active: bool = field(default=False, repr=False)
    _activated_at: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.act_aft_steps < 0:
            raise ValueError("act_aft_steps must be non-negative")
        check_dirty_bytes(self.dirty_bytes)

    @property
    def active(self) -> bool:
        """Whether DBA is currently on."""
        return self._active

    @property
    def activated_at(self) -> int | None:
        """Step at which DBA actually switched on (None if never)."""
        return self._activated_at

    def check_activation(self, step: int) -> bool:
        """Listing-1 hook: called once per training step after backward.

        Returns whether DBA is active for the upcoming parameter update.
        Activation is sticky: once on, DBA stays on.
        """
        if step < 0:
            raise ValueError("step must be non-negative")
        if not self._active and step >= self.act_aft_steps:
            self._active = True
            self._activated_at = step
        return self._active

    def register(self) -> DBARegister:
        """The DBA-register value to program for the current state."""
        return DBARegister(enabled=self._active, dirty_bytes=self.dirty_bytes)

    def reset(self) -> None:
        """Return to the pre-activation state."""
        self._active = False
        self._activated_at = None

    # -- checkpointing (repro.state protocol) ------------------------------
    def state_dict(self) -> dict:
        """Snapshot of configuration and sticky activation state."""
        return {
            "act_aft_steps": self.act_aft_steps,
            "dirty_bytes": self.dirty_bytes,
            "active": self._active,
            "activated_at": self._activated_at,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (including config, so a
        resumed run activates at exactly the checkpointed threshold)."""
        self.act_aft_steps = int(state["act_aft_steps"])
        self.dirty_bytes = check_dirty_bytes(state["dirty_bytes"])
        self._active = bool(state["active"])
        at = state["activated_at"]
        self._activated_at = None if at is None else int(at)


#: Process-wide policy backing the Listing-1 module-level API.
#:
#: Activation is *sticky*, so a bare ``check_activation(...)`` call leaves
#: DBA latched on for the rest of the process — later runs in the same
#: process would silently inherit it.  Library code should therefore use
#: :func:`fresh_policy` (or construct :class:`ActivationPolicy` directly)
#: and reserve this global for the Listing-1 two-line user API; tests reset
#: it around every case (see ``tests/conftest.py``).
default_policy = ActivationPolicy()


def check_activation(step: int) -> bool:
    """Module-level convenience wrapper over :data:`default_policy`."""
    return default_policy.check_activation(step)


def fresh_policy(
    act_aft_steps: int = DEFAULT_ACT_AFT_STEPS,
    dirty_bytes: int = DEFAULT_DIRTY_BYTES,
) -> ActivationPolicy:
    """A per-run policy, isolated from the process-global one.

    Use this instead of :data:`default_policy` anywhere outside a literal
    Listing-1 training loop, so one run's sticky activation cannot
    contaminate the next run (or test) in the same process.
    """
    return ActivationPolicy(
        act_aft_steps=act_aft_steps, dirty_bytes=dirty_bytes
    )


def reset_default_policy() -> None:
    """Return the process-global Listing-1 policy to its pristine state."""
    default_policy.reset()
