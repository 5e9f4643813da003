"""Pluggable dishonest behaviours for the verifiable key agreement run.

Three strategies:

* :class:`HonestCurious` -- a coalition that follows the protocol but records
  everything it sees. Injecting it never changes a single output bit.
* :class:`DishonestSource` -- the source emits arbitrary states instead of
  GHZ states.
* :class:`WithholdingAgent` -- a bystander that skips its entanglement-round
  measurement, announces a fresh coin instead, keeps its qubit, and measures
  it later to guess the key. Undetectable in keygen rounds, caught with
  probability 1/2 per verification round.

All dishonest randomness is drawn from the bundle's adversary stream, so an
honest run and its honest-curious twin consume identical honest draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .netmodel import AdversaryView, Network, RoleAssignment, check_coalition, extract_view
from .protocols import AvkaResult, avka, check_run
from .qsim import Basis, NoiseEnsemble, StateVector, ghz_state
from .rng import RngBundle


class ConfigurationError(ValueError):
    """Strategy inconsistent with the role assignment."""


@dataclass(frozen=True)
class HonestCurious:
    coalition: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coalition", frozenset(self.coalition))


@dataclass(frozen=True)
class DishonestSource:
    generator: Union[NoiseEnsemble, StateVector]


@dataclass(frozen=True)
class WithholdingAgent:
    party: int
    later_basis: Basis = Basis.Z


AdversaryStrategy = Union[HonestCurious, DishonestSource, WithholdingAgent]


@dataclass(frozen=True)
class AdversaryRun:
    result: AvkaResult
    view: AdversaryView
    adversary_key_guess: str


def run_with_adversary(
    roles: RoleAssignment,
    num_states: int,
    keygen_denom: int,
    strategy: AdversaryStrategy,
    net: Network,
    rng: RngBundle,
    source: StateVector | NoiseEnsemble | None = None,
) -> AdversaryRun:
    """Execute a verifiable key agreement run with one adversary injected.

    ``source`` is the honest source (pure GHZ by default); a DishonestSource
    strategy replaces it, and a dishonest mixture draws from the adversary
    stream. Returns the protocol result, the adversary's view of the
    transcript, and its key guess (empty unless withholding). A run that
    breaks ``check_run`` or ``check_coalition`` (a withholder is a coalition
    of one) raises ConfigurationError before any round.
    """
    withholding: frozenset[int] = frozenset()
    withholder_basis = Basis.Z
    coalition: frozenset[int] = frozenset()

    if isinstance(strategy, HonestCurious):
        coalition = strategy.coalition
    elif isinstance(strategy, WithholdingAgent):
        withholding = coalition = frozenset({strategy.party})
        withholder_basis = strategy.later_basis
    elif isinstance(strategy, DishonestSource):
        source = strategy.generator
        rng = replace(rng, source=rng.adversary)
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    try:
        check_run(roles, net, rng, source, withholding)
        coalition = check_coalition(coalition, roles.n, (roles.alice,))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc

    result = avka(
        roles,
        num_states,
        keygen_denom,
        ghz_state(roles.n) if source is None else source,
        net,
        rng,
        withholder=strategy.party if withholding else None,
        withholder_basis=withholder_basis,
    )
    view = extract_view(net.transcript, coalition, roles.n)
    return AdversaryRun(result=result, view=view, adversary_key_guess=result.withholder_guess)
