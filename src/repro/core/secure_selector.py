"""SecureDubheSelector — Dubhe selection driven end-to-end by the HE protocol.

:class:`~repro.core.selectors.DubheSelector` implements the selection
*algorithm* against plaintext label distributions (which is what the
large-scale experiments use).  This class runs the same algorithm through
the actual encrypted data path, exactly as deployed:

* the registration round goes through :class:`SecureRegistrationRound`
  (agent keygen → client-side encryption → server ciphertext aggregation →
  client-side decryption of the overall registry);
* each multi-time tentative selection is scored by the agent via
  :meth:`SecureDistributionAggregation.population` (selected clients
  encrypt ``p_l``, the server sums ciphertexts, the agent decrypts the
  aggregate only);
* the server side of the selector never touches a plaintext distribution or
  a private key.

Both phases ship BatchCrypt-style packed ciphertexts
(:mod:`repro.crypto.packing`): a registry is count-packed with headroom for
all N clients, a ``p_l`` vector is packed with headroom for the K clients
of one tentative try.  At the default 256-bit key that is 3 ciphertexts per
56-slot registry instead of 56, and 2 per 10-class ``p_l`` instead of 10,
which keeps Paillier a small share of a round.  Packed aggregates decrypt
to the same floats as per-component ones, so it produces byte-for-byte the
same selections as the plaintext selector for the same RNG seed (verified
in the test-suite), plus a full :class:`ProtocolStats` accounting of the
encryption/communication cost it incurred — so it doubles as a live §6.4
measurement on real selections.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..crypto.keyagent import KeyAgent
from .config import DubheConfig
from .multitime import MultiTimeResult, multi_time_selection
from .probability import participation_probabilities
from .registry import BatchRegistration, RegistrationResult, RegistryCodebook
from .secure import ProtocolStats, SecureDistributionAggregation, SecureRegistrationRound
from .selectors import ClientSelector, proactive_draw

__all__ = ["SecureDubheSelector"]


class SecureDubheSelector(ClientSelector):
    """Dubhe selection where every exchanged vector travels encrypted."""

    name = "dubhe-secure"

    def __init__(self, client_distributions: np.ndarray, config: DubheConfig,
                 seed: Optional[int] = None, agent: Optional[KeyAgent] = None,
                 score_securely: bool = True):
        super().__init__(client_distributions, config.participants_per_round, seed=seed)
        if config.num_classes != self.num_classes:
            raise ValueError("config num_classes does not match client distributions")
        if not config.has_all_thresholds():
            raise ValueError(
                "DubheConfig is missing thresholds; run repro.core.parameter_search first"
            )
        self.config = config
        self.codebook = RegistryCodebook(config)
        self.agent = agent or KeyAgent(key_size=config.key_size)
        self.score_securely = score_securely
        self.last_result: Optional[MultiTimeResult] = None
        self._registration_round = SecureRegistrationRound(config, agent=self.agent,
                                                           packed=True)
        self._scorer: Optional[SecureDistributionAggregation] = None
        # traffic of finished scorers; the live scorer's is added by `stats`
        self._stats = ProtocolStats()
        self.register()

    @property
    def stats(self) -> ProtocolStats:
        """Registration and scoring traffic of every protocol run so far."""
        if self._scorer is None:
            return self._stats
        return self._stats.merged_with(self._scorer.stats)

    # -- the encrypted registration round ---------------------------------------

    def register(self) -> None:
        """Run a full encrypted registration round for every client."""
        streamed = self._registration_round.run_stream(self.client_distributions)
        # count packing decrypts the integral counts exactly
        self.overall_registry = streamed.overall
        self.registration_batch: BatchRegistration = streamed.registration
        self._registrations: Optional[list[RegistrationResult]] = None
        self.probabilities = participation_probabilities(
            self.codebook, self.registration_batch, self.overall_registry,
            self.config.participants_per_round,
        )
        self._stats = self.stats.merged_with(streamed.stats)
        if self.score_securely:
            # rotate to a fresh key for the multi-time scoring traffic; the
            # agent's current keypair now matches the scorer's
            self._scorer = SecureDistributionAggregation(self.config, agent=self.agent,
                                                         packed=True)

    @property
    def registrations(self) -> list[RegistrationResult]:
        """Per-client :class:`RegistrationResult` list (materialised lazily)."""
        if self._registrations is None:
            self._registrations = self.codebook.materialize_results(self.registration_batch)
        return self._registrations

    # -- selection ----------------------------------------------------------------

    def select(self, round_index: int) -> list[int]:
        """Run ``H`` tentative draws, each scored on a decrypted aggregate."""
        if self._scorer is not None:
            population_of = partial(self._scorer.population, self.client_distributions)
        else:
            population_of = self.population_of
        result = multi_time_selection(
            draw=lambda _h: proactive_draw(self.probabilities,
                                           self.participants_per_round, self.rng),
            population_of=population_of,
            uniform=self.uniform,
            tries=self.config.tentative_selections,
        )
        self.last_result = result
        return list(result.best.candidate)

    @property
    def last_bias(self) -> float:
        """``EMD*`` of the most recent selection (scored on decrypted aggregates)."""
        if self.last_result is None:
            raise RuntimeError("no selection has been performed yet")
        return self.last_result.best_score
