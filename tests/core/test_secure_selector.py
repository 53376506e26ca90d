"""Tests for SecureDubheSelector: the fully encrypted selection path."""

import random

import numpy as np
import pytest

from repro.core.config import DubheConfig
from repro.core.secure import (SecureAggregationServer, SecureClient,
                               SecureDistributionAggregation)
from repro.core.secure_selector import SecureDubheSelector
from repro.core.selectors import DubheSelector, RandomSelector
from repro.crypto.keyagent import KeyAgent
from repro.crypto.packing import PackingScheme
from repro.crypto.paillier import generate_keypair
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions


@pytest.fixture(scope="module")
def small_federation():
    global_dist = half_normal_class_proportions(10, 10.0)
    partition = EMDTargetPartitioner(30, 64, 1.5, seed=0).partition(global_dist)
    return partition.client_distributions()


def settled_config(k=6, h=2, key_size=128):
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k, tentative_selections=h,
                       key_size=key_size)


@pytest.fixture(scope="module")
def secure_selector(small_federation):
    agent = KeyAgent(key_size=128, rng=random.Random(0))
    return SecureDubheSelector(small_federation, settled_config(), seed=0, agent=agent)


class TestSecureDubheSelector:
    def test_requires_settled_config(self, small_federation):
        with pytest.raises(ValueError):
            SecureDubheSelector(small_federation,
                                DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                                            participants_per_round=5, key_size=128))

    def test_class_mismatch_rejected(self, small_federation):
        config = DubheConfig(num_classes=5, reference_set=(1, 5),
                             thresholds={1: 0.5, 5: 0.0}, participants_per_round=5,
                             key_size=128)
        with pytest.raises(ValueError):
            SecureDubheSelector(small_federation, config)

    def test_registration_matches_plaintext_selector(self, small_federation, secure_selector):
        plaintext = DubheSelector(small_federation, settled_config(), seed=0)
        np.testing.assert_allclose(secure_selector.overall_registry,
                                   plaintext.overall_registry, atol=1e-9)
        np.testing.assert_allclose(secure_selector.probabilities,
                                   plaintext.probabilities, atol=1e-9)

    def test_selects_exactly_k_distinct(self, secure_selector):
        selected = secure_selector.select(0)
        assert len(selected) == 6
        assert len(set(selected)) == 6
        assert secure_selector.last_bias >= 0

    def test_same_seed_matches_plaintext_selections(self, small_federation):
        agent = KeyAgent(key_size=128, rng=random.Random(1))
        secure = SecureDubheSelector(small_federation, settled_config(h=3), seed=7, agent=agent)
        plaintext = DubheSelector(small_federation, settled_config(h=3), seed=7)
        for r in range(3):
            assert secure.select(r) == plaintext.select(r)

    def test_protocol_stats_accumulate(self, small_federation):
        config = settled_config()
        secure = SecureDubheSelector(small_federation, config, seed=0,
                                     agent=KeyAgent(key_size=128, rng=random.Random(2)))
        # an identically seeded agent regenerates the selector's two round keys
        twin = KeyAgent(key_size=128, rng=random.Random(2))
        registration_key = twin.new_round().public_key
        scoring_key = twin.new_round().public_key
        assert scoring_key == secure.agent.keypair.public_key
        n = len(small_federation)
        k, h = config.participants_per_round, config.tentative_selections
        registry_cts = PackingScheme.for_counts(
            registration_key, secure.codebook.length, max_weight=n).num_ciphertexts
        p_l_cts = PackingScheme(scoring_key, config.num_classes,
                                max_weight=k).num_ciphertexts
        assert registry_cts < secure.codebook.length and p_l_cts < config.num_classes
        # every upload is metered by its sender and by the server; the
        # decrypted registry aggregate is synced back to all N clients
        uploads = n * registry_cts * registration_key.ciphertext_bytes()
        sync = n * registry_cts * registration_key.ciphertext_bytes()
        assert secure.stats.messages == 3 * n
        assert secure.stats.ciphertext_bytes == 2 * uploads + sync
        registration_bytes = secure.stats.ciphertext_bytes
        for r in range(2):
            secure.select(r)
            tries = (r + 1) * h * k
            assert secure.stats.messages == 3 * n + 2 * tries
            assert secure.stats.ciphertext_bytes == registration_bytes + (
                2 * tries * p_l_cts * scoring_key.ciphertext_bytes())

    def test_beats_random_on_skewed_federation(self, small_federation, secure_selector):
        rand = RandomSelector(small_federation, 6, seed=0)
        secure_bias = np.mean([secure_selector.bias_of(secure_selector.select(r))
                               for r in range(8)])
        random_bias = np.mean([rand.bias_of(rand.select(r)) for r in range(8)])
        assert secure_bias < random_bias + 0.05

    def test_last_bias_before_selection_raises(self, small_federation):
        agent = KeyAgent(key_size=128, rng=random.Random(3))
        fresh = SecureDubheSelector(small_federation, settled_config(), seed=0, agent=agent)
        with pytest.raises(RuntimeError):
            _ = fresh.last_bias

    def test_plaintext_scoring_mode(self, small_federation):
        agent = KeyAgent(key_size=128, rng=random.Random(4))
        selector = SecureDubheSelector(small_federation, settled_config(), seed=0,
                                       agent=agent, score_securely=False)
        selected = selector.select(0)
        assert len(selected) == 6


class TestPackedSelectorPath:
    """The selector's packed ciphertexts change nothing but the traffic."""

    def test_packed_population_bit_identical(self, small_federation):
        config = settled_config(key_size=256)
        selected = [0, 4, 7, 11, 19, 23]
        populations = [
            SecureDistributionAggregation(
                config, agent=KeyAgent(key_size=256, rng=random.Random(40)),
                packed=packed,
            ).population(small_federation, selected)
            for packed in (False, True)
        ]
        assert np.array_equal(populations[0], populations[1])
        np.testing.assert_allclose(populations[1],
                                   small_federation[selected].mean(axis=0), atol=1e-9)

    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selections_equal_plaintext(self, small_federation, seed, h):
        config = settled_config(h=h)
        secure = SecureDubheSelector(small_federation, config, seed=seed,
                                     agent=KeyAgent(key_size=128,
                                                    rng=random.Random(50 + seed)))
        plaintext = DubheSelector(small_federation, config, seed=seed)
        assert np.array_equal(secure.overall_registry, plaintext.overall_registry)
        assert np.array_equal(secure.probabilities, plaintext.probabilities)
        for r in range(4):
            assert secure.select(r) == plaintext.select(r)
            assert secure.last_result.scores == pytest.approx(
                plaintext.last_result.scores, abs=1e-12)

    def test_registrations_materialise_lazily(self, small_federation, secure_selector):
        plaintext = DubheSelector(small_federation, settled_config(), seed=0)
        assert [r.index for r in secure_selector.registrations] == \
            [r.index for r in plaintext.registrations]

    def test_headroom_overrun_raises(self, small_federation):
        k = 4
        keypair = generate_keypair(128, rng=random.Random(60))
        server = SecureAggregationServer(keypair.public_key)
        for client_id in range(k):
            server.receive(SecureClient(client_id, small_federation[client_id],
                                        packed=True, max_weight=k)
                           .encrypted_distribution(keypair.public_key))
        extra = SecureClient(k, small_federation[k], packed=True, max_weight=k)
        with pytest.raises(OverflowError):
            server.receive(extra.encrypted_distribution(keypair.public_key))
