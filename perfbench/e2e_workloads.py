"""The four whole-round workloads and the federation builder behind them.

Every workload is a complete Dubhe federation driven through
:class:`repro.api.Session`: registration/selection, data materialisation,
local training of the bench MLP (64 -> 32 -> 10, B = 8, E = 1), FedAvg
aggregation and evaluation on a 500-sample uniform test set.

The federation itself — every client's label counts and the image task's
class prototypes — is part of the workload, like N and K: it is drawn once
from :data:`FEDERATION_SEED`.  Every random draw of a run (the clients' and
the test set's samples, the model initialisation, the selector's RNG)
derives from the run's seed, so the same seed gives the same run.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro import FederatedConfig, LocalTrainingConfig, Session, quick_federation
from repro.core import DubheConfig, DubheSelector
from repro.core.config import TransportConfig
from repro.core.secure_selector import SecureDubheSelector
from repro.data.synthetic import make_uniform_test_set
from repro.nn.models import MLP
from repro.transport import TransportClient

#: seed of the label counts and class prototypes (fixed per workload)
FEDERATION_SEED = 2021
#: default samples per virtual client (the FedVC N_VC convention of bench_sim.py)
SAMPLES_PER_CLIENT = 64
#: Adam step size of local training
LEARNING_RATE = 1e-2
#: test-set size per class (10 classes -> 500 samples)
TEST_SAMPLES_PER_CLASS = 50
#: group-1 thresholds over the reference set G = {1, 2, 10}
THRESHOLDS = {1: 0.7, 2: 0.1, 10: 0.0}
#: how long setup waits for socket peers to register, in seconds
CONNECT_DEADLINE_S = 30.0


@dataclass(frozen=True)
class Workload:
    """One named federation shape plus how long to run it.

    ``rounds`` timed rounds follow ``warmup`` untimed ones; ``setups`` is how
    many times an untraced run builds the federation to take the median
    set-up time.  ``rounds`` is the count for a 10-second run and scales
    linearly with ``--seconds``.  The timed rounds are split over
    ``federations`` of the builds: a socket federation's round time depends
    on the build (its threads and connections) by up to ~20%, so
    socket-loopback pools its rounds over five builds.
    """

    name: str
    n_clients: int
    participants: int
    tries: int
    secure: bool = False
    socket: bool = False
    ledger: bool = False
    samples_per_client: int = SAMPLES_PER_CLIENT
    warmup: int = 2
    rounds: int = 100
    setups: int = 3
    federations: int = 1

    def timed_rounds(self, seconds: float) -> int:
        """Timed rounds for a run of *seconds* (at least 20: a p50 tail)."""
        return max(20, int(round(self.rounds * seconds / 10.0)))


#: the benchmark's workloads; why each exists is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("warm-cohort",
             n_clients=256, participants=64, tries=1, ledger=True,
             warmup=60, rounds=260, setups=9),
    Workload("cold-population",
             n_clients=100_000, participants=128, tries=5,
             warmup=3, rounds=23),
    Workload("secure-dubhe",
             n_clients=256, participants=32, tries=4, secure=True,
             warmup=2, rounds=15, setups=2),
    Workload("socket-loopback",
             n_clients=2, participants=2, tries=1, socket=True,
             samples_per_client=32, warmup=10, rounds=1000, setups=5, federations=5),
)}


def components(workload: Workload, seed: int, secure: Optional[bool] = None) -> dict:
    """The five federation components of *workload* for the run seed *seed*.

    *secure* overrides the workload's selector kind (the secure workload's
    output check rebuilds the same federation with the plaintext selector).
    """
    partition, generator = quick_federation(
        n_clients=workload.n_clients, samples_per_client=workload.samples_per_client,
        seed=FEDERATION_SEED)
    distributions = partition.client_distributions()
    # the default 256-bit Paillier key for the secure selector
    config = DubheConfig(num_classes=10, participants_per_round=workload.participants,
                         tentative_selections=workload.tries,
                         thresholds=THRESHOLDS, seed=seed)
    use_secure = workload.secure if secure is None else secure
    selector_cls = SecureDubheSelector if use_secure else DubheSelector
    return dict(
        partition=partition,
        generator=generator,
        model_factory=lambda: MLP(64, 10, hidden=(32,), seed=seed),
        selector=selector_cls(distributions, config, seed=seed),
        test_set=make_uniform_test_set(
            generator, samples_per_class=TEST_SAMPLES_PER_CLASS, seed=seed + 1),
    )


def federated_config(workload: Workload, seed: int, rounds: int,
                     executor_mode: str = "vectorized") -> FederatedConfig:
    """The run configuration: B = 8, E = 1, evaluation every round.

    Adam at 1e-2 (the paper's group 1 uses 1e-4) so that even the shortest
    run ends at a settled accuracy.
    """
    return FederatedConfig(rounds=rounds, eval_every=1, seed=seed,
                           executor_mode=executor_mode,
                           local=LocalTrainingConfig(batch_size=8, local_epochs=1,
                                                     learning_rate=LEARNING_RATE))


class Federation:
    """A built, ready-to-run federation and everything it owns.

    For the socket workload it also owns an identically seeded in-process
    donor simulation (the clients' side of the federation) and one
    :class:`TransportClient` thread per client, all connected when the
    constructor returns.  :meth:`close` stops and joins every one of them.
    """

    def __init__(self, workload: Workload, seed: int, rounds: int, workdir: str):
        self.workload = workload
        self.ledger_path: Optional[str] = None
        self._peers: list = []
        self._threads: list = []
        self._donor: Optional[Session] = None
        session = Session(federated_config(workload, seed, rounds))
        session.with_federation(**components(workload, seed))
        if workload.ledger:
            self.ledger_path = os.path.join(workdir, f"ledger-{time.monotonic_ns()}.db")
            session.with_ledger(self.ledger_path, run_name=workload.name)
        if workload.socket:
            session.with_transport(TransportConfig(kind="socket"))
        self.session = session
        try:
            self.simulation = session.build()
            if workload.socket:
                self._connect_peers(seed, rounds)
        except BaseException:
            self.close()
            raise

    def _connect_peers(self, seed: int, rounds: int) -> None:
        donor = Session(federated_config(self.workload, seed, rounds))
        donor.with_federation(**components(self.workload, seed))
        self._donor = donor
        donor_sim = donor.build()
        host, port = self.simulation.transport.start()
        for client_id in range(self.workload.n_clients):
            peer = TransportClient(donor_sim.client(client_id),
                                   donor_sim.server.new_client_model, host, port)
            thread = threading.Thread(target=peer.run, daemon=True,
                                      name=f"perfbench-peer-{client_id}")
            thread.start()
            self._peers.append(peer)
            self._threads.append(thread)
        deadline = time.monotonic() + CONNECT_DEADLINE_S
        while any(peer.position is None for peer in self._peers):
            if time.monotonic() > deadline:
                raise RuntimeError("socket peers did not register in time")
            if not all(thread.is_alive() for thread in self._threads):
                raise RuntimeError("a socket peer exited before registering")
            time.sleep(0.001)

    def ledger_bytes(self) -> int:
        """Current on-disk size of the ledger (database plus write-ahead log)."""
        if self.ledger_path is None:
            return 0
        return sum(os.path.getsize(path)
                   for path in (self.ledger_path, self.ledger_path + "-wal")
                   if os.path.exists(path))

    def close(self) -> None:
        """Close the session, stop the peers and wait for their threads."""
        try:
            self.session.close()
        finally:
            for thread in self._threads:
                thread.join(timeout=CONNECT_DEADLINE_S)
            if self._donor is not None:
                self._donor.close()
        alive = [thread.name for thread in self._threads if thread.is_alive()]
        if alive:
            raise RuntimeError(f"peer threads still running after close: {alive}")
