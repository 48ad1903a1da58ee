"""Elastic shard fleets: the cluster plane drives the data plane.

The paper's data-centric composition keeps compute and state decoupled;
this module closes the loop for the *state* side.  A :class:`ShardFleet`
runs a :class:`~repro.store.sharded.ShardedStore`'s shards as pods of a
cluster :class:`~repro.cluster.objects.Deployment`, lets a
:class:`~repro.cluster.HorizontalAutoscaler` scale the pod count from
live load signals (worker-queue depth plus the flow plane's AIMD
congestion penalty -- the same signals the obs plane scrapes), and
follows the ready-pod count with online ring resharding
(:meth:`ShardedStore.reshard`): the autoscaler decides *how many*, the
reshard engine moves the key ranges, and watch streams never notice.

Scaling bounds come from the store's
:class:`~repro.store.ring.Topology` (``min_shards``/``max_shards`` and
the :class:`~repro.store.ring.AutoscalePolicy`), so the spec object that
shapes the ring also shapes the fleet.
"""

from repro.cluster.autoscaler import HorizontalAutoscaler
from repro.cluster.objects import Image
from repro.cluster.rollout import rolling_update
from repro.errors import ConfigurationError
from repro.store.ring import AutoscalePolicy


class ShardFleet:
    """Runs one sharded store's shards as an autoscaled deployment."""

    def __init__(self, cluster, store, metric=None):
        if store.topology is None or store.shard_factory is None:
            raise ConfigurationError(
                f"store {store.name!r} needs a Topology "
                "and a shard_factory to run as a fleet (elastic growth "
                "must be able to mint shard servers)"
            )
        self.cluster = cluster
        self.store = store
        self.env = store.env
        self.topology = store.topology
        self.policy = self.topology.autoscale or AutoscalePolicy()
        self.deployment_name = f"{store.name}-shards"
        self.image = Image(store.name, "shard-v1", size_mb=64.0)
        cluster.create_deployment(
            self.deployment_name, self.image, replicas=store.shard_count
        )
        self.autoscaler = HorizontalAutoscaler(
            cluster=cluster,
            deployment_name=self.deployment_name,
            metric=metric or self.load,
            target_load_per_replica=self.policy.target_queue_depth,
            min_replicas=self.topology.min_shards,
            max_replicas=self.topology.effective_max_shards,
            interval=self.policy.interval,
            cooldown=self.policy.cooldown,
        )
        self.reshards_driven = 0
        self._running = False

    # -- load signal ---------------------------------------------------------

    def load(self):
        """Fleet-wide load: queued ops + AIMD congestion penalty.

        Each shard contributes its worker-queue depth; a shard whose
        admission controller has squeezed a priority class to scale
        ``s`` contributes a further ``(1 - s) * target`` -- a fully
        throttled class weighs like one shard's worth of target load,
        so sustained AIMD pressure forces a scale-up even when sheds
        keep the visible queues short.
        """
        total = 0.0
        for shard in self.store.shards:
            total += shard._worker_pool.queued
            admission = shard.admission
            if admission is not None:
                for entry in admission.stats()["classes"].values():
                    total += ((1.0 - entry["scale"])
                              * self.policy.target_queue_depth)
        return total

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Start the autoscaler and the pod-count -> ring sync process."""
        if self._running:
            return None
        self._running = True
        self.autoscaler.start()
        return self.env.process(self._sync())

    def stop(self):
        self._running = False
        self.autoscaler.stop()

    def _sync(self):
        """Follow the deployment's ready-pod count with the ring.

        The autoscaler moves pods; this process reshards the store to
        match once the pods are actually ready (scale-up waits for image
        pull + startup, mirroring how real state stores only take
        ownership after their replica is serving).  One transition at a
        time: a reshard in flight is left to finish before the next
        decision is acted on.
        """
        while self._running:
            yield self.env.timeout(self.policy.interval)
            if not self._running:
                return
            deployment = self.cluster.deployment(self.deployment_name)
            ready = len(deployment.ready_pods)
            lo, hi = self.topology.min_shards, self.topology.effective_max_shards
            desired = max(lo, min(hi, ready))
            if desired == self.store.shard_count or ready < 1:
                continue
            if self.store.resharder.active:
                continue
            self.reshards_driven += 1
            yield self.store.reshard(desired)

    # -- rollouts ------------------------------------------------------------

    def rollout(self, image):
        """Rolling-update the shard pods to a new image.

        Pure cluster-plane motion: the ring (and so key ownership) is
        untouched; the deployment surges one pod at a time like any
        other rolling update.  Returns the rollout's process event.
        """
        self.image = image
        return rolling_update(self.cluster, self.deployment_name, image)

    def stats(self):
        deployment = self.cluster.deployment(self.deployment_name)
        return {
            "ready_pods": len(deployment.ready_pods),
            "shards": self.store.shard_count,
            "reshards_driven": self.reshards_driven,
            "scaling_events": len(self.autoscaler.events),
            "load": self.load(),
        }
