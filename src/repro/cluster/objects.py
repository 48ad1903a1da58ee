"""Cluster API objects: images, pods, deployments, nodes."""

import itertools
from dataclasses import dataclass, field

from repro.errors import ClusterError


@dataclass(frozen=True)
class Image:
    """A container image reference."""

    name: str
    tag: str
    size_mb: float = 200.0

    @property
    def ref(self):
        return f"{self.name}:{self.tag}"


class PodPhase:
    PENDING = "Pending"
    RUNNING = "Running"
    TERMINATING = "Terminating"
    TERMINATED = "Terminated"


_pod_ids = itertools.count(1)


@dataclass
class Pod:
    """One replica of a deployment."""

    deployment: str
    image: Image
    node: str = None
    phase: str = PodPhase.PENDING
    name: str = field(default="")
    started_at: float = None

    def __post_init__(self):
        if not self.name:
            self.name = f"{self.deployment}-{next(_pod_ids):04d}"

    @property
    def ready(self):
        return self.phase == PodPhase.RUNNING


@dataclass
class Deployment:
    """Desired state: image + replica count; owns its pods."""

    name: str
    image: Image
    replicas: int = 2
    pods: list = field(init=False, default_factory=list)
    generation: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ClusterError(f"deployment {self.name}: replicas must be >= 1")

    @property
    def ready_pods(self):
        return [p for p in self.pods if p.ready]

    @property
    def available(self):
        """True when at least one replica serves traffic."""
        return bool(self.ready_pods)

    def pods_running_image(self, image):
        return [p for p in self.pods if p.ready and p.image.ref == image.ref]


@dataclass
class Node:
    """A worker node with a pod capacity."""

    name: str
    capacity: int = 16
    pods: list = field(init=False, default_factory=list)

    @property
    def free(self):
        return self.capacity - len(self.pods)
