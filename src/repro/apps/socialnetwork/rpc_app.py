"""RPC wiring of the social network: 36 handlers across 14 servers.

``compose_post`` exercises the real fan-out: one user action traverses
ten services.  The scattering benchmark measures both the static count
(handlers per service) and the dynamic one (services touched per
request).
"""

from dataclasses import dataclass, field

from repro import config
from repro.apps.socialnetwork.services import (
    COMPOSE_POST_CALL_GRAPH,
    SERVICE_METHODS,
    build_idls,
)
from repro.core import create_environment
from repro.rpc import RPCChannel, RPCServer
from repro.simnet import Environment, FixedLatency, Network


@dataclass
class SocialNetworkRpcApp:
    env: Environment
    network: Network
    servers: dict
    channels: dict = field(init=False, default_factory=dict)
    calls_traced: list = field(init=False, default_factory=list)

    @classmethod
    def build(cls, env=None, mode=None, shape_latency=None):
        """``mode`` / ``shape_latency`` as in ``RetailKnactorApp.build``."""
        if env is None:
            env = create_environment(mode if mode is not None else "sim")
        if shape_latency is None:
            shape_latency = env.backend == "sim"
        hop = config.NETWORK_HOP if shape_latency else FixedLatency(0.0)
        network = Network(env, default_latency=hop)
        idls = build_idls()
        servers = {}
        app = cls(env=env, network=network, servers=servers)

        for service, methods in SERVICE_METHODS.items():
            server = RPCServer(env, network, location=service.lower())
            servers[service] = server
            for method in methods:
                server.register(
                    service, method, app._make_handler(service, method),
                    idl=idls[service],
                )
        return app

    def _make_handler(self, service, method):
        def handler(request):
            self.calls_traced.append((service, method))
            result = f"{service}.{method}:ok"
            # Fan out along the compose-post call graph.
            targets = COMPOSE_POST_CALL_GRAPH.get(service, [])
            if method.startswith(("Compose", "Upload", "Fanout")) and targets:
                for target_service, target_method in targets:
                    yield self.channel(service, target_service).call(
                        target_service, target_method,
                        {"req_id": request.get("req_id", ""), "payload": ""},
                    )
            else:
                yield self.env.timeout(0.0002)  # local work
            return {"req_id": request.get("req_id", ""), "result": result}

        return handler

    def channel(self, client_service, target_service):
        key = (client_service, target_service)
        if key not in self.channels:
            self.channels[key] = RPCChannel(
                self.env,
                self.servers[target_service],
                client_location=client_service.lower(),
            )
        return self.channels[key]

    def compose_post(self, req_id="r1"):
        """One user action: compose a post (returns a process event)."""
        channel = self.channel("Frontend", "ComposePostService")
        return channel.call(
            "ComposePostService", "UploadText", {"req_id": req_id, "payload": "hi"}
        )

    # -- scattering metrics ------------------------------------------------------

    def handler_count(self):
        return sum(len(s._methods) for s in self.servers.values())

    def service_count(self):
        return len(self.servers)

    def services_touched_by_compose(self):
        """Dynamic scattering: distinct services in one compose-post."""
        before = len(self.calls_traced)
        self.env.run(until=self.compose_post())
        touched = {service for service, _m in self.calls_traced[before:]}
        return touched
