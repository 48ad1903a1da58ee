"""The Log Data Exchange.

Hosts append-only data stores ("keeps states as structured and
semi-structured data as append-only logs and exposes data ingestion and
analytics APIs", paper §3.2) on the Zed-lake-like backend.  In the smart
home app (Fig. 4) each knactor has a Log store holding sensor readings:
Motion's ``{triggered}``, Lamp's ``{energy}``, House's ``{kwh, motion}``.

Access model: the owner may load anything its schema admits; an
integrator's standard grant may load only the fields annotated
``+kr: ingest`` (plus query/watch).  Log stores are semi-structured, so
validation checks declared fields' types but permits unknown fields.
"""

from repro.errors import ConfigurationError
from repro.exchange.base import DataExchange, StoreHandle
from repro.schema.validation import validate_state
from repro.store.loglake import LogLake, LogLakeClient


class LogDE(DataExchange):
    """Log exchange over the lake backend."""

    def __init__(self, env, backend, name="log-de", retry_policy=None):
        if not isinstance(backend, LogLake):
            raise ConfigurationError(
                f"LogDE needs a LogLake backend, got {type(backend).__name__}"
            )
        super().__init__(env, backend, name, retry_policy=retry_policy)

    def _on_hosted(self, hosted):
        # Control-plane setup: create the backing pool directly.
        self.backend.op_create_pool(pool=hosted.name)

    def _role_policy(self, role, store_name):
        """Integrator: query/watch + load scoped to ``+kr: ingest``.
        Reader: query/watch only."""
        if role == "integrator":
            schema = self.schema_for(store_name)
            ingest = tuple(f.path for f in schema.ingest_fields())
            return (
                {"query", "watch", "load"},
                ingest,
                "integrator grant (ingest fields only)",
            )
        if role == "reader":
            return {"query", "watch"}, (), "read-only grant"
        return super()._role_policy(role, store_name)

    def _make_handle(self, hosted, principal, location, retry_policy):
        policy = retry_policy if retry_policy is not None else self.retry_policy
        client = LogLakeClient(self.backend, location, retry_policy=policy)
        return LogStoreHandle(self, hosted, principal, client)


class LogStoreHandle(StoreHandle):
    """A principal's access handle to one hosted Log store."""

    # -- operations -------------------------------------------------------------

    def load(self, records):
        """Append records (validated; field scope enforced for grants)."""
        touched = sorted({key for record in records for key in record})
        self._check("load", fields=touched)
        for record in records:
            validate_state(
                record, self.schema, partial=True, allow_unknown=True
            ).raise_if_invalid()
        return self.client.load(self.hosted.name, records)

    def query(self, ops=(), since_seq=None, until_seq=None,
              include_watermark=False):
        """Run a pushed-down pipeline over the pool (optional seq range).

        ``include_watermark=True`` (the federation scan hook) returns
        ``{"records", "watermark"}`` so the caller can stamp the exact
        sequence point its snapshot covers and resume from it.
        """
        self._check("query")
        return self.client.query(
            self.hosted.name, ops=ops, since_seq=since_seq,
            until_seq=until_seq, include_watermark=include_watermark,
        )

    def stats(self):
        self._check("query")
        return self.client.stats(self.hosted.name)

    def watch(self, handler, *, on_close=None, credits=None):
        """Subscribe to appended batches.

        ``on_close`` fires when the subscription breaks (failover, a
        full paused buffer); a :class:`~repro.store.follow.Follower`
        then re-subscribes and runs the caller's catch-up from its
        cursor.  ``credits`` overrides the handle's credit window for
        this stream (Log streams queue contiguously while paused;
        batches are never coalesced away).
        """
        self._check("watch")
        return self.client.watch(
            handler, key_prefix=self.hosted.name, on_close=on_close,
            credits=credits,
        )
