"""Messaging substrates: log-based broker, RPC, idempotency, outbox.

Implements the communication styles of paper §3.2:

- :mod:`repro.messaging.rpc` — synchronous request/response (REST/gRPC
  stand-in) with timeouts and retries; retry-after-timeout is exactly the
  duplicate source the paper describes, and idempotency keys are the fix.
- :mod:`repro.messaging.broker` — a partitioned, offset-based persistent
  log (Kafka stand-in) with consumer groups and ack-driven redelivery,
  giving at-most-once or at-least-once delivery depending on when offsets
  are committed.
- :mod:`repro.messaging.idempotency` — receiver-side deduplication, the
  application half of exactly-once processing.
- :mod:`repro.messaging.outbox` — the transactional outbox pattern: state
  change and message publication made atomic through the database.
"""

from repro.messaging.broker import Broker, Consumer, Record
from repro.messaging.idempotency import Deduplicator, IdempotencyStore
from repro.messaging.outbox import OutboxRelay, TransactionalOutbox
from repro.messaging.rpc import (
    RpcCall,
    RpcClient,
    RpcError,
    RpcOutcome,
    RpcRejected,
    RpcRemoteError,
    RpcServer,
    RpcTimeout,
)

__all__ = [
    "Broker",
    "Consumer",
    "Deduplicator",
    "IdempotencyStore",
    "OutboxRelay",
    "Record",
    "RpcCall",
    "RpcClient",
    "RpcError",
    "RpcOutcome",
    "RpcRejected",
    "RpcRemoteError",
    "RpcServer",
    "RpcTimeout",
    "TransactionalOutbox",
]
