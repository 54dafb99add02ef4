"""Storage substrates: versioned KV, LSM-tree, WAL, object store, cache.

These are the state backends the paper's runtimes choose between (§3.3):
*embedded* state (the LSM store, standing in for RocksDB), *external* state
(the KV/database servers), *disaggregated* checkpoints (the object store,
standing in for S3), and look-aside *caches* (standing in for Redis).
Tiered hot/cold state (§3.3) is described in DESIGN.md, not modelled.
"""

from repro.storage.cache import LruCache
from repro.storage.kv import KeyValueStore, Versioned
from repro.storage.lsm import LsmStore
from repro.storage.object_store import ObjectStore, ObjectStoreServer
from repro.storage.wal import LogRecord, WriteAheadLog

__all__ = [
    "KeyValueStore",
    "LogRecord",
    "LruCache",
    "LsmStore",
    "ObjectStore",
    "ObjectStoreServer",
    "Versioned",
    "WriteAheadLog",
]
