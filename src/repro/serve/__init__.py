"""Distributed KV serving layer: a socket front-end for the cascade.

The ROADMAP's "millions of users" north star needs more than a
well-behaved single caller: this package puts a network-facing (unix- or
TCP-socket) server in front of a
:class:`~repro.multigpu.distributed_table.DistributedHashTable`, speaking
a length-prefixed binary protocol (:mod:`repro.serve.protocol`) with
batched insert/query/erase frames.  The server coalesces concurrent
client requests into whole cascades under a batch window + admission
budget (:mod:`repro.serve.server`); every request, hot key or cold, is
answered by the distributed cascade, as in WarpDrive, which has no
front-end cache.  Clients (:mod:`repro.serve.client`) know the server's
partition policy and pre-split batches by shard.

``repro serve`` / ``repro client`` expose the pair on the CLI;
``tests/serve/`` gates it; ``docs/serving.md`` documents the frame
formats, the coalescer, and the backpressure semantics.
"""

from .client import KVClient
from .protocol import (
    ErrorCode,
    Frame,
    FrameType,
    MAX_BATCH,
    ProtocolError,
    ServeError,
    decode_erase,
    decode_error,
    decode_header,
    decode_insert,
    decode_query,
    encode_erase,
    encode_error,
    encode_frame,
    encode_insert,
    encode_query,
    read_frame,
    write_frame,
)
from .server import KVServer, ServerStats

__all__ = [
    "KVClient",
    "KVServer",
    "ServerStats",
    "Frame",
    "FrameType",
    "ErrorCode",
    "ProtocolError",
    "ServeError",
    "MAX_BATCH",
    "encode_frame",
    "decode_header",
    "encode_insert",
    "decode_insert",
    "encode_query",
    "decode_query",
    "encode_erase",
    "decode_erase",
    "encode_error",
    "decode_error",
    "read_frame",
    "write_frame",
]
