"""Distributed serving fabric: remote shards, CAS bundles, net store.

The fabric turns a set of ``repro serve`` daemons into one serving
fleet: :func:`stream_fabric` fans a corpus out across peers through
the existing shard supervisor, one relay thread of the coordinator per
remote shard (peer loss requeues, never aborts),
:func:`provision_peers` ships a bundle archive to every peer at most
once (content-addressed by SHA-256), and :class:`NetworkStore` lets
the whole fleet share a single warm :class:`~repro.serve.store.
SuggestionStore` over the wire.
"""

from repro.fabric.cas import (
    PeerBundle,
    archive_for,
    ensure_bundle,
    provision_peers,
)
from repro.fabric.netstore import NetworkStore
from repro.fabric.remote import stream_fabric

__all__ = [
    "NetworkStore",
    "PeerBundle",
    "archive_for",
    "ensure_bundle",
    "provision_peers",
    "stream_fabric",
]
