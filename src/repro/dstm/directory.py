"""Directory shards: the cache-coherence protocol's location service.

Every object has a *home* node (``home_node(oid, N)``).  The home's
directory shard stores the authoritative ``(owner, registered_version)``
pair.  This satisfies both CC-protocol properties the paper requires
(§II): a request reaches a node holding a valid copy in finite time (one
lookup plus at most a short forwarding chain while a migration is in
flight), and at any time there is exactly one writable copy (ownership
changes are serialised through RETRIEVE grants and hand-offs; the
directory merely tracks them).

The shard also answers version queries (``READ_VALIDATE``): TFA's read-set
validation compares the version a transaction read against the home's
registered committed version.  Commit-time *global registration of object
ownership* (the paper's phrase for why validation takes long) is the
``DIR_UPDATE`` round trip updating this registry.

Failure recovery (``repro.faults``): when built with a ``lease_duration``
the shard additionally keeps, per entry, a *lease* (renewed by every
registration, heartbeat and commit publish from the registered owner) and
a *snapshot* of the last committed ``(version, value)`` it has seen.  A
lookup that finds an expired lease **reclaims** the entry: the home
re-hosts the object from its snapshot under a fenced (bumped) version, so
an object owned by a crashed node becomes retrievable again, and any
stale copy or straggler commit from the old owner is rejected by the
version fence in ``_on_update``.  With ``lease_duration=None`` (the
default) none of this machinery runs and behaviour is identical to the
fault-free build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.dstm.objects import ObjectState, VersionedObject
from repro.net.message import Message
from repro.net.node import Node
from repro.rpc import serve
from repro.sim import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import MetricsCollector
    from repro.dstm.proxy import TMProxy

__all__ = ["DirEntry", "DirectoryShard"]

_UNSET = object()


@dataclass
class DirEntry:
    """One object's authoritative record at its home."""

    owner: int
    version: int
    #: txid of the commit attempt that registered this version (None for
    #: bootstrap/transfer/reclaim registrations); a withdraw must match it
    registered_by: Optional[str] = None
    #: txids whose registration was withdrawn here; a late *duplicate* of
    #: the original registration must not resurrect it (it would wedge
    #: the registry ahead of every committed copy).  Bounded ring.
    withdrawn: List[str] = field(default_factory=list)
    #: local-clock instant the ownership lease runs out (inf = no lease)
    lease_expires_at: float = math.inf
    #: last *committed* (version, value) the home has seen; the reclaim
    #: source.  Provisional commit registrations never touch it.
    has_snapshot: bool = False
    snapshot_version: int = -1
    snapshot_value: Any = None


class DirectoryShard:
    """The directory state hosted at one node."""

    def __init__(
        self,
        node: Node,
        lease_duration: Optional[float] = None,
        reclaim_grace: float = 1.5,
        metrics: Optional["MetricsCollector"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node = node
        self.lease_duration = lease_duration
        self.reclaim_grace = float(reclaim_grace)
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else Tracer()
        #: the co-located TM proxy; set by the cluster after construction
        #: (the proxy is built later).  Needed to re-host reclaimed objects.
        self.proxy: Optional["TMProxy"] = None
        #: runtime invariant sanitizer (repro.check); set by the cluster
        #: when CheckConfig.sanitize is on, else every hook stays a
        #: one-guard no-op
        self.sanitizer = None
        self._entries: Dict[str, DirEntry] = {}
        # The shard is the server side of the directory endpoints: each
        # handler returns the reply payload; repro.rpc.serve binds it to
        # the endpoint's request type and sends the typed reply.
        serve(node, "dir_lookup", self._on_lookup)
        serve(node, "dir_update", self._on_update)
        serve(node, "read_validate", self._on_validate)
        serve(node, "commit_publish", self._on_commit_publish)
        serve(node, "lease_renew", self._on_lease_renew)
        serve(node, "orphan_return", self._on_orphan_return)

    # -- local (home==here) API ----------------------------------------------------

    def register(
        self,
        oid: str,
        owner: int,
        version: Optional[int] = None,
        value: Any = _UNSET,
        value_version: Optional[int] = None,
        registered_by: Optional[str] = None,
    ) -> None:
        """Create or update an entry.  ``version=None`` keeps the old one.

        ``value`` (with ``value_version``) records a committed snapshot;
        omitted, the snapshot is untouched.  ``registered_by`` names the
        commit attempt behind this registration (withdraw matching).
        """
        entry = self._entries.get(oid)
        if self.sanitizer is not None:
            self.sanitizer.note_register(
                self.node.node_id, oid,
                int(version) if version is not None else None,
                now=self.node.env.now,
            )
        if entry is None:
            entry = DirEntry(owner=owner, version=version if version is not None else 0)
            self._entries[oid] = entry
        else:
            entry.owner = owner
            if version is not None:
                entry.version = int(version)
        entry.registered_by = registered_by
        if value is not _UNSET:
            self._note_snapshot(
                entry,
                value_version if value_version is not None else entry.version,
                value,
            )
        self._renew(entry)

    def lookup(self, oid: str) -> Optional[Tuple[int, int]]:
        # Lazy lease enforcement: a read must never hand out an owner
        # whose lease has already lapsed just because no DIR_LOOKUP has
        # fired the reclaim yet (no-op when leases are off).
        self._maybe_reclaim(oid)
        entry = self._entries.get(oid)
        return (entry.owner, entry.version) if entry is not None else None

    def registered_version(self, oid: str) -> Optional[int]:
        entry = self._entries.get(oid)
        return entry.version if entry is not None else None

    def owner_of(self, oid: str) -> Optional[int]:
        self._maybe_reclaim(oid)
        entry = self._entries.get(oid)
        return entry.owner if entry is not None else None

    def snapshot_of(self, oid: str) -> Optional[Tuple[int, Any]]:
        """The home's committed ``(version, value)`` snapshot, if any."""
        entry = self._entries.get(oid)
        if entry is None or not entry.has_snapshot:
            return None
        return (entry.snapshot_version, entry.snapshot_value)

    def __contains__(self, oid: str) -> bool:
        return oid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- lease helpers --------------------------------------------------------------

    def _renew(self, entry: DirEntry) -> None:
        if self.lease_duration is not None:
            entry.lease_expires_at = self.node.now_local + self.lease_duration

    @staticmethod
    def _note_snapshot(entry: DirEntry, version: Optional[int], value: Any) -> None:
        if version is None:
            return
        if not entry.has_snapshot or int(version) >= entry.snapshot_version:
            entry.has_snapshot = True
            entry.snapshot_version = int(version)
            entry.snapshot_value = value

    def _maybe_reclaim(self, oid: str) -> None:
        """Reclaim an entry whose owner's lease has lapsed (lookup path).

        The home re-hosts the object from its committed snapshot under a
        bumped version.  The bump fences the failed owner: its stale copy
        fails every READ_VALIDATE, its straggler commit registration is
        rejected by ``_on_update``'s version fence, and its post-restart
        heartbeat learns the copy is stale and drops it.  When the
        registered version is ahead of the snapshot a commit was in
        flight at the crash; since registration precedes installation the
        snapshot is still the full committed state, but we wait an extra
        ``reclaim_grace`` to let a live committer's retries land first.
        """
        if self.lease_duration is None:
            return
        entry = self._entries.get(oid)
        if entry is None:
            return
        if entry.owner == self.node.node_id:
            return  # we host it ourselves; no lease to enforce
        now = self.node.now_local
        if now < entry.lease_expires_at:
            return
        if not entry.has_snapshot:
            return  # nothing to restore from; keep waiting for the owner
        if (
            entry.snapshot_version < entry.version
            and now < entry.lease_expires_at + self.reclaim_grace
        ):
            return
        local = self.proxy.store.get(oid) if self.proxy is not None else None
        if local is not None and local.state is not ObjectState.FREE:
            # Our own proxy holds a copy mid-validation: a local commit
            # is live and will either register (healing the entry) or
            # release.  Reclaiming under it would fork the object.
            return
        old_owner = entry.owner
        new_version = max(entry.version, entry.snapshot_version) + 1
        if self.sanitizer is not None:
            self.sanitizer.note_reclaim(
                self.node.node_id, oid, now,
                lease_expires_at=entry.lease_expires_at,
                has_snapshot=entry.has_snapshot,
                old_version=entry.version,
                new_version=new_version,
            )
        entry.owner = self.node.node_id
        entry.version = new_version
        entry.registered_by = None
        entry.snapshot_version = new_version
        # Home-hosted entries need no lease until ownership migrates
        # again (the transfer registration re-arms it).
        entry.lease_expires_at = math.inf
        if self.proxy is not None:
            # Re-host from the snapshot.  A FREE copy already here is a
            # stale leftover (we would not be reclaiming if we were the
            # registered owner): refresh it in place, or readers keep
            # serving a version the registry has moved past.
            self.proxy.store[oid] = VersionedObject(
                oid, entry.snapshot_value, new_version
            )
            self.proxy.owner_hints[oid] = self.node.node_id
        if self.metrics is not None:
            self.metrics.lease_reclaims.increment()
        if self.tracer.wants("fault.reclaim"):
            self.tracer.emit(
                self.node.env.now, "fault.reclaim", oid,
                old_owner=old_owner, version=new_version,
            )

    # -- message handlers ---------------------------------------------------------------

    def _on_lookup(self, msg: Message) -> Dict[str, Any]:
        oid = msg.payload["oid"]
        self._maybe_reclaim(oid)
        entry = self._entries.get(oid)
        return {
            "oid": oid,
            "known": entry is not None,
            "owner": entry.owner if entry else None,
            "version": entry.version if entry else None,
        }

    def _on_update(self, msg: Message) -> Dict[str, Any]:
        p = msg.payload
        oid = p["oid"]
        owner = p["owner"]
        version = p.get("version")
        entry = self._entries.get(oid)

        if p.get("withdraw"):
            # A failed commit rolling back its provisional registration;
            # honoured only when the registration in place is *the one
            # being withdrawn*: same registered owner, exactly one version
            # ahead of the rollback target, and (when given) the same
            # commit-attempt txid.  Anything else — a reclaim or competing
            # commit superseded it, or this is a duplicated/late copy of a
            # withdraw that already applied — must not roll the registry
            # back under a newer registration.
            txid = p.get("txid")
            if (
                entry is not None
                and entry.owner == owner
                and version is not None
                and entry.version == int(version) + 1
                and (txid is None or entry.registered_by == txid)
            ):
                if self.sanitizer is not None:
                    self.sanitizer.note_withdraw(
                        self.node.node_id, oid, entry.version, int(version),
                        txid, now=self.node.env.now,
                    )
                entry.version = int(version)
                entry.registered_by = None
                if txid is not None:
                    # Tombstone the attempt: a late duplicate of its
                    # registration must stay dead.
                    entry.withdrawn.append(txid)
                    del entry.withdrawn[:-4]
                self._renew(entry)
            return {"oid": oid, "ok": True}

        if self.lease_duration is not None and version is None and entry is not None:
            # Ownership-transfer registration (no version bump).  Its
            # committed copy version rides along as ``value_version``;
            # if the registry has already moved past it (lease reclaim,
            # competing commit) this transfer carries a resurrected
            # stale copy and must not take the entry over.
            vv = p.get("value_version")
            if vv is not None and int(vv) < entry.version:
                return {
                    "oid": oid, "ok": False,
                    "registered_owner": entry.owner,
                    "registered_version": entry.version,
                }

        if self.lease_duration is not None and version is not None and entry is not None:
            # Version fence: a commit registration must advance the
            # version (or repeat the owner's own — an RPC retry after a
            # lost ack).  Anything else is a straggler fenced off by a
            # lease reclaim or beaten by a competing committer.  A txid
            # we already withdrew is a network-duplicated copy of a
            # registration the committer itself rolled back: fenced, or
            # the registry wedges ahead of every committed copy.
            txid = p.get("txid")
            fenced = (
                int(version) < entry.version
                or (int(version) == entry.version and entry.owner != owner)
                or (txid is not None and txid in entry.withdrawn)
            )
            if fenced:
                return {
                    "oid": oid, "ok": False,
                    "registered_owner": entry.owner,
                    "registered_version": entry.version,
                }

        if self.tracer.wants("dir.owner") and (entry is None or entry.owner != owner):
            # Ownership-migration audit: the registered owner changes.
            self.tracer.emit(
                self.node.env.now, "dir.owner", oid,
                node=f"n{self.node.node_id}", owner=owner,
                prev=entry.owner if entry is not None else -1,
            )
        self.register(
            oid, owner, version,
            value=p["value"] if "value" in p else _UNSET,
            value_version=p.get("value_version"),
            registered_by=p.get("txid"),
        )
        return {"oid": oid, "ok": True}

    def _on_validate(self, msg: Message) -> Dict[str, Any]:
        oid = msg.payload["oid"]
        read_version = msg.payload["version"]
        registered = self.registered_version(oid)
        return {
            "oid": oid,
            # Unknown objects validate trivially: nothing committed yet.
            "valid": registered is None or registered == read_version,
            "registered_version": registered,
        }

    def _on_commit_publish(self, msg: Message) -> Dict[str, Any]:
        """A committer synced its installed ``(version, value)`` to us.

        Sent (with retries) right after every fault-mode commit, so the
        home snapshot trails the committed state by at most one publish
        round trip — the window a lease reclaim could otherwise lose.
        """
        p = msg.payload
        entry = self._entries.get(p["oid"])
        if entry is not None:
            self._note_snapshot(entry, p.get("version"), p.get("value"))
            if entry.owner == msg.src:
                self._renew(entry)
        return {"oid": p["oid"], "ok": True}

    def _on_lease_renew(self, msg: Message) -> Dict[str, Any]:
        """Heartbeat from a proxy listing its owned objects.

        Renews leases and absorbs snapshots for entries the sender still
        owns; answers with the oids whose copy at the sender is *stale*
        (a reclaim or competing commit moved the registered version past
        it) so the sender can drop them — this is also how a restarted
        node resynchronises after a crash window.
        """
        stale: List[str] = []
        for oid, version, value in msg.payload.get("objects", ()):
            entry = self._entries.get(oid)
            if entry is None:
                continue
            if entry.owner == msg.src:
                self._renew(entry)
                self._note_snapshot(entry, version, value)
            elif entry.version > int(version):
                stale.append(oid)
        return {"stale": stale}

    def _on_orphan_return(self, msg: Message) -> Dict[str, Any]:
        """An old owner returns a transferred copy nobody came to claim.

        The sender granted an ownership transfer whose response was lost
        and whose requester never re-requested (gave up or crashed); the
        copy it holds is the object's latest committed state.  Accept it
        only while the sender is still the registered owner and the
        registered version has not moved past the copy — then re-host it
        here under a bumped (fence) version, exactly like a lease
        reclaim but from fresher state and without waiting out the
        lease.  Anything else answers ``fenced``: the registry has
        already moved on (the requester registered after all, or a
        reclaim/competing commit won) and the sender must drop its
        idempotent re-grant cache or it would resurrect a stale copy.
        """
        p = msg.payload
        oid = p["oid"]
        version = int(p["version"])
        entry = self._entries.get(oid)
        if entry is None or entry.owner != msg.src or entry.version > version:
            return {
                "oid": oid, "accepted": False, "fenced": True,
                "registered_owner": entry.owner if entry else None,
                "registered_version": entry.version if entry else None,
            }
        local = self.proxy.store.get(oid) if self.proxy is not None else None
        if local is not None and local.state is not ObjectState.FREE:
            # Our own proxy is mid-validation on a copy of this object; a
            # live local commit will settle the entry.  Not fenced: the
            # sender keeps its cache and retries on a later sweep.
            return {"oid": oid, "accepted": False, "fenced": False}
        self._note_snapshot(entry, version, p["value"])
        new_version = max(entry.version, version) + 1
        if self.sanitizer is not None:
            self.sanitizer.note_rehost(
                self.node.node_id, oid, entry.version, new_version,
                now=self.node.env.now,
            )
        entry.owner = self.node.node_id
        entry.version = new_version
        entry.registered_by = None
        entry.snapshot_version = new_version
        entry.snapshot_value = p["value"]
        entry.lease_expires_at = math.inf
        if self.proxy is not None:
            self.proxy.store[oid] = VersionedObject(oid, p["value"], new_version)
            self.proxy.owner_hints[oid] = self.node.node_id
        if self.metrics is not None:
            self.metrics.orphan_returns.increment()
        if self.tracer.wants("fault.orphan_return"):
            self.tracer.emit(
                self.node.env.now, "fault.orphan_return", oid,
                old_owner=msg.src, version=new_version,
            )
        return {"oid": oid, "accepted": True, "version": new_version}

    def __repr__(self) -> str:
        return f"<DirectoryShard node={self.node.node_id} entries={len(self._entries)}>"
