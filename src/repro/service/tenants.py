"""Multi-tenant namespacing of the observatory store.

One server hosts many projects; each tenant owns an isolated
:class:`~repro.observatory.store.ObservatoryStore` rooted at
``<root>/<tenant>/`` — separate ``history.jsonl``, separate indexes,
separate gc.  Nothing is shared across tenants except the
process, so a tenant's compaction, drift detection or run history can
never observe another's.

Tenant names are validated against a strict slug grammar *before* they
touch the filesystem — a tenant name is an untrusted wire input, and
the grammar (lowercase alphanumerics, ``.``, ``_``, ``-``; must start
alphanumeric; at most 64 chars) makes path traversal unrepresentable
rather than filtered.

Every store access goes through the tenant's re-entrant lock
(:meth:`TenantManager.lock`): the store itself is a single-writer
structure, so the service serialises per tenant while different
tenants proceed in parallel on different worker threads.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, List

from ..observatory import ObservatoryStore

__all__ = ["TENANT_RE", "DEFAULT_TENANT", "TenantError", "TenantManager"]

#: the slug grammar of a valid tenant name
TENANT_RE = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")

DEFAULT_TENANT = "default"


class TenantError(ValueError):
    """An invalid tenant name (never touches the filesystem)."""


def validate_tenant(name: str) -> str:
    """Return ``name`` when it is a valid tenant slug, else raise."""
    if not isinstance(name, str) or not TENANT_RE.match(name):
        raise TenantError(
            f"invalid tenant name {name!r} (want: lowercase slug "
            f"[a-z0-9][a-z0-9._-]*, at most 64 chars)")
    if ".." in name:
        raise TenantError(f"invalid tenant name {name!r} ('..' not allowed)")
    return name


class TenantManager:
    """Lazily-opened, lock-guarded per-tenant observatory stores."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._guard = threading.Lock()
        self._stores: Dict[str, ObservatoryStore] = {}
        self._locks: Dict[str, threading.RLock] = {}

    def lock(self, tenant: str) -> threading.RLock:
        """The tenant's store lock (created on first use)."""
        tenant = validate_tenant(tenant)
        with self._guard:
            lock = self._locks.get(tenant)
            if lock is None:
                lock = self._locks[tenant] = threading.RLock()
            return lock

    def path(self, tenant: str) -> str:
        return os.path.join(self.root, validate_tenant(tenant))

    def store(self, tenant: str) -> ObservatoryStore:
        """The tenant's store, opened (and replayed) on first access.

        Callers must hold :meth:`lock` for any read or write — the
        store is not internally synchronised.
        """
        tenant = validate_tenant(tenant)
        with self._guard:
            store = self._stores.get(tenant)
        if store is not None:
            return store
        opened = ObservatoryStore(self.path(tenant))
        with self._guard:
            # another thread may have raced the open; keep the first
            store = self._stores.setdefault(tenant, opened)
        if store is not opened:
            opened.close()
        return store

    def tenants(self) -> List[str]:
        """Every tenant present on disk or opened in memory, sorted."""
        names = set(self._stores)
        try:
            for name in os.listdir(self.root):
                if (TENANT_RE.match(name)
                        and os.path.isdir(os.path.join(self.root, name))):
                    names.add(name)
        except OSError:
            pass
        return sorted(names)

    def close(self) -> None:
        with self._guard:
            for store in self._stores.values():
                store.close()
            self._stores.clear()
