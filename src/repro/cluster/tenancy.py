"""Tenant identity, credentials, and quota configuration for the cluster.

The multi-tenant front door (ARCHITECTURE §16) rests on three pieces:

* **Identity** — a tenant id plus a per-tenant secret.  The client proves
  possession inside the attested handshake by MACing the handshake-fresh
  material (tenant id, client nonce, client DH share) under the secret
  (:func:`tenant_credential`); the gateway verifies against its
  :class:`TenantRegistry`.  The credential binds to *this* handshake — a
  recorded one replays into nothing, because the nonce and DH share are
  fresh per connection.
* **Namespace** — every tenant owns a fixed-length key prefix
  (:mod:`repro.core.tenant`), so namespaces are disjoint by construction
  and the ring routes tenants' keys independently.
* **Quotas** — per-tenant admission rate (a
  :class:`~repro.cluster.overload.TokenBucket` at the front door) and a
  Secure Cache occupancy share (enforced shard-side against the owner
  token embedded in each key).

Secrets here are simulation-grade, like the attestation root in
:mod:`repro.cluster.session`: :func:`default_tenant_secret` derives a
well-known per-tenant key so examples and tests need no key distribution;
a real deployment would provision secrets out of band.  What is *modeled*
is the binding — which principal said what, charged where — not the
secrecy of the credential store.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.core.tenant import (
    TENANT_PREFIX_LEN,
    owner_token_of,
    prefixed_key,
    strip_prefix,
    tenant_digest,
    tenant_prefix,
    tenant_token,
)
from repro.crypto.backend import CryptoBackend
from repro.errors import ConfigurationError, HandshakeError

__all__ = [
    "MAX_TENANT_ID_BYTES",
    "CREDENTIAL_BYTES",
    "TenantConfig",
    "TenancyConfig",
    "TenantRegistry",
    "default_tenant_secret",
    "tenant_credential",
    "TENANT_PREFIX_LEN",
    "owner_token_of",
    "prefixed_key",
    "strip_prefix",
    "tenant_prefix",
    "tenant_token",
]

#: Wire bound on a tenant id (the hello block carries a 1-byte length,
#: but ids are kept far smaller than 255 on purpose).
MAX_TENANT_ID_BYTES = 64
#: Credential MAC length (the crypto backend's CMAC).
CREDENTIAL_BYTES = 16

_SECRET_KEY = b"aria-tenant-secret"
_AUTH_CONTEXT = b"aria-tenant-auth-v1"


def default_tenant_secret(tenant_id: str) -> bytes:
    """The simulation's provisioning shortcut: a derivable 16-byte secret."""
    return hashlib.blake2b(
        tenant_id.encode("utf-8"), key=_SECRET_KEY, digest_size=16
    ).digest()


def tenant_credential(backend: CryptoBackend, secret: bytes,
                      tenant_id: str, nonce: bytes,
                      client_public: bytes) -> bytes:
    """MAC proving possession of ``secret``, fresh for this handshake.

    Covers the tenant id plus the hello's nonce and DH share, so the
    credential is bound to the connection being opened: replaying it in
    another hello fails verification because that hello's nonce/share
    differ.
    """
    body = (
        _AUTH_CONTEXT
        + len(tenant_id).to_bytes(1, "little")
        + tenant_id.encode("utf-8")
        + nonce
        + client_public
    )
    return backend.mac(secret, body)


@dataclass(frozen=True)
class TenantConfig:
    """One principal: identity, credential secret, and quotas.

    ``rate``/``burst`` bound front-door admission (requests/second and
    burst size); ``None`` leaves the tenant un-rate-limited.
    ``cache_quota`` is this tenant's guaranteed share of each shard's
    Secure Cache entries, in ``(0, 1]``; while a tenant is at or under its
    share, no other tenant's miss may evict its Merkle nodes.
    """

    tenant_id: str
    secret: Optional[bytes] = None
    rate: Optional[float] = None
    burst: Optional[float] = None
    cache_quota: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ConfigurationError("tenant_id must be non-empty")
        if len(self.tenant_id.encode("utf-8")) > MAX_TENANT_ID_BYTES:
            raise ConfigurationError(
                f"tenant_id exceeds {MAX_TENANT_ID_BYTES} bytes")
        if (self.rate is None) != (self.burst is None):
            raise ConfigurationError(
                "rate and burst must be set together (or neither)")
        if self.rate is not None and self.rate <= 0:
            raise ConfigurationError(f"tenant rate {self.rate} <= 0")
        if self.burst is not None and self.burst <= 0:
            raise ConfigurationError(f"tenant burst {self.burst} <= 0")
        if self.cache_quota is not None \
                and not 0.0 < self.cache_quota <= 1.0:
            raise ConfigurationError(
                f"cache_quota {self.cache_quota} not in (0, 1]")

    @property
    def resolved_secret(self) -> bytes:
        return (self.secret if self.secret is not None
                else default_tenant_secret(self.tenant_id))

    @property
    def token(self) -> str:
        return tenant_token(self.tenant_id)

    @property
    def prefix(self) -> bytes:
        return tenant_prefix(self.tenant_id)


@dataclass(frozen=True)
class TenancyConfig:
    """The cluster's tenant roster plus global tenancy policy.

    ``require_auth=True`` refuses a handshake that presents no tenant;
    the default also serves anonymous sessions.
    """

    tenants: Tuple[TenantConfig, ...] = field(default_factory=tuple)
    require_auth: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ConfigurationError("TenancyConfig needs at least 1 tenant")
        ids = [t.tenant_id for t in self.tenants]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate tenant ids")
        digests: Dict[bytes, str] = {}
        for tenant in self.tenants:
            digest = tenant_digest(tenant.tenant_id)
            clash = digests.get(digest)
            if clash is not None:
                raise ConfigurationError(
                    f"tenant namespace digest collision: {clash!r} and "
                    f"{tenant.tenant_id!r} share a prefix")
            digests[digest] = tenant.tenant_id
        total_quota = sum(t.cache_quota or 0.0 for t in self.tenants)
        if total_quota > 1.0 + 1e-9:
            raise ConfigurationError(
                f"tenant cache quotas sum to {total_quota:.3f} > 1.0")

    def cache_quota_map(self) -> Dict[str, float]:
        """Owner-token -> quota fraction, the shard-side (wire-safe) form.

        Keyed by the hex digest token rather than the tenant id because
        that is all a shard can recover from a prefixed key — and the map
        is plain JSON-able data, so it crosses the process and socket
        backend spawn specs unchanged.
        """
        return {
            t.token: t.cache_quota
            for t in self.tenants
            if t.cache_quota is not None
        }


class TenantRegistry:
    """The gateway's credential store and token <-> id directory."""

    def __init__(self, tenants: Iterable[TenantConfig]):
        self._tenants: Dict[str, TenantConfig] = {}
        for tenant in tenants:
            if tenant.tenant_id in self._tenants:
                raise ConfigurationError(
                    f"duplicate tenant id {tenant.tenant_id!r}")
            self._tenants[tenant.tenant_id] = tenant
        self._by_token = {t.token: t.tenant_id
                          for t in self._tenants.values()}
        if len(self._by_token) != len(self._tenants):
            raise ConfigurationError("tenant namespace digest collision")

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def tenant_ids(self) -> list:
        return sorted(self._tenants)

    def get(self, tenant_id: str) -> Optional[TenantConfig]:
        return self._tenants.get(tenant_id)

    def tenant_for_token(self, token: str) -> Optional[str]:
        return self._by_token.get(token)

    def verify(self, backend: CryptoBackend, tenant_id: str,
               credential: bytes, nonce: bytes,
               client_public: bytes) -> TenantConfig:
        """Check a handshake credential; raises HandshakeError on failure.

        Unknown tenant and bad credential raise the *same* message shape,
        so a probing client cannot distinguish "no such tenant" from
        "wrong secret" (no tenant-roster oracle).
        """
        tenant = self._tenants.get(tenant_id)
        if tenant is not None:
            body = (
                _AUTH_CONTEXT
                + len(tenant_id).to_bytes(1, "little")
                + tenant_id.encode("utf-8")
                + nonce
                + client_public
            )
            if backend.mac_verify(tenant.resolved_secret, body, credential):
                return tenant
        raise HandshakeError(
            f"tenant authentication failed for {tenant_id!r}")
