"""Encrypted, attested wire sessions for the cluster front door.

The ROADMAP's wire-encryption item: the paper's threat model (Section II)
trusts only the enclave, yet the original TCP front door spoke plaintext
frames — the client-to-enclave leg was wide open.  This module closes it
the way production SGX storage does (Harnik et al.; Tang et al.'s
authenticated KV stores): an attestation-bound session-key handshake, then
AEAD-protected frames terminated at a *gateway enclave* in front of the
shards.

The fiction, piece by piece:

* **Gateway enclave** — :class:`SessionManager` owns a
  :class:`~repro.crypto.keys.KeyMaterial` identity (the stand-in for
  MRENCLAVE + platform fusing) and a :class:`~repro.sgx.meter.CycleMeter`;
  every wire-crypto operation is charged to it through the
  :class:`~repro.sgx.costs.CostModel`, so the handshake and per-frame AEAD
  show up as priced simulated cycles exactly like the shards' work.
* **Quote** — :func:`make_quote` seals ``measurement || report_data`` with
  :func:`repro.sgx.sealing.seal` under a key derived from
  :data:`ATTESTATION_ROOT` — the simulation's attestation authority.  In
  real SGX only the quoting enclave (and Intel's verification service) can
  mint/check quotes; here the root is public so tests can also forge wrong
  quotes.  ``report_data`` is the handshake transcript hash, binding the
  quote to *this* exchange: a replayed or re-targeted quote fails
  verification.
* **Key exchange** — finite-field Diffie-Hellman over the RFC 3526
  2048-bit MODP group (pure stdlib ``pow``).  Both hellos, the chosen
  version, the session id, and both public shares enter the transcript
  hash, so tampering with the offered/chosen versions desynchronizes the
  derived keys and the quote check.
* **Record protection** — :class:`SecureSession` frames carry AES-CTR
  ciphertext + a CMAC tag over header-plus-ciphertext (the
  :mod:`repro.crypto` primitives).  Keys are per-direction (client->server
  and server->client derive distinct pairs) and the CTR counter is
  ``session_id || seq``, so no (key, nonce) pair ever repeats.  ``seq``
  must strictly increase per direction: a recorded frame resent on the
  same connection raises :class:`~repro.errors.ReplayError`; one resent
  under a retired session id raises
  :class:`~repro.errors.StaleSessionError`; any bit flip raises
  :class:`~repro.errors.TamperedFrameError` before plaintext is released.

Hello bodies (inside v2 handshake frames, little-endian)::

    client hello := "AHLO" | n_versions (1) | versions | nonce (16) | pub (256)
                  [ | t_len (1) | tenant_id | credential (16) ]
    server hello := "SHLO" | version (1) | nonce (16) | session_id (8)
                  | pub (256) | quote_len (2) | quote

The optional trailing **tenant block** binds a principal into the
handshake (ARCHITECTURE §16): ``credential`` is a MAC under the tenant's
secret over the tenant id plus this hello's nonce and DH share
(:func:`repro.cluster.tenancy.tenant_credential`), so it is fresh per
connection and replay-proof; and because the transcript hash covers the
*whole* client hello frame, the quote the server returns attests the
tenant claim too — a handshake whose tenant block was tampered with
derives desynchronized keys and fails.  The authenticated tenant id is
pinned on the resulting :class:`SecureSession` (``session.tenant``) —
the only place a principal is ever stated: no frame names one.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
from typing import Collection, Dict, Optional, Tuple

from repro.crypto.backend import CryptoBackend, MAC_SIZE, get_backend
from repro.crypto.keys import KeyMaterial
from repro.errors import (
    HandshakeError,
    IntegrityError,
    ProtocolError,
    ReplayError,
    StaleSessionError,
    TamperedFrameError,
)
from repro.server import protocol
from repro.server.protocol import (
    FLAG_DEADLINE,
    FLAG_FROM_SERVER,
    FLAG_HANDSHAKE,
    KNOWN_FLAGS,
    V2_BUDGET,
    V2_HEADER,
    V2_MAGIC,
    WIRE_V2,
    FrameHeader,
)
from repro.sgx.costs import CostModel, DEFAULT_COSTS
from repro.sgx.meter import CycleMeter
from repro.sgx.sealing import seal, unseal

# RFC 3526 group 14: 2048-bit MODP prime, generator 2.
DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
DH_GENERATOR = 2
DH_BYTES = 256
_EXPONENT_BYTES = 32  # 256-bit private exponents

NONCE_SIZE = 16
SESSION_ID_SIZE = 8

#: The wire versions a hello offers and a gateway accepts.
SUPPORTED_VERSIONS = (WIRE_V2,)

_CLIENT_MAGIC = b"AHLO"
_SERVER_MAGIC = b"SHLO"
_CLIENT_HELLO = struct.Struct("<4sB")          # magic, n_versions
_SERVER_HELLO = struct.Struct("<4sB16sQ")      # magic, version, nonce, sid
_QUOTE_LEN = struct.Struct("<H")
_NONCE = struct.Struct("<QQ")
_HEADER_SIZE = V2_HEADER.size
_BUDGET_END = _HEADER_SIZE + V2_BUDGET.size

#: The simulated attestation authority's root key.  Real SGX: the quoting
#: enclave's fused key / Intel's verification service.  Simulation: a
#: well-known constant, so clients can verify quotes and tests can mint
#: forgeries — the *binding* (measurement + transcript) is what is modeled,
#: not the unforgeability of the authority.
ATTESTATION_ROOT = hashlib.blake2b(
    b"aria-attestation-service-v1", digest_size=16
).digest()


def measurement(keys: KeyMaterial) -> bytes:
    """The MRENCLAVE stand-in: a digest of the enclave identity."""
    return hashlib.blake2b(
        keys.encryption_key + keys.mac_key,
        key=b"aria-mrenclave",
        digest_size=16,
    ).digest()


def make_quote(backend: CryptoBackend, keys: KeyMaterial,
               report_data: bytes) -> bytes:
    """Attestation evidence: seal measurement+report under the root key."""
    return seal(backend, ATTESTATION_ROOT, measurement(keys) + report_data)


def verify_quote(
    backend: CryptoBackend,
    quote: bytes,
    report_data: bytes,
    expected_measurements: Optional[Collection[bytes]] = None,
) -> bytes:
    """Check a quote; returns the attested measurement.

    Raises :class:`~repro.errors.HandshakeError` if the quote fails
    authentication, binds a different handshake transcript, or (when the
    caller pins some) attests a measurement not among
    ``expected_measurements``.
    """
    try:
        body = unseal(backend, ATTESTATION_ROOT, quote)
    except IntegrityError as exc:
        raise HandshakeError(
            f"quote failed attestation verification: {exc}"
        ) from exc
    attested, bound = body[:16], body[16:]
    if bound != report_data:
        raise HandshakeError("quote does not bind this handshake transcript")
    if expected_measurements is not None \
            and attested not in expected_measurements:
        expected = " or ".join(m.hex() for m in expected_measurements)
        raise HandshakeError(
            f"enclave measurement mismatch: expected {expected}, "
            f"got {attested.hex()}"
        )
    return attested


def _dh_secret(rng) -> int:
    return int.from_bytes(rng(_EXPONENT_BYTES), "little") | 1

def _dh_public(secret: int) -> bytes:
    return pow(DH_GENERATOR, secret, DH_PRIME).to_bytes(DH_BYTES, "big")


def _dh_shared(peer_public: bytes, secret: int) -> bytes:
    peer = int.from_bytes(peer_public, "big")
    if not 1 < peer < DH_PRIME - 1:
        raise HandshakeError("degenerate key-exchange public share")
    return pow(peer, secret, DH_PRIME).to_bytes(DH_BYTES, "big")


def _transcript(client_hello_frame: bytes, server_hello_prefix: bytes) -> bytes:
    """Hash of everything both sides said before the quote."""
    return hashlib.blake2b(
        client_hello_frame + server_hello_prefix,
        key=b"aria-wire-transcript",
        digest_size=32,
    ).digest()


def _derive_session_keys(
    shared: bytes, transcript: bytes
) -> Tuple[KeyMaterial, KeyMaterial]:
    """64 bytes of key material -> (client->server, server->client) keys."""
    raw = hashlib.blake2b(
        shared + transcript, key=b"aria-wire-kdf-v2", digest_size=64
    ).digest()
    return (
        KeyMaterial(encryption_key=raw[0:16], mac_key=raw[16:32]),
        KeyMaterial(encryption_key=raw[32:48], mac_key=raw[48:64]),
    )


class SecureSession:
    """One established AEAD channel: per-direction keys, anti-replay state.

    ``seal`` produces a complete v2 frame payload (header + ciphertext +
    tag) and ``open`` reverses it, enforcing in order: session-id match,
    tag verification (over header *and* ciphertext), and strict sequence
    advance.  Both charge the owning side's meter through the cost model —
    the gateway enclave on the server, the client's own accounting on the
    client.
    Both are on the frame path (ARCHITECTURE §18): one header pack or
    unpack per frame, MAC input = the frame's bytes before the tag.
    """

    def __init__(
        self,
        session_id: int,
        *,
        send_keys: KeyMaterial,
        recv_keys: KeyMaterial,
        crypto: CryptoBackend,
        costs: CostModel,
        meter: CycleMeter,
        from_server: bool,
    ):
        self.session_id = session_id
        # The session owns its four keys for life: their schedules are
        # absorbed here, once, and go when the session does.
        self._send_enc_key = crypto.prepare(send_keys.encryption_key)
        self._send_mac_key = crypto.prepare(send_keys.mac_key)
        self._recv_enc_key = crypto.prepare(recv_keys.encryption_key)
        self._recv_mac_key = crypto.prepare(recv_keys.mac_key)
        self._crypto = crypto
        self._costs = costs
        self.meter = meter
        self._send_flags = FLAG_FROM_SERVER if from_server else 0
        self._send_seq = 0
        self._recv_seq = 0
        self.frames_sealed = 0
        self.frames_opened = 0
        #: Tenant id authenticated at handshake time (``None`` = anonymous).
        self.tenant: Optional[str] = None
        #: The client side: what the gateway's quote attested.
        self.attested_measurement: Optional[bytes] = None

    @property
    def cipher(self) -> str:
        return f"{self._crypto.name}/aes-ctr+cmac"

    def seal(self, payload: bytes, budget_ms: Optional[int] = None) -> bytes:
        """Encrypt + authenticate one outgoing frame payload.

        ``budget_ms`` (the sender's remaining deadline, 0 up to
        :data:`~repro.server.protocol.MAX_DEADLINE_MS`) rides as the
        header's deadline field, in the clear and under the MAC.
        """
        flags = self._send_flags
        budget = b""
        if budget_ms is not None:
            flags |= FLAG_DEADLINE
            budget = protocol.pack_budget(budget_ms)
        seq = self._send_seq = self._send_seq + 1
        session_id = self.session_id
        sealed = V2_HEADER.pack(
            V2_MAGIC, WIRE_V2, flags, session_id, seq
        ) + budget + self._crypto.encrypt(
            self._send_enc_key, _NONCE.pack(session_id, seq), payload)
        tag = self._crypto.mac(self._send_mac_key, sealed)
        self.meter.charge_event(
            "wire_enc", self._costs.enc_cost(len(payload)))
        self.meter.charge_event(
            "wire_mac", self._costs.mac_cost(len(sealed)))
        self.frames_sealed += 1
        return sealed + tag

    def open(self, frame: bytes) -> bytes:
        """Verify + decrypt one incoming frame payload; typed errors only.

        Refusals, first match wins: plaintext, truncated, version, flags,
        handshake, stale session, short tag, MAC, direction, replay.  A
        deadline field is skipped (the receiver that wants it reads it off
        the frame this call authenticated).
        """
        if frame[:2] != V2_MAGIC:
            raise TamperedFrameError(
                "plaintext frame on an encrypted session")
        if len(frame) < _HEADER_SIZE:
            raise ProtocolError("truncated v2 frame header")
        _, version, flags, session_id, seq = V2_HEADER.unpack_from(frame)
        if version != WIRE_V2:
            raise ProtocolError(f"unsupported wire version {version}")
        if flags & ~KNOWN_FLAGS:
            raise ProtocolError(f"unknown frame flags 0x{flags:02x}")
        if flags & FLAG_HANDSHAKE:
            raise ProtocolError("unexpected handshake frame mid-session")
        if session_id != self.session_id:
            raise StaleSessionError(
                f"frame under session {session_id}, but this channel "
                f"is session {self.session_id}"
            )
        body_at = _BUDGET_END if flags & FLAG_DEADLINE else _HEADER_SIZE
        if len(frame) < body_at + MAC_SIZE:
            raise TamperedFrameError("frame too short to carry a tag")
        # The MAC covers the header as received (= as re-encoded).
        sealed = frame[:-MAC_SIZE]
        self.meter.charge_event(
            "wire_mac", self._costs.mac_cost(len(sealed)))
        if not self._crypto.mac_verify(self._recv_mac_key, sealed,
                                       frame[-MAC_SIZE:]):
            raise TamperedFrameError(
                f"frame {seq} of session {self.session_id} failed "
                "authentication"
            )
        # Only authenticated headers reach the replay / direction checks:
        # a forged seq or flipped direction bit already failed the MAC.
        if flags & ~FLAG_DEADLINE != self._send_flags ^ FLAG_FROM_SERVER:
            raise TamperedFrameError("reflected frame (direction bit)")
        if seq <= self._recv_seq:
            raise ReplayError(
                f"replayed frame: seq {seq} does not advance past "
                f"{self._recv_seq} on session {self.session_id}"
            )
        self._recv_seq = seq
        ciphertext = sealed[body_at:]
        self.meter.charge_event(
            "wire_enc", self._costs.enc_cost(len(ciphertext)))
        self.frames_opened += 1
        return self._crypto.decrypt(
            self._recv_enc_key, _NONCE.pack(session_id, seq), ciphertext)


class ClientHandshake:
    """The client half: emit a hello, verify the quote, derive the session.

    One-shot: build, :meth:`hello`, :meth:`finish`.  ``expected_measurement``
    pins the gateway identity: the deployment's known-good MRENCLAVE, or a
    collection of them (a shard hop's expected-measurement list).  When
    ``None`` the quote is still verified against the attestation root and
    the transcript, but any genuine enclave is accepted (trust on first
    use).

    ``tenant``/``credential`` attach the optional tenant block to the
    hello: ``credential`` is the tenant's *secret* (the per-handshake MAC
    is derived from it here, because it must cover this hello's fresh
    nonce and DH share); when ``None`` the simulation's derivable default
    secret is used.
    """

    def __init__(
        self,
        *,
        expected_measurement: Optional[bytes | Collection[bytes]] = None,
        crypto: str | CryptoBackend = "fast",
        costs: CostModel = DEFAULT_COSTS,
        meter: Optional[CycleMeter] = None,
        rng=os.urandom,
        tenant: Optional[str] = None,
        credential: Optional[bytes] = None,
    ):
        self._expected = ((expected_measurement,)
                          if isinstance(expected_measurement, bytes)
                          else expected_measurement)
        self._crypto = (crypto if isinstance(crypto, CryptoBackend)
                        else get_backend(crypto))
        self._costs = costs
        self.meter = meter if meter is not None else CycleMeter()
        self._rng = rng
        self._secret = _dh_secret(rng)
        self._hello_frame: Optional[bytes] = None
        if credential is not None and tenant is None:
            raise HandshakeError("credential given without a tenant id")
        self.tenant = tenant
        self._tenant_secret = credential

    def hello(self) -> bytes:
        """The complete v2 handshake frame payload to send first."""
        nonce = self._rng(NONCE_SIZE)
        public = _dh_public(self._secret)
        body = (
            _CLIENT_HELLO.pack(_CLIENT_MAGIC, len(SUPPORTED_VERSIONS))
            + bytes(SUPPORTED_VERSIONS)
            + nonce
            + public
        )
        if self.tenant is not None:
            from repro.cluster.tenancy import (
                default_tenant_secret, tenant_credential,
            )
            raw = self.tenant.encode("utf-8")
            if not 0 < len(raw) < 256:
                raise HandshakeError("tenant id does not fit the hello")
            secret = (self._tenant_secret if self._tenant_secret is not None
                      else default_tenant_secret(self.tenant))
            cred = tenant_credential(
                self._crypto, secret, self.tenant, nonce, public)
            body += len(raw).to_bytes(1, "little") + raw + cred
            self.meter.charge_event(
                "wire_mac", self._costs.mac_cost(len(raw) + len(cred)))
        self.meter.charge_event("wire_kex", self._costs.kex)
        self._hello_frame = protocol.encode_frame(
            FrameHeader(flags=FLAG_HANDSHAKE), body
        )
        return self._hello_frame

    def finish(self, reply: bytes) -> SecureSession:
        """Digest the server hello; returns the established session.

        Any other answer, plaintext or a malformed frame, raises
        :class:`~repro.errors.HandshakeError`.
        """
        if self._hello_frame is None:
            raise HandshakeError("finish() before hello()")
        try:
            header, body = protocol.decode_frame(reply)
        except ProtocolError as exc:
            raise HandshakeError(f"undecodable server hello: {exc}") from exc
        if not header.flags & FLAG_HANDSHAKE:
            raise HandshakeError("server did not answer with a handshake")
        prefix_len = _SERVER_HELLO.size + DH_BYTES
        if len(body) < prefix_len + _QUOTE_LEN.size:
            raise HandshakeError("truncated server hello")
        magic, version, _nonce, session_id = _SERVER_HELLO.unpack_from(body)
        if magic != _SERVER_MAGIC:
            raise HandshakeError("malformed server hello")
        if version not in SUPPORTED_VERSIONS:
            raise HandshakeError(
                f"server chose version {version}, which we never offered"
            )
        server_public = body[_SERVER_HELLO.size:prefix_len]
        (quote_len,) = _QUOTE_LEN.unpack_from(body, prefix_len)
        quote = body[prefix_len + _QUOTE_LEN.size:]
        if len(quote) != quote_len:
            raise HandshakeError("truncated server hello (quote)")
        transcript = _transcript(self._hello_frame, body[:prefix_len])
        self.meter.charge_event("wire_quote", self._costs.quote_attest)
        attested = verify_quote(
            self._crypto, quote, transcript, self._expected
        )
        self.meter.charge_event("wire_kex", self._costs.kex)
        shared = _dh_shared(server_public, self._secret)
        c2s, s2c = _derive_session_keys(shared, transcript)
        session = SecureSession(
            session_id,
            send_keys=c2s,
            recv_keys=s2c,
            crypto=self._crypto,
            costs=self._costs,
            meter=self.meter,
            from_server=False,
        )
        # The server accepted a hello carrying our tenant block (else it
        # would have rejected the handshake), so the claim is established.
        session.tenant = self.tenant
        session.attested_measurement = attested
        return session


class SessionManager:
    """The gateway enclave: accepts handshakes, owns the session table.

    One manager serves a whole front door; each connection's handshake
    yields one :class:`SecureSession` (rekeying is simply a reconnect).
    The manager's meter aggregates every handshake and every frame's AEAD
    cost — the priced wire overhead of the cluster.  Retired session ids
    are remembered so late frames from a closed connection are diagnosed
    as stale rather than unknown.
    """

    def __init__(
        self,
        *,
        keys: Optional[KeyMaterial] = None,
        seed: Optional[int] = 0,
        crypto: str | CryptoBackend = "fast",
        costs: CostModel = DEFAULT_COSTS,
        rng=os.urandom,
        registry=None,
        require_tenant: bool = False,
    ):
        if keys is None:
            keys = (KeyMaterial.from_seed(seed) if seed is not None
                    else KeyMaterial.random())
        self.keys = keys
        #: Optional :class:`repro.cluster.tenancy.TenantRegistry`; without
        #: one, hellos carrying a tenant block are rejected (a client
        #: asking for an authenticated session must not silently get an
        #: anonymous one).
        self.registry = registry
        self.require_tenant = require_tenant
        if require_tenant and registry is None:
            raise HandshakeError(
                "require_tenant without a tenant registry")
        self._crypto = (crypto if isinstance(crypto, CryptoBackend)
                        else get_backend(crypto))
        self._costs = costs
        self.meter = CycleMeter()
        self._rng = rng
        # Random id base: ids from a manager's previous life never collide
        # with (and are never mistaken for) the current table's.
        self._ids = itertools.count(
            int.from_bytes(os.urandom(6), "little") or 1
        )
        self.sessions: Dict[int, SecureSession] = {}
        self.retired: set = set()
        self.handshakes = 0

    @property
    def measurement(self) -> bytes:
        """What an honest quote for this gateway attests."""
        return measurement(self.keys)

    @property
    def cipher(self) -> str:
        return f"{self._crypto.name}/aes-ctr+cmac"

    def accept(self, hello_frame: bytes) -> Tuple[bytes, SecureSession]:
        """Process a client hello; returns (server reply, session).

        Raises :class:`~repro.errors.HandshakeError` on any malformation —
        the caller answers with a rejection and hangs up; nothing about a
        bad hello is ever trusted.
        """
        try:
            header, body = protocol.decode_frame(hello_frame)
        except ProtocolError as exc:
            raise HandshakeError(f"undecodable hello: {exc}") from exc
        if not header.flags & FLAG_HANDSHAKE:
            raise HandshakeError("not a handshake frame")
        if len(body) < _CLIENT_HELLO.size:
            raise HandshakeError("truncated client hello")
        magic, n_versions = _CLIENT_HELLO.unpack_from(body)
        if magic != _CLIENT_MAGIC:
            raise HandshakeError("malformed client hello")
        expected_len = (_CLIENT_HELLO.size + n_versions + NONCE_SIZE
                        + DH_BYTES)
        if len(body) < expected_len:
            raise HandshakeError(
                f"truncated client hello: {len(body)} bytes, "
                f"expected at least {expected_len}"
            )
        offered = body[_CLIENT_HELLO.size:_CLIENT_HELLO.size + n_versions]
        common = set(offered) & set(SUPPORTED_VERSIONS)
        if not common:
            raise HandshakeError(
                f"no common wire version (offered {sorted(offered)}, "
                f"accept {sorted(SUPPORTED_VERSIONS)})"
            )
        version = max(common)
        nonce_off = _CLIENT_HELLO.size + n_versions
        client_nonce = body[nonce_off:nonce_off + NONCE_SIZE]
        client_public = body[expected_len - DH_BYTES:expected_len]
        tenant_id = self._check_tenant_block(
            body[expected_len:], client_nonce, client_public)

        secret = _dh_secret(self._rng)
        session_id = next(self._ids)
        prefix = _SERVER_HELLO.pack(
            _SERVER_MAGIC, version, self._rng(NONCE_SIZE), session_id
        ) + _dh_public(secret)
        transcript = _transcript(hello_frame, prefix)
        self.meter.charge_event("wire_kex", self._costs.kex)
        self.meter.charge_event("wire_quote", self._costs.quote_attest)
        quote = make_quote(self._crypto, self.keys, transcript)
        reply_body = prefix + _QUOTE_LEN.pack(len(quote)) + quote
        self.meter.charge_event("wire_kex", self._costs.kex)
        shared = _dh_shared(client_public, secret)
        c2s, s2c = _derive_session_keys(shared, transcript)
        session = SecureSession(
            session_id,
            send_keys=s2c,
            recv_keys=c2s,
            crypto=self._crypto,
            costs=self._costs,
            meter=self.meter,
            from_server=True,
        )
        session.tenant = tenant_id
        self.sessions[session_id] = session
        self.handshakes += 1
        reply = protocol.encode_frame(
            FrameHeader(flags=FLAG_HANDSHAKE | FLAG_FROM_SERVER,
                        session_id=session_id),
            reply_body,
        )
        return reply, session

    def _check_tenant_block(self, extra: bytes, nonce: bytes,
                            client_public: bytes) -> Optional[str]:
        """Authenticate the hello's optional trailing tenant block.

        Returns the verified tenant id (or ``None`` for an anonymous
        hello); raises :class:`~repro.errors.HandshakeError` for a
        malformed block, an unconfigured registry, a failed credential, or
        (under ``require_tenant``) a missing block.
        """
        if not extra:
            if self.require_tenant:
                raise HandshakeError(
                    "this front door requires tenant authentication")
            return None
        if self.registry is None:
            raise HandshakeError(
                "client presented a tenant block but tenancy is not "
                "enabled on this front door")
        t_len = extra[0]
        if t_len == 0 or len(extra) != 1 + t_len + MAC_SIZE:
            raise HandshakeError("malformed tenant block")
        try:
            tenant_id = extra[1:1 + t_len].decode("utf-8")
        except UnicodeDecodeError:
            raise HandshakeError("tenant id is not valid UTF-8") from None
        credential = extra[1 + t_len:]
        self.meter.charge_event(
            "wire_mac", self._costs.mac_cost(len(extra)))
        self.registry.verify(
            self._crypto, tenant_id, credential, nonce, client_public)
        return tenant_id

    def retire(self, session: SecureSession) -> None:
        """Close out a connection's session; its id becomes stale."""
        if self.sessions.pop(session.session_id, None) is not None:
            self.retired.add(session.session_id)

    def stats(self) -> dict:
        """The gateway's row: session counts plus its metered cycles."""
        row = {
            "handshakes": self.handshakes,
            "active_sessions": len(self.sessions),
            "retired_sessions": len(self.retired),
            "cipher": self.cipher,
            "cycles": self.meter.cycles,
            "events": dict(self.meter.events),
        }
        # Tenant visibility only when tenancy is armed, so an unarmed
        # gateway's stats stay byte-identical to the pre-tenancy shape.
        if self.registry is not None:
            row["tenant_sessions"] = sum(
                1 for s in self.sessions.values() if s.tenant is not None)
        return row
