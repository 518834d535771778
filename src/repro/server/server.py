"""The enclave-resident request handler (extension beyond the paper).

Models the deployment the paper assumes but does not measure: clients
deliver encrypted-channel requests to untrusted code, which ECALLs into the
enclave.  Each delivery pays:

* one ECALL (Section II-A: ~10 K cycles of security checks + TLB/L1 flushes),
* the parameter copy across the boundary (charged per byte), and
* the same per-request copy on the way out.

``handle_batch`` amortizes the ECALL over many requests — the standard
mitigation (HotCalls/batched ecalls) — and the ``server_batching`` bench
quantifies the curve.  Request bytes are untrusted input: the parser rejects
malformed frames rather than trusting lengths.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import IntegrityError, KeyNotFoundError
from repro.server import protocol
from repro.server.protocol import (
    OP_DELETE,
    OP_GET,
    OP_HEALTH,
    OP_PUT,
    STATUS_OK,
    ProtocolError,
    Request,
    Response,
    Status,
)

_tuple_new = tuple.__new__
#: Every successful Put and Delete gets this one answer: a tuple record is
#: immutable, so sharing it is safe.
_OK = Response(STATUS_OK)


class AriaServer:
    """Dispatches decoded requests against an Aria store, inside the enclave.

    ``workers`` enables deterministic intra-shard batch parallelism (see
    :mod:`repro.server.batchexec`): batches run through an Aria-style
    reserve → execute → commit pipeline over N simulated enclave worker
    contexts.  Responses and canonical cycle charges are bit-identical for
    any worker count; the parallel timing model (critical path, reservation
    and barrier overhead) is reported via :meth:`exec_stats`.  ``workers=1``
    keeps the original serial loop.
    """

    def __init__(self, store, *, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._store = store
        self._enclave = store.enclave
        self.workers = workers
        if workers > 1:
            from repro.server.batchexec import BatchExecutor

            self.engine = BatchExecutor(store, workers=workers)
        else:
            self.engine = None

    # -- single-request entry point ------------------------------------------------

    def handle(self, request_bytes: bytes) -> bytes:
        """One ECALL per request: the naive (unbatched) entry point."""
        self._enter(len(request_bytes))
        try:
            request, _ = protocol.decode_request(request_bytes)
        except ProtocolError:
            return self._exit(Response(Status.BAD_REQUEST).encode())
        response = self._dispatch(request)
        return self._exit(response.encode())

    # -- batched entry point ----------------------------------------------------------

    def handle_batch(self, batch_bytes: bytes) -> bytes:
        """One ECALL amortized over every request in the batch.

        A batch whose framing cannot be parsed is rejected as a unit with
        the canonical single-BAD_REQUEST reply (none of its requests
        executed — see the contract in ``protocol``): the server cannot
        trust the claimed ``count`` of a frame it failed to parse, so it
        never fabricates per-request responses for it.  Every batch it
        accepts runs through :meth:`_flush`, the one place the boundary is
        charged, at its encoded size ``len(batch_bytes)``.
        """
        try:
            requests = protocol.decode_batch(batch_bytes)
        except ProtocolError:
            self._enter(len(batch_bytes))
            return self._exit(protocol.encode_batch_rejection())
        return protocol.encode_batch_responses(
            self._flush(requests, len(batch_bytes)))

    def flush_batch(self, requests: Iterable[Request]) -> list:
        """Batch-flush hook for pre-decoded requests (the cluster path).

        The cluster coordinator decodes frames once at the front door and
        routes ``Request`` objects to shards; re-encoding them per shard
        would be pure Python overhead with no simulated counterpart.  This
        entry point charges what every batch pays — one ECALL plus the
        boundary copy of the encoded batch in and the encoded responses
        out — and enforces exactly :meth:`handle_batch`'s caps: a
        batch ``decode_batch`` would reject (oversize count/frame/key/
        value, empty key, value on non-PUT, unknown opcode) is rejected
        as a unit with the whole-batch rejection shape, none of its
        requests executed.  Returns ``Response`` objects.
        """
        if not isinstance(requests, list):
            requests = list(requests)  # walked twice below; lists as given
        nbytes = protocol.batch_encoded_size(requests)
        if protocol.batch_violation(requests) is None:
            return self._flush(requests, nbytes)
        self._enter(nbytes)
        responses = [Response(Status.BAD_REQUEST)]
        self._charge_copy(protocol.batch_responses_encoded_size(responses))
        return responses

    # -- internals ----------------------------------------------------------------------

    def _flush(self, requests: list, nbytes: int) -> list:
        """Run one valid batch of ``nbytes`` encoded: one ECALL, the copy
        of the batch in and of its encoded responses out."""
        boundary = self._enter(nbytes)
        responses = self._run(requests)
        boundary += self._charge_copy(
            protocol.batch_responses_encoded_size(responses))
        if self.engine is not None:
            self.engine.note_boundary(boundary)
        return responses

    def _run(self, requests: list) -> list:
        """Execute a validated batch: the engine when workers > 1."""
        if self.engine is None:
            return [self._dispatch(request) for request in requests]
        return self.engine.execute(requests, self._dispatch)

    def _enter(self, nbytes: int) -> float:
        """Cross into the enclave: one ECALL + the parameter copy.

        Returns the cycles charged (measured, so ``MeterPause`` windows
        report zero), which the engine accounts as serial boundary work.
        """
        before = self._enclave.meter.cycles
        self._enclave.ecall()
        self._charge_copy(nbytes)
        return self._enclave.meter.cycles - before

    def _charge_copy(self, nbytes: int) -> float:
        """The boundary copy charge, shared by every entry/exit point."""
        before = self._enclave.meter.cycles
        self._enclave.meter.charge(
            self._enclave.costs.mem_per_byte * nbytes
        )
        return self._enclave.meter.cycles - before

    def _exit(self, payload: bytes) -> bytes:
        self._charge_copy(len(payload))
        return payload

    def exec_stats(self) -> "dict | None":
        """The batch-execution engine's counters, or ``None`` when serial."""
        if self.engine is None:
            return None
        return self.engine.stats()

    def _dispatch(self, request: Request) -> Response:
        opcode = request.opcode
        try:
            # Likeliest first; module constants, not ``OpCode.X`` lookups.
            if opcode == OP_GET:
                return _tuple_new(
                    Response, (STATUS_OK, self._store.get(request.key)))
            if opcode == OP_PUT:
                self._store.put(request.key, request.value)
                return _OK
            if opcode == OP_DELETE:
                self._store.delete(request.key)
                return _OK
            if opcode == OP_HEALTH:
                # A liveness ping: reaching this line means the enclave is
                # up.  Never empty-valued BAD_REQUEST, so a one-request
                # batch can't collide with the whole-batch-rejection shape.
                return Response(STATUS_OK, b"ok")
        except KeyNotFoundError:
            return Response(Status.NOT_FOUND)
        except IntegrityError as exc:
            # An alarm, not a crash: the client learns the store is under
            # attack; the failing state stays quarantined inside the raise.
            return Response(Status.INTEGRITY_FAILURE, str(exc).encode())
        return Response(Status.BAD_REQUEST)


class AriaClient:
    """Client-side convenience wrapper speaking the wire protocol."""

    def __init__(self, server: AriaServer, *, batch_size: int = 1):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._server = server
        self._batch_size = batch_size
        self._pending: list = []
        self._responses: list = []

    def get(self, key: bytes) -> bytes:
        response = self._roundtrip(protocol.get(key))
        if response.status == Status.NOT_FOUND:
            raise KeyNotFoundError(key)
        if response.status == Status.INTEGRITY_FAILURE:
            raise IntegrityError(response.value.decode())
        return response.value

    def put(self, key: bytes, value: bytes) -> None:
        self._roundtrip(protocol.put(key, value))

    def delete(self, key: bytes) -> None:
        response = self._roundtrip(protocol.delete(key))
        if response.status == Status.NOT_FOUND:
            raise KeyNotFoundError(key)

    def _roundtrip(self, request: Request) -> Response:
        if self._batch_size == 1:
            raw = self._server.handle(request.encode())
            response, _ = protocol.decode_response(raw)
            return response
        self._pending.append(request)
        # The caller of a batched client reads results via drain(); for
        # simplicity the blocking API flushes immediately when batching.
        self.flush()
        return self._responses.pop(0)

    def flush(self) -> None:
        if not self._pending:
            return
        raw = self._server.handle_batch(protocol.encode_batch(self._pending))
        # expected= keeps request/response correspondence honest: a
        # whole-batch rejection raises instead of misaligning positions.
        self._responses.extend(
            protocol.decode_batch_responses(raw, expected=len(self._pending))
        )
        self._pending.clear()

    def pipeline(self, requests: Iterable[Request]) -> list:
        """Send many requests in max-size batches; returns all responses."""
        responses: list = []
        chunk: list = []
        for request in requests:
            chunk.append(request)
            if len(chunk) >= self._batch_size:
                raw = self._server.handle_batch(protocol.encode_batch(chunk))
                responses.extend(
                    protocol.decode_batch_responses(raw, expected=len(chunk))
                )
                chunk = []
        if chunk:
            raw = self._server.handle_batch(protocol.encode_batch(chunk))
            responses.extend(
                protocol.decode_batch_responses(raw, expected=len(chunk))
            )
        return responses
