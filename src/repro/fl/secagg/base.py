"""Shared error types and the committed-round skeleton of the
secure-aggregation protocol stack.

Kept free of intra-package imports so :mod:`repro.fl.server` can catch
protocol failures without pulling in the protocol implementations at
import time (the aggregator registry resolves those lazily).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

import repro.tensor.buffers as buffers

from ..messages import MaskedUpload


class SecAggError(RuntimeError):
    """Base class for secure-aggregation protocol failures."""


class BelowThresholdError(SecAggError):
    """Raised when fewer than ``threshold`` clients survive to unmasking.

    Below the Shamir threshold the server cannot reconstruct the dropped
    clients' mask seeds, so the round is unrecoverable *by design* — the
    same shares that enable dropout recovery must never let a server with
    too few cooperating clients unmask an individual update.
    """

    def __init__(self, survivors: int, threshold: int) -> None:
        super().__init__(
            f"only {survivors} clients survive to unmasking but the "
            f"protocol threshold is {threshold}; the round cannot be "
            "recovered (and must not be, or the threshold would be "
            "meaningless)"
        )
        self.survivors = survivors
        self.threshold = threshold


def default_threshold(num_clients: int) -> int:
    """The default Shamir threshold: a strict majority of the committed set.

    ``floor(n / 2) + 1`` tolerates up to half the fleet dropping after
    mask commitment while keeping any colluding minority unable to
    reconstruct seeds on its own.
    """
    return num_clients // 2 + 1


class CommittedRound:
    """The committed client set one protocol execution runs over.

    Holds what both protocol rounds share: the sorted distinct ids, the
    threshold (strict majority by default), each client's position in
    the sorted order, the checks on who may upload and how many uploads
    a recovery needs, and the round's borrowed arrays.

    A round runs its large arithmetic in arrays it borrows from the
    :mod:`repro.tensor.buffers` pool (:meth:`borrow`), and
    :meth:`release_buffers` hands them all back at once.  Upload
    payloads, mask rows and encoded segments are such arrays or views
    of them, so nothing a round returned may be used after its buffers
    are released.  A round whose buffers are never released simply
    leaves them to the garbage collector.
    """

    def __init__(
        self,
        client_ids: Sequence[int],
        round_index: int,
        threshold: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        ordered = sorted(int(cid) for cid in client_ids)
        if len(set(ordered)) != len(ordered):
            raise ValueError("committed client ids must be distinct")
        if not ordered:
            raise ValueError("a protocol round needs at least one client")
        self.client_ids = ordered
        self.round_index = int(round_index)
        self.threshold = (
            default_threshold(len(ordered)) if threshold is None else int(threshold)
        )
        if not 1 <= self.threshold <= len(ordered):
            raise ValueError(
                f"threshold {self.threshold} invalid for {len(ordered)} clients"
            )
        self._seed = seed
        self._positions = {cid: pos for pos, cid in enumerate(ordered)}
        self._borrowed: list[np.ndarray] = []

    def borrow(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized pooled array that lives as long as the round."""
        array = buffers.acquire(shape, dtype)
        self._borrowed.append(array)
        return array

    def borrow_rows(self, rows: int, width: int) -> np.ndarray:
        """``rows`` rows of a borrowed ``(rows, width)`` ``uint64`` matrix.

        The matrix has at least as many rows as the committed set, so
        rounds of one committed size reuse one pooled array however many
        of their clients upload.
        """
        return self.borrow((max(rows, len(self.client_ids)), width), np.uint64)[:rows]

    def release_buffers(self) -> None:
        """Return every borrowed array to the pool; every payload, mask
        row and segment of this round is invalid from here on."""
        for array in self._borrowed:
            buffers.release(array)
        self._borrowed = []

    def _position(self, client_id: int) -> int:
        position = self._positions.get(int(client_id))
        if position is None:
            raise SecAggError(f"client {client_id} is not in the committed set")
        return position

    def _upload_positions(self, client_ids: Sequence[int], quantized) -> list[int]:
        """The positions of a batched upload's clients, each listed once,
        one ``quantized`` row each."""
        positions = [self._position(cid) for cid in client_ids]
        if len(set(positions)) != len(positions):
            raise SecAggError("a batched upload lists a client twice")
        if len(quantized) != len(positions):
            raise ValueError("quantized rows must align with the uploading ids")
        return positions

    def _uploads(self, client_ids: Sequence[int], payloads) -> list[MaskedUpload]:
        """The upload messages of ``client_ids``, payload row by row."""
        return [
            MaskedUpload(
                client_id=int(cid),
                round_index=self.round_index,
                num_examples=1,
                payload=payload,
            )
            for cid, payload in zip(client_ids, payloads)
        ]

    def _survivor_ids(self, uploads) -> list[int]:
        """The sorted uploading ids, once each, all committed, at least
        ``threshold`` of them."""
        survivor_ids = sorted(int(upload.client_id) for upload in uploads)
        if len(set(survivor_ids)) != len(survivor_ids):
            raise SecAggError("duplicate masked uploads for one client")
        unknown = [cid for cid in survivor_ids if cid not in self._positions]
        if unknown:
            raise SecAggError(f"uploads from uncommitted clients: {unknown}")
        if len(survivor_ids) < self.threshold:
            raise BelowThresholdError(len(survivor_ids), self.threshold)
        return survivor_ids
