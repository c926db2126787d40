"""The mint: the authority that knows which ECU serials are valid.

The mint is the state behind the trusted *validation agent* (paper
section 3).  It records, for each valid serial, the amount it is worth —
and nothing else.  In particular it never records who owns or transfers an
ECU, which is how the untraceability requirement is met: "the validation
agent does not require knowledge of the source or destination of a
transfer."

Retiring a serial and issuing a replacement is one atomic operation
(:meth:`retire_and_reissue`) so a crash between the two cannot destroy
money in the simulation.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cash.crypto import generate_serial, serial_certificate, verify_certificate
from repro.cash.ecu import ECU
from repro.core.errors import InvalidECUError

__all__ = ["Mint"]


class Mint:
    """Issues ECUs, validates them, and retires spent serials."""

    def __init__(self, mint_id: str = "tacoma-mint", seed: Optional[int] = None):
        self.mint_id = mint_id
        self.rng = random.Random(seed)
        self._secret = self.rng.getrandbits(256).to_bytes(32, "big")
        #: serial -> amount for every currently valid ECU
        self._valid: Dict[int, int] = {}
        #: serials that were once valid and have been retired (spent)
        self._retired: Dict[int, int] = {}
        self._lock = threading.Lock()
        # Ledger counters (what the commerce tests and audits read).
        self.issued_count = 0
        self.validated_count = 0
        self.rejected_count = 0
        self.double_spend_attempts = 0

    # -- issuing -----------------------------------------------------------------

    def issue(self, amount: int) -> ECU:
        """Create a brand-new ECU worth *amount*."""
        if amount <= 0:
            raise InvalidECUError(f"cannot issue an ECU worth {amount}")
        with self._lock:
            serial = self._fresh_serial()
            self._valid[serial] = amount
            self.issued_count += 1
        return ECU(amount=amount, serial=serial,
                   certificate=serial_certificate(self._secret, serial, amount),
                   mint_id=self.mint_id)

    def issue_many(self, amounts: Iterable[int]) -> List[ECU]:
        """Issue one ECU per amount in *amounts*."""
        return [self.issue(amount) for amount in amounts]

    def _fresh_serial(self) -> int:
        while True:
            serial = generate_serial(self.rng)
            if serial not in self._valid and serial not in self._retired:
                return serial

    # -- validation ---------------------------------------------------------------

    def check(self, ecu: ECU) -> Tuple[bool, str]:
        """Is *ecu* currently spendable?  Returns (ok, reason)."""
        if ecu.mint_id != self.mint_id:
            return False, "foreign mint"
        if not verify_certificate(self._secret, ecu.serial, ecu.amount, ecu.certificate):
            return False, "forged certificate"
        with self._lock:
            if ecu.serial in self._retired:
                return False, "retired serial (double spend)"
            if self._valid.get(ecu.serial) != ecu.amount:
                return False, "unknown serial"
        return True, "valid"

    def retire_and_reissue(self, ecu: ECU,
                           split: Optional[List[int]] = None) -> List[ECU]:
        """Atomically retire *ecu* and return replacement ECU(s).

        With *split* the replacement is a list of ECUs whose amounts are
        *split* (they must sum to the retired amount) — this is how change is
        made.  Raises :class:`InvalidECUError` if the ECU is not valid, and
        counts the attempt as a double spend when the serial was retired.
        """
        ok, reason = self.check(ecu)
        if not ok:
            self.rejected_count += 1
            if "double spend" in reason:
                self.double_spend_attempts += 1
            raise InvalidECUError(f"ECU rejected: {reason}")
        amounts = split if split is not None else [ecu.amount]
        if sum(amounts) != ecu.amount or any(amount <= 0 for amount in amounts):
            raise InvalidECUError(
                f"split {amounts} does not preserve the retired amount {ecu.amount}")
        with self._lock:
            del self._valid[ecu.serial]
            self._retired[ecu.serial] = ecu.amount
            self.validated_count += 1
            fresh: List[ECU] = []
            for amount in amounts:
                serial = self._fresh_serial()
                self._valid[serial] = amount
                self.issued_count += 1
                fresh.append(ECU(amount=amount, serial=serial,
                                 certificate=serial_certificate(self._secret, serial, amount),
                                 mint_id=self.mint_id))
        return fresh

    # -- conservation accounting -----------------------------------------------------

    def outstanding_value(self) -> int:
        """Total value of all currently valid ECUs (the money supply)."""
        with self._lock:
            return sum(self._valid.values())

    def retired_value(self) -> int:
        """Total value that has passed through retirement (audit statistic)."""
        with self._lock:
            return sum(self._retired.values())

    def valid_serial_count(self) -> int:
        """Number of currently valid serials."""
        with self._lock:
            return len(self._valid)

    def __repr__(self) -> str:
        return (f"Mint({self.mint_id!r}, outstanding={self.outstanding_value()}, "
                f"valid_serials={self.valid_serial_count()})")
