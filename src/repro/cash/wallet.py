"""Wallets: how agents carry ECUs in their briefcases.

"Each agent stores records for the ECUs it owns.  An agent transfers funds
by placing these records in a briefcase that is then passed to the intended
recipient of those funds."  A :class:`Wallet` is a thin view over a folder
(by convention named ``ECUS``) in a briefcase or a file cabinet: it parses
the ECU records, selects coins for a payment, and writes the remainder back.
It writes only through the API the two containers share (``put`` appends,
``add(..., replace=True)`` rewrites), so a wallet in a durable cabinet — a
vendor's till — journals every deposit and withdrawal.  Reading writes
nothing: an absent folder reads as an empty wallet, and only a deposit
creates it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.cash.ecu import ECU
from repro.core.briefcase import Briefcase
from repro.core.cabinet import FileCabinet
from repro.core.errors import InsufficientFundsError
from repro.core.folder import Folder

__all__ = ["Wallet", "ECUS_FOLDER"]

#: conventional folder name for carried cash
ECUS_FOLDER = "ECUS"


class Wallet:
    """A view over the ECU records stored in a briefcase or cabinet folder."""

    def __init__(self, holder: Union[Briefcase, FileCabinet],
                 folder_name: str = ECUS_FOLDER):
        self._holder = holder
        self._folder_name = folder_name

    # -- reading ------------------------------------------------------------------

    def _folder(self) -> Folder:
        """The wallet's folder for reading; an absent one reads as empty and
        is not created (only a deposit creates it)."""
        if not self._holder.has(self._folder_name):
            return Folder(self._folder_name)
        return self._holder.folder(self._folder_name)

    def ecus(self) -> List[ECU]:
        """Every ECU currently in the wallet."""
        return [ECU.from_wire(record) for record in self._folder().elements()]

    def balance(self) -> int:
        """Total face value carried."""
        return sum(ecu.amount for ecu in self.ecus())

    def __len__(self) -> int:
        return len(self._folder())

    # -- writing -------------------------------------------------------------------

    def deposit(self, ecus: List[ECU]) -> None:
        """Add ECU records to the wallet."""
        for ecu in ecus:
            self._holder.put(self._folder_name, ecu.to_wire())

    def replace_all(self, ecus: List[ECU]) -> None:
        """Overwrite the wallet contents with *ecus*."""
        self._holder.add(Folder(self._folder_name, [ecu.to_wire() for ecu in ecus]),
                         replace=True)

    # -- payments ------------------------------------------------------------------

    def select_payment(self, amount: int) -> Tuple[List[ECU], int]:
        """Pick ECUs covering *amount* and remove them from the wallet.

        Returns ``(selected, total_selected)`` where ``total_selected >=
        amount`` (the excess is change the payee's validation step returns).
        Raises :class:`InsufficientFundsError` when the balance is too small;
        the wallet is left untouched in that case.
        """
        if amount <= 0:
            return [], 0
        available = self.ecus()
        if sum(ecu.amount for ecu in available) < amount:
            raise InsufficientFundsError(
                f"wallet holds {sum(e.amount for e in available)}, needs {amount}")
        # Greedy: spend smallest coins first so large coins stay for later
        # payments and the amount of change stays small.
        available.sort(key=lambda ecu: ecu.amount)
        selected: List[ECU] = []
        total = 0
        for ecu in available:
            if total >= amount:
                break
            selected.append(ecu)
            total += ecu.amount
        remaining = [ecu for ecu in available if ecu not in selected]
        self.replace_all(remaining)
        return selected, total

    def pay_into(self, other: Briefcase, amount: int,
                 folder_name: Optional[str] = None) -> int:
        """Move ECUs worth at least *amount* into another briefcase's folder.

        Returns the total face value actually transferred.  This is the
        paper's funds transfer: "placing these records in a briefcase that
        is then passed to the intended recipient."
        """
        selected, total = self.select_payment(amount)
        target = Wallet(other, folder_name or self._folder_name)
        target.deposit(selected)
        return total

    def __repr__(self) -> str:
        return f"Wallet(folder={self._folder_name!r}, balance={self.balance()})"
