"""Unit tests for wallets (ECUs carried in briefcase folders)."""

from __future__ import annotations

import pytest

from repro.cash import ECUS_FOLDER, Mint, Wallet
from repro.core import Briefcase, FileCabinet
from repro.core.errors import InsufficientFundsError


@pytest.fixture
def mint():
    return Mint(seed=3)


class TestWallet:
    def test_empty_wallet(self):
        wallet = Wallet(Briefcase())
        assert wallet.balance() == 0
        assert wallet.ecus() == []
        assert len(wallet) == 0

    def test_reading_a_cabinet_wallet_creates_and_journals_nothing(self):
        seen = []
        till = FileCabinet("till")
        till.attach_store(seen.append)
        wallet = Wallet(till)
        assert (wallet.balance(), wallet.ecus(), len(wallet)) == (0, [], 0)
        assert seen == [] and not till.has(ECUS_FOLDER)

    def test_reading_a_briefcase_wallet_leaves_the_briefcase_as_it_was(self):
        briefcase = Briefcase()
        briefcase.set("OTHER", "x")
        names, size = briefcase.names(), briefcase.wire_size()
        assert Wallet(briefcase).balance() == 0
        assert (briefcase.names(), briefcase.wire_size()) == (names, size)

    def test_deposit_and_balance(self, mint):
        wallet = Wallet(Briefcase())
        wallet.deposit(mint.issue_many([5, 10]))
        assert wallet.balance() == 15
        assert len(wallet) == 2

    def test_wallet_contents_live_in_the_briefcase_folder(self, mint):
        briefcase = Briefcase()
        Wallet(briefcase).deposit([mint.issue(5)])
        assert briefcase.has(ECUS_FOLDER)
        assert len(briefcase.folder(ECUS_FOLDER)) == 1

    def test_custom_folder_name(self, mint):
        briefcase = Briefcase()
        wallet = Wallet(briefcase, folder_name="CHANGE")
        wallet.deposit([mint.issue(3)])
        assert briefcase.has("CHANGE")
        assert wallet.balance() == 3

    def test_replace_all(self, mint):
        wallet = Wallet(Briefcase())
        wallet.deposit(mint.issue_many([1, 2]))
        wallet.replace_all([mint.issue(10)])
        assert wallet.balance() == 10
        assert len(wallet) == 1

    def test_select_payment_exact(self, mint):
        wallet = Wallet(Briefcase())
        wallet.deposit(mint.issue_many([5, 10]))
        selected, total = wallet.select_payment(5)
        assert total == 5
        assert wallet.balance() == 10

    def test_select_payment_prefers_small_coins(self, mint):
        wallet = Wallet(Briefcase())
        wallet.deposit(mint.issue_many([50, 1, 2]))
        selected, total = wallet.select_payment(3)
        assert sorted(ecu.amount for ecu in selected) == [1, 2]
        assert total == 3
        assert wallet.balance() == 50

    def test_select_payment_with_overshoot(self, mint):
        wallet = Wallet(Briefcase())
        wallet.deposit(mint.issue_many([7]))
        selected, total = wallet.select_payment(5)
        assert total == 7          # overshoot: change comes back via validation
        assert wallet.balance() == 0

    def test_select_payment_zero_or_negative_is_a_noop(self, mint):
        wallet = Wallet(Briefcase())
        wallet.deposit([mint.issue(5)])
        assert wallet.select_payment(0) == ([], 0)
        assert wallet.select_payment(-3) == ([], 0)
        assert wallet.balance() == 5

    def test_insufficient_funds_leaves_wallet_untouched(self, mint):
        wallet = Wallet(Briefcase())
        wallet.deposit(mint.issue_many([2, 3]))
        with pytest.raises(InsufficientFundsError):
            wallet.select_payment(100)
        assert wallet.balance() == 5

    def test_pay_into_moves_records_between_briefcases(self, mint):
        payer_briefcase = Briefcase()
        payee_briefcase = Briefcase()
        payer = Wallet(payer_briefcase)
        payer.deposit(mint.issue_many([5, 5]))
        transferred = payer.pay_into(payee_briefcase, 10)
        assert transferred == 10
        assert payer.balance() == 0
        assert Wallet(payee_briefcase).balance() == 10

    def test_pay_into_custom_folder(self, mint):
        payer = Wallet(Briefcase())
        payer.deposit([mint.issue(10)])
        target = Briefcase()
        payer.pay_into(target, 10, folder_name="PAYMENT")
        assert target.has("PAYMENT")
        assert Wallet(target, "PAYMENT").balance() == 10

    def test_total_money_is_conserved_across_transfers(self, mint):
        briefcases = [Briefcase() for _ in range(3)]
        Wallet(briefcases[0]).deposit(mint.issue_many([4, 4, 4]))
        Wallet(briefcases[0]).pay_into(briefcases[1], 5)
        Wallet(briefcases[1]).pay_into(briefcases[2], 3)
        total = sum(Wallet(briefcase).balance() for briefcase in briefcases)
        assert total == 12
