"""Property tests: the payment rules stay total and sane under
adversarial bid vectors — ties at the top, zero/negative reports,
single-bidder rounds, NaN/±inf garbage (satellite of the Byzantine PR).
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.payments import (
    first_price_payment,
    second_best_payment,
    winner_utility,
)

# Any float the wire could carry, garbage included.
any_value = st.floats(allow_nan=True, allow_infinity=True, width=64)
# A value an honest (finite) bidder could report.
finite_value = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e12, max_value=1e12,
)

bid_vectors = st.lists(any_value, min_size=1, max_size=12)
# Reports drawn so that NaN, ±inf, ±0.0 and ties at the top are common.
edgy_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf]),
    any_value,
)


def copying_second_best_payment(reported, winner):
    """The rule as it was written before it read the rivals off views:
    a copy without the winner, filtered to its finite reports."""
    arr = np.asarray(reported, dtype=np.float64)
    if not (0 <= winner < len(arr)):
        raise IndexError(f"winner index {winner} out of range for {len(arr)} agents")
    others = np.delete(arr, winner)
    others = others[np.isfinite(others)]
    if len(others) == 0:
        return 0.0
    best = float(others.max())
    if best < 0.0:
        return 0.0
    return best


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestSecondPriceTotality:
    @given(reported=bid_vectors, data=st.data())
    @settings(max_examples=300)
    def test_always_finite_and_nonnegative(self, reported, data):
        winner = data.draw(st.integers(0, len(reported) - 1))
        price = second_best_payment(reported, winner)
        assert math.isfinite(price)
        assert price >= 0.0

    @given(reported=st.lists(finite_value, min_size=2, max_size=12))
    @settings(max_examples=300)
    def test_never_exceeds_winners_bid_at_argmax(self, reported):
        # When the winner really is the argmax (the only way the
        # mechanism calls the rule), the Vickrey price cannot exceed
        # the winning bid.
        winner = int(np.argmax(reported))
        price = second_best_payment(reported, winner)
        assert price <= max(reported[winner], 0.0)

    @given(reported=st.lists(finite_value, min_size=2, max_size=12))
    @settings(max_examples=300)
    def test_price_is_best_rival_bid(self, reported):
        winner = int(np.argmax(reported))
        rivals = [v for i, v in enumerate(reported) if i != winner]
        expected = max(max(rivals), 0.0)
        assert second_best_payment(reported, winner) == expected

    @given(value=any_value)
    def test_single_bidder_pays_reserve(self, value):
        assert second_best_payment([value], 0) == 0.0

    @given(reported=st.lists(finite_value, min_size=2, max_size=12),
           data=st.data())
    @settings(max_examples=200)
    def test_garbage_rivals_never_poison_the_price(self, reported, data):
        # Splicing NaN/±inf reports into the vector must not change the
        # price: non-finite reports are non-participation.
        winner = int(np.argmax(reported))
        clean = second_best_payment(reported, winner)
        garbage = data.draw(
            st.lists(
                st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                min_size=1, max_size=4,
            )
        )
        spliced = list(reported) + garbage
        assert second_best_payment(spliced, winner) == clean

    @given(reported=st.lists(finite_value, min_size=2, max_size=12))
    @settings(max_examples=200)
    def test_tie_at_top_prices_at_the_tied_value(self, reported):
        # Duplicate the maximum: with two agents tied at the top, the
        # winner pays exactly the tied (second) value.
        top = max(reported)
        tied = list(reported) + [top]
        winner = int(np.argmax(tied))
        assert second_best_payment(tied, winner) == max(top, 0.0)

    @given(reported=st.lists(
        st.floats(max_value=0.0, allow_nan=False, allow_infinity=False,
                  width=64),
        min_size=1, max_size=8,
    ), data=st.data())
    def test_all_nonpositive_reports_price_zero_or_best(self, reported, data):
        winner = data.draw(st.integers(0, len(reported) - 1))
        # Negative "best rival" clamps to the zero reserve.
        assert second_best_payment(reported, winner) >= 0.0

    @given(reported=bid_vectors, winner=st.integers())
    def test_out_of_range_winner_raises(self, reported, winner):
        if 0 <= winner < len(reported):
            return
        with pytest.raises(IndexError):
            second_best_payment(reported, winner)


class TestSameBitsAsTheCopyingRule:
    @given(reported=st.lists(edgy_value, min_size=1, max_size=40), data=st.data())
    @settings(max_examples=500)
    @example(reported=[0.0, -0.0, 3.0], data=None)
    @example(reported=[-0.0, 0.0, 3.0], data=None)
    @example(reported=[-0.0, -0.0, 3.0], data=None)
    @example(reported=[math.nan, 0.0, math.inf, -0.0, 3.0], data=None)
    def test_same_price_bits(self, reported, data):
        winners = (
            range(len(reported))
            if data is None
            else [data.draw(st.integers(0, len(reported) - 1))]
        )
        for winner in winners:
            want = _bits(copying_second_best_payment(reported, winner))
            assert _bits(second_best_payment(reported, winner)) == want
            arr = np.asarray(reported, dtype=np.float64)
            assert _bits(second_best_payment(arr, winner)) == want


class TestFirstPriceAndUtility:
    @given(reported=st.lists(finite_value, min_size=1, max_size=8),
           data=st.data())
    def test_first_price_is_own_bid_clamped(self, reported, data):
        winner = data.draw(st.integers(0, len(reported) - 1))
        assert first_price_payment(reported, winner) == max(
            0.0, reported[winner]
        )

    @given(value=st.sampled_from(
        [float("nan"), float("inf"), float("-inf")]
    ))
    def test_first_price_rejects_nonfinite_winner(self, value):
        with pytest.raises(ValueError):
            first_price_payment([value], 0)

    @given(true_value=finite_value,
           rivals=st.lists(finite_value, min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_truthful_winner_never_regrets(self, true_value, rivals):
        # Theorem 5's direction of the dominance argument: if the
        # truthful bid wins, the price is a rival's bid <= the true
        # value, so utility is non-negative.
        reported = [true_value] + rivals
        if int(np.argmax(reported)) != 0:
            return
        price = second_best_payment(reported, 0)
        assert winner_utility(true_value, price) >= 0.0 or true_value < 0.0
