import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itboost.boosting import ENCODINGS
from itboost.complexity import (
    SYMBOLS,
    encode_gradients,
    lz76_complexity,
    normalize_complexities,
    trust_weights,
)
from reference import SymbolSequence, _oracle_symbols, naive_lz76


# any character is a symbol: NUL and the last code point too, so a parse that
# marks the end of a history with a character fails on this alphabet
EDGE_ALPHABET = "\x00a\U0010ffff"


class TestBinarize:
    def test_positive_gradient_is_one(self):
        assert encode_gradients([0.7], "binary-sign").tolist() == [1]

    def test_zero_ties_to_zero(self):
        assert encode_gradients([0.0, -0.0], "binary-sign").tolist() == [0, 0]
        assert encode_gradients([0.0, 0.5], "binary-delta").tolist() == [0, 1]
        assert encode_gradients([0.0, 0.5], "quantized").tolist() == [0, 3]

    def test_negative_is_zero(self):
        assert encode_gradients([-0.3], "binary-sign").tolist() == [0]

    def test_delta_sign_decrease(self):
        assert encode_gradients([0.3, -0.6], "binary-delta", g_prev=[0.5, -0.1]).tolist() == [0, 0]

    def test_delta_sign_increase(self):
        assert encode_gradients([0.9, -0.1], "binary-delta", g_prev=[0.5, -0.6]).tolist() == [1, 1]

    def test_delta_sign_first_round_falls_back_to_sign(self):
        assert encode_gradients([0.3, -0.3], "binary-delta", g_prev=None).tolist() == [1, 0]

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            for encoding in ENCODINGS:
                with pytest.raises(ValueError, match="non-finite gradients"):
                    encode_gradients([0.5, bad], encoding, g_prev=[0.1, 0.1])

    def test_non_finite_previous_rejected(self):
        with pytest.raises(ValueError, match="non-finite previous"):
            encode_gradients([0.5, -0.2], "binary-delta", g_prev=[float("nan"), float("inf")])


class TestQuantize:
    # median |g| is 0.4: codes are 2*[g > 0] + [|g| >= 0.4]
    G = [0.9, -0.1, 0.1, -0.9, 0.4, -0.4]

    def _code(self, g):
        return encode_gradients(self.G, "quantized")[self.G.index(g)]

    def test_positive_large(self):
        assert self._code(0.9) == 3

    def test_negative_small(self):
        assert self._code(-0.1) == 0

    def test_positive_small(self):
        assert self._code(0.1) == 2

    def test_negative_large(self):
        assert self._code(-0.9) == 1

    def test_threshold_counts_as_large(self):
        assert (self._code(0.4), self._code(-0.4)) == (3, 1)

    def test_zero_median_uses_median_of_nonzero(self):
        # median |g| is 0; the nonzero |g| (0.2, 0.6, 0.9) give the threshold 0.6
        g = [0.0, 0.0, 0.0, 0.0, 0.2, -0.6, 0.9]
        assert encode_gradients(g, "quantized").tolist() == [0, 0, 0, 0, 2, 1, 3]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            encode_gradients([float("nan"), 0.4], "quantized")


@st.composite
def gradient_rounds(draw):
    """One round's residuals and, or None, the previous round's: values drawn from ±0.0 and a few
    magnitudes that repeat (so the median |g| is often tied), and in some rounds more than half
    of the residuals exactly 0."""
    value = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -2.0]) | st.floats(-1e6, 1e6)
    g = draw(st.lists(value, min_size=1, max_size=40))
    g += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=2 * len(g)))
    g = draw(st.permutations(g))
    g_prev = draw(st.none() | st.lists(value, min_size=len(g), max_size=len(g)))
    return np.array(g), None if g_prev is None else np.array(g_prev)


class TestEncodeGradients:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @given(rounds=gradient_rounds())
    @example(rounds=(np.array([0.0, -0.0, 0.5, -0.0]), np.array([-0.0, 0.0, 0.5, 0.0])))  # ±0.0
    @example(rounds=(np.array([0.5, -0.5, 0.5, -2.0, 0.1]), None))  # ties at the median |g|
    @example(rounds=(np.array([0.0, -0.0, 0.0, 0.5, -0.5, 2.0]), None))  # exactly half 0: median (0 + 0.5) / 2
    @example(rounds=(np.array([0.0, -0.0, 0.0, 0.0, -0.5, 2.0]), np.zeros(6)))  # more than half 0
    @settings(max_examples=200, deadline=None)
    def test_codes_spell_the_oracle_symbols(self, encoding, rounds):
        g, g_prev = rounds
        if encoding == "quantized" and not np.any(g):
            with pytest.raises(ValueError, match="every residual is zero"):
                encode_gradients(g, encoding, g_prev=g_prev)
            return
        codes = encode_gradients(g, encoding, g_prev=g_prev)
        assert codes.dtype == np.int64
        assert [SYMBOLS[c] for c in codes] == _oracle_symbols(g, encoding, g_prev)

    def test_quantized_uses_median_threshold(self):
        g = np.array([0.9, -0.1, 0.1, -0.9])
        # median |g| = 0.5; codes: 3, 0, 2, 1
        assert encode_gradients(g, "quantized").tolist() == [3, 0, 2, 1]

    def test_quantized_zero_median_rejected(self):
        with pytest.raises(ValueError):
            encode_gradients(np.zeros(4), "quantized")


class TestLZ76:
    @pytest.mark.parametrize(
        "sequence,expected",
        [
            ("", 0),
            ("0", 1),
            ("1", 1),
            ("0000000000", 2),
            ("0101010101", 3),
            ("0011", 3),
            ("01", 2),
        ],
    )
    def test_known_values(self, sequence, expected):
        assert lz76_complexity(sequence) == expected

    @pytest.mark.parametrize("sequence", [[0, 1, 0, 1], np.array([3, 0, 3, 9, 9]), [0.9, 1.5, 0.2]],
                             ids=["int-list", "int-array", "float-list"])
    def test_non_str_rejected(self, sequence):
        # histories are strings everywhere; a sequence of numbers is not one
        with pytest.raises(TypeError, match="expected a str history"):
            lz76_complexity(sequence)

    def test_random_beats_constant(self):
        rng = np.random.default_rng(8)
        coin = "".join(rng.choice(list("01"), size=64))
        assert lz76_complexity(coin) > lz76_complexity("0" * 64)

    def test_agrees_with_naive_parser(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(0, 64))
            alphabet = SYMBOLS[:2] if rng.random() < 0.5 else SYMBOLS
            s = "".join(rng.choice(list(alphabet), size=n))
            assert lz76_complexity(s) == naive_lz76(s)

    def test_bounded_by_length(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 100))
            s = "".join(rng.choice(list("01"), size=n))
            assert 1 <= lz76_complexity(s) <= n

    @given(st.text(alphabet="01", max_size=96))
    @settings(max_examples=200, deadline=None)
    def test_append_monotonicity(self, s):
        prev = 0
        for i in range(1, len(s) + 1):
            c = lz76_complexity(s[:i])
            assert c in (prev, prev + 1)
            prev = c


def _periodic(block: str, n: int, edit: tuple[int, str] | None) -> str:
    """``block`` repeated and truncated to n symbols, with at most one symbol replaced."""
    s = (block * (n // len(block) + 1))[:n]
    if edit is not None and s:
        i = edit[0] % len(s)
        s = s[:i] + edit[1] + s[i + 1 :]
    return s


def _periodic_text(alphabet: str):
    return st.builds(
        _periodic,
        st.text(alphabet=alphabet, min_size=1, max_size=8),
        st.integers(0, 256),
        st.none() | st.tuples(st.integers(0, 255), st.sampled_from(alphabet)),
    )


class TestLZ76AgainstOracles:
    """The parse agrees with the windowed scan and the online parser on every string.

    Random text gives short phrases and frequent re-searches; periodic text
    gives long extensions, re-searches after a late mismatch and a long
    reproducible suffix.
    """

    @staticmethod
    def _check(s: str):
        seq = SymbolSequence()
        for ch in s:
            seq.append(ch)
        assert lz76_complexity(s) == naive_lz76(s) == seq.complexity

    @pytest.mark.parametrize("alphabet", [SYMBOLS[:2], SYMBOLS, EDGE_ALPHABET])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_text(self, alphabet, data):
        self._check(data.draw(st.text(alphabet=alphabet, max_size=256)))

    @pytest.mark.parametrize("alphabet", [SYMBOLS[:2], SYMBOLS, EDGE_ALPHABET])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_periodic_text(self, alphabet, data):
        self._check(data.draw(_periodic_text(alphabet)))


class TestSymbolSequence:
    def test_matches_from_scratch_on_every_prefix(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            alphabet = SYMBOLS[:2] if trial % 2 == 0 else SYMBOLS
            n = int(rng.integers(1, 128))
            symbols = "".join(rng.choice(list(alphabet), size=n))
            seq = SymbolSequence()
            for i, ch in enumerate(symbols, start=1):
                incremental = seq.append(ch)
                assert incremental == lz76_complexity(symbols[:i])

    def test_empty_complexity_zero(self):
        assert SymbolSequence().complexity == 0


class TestNormalize:
    def test_three_point(self):
        np.testing.assert_allclose(normalize_complexities([2, 4, 6]), [0.0, 0.5, 1.0], atol=1e-15)

    def test_degenerate_all_equal_gives_full_trust(self):
        np.testing.assert_array_equal(normalize_complexities([3, 3, 3]), [0.0, 0.0, 0.0])

    def test_two_point(self):
        np.testing.assert_array_equal(normalize_complexities([1, 9]), [0.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_complexities([])

    def test_endpoints_pinned(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(1, 40, size=50)
        raw[0], raw[1] = 40, 1
        normalized = normalize_complexities(raw)
        assert normalized.min() == 0.0 and normalized.max() == 1.0

    def test_argmax_invariant_under_shift(self):
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 30, size=40)
        raw[17] = 31
        shifted = raw + 7
        assert np.argmax(normalize_complexities(raw)) == np.argmax(normalize_complexities(shifted)) == 17


class TestTrustWeights:
    def test_zero_complexity_identity(self):
        tau, w = trust_weights([0.5], [0.0])
        assert tau[0] == 1.0
        assert w[0] == 0.5

    def test_unit_complexity(self):
        tau, w = trust_weights([0.5], [1.0])
        assert abs(tau[0] - math.exp(-1)) < 1e-9
        assert abs(w[0] - 0.5 * math.exp(-1)) < 1e-9
        assert abs(w[0] - 0.183940) < 1e-6

    def test_negative_gradient_uses_magnitude(self):
        _, w = trust_weights([-0.8], [0.5])
        assert abs(w[0] - 0.8 * math.exp(-0.5)) < 1e-9
        assert abs(w[0] - 0.485225) < 1e-6

    @pytest.mark.parametrize("gradients,normalized", [([0.5, 0.2], [0.0]), ([], [])], ids=["mismatch", "empty"])
    def test_bad_lengths_rejected(self, gradients, normalized):
        with pytest.raises(ValueError, match="^trust_weights: "):
            trust_weights(gradients, normalized)

    @pytest.mark.parametrize("complexity", [1.5, -0.5, math.nan, math.inf, -math.inf])
    def test_out_of_range_complexity_rejected(self, complexity):
        with pytest.raises(ValueError, match=r"^trust_weights: .* must be finite and lie in \[0, 1\]$"):
            trust_weights([0.5, 0.2], [complexity, 0.3])

    def test_tau_bounds(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=200)
        c = rng.random(200)
        tau, w = trust_weights(g, c)
        assert np.all(tau >= math.exp(-1) - 1e-12)
        assert np.all(tau <= 1.0 + 1e-12)
        assert np.all(w >= 0)

    def test_max_complexity_sample_gets_e_inverse(self):
        raw = np.array([2, 5, 9, 3])
        normalized = normalize_complexities(raw)
        tau, _ = trust_weights(np.ones(4), normalized)
        assert abs(tau[np.argmax(raw)] - math.exp(-1)) < 1e-12
