import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from itboost import theory
from itboost.theory import (
    ratio_bound_check,
    required_group_size,
    separability_from_groups,
    trust_bound_check,
)


class TestComplexitySample:
    """The bound and separability checks reject a complexity sample that is empty, not 1-D or not finite."""

    GOOD = np.array([0.1, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="trust_bound_check: .*nonempty"):
            trust_bound_check(np.array([]))
        with pytest.raises(ValueError, match="ratio_bound_check: .*nonempty"):
            ratio_bound_check(np.array([]), self.GOOD)
        with pytest.raises(ValueError, match="ratio_bound_check: .*nonempty"):
            ratio_bound_check(self.GOOD, np.array([]))
        with pytest.raises(ValueError, match="1-D"):
            trust_bound_check(np.ones((2, 2)))
        with pytest.raises(ValueError, match="separability_from_groups: .*nonempty"):
            separability_from_groups(self.GOOD, np.array([]), 0.1, 0.05)
        with pytest.raises(ValueError, match="separability_from_groups: .*1-D"):
            separability_from_groups(np.ones((2, 2)), self.GOOD, 0.1, 0.05)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="trust_bound_check: .*finite"):
            trust_bound_check(np.array([0.1, np.inf]))
        with pytest.raises(ValueError, match="ratio_bound_check: .*finite"):
            ratio_bound_check(np.array([0.1, np.nan]), self.GOOD)
        with pytest.raises(ValueError, match="ratio_bound_check: .*finite"):
            ratio_bound_check(self.GOOD, np.array([0.1, np.nan]))
        with pytest.raises(ValueError, match="separability_from_groups: .*finite"):
            separability_from_groups(np.array([0.1, np.nan]), self.GOOD, 0.1, 0.05)

    def test_rejects_values_outside_the_unit_interval(self):
        # outside [0, 1] the bounds' exp overflowed and tau_clean underflowed to 0
        with pytest.raises(ValueError, match=r"^trust_bound_check: .*\[0, 1\]"):
            trust_bound_check([0.0, 100.0])
        with pytest.raises(ValueError, match=r"^ratio_bound_check: .*\[0, 1\]"):
            ratio_bound_check([0.0], [-800.0])
        with pytest.raises(ValueError, match=r"^ratio_bound_check: .*\[0, 1\]"):
            ratio_bound_check([800.0], [799.0])
        with pytest.raises(ValueError, match=r"^separability_from_groups: .*\[0, 1\]"):
            separability_from_groups(self.GOOD, [1.5], 0.1, 0.05)


class TestTrustBounds:
    def test_constant_sample_jensen_is_tight(self):
        report = trust_bound_check(np.full(10, 0.4))
        assert report["empirical_tau"] == pytest.approx(math.exp(-0.4), abs=1e-15)
        assert report["jensen_lower"] == pytest.approx(report["empirical_tau"], abs=1e-15)
        assert report["jensen_satisfied"] and report["hoeffding_satisfied"]

    def test_two_point_closed_form(self):
        report = trust_bound_check(np.array([0.0, 1.0]))
        assert report["empirical_tau"] == pytest.approx((1 + math.exp(-1)) / 2, abs=1e-9)
        assert report["empirical_tau"] == pytest.approx(0.683940, abs=1e-6)
        assert report["jensen_lower"] == pytest.approx(math.exp(-0.5), abs=1e-9)
        assert report["jensen_lower"] == pytest.approx(0.606531, abs=1e-6)
        assert report["hoeffding_upper"] == pytest.approx(math.exp(-0.5 + 1.0 / 8.0), abs=1e-9)
        assert report["hoeffding_upper"] == pytest.approx(0.687289, abs=1e-6)
        assert report["jensen_satisfied"] and report["hoeffding_satisfied"]

    def test_uniform_draws_always_satisfy_both_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = rng.random(int(rng.integers(2, 500)))
            report = trust_bound_check(values)
            assert report["jensen_satisfied"]
            assert report["hoeffding_satisfied"]
            assert report["jensen_lower"] <= report["hoeffding_upper"]


class TestRatioBound:
    def test_constant_groups_equality(self):
        report = ratio_bound_check(np.full(5, 0.2), np.full(5, 0.8))
        assert report["tau_ratio"] == pytest.approx(math.exp(-0.6), abs=1e-9)
        assert report["tau_ratio"] == pytest.approx(0.548812, abs=1e-6)
        assert report["correction"] == 0.0
        assert report["ratio_bound"] == pytest.approx(report["tau_ratio"], abs=1e-12)
        assert report["ratio_bound_satisfied"]
        assert report["gap_exceeds_correction"]

    def test_separated_uniform_groups(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            clean = rng.uniform(0.0, 0.3, size=80)
            noisy = rng.uniform(0.7, 1.0, size=60)
            report = ratio_bound_check(clean, noisy)
            assert report["tau_ratio"] < 1.0
            assert report["ratio_bound_satisfied"]

    def test_identical_distributions_report_no_gap(self):
        values = np.linspace(0, 1, 50)
        report = ratio_bound_check(values, values.copy())
        assert report["complexity_gap"] == pytest.approx(0.0, abs=1e-12)
        assert not report["gap_exceeds_correction"]

    def test_bound_holds_for_arbitrary_groups(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            clean = rng.random(int(rng.integers(1, 60)))
            noisy = rng.random(int(rng.integers(1, 60)))
            report = ratio_bound_check(clean, noisy)
            assert report["ratio_bound_satisfied"]


class TestSeparability:
    def test_required_size_formula(self):
        assert required_group_size(0.1, 0.05) == 185

    def test_required_size_monotone_in_epsilon_and_delta(self):
        eps_values = [0.05, 0.1, 0.2, 0.4]
        sizes = [required_group_size(e, 0.05) for e in eps_values]
        assert sizes == sorted(sizes, reverse=True)
        delta_values = [0.01, 0.05, 0.2, 0.4]
        sizes = [required_group_size(0.1, d) for d in delta_values]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("epsilon, delta", [
        (1e-200, 0.05),  # epsilon**2 underflows to 0
        (1e-160, 0.05),  # epsilon**2 is subnormal and the size overflows to inf
        (0.1, 1e-310),  # 2/delta overflows to inf
        (1e200, 0.05),  # epsilon**2 overflows
    ])
    def test_size_outside_the_float_range_rejected(self, epsilon, delta):
        with pytest.raises(ValueError, match=r"^required_group_size: group size .* is out of range for "
                                             + re.escape(f"epsilon={epsilon!r}, delta={delta!r}") + "$"):
            required_group_size(epsilon, delta)

    def test_identical_groups_not_separable(self):
        values = np.linspace(0, 1, 300)
        report = separability_from_groups(values, values.copy(), 0.1, 0.05)
        assert report["mean_noisy"] - report["mean_clean"] == pytest.approx(0.0, abs=1e-12)
        assert not report["separable"]

    def test_wide_gap_with_big_groups_is_separable(self):
        clean = np.full(200, 0.1)
        noisy = np.full(200, 0.9)
        report = separability_from_groups(clean, noisy, 0.1, 0.05)
        assert report["separable"]

    def test_small_groups_not_separable_even_with_gap(self):
        report = separability_from_groups(np.full(10, 0.1), np.full(10, 0.9), 0.1, 0.05)
        assert not report["separable"]


def test_imports_only_the_complexity_rule_from_the_package():
    """The checks take plain arrays: theory.py imports the standard library, numpy, and from the
    package only ``complexity``, whose ``check_normalized`` states the range the checks rest on."""
    tree = ast.parse(Path(theory.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "itboost"] == [".complexity"]


def test_only_open_input_opens_a_file_for_reading():
    """Every reader opens its file through ``data.open_input``, so every reader rejects a missing or
    undecodable file the same way: the package's one read-mode ``open(`` is the one inside it."""
    read_opens = []
    for source in sorted(Path(theory.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "open":
                continue
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
            if "r" in mode or "+" in mode:
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                read_opens.append((source.name, getattr(scope, "name", None)))
    assert read_opens == [("data.py", "open_input")]
