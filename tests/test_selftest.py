"""Each rewritten suite of `qdp4 selftest` fails when the closed form, the
list or the group it checks is wrong."""

import time
import tracemalloc

import numpy as np
import pytest

from qdp4 import kgroups, picard, selftest
from qdp4.cli import main
from qdp4.hyperoct import all_signed_perms


@pytest.fixture
def fresh_weyl_group():
    picard.weyl_group.cache_clear()
    yield
    picard.weyl_group.cache_clear()


@pytest.mark.parametrize("space", ["picard", "wpl", "torsion", "surface-k0"])
def test_rank_formulas_fail_when_one_closed_form_is_off_by_one(monkeypatch, space):
    closed_form = kgroups.g_invariant_rank
    monkeypatch.setattr(kgroups, "g_invariant_rank",
                        lambda sig, where: closed_form(sig, where) + (where == space))
    ok, detail = selftest.suite_rank_formulas()
    assert not ok and detail.startswith("mismatch at") and detail.endswith(f"on {space}")


_SPACES = ("picard", "wpl", "torsion", "surface-k0")


@pytest.mark.parametrize("changed,first", [
    ({(1234, "wpl")}, (1234, "wpl")),
    ({(2500, "picard"), (700, "surface-k0")}, (700, "surface-k0")),
    ({(700, "surface-k0"), (700, "torsion")}, (700, "torsion"))])
def test_rank_formulas_name_the_first_element_major_mismatch(monkeypatch, changed, first):
    # Burnside ranks off by one at the changed (element, space) pairs: the
    # detail names the lowest element, then the first space in suite order
    stacks = {space: kgroups.action_matrices(space) for space in _SPACES}
    burnside = kgroups.burnside_ranks

    def bumped(stack):
        space = next(s for s in _SPACES if np.array_equal(stack, stacks[s]))
        ranks = burnside(stack)
        for i, where in changed:
            ranks[i] += where == space
        return ranks

    monkeypatch.setattr(kgroups, "burnside_ranks", bumped)
    i, space = first
    assert selftest.suite_rank_formulas() == (False, f"mismatch at {all_signed_perms()[i]} on {space}")


def test_zero_class_census_fails_when_a_class_is_missing(monkeypatch):
    listed = picard.zero_classes()
    monkeypatch.setattr(picard, "zero_classes", lambda: listed[:4] + listed[5:])
    ok, detail = selftest.suite_zero_class_census()
    assert not ok and detail.startswith("9 classes")


def test_weyl_order_fails_with_a_non_root_generator(monkeypatch, fresh_weyl_group):
    # -I in place of the reflection in one root: the closure doubles to W x {+-I}
    reflection = picard.reflection_matrix
    first = picard.roots()[0]
    monkeypatch.setattr(picard, "reflection_matrix", lambda r: -np.eye(6, dtype=np.int64)
                        if r == first else reflection(r))
    ok, detail = selftest.suite_weyl_order()
    assert not ok and detail.startswith("closure order 3840")


_E1_PLUS_E2 = np.array([0, 1, 1, 0, 0, 0])


@pytest.mark.parametrize("generator,detail", [
    # the reflection in E1 + E2: square -2 but K-pairing -2, not a root; it
    # has infinite order together with the others, and entries grow slowly
    (np.eye(6, dtype=np.int64) + np.outer(_E1_PLUS_E2, _E1_PLUS_E2 * picard._FORM),
     f"the reflection closure exceeds {picard._CLOSURE_BOUND} elements"),
    (200 * np.eye(6, dtype=np.int64), "the reflection closure has an entry outside int8")])
def test_weyl_order_fails_with_a_generator_of_infinite_order(monkeypatch, fresh_weyl_group,
                                                             generator, detail):
    reflection = picard.reflection_matrix
    first = picard.roots()[0]
    monkeypatch.setattr(picard, "reflection_matrix",
                        lambda r: generator if r == first else reflection(r))
    start = time.perf_counter()
    assert selftest.suite_weyl_order() == (False, detail)
    assert time.perf_counter() - start < 10


def test_a_failing_or_raising_suite_prints_fail_and_exits_1(monkeypatch, capsys):
    def crash():
        raise RuntimeError("kaput")

    monkeypatch.setattr(selftest, "SUITES", (("passes", lambda: (True, "fine")),
                                             ("fails", lambda: (False, "off by one")),
                                             ("raises", crash)))
    assert selftest.run_all() == 2
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == 2 * [
        "PASS passes: fine", "FAIL fails: off by one", "FAIL raises: exception: kaput"]


def test_whole_group_passes_allocate_little(fresh_weyl_group):
    # the chunks bound the temporaries: the closure's products and the powers
    tracemalloc.start()
    try:
        picard.weyl_group()
        assert tracemalloc.get_traced_memory()[1] <= 2_000_000
        for space in _SPACES:
            stack = kgroups.action_matrices(space)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            kgroups.burnside_ranks(stack)
            assert tracemalloc.get_traced_memory()[1] - start <= 500_000
    finally:
        tracemalloc.stop()
