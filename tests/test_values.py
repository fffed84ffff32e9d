"""Value semantics of the package's records: groups and elements, the
verdicts, witnesses and pairs the commands print, and the scan report."""
import pytest

from fsrecon.acceptance import CriterionResult
from fsrecon.counterexamples import build
from fsrecon.groups import GroupElement, GroupSpec, cyclic
from fsrecon.multisets import Multiset, sim0_check
from fsrecon.ofs import BRANCH_HALF_MINUS_ONE, is_member
from fsrecon.search import ScanReport, regularity_scan


def assert_equal_values(x, y):
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_groups_are_values():
    g = GroupSpec((4, 0))
    assert_equal_values(g, GroupSpec([4, 0]))
    assert g != GroupSpec((0, 4)) and g != GroupSpec((4,)) and g != (4, 0)
    assert cyclic(5) != cyclic(7)
    assert repr(g) == "GroupSpec(moduli=(4, 0))"
    assert str(g) == "Z/4 x Z" and str(GroupSpec(())) == "0"


def test_elements_are_values_of_one_group():
    g = GroupSpec((4, 0))
    x = g.element((5, -3))
    assert_equal_values(x, GroupElement([1, -3], GroupSpec((4, 0))))
    assert x != g.element((1, 3)) and x != (1, -3)
    # The same coordinates in two groups: unequal, and two keys of one dict.
    a, b = cyclic(5).element((1,)), cyclic(7).element((1,))
    assert a != b and not a == b
    assert len({a: 0, b: 0}) == 2
    assert repr(x) == "<(1, -3) in Z/4 x Z>" and str(x) == "(1, -3)"
    assert repr(a) == "<1 in Z/5>" and str(a) == "1"


@pytest.mark.parametrize("value,name", [
    (GroupSpec((3,)), "moduli"),
    (GroupSpec((3,)), "other"),
    (cyclic(3).element((1,)), "coords"),
    (cyclic(3).element((1,)), "group"),
    (cyclic(3).element((1,)), "other"),
    (is_member(17), "member"),
    (sim0_check(Multiset.from_elements(cyclic(5), [1, 4]),
                Multiset.from_elements(cyclic(5), [4, 1]))[1], "flip_set"),
    (build(17), "verified"),
])
def test_immutable_values_refuse_assignment(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, None)


def test_ofs_verdict_is_a_value_with_ordered_fields():
    v = is_member(97)
    assert_equal_values(v, is_member(97))
    assert v != is_member(17)
    obj = v.to_obj()
    assert list(obj) == ["n", "member", "ord2", "phi", "branch"]
    assert obj == {"n": 97, "member": False, "ord2": 48, "phi": 96, "branch": BRANCH_HALF_MINUS_ONE}


def test_witnesses_and_pairs_are_values():
    z5 = cyclic(5)
    a, b = Multiset.from_elements(z5, [1, 4]), Multiset.from_elements(z5, [4, 1])
    witness = sim0_check(a, b)[1]
    assert_equal_values(witness, sim0_check(b, a)[1])
    assert witness.flip_set == Multiset(z5) and witness.sum_check == z5.zero()
    pair = build(17)
    assert_equal_values(pair, build(17))
    assert pair != build(31)
    assert list(pair.to_obj()) == ["n", "d", "k", "a", "a_prime", "verified"]


def test_criterion_results_compare_by_fields():
    r = CriterionResult(3, "name", True, "ok", 0.25)
    assert r == CriterionResult(3, "name", True, "ok", 0.25)
    assert r != CriterionResult(3, "name", False, "ok", 0.25)
    assert r.line() == "ACCEPTANCE  3 [PASS] name: ok (0.25s)"
    assert list(r.to_obj()) == ["number", "name", "pass", "detail", "seconds"]


def test_scan_reports_are_mutable_records():
    report = ScanReport(group=cyclic(5), max_size=3, bound=None)
    assert (report.violations, report.exhaustive, report.checked) == ([], True, 0)
    report.checked += 2
    assert report.to_obj()["checked"] == 2
    scanned = regularity_scan(cyclic(5), 3).to_obj()
    assert list(scanned) == [
        "group", "max_size", "bound", "violations", "exhaustive", "checked", "min_violation_size",
    ]
