from oracles import equivalence_suite, format_report


def test_every_equivalence_case_passes():
    cases = equivalence_suite()
    assert cases and all(c.passed for c in cases), format_report(cases)
