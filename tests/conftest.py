import pytest

from odesym.casebook import run_case


@pytest.fixture(scope="session")
def case_report():
    """run_case with each case run at most once per test session.

    Reports are only read by the tests that share them.
    """
    reports = {}

    def run(case_id):
        if case_id not in reports:
            reports[case_id] = run_case(case_id)
        return reports[case_id]

    return run
