"""Shared fixtures."""

import pytest

from lerchlab.harness import CHECK_GROUPS, run_suite


@pytest.fixture(scope="session")
def default_suite(tmp_path_factory):
    """One `run_suite(deterministic_timing=True)` of the default suite,
    shared by the golden-list test and the acceptance criteria.

    Returns (exit_code, records, by_group), where by_group maps each
    group name to the records it produced in that run.
    """
    by_group = {}

    def capture(name, group):
        def captured(cfg, rng):
            by_group[name] = group(cfg, rng)
            return by_group[name]
        return captured

    out = tmp_path_factory.mktemp("default_suite")
    with pytest.MonkeyPatch.context() as mp:
        for name, group in list(CHECK_GROUPS.items()):
            mp.setitem(CHECK_GROUPS, name, capture(name, group))
        code, records = run_suite(json_path=out / "full.json",
                                  csv_path=out / "full.csv",
                                  deterministic_timing=True)
    return code, records, by_group
