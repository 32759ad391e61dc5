"""Every policy's report against the golden file: the same grants, access and
upi to the bit, and the same rates and selected SNRs to golden.RTOL."""

import numpy as np
import pytest

import golden

from d2dsched import simcore

GOLDEN = golden.load()
CASES = golden.cases()


def _why(name: str) -> str:
    return (f"{name} differs from {golden.PATH} (written with numpy {GOLDEN['numpy']}, "
            f"running numpy {np.__version__}); a change that alters a stream on purpose "
            f"rewrites it with `{golden.WRITER}`")


def test_golden_file_covers_every_case():
    assert GOLDEN["writer"] == golden.WRITER
    assert GOLDEN["rtol"] == golden.RTOL and tuple(GOLDEN["quantiles"]) == golden.QUANTILES
    assert sorted(GOLDEN["reports"]) == sorted(CASES)


def test_changes_name_the_cases_and_fields_that_differ():
    old = GOLDEN["reports"]
    assert golden.changes(old, old) == []
    first, second, *_ = CASES
    new = {name: dict(report) for name, report in old.items() if name != second}
    new[first]["upi"] = [v + 1.0 for v in new[first]["upi"]]
    new[first]["snr_quantiles"] = [[v * (1.0 + 1e-9) for v in q] for q in new[first]["snr_quantiles"]]
    new["extra"] = old[first]
    assert golden.changes(old, new) == [f"{first}: upi, snr_quantiles", "extra: added",
                                        f"{second}: dropped"]


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name):
    got = golden.summary(simcore.run_experiment(CASES[name], n_workers=1))
    assert golden.mismatches(got, GOLDEN["reports"][name]) == [], _why(name)


def test_two_workers_match_one_worker_and_golden():
    # realizations split over two processes reduce to the same report, to the bit;
    # pfs runs each process's block in lockstep
    for name in ("gfs-table5-fixed", "pfs-table5-greedy"):
        one = simcore.run_experiment(CASES[name], n_workers=1)
        two = simcore.run_experiment(CASES[name], n_workers=2)
        for field in ("access_prob", "upi", "selected_rate", "effective_rate",
                      "group_access_prob", "user_group"):
            assert np.array_equal(getattr(one, field), getattr(two, field)), (name, field)
        assert all(np.array_equal(a, b) for a, b in zip(one.selected_snr, two.selected_snr))
        assert golden.mismatches(golden.summary(two), GOLDEN["reports"][name]) == [], _why(name)
