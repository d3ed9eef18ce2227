import json
import multiprocessing
import os

import pytest

from proxsplit.suite import CHECKS, CONTROLS, run_checks


def test_registry_names_are_wellformed():
    assert set(CHECKS).isdisjoint(CONTROLS)
    for name in list(CHECKS) + list(CONTROLS):
        assert ":" in name


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        run_checks(["spectral:radius"])


def test_reports_identical_across_reruns():
    names = ["rate:gd_linear", "km:rotation", "contraction:prox",
             "equiv:dr_cp", "descent:gd"]
    first = [r.to_dict() for r in run_checks(names, seed=5)]
    second = [r.to_dict() for r in run_checks(names, seed=5)]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_seed_flows_into_sampled_checks():
    a = run_checks(["contraction:gradient"], seed=1)[0]
    b = run_checks(["contraction:gradient"], seed=2)[0]
    assert a.passed and b.passed
    assert a.worst_margin != b.worst_margin  # different sampled pairs


def test_controls_expandable_and_failing():
    reports = run_checks(["controls"], seed=0)
    assert reports and all(not r.passed for r in reports)


@pytest.fixture()
def cpus(monkeypatch):
    # how many CPUs run_checks sees as usable
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return use


def test_pooled_reports_equal_the_in_process_ones(cpus):
    cpus(1)
    alone = [r.to_dict() for r in run_checks(["all"], seed=3)]
    cpus(2)
    pooled = [r.to_dict() for r in run_checks(["all"], seed=3)]
    assert json.dumps(pooled, sort_keys=True) == json.dumps(alone, sort_keys=True)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("usable,other_thread,forked", [(2, False, True), (1, False, False),
                                                         (2, True, False)])
def test_pooled_workers_run_patched_checks(cpus, monkeypatch, usable, other_thread, forked):
    # one usable CPU, or another thread in the caller, keeps the checks in
    # process; a worker runs the registry as patched before the fork
    import threading

    import proxsplit.suite as suite
    from proxsplit.certify import CheckReport

    pid = os.getpid()
    monkeypatch.setitem(suite.CHECKS, "km:rotation", lambda seed: CheckReport(
        "patched", str(os.getpid() != pid), True, float(seed), 0))
    cpus(usable)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    if other_thread:
        waiter.start()
    try:
        reports = run_checks(["descent:gd", "km:rotation"], seed=4)
    finally:
        release.set()
        if other_thread:
            waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert [r.check for r in reports] == ["descent:gd/descent_inequality",
                                          "km:rotation/patched"]
    assert (reports[1].instance, reports[1].worst_margin) == (str(forked), 4.0)
    assert multiprocessing.active_children() == []


def test_admm_consensus_stops_at_its_fixed_point(monkeypatch):
    import proxsplit.suite as suite

    original, traces = suite.admm, []

    def spy(*args, **kwargs):
        traces.append(original(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(suite, "admm", spy)
    reports = run_checks(["admm:consensus"])
    assert [r.details[0]["first_hit"] for r in reports] == [20, 21]
    assert all(r.passed for r in reports)
    assert len(traces) == 2
    for trace in traces:
        assert trace.termination == "tol_reached" and trace.n_iter < 100


def test_tv_denoise_agreement_rests_on_certified_gaps():
    (report,) = run_checks(["recipes:tv_denoise"])
    assert report.passed
    best = min(d["objective"] for d in report.details)
    assert [d["recipe"] for d in report.details] == ["condat", "cp", "dr_split", "dual_fb"]
    for d in report.details:
        # the gap bounds objective - P*, and best >= P*
        assert 0.0 <= d["objective"] - best <= d["gap"]
        assert d["gap"] <= 1e-10 * (1.0 + abs(d["objective"]))
