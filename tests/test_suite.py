import json
import multiprocessing
import os

import pytest

import proxsplit.suite as suite
from proxsplit.certify import CheckReport
from proxsplit.solvers import SolverConfig, gradient_descent
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


@pytest.mark.parametrize("name", ["lyapunov:gd_singular", "rate:fista",
                                  "nonconvex:double_well", "nonconvex:hard_threshold"])
def test_replayed_tail_equals_the_full_run(name, monkeypatch):
    # each check once as it runs, stopped at its fixed point with the tail
    # replayed, and once with every iteration run
    settled, traces, reports = suite._settled_run, {}, {}

    def full_run(solve, max_iter, **knobs):
        return solve(SolverConfig(max_iter=max_iter, **knobs))

    for key, run in (("replayed", settled), ("full", full_run)):
        def spy(solve, max_iter, **knobs):
            ran = []

            def solve_once(cfg):
                ran.append(solve(cfg))
                return ran[-1]

            traces[key] = run(solve_once, max_iter, **knobs)
            traces[key + "_ran"] = ran[0]
            return traces[key]

        monkeypatch.setattr(suite, "_settled_run", spy)
        out = CHECKS[name](3)
        out = [out] if isinstance(out, CheckReport) else out
        reports[key] = json.dumps([r.to_dict() for r in out])

    full, replayed = traces["full"], traces["replayed"]
    assert traces["replayed_ran"].termination == "tol_reached"
    assert traces["replayed_ran"].n_iter < 1000
    assert full.n_iter == replayed.n_iter == 10_000
    assert full.termination == replayed.termination == "iter_cap"
    assert full.objective.tobytes() == replayed.objective.tobytes()
    assert full.residual.tobytes() == replayed.residual.tobytes()
    assert set(replayed.extras) == set(full.extras) - {"inertia_coef"}
    for column, values in replayed.extras.items():
        assert values.tobytes() == full.extras[column].tobytes(), column
    assert len(replayed.iterates) == len(full.iterates)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(replayed.iterates, full.iterates))
    assert full.x.tobytes() == replayed.x.tobytes()
    assert reports["replayed"] == reports["full"]


def test_replay_leaves_an_unsettled_trace_as_it_is():
    f = suite.anisotropic_quadratic()
    trace = gradient_descent(f, [1.0, 1.0], SolverConfig(max_iter=5, stop_at_fixed_point=True))
    assert trace.termination == "iter_cap"
    assert suite._replay_settled(trace, 50) is trace
