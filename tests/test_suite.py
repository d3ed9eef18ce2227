import json
import os
import pickle
import signal
import time

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


def assert_no_child_left():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert_no_child_left()


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
    assert_no_child_left()


@pytest.fixture()
def deadline():
    # a hung run_checks fails the test after 60 s instead of holding the run;
    # a forked worker does not inherit the pending alarm
    def expire(signum, frame):
        raise TimeoutError("run_checks hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Unloadable(Exception):
    # pickles by name, but unpickling calls __init__ with one argument
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("failure", ["exit", "unpicklable", "unloadable"])
def test_a_worker_that_cannot_report_names_its_check(cpus, monkeypatch, deadline, failure):
    class Unpicklable(Exception):
        pass  # local, so pickle cannot find it by name

    def check(seed):
        if failure == "exit":
            os._exit(3)
        raise (Unpicklable("lost") if failure == "unpicklable" else Unloadable(1, 2))

    monkeypatch.setitem(suite.CHECKS, "km:rotation", check)
    cpus(2)
    with pytest.raises(RuntimeError, match="check 'km:rotation'") as info:
        run_checks(["descent:gd", "km:rotation"], seed=4)
    assert {"exit": "exit code 3", "unpicklable": "Unpicklable('lost')",
            "unloadable": "Unloadable('1 and 2')"}[failure] in str(info.value)
    assert_no_child_left()


def test_the_first_failure_in_names_order_is_raised(cpus, monkeypatch, deadline, tmp_path):
    # the later check fails first; the earlier one's exception is raised
    # with its type, and a check after a failure does not start
    def slow(seed):
        time.sleep(0.5)
        raise ValueError("the earlier check")

    def fast(seed):
        raise KeyError("the later check")

    monkeypatch.setitem(suite.CHECKS, "descent:gd", slow)
    monkeypatch.setitem(suite.CHECKS, "km:rotation", fast)
    monkeypatch.setitem(suite.CHECKS, "rate:gd_linear",
                        lambda seed: (tmp_path / "started").touch())
    cpus(2)
    with pytest.raises(ValueError, match="the earlier check") as info:
        run_checks(["descent:gd", "km:rotation", "rate:gd_linear"], seed=4)
    assert "in the worker" in str(info.value.__cause__)
    assert not (tmp_path / "started").exists()
    assert_no_child_left()


def test_more_workers_than_cores_keep_names_order(cpus, monkeypatch, deadline):
    # four workers share the task pipe on any host, over 16 checks of
    # uneven length; the reports still come back in names order
    names = sorted(CHECKS)[:16]
    for i, name in enumerate(names):
        monkeypatch.setitem(suite.CHECKS, name, lambda seed, i=i: (
            time.sleep(0.01 * (i % 3)),
            CheckReport(f"r{i}", str(os.getpid()), True, float(seed), 0))[1])
    cpus(4)
    reports = run_checks(names, seed=1)
    assert [r.check for r in reports] == [f"{name}/r{i}" for i, name in enumerate(names)]
    workers = {r.instance for r in reports}
    assert len(workers) == 4 and str(os.getpid()) not in workers
    assert_no_child_left()


def test_a_worker_that_dies_before_naming_its_check_names_it(cpus, monkeypatch, deadline):
    # the worker dies between taking index 1 and writing it to its stream,
    # so its check has neither an index record nor an outcome
    dump = pickle.dump
    monkeypatch.setattr(pickle, "dump", lambda obj, file: os._exit(5) if obj == 1
                        else dump(obj, file))
    cpus(2)
    with pytest.raises(RuntimeError, match="check 'km:rotation'.*exit code 5"):
        run_checks(["descent:gd", "km:rotation"], seed=4)
    assert_no_child_left()


@pytest.mark.parametrize("usable", [1, 2])
def test_a_name_listed_twice_runs_once(cpus, monkeypatch, tmp_path, usable):
    # the count goes to a file, since a forked worker's calls never reach
    # the parent's memory
    def check(seed):
        with open(tmp_path / "calls", "a") as fh:
            fh.write("x")
        return CheckReport("patched", "once", True, float(seed), 0)

    monkeypatch.setitem(suite.CHECKS, "km:rotation", check)
    cpus(usable)
    reports = run_checks(["km:rotation", "descent:gd", "km:rotation"], seed=4)
    assert (tmp_path / "calls").read_text() == "x"
    assert [r.check for r in reports] == ["km:rotation/patched", "descent:gd/descent_inequality",
                                          "km:rotation/patched"]
    assert_no_child_left()


def test_results_larger_than_a_pipe_arrive_whole(cpus, monkeypatch, deadline):
    # each report carries about 300 KiB of distinct details, more than a
    # pipe holds, so a worker waits on the parent until its turn to be read
    names = ["descent:gd", "km:rotation", "rate:gd_linear"]
    for i, name in enumerate(names):
        details = [f"{i}:{j:07d}" * 100 for j in range(300)]
        monkeypatch.setitem(suite.CHECKS, name, lambda seed, i=i, details=details:
                            CheckReport(f"r{i}", "big", True, float(seed), 0, details))
    cpus(1)
    alone = [r.to_dict() for r in run_checks(names, seed=2)]
    cpus(2)
    forked = [r.to_dict() for r in run_checks(names, seed=2)]
    assert len(json.dumps(forked[0]["details"])) >= 256 * 1024
    assert forked == alone
    assert_no_child_left()


def test_an_interrupted_parent_kills_and_reaps_its_workers(cpus, monkeypatch):
    # KeyboardInterrupt in the parent while both workers run a 30 s check
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setitem(suite.CHECKS, "descent:gd", lambda seed: time.sleep(30))
    monkeypatch.setitem(suite.CHECKS, "km:rotation", lambda seed: time.sleep(30))
    cpus(2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_checks(["descent:gd", "km:rotation"], seed=4)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    assert_no_child_left()


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
