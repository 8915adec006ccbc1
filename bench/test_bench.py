"""Self-tests of the benchmark: seeded inputs, the expected-answer checker
and the tracer.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import argparse
import copy
import os
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import ops  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


def test_inputs_are_seeded_and_a_short_list_is_a_prefix():
    long = workloads.generate("holonomy", 3, length=40)
    short = workloads.generate("holonomy", 3, length=20)
    assert [(o.kind, o.a) for o in long[:20]] == [(o.kind, o.a) for o in short]
    assert [o.a for o in workloads.generate("holonomy", 4, length=20)] != [o.a for o in short]
    assert Counter(o.kind for o in long[20:]) == dict(workloads.HOLONOMY_BLOCK)


def test_signature_closed_form():
    assert workloads.signature_closed_form((F(1, 10),) * 3) == (0, 2, 0)
    assert workloads.signature_closed_form((F(1, 13), F(2, 13), F(0)))[2] == 1


def test_percentile_keeps_ten_samples_beyond_p90():
    assert run.percentile(range(1, 101), 0.9) == (90, 10)


def test_worker_counts_a_wrong_expectation_as_failed(monkeypatch):
    op = next(o for o in workloads.generate("holonomy", 5, length=20) if o.kind == "2")
    wrong = copy.deepcopy(op)
    p, q, kernel = wrong.expect["signature"]
    wrong.expect["signature"] = (p, q, kernel + 1)
    monkeypatch.setattr(worker.workloads, "generate", lambda *args: [op, wrong])
    args = argparse.Namespace(
        workload="holonomy", seed=0, mode="pass", ops=2, offset=0, src=SRC, workdir=None, spans=None
    )
    out = worker.run(args)
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert "op 1" in out["errors"][0] and "signature" in out["errors"][0]
    assert len(out["scaled"]) == 2 and all(t > 0 for t in out["scaled"])


def test_only_flagged_eigenvalues_make_a_signature_undecided():
    from arrconn.numkernel import Signature

    # A_4 at a = (6/7, -6/11, 3/11, 6/7, 4/9): one eigenvalue of the
    # invariant form lands in the program's ambiguity band
    flagged = Signature(2, 1, 1, (-3.79e-07,))
    assert ops._ambiguous_miss(flagged, (2, 2, 0))
    assert ops._ambiguous_miss(Signature(1, 2, 1, (-3.79e-07,)), (3, 1, 0))  # up to sign
    assert not ops._ambiguous_miss(Signature(2, 1, 1), (2, 2, 0))
    assert not ops._ambiguous_miss(Signature(1, 1, 2, (-3.79e-07,)), (2, 2, 0))
    assert not ops._ambiguous_miss(Signature(2, 2, 0, (-3.79e-07,)), (2, 2, 0))


@pytest.fixture(scope="module")
def exact():
    mods = ops.import_program("exact-sweep")
    return mods, {"arr": mods.lauricella.build_An(3)}


@pytest.mark.parametrize("corrupt", [None, (1, 3)])
def test_exact_checker_accepts_the_program_and_rejects_a_wrong_answer(exact, corrupt):
    mods, state = exact
    a = (F(1, 3), F(-2, 5), F(3, 7), F(1, 2))
    op = workloads.Op("x", 3, a, workloads._exact_expectations(a, corrupt), corrupt)
    output = ops.run_op("exact-sweep", mods, state, op)
    assert ops.check("exact-sweep", op, output) == []
    wrong = copy.deepcopy(op)
    if corrupt is None:
        wrong.expect["recovered"] = (F(0),) + a[1:]
    else:
        wrong.expect["flat"] = not wrong.expect["flat"]
    assert ops.check("exact-sweep", wrong, output)


def test_cli_checker_rejects_a_wrong_exit_code(tmp_path):
    mods = ops.import_program("cli-cold")
    chosen = {}
    for op in workloads.cli_cold_ops(9, 20, str(tmp_path)):
        chosen.setdefault(op.kind, op)
    for kind in ("check-3", "recover-3", "recover-corrupt-3"):
        op = chosen[kind]
        output = ops.run_op("cli-cold", mods, {}, op)
        assert ops.check("cli-cold", op, output) == []
        wrong = copy.deepcopy(op)
        wrong.expect["exit"] = 1 - op.expect["exit"]
        assert ops.check("cli-cold", wrong, output)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_wraps_names_imported_into_other_modules(tracer):
    import arrconn.connection as con
    import arrconn.lauricella as lau

    assert lau.check_flat is con.check_flat
    assert lau.check_flat.__wrapped__.__module__ == "arrconn.connection"
    tracer.op = 0
    lau.recover_parameters(lau.reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(1, 5)]))
    tracer.op = None
    names = {s[0]: s for s in tracer.spans}
    flat = names["connection.check_flat"]
    assert tracer.spans[flat[3]][0] == "lauricella.recover_parameters"
    metrics = layer_metrics(tracer)
    assert metrics["connection.check_flat.calls"][0] == 1
    assert metrics["arrangement.build_lattice.calls"][0] == 1
    assert metrics["arrangement.flats"][0] > 0
    assert metrics["numkernel.ode_transport.calls"][0] == 0


def test_uninstall_restores_the_program():
    import arrconn.lauricella as lau

    original = lau.check_flat
    t = Tracer()
    t.install()
    t.uninstall()
    assert lau.check_flat is original


def test_rhs_count_repeats_exactly(tracer):
    import arrconn.holonomy as hol
    import arrconn.lauricella as lau

    conn = lau.reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
    counts = []
    for op in (0, 1):
        tracer.op = op
        hol.holonomy_report(conn, tol=1e-8)
        tracer.op = None
        counts.append(tracer.counts["numkernel.rhs_evals"])
    assert counts[0] > 0 and counts[1] == 2 * counts[0]
    metrics = layer_metrics(tracer)
    assert metrics["holonomy.irreducibility.words"][0] > 0
    assert metrics["holonomy.holonomy.s"][0] >= 0.0


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, 0, False), ("b", 1.0, 4.0, 0, 0, False), ("c", 2.0, 3.0, 1, 0, False)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "holonomy", "--seed", "1", "--seconds", "1"]) == 2
