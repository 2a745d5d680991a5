"""The package names that the benchmark in perfbench/ reads.

perfbench/ is imported as it stands: a solve and both audits run under its
tracer, its digest reads the trace columns, and its layer probes run once on
a small case. A deleted or renamed name that the benchmark reads fails here,
in the unit suite, before any benchmark run.
"""

import importlib
import math
from pathlib import Path

import numpy as np

import nmsubgrad as nm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_traces_and_probes_a_planted_ball_case(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads, tracer, probes = map(importlib.import_module, ("workloads", "tracer", "probes"))
    inst = nm.plant_optimum_max_affine(0, 2, 10, spread=0.05, active_scale=2.0)
    case = workloads.make_case(inst, nm.Ball(center=np.zeros(2), radius=1.0), 1.0, 200)
    spans = tracer.Tracer()
    with spans.installed():
        report = nm.solve_nonmonotone(case.problem, case.cfg)
        nm.audit_stepwise(report, case.problem, case.cfg, case.tc)
        nm.audit_rate_bounds(report, case.problem, case.cfg, case.tc)
    assert spans.check(1, report.n_steps) == []
    assert spans.metrics()["problems.eval_calls"] == len(report.k)
    assert workloads.report_columns(report) == [
        getattr(report, name).tolist() for name in workloads.TRACE_COLUMNS]
    layers = probes.layer_probes([case], nm.gen_fermat_weber(0, 2, 27), tmp_path)
    assert all(math.isfinite(v) and v >= 0.0 for v in layers.values()), layers
