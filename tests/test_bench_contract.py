"""The benchmark's traced path (``bench/run.py --trace 1``) wraps names in
the package: ``workloads.instrument`` reads each one with ``getattr`` and
several wrappers read the model as the first positional argument.  These
tests run that instrumentation against the package, so a renamed or dropped
name fails here and not only in a traced benchmark run."""

import math
from pathlib import Path

import numpy as np

from spinlab import counting, exact, gadget, hubs, meanfield, potts
from spinlab.model import SpinSystem

BENCH = Path(__file__).resolve().parent.parent / "bench"
WRAPPED = [
    (hubs, "collapsed_distribution_hub"), (hubs, "build_hub_instance"), (hubs, "sample_hidden_hub"),
    (counting, "oracle_tv_tester"), (counting, "empirical_tester"),
    (counting, "run_generic_reduction"), (counting, "tv_collapsed"), (exact, "tv_collapsed"),
    (exact, "partition_log"), (exact, "tv_exact"), (exact, "restricted_partition_multi"),
    (gadget, "ground_state_mass"), (potts, "collapsed_distribution_F"),
    (potts, "phase_partition_F"), (potts, "sample_hidden_potts"),
    (meanfield, "solve_beta_H"), (meanfield, "log_ratio_g"),
]


def test_instrumentation_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from tracing import Tracer

    originals = {(module.__name__, attr): getattr(module, attr) for module, attr in WRAPPED}
    tracer = Tracer()
    workloads.instrument(tracer)
    assert len(tracer._patches) == len(WRAPPED)
    model = SpinSystem(q=2, n=3, edges=((0, 1, 0.5), (1, 2, -0.3)), field=((0, 1, 0.2),))
    tracer.install(0)
    try:
        for module, attr in WRAPPED:
            assert getattr(module, attr) is not originals[(module.__name__, attr)], attr
        # the four wrappers that read a model from the first argument
        exact.partition_log(model)
        exact.tv_exact(model, model)
        exact.restricted_partition_multi(model, [lambda s: s[:, 0] == 0])
        gadget.ground_state_mass(model)
    finally:
        tracer.uninstall()
    for module, attr in WRAPPED:
        assert getattr(module, attr) is originals[(module.__name__, attr)], attr
    # tv_exact's own two partition_log calls go through the wrapper too
    assert tracer.total("exact.states", range(1)) == 6 * 2**3
    assert {span[0] for span in tracer.spans} >= {
        "exact.partition", "exact.tv_exact", "exact.restricted", "gadget.ground_state_mass"}


def test_hidden_class_table_unpacks_as_the_bench_reads_it():
    # hub-sampling pools its draws by (c1, c2, spin-0 count) descriptors
    G = SpinSystem(q=2, n=4, edges=tuple((u, v, -0.6) for u in range(4) for v in range(u + 1, 4)))
    inst = hubs.build_hub_instance(G, hubs.VARIANT_ANTIFERRO, 0.9, 2, exact.partition_log(G),
                                   enforce_guard=False)
    descriptors, log_count, log_weight = inst.hidden_class_table
    assert all(len(d) == 3 for d in descriptors)
    assert len(descriptors) == len(log_count) == len(log_weight) == 4 * (G.n + 1)
    # 4 hub-spin pairs times 2^N base states
    assert math.isclose(float(np.logaddexp.reduce(log_count)), (G.n + 2) * math.log(2), rel_tol=1e-12)
