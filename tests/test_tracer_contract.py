"""The bench harness's tracer patches dheac from outside the package.

perfbench/tracer.py wraps every function named in its TRACED table in each
dheac module that binds it, and its per-span hooks read a few attributes of
the arguments and results. A rename or deletion in the package that breaks
the traced harness should fail here, in the package's own tests.
"""

import importlib.util
import os
import sys

import dheac
import dheac.cli
from dheac import NetworkConfig, build_embedded

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                           "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_dheac_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded dheac module, by identity."""
    return {(key, attr): id(value)
            for key, mod in sorted(sys.modules.items())
            if key == "dheac" or key.startswith("dheac.")
            for attr, value in vars(mod).items()}


def test_tracer_installs_runs_and_restores_every_binding(tmp_path):
    tracer_mod = _load_tracer()
    before = _bindings()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for short, names in tracer_mod.TRACED.items():
            home = sys.modules[f"dheac.{short}"]
            for name in names:
                assert getattr(home, name) is not tracer.originals[
                    f"{short}.{name}"], f"{short}.{name} was not patched"
        # the hooks read trials, net.m, req.k_req, DEFAULT_BETA,
        # len(state.amplitudes) and report.failures
        out = tmp_path / "out.csv"
        assert dheac.cli.main(["fairness", "--ms", "4", "--demands", "0.4",
                               "--skews", "1", "--trials", "10000",
                               "--out", str(out)]) == 0
        assert dheac.cli.main(["fairness", "--method", "mc", "--ms", "4",
                               "--demands", "0.4", "--skews", "1",
                               "--trials", "10000", "--out", str(out)]) == 0
        assert dheac.cli.main(["verify-quantum", "--caps", "3,3,3,3",
                               "--k-req", "4", "--draws", "2000"]) == 0
        # no CLI path calls enum_partitions, so call its patched binding;
        # its hook reads len(out)
        assert len(dheac.partition.enum_partitions(4, (3, 3, 3))) == 12
    finally:
        tracer.restore()
    assert _bindings() == before
    names = list(tracer.name_ids)
    for name in ("cli.main", "partition.enum_partitions",
                 "lottery.exact_node_probs",
                 "lottery.estimate_fairness", "qverify.build_embedded",
                 "qverify.verify_state"):
        assert name in names
    extras = [tracer.extras.get(sid, {}) for sid in range(len(tracer.start))]
    assert any("subsets" in e for e in extras)
    assert any("outcomes" in e for e in extras)
    assert any("chi2_reject" in e for e in extras)
    assert {"vectors": 12} in extras


def test_names_the_tracer_reads_outside_its_table_exist():
    state = build_embedded(NetworkConfig.from_caps((3, 3, 3, 3)), 4, 2)
    assert len(state.amplitudes) == 6
    assert isinstance(dheac.lottery.DEFAULT_BETA, float)
