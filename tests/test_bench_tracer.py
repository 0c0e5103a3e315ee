"""The benchmark's layer tracer still finds every name it wraps in crlab.

``bench/tracer.py`` patches crlab functions by name and reads
``HermitianForm.entries``; a rename or deletion there would otherwise show
only in a traced benchmark run.  It counts operator application through
``LinOp.__call__`` and polynomial products through ``SpherePoly.__mul__``,
so those must stay the entry points of the product kernel.  A weighted
gradient pairing calls neither ``inner`` nor the product: each of its
integrals is one pass of the pairing kernel over numerator maps.  An
eigenvalue check reads the operator's restriction, so it builds no basis
and applies nothing.  Nothing under ``bench/`` is written.
"""

import crlab
from conftest import load_bench

tracer_module = load_bench("tracer")


def test_tracer_counts_calls_through_the_public_names():
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        crlab.assemble_form(crlab.KOHN, 1)
        crlab.inner(crlab.z1, crlab.z1)
        crlab.KOHN(crlab.z1c)
        crlab.z1 * crlab.z2
    finally:
        tracer.uninstall()
    stats = tracer.aggregate()
    assert stats["variation.assemble_form.calls"] == 1
    assert stats["integration.inner.calls"] == 1
    assert stats["variation.form_entries"] == 16
    assert stats["operators.apply.calls"] == 1
    assert stats["spherepoly.mul.calls"] == 1


def test_weighted_pairing_forms_no_product(monkeypatch):
    from crlab import integration
    from crlab.variation import _weights

    _weights(crlab.z1, 1)  # |phi|^2 and the weight are memoised products
    f2 = crlab.basis(2, 0).elements[2]
    kernel = integration._pair_into
    passes = []

    def counted(*args):
        passes.append(args)
        return kernel(*args)

    monkeypatch.setattr(integration, "_pair_into", counted)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        crlab.weighted_gradient_pairing(crlab.z1, 1, 1, "holomorphic", crlab.z1, crlab.z1)
        diagonal = len(passes)
        crlab.weighted_gradient_pairing(crlab.z1, 1, 2, "holomorphic", crlab.z1, f2)
    finally:
        tracer.uninstall()
    stats = tracer.aggregate()
    assert stats["integration.inner.calls"] == 0
    assert stats["spherepoly.mul.calls"] == 0
    # Both integrals on the diagonal, the weighted one alone off it.
    assert (diagonal, len(passes) - diagonal) == (2, 1)


def test_eigenvalue_check_builds_no_basis_and_applies_nothing():
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert crlab.common_eigenvalue(crlab.KOHN, 2, 1) == 6
    finally:
        tracer.uninstall()
    stats = tracer.aggregate()
    assert stats["operators.common_eigenvalue.calls"] == 1
    assert stats["operators.apply.calls"] == 0
    assert stats["harmonics.basis.calls"] == 0
