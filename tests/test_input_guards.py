"""Each input guard of ``src/mdslab`` raises its own exception and message."""

import pytest

from mdslab import residue
from mdslab.fqpoly import ONE, ZERO, Fq, field
from mdslab.qlaurent import QL_ONE, QLaurent
from mdslab.reducer import DiagonalSeed, local_weight
from mdslab.series import (
    MAX_BOX_BYTES,
    MultiSeries,
    enforce_box_limit,
    expand_factors,
    factorize_product_form,
)


def pipeline_with_diagonal(n, bumps):
    """run_pipeline(n, 3) with the expanded diagonal's x^a raised by bumps[a]."""

    def run(monkeypatch):
        real = residue.expand_diagonal

        def bumped(*args):
            diag = real(*args)
            terms = dict(diag.terms)
            for a, c in bumps.items():
                terms[(a,)] = diag.coeff((a,)) + c
            return MultiSeries(1, diag.bound, terms)

        monkeypatch.setattr(residue, "expand_diagonal", bumped)
        monkeypatch.setattr(residue, "_PIPELINE_CACHE", {})
        residue.run_pipeline(n, 3)

    return run


GUARDS = {
    "Fq-not-prime": (lambda mp: Fq(9), ValueError, "q=9 is not prime"),
    "Fq-not-1-mod-4": (lambda mp: Fq(7), ValueError, "q=7 is not 1 mod 4"),
    "divmod-by-zero": (
        lambda mp: field(5).divmod(ONE, ZERO),
        ZeroDivisionError,
        "division by zero polynomial",
    ),
    "to_monic-zero": (lambda mp: field(5).to_monic(ZERO), ValueError, "zero polynomial"),
    "monic_enum-negative": (
        lambda mp: list(field(5).monic_enum(-1)),
        ValueError,
        "negative degree",
    ),
    "factor-zero": (lambda mp: field(5).factor(ZERO), ValueError, "zero polynomial"),
    "residue_symbol-not-monic": (
        lambda mp: field(5).residue_symbol(ONE, (1, 2)),
        ValueError,
        "modulus must be monic",
    ),
    "local_weight-degree-0": (
        lambda mp: local_weight(0, (1, 0, 0), DiagonalSeed([QL_ONE] * 4)),
        ValueError,
        "prime degree must be positive",
    ),
    "families-n1": (lambda mp: residue.families(1), ValueError, "n must be at least 2"),
    "pipeline-constant": (
        pipeline_with_diagonal(3, {0: QL_ONE}),
        ValueError,
        "pipeline: constant diagonal term is not 1",
    ),
    "pipeline-dominance": (
        pipeline_with_diagonal(3, {1: QL_ONE}),
        ValueError,
        "dominance violation: diagonal ratio at x^1 = ",
    ),
    "pipeline-integrality": (
        pipeline_with_diagonal(3, {1: QLaurent.q_power(5)}),
        ValueError,
        "non-integral exponents in recovered diagonal at a=1",
    ),
    "pipeline-even-series": (
        pipeline_with_diagonal(2, {1: QLaurent.q_power(6)}),
        ValueError,
        "even-series violation at a=1",
    ),
    "series-shape": (
        lambda mp: MultiSeries(1, 2).mul(MultiSeries(2, 2)),
        ValueError,
        "series shape mismatch (nvars/bound)",
    ),
    "box-cost": (
        lambda mp: enforce_box_limit(1, MAX_BOX_BYTES // 8),
        ValueError,
        "the diagonal to degree 134217728 in 1 variables needs about 1.1e+09 bytes",
    ),
    "factor-arity": (
        lambda mp: expand_factors({((1,), 0): 1}, 2, 2),
        ValueError,
        "factor arity mismatch",
    ),
    "product-form-constant": (
        lambda mp: factorize_product_form(MultiSeries(1, 2, {(0,): QLaurent.const(2)})),
        ValueError,
        "product form requires constant term 1",
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_input_guard_raises_its_message(name, monkeypatch):
    call, exc, message = GUARDS[name]
    with pytest.raises(exc) as info:
        call(monkeypatch)
    assert str(info.value).startswith(message)
