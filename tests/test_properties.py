"""Randomized cross-checks of the projected quotient routes against the
full-basis oracle, in each of the three elimination kernels' fields."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefschetz_kit.linalg import (
    DEFAULT_PRIME,
    FAST_PRIME,
    RATIONALS,
    RationalMatrix,
    matrix_rank,
    prime_field,
)
from lefschetz_kit.monomials import enumerate_degree_piece
from lefschetz_kit.quotient import (
    IdealSpec,
    form_from_coefficients,
    ideal_degree_basis,
    injectivity_threshold_check,
    linear_form,
    multiplication_kernel,
    multiplication_map_rank,
    wlp_sweep,
)

# Q, then the numpy kernel (p < 2^31), then the Python-int kernel
FIELDS = (RATIONALS, prime_field(FAST_PRIME), prime_field(DEFAULT_PRIME))

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


@st.composite
def map_cases(draw):
    n = draw(st.integers(1, 5))
    a = draw(st.sampled_from((2, 3)))
    degree_a = enumerate_degree_piece(n, a)
    forms = tuple(
        form_from_coefficients(a, {m: draw(st.integers(-3, 3)) for m in degree_a})
        for _ in range(draw(st.integers(1, 2))))
    ell = linear_form([draw(st.integers(-5, 5)) for _ in range(n)])
    d = draw(st.integers(1, a + 2))
    return IdealSpec(n=n, a=a, extra_forms=forms), d, ell


def _oracle_rank(spec, d, ell, field_tag):
    """rank(I_d + ell * R_{d-1}) - rank(I_d) over the full monomial basis."""
    ideal = [list(r) for r in ideal_degree_basis(spec, d).entries]
    col = {m.exponents: i for i, m in enumerate(enumerate_degree_piece(spec.n, d))}
    lifted = []
    for m in enumerate_degree_piece(spec.n, d - 1):
        row = [0] * len(col)
        for mm, c in ell.terms:
            row[col[tuple(x + y for x, y in zip(m.exponents, mm.exponents))]] += c
        lifted.append(row)

    def rank(rows):
        return matrix_rank(RationalMatrix.from_rows(rows, cols=len(col),
                                                    field_tag=field_tag))

    return rank(ideal + lifted) - rank(ideal)


@PROPERTY
@given(map_cases())
def test_map_rank_matches_full_basis_oracle(case):
    spec, d, ell = case
    for tag in FIELDS:
        assert (multiplication_map_rank(spec, d, ell, mode=tag)["rank"]
                == _oracle_rank(spec, d, ell, tag)), tag


@PROPERTY
@given(map_cases())
def test_kernel_dimension_is_rank_deficit(case):
    spec, d, ell = case
    info = multiplication_map_rank(spec, d, ell, mode=RATIONALS)
    assert (len(multiplication_kernel(spec, d, ell))
            == info["dim_below"] - info["rank"])


@PROPERTY
@given(st.integers(2, 5), st.sampled_from((2, 3)),
       st.lists(st.integers(1, 10**6), min_size=1, max_size=2, unique=True),
       st.data())
def test_injectivity_table_and_sweep_agree(n, a, seeds, data):
    records = wlp_sweep(n, a, seeds).records
    assume(len(records) >= a)
    d = data.draw(st.integers(a, min(a + 2, len(records))))
    row = injectivity_threshold_check(a, d, [n], seeds, RATIONALS)[0]
    assert row["rank"] == records[d - 1].map_rank
