import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqeval.datasets import (
    CSV_BLOCK_ROWS,
    CsvFormatError,
    DatasetKind,
    DomainError,
    GAP_HIGH,
    GAP_LOW,
    LabeledSet,
    Split,
    conditional_mean,
    dataset_csv,
    generate,
    read_csv,
    residual_std,
)

ALL_KINDS = list(DatasetKind)

# largest possible std of y - m(x), per kind, for CLT bounds
SIGMA_MAX = {
    DatasetKind.HOMOSCEDASTIC: 0.1,
    DatasetKind.HETEROSCEDASTIC: 0.4,
    DatasetKind.MULTIMODAL: math.sqrt(1.0 + 0.05**2),
    DatasetKind.EPISTEMIC: 0.05,
}


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("split", list(Split))
def test_generate_is_pure(kind, split) -> None:
    a = generate(kind, split, 257, 11)
    b = generate(kind, split, 257, 11)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)


def test_generate_differs_across_seed_kind_split() -> None:
    base = generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, 64, 0)
    assert not np.array_equal(base.xs, generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, 64, 1).xs)
    assert not np.array_equal(base.xs, generate(DatasetKind.HOMOSCEDASTIC, Split.TRAIN, 64, 0).xs)
    assert not np.array_equal(base.xs, generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, 64, 0).xs)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inputs_stay_in_domain(kind) -> None:
    data = generate(kind, Split.TEST, 4096, 3)
    lo, hi = kind.domain
    assert len(data) == 4096
    assert data.xs.min() >= lo and data.xs.max() <= hi


def test_zero_and_negative_n() -> None:
    empty = generate(DatasetKind.MULTIMODAL, Split.TEST, 0, 0)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        generate(DatasetKind.MULTIMODAL, Split.TEST, -1, 0)


def test_epistemic_train_excludes_gap_test_covers_it() -> None:
    train = generate(DatasetKind.EPISTEMIC, Split.TRAIN, 20_000, 5)
    in_gap = (train.xs >= GAP_LOW) & (train.xs <= GAP_HIGH)
    assert not in_gap.any()
    test = generate(DatasetKind.EPISTEMIC, Split.TEST, 20_000, 5)
    in_gap = (test.xs > GAP_LOW) & (test.xs < GAP_HIGH)
    assert in_gap.sum() > 20_000 * 0.2  # roughly 30% of the mass lies in the gap


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_residual_mean_near_zero_at_scale(kind) -> None:
    n = 2**16
    data = generate(kind, Split.TEST, n, 0)
    resid = data.ys - conditional_mean(kind, data.xs)
    bound = 4.0 * SIGMA_MAX[kind] / math.sqrt(n)
    assert abs(resid.mean()) < bound


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_input_mean_matches_uniform_law(kind) -> None:
    n = 2**16
    data = generate(kind, Split.TEST, n, 9)
    lo, hi = kind.domain
    spread = (hi - lo) / math.sqrt(12.0)
    assert abs(data.xs.mean() - (lo + hi) / 2) < 4.0 * spread / math.sqrt(n)


def test_multimodal_mode_balance() -> None:
    n = 2**16
    data = generate(DatasetKind.MULTIMODAL, Split.TEST, n, 2)
    offset = np.cos(2 * np.pi * data.xs)
    clear = np.abs(offset) > 0.2  # points where the two modes are separable
    upper = ((data.ys - 0.5) * offset)[clear] > 0
    frac = upper.mean()
    assert 0.48 <= frac <= 0.52


def test_heteroscedastic_noise_tracks_schedule() -> None:
    n = 2**16
    data = generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, n, 4)
    resid = data.ys - conditional_mean(DatasetKind.HETEROSCEDASTIC, data.xs)
    sd = residual_std(DatasetKind.HETEROSCEDASTIC, data.xs)
    quiet = sd < 0.05
    loud = sd > 0.35
    assert resid[quiet].std() < resid[loud].std() / 3


def test_residual_std_values() -> None:
    assert residual_std(DatasetKind.HOMOSCEDASTIC, 0.3) == pytest.approx(0.1)
    assert residual_std(DatasetKind.HETEROSCEDASTIC, 0.0) == pytest.approx(0.4)
    x = 1.0 / 3.0  # 1.5 pi x = pi / 2, noise vanishes
    assert residual_std(DatasetKind.HETEROSCEDASTIC, x) == pytest.approx(0.0, abs=1e-12)
    assert residual_std(DatasetKind.MULTIMODAL, 0.5) == pytest.approx(0.05)
    assert residual_std(DatasetKind.EPISTEMIC, 0.5) == pytest.approx(0.05)


def test_conditional_mean_values() -> None:
    assert conditional_mean(DatasetKind.HOMOSCEDASTIC, 0.0) == pytest.approx(1.0)
    assert conditional_mean(DatasetKind.MULTIMODAL, 0.9) == pytest.approx(0.5)
    assert conditional_mean(DatasetKind.EPISTEMIC, 0.25) == pytest.approx(0.5 + math.cos(math.pi))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_domain_errors(kind) -> None:
    lo, hi = kind.domain
    with pytest.raises(DomainError):
        residual_std(kind, hi + 0.1)
    with pytest.raises(DomainError):
        conditional_mean(kind, np.array([lo, lo - 0.5]))


def test_labeled_set_validation_and_immutability() -> None:
    with pytest.raises(ValueError):
        LabeledSet(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LabeledSet(np.array([np.nan]), np.array([1.0]))
    data = LabeledSet(np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        data.xs[0] = 2.0


def test_csv_round_trip(tmp_path) -> None:
    data = generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, 100, 13)
    path = tmp_path / "data.csv"
    path.write_text("".join(dataset_csv(data)), encoding="utf-8", newline="\n")
    text = path.read_text(encoding="utf-8")
    assert text.startswith("x,y\n")
    assert "\r" not in text
    back = read_csv(path)
    assert np.array_equal(back.xs, data.xs)
    assert np.array_equal(back.ys, data.ys)


def test_streamed_dataset_csv_equals_string_built_text() -> None:
    n = 2 * CSV_BLOCK_ROWS + 7  # a short last chunk
    data = generate(DatasetKind.MULTIMODAL, Split.TEST, n, 5)
    chunks = list(dataset_csv(data))
    assert len(chunks) == 4  # header and three blocks of rows
    # reference: the row-at-a-time text of the file writer this replaced
    rows = "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(data.xs, data.ys))
    assert "".join(chunks) == "x,y\n" + rows


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_csv_round_trip_arbitrary_floats(tmp_path_factory, pairs) -> None:
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    xs = np.array([p[0] for p in pairs], dtype=np.float64)
    ys = np.array([p[1] for p in pairs], dtype=np.float64)
    path.write_text("".join(dataset_csv(LabeledSet(xs, ys))), encoding="utf-8", newline="\n")
    back = read_csv(path)
    assert np.array_equal(back.xs, xs)
    assert np.array_equal(back.ys, ys)


def test_csv_parse_errors_name_line_numbers(tmp_path) -> None:
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("u,v\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as err:
        read_csv(bad_header)
    assert err.value.line == 1

    bad_field = tmp_path / "b.csv"
    bad_field.write_text("x,y\n1.0,oops\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as err:
        read_csv(bad_field)
    assert err.value.line == 2

    bad_arity = tmp_path / "c.csv"
    bad_arity.write_text("x,y\n1.0,2.0\n3.0,4.0,5.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as err:
        read_csv(bad_arity)
    assert err.value.line == 3

    non_finite = tmp_path / "d.csv"
    non_finite.write_text("x,y\n1.0,inf\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as err:
        read_csv(non_finite)
    assert err.value.line == 2
