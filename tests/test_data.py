"""Tests for synthetic generation and LIBSVM ingestion."""

import os
import tracemalloc

import numpy as np
import pytest

from adagram import cli
from adagram.data import (
    CorrelationKind,
    CorrelationSpec,
    DataError,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_libsvm,
    parse_libsvm,
)
from adagram.glm import sigmoid
from helpers import correlation_matrix, serialize_libsvm


class TestCorrelationSpec:
    def test_isotropic_matrix(self):
        np.testing.assert_array_equal(
            correlation_matrix(CorrelationSpec(CorrelationKind.ISOTROPIC, 4)), np.eye(4)
        )

    def test_tridiagonal_matrix(self):
        m = correlation_matrix(CorrelationSpec(CorrelationKind.TRIDIAGONAL, 3, rho=0.4))
        np.testing.assert_allclose(
            m, [[1, 0.4, 0], [0.4, 1, 0.4], [0, 0.4, 1]]
        )

    def test_dense_toeplitz_entry(self):
        m = correlation_matrix(CorrelationSpec(CorrelationKind.DENSE, 5, rho=0.95))
        assert m[0, 4] == pytest.approx(0.95**4)
        np.testing.assert_array_equal(np.diag(m), np.ones(5))
        np.testing.assert_allclose(m, m.T)

    def test_default_rhos(self):
        assert CorrelationSpec(CorrelationKind.TRIDIAGONAL, 4).rho == 0.45
        assert CorrelationSpec(CorrelationKind.DENSE, 4).rho == 0.95


class TestGenerateSynthetic:
    def test_isotropic_empirical_correlation(self):
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.ISOTROPIC, 5),
                             n_samples=10000, seed=0)
        ds = generate_synthetic(spec)
        corr = np.corrcoef(ds.x, rowvar=False)
        assert np.abs(corr - np.eye(5)).max() <= 0.05

    def test_tridiagonal_empirical_correlation(self):
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.TRIDIAGONAL, 5, rho=0.45),
                             n_samples=10000, seed=1)
        ds = generate_synthetic(spec)
        corr = np.corrcoef(ds.x, rowvar=False)
        assert np.abs(corr - correlation_matrix(spec.corr)).max() <= 0.05

    def test_dense_empirical_correlation(self):
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.DENSE, 5, rho=0.95),
                             n_samples=10000, seed=2)
        ds = generate_synthetic(spec)
        corr = np.corrcoef(ds.x, rowvar=False)
        assert np.abs(corr - correlation_matrix(spec.corr)).max() <= 0.05

    def test_non_pd_correlation_rejected(self):
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.TRIDIAGONAL, 50, rho=0.6),
                             n_samples=10)
        with pytest.raises(DataError, match="tridiagonal"):
            generate_synthetic(spec)

    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.DENSE, 6),
                             n_samples=64, seed=7)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_labels_binary_and_both_present(self):
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.ISOTROPIC, 4),
                             n_samples=500, seed=3)
        ds = generate_synthetic(spec)
        assert ds.n_classes == 2
        assert set(np.unique(ds.y)) == {0, 1}

    def test_explicit_theta_star(self):
        theta = np.array([5.0, 0.0, 0.0])
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.ISOTROPIC, 3),
                             n_samples=2000, theta_star=theta, seed=4)
        ds = generate_synthetic(spec)
        # Labels must correlate with the first feature's sign.
        agreement = np.mean((ds.x[:, 0] > 0) == (ds.y == 1))
        assert agreement > 0.75

    def test_theta_star_shape_checked(self):
        with pytest.raises(DataError):
            SyntheticSpec(CorrelationSpec(CorrelationKind.ISOTROPIC, 3),
                          theta_star=np.ones(4))


def eigvalsh_min(spec):
    return float(np.linalg.eigvalsh(correlation_matrix(spec)).min())


class TestClosedForms:
    """color() and min_eigenvalue() against the dense n x n oracle."""

    RHOS = (-0.7, 0.0, 0.45, 0.95)

    @pytest.mark.parametrize("kind", list(CorrelationKind))
    @pytest.mark.parametrize("n", [1, 2, 14, 200])
    def test_color_matches_cholesky(self, kind, n):
        rng = np.random.default_rng(n)
        for rho in self.RHOS:
            spec = CorrelationSpec(kind, n, rho=rho)
            if eigvalsh_min(spec) <= 1e-8:
                continue  # no Cholesky factor for this kind and rho
            z = rng.standard_normal((40, n))
            want = z @ np.linalg.cholesky(correlation_matrix(spec)).T
            got = spec.color(z)
            assert got is z  # colored in place
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", list(CorrelationKind))
    @pytest.mark.parametrize("n", [1, 2, 14, 200])
    def test_min_eigenvalue(self, kind, n):
        for rho in self.RHOS:
            spec = CorrelationSpec(kind, n, rho=rho)
            value, bound = spec.min_eigenvalue()
            assert bound == (kind is CorrelationKind.DENSE and n > 1)
            if bound:
                assert value <= eigvalsh_min(spec) + 1e-12
            else:
                assert value == pytest.approx(eigvalsh_min(spec), abs=1e-12)

    @pytest.mark.parametrize("kind", list(CorrelationKind))
    @pytest.mark.parametrize("n", [1, 2, 14, 50])
    def test_refusal_matches_eigvalsh_rule(self, kind, n):
        for rho in (-1.5, -1.0, -0.99, 0.0, 0.45, 0.6, 0.95, 0.999, 1.0, 1.5):
            spec = CorrelationSpec(kind, n, rho=rho)
            refused = eigvalsh_min(spec) <= 1e-8
            try:
                generate_synthetic(SyntheticSpec(spec, n_samples=4))
            except DataError as exc:
                assert refused, f"rho={rho} newly refused: {exc}"
                assert ("lower bound" in str(exc)) == (kind is CorrelationKind.DENSE)
            else:
                assert not refused, f"rho={rho} newly accepted"

    @pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
    def test_no_dense_allocation(self, kind):
        # One 4096 x 4096 float array is 128 MiB; stay below an eighth of it.
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind(kind), 4096),
                             n_samples=64, seed=0)
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_draw_matches_dense_oracle(self, seed):
        # The same rng draws in the same order as z @ cholesky(C).T, C dense.
        spec = SyntheticSpec(CorrelationSpec(CorrelationKind.DENSE, 1023),
                             n_samples=400, seed=seed)
        ds = generate_synthetic(spec)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(1023)
        theta *= 3.0 / np.linalg.norm(theta)
        z = rng.standard_normal((400, 1023))
        x = z @ np.linalg.cholesky(correlation_matrix(spec.corr)).T
        y = (rng.random(400) < sigmoid(x @ theta)).astype(int)
        assert np.linalg.norm(ds.x - x) <= 1e-13 * np.linalg.norm(x)
        assert np.array_equal(ds.y, y)

    @pytest.mark.parametrize("kind", list(CorrelationKind))
    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rho_rejected(self, kind, rho):
        with pytest.raises(DataError, match="rho must be finite"):
            CorrelationSpec(kind, 4, rho=rho)


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:-1.2\n")
        assert ds.n_features == 3
        np.testing.assert_allclose(ds.x, [[0.5, 0.0, -1.2]])
        np.testing.assert_array_equal(ds.y, [0])  # single class maps to 0

    def test_minus_plus_labels(self):
        ds = parse_libsvm("-1 2:1\n+1 1:2\n")
        np.testing.assert_allclose(ds.x, [[0, 1], [2, 0]])
        np.testing.assert_array_equal(ds.y, [0, 1])
        assert ds.n_classes == 2

    def test_one_two_labels_remapped(self):
        ds = parse_libsvm("1 1:1\n2 1:2\n")
        np.testing.assert_array_equal(ds.y, [0, 1])

    def test_multiclass_labels(self):
        ds = parse_libsvm("3 1:1\n1 1:1\n2 1:1\n")
        np.testing.assert_array_equal(ds.y, [2, 0, 1])
        assert ds.n_classes == 3

    def test_bare_label_row(self):
        ds = parse_libsvm("1 1:1\n-1\n")
        np.testing.assert_allclose(ds.x[1], [0.0])

    def test_malformed_token_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_libsvm("1 1:1\n1 nonsense\n")

    def test_bad_label_reports_line(self):
        with pytest.raises(DataError, match="line 1"):
            parse_libsvm("abc 1:1\n")
        with pytest.raises(DataError, match="line 1: bad label 'nan'"):
            parse_libsvm("nan 1:0.5\nnan 1:0.2\n1 1:0.3\ninf 1:1\n")
        with pytest.raises(DataError, match="line 2: bad label '-inf'"):
            parse_libsvm("1 1:0.3\n-inf 1:1\n")

    def test_non_increasing_indices(self):
        with pytest.raises(DataError, match="line 1"):
            parse_libsvm("1 2:1 2:3\n")
        with pytest.raises(DataError, match="increasing"):
            parse_libsvm("1 3:1 2:3\n")

    def test_zero_index_rejected(self):
        with pytest.raises(DataError):
            parse_libsvm("1 0:1\n")

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            parse_libsvm("\n\n")

    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 6))
        x[rng.random((12, 6)) < 0.4] = 0.0
        y = rng.integers(0, 2, 12)
        ds = Dataset(x, y, n_classes=2, name="rt")
        again = parse_libsvm(serialize_libsvm(ds))
        assert np.array_equal(again.x, ds.x)
        assert np.array_equal(again.y, ds.y)

    def test_round_trip_with_zero_last_column(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0]])
        ds = Dataset(x, np.array([0, 1]), n_classes=2)
        again = parse_libsvm(serialize_libsvm(ds))
        assert again.n_features == 2
        assert np.array_equal(again.x, x)


def random_libsvm(rng: np.random.Generator) -> tuple[str, list[float], np.ndarray]:
    """LIBSVM text with dense, sparse and bare-label rows, blank lines, mixed
    separators and line ends, several label spellings and exponents; and the
    labels and dense rows it wrote, each read back by float()."""
    n_features = int(rng.integers(1, 9))
    label_texts = ["+1", "-1", "1", "2", "0.5", "-2e0", "3", "1.0E+1"]
    lines, labels, rows = [], [], []
    for i in range(int(rng.integers(1, 25))):
        kind = "dense" if i == 0 else rng.choice(["dense", "sparse", "bare", "blank"])
        if kind == "blank":
            lines.append(rng.choice(["", "  ", "\t"]))
            continue
        idx = (np.arange(1, n_features + 1) if kind == "dense" else
               np.flatnonzero(rng.random(n_features) < 0.4) + 1 if kind == "sparse" else [])
        tokens = [str(rng.choice(label_texts))]
        labels.append(float(tokens[0]))
        rows.append(np.zeros(n_features))
        for j in idx:
            v = float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6))
            text = rng.choice([repr(v), f"{v:.3e}", f"{v:.6E}", str(int(v)), f"+{abs(v)!r}"])
            tokens.append(f"{j}:{text}")
            rows[-1][j - 1] = float(text)
        seps = [str(rng.choice([" ", "\t", "   ", " \t "])) for _ in tokens]
        lines.append(str(rng.choice(["", " "])) + "".join(t + s for t, s in zip(tokens, seps)))
    text = "".join(line + str(rng.choice(["\n", "\r\n"])) for line in lines)
    return text if rng.random() < 0.5 else text.rstrip("\r\n"), labels, np.array(rows)


class TestParseFastPath:
    """The bulk conversion against what a line-by-line reading of the text
    gives: int() of each index and float() of each label and value, and for
    malformed text the first bad line, numbered from the start of the input."""

    @staticmethod
    def outcome(text):
        try:
            ds = parse_libsvm(text, name="t")
        except (DataError, ValueError) as exc:
            return type(exc), str(exc)
        return ds.x.shape, ds.x.tobytes(), ds.y.tolist(), ds.n_classes, ds.name

    @pytest.mark.parametrize("seed", range(40))
    def test_random_text_matches_the_line_parser_bitwise(self, seed):
        text, labels, x = random_libsvm(np.random.default_rng(seed))
        ds = parse_libsvm(text)
        classes = sorted(set(labels))
        assert ds.x.shape == x.shape and ds.x.tobytes() == x.tobytes()
        assert ds.y.tolist() == [classes.index(label) for label in labels]
        assert ds.n_classes == len(classes)

    @pytest.mark.parametrize("text, message", [
        ("1 1:1\n1 nonsense\n", "line 2: bad feature token 'nonsense'"),
        ("1 5 1:2:3\n", "line 1: bad feature token '5'"),  # colon counts even out
        ("1 1 2:3:4\n", "line 1: bad feature token '1'"),  # ... and indices increase
        ("1 1:2:3\n", "line 1: bad feature token '1:2:3'"),
        ("1 1.0:5\n", "line 1: bad feature token '1.0:5'"),
        ("1 1:\n", "line 1: bad feature token '1:'"),
        ("1 :5\n", "line 1: bad feature token ':5'"),
        ("abc 1:1\n", "line 1: bad label 'abc'"),
        ("1:1 2:2\n", "line 1: bad label '1:1'"),
        ("1 1:1\nnan 1:0.5\n", "line 2: bad label 'nan'"),
        ("1 1:1\n-inf 1:1\n", "line 2: bad label '-inf'"),
        ("1 2:1 2:3\n", "line 1: indices must be increasing and >= 1, got 2"),
        ("1 1:1\n1 3:1 2:3\n", "line 2: indices must be increasing and >= 1, got 2"),
        ("1 0:1\n", "line 1: indices must be increasing and >= 1, got 0"),
        ("1 -1:1\n", "line 1: indices must be increasing and >= 1, got -1"),
        ("\n \n\t\n", "empty LIBSVM input"),
        ("1 1:nan\n", "dataset 't' contains non-finite features"),
        ("1 1:1e999\n", "dataset 't' contains non-finite features"),
        ("1 99999999999999999999:1\n",  # not int64
         "line 1: feature index 99999999999999999999 is too large"),
        ("1 1:1\n1 2:1 99999999999:1\n\n1 3:1\n", "line 2: feature index 99999999999 is too large"),
        ("1 1:1\n" * 32 + "1 x\n", "line 33: bad feature token 'x'"),  # the second block
        ("1 1:1\n" * 32 + "\n" * 8 + "nan 1:1\n" + "1 1:1\n" * 29, "line 41: bad label 'nan'"),
        ("-1 1:1\n" * 40 + "1 3:1 2:1\n" + "1 1:1\n" * 29,
         "line 41: indices must be increasing and >= 1, got 2"),
    ])
    def test_malformed_input_keeps_the_line_parsers_message(self, text, message):
        assert self.outcome(text)[1] == message

    @pytest.mark.parametrize("text", ["1 1_0:5\n", "1 1:1_5\n", "+1 2:-0.0\n", "1 01:1\n"])
    def test_tokens_int_and_float_accept_read_alike(self, text):
        idx, val = text.split()[1].split(":")
        want = np.zeros((1, int(idx)))
        want[0, -1] = float(val)
        assert self.outcome(text)[:2] == (want.shape, want.tobytes())

    def test_bad_line_of_a_pipe_is_reported(self, capsys):
        lines = (line for line in ["1 1:1", "0 x"])  # no seek, no second pass
        with pytest.raises(DataError, match="^line 2: bad feature token 'x'$"):
            parse_libsvm(lines)
        r, w = os.pipe()
        try:
            os.write(w, b"1 1:1\n0 x\n")
            os.close(w)
            argv = ["--dataset", f"/dev/fd/{r}", "--optimizer", "sgd", "--epochs", "1"]
            assert cli.main(argv) == cli.EXIT_CONFIG
        finally:
            os.close(r)
        assert "error: line 2: bad feature token 'x'\n" in capsys.readouterr().err

    def test_huge_index_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "huge.libsvm"
        path.write_text("1 99999999999:1\n")
        argv = ["--dataset", str(path), "--optimizer", "sgd", "--epochs", "1"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "error: line 1: feature index 99999999999 is too large\n" in capsys.readouterr().err

    def test_file_reports_a_bad_line_before_a_later_bad_byte(self, tmp_path):
        good = "1 1:1\n" * 2000  # past one read chunk
        files = {"late": good + "1 1:\xe9\n", "bad_line_first": "1 x\n" + good + "1 1:\xe9\n"}
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("latin-1"))
        with open(tmp_path / "late", encoding="ascii") as fh:
            with pytest.raises(UnicodeDecodeError) as ref:
                list(fh)
        with pytest.raises(UnicodeDecodeError) as err:
            load_libsvm(str(tmp_path / "late"))
        assert str(err.value) == str(ref.value)
        with pytest.raises(DataError, match="line 1: bad feature token 'x'"):
            load_libsvm(str(tmp_path / "bad_line_first"))
        for name in files:
            argv = ["--dataset", str(tmp_path / name), "--optimizer", "sgd", "--epochs", "1"]
            assert cli.main(argv) == cli.EXIT_CONFIG


def test_dataset_rejects_non_finite():
    with pytest.raises(DataError):
        Dataset(np.array([[np.inf]]), np.array([0]), n_classes=2)
