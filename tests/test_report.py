import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perfcast.errors import TooFewPoints, ZeroVariance
from perfcast.experiments import ExperimentResult
from perfcast.report import (
    ScatterPoint,
    ScatterSeries,
    emit_report,
    lowess,
    r_squared,
    scatter_from_predictions,
)

from oracles import oracle_lowess, oracle_lowess_per_point


def result(mean=1.0, std=0.1, importance=None):
    return ExperimentResult(
        per_repeat_rmse=[mean - std, mean + std],
        mean_rmse=mean,
        std_rmse=std,
        chosen_params={"all": {"kind": "poly"}},
        predictions=[("r1", 1.0, 1.1), ("r2", 2.0, 1.9)],
        importance=importance,
    )


class TestLowess:
    def test_collinear_points_exact(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 10, size=25))
        y = 2.5 * x - 1.0
        for frac in (0.3, 0.5, 1.0):
            fitted = lowess(list(zip(x, y)), frac=frac)
            np.testing.assert_allclose(fitted, y, atol=1e-9)

    def test_constant_y(self):
        x = np.linspace(0, 1, 15)
        fitted = lowess(list(zip(x, np.full(15, 3.25))), frac=0.4)
        np.testing.assert_allclose(fitted, 3.25, atol=1e-12)

    def test_matches_weighted_least_squares_oracle(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(-2, 2, size=40))
        y = x ** 2 + 0.3 * rng.normal(size=40)
        fitted = lowess(list(zip(x, y)), frac=0.5)
        expected = oracle_lowess(x, y, 0.5)
        np.testing.assert_allclose(fitted, expected, atol=1e-9)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            lowess([(1.0, 2.0)], frac=0.5)
        with pytest.raises(TooFewPoints):
            lowess([(1.0, 2.0), (1.0, 3.0)], frac=0.5)  # no distinct x

    def test_bad_frac(self):
        with pytest.raises(ValueError):
            lowess([(0.0, 0.0), (1.0, 1.0)], frac=0.0)


@st.composite
def lowess_inputs(draw):
    """Points with heavily tied, mirrored or spread x and duplicated points, and a frac giving any r from 1 to n."""
    n = draw(st.integers(2, 60))
    x = st.one_of(
        st.integers(0, 4).map(float),
        st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5]),
        st.floats(-1e3, 1e3),
    )
    points = draw(st.lists(st.tuples(x, st.floats(-1e3, 1e3)), min_size=n, max_size=n))
    points += [points[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=n))]
    assume(len({px for px, _ in points}) >= 2)
    frac = draw(st.sampled_from([0.5 / len(points), 1.0]) | st.floats(0.05, 1.0))
    return points, frac


class TestLowessWindows:
    """The windowed lowess against one full (distance, index) sort per point."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lowess_inputs())
    def test_matches_per_point_sort_bit_for_bit(self, inputs):
        points, frac = inputs
        assert lowess(points, frac) == oracle_lowess_per_point(points, frac)

    @pytest.mark.parametrize("kind, n, frac", [("uniform", 900, 0.5), ("integer", 700, 0.2), ("integer", 300, 0.05)])
    def test_large_inputs(self, kind, n, frac):
        rng = np.random.default_rng(n)
        x = rng.uniform(0, 100, n) if kind == "uniform" else rng.integers(0, 30, n).astype(float)
        points = list(zip(x, x + rng.normal(size=n)))
        assert lowess(points, frac) == oracle_lowess_per_point(points, frac)


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_zero(self):
        t = [1.0, 2.0, 3.0, 6.0]
        m = float(np.mean(t))
        assert r_squared([m] * 4, t) == pytest.approx(0.0, abs=1e-15)

    def test_oracle(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=50)
        p = t + 0.3 * rng.normal(size=50)
        ss_res = sum((a - b) ** 2 for a, b in zip(t, p))
        ss_tot = sum((a - np.mean(t)) ** 2 for a in t)
        assert r_squared(p, t) == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)

    def test_never_above_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = rng.normal(size=10)
            p = rng.normal(size=10)
            assert r_squared(p, t) <= 1.0

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            r_squared([1.0, 2.0], [5.0, 5.0])
        with pytest.raises(ZeroVariance):
            r_squared([1.0], [5.0])


class TestEmitReport:
    def scatter(self):
        rng = np.random.default_rng(4)
        pts = []
        for i in range(20):
            true = float(rng.uniform(0, 40))
            pts.append(ScatterPoint(
                record_id=f"r{i}", true=true, pred=true + float(rng.normal()),
                language=("deu", "fra", "kor")[i % 3],
                joshi_class=(1, 3, 5)[i % 3],
                language_family=("indo-european", "koreanic")[i % 2],
            ))
        return ScatterSeries(points=tuple(pts))

    def test_summary_row_per_result(self, tmp_path):
        out = str(tmp_path / "out")
        emit_report([("cfg-a", result(1.0)), ("cfg-b", result(2.0))], out)
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[0] == "configuration,mean_rmse,std_rmse,repeats"
        assert len(lines) == 3
        assert lines[1].startswith("cfg-a,1.0000,")
        md = (tmp_path / "out" / "summary.md").read_text()
        assert "| cfg-a | 1.0000 ± 0.1000 | 2 |" in md

    def test_group_tables(self, tmp_path):
        out = str(tmp_path / "out")
        emit_report([("cfg", result())], out, scatter=self.scatter())
        joshi = (tmp_path / "out" / "groups_joshi.csv").read_text().splitlines()
        assert joshi[0] == "joshi_class,count,rmse"
        assert len(joshi) == 1 + 3  # distinct classes 1, 3, 5
        family = (tmp_path / "out" / "groups_family.csv").read_text().splitlines()
        assert len(family) == 1 + 2

    def test_scatter_file(self, tmp_path):
        out = str(tmp_path / "out")
        emit_report([("cfg", result())], out, scatter=self.scatter(), lowess_frac=0.6)
        lines = (tmp_path / "out" / "scatter.csv").read_text().splitlines()
        assert lines[0].startswith("# r_squared=")
        assert "lowess_frac=0.6000" in lines[0]
        assert lines[1] == "record_id,true,pred,lowess,language,joshi_class,language_family"
        assert len(lines) == 2 + 20

    def test_importance_sorted_descending(self, tmp_path):
        out = str(tmp_path / "out")
        emit_report([("cfg", result(importance={"a": 0.25, "b": 0.5, "c": 0.25}))], out)
        lines = (tmp_path / "out" / "importance.csv").read_text().splitlines()
        assert lines[0] == "feature,importance"
        assert [l.split(",")[0] for l in lines[1:]] == ["b", "a", "c"]

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        for out in (out1, out2):
            emit_report([("cfg", result(importance={"a": 0.7, "b": 0.3}))], out, scatter=self.scatter())
        for name in ("summary.csv", "summary.md", "groups_joshi.csv", "groups_family.csv",
                     "scatter.csv", "importance.csv"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()

    def test_csv_only_format(self, tmp_path):
        out = str(tmp_path / "out")
        emit_report([("cfg", result())], out, fmt="csv")
        assert (tmp_path / "out" / "summary.csv").exists()
        assert not (tmp_path / "out" / "summary.md").exists()

    def test_cells_with_commas_and_quotes_read_back(self, tmp_path):
        pts = tuple(
            ScatterPoint(rid, 10.0 * i, 10.0 * i + 1, lang, joshi, family)
            for i, (rid, lang, joshi, family) in enumerate([
                ("r,1", "deu", 5, "Indo-European, Germanic"),
                ('r"2', "kor", None, "Koreanic"),
                ("r3", "x,y", 4, "Indo-European, Germanic"),
            ])
        )
        out = tmp_path / "out"
        emit_report([("gbt, lolo", result(importance={"a,b": 0.75, "c": 0.25}))], str(out),
                    scatter=ScatterSeries(pts), lowess_frac=1.0)

        def table(name, skip=0):
            with open(out / name, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[skip:]
            assert {len(row) for row in rows} == {len(rows[0])}, name
            return rows[1:]

        assert [row[0] for row in table("summary.csv")] == ["gbt, lolo"]
        assert [row[0] for row in table("groups_family.csv")] == ["Indo-European, Germanic", "Koreanic"]
        assert [row[0] for row in table("groups_joshi.csv")] == ["4", "5", "unknown"]
        scatter = table("scatter.csv", skip=1)
        assert [(row[0], row[4], row[5], row[6]) for row in scatter] == [
            ("r,1", "deu", "5", "Indo-European, Germanic"),
            ('r"2', "kor", "", "Koreanic"),
            ("r3", "x,y", "4", "Indo-European, Germanic"),
        ]
        assert [row[0] for row in table("importance.csv")] == ["a,b", "c"]

    def test_requires_results(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], str(tmp_path / "out"))


class TestGoldenReport:
    """Frozen full-output fixture: any formatting drift shows up as a diff."""

    GOLDEN = {
        "summary.csv": "configuration,mean_rmse,std_rmse,repeats\ndemo,1.2500,0.2500,2\n",
        "summary.md": (
            "| Configuration | RMSE (mean ± std) | Repeats |\n"
            "|---|---|---|\n"
            "| demo | 1.2500 ± 0.2500 | 2 |\n"
        ),
        "groups_joshi.csv": "joshi_class,count,rmse\n4,1,1.5000\n5,2,0.7906\n",
        "groups_family.csv": "language_family,count,rmse\nindo-european,2,0.7906\nkoreanic,1,1.5000\n",
        "scatter.csv": (
            "# r_squared=0.9825 lowess_frac=1.0000\n"
            "record_id,true,pred,lowess,language,joshi_class,language_family\n"
            "r1,10.0000,11.0000,11.0000,deu,5,indo-european\n"
            "r2,20.0000,18.5000,18.5000,kor,4,koreanic\n"
            "r3,30.0000,30.5000,30.5000,deu,5,indo-european\n"
        ),
        "importance.csv": "feature,importance\nproxy:p0,0.6250\njsd,0.3750\n",
    }

    def test_matches_frozen_output(self, tmp_path):
        res = ExperimentResult(
            per_repeat_rmse=[1.0, 1.5], mean_rmse=1.25, std_rmse=0.25,
            chosen_params={"all": {"kind": "gbt"}},
            predictions=[("r1", 10.0, 11.0), ("r2", 20.0, 18.5)],
            importance={"proxy:p0": 0.625, "jsd": 0.375},
        )
        pts = (
            ScatterPoint("r1", 10.0, 11.0, "deu", 5, "indo-european"),
            ScatterPoint("r2", 20.0, 18.5, "kor", 4, "koreanic"),
            ScatterPoint("r3", 30.0, 30.5, "deu", 5, "indo-european"),
        )
        out = tmp_path / "out"
        emit_report([("demo", res)], str(out), scatter=ScatterSeries(pts), lowess_frac=1.0)
        for name, expected in self.GOLDEN.items():
            assert (out / name).read_text() == expected, name


class TestScatterFromPredictions:
    def test_labels_joined(self):
        series = scatter_from_predictions(
            [("r1", 1.0, 1.5)], {"r1": ("deu", 5, "indo-european")}
        )
        pt = series.points[0]
        assert (pt.language, pt.joshi_class, pt.language_family) == ("deu", 5, "indo-european")

    def test_missing_info_defaults(self):
        series = scatter_from_predictions([("r9", 1.0, 2.0)])
        pt = series.points[0]
        assert pt.language == "" and pt.joshi_class is None
