"""CLI surface: subcommands, files, exit codes, config precedence."""

from __future__ import annotations

import csv
import inspect
import json
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from click.testing import CliRunner

from loadsizer.analytic import solve_n_load
from loadsizer.cli import main, read_config
from loadsizer.dispatch import combo_histogram, dispatch_greedy, utilization
from loadsizer.ecls import line_search_C, sensitivity_table
from loadsizer.errors import UsageError
from loadsizer.icls import optimize_m
from loadsizer.milp import branch_and_bound
from loadsizer.timeseries import load_series, normalize


@pytest.fixture()
def runner():
    return CliRunner()


def write_csv(path, values, start=datetime(2021, 6, 1), interval=900):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "power_w"])
        for k, v in enumerate(values):
            writer.writerow([(start + k * timedelta(seconds=interval)).isoformat(), f"{v:.4f}"])
    return path


@pytest.fixture()
def small_csv(tmp_path):
    rng = np.random.default_rng(5)
    days = []
    for _ in range(3):
        arch = np.sin(np.linspace(0, np.pi, 40)) * rng.uniform(0.6, 1.0)
        days.append(np.concatenate([np.zeros(28), arch * 1000, np.zeros(28)]))
    return write_csv(tmp_path / "small.csv", np.concatenate(days))


def test_fit_writes_model(runner, clear_day_csv, tmp_path):
    result = runner.invoke(
        main, ["fit", str(clear_day_csv), "--output-dir", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    model = json.loads((tmp_path / "model.json").read_text())
    assert set(model) == {"a", "b", "c", "alpha", "beta", "gamma", "p1", "p2", "p3", "t_max", "y_max"}
    assert model["b"] == pytest.approx(0.006952, rel=0.02)


def test_size_analytic_clear_day(runner, clear_day_csv, tmp_path):
    result = runner.invoke(
        main,
        ["size", "--method", "analytic", "--n", "1", str(clear_day_csv), "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "result_analytic_n1.json").read_text())
    assert payload["solar_utilization"] == pytest.approx(0.56, abs=0.01)
    header = (tmp_path / "schedule_analytic_n1.csv").read_text().splitlines()[0]
    assert header == "timestamp,S,u_1,captured,mismatch"


def test_size_ecls_constant_fixture(runner, tmp_path):
    path = write_csv(tmp_path / "const.csv", np.full(80, 500.0))
    result = runner.invoke(
        main,
        ["size", "--method", "ecls", "--n", "2", str(path), "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "result_ecls_n2.json").read_text())
    assert payload["solar_utilization"] == pytest.approx(1.0, abs=1e-9)


def test_size_milp_three_point_fixture(runner, tmp_path):
    path = write_csv(tmp_path / "three.csv", np.array([300.0, 600.0, 900.0]))
    result = runner.invoke(
        main,
        [
            "size", "--method", "milp", "--n", "2", str(path),
            "--ratio", "1", "--gap", "0", "--output-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "result_milp_n2.json").read_text())
    assert payload["objective"] == pytest.approx(0.0, abs=1e-9)
    assert sorted(payload["x"], reverse=True) == pytest.approx([2 / 3, 1 / 3], abs=1e-9)


def test_size_icls_reports_qp_work(runner, small_csv, tmp_path):
    result = runner.invoke(
        main,
        ["size", "--method", "icls", "--n", "3", str(small_csv), "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    diagnostics = json.loads((tmp_path / "result_icls_n3.json").read_text())["diagnostics"]
    solves = diagnostics["qp_solves"]
    assert solves > 0
    assert diagnostics["active_set_iterations"] >= solves
    assert 0 < diagnostics["warm_start_hits"] <= solves
    header = (tmp_path / "schedule_icls_n3.csv").read_text().splitlines()[0]
    assert header == "timestamp,S,u_1,u_2,u_3,captured,mismatch"


def test_schedule_command(runner, tmp_path):
    path = write_csv(tmp_path / "three.csv", np.array([300.0, 600.0, 900.0]))
    result = runner.invoke(
        main,
        ["schedule", "--sizes", "0.6667,0.3333", str(path), "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "schedule.csv").read_text().splitlines()
    assert len(lines) == 4


def test_schedule_keeps_the_input_utc_offset(runner, tmp_path):
    # one day at 15 min from 05:00+02:00; the histogram bins by that local time
    start = datetime(2021, 6, 21, 5, tzinfo=timezone(timedelta(hours=2)))
    arch = np.sin(np.linspace(0, np.pi, 60)) * 1000 + 1
    day = np.concatenate([np.zeros(8), arch, np.zeros(28)])
    path = write_csv(tmp_path / "offset.csv", day, start=start)
    for command in ("schedule", "histogram"):
        result = runner.invoke(
            main, [command, "--sizes", "0.5,0.25", str(path), "--output-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(tmp_path / "schedule.csv")))
    stamps = [r["timestamp"] for r in rows]
    assert stamps[0] == "2021-06-21T05:00:00+02:00"
    assert stamps == [(start + k * timedelta(minutes=15)).isoformat() for k in range(day.size)]
    lit = {datetime.fromisoformat(r["timestamp"]).hour for r in rows if float(r["S"]) > 0}
    hist = csv.DictReader(open(tmp_path / "histogram.csv"))
    assert {int(r["bin"]) for r in hist} == lit


def test_histogram_bins_in_the_first_rows_clock_across_a_dst_change(runner, tmp_path):
    # three days at 15 min across 2021-03-28, when clocks go from +01:00 to
    # +02:00 at 01:00 UTC; the sun shines from 06:00 to 18:00 local time
    winter, summer = timezone(timedelta(hours=1)), timezone(timedelta(hours=2))
    change = datetime(2021, 3, 28, 1, tzinfo=timezone.utc)
    first = datetime(2021, 3, 27, tzinfo=winter)
    path = tmp_path / "dst.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "power_w"])
        for k in range(3 * 96):
            stamp = (first + k * timedelta(minutes=15)).astimezone(winter)
            if stamp >= change:
                stamp = stamp.astimezone(summer)
            writer.writerow([stamp.isoformat(), 1000 if 6 <= stamp.hour < 18 else 0])
    for command in ("schedule", "histogram"):
        result = runner.invoke(
            main, [command, "--sizes", "0.5,0.25", str(path), "--output-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
    # every stamp and every bin is in the first row's +01:00 clock, so the
    # two summer days light bins 5..16 and the winter day bins 6..17
    stamps = [r["timestamp"] for r in csv.DictReader(open(tmp_path / "schedule.csv"))]
    assert "2021-03-29T15:00:00+01:00" in stamps
    assert all(stamp.endswith("+01:00") for stamp in stamps)
    lit = np.zeros(24, dtype=int)
    for row in csv.DictReader(open(tmp_path / "histogram.csv")):
        lit[int(row["bin"])] += int(row["count"])
    assert lit.tolist() == [0] * 5 + [8] + [12] * 11 + [4] + [0] * 6


def test_mixed_naive_and_offset_rows_are_a_parse_error(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "timestamp,power_w\n"
        "2021-06-21T05:00:00,100\n"
        "2021-06-21T05:15:00+02:00,200\n"
        "2021-06-21T05:30:00,300\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "loadsizer.cli", "schedule", "--sizes", "0.5,0.25",
         "--output-dir", str(tmp_path), str(path)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stderr
    assert "line 3" in run.stderr
    assert "Traceback" not in run.stderr


def test_sensitivity_row_count(runner, small_csv, tmp_path):
    result = runner.invoke(
        main,
        [
            "sensitivity", "--n", "2", "--steps", "42", "--block-length", "4",
            str(small_csv), "--output-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "sensitivity.csv").read_text().strip().splitlines()
    assert len(lines) == 43  # header + one row per C value


def test_histogram_command_combo_columns(runner, small_csv, tmp_path):
    result = runner.invoke(
        main,
        ["histogram", "--sizes", "0.5,0.25", str(small_csv), "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "histogram.csv").read_text().strip().splitlines()[1:]
    combos = {int(r.split(",")[1]) for r in rows}
    assert combos == {1, 2, 3}


def test_compare_small(runner, small_csv, tmp_path):
    result = runner.invoke(
        main,
        [
            "compare", "--n-range", "2-2", str(small_csv), "--output-dir", str(tmp_path),
            "--block-length", "4", "--ratio", "1", "--node-limit", "40",
        ],
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(tmp_path / "normalized_su.csv")))
    by_method = {r["method"]: float(r["normalized_SU"]) for r in rows}
    assert by_method["ecls"] == pytest.approx(1.0, abs=1e-12)
    assert set(by_method) == {"ecls", "icls", "milp"}


# ``compare``'s files on ``small_csv`` with the clear day, byte for byte:
# a refactor that is meant to change no answer must leave them as they are
PINNED_COMPARISON = """\
n,method,x1,x2,x3,sum_x,SU
2,analytic,0.5865907355724006,0.28156120623932557,,0.868151941812,0.795285327148
2,ecls,0.5987417414393905,0.20428856159091235,,0.80303030303,0.788516006938
2,icls,0.5779267662849638,0.23920500644169795,,0.817131772727,0.808667127579
2,milp,0.5795177854608861,0.23761398726577562,,0.817131772727,0.808622513929
3,analytic,0.5466991394607048,0.26850760075689617,0.13028244379935902,0.945489184017,0.90129091472
3,ecls,0.5580159748100816,0.25903643972244966,0.1172910198109032,0.934343434343,0.903153401131
3,icls,0.5786294519663837,0.24125755054741793,0.14018704557409167,0.960074048088,0.912993710023
3,milp,0.5327787243139732,0.2843530484126886,0.1441660028385969,0.961297775565,0.888992357809
"""
PINNED_NORMALIZED = """\
n,method,SU,normalized_SU
2,analytic,0.795285327148,1.00858488623
2,ecls,0.788516006938,1
2,icls,0.808667127579,1.02555575342
2,milp,0.808622513929,1.02549917416
3,analytic,0.90129091472,0.997937796161
3,ecls,0.903153401131,1
3,icls,0.912993710023,1.01089550112
3,milp,0.888992357809,0.984320445116
"""


def test_compare_files_keep_their_bytes(runner, small_csv, clear_day_csv, tmp_path):
    result = runner.invoke(
        main,
        [
            "compare", "--n-range", "2-3", "--clear-day", str(clear_day_csv), str(small_csv),
            "--output-dir", str(tmp_path), "--block-length", "4", "--ratio", "4",
            "--node-limit", "40",
        ],
    )
    assert result.exit_code == 0, result.output
    for name, pinned in [
        ("comparison.csv", PINNED_COMPARISON), ("normalized_su.csv", PINNED_NORMALIZED)
    ]:
        # the writers end rows in \r\n, as csv.writer does
        assert (tmp_path / name).read_bytes() == pinned.replace("\n", "\r\n").encode(), name


def test_compare_sizes_redispatch_to_their_su(runner, year_csv, tmp_path):
    result = runner.invoke(
        main, ["compare", "--n-range", "2-2", str(year_csv), "--output-dir", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    series = normalize(load_series(year_csv, resample_seconds=900))
    rows = list(csv.DictReader(open(tmp_path / "comparison.csv")))
    assert {r["method"] for r in rows} == {"ecls", "icls", "milp"}
    for r in rows:
        x = np.array([float(r["x1"]), float(r["x2"])])
        su = utilization(series, dispatch_greedy(series, x), x).solar_utilization
        assert su == pytest.approx(float(r["SU"]), abs=1e-12), r["method"]


def test_compare_prints_milp_status_and_gap(runner, small_csv, tmp_path):
    result = runner.invoke(
        main,
        [
            "compare", "--n-range", "2-2", str(small_csv), "--output-dir", str(tmp_path),
            "--block-length", "4", "--ratio", "1", "--node-limit", "40",
        ],
    )
    assert result.exit_code == 0, result.output
    lines = {line.split(":")[0]: line for line in result.output.splitlines() if " n=" in line}
    assert re.fullmatch(
        r"milp n=2: SU=\d\.\d{4} \((optimal|gap_limit|node_limit), gap [-+.\de]+\)",
        lines["milp n=2"],
    ), lines["milp n=2"]
    assert re.fullmatch(r"icls n=2: SU=\d\.\d{4}", lines["icls n=2"])


def test_compare_refuses_a_nan_gap(runner, small_csv, tmp_path):
    result = runner.invoke(
        main,
        [
            "compare", "--n-range", "2-2", str(small_csv), "--output-dir", str(tmp_path),
            "--block-length", "4", "--ratio", "4", "--gap", "nan",
        ],
    )
    assert result.exit_code == 3, result.output
    assert "milp n=2: FAILED (gap_tol must be >= 0)" in result.output
    rows = list(csv.DictReader(open(tmp_path / "comparison.csv")))
    assert {r["method"] for r in rows} == {"ecls", "icls"}


def test_compare_partial_failure_exit_3(runner, tmp_path):
    # 30 daytime points cannot feed the default 60-point ECLS design
    path = write_csv(tmp_path / "tiny.csv", np.concatenate([np.zeros(5), np.linspace(100, 900, 30)]))
    result = runner.invoke(
        main,
        [
            "compare", "--n-range", "2-2", str(path), "--output-dir", str(tmp_path),
            "--ratio", "1", "--node-limit", "30",
        ],
    )
    assert result.exit_code == 3
    assert (tmp_path / "comparison.csv").exists()
    rows = list(csv.DictReader(open(tmp_path / "comparison.csv")))
    assert {r["method"] for r in rows} == {"icls", "milp"}


def test_compare_skips_the_analytic_route_above_its_load_range(
    runner, small_csv, clear_day_csv, tmp_path
):
    result = runner.invoke(
        main,
        [
            "compare", "--n-range", "4-5", "--clear-day", str(clear_day_csv), str(small_csv),
            "--output-dir", str(tmp_path), "--block-length", "3", "--ratio", "4",
            "--node-limit", "20",
        ],
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(tmp_path / "comparison.csv")))
    assert [r["n"] for r in rows if r["method"] == "analytic"] == ["4"]
    assert {r["n"] for r in rows} == {"4", "5"}


def test_config_defaults_and_flag_precedence(runner, small_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# knobs\nsteps=11\nblock_length=4\n")
    result = runner.invoke(
        main,
        [
            "sensitivity", "--n", "2", str(small_csv), "--config", str(cfg),
            "--output-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    assert len((tmp_path / "sensitivity.csv").read_text().strip().splitlines()) == 12
    # explicit flag beats the config value
    result = runner.invoke(
        main,
        [
            "sensitivity", "--n", "2", "--steps", "5", str(small_csv),
            "--config", str(cfg), "--output-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    assert len((tmp_path / "sensitivity.csv").read_text().strip().splitlines()) == 6


def outputs(directory):
    """Every file a run wrote, JSON results without their runtime."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            payload.pop("runtime_seconds")
            files[path.name] = payload
        else:
            files[path.name] = path.read_text()
    return files


# (config line, the same value as flags, the command around it, what it must change)
CONFIG_KEYS = {
    "size_n": (
        "n=3", ["--n", "3"], ["size", "--method", "ecls", "--block-length", "4"],
        lambda files: "result_ecls_n3.json" in files,
    ),
    "size_denormalize": (
        "denormalize=true", ["--denormalize"], ["size", "--method", "ecls"],
        lambda files: "x_watts" in files["result_ecls_n2.json"]["diagnostics"],
    ),
    "histogram_bins": (
        "bins=4", ["--bins", "4"], ["histogram", "--sizes", "0.5,0.25"],
        lambda files: {row.split(",")[0] for row in files["histogram.csv"].split()[1:]}
        <= {"0", "1", "2", "3"},
    ),
    "histogram_sizes": (
        "sizes=0.5,0.25", ["--sizes", "0.5,0.25"], ["histogram"],
        lambda files: "histogram.csv" in files,
    ),
    "schedule_sizes": (
        "sizes=0.5,0.25", ["--sizes", "0.5,0.25"], ["schedule"],
        lambda files: "schedule.csv" in files,
    ),
    "compare_n_range": (
        "n_range=2-2", ["--n-range", "2-2"], ["compare", "--ratio", "1", "--node-limit", "5"],
        lambda files: {row.split(",")[0] for row in files["comparison.csv"].split()[1:]} == {"2"},
    ),
    "compare_clear_day": (
        "clear_day={clear}", ["--clear-day", "{clear}"],
        ["compare", "--n-range", "2-2", "--ratio", "1", "--node-limit", "5"],
        lambda files: ",analytic," in files["comparison.csv"],
    ),
    "sensitivity_n": (
        "n=4", ["--n", "4"], ["sensitivity", "--steps", "5", "--block-length", "4"],
        lambda files: files["sensitivity.csv"].startswith("C,x1,x2,x3,x4,SU"),
    ),
}


@pytest.mark.parametrize("case", CONFIG_KEYS)
def test_config_key_acts_like_its_flag(runner, small_csv, clear_day_csv, tmp_path, case):
    line, flags, command, changed = CONFIG_KEYS[case]
    line = line.format(clear=clear_day_csv)
    flags = [flag.format(clear=clear_day_csv) for flag in flags]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    runs = {}
    for name, extra in [("config", ["--config", str(cfg)]), ("flags", flags)]:
        out = tmp_path / name
        result = runner.invoke(main, command + [str(small_csv), "--output-dir", str(out)] + extra)
        assert result.exit_code == 0, result.output
        runs[name] = outputs(out)
    assert runs["config"] == runs["flags"]
    assert changed(runs["config"])


def test_flag_beats_config_for_n(runner, small_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=3\n")
    result = runner.invoke(
        main,
        [
            "sensitivity", "--n", "2", "--steps", "5", "--block-length", "4", str(small_csv),
            "--config", str(cfg), "--output-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "sensitivity.csv").read_text().startswith("C,x1,x2,SU")


def test_config_ignores_keys_of_removed_options(runner, tmp_path):
    # big_m and no_tighten were MILP options once; old config files keep working
    path = write_csv(tmp_path / "three.csv", np.array([300.0, 600.0, 900.0]))
    cfg = tmp_path / "old.cfg"
    cfg.write_text("big_m=1.5\nno_tighten=true\nratio=1\ngap=0\n")
    result = runner.invoke(
        main,
        [
            "size", "--method", "milp", "--n", "2", str(path),
            "--config", str(cfg), "--output-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "result_milp_n2.json").read_text())
    assert payload["diagnostics"]["ratio"] == 1
    assert sorted(payload["x"], reverse=True) == pytest.approx([2 / 3, 1 / 3], abs=1e-9)


def test_read_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps 11\n")
    with pytest.raises(UsageError):
        read_config(cfg)


def test_exit_codes_via_subprocess(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,power_w\nnot-a-date,1\n")
    env_cmd = [sys.executable, "-m", "loadsizer.cli"]
    usage = subprocess.run(
        env_cmd + ["size", "--method", "nope", "--n", "1", str(bad)],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2
    data = subprocess.run(
        env_cmd + ["size", "--method", "ecls", "--n", "1", str(bad)],
        capture_output=True,
        text=True,
    )
    assert data.returncode == 1
    assert "error" in data.stderr.lower()


def test_size_icls_refuses_negative_restarts(small_csv, tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "loadsizer.cli", "size", "--method", "icls", "--n", "2",
         "--restarts", "-3", "--output-dir", str(tmp_path), str(small_csv)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stderr
    assert "restarts must be >= 0" in run.stderr
    assert "Traceback" not in run.stderr


def test_size_milp_refuses_more_than_twenty_loads(small_csv, tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "loadsizer.cli", "size", "--method", "milp", "--n", "21",
         "--ratio", "4", "--output-dir", str(tmp_path), str(small_csv)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stderr
    assert "need 1..20 loads, got 21" in run.stderr
    assert "Traceback" not in run.stderr


def test_size_analytic_refuses_more_loads_than_it_sizes(clear_day_csv, tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "loadsizer.cli", "size", "--method", "analytic", "--n", "5",
         "--output-dir", str(tmp_path), str(clear_day_csv)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2, run.stderr
    assert "usage error: the analytic route supports n <= 4" in run.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--sizes", "a,b"],
        ["schedule", "--sizes", ""],
        ["histogram", "--sizes", "a,b"],
        ["histogram", "--sizes", ""],
        ["compare", "--n-range", "2-x"],
        ["compare", "--n-range", ""],
    ],
)
def test_malformed_lists_are_usage_errors(tmp_path, argv):
    path = write_csv(tmp_path / "three.csv", np.array([300.0, 600.0, 900.0]))
    run = subprocess.run(
        [sys.executable, "-m", "loadsizer.cli", *argv, "--output-dir", str(tmp_path), str(path)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("usage error: ")
    assert "Traceback" not in run.stderr


def test_denormalize_reports_watts(runner, tmp_path):
    path = write_csv(tmp_path / "three.csv", np.array([300.0, 600.0, 900.0]))
    result = runner.invoke(
        main,
        [
            "size", "--method", "milp", "--n", "1", str(path), "--ratio", "1",
            "--denormalize", "--output-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "result_milp_n1.json").read_text())
    assert payload["diagnostics"]["s_max_watts"] == pytest.approx(900.0)
    assert payload["diagnostics"]["x_watts"][0] == pytest.approx(
        payload["x"][0] * 900.0, rel=1e-12
    )


# (command, option, library function, the parameter the option feeds)
OPTION_DEFAULTS = [
    (command, option, fn, parameter)
    for commands, option, fn, parameter in [
        (("size", "compare"), "c_steps", line_search_C, "c_steps"),
        (("size", "compare"), "block_length", line_search_C, "block_length"),
        (("sensitivity",), "steps", sensitivity_table, "c_steps"),
        (("sensitivity",), "block_length", sensitivity_table, "block_length"),
        (("size", "compare"), "restarts", optimize_m, "restarts"),
        (("size", "compare"), "seed", optimize_m, "seed"),
        (("size", "compare"), "multistarts", solve_n_load, "multistarts"),
        (("size", "compare"), "seed", solve_n_load, "seed"),
        (("size", "compare"), "gap", branch_and_bound, "gap_tol"),
        (("histogram",), "bins", combo_histogram, "bins_per_day"),
    ]
    for command in commands
]


@pytest.mark.parametrize(
    "command, option, fn, parameter",
    OPTION_DEFAULTS,
    ids=[f"{c}-{o}-{fn.__name__}" for c, o, fn, _ in OPTION_DEFAULTS],
)
def test_option_default_is_the_library_default(command, option, fn, parameter):
    """Each option's default is the default of the parameter it feeds.
    ``--node-limit`` is left out on purpose: its 200 is the node budget for
    the downsampled year and differs from ``branch_and_bound``'s exact
    default of 100 000."""
    options = {param.name: param.default for param in main.commands[command].params}
    assert options[option] == inspect.signature(fn).parameters[parameter].default
