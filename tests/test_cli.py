import csv
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from cbrsim.cli import (
    ExperimentPlan,
    SweepAxis,
    main,
    plan_from_args,
    build_parser,
    group_cells,
    read_runs_csv,
    run_sweep,
)
import cbrsim.engine
from cbrsim.config import Protocol, ScenarioConfig, parse_config
from cbrsim.engine import TRACE_HEADERS
from cbrsim.errors import ConfigError, InvariantError
from cbrsim.metrics import CSV_COLUMNS, aggregate
from cbrsim.traffic import Flow
from conftest import child_env

FAST = (
    "node_count=12\n"
    "area=400x400\n"
    "max_speed=10\n"
    "min_speed=0.1\n"
    "sim_duration=30\n"
    "hello_interval=1\n"
    "neighbor_timeout=3\n"
    "flow_count=3\n"
    "packet_rate=2\n"
)


@pytest.fixture
def fast_cfg_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST)
    return path


def run_cli(args, cwd):
    return main([str(a) for a in args])


def test_cli_single_run_writes_one_row(fast_cfg_file, tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(fast_cfg_file), "--protocol", "cbrp", "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = read_runs_csv(out / "runs.csv")
    assert len(rows) == 1
    assert rows[0].protocol == "cbrp" and rows[0].seed == 7
    assert (out / "summary.csv").exists()
    assert (out / "report.txt").exists()


def test_cli_same_command_twice_byte_identical(fast_cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "--config", str(fast_cfg_file), "--protocol", "both",
            "--seed", "7", "--out", str(out),
        ]) == 0
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_cli_both_protocols_two_paired_rows(fast_cfg_file, tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(fast_cfg_file), "--protocol", "both", "--seed", "7", "--out", str(out)]) == 0
    rows = read_runs_csv(out / "runs.csv")
    assert [r.protocol for r in rows] == ["cbrp", "cross-cbrp"]
    assert all(r.seed == 7 for r in rows)


def test_cli_sweep_produces_cross_product(fast_cfg_file, tmp_path):
    out = tmp_path / "out"
    code = main([
        "--config", str(fast_cfg_file), "--protocol", "both",
        "--sweep", "speed=5,10", "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    rows = read_runs_csv(out / "runs.csv")
    assert len(rows) == 8  # 2 speeds x 2 protocols x 2 seeds
    speeds = {r.max_speed for r in rows}
    assert speeds == {5.0, 10.0}


def test_cli_rate_sweep_axis(fast_cfg_file, tmp_path):
    out = tmp_path / "out"
    assert main([
        "--config", str(fast_cfg_file), "--sweep", "rate=1,2",
        "--protocol", "cbrp", "--seeds", "2", "--out", str(out),
    ]) == 0
    rows = read_runs_csv(out / "runs.csv")
    assert {r.packet_rate for r in rows} == {1.0, 2.0}


def test_summary_recomputable_from_runs_csv(fast_cfg_file, tmp_path):
    out = tmp_path / "out"
    main([
        "--config", str(fast_cfg_file), "--protocol", "both",
        "--sweep", "speed=5,10", "--seeds", "2", "--out", str(out),
    ])
    rows = read_runs_csv(out / "runs.csv")
    cells = group_cells(rows, SweepAxis.MAX_SPEED)
    recomputed = {key: aggregate(group) for key, group in cells.items()}
    with open(out / "summary.csv", newline="") as fh:
        written = list(csv.reader(fh))
    body = written[1:]
    assert len(body) == len(recomputed)
    for line, ((value, protocol), stats) in zip(body, recomputed.items()):
        assert float(line[1]) == value
        assert line[2] == protocol
        assert float(line[4]) == stats["ch_changes"].mean


def test_cli_resume_skips_completed_cells(fast_cfg_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    main(["--config", str(fast_cfg_file), "--protocol", "cbrp", "--seed", "3", "--out", str(out)])
    first = (out / "runs.csv").read_bytes()

    import cbrsim.cli as cli_mod

    calls = []
    original = cli_mod.Simulation

    class CountingSim(original):
        def __init__(self, *a, **kw):
            calls.append(1)
            super().__init__(*a, **kw)

    monkeypatch.setattr(cli_mod, "Simulation", CountingSim)
    assert main([
        "--config", str(fast_cfg_file), "--protocol", "cbrp",
        "--seed", "3", "--out", str(out), "--resume",
    ]) == 0
    assert calls == []  # everything reused
    assert (out / "runs.csv").read_bytes() == first


def test_cli_resume_refuses_another_base_config(fast_cfg_file, tmp_path):
    # The resume key holds no node count: without config.txt the 30-node
    # resume would reuse the 12-node row.
    out = tmp_path / "out"
    common = ["--config", str(fast_cfg_file), "--seed", "0", "--out", str(out)]
    assert main(common + ["--node_count", "12"]) == 0
    first = (out / "runs.csv").read_bytes()
    assert main(common + ["--node_count", "30", "--resume"]) == 2
    assert (out / "runs.csv").read_bytes() == first
    (out / "config.txt").unlink()
    assert main(common + ["--node_count", "12", "--resume"]) == 2
    assert (out / "runs.csv").read_bytes() == first


def test_cli_resume_refuses_a_runs_csv_with_another_header(fast_cfg_file, tmp_path, capsys):
    # The rows still parse, so only the header shows the columns mean
    # something else (here a renamed column, as from another version).
    out = tmp_path / "out"
    common = ["--config", fast_cfg_file, "--protocol", "cbrp", "--seed", "3", "--out", out]
    assert run_cli(common, tmp_path) == 0
    runs = out / "runs.csv"
    header, *rows = runs.read_text().splitlines()
    assert header.startswith("protocol,")
    runs.write_text("\n".join(["variant" + header.removeprefix("protocol"), *rows]) + "\n")
    damaged = runs.read_bytes()
    capsys.readouterr()
    assert run_cli([*common, "--resume"], tmp_path) == 2
    assert f"unexpected runs.csv header in {runs}" in capsys.readouterr().err
    assert runs.read_bytes() == damaged


def _with_seed(row, seed):
    protocol, _, rest = row.split(",", 2)
    return f"{protocol},{seed},{rest}"


@pytest.mark.parametrize(
    "damage, message",
    [
        pytest.param(lambda row: row[: len(row) // 2], f"expected {len(CSV_COLUMNS)} columns",
                     id="truncated"),
        pytest.param(lambda row: row + ",7", f"expected {len(CSV_COLUMNS)} columns, got "
                     f"{len(CSV_COLUMNS) + 1}", id="too-long"),
        pytest.param(lambda row: _with_seed(row, "x"), "invalid literal", id="bad-value"),
    ],
)
def test_cli_resume_rejects_a_malformed_last_row(fast_cfg_file, tmp_path, capsys, damage, message):
    # Catches a resume that crashes on a cut-off row or silently drops the
    # extra columns of a long one.
    out = tmp_path / "out"
    common = ["--config", fast_cfg_file, "--protocol", "cbrp", "--seeds", "2", "--out", out]
    assert run_cli(common, tmp_path) == 0
    runs = out / "runs.csv"
    *head, last = runs.read_text().splitlines()
    runs.write_text("\n".join([*head, damage(last)]))
    damaged = runs.read_bytes()
    capsys.readouterr()
    assert run_cli([*common, "--resume"], tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{runs} line 3: {message}" in err
    assert runs.read_bytes() == damaged


def test_cli_flag_overrides_beat_file(fast_cfg_file, tmp_path):
    out = tmp_path / "out"
    main([
        "--config", str(fast_cfg_file), "--protocol", "cbrp", "--seed", "1",
        "--max_speed", "4", "--out", str(out),
    ])
    rows = read_runs_csv(out / "runs.csv")
    assert rows[0].max_speed == 4.0


def test_cli_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("max_speed=0\n")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "flag, make, reason",
    [
        ("--config", lambda p: None, "No such file"),
        ("--config", lambda p: p.mkdir(), "Is a directory"),
        ("--config", lambda p: p.write_bytes(b"node_count=\xff\n"), "can't decode"),
        ("--out", lambda p: p.write_text("not a directory\n"), "File exists"),
    ],
    ids=["config-missing", "config-directory", "config-not-utf8", "out-is-a-file"],
)
def test_cli_unusable_config_or_out_path_exits_2(fast_cfg_file, tmp_path, capsys, flag, make, reason):
    # These used to end in a traceback and exit 1.
    path = tmp_path / "target"
    make(path)
    args = {"--config": fast_cfg_file, "--out": tmp_path / "o", flag: path}
    assert main([str(a) for kv in args.items() for a in kv]) == 2
    err = capsys.readouterr().err
    what = "cannot read --config" if flag == "--config" else "cannot create output directory"
    assert f"configuration error: {what} {path}: " in err and reason in err
    assert not (tmp_path / "o").exists()
    if flag == "--out":
        assert path.read_text() == "not a directory\n"


def test_cli_repeated_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("area=500x400\nnode_count=10\narea_width=600\n")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "line 3: area_width is already set on line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--sim_duration", "nan"), ("--packet_rate", "nan"), ("--hello_interval", "inf"),
     ("--link_rate", "inf"), ("--tx_range", "inf"), ("--area_width", "nan")],
)
def test_cli_non_finite_value_exits_2(tmp_path, flag, value):
    assert main([flag, value, "--out", str(tmp_path / "o")]) == 2


def test_cli_removed_replications_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--replications", "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_cli_unknown_sweep_axis_exits_2(fast_cfg_file, tmp_path):
    assert main([
        "--config", str(fast_cfg_file), "--sweep", "altitude=1,2",
        "--out", str(tmp_path / "o"),
    ]) == 2


@pytest.mark.parametrize(
    "argv, flag, field",
    [
        (["--area_width", "600", "--area", "500x400"], "area", "area_width"),
        (["--area", "500x400", "--area_width", "600"], "area", "area_width"),
        # The sweep sets its field in every cell, so the flag's value would be
        # recorded in config.txt and report.txt yet used by no run.
        (["--sweep", "speed=5,10", "--max_speed", "30"], "sweep", "max_speed"),
        (["--packet_rate", "3", "--sweep", "rate=1,2"], "sweep", "packet_rate"),
    ],
    ids=["width-then-area", "area-then-width", "sweep-speed", "sweep-rate"],
)
def test_cli_field_set_by_two_flags_exits_2_naming_both(tmp_path, capsys, argv, flag, field):
    # argparse keeps no order between flags, so either order must fail the
    # same way rather than let one flag silently win.
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert f"--{flag}: {field} is already set by --{field}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_flag_given_twice_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--node_count", "10", "--node_count", "20", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "argument --node_count: given twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, first, second",
    [
        ("--config", "a.cfg", "b.cfg"),
        ("--protocol", "cbrp", "cross-cbrp"),
        ("--sweep", "speed=5", "rate=2"),
        ("--seeds", "1", "2"),
        ("--seed", "1", "2"),
        ("--out", "a", "b"),
    ],
)
def test_cli_run_flag_given_twice_exits_2(flag, first, second, capsys):
    # The second value used to replace the first without a word.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([flag, first, flag, second])
    assert exc.value.code == 2
    assert f"argument {flag}: given twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, repeated",
    [("values", (5.0, 5.0)), ("protocols", (Protocol.CBRP, Protocol.CBRP)), ("seeds", (0, 0))],
    ids=["values", "protocols", "seeds"],
)
def test_plan_rejects_a_repeated_value_protocol_or_seed(field, repeated):
    # A library caller gets the same check as the CLI: one cell run twice
    # would be summarized as two replicates.
    plan = dict(
        base=ScenarioConfig(), axis=SweepAxis.MAX_SPEED, values=(5.0,),
        protocols=(Protocol.CBRP,), seeds=(0,),
    )
    with pytest.raises(ConfigError, match=rf"{field} must be non-empty and distinct"):
        ExperimentPlan(**dict(plan, **{field: repeated}))
    with pytest.raises(ConfigError, match=rf"{field} must be non-empty and distinct"):
        ExperimentPlan(**dict(plan, **{field: ()}))


def test_plan_without_a_sweep_axis_refuses_values():
    # Accepted, the values would never run: cells() yields one cell, and
    # report.txt says "sweep axis: none".
    with pytest.raises(ConfigError, match=r"values \(5\.0, 10\.0\) need a sweep axis"):
        ExperimentPlan(
            base=ScenarioConfig(), axis=SweepAxis.NONE, values=(5.0, 10.0),
            protocols=(Protocol.CBRP,), seeds=(0,),
        )


@pytest.mark.parametrize(
    "values, message",
    [("5,5.0", "values must be non-empty and distinct, got (5.0, 5.0)"),
     ("5,inf", "max_speed is finite"),
     ("5,fast", "bad sweep values '5,fast'")],
    ids=["repeat", "inf", "not-a-number"],
)
def test_cli_repeated_sweep_value_exits_2(fast_cfg_file, tmp_path, capsys, values, message):
    # One cell run twice would read as two replicates with zero spread; a bad
    # value in a later cell must fail before the earlier cells run.  Unchecked,
    # a value that is not a number raises a ValueError out of main.
    out = tmp_path / "o"
    assert main([
        "--config", str(fast_cfg_file), "--sweep", f"speed={values}", "--out", str(out),
    ]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


def test_cli_flags_parse_like_file_lines():
    args = build_parser().parse_args(["--area", "500x400", "--fading_enabled", "yes"])
    assert plan_from_args(args).base == parse_config("area=500x400\nfading_enabled=yes\n")


@pytest.mark.parametrize(
    "flag, value, message",
    [("--node_count", "many", "--node_count: bad value 'many'"),
     ("--area", "500by400", "--area: area must look like 1000x1000"),
     ("--fading_enabled", "maybe", "--fading_enabled: not a boolean")],
)
def test_cli_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, flag, value, message):
    assert main([flag, value, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_invariant_breach_exits_3_and_replays_from_its_config(
    fast_cfg_file, tmp_path, monkeypatch, capsys
):
    real_finalize = cbrsim.engine.finalize

    def finalize(ledger, cfg):
        if (cfg.protocol, cfg.rng_seed) == (Protocol.CBRP, 1):
            raise InvariantError(f"forced breach in {cfg.protocol.value} seed {cfg.rng_seed}")
        return real_finalize(ledger, cfg)

    monkeypatch.setattr(cbrsim.engine, "finalize", finalize)
    out = tmp_path / "out"
    argv = [
        "--config", str(fast_cfg_file), "--protocol", "both", "--seeds", "2",
        "--sim_duration", "10", "--trace", "--out", str(out),
    ]
    assert main(argv) == 3
    replay_config = out / "invariant_config.txt"
    breach = "internal invariant breach: forced breach in cbrp seed 1"
    assert capsys.readouterr().err == (
        f"{breach}\nreplay: python -m cbrsim --config {replay_config} --trace\n"
    )
    plan = plan_from_args(build_parser().parse_args(argv))
    assert parse_config(replay_config.read_text(encoding="utf-8")) == plan.config_for(
        None, Protocol.CBRP, 1
    )
    events = "events_cbrp_seed1_v10_r2.csv"  # the breaching cell's trace
    names = {p.name for p in out.iterdir()}
    assert events in names
    assert not any(n.startswith("events_cross-cbrp") for n in names)  # the sweep stopped

    replay = tmp_path / "replay"
    assert main(["--config", str(replay_config), "--trace", "--out", str(replay)]) == 3
    assert capsys.readouterr().err.splitlines()[0] == breach
    assert (replay / events).read_bytes() == (out / events).read_bytes()


def test_cli_trace_writes_trace_files(fast_cfg_file, tmp_path):
    out = tmp_path / "out"
    assert main([
        "--config", str(fast_cfg_file), "--protocol", "both", "--seed", "2",
        "--sim_duration", "10", "--out", str(out), "--trace",
    ]) == 0
    headers = {stem: list(header) for stem, header in TRACE_HEADERS.items()}
    headers["flows"] = [f.name for f in fields(Flow)]
    sweep_files = {"runs.csv", "summary.csv", "report.txt", "config.txt"}
    names = {p.name for p in out.iterdir()} - sweep_files
    for protocol in ("cbrp", "cross-cbrp"):
        cell = {n for n in names if f"_{protocol}_seed2_" in n}
        assert len(cell) == 5, cell
        for stem, header in headers.items():
            [name] = [n for n in cell if n.startswith(f"{stem}_{protocol}_")]
            with open(out / name, newline="") as fh:
                assert next(csv.reader(fh)) == header, name
    assert len(names) == 10, names


def test_cli_traced_sweep_keeps_values_that_agree_to_six_digits_apart(tmp_path):
    # Both values print as 10 with :g; each cell still needs its own trace files.
    out = tmp_path / "out"
    assert main([
        "--protocol", "cbrp", "--sweep", "speed=10.0000001,10.0000002", "--seeds", "1",
        "--node_count", "6", "--area", "300x300", "--sim_duration", "3",
        "--flow_count", "1", "--trace", "--out", str(out),
    ]) == 0
    sweep_files = {"runs.csv", "summary.csv", "report.txt", "config.txt"}
    traces = {p.name for p in out.iterdir()} - sweep_files
    assert len(traces) == 10, traces
    assert {n for n in traces if n.startswith("flows_")} == {
        "flows_cbrp_seed0_v10.0000001_r4.csv", "flows_cbrp_seed0_v10.0000002_r4.csv"
    }
    labels = [line.split()[0] for line in (out / "report.txt").read_text().splitlines()
              if line.endswith(")") and "cbrp" in line]
    assert labels == ["10.0000001", "10.0000002"]


def test_traced_sweep_peak_memory_does_not_grow_with_duration(tmp_path):
    # Trace rows go to their files as the run makes them.  Rows held until
    # the run ends would more than double the peak of the 240 s run, which
    # makes four times the 60 s run's rows; streamed, it stays within 10%.
    base = ScenarioConfig(
        node_count=6, area_width=300.0, area_height=300.0, max_speed=10.0,
        min_speed=1.0, hello_interval=1.0, neighbor_timeout=3.0, flow_count=1,
        packet_rate=1.0,
    )
    peaks = []
    for duration in (60.0, 240.0):
        plan = ExperimentPlan(
            base=base.with_overrides(sim_duration=duration), axis=SweepAxis.NONE,
            values=(), protocols=(Protocol.CBRP,), seeds=(0,),
        )
        tracemalloc.start()
        try:
            run_sweep(plan, tmp_path / f"t{duration:g}", trace=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_entry_point_installed():
    for module in ("cbrsim.cli", "cbrsim"):
        result = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, f"python -m {module}: {result.stderr}"
        assert "simrun" in result.stdout, module
        if module == "cbrsim":
            # The package entry point runs without runpy's double-import warning.
            assert result.stderr == ""


def test_plan_cells_pair_seeds_across_protocols():
    parser = build_parser()
    args = parser.parse_args(["--protocol", "both", "--sweep", "speed=5,10", "--seeds", "3"])
    plan = plan_from_args(args)
    cells = list(plan.cells())
    assert len(cells) == 12
    seeds_per_protocol = {}
    for value, protocol, seed in cells:
        seeds_per_protocol.setdefault(protocol, set()).add(seed)
    assert seeds_per_protocol[Protocol.CBRP] == seeds_per_protocol[Protocol.CROSS_CBRP]
