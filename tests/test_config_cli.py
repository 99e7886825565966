"""Configuration parsing, provenance, report rendering, and the command-line
front end (exercised in-process through main())."""

import csv
import dataclasses
import io
import json
import math
from types import SimpleNamespace

import pytest

from qempar import ScenarioConfig, run
from qempar.config import load_config, parse_config_text
from qempar.errors import ConfigError
from qempar.cli import _parse_overrides, main
from qempar.report import COLUMNS, aggregate, emit_report


# --- configuration ---------------------------------------------------------

def test_defaults_validate():
    ScenarioConfig().validate()
    ScenarioConfig(source_x=20, bit_rate_bps=250_000).validate()  # ints for float fields


def test_config_text_round_trips_exactly():
    cfg = ScenarioConfig(rate_pkts_per_s=12.5, interference_reference=1234.5,
                         beacon_accounting=False, node_count=37)
    parsed = parse_config_text(cfg.to_text())
    assert ScenarioConfig(**parsed) == cfg


def test_load_config_tracks_provenance(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("# comment line\nnode_count = 50\nrouter = minhop  # inline\n")
    cfg, prov = load_config(str(path), {"seed": "7"})
    assert cfg.node_count == 50
    assert cfg.router == "minhop"
    assert cfg.seed == 7
    assert prov["node_count"] == "file"
    assert prov["router"] == "file"
    assert prov["seed"] == "override"
    assert prov["duration_s"] == "default"


def test_overrides_beat_the_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("node_count = 50\n")
    cfg, prov = load_config(str(path), {"node_count": "60"})
    assert cfg.node_count == 60
    assert prov["node_count"] == "override"


def test_parsing_fails_closed():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config_text("no_such_knob = 1\n")
    with pytest.raises(ConfigError, match="line 2: duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config_text("node_count = plenty\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config_text("beacon_accounting = maybe\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="unknown"):
        load_config(None, {"no_such_knob": "1"})
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/no/such/file.cfg")


def test_bool_words_and_numeric_coercion():
    assert parse_config_text("beacon_accounting = Yes\n") == {"beacon_accounting": True}
    assert parse_config_text("beacon_accounting = 0\n") == {"beacon_accounting": False}
    assert parse_config_text("rate_pkts_per_s = 2e1\n") == {"rate_pkts_per_s": 20.0}
    with pytest.raises(ConfigError):
        parse_config_text("node_count = 3.5\n")


def test_validation_reports_every_violation_at_once():
    bad = ScenarioConfig(node_count=1, rate_pkts_per_s=-1.0, router="flood",
                         bit_rate_bps=0, base_success=0, fragment_count=4097,
                         reassembly_deadline_s=0.0, radio_range_m=0.0)
    with pytest.raises(ConfigError) as err:
        bad.validate()
    text = str(err.value)
    assert "node_count" in text
    assert "rate_pkts_per_s" in text
    assert "router" in text
    assert "bit_rate_bps" in text
    assert "base_success" in text
    # fragment(), ReassemblyBuffer and link_success_probability rely on
    # these bounds and do not check them again.
    assert "fragment_count cannot exceed packet bits" in text
    assert "reassembly_deadline_s must be positive" in text
    assert "radio_range_m must be positive" in text
    with pytest.raises(ConfigError, match="fragment_count must be at least 1"):
        ScenarioConfig(fragment_count=0).validate()


def test_validation_rejects_non_finite_floats():
    floats = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]
    assert "duration_s" in floats and "field_width" in floats
    for name in floats:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                dataclasses.replace(ScenarioConfig(), **{name: bad}).validate()


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("node_count", 30.5), ("fragment_count", 2.5), ("hop_retry_limit", 0.5),
    ("beacon_accounting", "no"), ("duration_s", "5"),
])
def test_values_of_the_wrong_type_are_rejected_before_placement(field, value, monkeypatch):
    def placement(*args):
        raise AssertionError("placement ran")

    monkeypatch.setattr("qempar.engine.place_nodes", placement)
    with pytest.raises(ConfigError, match=f"^{field} must be of type "):
        run(dataclasses.replace(ScenarioConfig(duration_s=0.5), **{field: value}))


@pytest.mark.parametrize("overrides, keys", [
    ({"interference_alpha": 200.0}, ["interference_alpha", "interference_reference"]),
    ({"interference_reference": 1e-305}, ["interference_alpha", "interference_reference"]),
    ({"field_width": 1e200, "field_height": 1e200}, ["field_width", "eps_mp_j_per_bit_m4"]),
    ({"initial_energy_j": 1e307}, ["node_count", "initial_energy_j"]),
    ({"duration_s": 1.7e308}, ["rate_pkts_per_s", "duration_s"]),
    ({"access_delay_s": 1e308, "duration_s": 0.5}, ["access_delay_s", "latest event time"]),
    ({"bit_rate_bps": 5e-324, "duration_s": 0.5}, ["bit_rate_bps", "latest event time"]),
    ({"router": "minhop", "packet_bytes": 100000, "fragment_count": 800000,
      "fragment_header_bytes": 0, "beacon_accounting": False, "e_elec_j_per_bit": 3e302,
      "node_count": 2}, ["packet_bytes", "e_elec_j_per_bit"]),
], ids=["alpha-200", "reference-1e-305", "field-1e200", "initial-energy-1e307", "duration-1.7e308",
        "access-delay-1e308", "bit-rate-5e-324", "minhop-whole-packet"])
def test_configs_whose_model_overflows_over_the_field_diagonal_are_rejected_before_placement(
        overrides, keys, monkeypatch):
    """Each of these passes every other check. Unchecked, the interference
    term of a long link is infinite (reference 1e-305) or raises
    OverflowError mid-run (d ** alpha), as do tx_energy (d ** 4) and the
    fsum of the nodes' energies, the packet count (rate x duration) cannot
    be converted to an int, a hop ends at an infinite time and so never ends
    in the log (access delay 1e308, a subnormal bit rate), and a minhop
    frame, the whole packet, costs infinite energy where fragment 1 would
    not."""
    def placement(*args):
        raise AssertionError("placement ran")

    monkeypatch.setattr("qempar.engine.place_nodes", placement)
    with pytest.raises(ConfigError, match="overflow") as err:
        run(ScenarioConfig(**{"duration_s": 1.0, **overrides}))
    assert all(key in str(err.value) for key in keys)


@pytest.mark.parametrize("overrides, key", [
    ({"node_count": 2**63}, "node_count"),
    ({"node_count": 10**30}, "node_count"),
    ({"packet_bytes": 2**63, "fragment_count": 2**63}, "fragment_count"),
])
def test_counts_too_large_to_hold_are_rejected_before_placement(overrides, key, monkeypatch):
    """Unchecked, these pass validate() and then raise from numpy at
    placement (the n x n distance table) or spend the run building a
    packet's list of fragments."""
    def placement(*args):
        raise AssertionError("placement ran")

    monkeypatch.setattr("qempar.engine.place_nodes", placement)
    with pytest.raises(ConfigError, match=f"^{key} is too large"):
        run(ScenarioConfig(**{"duration_s": 1.0, **overrides}))


def test_a_steep_but_finite_interference_exponent_runs():
    m = run(ScenarioConfig(duration_s=0.5, interference_alpha=100.0), 1)
    assert m.delivered > 0


def test_load_config_rejects_invalid_combinations():
    with pytest.raises(ConfigError, match="coincide"):
        load_config(None, {"source_x": "0", "source_y": "0"})


# --- report rendering ------------------------------------------------------

def _fake(delay, energy, ratio):
    return SimpleNamespace(mean_delay_s=delay, mean_energy_j=energy,
                           delivery_ratio=ratio)


def test_aggregate_means_rows_and_sorts_them():
    cells = {
        (10.0, "qempar", 1): _fake(0.2, 1e-3, 1.0),
        (10.0, "qempar", 2): _fake(0.4, 3e-3, 0.5),
        (5.0, "minhop", 1): _fake(0.1, 2e-3, 1.0),
    }
    rows = aggregate(cells)
    assert [(r["rate_pkts_per_s"], r["router"]) for r in rows] == [
        (5.0, "minhop"), (10.0, "qempar")]
    q = rows[1]
    assert q["mean_delay_s"] == pytest.approx(0.3)
    assert q["mean_energy_j"] == pytest.approx(2e-3)
    assert q["delivery_ratio"] == pytest.approx(0.75)
    assert q["n_seeds"] == 2


def test_aggregate_skips_undelivered_runs_in_means():
    cells = {
        (10.0, "qempar", 1): _fake(0.2, 1e-3, 1.0),
        (10.0, "qempar", 2): _fake(None, None, 0.0),
    }
    row = aggregate(cells)[0]
    assert row["mean_delay_s"] == pytest.approx(0.2)  # only the delivering run
    assert row["delivery_ratio"] == pytest.approx(0.5)  # but the ratio counts both
    assert row["n_seeds"] == 2


def test_aggregate_skips_zero_packet_runs_in_the_ratio():
    cells = {
        (10.0, "qempar", 1): _fake(0.2, 1e-3, 0.5),
        (10.0, "qempar", 2): _fake(None, None, None),
        (20.0, "qempar", 1): _fake(None, None, None),
    }
    rows = aggregate(cells)
    assert rows[0]["delivery_ratio"] == pytest.approx(0.5)
    assert rows[0]["n_seeds"] == 2
    assert rows[1]["delivery_ratio"] is None
    assert emit_report(rows[1:], "csv").splitlines()[1] == "20.0,qempar,,,,1"


def test_empty_cells_render_as_empty_csv_fields():
    rows = aggregate({(10.0, "qempar", 1): _fake(None, None, 0.0)})
    text = emit_report(rows, "csv")
    header, line = text.splitlines()
    assert header == "rate_pkts_per_s,router,mean_delay_s,mean_energy_j,delivery_ratio,n_seeds"
    assert line == "10.0,qempar,,,0.0,1"


def test_json_report_mirrors_csv():
    rows = aggregate({
        (5.0, "qempar", 1): _fake(0.125, 0.5e-3, 1.0),
        (5.0, "minhop", 1): _fake(0.25, 1e-3, 0.875),
    })
    loaded = json.loads(emit_report(rows, "json"))
    parsed = list(csv.DictReader(io.StringIO(emit_report(rows, "csv"))))
    assert len(loaded) == len(parsed) == 2
    for obj, row in zip(loaded, parsed):
        assert list(obj) == COLUMNS
        assert float(row["mean_delay_s"]) == obj["mean_delay_s"]
        assert float(row["mean_energy_j"]) == obj["mean_energy_j"]
        assert row["router"] == obj["router"]


def test_report_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate({})
    with pytest.raises(ValueError):
        emit_report([])
    with pytest.raises(ValueError):
        emit_report([{"x": 1}], "xml")


# --- command line ----------------------------------------------------------

FAST = ["--set", "duration_s=0.5", "--set", "rate_pkts_per_s=6"]


@pytest.mark.parametrize("router, fragments", [("qempar", 4), ("minhop", 1)])
def test_validate_command_prints_resolved_config(capsys, router, fragments):
    assert main(["validate", "--set", "seed=3", "--set", f"router={router}"]) == 0
    out = capsys.readouterr().out
    assert "configuration is valid" in out
    assert "seed = 3  [override]" in out
    assert "duration_s = 60.0  [default]" in out
    assert "d0 = 87.705802" in out
    assert f"packet size = 4096 bits in {fragments} fragment(s)" in out


def test_bad_configuration_exits_2(capsys):
    assert main(["validate", "--set", "node_count=1"]) == 2
    assert "node_count" in capsys.readouterr().err
    assert main(["validate", "--set", "typo"]) == 2
    assert main(["run", "--set", "no_such_knob=1"] + FAST) == 2
    assert main(["sweep", "--rates", "abc"] + FAST) == 2
    assert main(["sweep", "--seeds", "5..1"] + FAST) == 2
    assert main(["sweep", "--jobs", "0", "--rates", "5", "--seeds", "1"] + FAST) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--rate", "inf"],
    ["run", "--set", "field_width=inf"],
    ["run", "--set", "duration_s=nan"],
    ["sweep", "--set", "traffic_model=poisson", "--set", "duration_s=inf", "--rates", "5"],
    ["sweep", "--seeds=-3,2", "--rates", "5"],
    ["sweep", "--rates", "5,0"],
    ["sweep", "--rates", "5,inf"],
    ["sweep", "--rates", "5", "--seeds", ","],
    ["sweep", "--rates", "5", "--seeds", "1,1", "--router", "qempar"],
    ["sweep", "--rates", "5,5.0", "--seeds", "1", "--router", "qempar"],
    ["sweep", "--rates", "5", "--seeds", "1..x"],
    ["sweep", "--rates", ","],
    ["run", "--set", "interference_alpha=500", "--set", "duration_s=1"],
    ["run", "--set", "duration_s=1.7e308"],
    ["run", "--set", "access_delay_s=1e308", "--set", "duration_s=0.5"],
    ["run", "--set", "bit_rate_bps=5e-324", "--set", "duration_s=0.5"],
])
def test_invalid_values_exit_2_before_any_cell_runs(argv, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr("qempar.cli.run", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setattr("qempar.engine.run", lambda *args, **kwargs: ran.append(args))
    assert main(argv) == 2
    assert ran == []
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("key", ["hop_budget_factor=1e308", "radio_range_m=1e-310"])
def test_a_depth_cap_beyond_any_path_runs(key, capsys):
    """The hop estimate or its product with the factor is infinite here;
    discovery caps both at n - 1 hops, the longest simple path."""
    assert main(["run", "--set", key, "--set", "duration_s=0.1"]) == 0


def test_repeated_set_key_exits_2(capsys):
    assert main(["validate", "--set", "seed=3", "--set", " seed = 4"]) == 2
    assert "seed" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        _parse_overrides(["duration_s=1", "duration_s=1"])
    assert _parse_overrides(["seed=3", "duration_s=1"]) == {"seed": "3", "duration_s": "1"}


@pytest.mark.parametrize("flag, key", [
    (["--seed", "3"], "seed=5"),
    (["--rate", "6"], "rate_pkts_per_s=7"),
    (["--router", "minhop"], "router=qempar"),
    (["--router", "both"], "router=minhop"),
])
def test_flag_and_set_of_the_same_key_exit_2(flag, key, capsys):
    assert main(["run"] + flag + ["--set", key, "--set", "duration_s=0.5"]) == 2
    err = capsys.readouterr().err
    assert key.split("=")[0] in err and "by a flag and by --set" in err


@pytest.mark.parametrize("key", ["wraparound_assignment=false", "e_da_j_per_bit=1e-9",
                                 "stats_decay=0.5", "interference_neighbor_coeff=0.2",
                                 "interference_noise=1.0"])
def test_removed_keys_are_rejected(key, capsys):
    assert main(["run", "--set", key] + FAST) == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_runtime_failure_prints_the_traceback_and_exits_1(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr("qempar.cli.run", boom)
    assert main(["run"] + FAST) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError" in err
    assert err.rstrip().endswith("error: simulated failure")


def test_a_runtime_failure_without_a_message_names_its_type(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("qempar.cli.run", boom)
    assert main(["run"] + FAST) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: MemoryError"


def test_run_command_emits_a_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["run", "--router", "both", "--seed", "2", "--out", str(out)] + FAST)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "# resolved configuration" in stdout
    assert "qempar:" in stdout and "minhop:" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 3  # header + one row per router
    assert {line.split(",")[1] for line in lines[1:]} == {"qempar", "minhop"}


def test_run_rejects_event_log_with_both_routers(tmp_path):
    log = tmp_path / "events.jsonl"
    code = main(["run", "--router", "both", "--event-log", str(log)] + FAST)
    assert code == 2
    assert not log.exists()


def test_run_writes_an_event_log(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    code = main(["run", "--router", "qempar", "--event-log", str(log)] + FAST)
    assert code == 0
    first = json.loads(log.read_text().splitlines()[0])
    assert first["kind"] == "packet-born"


@pytest.mark.parametrize("argv, flag", [
    (["run"], "--out"),
    (["run"], "--event-log"),
    (["sweep", "--rates", "5", "--seeds", "1"], "--out"),
])
def test_unwritable_output_path_exits_2_before_any_cell_runs(argv, flag, tmp_path,
                                                             monkeypatch, capsys):
    ran = []
    monkeypatch.setattr("qempar.cli.run", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setattr("qempar.engine.run", lambda *args, **kwargs: ran.append(args))
    path = tmp_path / "no-such-dir" / "out"
    assert main(argv + [flag, str(path)] + FAST) == 2
    assert ran == []
    assert f"error: cannot write {path}: " in capsys.readouterr().err


def test_one_file_for_report_and_event_log_exits_2_before_any_cell_runs(tmp_path, monkeypatch,
                                                                       capsys):
    ran = []
    monkeypatch.setattr("qempar.cli.run", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setattr("qempar.engine.run", lambda *args, **kwargs: ran.append(args))
    (tmp_path / "sub").mkdir()
    path = tmp_path / "both"
    same = tmp_path / "sub" / ".." / "both"
    argv = ["run", "--router", "qempar", "--out", str(path), "--event-log", str(same)]
    assert main(argv + FAST) == 2
    assert ran == []
    assert "two outputs name the same file" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--rates", "5", "--seeds", "1"]])
def test_failed_run_leaves_an_existing_report_untouched(argv, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr("qempar.cli.run", boom)
    monkeypatch.setattr("qempar.cli.compare", boom)
    out = tmp_path / "report.csv"
    out.write_text("earlier report\n")
    assert main(argv + ["--out", str(out)] + FAST) == 1
    assert out.read_text() == "earlier report\n"
    # A report that did not exist is not left behind as an empty file.
    new = tmp_path / "new.csv"
    assert main(argv + ["--out", str(new)] + FAST) == 1
    assert not new.exists()


def test_sweep_command_covers_the_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--rates", "5,10", "--seeds", "1..2",
                 "--out", str(out)] + FAST)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [(r["rate_pkts_per_s"], r["router"]) for r in rows] == [
        ("5.0", "minhop"), ("5.0", "qempar"),
        ("10.0", "minhop"), ("10.0", "qempar")]
    assert all(r["n_seeds"] == "2" for r in rows)


def test_sweep_accepts_comma_seed_lists(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--rates", "8", "--seeds", "2,4", "--router", "qempar",
                 "--format", "json", "--out", str(out)] + FAST)
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["router"] == "qempar"
    assert rows[0]["n_seeds"] == 2


@pytest.mark.parametrize("args, routers", [
    ([], {"minhop", "qempar"}),
    (["--set", "router=minhop"], {"minhop"}),
    (["--set", "router=qempar"], {"qempar"}),
    (["--router", "minhop"], {"minhop"}),
    (["--router", "both"], {"minhop", "qempar"}),
])
def test_sweep_routers_follow_the_flag_else_a_set_router(args, routers, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--rates", "5", "--seeds", "1", "--out", str(out)] + args + FAST)
    assert code == 0
    assert {r["router"] for r in csv.DictReader(io.StringIO(out.read_text()))} == routers


def test_sweep_router_from_a_config_file(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text("duration_s = 0.5\nrouter = minhop\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--rates", "5", "--seeds", "1",
                 "--out", str(out)]) == 0
    assert {r["router"] for r in csv.DictReader(io.StringIO(out.read_text()))} == {"minhop"}


@pytest.mark.parametrize("flag", ["both", "qempar"])
def test_sweep_router_flag_and_set_exit_2(flag, capsys):
    assert main(["sweep", "--router", flag, "--set", "router=minhop", "--rates", "5",
                 "--seeds", "1", "--set", "duration_s=0.5"]) == 2
    assert "router given both by a flag and by --set" in capsys.readouterr().err


def test_config_file_feeds_the_cli(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text("duration_s = 0.5\nrate_pkts_per_s = 6\nrouter = minhop\n")
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "router = minhop  [file]" in out
    assert "minhop:" in out
