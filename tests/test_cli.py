"""CLI behaviour: determinism, config precedence, failure modes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from scap import analysis, kernels
from scap.cli import (
    COMMAND_DEFAULTS,
    COMMANDS,
    CliError,
    build_parser,
    main,
    resolve_config,
)
from scap.io import load_report
from scap.prune import PruneSpec, compile_ffn

FAST = {
    "d_model": 12,
    "d_hidden": 24,
    "blocks": 2,
    "calib_sequences": 3,
    "sequence_len": 48,
    "capacity": 4096,
    "seed": 77,
}


def fast(command, **overrides):
    """The flags of ``FAST`` (with ``overrides``) that ``command`` declares."""
    values = {**FAST, **overrides}
    declared = [key for key in values if key in COMMAND_DEFAULTS[command]]
    return [arg for key in declared for arg in ("--" + key.replace("_", "-"), str(values[key]))]


def _run(args):
    return main([str(a) for a in args])


def _snapshot(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


@pytest.mark.parametrize(
    "command,extra",
    [
        ("calibrate", ["--sparsity-grid", "0.3,0.5,0.7"]),
        ("sweep", ["--grid-up", "0.3,0.6", "--grid-down", "0.4,0.7"]),
        ("bench", ["--batch", "4", "--sparsity-grid", "0.2,0.5"]),
        ("overlap", ["--batch-sizes", "1,2,4", "--n-batches", "4"]),
        ("ablate-mode", ["--sparsity-grid", "0.3,0.6"]),
        ("roundtrip-check", []),
    ],
)
def test_subcommands_write_byte_identical_outputs(tmp_path, command, extra):
    out = tmp_path / command
    args = [command, "--out", out] + fast(command) + extra
    assert _run(args) == 0
    first = _snapshot(out)
    assert first, "command wrote no files"
    assert _run(args) == 0
    assert _snapshot(out) == first


def test_calibration_report_contents(tmp_path):
    out = tmp_path / "cal"
    assert _run(["calibrate", "--out", out] + fast("calibrate")) == 0
    report = load_report(out / "calibration.json")
    assert report["kind"] == "calibration"
    assert report["config"]["seed"] == 77
    layers = report["payload"]["layers"]
    assert set(layers) == {"up_gate_input", "down_input"}
    hooks = report["payload"]["hooks"]
    assert len(hooks) == 4  # 2 blocks x 2 sites
    taus = layers["up_gate_input"]["tau_by_sparsity"]
    ordered = [taus[k] for k in sorted(taus, key=float)]
    assert ordered == sorted(ordered)


def test_eta_estimators_agree_on_centered_data(tmp_path):
    # SwiGLU hook distributions are centered; mean and KDE modes coincide
    out = tmp_path / "cal"
    assert _run(["calibrate", "--out", out, "--ffn", "swiglu"] + fast("calibrate")) == 0
    report = load_report(out / "calibration.json")
    for layer in report["payload"]["layers"].values():
        eta = layer["eta"]
        assert abs(eta["kde"] - eta["mean"]) < 0.05
        assert abs(eta["median"] - eta["mean"]) < 0.05


def test_bench_csv_structure(tmp_path):
    out = tmp_path / "bench"
    assert _run(["bench", "--out", out, "--batch", "4"] + fast("bench")) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    header = lines[1].split(",")
    assert header == [
        "scheme", "d", "h", "batch", "target_sparsity", "observed_sparsity",
        "macs", "dense_macs", "macs_ratio",
    ]
    schemes = {line.split(",")[0] for line in lines[2:]}
    assert schemes == {"dense", "cats", "scap"}


def test_bench_scap_rows_equal_batch_quantile_oracle(tmp_path):
    # the oracle is bench's former SCAP path: exact batch quantiles of |x| and
    # |gated| as taus, compiled by hand and run through swiglu_ffn; every bench
    # value fits the reservoir, so planning through make_specs gives its bytes
    d, h, batch, seed, grid = 12, 40, 6, 5, [0.1, 0.35, 0.5, 0.9]
    out = tmp_path / "bench"
    args = ["--d-model", d, "--d-hidden", h, "--batch", batch, "--seed", seed]
    grid_arg = ["--sparsity-grid", ",".join(map(str, grid))]
    assert _run(["bench", "--out", out, *args, *grid_arg]) == 0
    rows = load_report(out / "bench.json")["payload"]["rows"]
    rng = np.random.default_rng(seed)
    w = kernels.SwiGluWeights(*(
        (rng.standard_normal((m, n)) / np.sqrt(m)).astype(np.float32)
        for m, n in ((d, h), (d, h), (h, d))
    ))
    x = rng.standard_normal((batch, d)).astype(np.float32)
    _, gated, dense = kernels.swiglu_ffn(x, w)
    expected = []
    for s in grid:
        tau_x = float(np.quantile(np.abs(x), s))
        tau_g = float(np.quantile(np.abs(gated), s))
        _, _, rec = kernels.swiglu_ffn(x, w, *compile_ffn(w, PruneSpec(tau_x), PruneSpec(tau_g)))
        kept_x, kept_g = rec.up.kept, rec.down.kept
        obs = kernels.ffn_sparsity(
            1.0 - kept_x.sum() / kept_x.size, 1.0 - kept_g.sum() / kept_g.size
        )
        macs, dense_macs = rec.ops.macs, dense.dense_macs
        expected.append(["scap", d, h, batch, s, obs, macs, dense_macs, macs / dense_macs])
    assert [r for r in rows if r[0] == "scap"] == expected
    assert expected[0][6] > expected[-1][6]  # the grid spans real pruning


@pytest.mark.parametrize(
    "flag, key",
    [
        (["--blocks", "4"], "blocks"),
        (["--no-rmsnorm"], "rmsnorm"),
        (["--no-residual"], "residual"),
        (["--up-bias-offset", "0.5"], "up_bias_offset"),
        (["--ffn", "gelu"], "ffn"),
        (["--input-scale", "2"], "input_scale"),
        (["--estimator", "kde"], "estimator"),
    ],
)
def test_bench_rejects_block_flags_it_ignores(tmp_path, capsys, flag, key):
    # bench runs one bare SwiGLU block on one drawn batch, so it declares none
    # of these keys: as a flag or in a config file (even at another command's
    # default) each would be echoed into a run it did not change
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        _run(["bench", "--out", out, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: COMMAND_DEFAULTS["ablate-mode"][key]}))
    assert _run(["bench", "--out", out, "--config", cfg_file]) == 1
    assert capsys.readouterr().err == f"scap: error: unknown config keys: [{key!r}]\n"
    assert not out.exists()  # rejected before any file is written


def test_config_file_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 123, "d_model": 20}))
    parser = build_parser()
    # file overrides defaults
    args = parser.parse_args(["calibrate", "--config", str(cfg_file)])
    cfg = resolve_config(args)
    assert cfg.seed == 123
    assert cfg.d_model == 20
    # flags override the file
    args = parser.parse_args(
        ["calibrate", "--config", str(cfg_file), "--seed", "9"]
    )
    cfg = resolve_config(args)
    assert cfg.seed == 9
    assert cfg.d_model == 20


@pytest.mark.parametrize(
    "command,content,match",
    [
        ("calibrate", {"rmsnorm": "false"}, "'rmsnorm' must be of type bool"),
        ("calibrate", {"rmsnorm": 0}, "'rmsnorm' must be of type bool"),
        ("calibrate", {"seed": True}, "'seed' must be of type int"),
        ("calibrate", {"seed": 7.0}, "'seed' must be of type int"),
        ("calibrate", {"d_model": "32"}, "'d_model' must be of type int"),
        ("calibrate", {"input_scale": False}, "'input_scale' must be of type float"),
        ("calibrate", {"input_scale": "0.5"}, "'input_scale' must be of type float"),
        ("calibrate", {"ffn": None}, "'ffn' must be of type str"),
        ("calibrate", {"sparsity_grid": [0.5]}, "'sparsity_grid' must be of type str"),
        ("overlap", {"n_batches": 2.5}, "'n_batches' must be of type int"),
        ("calibrate", [1, 2], "JSON object, got list"),
        ("calibrate", "seed", "JSON object, got str"),
        ("calibrate", 3, "JSON object, got int"),
        ("overlap", {"input_scale": float("nan")}, "input_scale must be finite"),
        ("overlap", {"up_bias_offset": float("inf")}, "up_bias_offset must be finite"),
        ("overlap", {"rho": float("-inf")}, "rho must be finite"),
        ("overlap", {"input_scale": 10**400}, "input_scale must be finite"),
        ("sweep", {"estimator": "bogus"}, "estimator must be one of"),
        ("sweep", {"ffn": "bogus"}, "ffn must be one of"),
    ],
)
def test_config_file_values_must_match_default_types(tmp_path, command, content, match):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(content))
    args = build_parser().parse_args([command, "--config", str(cfg_file)])
    with pytest.raises(CliError, match=match):
        resolve_config(args)


def test_config_file_int_stands_for_float(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"input_scale": 2, "rho": 0, "rmsnorm": False}))
    cfg = resolve_config(build_parser().parse_args(["overlap", "--config", str(cfg_file)]))
    assert (cfg.input_scale, cfg.rho, cfg.rmsnorm) == (2, 0, False)


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_every_option_is_an_echoed_config_key(command):
    dests = set(vars(build_parser().parse_args([command]))) - {"command", "config"}
    assert dests == set(COMMAND_DEFAULTS[command])


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_every_flag_parses_its_default_back(command):
    parser = build_parser()
    for key, default in COMMAND_DEFAULTS[command].items():
        if type(default) is bool:
            args = [command, f"--no-{key}"]
            want = False
        else:
            args = [command, "--" + key.replace("_", "-"), str(default)]
            want = default
        got = vars(parser.parse_args(args))[key]
        assert got == want and type(got) is type(want), key


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_each_command_reads_and_echoes_exactly_its_keys(default_run, command):
    """Over a default run (``tests/conftest.py``), the keys read through
    ``RunConfig`` (as attributes or ``values[key]``) and the keys every
    artifact echoes are the ones the command declares, so no key is
    accepted that cannot change its result."""
    run = default_run(command)
    out = run.out
    declared = set(COMMAND_DEFAULTS[command])
    assert run.reads == declared
    echoes = [load_report(p)["config"] for p in out.glob("*.json")]
    for path in out.glob("*.csv"):
        first = path.read_text().splitlines()[0]
        echoes.append(json.loads(first.removeprefix("# config: ")))
    assert echoes and all(set(echo) == declared for echo in echoes)


def test_float_flag_takes_an_int():
    scale = build_parser().parse_args(["calibrate", "--input-scale", "1"]).input_scale
    assert scale == 1.0 and type(scale) is float


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    listed = {line[0]: line[1] for line in lines if len(line) == 2 and line[0] in COMMANDS}
    assert listed == {
        "calibrate": "emit tau/eta calibration report",
        "sweep": "two-axis Pareto grid sweep",
        "bench": "kernel MAC-ratio sweep",
        "overlap": "overlap-sparsity decay curve",
        "ablate-mode": "pruning with vs without mode centering",
        "roundtrip-check": "weight container round-trip check",
    }


def test_bench_time_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["bench", "--out", tmp_path / "o", "--time"])
    assert exc.value.code == 2
    assert "--time" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"time": False}))
    assert _run(["bench", "--out", tmp_path / "o", "--config", cfg_file]) == 1
    assert "unknown config keys: ['time']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,name",
    [
        (["overlap", "--n-batches", "0"], "n_batches"),
        (["overlap", "--batch-sizes", ","], "batch_sizes"),
        (["bench", "--batch", "0"], "batch"),
    ],
)
def test_degenerate_sizes_fail_naming_the_parameter(tmp_path, capsys, args, name):
    assert _run(args + ["--out", tmp_path / "o"] + fast(args[0])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scap: error: {name} must") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command,flag,key",
    [
        ("calibrate", "--sparsity-grid", "sparsity_grid"),
        ("sweep", "--grid-up", "grid_up"),
        ("bench", "--sparsity-grid", "sparsity_grid"),
        ("ablate-mode", "--sparsity-grid", "sparsity_grid"),
    ],
)
def test_empty_grid_fails_naming_the_key(tmp_path, capsys, command, flag, key):
    assert _run([command, flag, ",", "--out", tmp_path / "o"] + fast(command)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scap: error: {key} must") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args,name",
    [
        (["overlap", "--rho", "1.0"], "rho"),
        (["overlap", "--target-sparsity", "1.5"], "target_sparsity"),
        (["overlap", "--batch-sizes", "4,2"], "batch_sizes"),
        (["overlap", "--n-batches", "0"], "n_batches"),
        (["sweep", "--grid-up", "1.5"], "grid_up"),
        (["sweep", "--grid-down", "0.3,1.2"], "grid_down"),
        (["ablate-mode", "--sparsity-grid", "0.2,1.1"], "sparsity_grid"),
        (["calibrate", "--sparsity-grid", "1.5"], "sparsity_grid"),
        (["bench", "--sparsity-grid", "0.5,1.5"], "sparsity_grid"),
        (["calibrate", "--calib-sequences", "0"], "calib_sequences"),
        (["sweep", "--sequence-len", "0"], "sequence_len"),
        (["ablate-mode", "--input-scale", "nan"], "input_scale"),
        (["roundtrip-check", "--ffn", "gelu", "--up-bias-offset", "inf"], "up_bias_offset"),
        (["calibrate", "--ffn", "gelu", "--up-bias-offset", "nan"], "up_bias_offset"),
        (["overlap", "--rho", "nan"], "rho"),
        (["bench", "--d-model", "0"], "d_model"),
        (["bench", "--d-hidden", "0"], "d_hidden"),
        (["calibrate", "--seed", "-1"], "seed"),
        (["sweep", "--blocks", "0"], "blocks"),
        (["calibrate", "--capacity", "0"], "capacity"),
    ],
)
def test_bad_arguments_fail_before_calibrating(tmp_path, capsys, monkeypatch, args, name):
    calls = []
    monkeypatch.setattr(analysis, "calibrate", lambda *a, **k: calls.append(a))
    # the case's flags come after FAST's, so they win
    assert _run(args[:1] + fast(args[0]) + args[1:] + ["--out", tmp_path / "o"]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith(f"scap: error: {name} must") and err.count("\n") == 1


def test_default_sweep_never_runs_the_row_kernels(default_run):
    """Every product of a default sweep is a batch over a weight below
    ``tensor.ROW_GEMM_MIN``, where one BLAS GEMM is faster than the row
    kernels. Its compiled loops (the pruner, silu and the reservoir draw)
    share one source, so a fresh process runs ``cc`` once."""
    run = default_run("sweep")
    assert run.row_shapes == []
    assert run.compiles == ["cc"]


def test_default_sweep_runs_each_shared_stage_once(default_run):
    """The grid's one evaluation walk runs block 0's rmsnorm once per batch
    for all nine points and the dense stack, and block 0's Up/Gate site once
    per Up target; each point still runs its own ``SparseStack.forward``.
    Each of 64 eval batches: 42 ``sparse_fc`` calls (3 Up targets x 2, 9
    Downs, 9 x 3 in block 1), 14 silu, 11 rmsnorm and the dense stack's 6
    products. Each calibration pass ends its batch after the last stage it
    observes. Per batch, the dense pass, which observes the Up/Gate site,
    stops after block 1's rmsnorm: 3 products, 1 silu and 2 rmsnorm. Each
    of the three second passes observes the Down site and stops before
    block 1's Down: 4 ``sparse_fc`` calls, 1 product, 2 silu and 2
    rmsnorm."""
    assert default_run("sweep").calls == {
        "kernels.sparse_fc": 3456,
        "tensor.silu": 1344,
        "model._rmsnorm": 1216,
        "kernels.matmul": 768,
        "SparseStack.forward": 576,
    }


def test_default_ablation_runs_each_shared_stage_once(default_run):
    """All 16 Down-pruned variants share block 0's dense Up site with the
    dense stack (no rmsnorm on this substrate): each of 64 eval batches runs
    18 GELUs and 20 dense products, where a walk per variant would run 34
    and 36. The calibration pass observes the Down site and stops each batch
    before block 1's Down: 2 GELUs and 3 products per batch."""
    assert default_run("ablate-mode").calls == {
        "kernels.sparse_fc": 2048,
        "tensor.gelu": 1280,
        "kernels.matmul": 1472,
        "SparseStack.forward": 1024,
    }


def test_activations_and_a_sweep_run_without_scipy(tmp_path):
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np, scap.cli, scap.tensor as t\n"
        "x = np.linspace(-4, 4, 9, dtype=np.float32)\n"
        "assert t.silu(x).dtype == t.gelu(x).dtype == np.float32\n"
        "sys.exit(scap.cli.main(sys.argv[1:]))"
    )
    grid = ["--grid-up", "0.3", "--grid-down", "0.5"]
    args = ["sweep", "--out", str(tmp_path / "o"), *fast("sweep"), *grid]
    subprocess.run([sys.executable, "-c", code, *args], check=True, timeout=120)
    assert (tmp_path / "o" / "sweep.json").is_file()


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sneed": 1}))
    assert _run(["calibrate", "--out", tmp_path / "o", "--config", cfg_file]) == 1


def test_missing_config_file_fails(tmp_path):
    assert _run(["calibrate", "--out", tmp_path / "o", "--config", tmp_path / "nope.json"]) == 1


def test_ablate_mode_requires_gelu(tmp_path):
    args = ["ablate-mode", "--out", tmp_path / "o", "--ffn", "swiglu"] + fast("ablate-mode")
    assert _run(args) == 1


def test_ablate_mode_defaults_to_shifted_gelu_substrate():
    parser = build_parser()
    cfg = resolve_config(parser.parse_args(["ablate-mode"]))
    assert cfg.ffn == "gelu"
    assert cfg.up_bias_offset == pytest.approx(1.2)
    assert cfg.rmsnorm is False
    assert cfg.estimator == "kde"


def test_sweep_csv_has_pareto_column(tmp_path):
    out = tmp_path / "sweep"
    assert (
        _run(
            ["sweep", "--out", out, "--grid-up", "0.3", "--grid-down", "0.5"] + fast("sweep")
        )
        == 0
    )
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[-1] == "pareto"
    assert lines[2].split(",")[-1] == "1"  # single grid point is the front
    report = load_report(out / "sweep.json")
    assert report["payload"]["pareto_indices"] == [0]


def test_non_integer_batch_sizes_rejected(tmp_path, capsys):
    args = ["overlap", "--out", tmp_path / "o", "--batch-sizes", "1.7"] + fast("overlap")
    assert _run(args) == 1
    assert "ints" in capsys.readouterr().err


def test_bad_thread_count_fails_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCAP_THREADS", "0")
    assert _run(["sweep", "--out", tmp_path / "o"] + fast("sweep")) == 1
    err = capsys.readouterr().err
    assert err.startswith("scap: error: SCAP_THREADS") and err.count("\n") == 1


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_rejects_a_bad_thread_count_before_running(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setenv("SCAP_THREADS", "abc")
    out = tmp_path / "o"
    assert _run([command, "--out", out] + fast(command)) == 1
    err = capsys.readouterr().err
    assert err.startswith("scap: error: SCAP_THREADS") and err.count("\n") == 1
    assert not out.exists()  # rejected before the command writes anything


@pytest.mark.parametrize("debug", [None, "0", "1"])
def test_debug_switch_keeps_the_cause(tmp_path, monkeypatch, capsys, debug):
    if debug is None:
        monkeypatch.delenv("SCAP_DEBUG", raising=False)
    else:
        monkeypatch.setenv("SCAP_DEBUG", debug)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    args = ["calibrate", "--out", tmp_path / "o", "--config", cfg]
    if debug == "1":
        with pytest.raises(CliError, match="not valid JSON") as err:
            _run(args)
        assert isinstance(err.value.__cause__, json.JSONDecodeError)
    else:
        assert _run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("scap: error: config file is not valid JSON")
        assert err.count("\n") == 1
